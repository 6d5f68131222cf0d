"""Command line front end.

Subcommands mirror the library modules: factor, sigma, check, mersenne,
verify, search and explore-p7.  Polynomials are written as expressions
("x^4+x^3+1", "x^2(x+1)^3M1"), hex coefficient masks ("0x13") or catalog
names (M1..M3, M2b/M3b, T1..T9, B1..B9, S1, S2; underscores optional).
`search --family mersenne` runs the structured search, `--family all`
the brute-force oracle (degree <= 20); classify_hits groups the hits.

Exit codes: 0 success or all checks passed, 1 a verdict failed, 2 usage
or input error (a verify sweep that yields no pass or fail verdict is
one; a selected claim that alone yields none gets a note on stderr).
Output depends only on the arguments; each command here builds its lines.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

from . import divisors, search, verify
from .factor import factorize
from .gf2poly import BudgetError, Poly
# catalog is unused here, but bench/run.py's set-up probe calls cli.catalog()
from .mersenne import MersennePrime, catalog, enumerate_mersenne_primes, is_mersenne_prime, parse_named

#: each mode's divisor sum as JSON names it: sigma's key and check's "mode"
_SUM_NAMES = {"perfect": "sigma", "unitary": "sigma_star"}


def _nonzero_poly_arg(text: str) -> Poly:
    p = parse_named(text)
    if not p:
        raise ValueError("the zero polynomial is not a valid input here")
    return p


def _add_common(sub):
    sub.add_argument("--format", choices=("text", "json"), default="text")


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="gf2perfect",
        description="Divisor sums, factorization and perfect-polynomial search over GF(2).",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factor", help="factor a polynomial into irreducibles")
    p.add_argument("poly")
    _add_common(p)

    p = sub.add_parser("sigma", help="divisor sum (all divisors, or unitary with --star)")
    p.add_argument("poly")
    p.add_argument("--star", action="store_true", help="sum unitary divisors instead")
    _add_common(p)

    p = sub.add_parser("check", help="test sigma(A) = A or sigma*(A) = A")
    p.add_argument("poly")
    p.add_argument("--mode", choices=divisors.MODES, default="perfect")
    _add_common(p)

    p = sub.add_parser("mersenne", help="enumerate Mersenne primes by degree")
    p.add_argument("--max-degree", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("verify", help="run claim checkers and report verdicts")
    p.add_argument("--max-degree", type=int, default=6, help="Mersenne prime degree cap")
    p.add_argument("--max-h", type=int, default=30)
    p.add_argument("--claim", default=None, help="restrict to one claim id")
    _add_common(p)

    p = sub.add_parser("search", help="search for (unitary) perfect polynomials")
    p.add_argument("--mode", choices=divisors.MODES, default="perfect")
    p.add_argument("--family", choices=("mersenne", "all"), default="mersenne")
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--all-powers", action="store_true", help="list every hit, not class representatives")
    _add_common(p)

    p = sub.add_parser("explore-p7", help="coefficients of sigma(sigma(M^6)); asserts nothing")
    p.add_argument("poly", help="a Mersenne prime (expression or catalog name)")
    p.add_argument("--odd-only", action="store_true", help="only odd coefficient indices")
    _add_common(p)

    return ap


def _cmd_factor(args):
    p = _nonzero_poly_arg(args.poly)
    fact = factorize(p)
    if args.format == "json":
        return [json.dumps([{"prime": str(q), "mult": m} for q, m in fact], sort_keys=True)], 0
    return [str(fact)], 0


def _cmd_sigma(args):
    p = _nonzero_poly_arg(args.poly)
    value = divisors.sigma_star(p) if args.star else divisors.sigma(p)
    if args.format == "json":
        key = _SUM_NAMES["unitary" if args.star else "perfect"]
        return [json.dumps({"input": str(p), key: str(value)}, sort_keys=True)], 0
    return [str(value)], 0


def _cmd_check(args):
    p = _nonzero_poly_arg(args.poly)
    report = divisors.check(p, args.mode)
    code = 0 if report.verdict else 1
    if args.format == "json":
        obj = {"subject": str(p), "mode": _SUM_NAMES[args.mode], "verdict": report.verdict}
        if report.witness is not None:
            prime, m1, m2 = report.witness
            obj["witness"] = {"prime": str(prime), "m1": m1, "m2": m2}
        return [json.dumps(obj, sort_keys=True)], code
    if report.verdict:
        return [f"{args.mode}: true"], code
    prime, m1, m2 = report.witness
    return [f"{args.mode}: false (witness: {prime} with exact powers {m1} vs {m2})"], code


def _cmd_mersenne(args):
    if args.max_degree < 2:
        raise ValueError("--max-degree must be at least 2")
    entries = enumerate_mersenne_primes(args.max_degree)
    if args.format == "json":
        objs = [{"a": m.a, "b": m.b, "degree": m.degree, "poly": str(m.poly)} for m in entries]
        return [json.dumps(obj, sort_keys=True) for obj in objs], 0
    return [f"a={m.a} b={m.b} degree={m.degree} poly={m.poly}" for m in entries], 0


def _cmd_verify(args):
    reports = verify.run_all(args.max_degree, args.max_h, claim=args.claim)
    counts = Counter(r.verdict for r in reports)
    if not counts["pass"] and not counts["fail"]:
        raise ValueError("the sweep checked nothing: no instance gave a pass or fail verdict")
    # a selected claim can still check nothing, its every instance out of
    # scope; thm1.2 reports its two cases as thm1.2-i and thm1.2-ii
    for name in verify.CLAIM_IDS if args.claim is None else (args.claim,):
        verdicts = [r.verdict for r in reports if name in (r.claim_id, r.claim_id.partition("-")[0])]
        if "pass" not in verdicts and "fail" not in verdicts:
            print(f"note: {name} checked nothing: {len(verdicts)} out_of_scope", file=sys.stderr)
    if args.format == "json":
        keys = ("claim", "params", "verdict", "witness")  # TheoremReport's fields, in order
        objs = ({k: v for k, v in zip(keys, r) if v is not None} for r in reports)
        lines = [json.dumps(obj, sort_keys=True, separators=(",", ":")) for obj in objs]
    else:
        lines = [f"{r.claim_id} {json.dumps(r.params, sort_keys=True)} {r.verdict}" for r in reports]
        lines.append("summary: " + " ".join(f"{k}={counts[k]}" for k in ("pass", "fail", "out_of_scope")))
    return lines, (1 if counts["fail"] else 0)


def _cmd_search(args):
    run = search.search_bruteforce if args.family == "all" else search.search_structured
    classes = search.classify_hits(run(args.max_degree, args.mode), args.mode)
    lines = []
    if args.all_powers:
        shown = [(member, cls) for cls in classes for member in cls.members]
    else:
        shown = [(cls.rep, cls) for cls in classes]
    for poly, cls in shown:
        obj = {
            "poly": str(poly),
            "degree": poly.degree,
            "factored": str(factorize(poly)),
            "class_rep": str(cls.rep),
            "trivial": cls.trivial,
            "in_catalog": cls.in_catalog,
            "outside_scope": cls.outside_scope,
            "decomposable": cls.decomposable,
        }
        if args.format == "json":
            lines.append(json.dumps(obj, sort_keys=True))
        else:
            flags = [k for k in ("trivial", "in_catalog", "outside_scope", "decomposable") if obj[k]]
            lines.append(f"{obj['factored']}  degree={obj['degree']}  [{', '.join(flags) or 'unclassified'}]")
    return lines, 0


def _cmd_explore_p7(args):
    p = _nonzero_poly_arg(args.poly)
    form = is_mersenne_prime(p)
    if form is None:
        raise ValueError(f"{p} is not a Mersenne prime")
    coeffs = verify.explore_alpha_u6(MersennePrime(*form, p))
    if args.odd_only:
        coeffs = [(l, c) for l, c in coeffs if l % 2]
    if args.format == "json":
        return [json.dumps({"M": str(p), "alpha": [[l, c] for l, c in coeffs]})], 0
    lines = [f"alpha_{l} = {c}" for l, c in coeffs]
    zeros = [l for l, c in coeffs if c == 0 and l % 2]
    lines.append(f"odd l with alpha_l = 0: {zeros if zeros else 'none'}")
    return lines, 0


_COMMANDS = {
    "factor": _cmd_factor,
    "sigma": _cmd_sigma,
    "check": _cmd_check,
    "mersenne": _cmd_mersenne,
    "verify": _cmd_verify,
    "search": _cmd_search,
    "explore-p7": _cmd_explore_p7,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        lines, code = _COMMANDS[args.command](args)
    except (ValueError, ArithmeticError, BudgetError) as exc:  # ZeroDivisionError is an ArithmeticError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        sys.stdout.write("\n".join(lines) + "\n" if lines else "")
        sys.stdout.flush()
    except OSError as exc:
        print(f"error: cannot write stdout: {exc.strerror}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
