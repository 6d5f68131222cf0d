"""The mutant gate: each mutant of src/gf2perfect below must fail the tests it names.

A Mutant row is one textual edit of one module.  For each row this script
writes the edit into a temporary copy of src/, never into the checkout,
and runs the row's tests against that copy in a fresh pytest process.
The mutant is killed when that run reports a failed test (pytest's exit
code 1); any other outcome, a pass, a collection error or no test run,
lets it survive.  An old text that does not occur exactly once in its
module is an error, not a pass.

    python tests/mutants.py

takes no arguments.  It first runs every named test against the
unmutated copy, which must pass, so that a kill is the mutant's doing.
It then prints one line per mutant and the count killed, and exits 1
unless every mutant is killed.

The rows are the checkers' verdicts made never to read "fail", the exit
code of a failing sweep, is_indecomposable's split test, and twenty-three
edits: of the factoring, of the primitivity test, of integer factoring,
of the parser, of the perfection test, of two checkers' failing
branches, of the search, its hit decoder and its text output, of the
sweep's grid, split rule and walk over the primes, of verify's stderr
note on a claim that checked nothing, of the order of 2, the
enumeration's images and the Delta test in mersenne, of the modular
reduction in pow, and of the gcd, x -> x+1 and byte-table reduction
kernels.  No real instance fails a claim, so only the negative controls
in tests/test_verify.py, tests/test_cli.py and tests/test_divisors.py
can kill the first 14.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    module: str  # a file of src/gf2perfect
    old: str  # must occur exactly once in the module
    new: str
    tests: tuple[str, ...]  # pytest node ids, from the repository root


def _broken_record(claim):
    return (f"tests/test_verify.py::test_checker_fails_on_a_record_that_breaks_its_claim[{claim}]",)


def _own_record(claim):
    return (f"tests/test_verify.py::test_checker_fails_on_its_own_record_broken[{claim}]",)


def _broken_range(claim):
    return (f"tests/test_verify.py::test_one_off_checker_fails_on_a_range_that_breaks_its_claim[{claim}]",)


MUTANTS = (
    # each checker made never to report "fail"; thm1.2 keeps its branch
    # for a split with a repeated prime, which lemma3.2 checks
    Mutant(
        "lemma3.2 never fails",
        "verify.py",
        'verdict = "pass" if rec.fact.is_squarefree else "fail"',
        'verdict = "pass"',
        _broken_record("lemma3.2"),
    ),
    Mutant(
        "thm1.2 never fails on a squarefree split",
        "verify.py",
        'return TheoremReport(claim, params, "pass" if other else "fail", witness)',
        'return TheoremReport(claim, params, "pass", witness)',
        _broken_record("thm1.2"),
    ),
    Mutant(
        "cor3.6 never fails",
        "verify.py",
        'return TheoremReport("cor3.6", params, "pass" if ok else "fail", witness)',
        'return TheoremReport("cor3.6", params, "pass", witness)',
        _broken_record("cor3.6"),
    ),
    Mutant(
        "lemma3.4 never fails",
        "verify.py",
        'divides(rec.s) else "fail" for k in ks]',
        'divides(rec.s) else "pass" for k in ks]',
        _broken_record("lemma3.4"),
    ),
    Mutant(
        "lemma3.15 never fails",
        "verify.py",
        'return TheoremReport("lemma3.15", params, "fail" if bad else "pass",',
        'return TheoremReport("lemma3.15", params, "pass",',
        _broken_record("lemma3.15"),
    ),
    Mutant(
        "cor3.17 never fails",
        "verify.py",
        'return TheoremReport("cor3.17", params, "pass" if ok else "fail", witness)',
        'return TheoremReport("cor3.17", params, "pass", witness)',
        _own_record("cor3.17"),
    ),
    Mutant(
        "cor3.28 never fails",
        "verify.py",
        'return TheoremReport("cor3.28", params, "pass" if ok else "fail", witness)',
        'return TheoremReport("cor3.28", params, "pass", witness)',
        _own_record("cor3.28"),
    ),
    Mutant(
        "cor3.13 never fails",
        "verify.py",
        'return TheoremReport("cor3.13", params, "pass" if ok else "fail", witness)',
        'return TheoremReport("cor3.13", params, "pass", witness)',
        _own_record("cor3.13"),
    ),
    Mutant(
        "lemma3.8 never fails",
        "verify.py",
        'return TheoremReport("lemma3.8", params, "fail" if bad else "pass",',
        'return TheoremReport("lemma3.8", params, "pass",',
        _broken_record("lemma3.8"),
    ),
    Mutant(
        "lemma3.7 never fails",
        "verify.py",
        'return TheoremReport("lemma3.7", {"max_m": max_m}, "fail" if bad else "pass", witness)',
        'return TheoremReport("lemma3.7", {"max_m": max_m}, "pass", witness)',
        _broken_range("lemma3.7"),
    ),
    Mutant(
        "lemma3.20 never fails",
        "verify.py",
        'return TheoremReport("lemma3.20", params, "fail" if found else "pass",',
        'return TheoremReport("lemma3.20", params, "pass",',
        _broken_range("lemma3.20"),
    ),
    Mutant(
        "lemma3.9 never fails",
        "verify.py",
        'return TheoremReport("lemma3.9", params, "fail" if bad else "pass",',
        'return TheoremReport("lemma3.9", params, "pass",',
        _broken_range("lemma3.9"),
    ),
    Mutant(
        "verify exits 0 on a failing verdict",
        "cli.py",
        'return lines, (1 if counts["fail"] else 0)',
        "return lines, 0",
        ("tests/test_cli.py::test_verify_exits_1_on_a_failing_verdict",),
    ),
    Mutant(
        "is_indecomposable never finds a split",
        "divisors.py",
        "if su == u:",
        "if False:",
        ("tests/test_divisors.py::test_is_indecomposable_finds_a_perfect_split",),
    ),
    Mutant(
        "Ben-Or's loop stops at d = 8",
        "factor.py",
        "while 2 * (d + 1) < fm.bit_length():",
        "while 2 * (d + 1) < fm.bit_length() and d < 8:",
        ("tests/test_acceptance.py::test_criterion_08_counting",),
    ),
    Mutant(
        "is_primitive tests only the first prime factor",
        "factor.py",
        "_intmath.prime_factors(order)",
        "_intmath.prime_factors(order)[:1]",
        ("tests/test_factor.py::test_is_primitive_matches_the_brute_force_order_through_degree_10",),
    ),
    Mutant(
        "the scan takes no special part",
        "search.py",
        "special = [(h * d, s) for h, s in table.items() if s >> odd]",
        "special = []",
        ("tests/test_search.py::test_scan_matches_the_recursion_on_synthetic_tables",),
    ),
    Mutant(
        "a part keeps a prime outside the table",
        "search.py",
        "if p not in shift:\n                return None",
        "if p not in shift:\n                continue",
        ("tests/test_search.py::test_packed_part_sums_decode",),
    ),
    Mutant(
        "the hit decoder skips the x field",
        "search.py",
        "for k, p in enumerate(primes):",
        "for k, p in enumerate(primes[1:], 1):",
        ("tests/test_search.py::test_structured_smallest",),
    ),
    Mutant(
        "outside_scope needs every odd prime non-Mersenne",
        "search.py",
        "outside_scope=any(",
        "outside_scope=all(",
        ("tests/test_cli.py::test_search_json_digest",),
    ),
    Mutant(
        "the grid drops the last h",
        "verify.py",
        "range(1, min(max_h, top) + 1)",
        "range(1, min(max_h, top))",
        ("tests/test_cli.py::test_verify_json_digest",),
    ),
    Mutant(
        "a record read for its sum alone is split",
        "verify.py",
        'split=not {"lemma3.4", "lemma3.15"}.issuperset(names)',
        "split=True",
        ("tests/test_verify.py::test_claims_on_the_sum_alone_split_nothing",),
    ),
    Mutant(
        "the sweep skips the first prime",
        "verify.py",
        "for m in enumerate_mersenne_primes(max_mersenne_degree):",
        "for m in enumerate_mersenne_primes(max_mersenne_degree)[1:]:",
        ("tests/test_cli.py::test_verify_json_digest",),
    ),
    Mutant(
        "verify never notes a claim that checked nothing",
        "cli.py",
        'if "pass" not in verdicts and "fail" not in verdicts:',
        "if False:",
        ("tests/test_cli.py::test_verify_notes_each_claim_that_checked_nothing",),
    ),
    Mutant(
        "rho never splits",
        "_intmath.py",
        "if d != n:",
        "if d == n:",
        ("tests/test_intmath.py::test_factorize_int_splits_mersenne_numbers_with_rho",),
    ),
    Mutant(
        "the parser accepts trailing input",
        "gf2poly.py",
        '        if self.pos != len(self.tokens):\n            raise ValueError("trailing input in polynomial expression")\n',
        "",
        ("tests/test_gf2poly.py::test_parse_errors",),
    ),
    Mutant(
        "thm1.2 passes a split with a repeated prime",
        "verify.py",
        '    if not fact.is_squarefree:\n        return TheoremReport("thm1.2", params, "fail", witness)\n',
        "",
        _broken_record("thm1.2-repeated"),
    ),
    Mutant(
        "lemma3.7 skips its lower bound",
        "verify.py",
        '        if m >= 4 and not _exceeds_isqrt_bound(n2, m):\n            bad.append(f"lower bound at {m}")\n',
        "",
        _broken_range("lemma3.7-lower-bound"),
    ),
    Mutant(
        "search text shows no flags",
        "cli.py",
        'flags = [k for k in ("trivial", "in_catalog", "outside_scope", "decomposable") if obj[k]]',
        "flags = []",
        ("tests/test_cli.py::test_search_json_digest",),
    ),
    Mutant(
        "check always reports perfect",
        "divisors.py",
        "if s == a:",
        "if True:",
        ("tests/test_cli.py::test_check_pass_and_fail", "tests/test_divisors.py::test_perfection_reports"),
    ),
    Mutant(
        "ord2 never divides t down",
        "mersenne.py",
        "while t % q == 0 and pow(2, t // q, p) == 1:",
        "while False:",
        ("tests/test_mersenne.py::test_ord2_is_the_brute_force_order_below_3000",),
    ),
    Mutant(
        "the enumeration drops the images",
        "mersenne.py",
        "for a in low + [degree - a for a in reversed(low) if 2 * a != degree]:",
        "for a in low:",
        ("tests/test_mersenne.py::test_enumerate_matches_catalog_at_degree_4",),
    ),
    Mutant(
        "in_delta loses its Mersenne-number branch",
        "mersenne.py",
        "    if (p + 1) & p == 0:  # p = 2^k - 1\n        return True\n",
        "",
        ("tests/test_mersenne.py::test_in_delta",),
    ),
    Mutant(
        "pow with a modulus skips reducing the base",
        "gf2poly.py",
        "result, base = _mod_mask(result, m), _mod_mask(base, m)",
        "result = _mod_mask(result, m)",
        ("tests/test_gf2poly.py::test_pow_with_a_modulus_multiplies_reduced_operands",),
    ),
    Mutant(
        "the Euclid returns a at its not-a exit",
        "gf2poly.py",
        "        if not a:\n            return b\n",
        "        if not a:\n            return a\n",
        ("tests/test_gf2poly.py::test_gcd_kernel_matches_reference_euclid",),
    ),
    Mutant(
        "x -> x+1 stops one superset-sum step early",
        "gf2poly.py",
        "    while j:\n        a ^= (a & m) >> j\n",
        "    while j > 1:\n        a ^= (a & m) >> j\n",
        ("tests/test_gf2poly.py::test_bar_kernel_matches_the_per_coefficient_substitution",),
    ),
    Mutant(
        "the byte-table reduction stops one byte early",
        "gf2poly.py",
        "while w > top:",
        "while w > top + 8:",
        ("tests/test_gf2poly.py::test_reducer_matches_mod_mask",),
    ),
)


def apply(text: str, mutant: Mutant) -> str:
    """text with the mutant's edit made; ValueError unless its old text occurs exactly once."""
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: old text occurs {count} times in {mutant.module}, not once")
    return text.replace(mutant.old, mutant.new)


def run_tests(src: Path, tests) -> int:
    """pytest's exit code for tests run against the package in src."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True).returncode


def main(mutants=MUTANTS) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        package = src / "gf2perfect"
        # every edit is checked before any test runs
        edits = [(m, package / m.module, apply((package / m.module).read_text(), m)) for m in mutants]
        probe = [sys.executable, "-c", "import gf2perfect; print(gf2perfect.__file__)"]
        env = {**os.environ, "PYTHONPATH": str(src)}
        imported = subprocess.run(probe, env=env, capture_output=True, text=True).stdout.strip()
        if not imported.startswith(str(package)):
            print(f"error: the tests import gf2perfect from {imported or 'nowhere'}, not the copy")
            return 1
        tests = list(dict.fromkeys(t for m in mutants for t in m.tests))
        code = run_tests(src, tests)
        print(f"{'ok' if code == 0 else 'FAILED':10}unmutated copy: {len(tests)} tests, exit {code}", flush=True)
        if code:
            return 1
        killed = 0
        for mutant, path, text in edits:
            original = path.read_text()
            path.write_text(text)
            start = time.perf_counter()
            try:
                code = run_tests(src, mutant.tests)
            finally:
                path.write_text(original)
            killed += code == 1
            status = "killed" if code == 1 else "SURVIVED"
            print(f"{status:10}{mutant.name} ({mutant.module}): exit {code}, {time.perf_counter() - start:.1f} s", flush=True)
    print(f"{killed} of {len(mutants)} mutants killed")
    return 0 if killed == len(mutants) else 1


if __name__ == "__main__":
    if sys.argv[1:]:
        sys.exit("tests/mutants.py takes no arguments")
    sys.exit(main())
