"""Run one gf2perfect CLI call with every layer's public functions wrapped.

    PYTHONPATH=src python3 bench/trace_launch.py TRACE_FILE RUN_ID -- ARGV...

The library source is not edited: after `import gf2perfect.cli` the
functions below are replaced by timing wrappers in every gf2perfect module
that bound them (``from .factor import factorize`` copies the name into
``divisors``, ``search``, ``verify`` and ``cli``).  Then ``cli.main(ARGV)``
runs as usual and its stdout is untouched.

Calls at the coarse layer boundaries (cli, verify, search, divisors,
factor, mersenne) are recorded as spans, one per call.  ``Poly``
operations run up to millions of times per workload, so they are only
aggregated: calls, total seconds and self seconds per operation.  Both go
to TRACE_FILE as one JSON object when the call ends; every span carries
RUN_ID.
"""

from __future__ import annotations

import json
import sys
import time

#: module -> public functions traced as spans
SPAN_FUNCTIONS = {
    "verify": ("run_all",),
    "search": ("search_structured", "search_bruteforce", "classify_hits"),
    "divisors": ("sigma", "sigma_star", "check", "is_indecomposable", "canonical_class_rep"),
    "factor": ("factorize", "is_irreducible"),
    "mersenne": ("enumerate_mersenne_primes", "mersenne_form", "catalog"),
}

#: Poly method -> operation name; `divides` is a reduction and `//` a division
POLY_OPS = {
    "__mod__": "mod",
    "divides": "mod",
    "__mul__": "mul",
    "square": "square",
    "__divmod__": "divmod",
    "__floordiv__": "divmod",
    "__pow__": "pow",
    "valuation": "valuation",
    "bar": "bar",
}

#: mask kernels that search imported by name and calls on raw integers
SEARCH_KERNELS = {"_mul_mask": "mul", "_divmod_mask": "divmod"}


class Tracer:
    """In-memory spans and per-function aggregates for one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.t0 = time.perf_counter()
        self.spans: list[tuple] = []
        # name -> [calls, inclusive seconds, self seconds, active depth]
        self.aggs: dict[str, list] = {}
        self.counts: dict[str, float] = {}
        self.seen: dict[str, set] = {}
        self._child = [0.0]  # child seconds of each open wrapped call
        self._span_ids = [0]  # open spans; 0 is the root
        self._next_id = 1

    def wrap(self, fn, name: str, *, span: bool, pre=None, post=None):
        """Return fn timed under name; spans are also recorded one by one."""
        agg = self.aggs.setdefault(name, [0, 0.0, 0.0, 0])
        child = self._child
        ids = self._span_ids
        spans = self.spans
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(args)
            if span:
                sid = tracer._next_id
                tracer._next_id = sid + 1
                parent = ids[-1]
                ids.append(sid)
            agg[3] += 1
            child.append(0.0)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                dt = end - start
                inner = child.pop()
                child[-1] += dt
                agg[3] -= 1
                agg[0] += 1
                agg[2] += dt - inner
                if not agg[3]:  # recursion counts once toward inclusive time
                    agg[1] += dt
                if span:
                    ids.pop()
                    spans.append((sid, parent, name, start, end))
            if post is not None:
                post(result)
            return result

        return wrapper

    def add(self, key: str, amount) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def note_mask(self, key: str, mask: int) -> None:
        """Count a call whose argument mask was seen before in this run."""
        seen = self.seen.setdefault(key, set())
        if mask in seen:
            self.add(key + ".repeats", 1)
        else:
            seen.add(mask)

    def dump(self, path: str, argv, exit_code: int) -> None:
        t0 = self.t0
        doc = {
            "run_id": self.run_id,
            "argv": list(argv),
            "exit_code": exit_code,
            "aggregates": {
                name: {"calls": a[0], "total_s": a[1], "self_s": a[2]} for name, a in sorted(self.aggs.items())
            },
            "counts": dict(sorted(self.counts.items())),
            "spans": [
                {"run_id": self.run_id, "id": sid, "parent": parent, "name": name, "start": s - t0, "end": e - t0}
                for sid, parent, name, s, e in sorted(self.spans)
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _rebind(modules, original, replacement) -> None:
    # every module that imported the name holds its own reference
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def instrument(tracer: Tracer):
    """Wrap the layers in place and return the wrapped ``cli.main``."""
    from gf2perfect import cli, divisors, factor, gf2poly, mersenne, search, verify

    modules = [m for name, m in sys.modules.items() if name == "gf2perfect" or name.startswith("gf2perfect.")]
    layer = {"verify": verify, "search": search, "divisors": divisors, "factor": factor, "mersenne": mersenne}

    def mask_degree(p):
        return p.mask.bit_length() - 1

    def on_sigma(args):
        tracer.note_mask("divisors.sigma", args[0].mask)

    def on_factorize(args):
        tracer.note_mask("factor.factorize", args[0].mask)
        tracer.add("factor.factorize.degree_sum", mask_degree(args[0]))

    def bitsteps(a: int, d: int) -> int:
        return max(0, a.bit_length() - d.bit_length() + 1)

    def on_mod(args):  # a % d
        tracer.add("gf2poly.mod.bitsteps", bitsteps(args[0].mask, args[1].mask))

    def on_divides(args):  # d.divides(a) reduces a by d
        tracer.add("gf2poly.mod.bitsteps", bitsteps(args[1].mask, args[0].mask))

    def on_gcd(args):
        tracer.add("gf2poly.gcd.degree_sum", max(mask_degree(args[0]), mask_degree(args[1])))

    def count_into(key):
        return lambda result: tracer.add(key, len(result))

    pre = {"divisors.sigma": on_sigma, "factor.factorize": on_factorize}
    post = {
        "verify.run_all": count_into("verify.instances"),
        "search.search_structured": count_into("search.hits"),
        "search.search_bruteforce": count_into("search.hits"),
    }
    for modname, names in SPAN_FUNCTIONS.items():
        for fname in names:
            key = f"{modname}.{fname}"
            original = getattr(layer[modname], fname)
            _rebind(modules, original, tracer.wrap(original, key, span=True, pre=pre.get(key), post=post.get(key)))

    # run_all dispatches through this table, not through the module names
    for claim, checker in list(verify._CHECKERS.items()):
        verify._CHECKERS[claim] = tracer.wrap(checker, f"verify.claim.{claim}", span=True)

    poly_pre = {"__mod__": on_mod, "divides": on_divides}
    for method, op in POLY_OPS.items():
        original = getattr(gf2poly.Poly, method)
        setattr(gf2poly.Poly, method, tracer.wrap(original, f"gf2poly.{op}", span=False, pre=poly_pre.get(method)))
    original_gcd = gf2poly.gcd
    _rebind(modules, original_gcd, tracer.wrap(original_gcd, "gf2poly.gcd", span=False, pre=on_gcd))
    for kernel, op in SEARCH_KERNELS.items():
        setattr(search, kernel, tracer.wrap(getattr(search, kernel), f"gf2poly.{op}", span=False))

    return tracer.wrap(cli.main, "cli.main", span=True)


def main(argv) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: trace_launch.py TRACE_FILE RUN_ID -- ARGV...", file=sys.stderr)
        return 2
    path, run_id, cli_argv = argv[0], argv[1], argv[3:]
    tracer = Tracer(run_id)
    cli_main = instrument(tracer)
    code = cli_main(cli_argv)
    sys.stdout.flush()
    tracer.dump(path, cli_argv, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
