"""Self-test of the benchmark's tracing.

    python3 bench/selftest.py [WORKLOAD ...]

For each workload (default: all four) it runs the CLI once untraced and
twice through trace_launch.py.  The exact counts below must agree across
the two traced runs, the traced stdout must be byte-identical to the
untraced one, and every run must pass the workload's output gate.  Exits 1
on any mismatch.
"""

from __future__ import annotations

import hashlib
import sys
import uuid

from run import OUT_DIR, WORKLOADS, Session, per_layer, run_traced

EXACT_COUNTS = (
    "verify.instances",
    "search.hits",
    "factor.factorize.calls",
    "divisors.sigma.calls",
    "gf2poly.valuation.calls",
    "gf2poly.mod.bitsteps",
)


def check(session: Session, name: str) -> list[str]:
    w = WORKLOADS[name]
    untraced = session.run_workload(w)
    runs = []
    for _ in range(2):
        into: dict = {}
        run_traced(session, w, uuid.uuid4().hex[:12], into)
        runs.append(into)
    problems = []
    if any("trace" not in r for r in runs):
        return [f"{name}: a traced run left no trace"]
    counts = [{k: per_layer(r["trace"], w, 0.0)[k][0] for k in EXACT_COUNTS} for r in runs]
    if counts[0] != counts[1]:
        problems.append(f"{name}: exact counts differ between traced runs: {counts[0]} vs {counts[1]}")
    want = hashlib.sha256(untraced.stdout).hexdigest()
    for r in runs:
        got = hashlib.sha256(r["child"].stdout).hexdigest()
        if got != want:
            problems.append(f"{name}: traced stdout sha256 {got} differs from untraced {want}")
    print(f"{name}: {counts[0]}")
    return problems


def main(names) -> int:
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"unknown workloads {unknown}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = OUT_DIR / f"selftest-{uuid.uuid4().hex[:12]}"
    workdir.mkdir(parents=True, exist_ok=True)
    session = Session(0, workdir, deadline_s=600.0 * len(names))
    try:
        problems = [p for name in names for p in check(session, name)]
    finally:
        workdir.rmdir()
    problems += session.errors
    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or list(WORKLOADS)))
