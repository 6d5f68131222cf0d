"""End-to-end benchmark of the gf2perfect CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all  --seed N --seconds S --trace 0

Every workload is one `gf2perfect ... --format json` call in a fresh
process, started from this file with the checkout's `src/` on PYTHONPATH,
because CLI users pay interpreter start, imports and catalog set-up on
every call and forked workers would inherit warm caches.  Each child is
reaped with os.wait4, so its CPU time and peak RSS are its own.

--trace 0 reports the end-to-end metrics (medians over the fresh runs of
one measuring window).  --trace 1 runs the same argv once more through
bench/trace_launch.py and reports the per-layer metrics read from its
trace file.  Every run's stdout is checked against the output gate of its
workload.  The seed only shuffles the order of the runs inside each round;
the program never receives it.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines above it are a readable table
and a JSON record of the environment.  BENCHMARK.json lists the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
import uuid
from dataclasses import dataclass
from functools import partial
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

#: time allowed per workload; an invocation on one workload ends inside 180 s
DEADLINE_S = 165.0
#: set-up probes per workload run; they are short, so they are cheap samples
PROBES_PER_ROUND = 3

SETUP_PROBE = "import gf2perfect, gf2perfect.cli as c; c.catalog(); print(gf2perfect.__file__)"

#: the 12 checkers run_all dispatches, by claim id
CLAIMS = (
    "lemma3.2", "thm1.2", "lemma3.4", "cor3.6", "lemma3.15", "cor3.17",
    "cor3.28", "cor3.13", "lemma3.8", "lemma3.7", "lemma3.20", "lemma3.9",
)  # fmt: skip
DIVISOR_FUNCTIONS = ("sigma", "sigma_star", "check", "is_indecomposable", "canonical_class_rep")
FACTOR_FUNCTIONS = ("factorize", "is_irreducible")
POLY_OPS = ("mod", "mul", "square", "divmod", "gcd", "pow", "valuation", "bar")
LAYERS = ("cli", "verify", "search", "divisors", "factor", "mersenne", "gf2poly")


class GateError(Exception):
    """A run's exit code or output differs from what the workload requires."""


def _json_lines(stdout: bytes):
    try:
        return [json.loads(line) for line in stdout.decode().splitlines()]
    except ValueError as exc:
        raise GateError(f"stdout is not JSON lines: {exc}") from None


def _mask(text: str) -> int:
    # the CLI's canonical form, e.g. "x^5+x^2" or "x^2+x+1"
    out = 0
    for term in text.split("+"):
        out |= 1 if term == "1" else 2 if term == "x" else 1 << int(term.removeprefix("x^"))
    return out


# verify 8/60 as printed by the commit that defined this benchmark
VERIFY_SHA256 = "7819c2ec267a62ca2079b35f182fdb88c71b28723332acee1ee4e3cf8a45cd98"
VERIFY_COUNTS = {"pass": 5058, "fail": 0, "out_of_scope": 1063}


def gate_verify(stdout: bytes) -> None:
    counts = {"pass": 0, "fail": 0, "out_of_scope": 0}
    for report in _json_lines(stdout):
        verdict = report.get("verdict")
        if verdict not in counts:
            raise GateError(f"unknown verdict {verdict!r}")
        counts[verdict] += 1
    if counts != VERIFY_COUNTS:
        raise GateError(f"verdict counts {counts}, expected {VERIFY_COUNTS}")
    digest = hashlib.sha256(stdout).hexdigest()
    if digest != VERIFY_SHA256:
        raise GateError(f"stdout sha256 {digest}, expected the byte-identical {VERIFY_SHA256}")


# class representative mask -> its one flag.  The trivial reps are
# (x^2+x)^(2^n-1); "in_catalog" are T1..T9 (perfect) or B1..B9 (unitary).
TRIVIAL = {0x6: "trivial", 0x78: "trivial", 0x7F80: "trivial", 0x7FFF8000: "trivial"}
T_REPS = (0x24, 0x36, 0xA50, 0xC48, 0xA140, 0xCD98, 0x10670, 0x10C1C0, 0x11AB10)
B_REPS = (0xB4, 0x618, 0x29B0, 0x2AD50, 0x61520, 0xF45E0, 0x65FA60, 0x8B3440, 0x6601980)
PERFECT_36 = {**TRIVIAL, **dict.fromkeys(T_REPS, "in_catalog")}
UNITARY_34 = {0x6: "trivial", **dict.fromkeys(B_REPS, "in_catalog")}
# Up to degree 18 the exhaustive scan finds T1..T7 (T8, T9 have degree 20)
# and x(x+1)^2 (x^2+x+1)^2 (x^4+x+1) with its conjugate: perfect, but with
# the non-Mersenne prime x^4+x+1, so flagged outside the structured scope.
ORACLE_18 = {
    **{m: f for m, f in TRIVIAL.items() if m.bit_length() <= 19},
    **{m: "in_catalog" for m in T_REPS if m.bit_length() <= 19},
    0x9A6: "outside_scope",
    0xEC4: "outside_scope",
}


def classes_gate(expected: dict[int, str]):
    def gate(stdout: bytes) -> None:
        got = {}
        for hit in _json_lines(stdout):
            flags = [k for k in ("trivial", "in_catalog", "outside_scope") if hit.get(k)]
            if not flags:
                raise GateError(f"unclassified hit {hit.get('class_rep')}")
            got[_mask(hit["class_rep"])] = flags[0]
        if got != expected:
            missing = sorted(set(expected) - set(got))
            extra = sorted(set(got) - set(expected))
            raise GateError(f"classes differ: missing {[hex(m) for m in missing]}, extra {[hex(m) for m in extra]}, got {len(got)}")

    return gate


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    gate: object
    masks: int  # masks the brute-force oracle scans, 0 for the other routes


# the reason for each workload is in README.md and BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-sweep",
            ("verify", "--max-degree", "8", "--max-h", "60", "--format", "json"),
            gate_verify,
            0,
        ),
        Workload(
            "search-perfect",
            ("search", "--mode", "perfect", "--family", "mersenne", "--max-degree", "36", "--format", "json"),
            classes_gate(PERFECT_36),
            0,
        ),
        Workload(
            "search-unitary",
            ("search", "--mode", "unitary", "--family", "mersenne", "--max-degree", "34", "--format", "json"),
            classes_gate(UNITARY_34),
            0,
        ),
        Workload(
            "oracle-bruteforce",
            ("search", "--mode", "perfect", "--family", "all", "--max-degree", "18", "--format", "json"),
            classes_gate(ORACLE_18),
            1 << 19,
        ),
    )
}


@dataclass
class Child:
    """One finished child process and what it used."""

    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: bytes
    stderr: bytes
    ok: bool = True  # exit code and output gate passed


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


def run_child(cmd, env, workdir: Path, timeout: float) -> Child:
    """Run cmd to completion, reaping it with wait4 for its own rusage."""
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.01))
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except _Timeout:  # counted as a failed run through its kill status
        proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    child = Child(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
    )
    out_path.unlink()
    err_path.unlink()
    return child


def child_env():
    env = dict(os.environ)
    env.pop("GF2PERFECT_SEED", None)  # the program runs with its default seed
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # users' calls find __pycache__ written
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _source_fingerprint() -> str:
    files = sorted((SRC / "gf2perfect").glob("*.py"))
    return hashlib.sha256(repr([(f.name, f.stat().st_size, f.stat().st_mtime_ns) for f in files]).encode()).hexdigest()


def warm_up(session, w) -> None:
    """One checked, discarded run of w, once per state of the sources.

    The first fresh run after a checkout or an edit also compiles
    __pycache__ and fills the page cache, which users pay once; later
    invocations on the same sources find both warm and skip it.
    """
    marker = OUT_DIR / f"warm-{w.name}"
    fingerprint = _source_fingerprint()
    if marker.exists() and marker.read_text() == fingerprint:
        return
    if session.run_workload(w).ok:
        marker.write_text(fingerprint)


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def _median(values):
    return statistics.median(values) if values else 0.0


class Session:
    """One invocation: the child processes it ran and their results."""

    def __init__(self, seed: int, workdir: Path, deadline_s: float):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.env = child_env()
        self.deadline = time.perf_counter() + deadline_s
        self.tally: dict[str, list[int]] = {}  # workload -> [attempted, failed]
        self.errors: list[str] = []
        self.setup: list[float] = []
        self.samples: dict[str, list[Child]] = {}

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def probe_setup(self, keep: bool = True) -> None:
        """Time one fresh set-up; counted under "setup" in the tally."""
        child = run_child([sys.executable, "-c", SETUP_PROBE], self.env, self.workdir, self.remaining())
        tally = self.tally.setdefault("setup", [0, 0])
        tally[0] += 1
        if child.code != 0:
            tally[1] += 1
            self.errors.append(f"setup: exit code {child.code}: {child.stderr.decode(errors='replace')[-500:]}")
            return
        loaded = Path(child.stdout.decode().strip()).resolve()
        if loaded != (SRC / "gf2perfect" / "__init__.py").resolve():
            raise SystemExit(f"gf2perfect was imported from {loaded}, not from this checkout's src/")
        if keep:
            self.setup.append(child.wall_s)

    def run_workload(self, w: Workload, cmd=None, after=None) -> Child:
        """Run one workload call, check it, count it; `after` may add a check."""
        cmd = cmd or [sys.executable, "-m", "gf2perfect", *w.argv]
        child = run_child(cmd, self.env, self.workdir, self.remaining())
        tally = self.tally.setdefault(w.name, [0, 0])
        tally[0] += 1
        try:
            if child.code != 0:
                raise GateError(f"exit code {child.code}: {child.stderr.decode(errors='replace')[-500:]}")
            w.gate(child.stdout)
            if after is not None:
                after()
        except GateError as exc:
            tally[1] += 1
            child.ok = False
            self.errors.append(f"{w.name}: {exc}")
        return child

    def sample(self, w: Workload) -> None:
        self.samples.setdefault(w.name, []).append(self.run_workload(w))

    def measure(self, workloads, seconds: float, first_round=()) -> None:
        """Rounds of one run per workload plus set-up probes, in seeded order.

        Rounds start while the measuring window is open and the deadline
        leaves room for one more; `first_round` adds steps to the first.
        """
        window = time.perf_counter()
        rounds = 0
        while rounds == 0 or time.perf_counter() - window < seconds:
            last_round = sum(self.samples[w.name][-1].wall_s for w in workloads if w.name in self.samples)
            if self.remaining() < 1.5 * last_round + 5:
                break
            steps = [partial(self.sample, w) for w in workloads]
            steps += [self.probe_setup] * (PROBES_PER_ROUND * len(workloads))
            steps += list(first_round) if rounds == 0 else []
            self.rng.shuffle(steps)
            for step in steps:
                if self.remaining() > 0:
                    step()
            rounds += 1

    def error_rate(self, name: str) -> float:
        attempted, failed = self.tally.get(name, (0, 0))
        return failed / attempted if attempted else 0.0


def end_to_end(session: Session, w: Workload) -> dict:
    """Medians over the measured runs of w, each as (value, unit)."""
    samples = session.samples.get(w.name, [])
    return {
        "wall_s": (_median([c.wall_s for c in samples]), "s"),
        "cpu_s": (_median([c.cpu_s for c in samples]), "s"),
        "peak_rss_mb": (_median([c.peak_rss_mb for c in samples]), "MB"),
        "setup_s": (_median(session.setup), "s"),
    }


def per_layer(trace: dict, w: Workload, overhead_s: float) -> dict:
    """The per-layer metrics of one trace file, each as (value, unit)."""
    aggs = trace["aggregates"]
    counts = trace["counts"]

    def total(name):
        return aggs.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return aggs.get(name, {}).get("calls", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    self_s = {layer: 0.0 for layer in LAYERS}
    for name, agg in aggs.items():
        self_s[name.split(".")[0]] += agg["self_s"]

    m = {
        "cli.main_s": (total("cli.main"), "s"),
        "verify.run_all_s": (total("verify.run_all"), "s"),
        "verify.instances": (counts.get("verify.instances", 0), "count"),
    }
    for claim in CLAIMS:
        m[f"verify.claim_s.{claim}"] = (total(f"verify.claim.{claim}"), "s")
    bruteforce_s = total("search.search_bruteforce")
    m["search.structured_s"] = (total("search.search_structured"), "s")
    m["search.bruteforce_s"] = (bruteforce_s, "s")
    m["search.classify_s"] = (total("search.classify_hits"), "s")
    m["search.hits"] = (counts.get("search.hits", 0), "count")
    m["search.masks_per_s"] = (ratio(w.masks, bruteforce_s), "1/s")
    for fn in DIVISOR_FUNCTIONS:
        m[f"divisors.{fn}.calls"] = (calls(f"divisors.{fn}"), "count")
        m[f"divisors.{fn}_s"] = (total(f"divisors.{fn}"), "s")
    m["divisors.sigma.repeat_ratio"] = (ratio(counts.get("divisors.sigma.repeats", 0), calls("divisors.sigma")), "ratio")
    for fn in FACTOR_FUNCTIONS:
        m[f"factor.{fn}.calls"] = (calls(f"factor.{fn}"), "count")
        m[f"factor.{fn}_s"] = (total(f"factor.{fn}"), "s")
    factorize_calls = calls("factor.factorize")
    m["factor.factorize.repeat_ratio"] = (ratio(counts.get("factor.factorize.repeats", 0), factorize_calls), "ratio")
    m["factor.factorize.mean_degree"] = (ratio(counts.get("factor.factorize.degree_sum", 0), factorize_calls), "degree")
    m["mersenne.enumerate_s"] = (total("mersenne.enumerate_mersenne_primes"), "s")
    m["mersenne.mersenne_form.calls"] = (calls("mersenne.mersenne_form"), "count")
    m["mersenne.catalog_s"] = (total("mersenne.catalog"), "s")
    for op in POLY_OPS:
        m[f"gf2poly.{op}.calls"] = (calls(f"gf2poly.{op}"), "count")
        m[f"gf2poly.{op}_s"] = (total(f"gf2poly.{op}"), "s")
    bitsteps = counts.get("gf2poly.mod.bitsteps", 0)
    m["gf2poly.mod.bitsteps"] = (bitsteps, "count")
    m["gf2poly.mod.bitsteps_per_s"] = (ratio(bitsteps, total("gf2poly.mod")), "1/s")
    m["gf2poly.gcd.mean_degree"] = (ratio(counts.get("gf2poly.gcd.degree_sum", 0), calls("gf2poly.gcd")), "degree")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_s[layer], "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


def run_traced(session: Session, w: Workload, run_id: str, into: dict) -> None:
    """One run of w through trace_launch.py; stores the child and its trace."""
    trace_path = OUT_DIR / f"trace-{w.name}-{run_id}.json"
    cmd = [sys.executable, str(BENCH_DIR / "trace_launch.py"), str(trace_path), run_id, "--", *w.argv]

    def load():
        if not trace_path.exists():
            raise GateError("the traced run left no trace")
        with open(trace_path) as fh:
            into["trace"] = json.load(fh)

    into["child"] = session.run_workload(w, cmd, load)


def _print_table(rows) -> None:
    for workload, metrics in rows:
        print(f"== {workload}")
        for name, (value, unit) in metrics.items():
            print(f"   {name:36s} {value:>16.6g} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="length of the measuring window")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "gf2perfect" / "__init__.py").is_file():
        print(f"error: no gf2perfect source under {SRC}", file=sys.stderr)
        return 2
    if args.trace and args.workload == "all":
        print("error: --trace 1 takes one workload", file=sys.stderr)
        return 2
    workloads = list(WORKLOADS.values()) if args.workload == "all" else [WORKLOADS[args.workload]]

    run_id = uuid.uuid4().hex[:12]
    workdir = OUT_DIR / f"run-{run_id}"
    workdir.mkdir(parents=True, exist_ok=True)
    load_before = os.getloadavg()
    session = Session(args.seed, workdir, DEADLINE_S * len(workloads))
    traced: dict = {}
    try:
        session.probe_setup(keep=False)  # may compile __pycache__
        for w in workloads:
            warm_up(session, w)
        first_round = [partial(run_traced, session, workloads[0], run_id, traced)] if args.trace else []
        session.measure(workloads, args.seconds, first_round)
    finally:
        workdir.rmdir()

    if args.trace:
        w = workloads[0]
        if "child" not in traced:  # the deadline came before it could start
            session.errors.append(f"{w.name}: no time left for the traced run")
            tally = session.tally.setdefault(w.name, [0, 0])
            tally[0] += 1
            tally[1] += 1
        trace = traced.get("trace", {"aggregates": {}, "counts": {}})
        traced_wall = traced["child"].wall_s if "child" in traced else 0.0
        overhead = traced_wall - end_to_end(session, w)["wall_s"][0]
        rows = [(w.name, per_layer(trace, w, overhead))]
    else:
        rows = [(w.name, end_to_end(session, w)) for w in workloads]

    record = {
        "run_id": run_id,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "samples": {
            name: {k: [getattr(c, k) for c in s] for k in ("wall_s", "cpu_s", "peak_rss_mb")}
            for name, s in session.samples.items()
        },
        "setup_s": session.setup,
        "error_rate": {w.name: session.error_rate(w.name) for w in workloads},
        "errors": session.errors,
    }
    (OUT_DIR / f"record-{run_id}.json").write_text(json.dumps(record, indent=1) + "\n")

    extra = {
        name: {
            "error_rate": (record["error_rate"][name], "ratio"),
            "samples": (len(session.samples.get(name, [])), "count"),
            "setup_samples": (len(session.setup), "count"),
        }
        for name, _ in rows
    }
    _print_table([(name, {**m, **extra[name]}) for name, m in rows])
    for error in session.errors:
        print(f"error: {error}", file=sys.stderr)
    print(json.dumps(record, separators=(",", ":")))
    metrics = rows[0][1] if len(rows) == 1 else {f"{name}.{k}": v for name, m in rows for k, v in m.items()}
    attempted = sum(a for a, _ in session.tally.values())
    failed = sum(f for _, f in session.tally.values())
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
