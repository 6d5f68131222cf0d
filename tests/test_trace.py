"""The benchmark's traced launcher still instruments every layer.

bench/trace_launch.py wraps library functions by name without editing the
source, so a rename or a signature change in src/ can silently blind it.
bench/run.py's set-up probe likewise names a library function.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from pins import pin

ROOT = Path(__file__).resolve().parents[1]


def env_with_src():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_traced(tmp_path, argv):
    """stdout and the per-function aggregates of one traced CLI run."""
    trace = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "trace_launch.py"), str(trace), "t", "--", *argv],
        capture_output=True,
        env=env_with_src(),
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout, json.loads(trace.read_text())["aggregates"]


def test_traced_verify_matches_untraced_and_counts_every_layer(tmp_path):
    argv = ["verify", "--max-degree", "4", "--max-h", "2", "--format", "json"]
    stdout, aggregates = run_traced(tmp_path, argv)
    expected = pin(*argv)
    assert len(stdout.splitlines()) == expected.lines
    assert hashlib.sha256(stdout).hexdigest() == expected.sha256
    for name in ("factor.factorize", "mersenne.enumerate_mersenne_primes", "gf2poly.mod", "verify.claim.lemma3.2"):
        assert aggregates[name]["calls"] > 0, name


def test_traced_search_matches_untraced_and_counts_the_divisors_layer(tmp_path):
    argv = ["search", "--mode", "unitary", "--family", "mersenne", "--max-degree", "16", "--format", "json"]
    untraced = subprocess.run([sys.executable, "-m", "gf2perfect", *argv], capture_output=True, env=env_with_src())
    assert untraced.returncode == 0, untraced.stderr.decode()
    stdout, aggregates = run_traced(tmp_path, argv)
    assert stdout == untraced.stdout
    for name in ("divisors.check", "divisors.is_indecomposable", "divisors.canonical_class_rep"):
        assert aggregates[name]["calls"] > 0, name


def test_setup_probe_runs_on_this_checkout(monkeypatch):
    # bench/run.py counts a probe that fails as a failed operation
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    bench_run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench_run)  # its dataclasses look their module up
    spec.loader.exec_module(bench_run)
    proc = subprocess.run([sys.executable, "-c", bench_run.SETUP_PROBE], capture_output=True, text=True, env=env_with_src())
    assert proc.returncode == 0, proc.stderr
    assert Path(proc.stdout.strip()) == ROOT / "src" / "gf2perfect" / "__init__.py"
