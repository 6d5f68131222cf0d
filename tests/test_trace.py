"""The benchmark's traced launcher still instruments every layer.

bench/trace_launch.py wraps library functions by name without editing the
source, so a rename or a signature change in src/ can silently blind it.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from test_cli import VERIFY_4_2_LINES, VERIFY_4_2_SHA256

ROOT = Path(__file__).resolve().parents[1]


def test_traced_verify_matches_untraced_and_counts_every_layer(tmp_path):
    trace = tmp_path / "trace.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = ["verify", "--max-degree", "4", "--max-h", "2", "--format", "json"]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "trace_launch.py"), str(trace), "t", "--", *argv],
        capture_output=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert len(proc.stdout.splitlines()) == VERIFY_4_2_LINES
    assert hashlib.sha256(proc.stdout).hexdigest() == VERIFY_4_2_SHA256
    aggregates = json.loads(trace.read_text())["aggregates"]
    for name in ("factor.factorize", "divisors.sigma", "gf2poly.mod", "verify.claim.lemma3.2"):
        assert aggregates[name]["calls"] > 0, name
