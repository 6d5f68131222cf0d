"""Every pinned output of the gf2perfect CLI, and the command that replays CI.

A Pin row fixes one command's stdout byte for byte, by its sha256 and line
count.  Rows of tier "tier1" are cheap: tests/test_cli.py runs them in
process.  Rows of tier "ci" take seconds each, and run from this script:

    PYTHONPATH=src python tests/pins.py

runs every ci row in a fresh `python -m gf2perfect` process, then the two
relation checks that no digest states (claim_filters, one_off_claims) and
the certificates of tests/oracles.py.  It prints one line per check, then
the count of rows run, and exits 1 on any mismatch or if it ran fewer
rows than the table holds.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

from gf2perfect.verify import CLAIM_IDS
from oracles import certify_structured_search, certify_verify_sweep

ROOT = Path(__file__).resolve().parents[1]


class Pin(NamedTuple):
    argv: tuple[str, ...]
    sha256: str
    lines: int
    tier: str  # "tier1" or "ci"
    env: tuple[tuple[str, str], ...] = ()  # extra environment of the run


def _verify(max_degree, max_h, *extra):
    return ("verify", "--max-degree", str(max_degree), "--max-h", str(max_h), "--format", "json", *extra)


def _search(mode, family, max_degree, *extra):
    return ("search", "--mode", mode, "--family", family, "--max-degree", str(max_degree), "--format", "json", *extra)


_SWEEP_8_60 = "7819c2ec267a62ca2079b35f182fdb88c71b28723332acee1ee4e3cf8a45cd98"

PINS = (
    # a small sweep; tests/test_trace.py also checks the traced run against it
    Pin(_verify(4, 2), "8de25dcf724cb58d66ac4750f9bf1306fb4344c3de8afe9d6b7c2286a91dd414", 95, "tier1"),
    # at max-h 5, cor3.13 at p = 31 reads sigma(M^30), the record at h = 15,
    # which no per-h check reads
    Pin(_verify(8, 5), "d0a683ae2480051f0eeaf9569e97889e8c0816fa9d2aa7659ccfe3bea6c3c1ce", 515, "tier1"),
    # the degree cap DEGREE_BUDGET = 2048 cuts h to 56, 51, 48, 46 and 44 for
    # M of degree 18, 20, 21, 22 and 23; lemma3.15 reads the sum alone
    Pin(_verify(24, 60, "--claim", "lemma3.15"), "7568ad7b6ebf927f8ddf6ce58af3f1f7b5b6061dcefe07551a5a7c1cd61a3051", 2798, "tier1"),
    # both search routes, both modes
    Pin(_search("perfect", "mersenne", 24), "ae9e983a74531e3099ba40dc193492e9055bf61285ef5cdcb98d11577004e5e8", 12, "tier1"),
    Pin(_search("unitary", "mersenne", 24, "--all-powers"), "d77ad062c2c26195db466434e403c070abf0fb9833bfd4cf80d3f9ff3078e50e", 21, "tier1"),
    Pin(_search("perfect", "all", 12), "6f202f0e77931bf0ef2ba404031de2dd009ed098d1297ef41db8c99f36040c66", 8, "tier1"),
    Pin(_search("unitary", "all", 10, "--all-powers"), "b25805cf53946d52182f6ef33b091b3bdc82d68aa7a88dd460f070a1b7cc71ec", 6, "tier1"),
    # the text renderers of search, mersenne and explore-p7's json
    Pin(("search", "--mode", "perfect", "--family", "mersenne", "--max-degree", "24"), "c0bda08cb1a0e006eb8e3adff686f3e923d30560a94319bf4b9ce5e6a07d3a70", 12, "tier1"),
    Pin(("search", "--mode", "unitary", "--family", "mersenne", "--max-degree", "24", "--all-powers"), "89ab674af5b69df552c504af615d527ba8dce6ce9d1a084367be0ea31069d276", 21, "tier1"),
    Pin(("mersenne", "--max-degree", "6"), "a71ac7ed7d967d9dc79fd53453bd74c751c26d7dcc19f4a578bbedd50f8f6864", 9, "tier1"),
    Pin(("explore-p7", "M2", "--format", "json"), "597bcde6af1f24fcd66155e1992dae640b58bdb50c523a43ada166909bcc85a6", 1, "tier1"),
    # factor, sigma and check, each in both renderers or modes
    Pin(("factor", "S1", "--format", "json"), "7358e6f364b75cfa31099ea1964d66f14c9a55faa66d5f8068b99b9f960143ea", 1, "tier1"),
    Pin(("factor", "S2"), "29b24de9901b6c4c0aa700713b694da6f0e1be186ad15a63faf74d0740012d01", 1, "tier1"),
    Pin(("sigma", "T8", "--format", "json"), "129d605d1431b7db6b96153da62dd32c7b45bf531cc7ca367ff1602903c94995", 1, "tier1"),
    Pin(("sigma", "--star", "S2", "--format", "json"), "a768484083c5e78d8a7b33db592acb71273f6669718efd5e949c4e4fbf966882", 1, "tier1"),
    Pin(("check", "--mode", "perfect", "T8", "--format", "json"), "14447ac8523732e98260ac95b939ee8e6294b36b6446f2806e4715dc189d02bc", 1, "tier1"),
    Pin(("check", "--mode", "unitary", "B7", "--format", "json"), "faad7bed108e506f3677de7aa4ed51abf753f3daf648265e34d73ab6041b13c2", 1, "tier1"),
    # the full sweep under two hash seeds; bench/run.py keeps its own copy
    # of this digest
    Pin(_verify(8, 60), _SWEEP_8_60, 6121, "ci", (("PYTHONHASHSEED", "0"),)),
    Pin(_verify(8, 60), _SWEEP_8_60, 6121, "ci", (("PYTHONHASHSEED", "12345"),)),
    # wider sweeps
    Pin(_verify(10, 60), "006557786f8387c78924cb88271532fa1452f589f15f3aa34da0e4e655aff09c", 8917, "ci"),
    Pin(_verify(12, 60), "e50c5a46d53aa9182be93d8d6989061d692673119caea0cc10bb876b110d82c2", 10781, "ci"),
    # the brute-force oracle at degree 18, both modes
    Pin(_search("perfect", "all", 18), "4ebb1657262b8e34f055e9933667634a17816cd9067c1cf906d0e1836925fe9f", 12, "ci"),
    Pin(_search("unitary", "all", 18, "--all-powers"), "4a28bd343fad8333cecfca7dae754d2788ff4357fc5ff3cd9062b7550d7c665f", 15, "ci"),
    # the structured search at the benchmark's degrees
    Pin(_search("perfect", "mersenne", 36), "7f2b225c47e30dc91b6c7735e2bf0dae5b5d4a2d262fe581058d32bb823a5546", 13, "ci"),
    Pin(_search("unitary", "mersenne", 34), "d1f53ded4edec2fb1bcb64ec918e8831faf1226d6df24d17d98a8df0c8cb8f17", 10, "ci"),
    Pin(_search("unitary", "mersenne", 34, "--all-powers"), "ffe88c33f2f57bf68c2377ad1f82261caec12669883ecf85ec14ee883c983afc", 29, "ci"),
    # the structured search at degree 80 prints what the subset recursion printed
    Pin(_search("perfect", "mersenne", 80, "--all-powers"), "8822fdebc71a4ba54e015a4de97f40dd91d3549d1a9132318b12330377526795", 14, "ci"),
    Pin(_search("unitary", "mersenne", 80, "--all-powers"), "59699882675ba8ffa4077a381ca080881a24774cf5bf6e5a32d4d32128a7f1a8", 49, "ci"),
)

#: line counts that claim_filters also requires of the 8/60 stream
_CLAIM_LINES_8_60 = {"lemma3.4": 2509, "lemma3.15": 780}

#: (max-degree, max-h) grids at which one_off_claims runs each one-off claim
_ONE_OFF_GRIDS = ((8, 1), (120, 1), (8, 0), (1, 1))


def pin(*argv) -> Pin:
    """The row that pins `gf2perfect argv`."""
    return next(row for row in PINS if row.argv == argv)


def run_cli(argv, env=()) -> tuple[int, bytes]:
    """Exit code and stdout of `python -m gf2perfect argv` in a fresh process."""
    environ = {**os.environ, **dict(env)}
    environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "gf2perfect", *argv], capture_output=True, env=environ)
    return proc.returncode, proc.stdout


def check_pin(row: Pin) -> tuple[bool, str]:
    code, out = run_cli(row.argv, row.env)
    sha256, lines = hashlib.sha256(out).hexdigest(), len(out.splitlines())
    ok = (code, sha256, lines) == (0, row.sha256, row.lines)
    prefix = "".join(f"{name}={value} " for name, value in row.env)
    return ok, f"{prefix}gf2perfect {' '.join(row.argv)}: exit {code}, {lines} lines, sha256 {sha256}"


def claim_filters():
    """Each claim id filtered at 8/60 prints exactly the full stream's lines for that claim."""
    _, full = run_cli(_verify(8, 60))
    full = full.splitlines(keepends=True)
    for claim in (*CLAIM_IDS, "thm1.2-i", "thm1.2-ii"):
        # thm1.2 selects every report of its checker: thm1.2-i, thm1.2-ii and thm1.2
        prefix = b'{"claim":"thm1.2' if claim == "thm1.2" else f'{{"claim":"{claim}",'.encode()
        expected = [line for line in full if line.startswith(prefix)]
        code, out = run_cli(_verify(8, 60, "--claim", claim))
        ok = code == 0 and bool(expected) and out.splitlines(keepends=True) == expected
        ok = ok and len(expected) == _CLAIM_LINES_8_60.get(claim, len(expected))
        lines = len(out.splitlines())
        yield ok, f"verify 8/60 --claim {claim}: exit {code}, {lines} lines, {len(expected)} in the full stream"


def one_off_claims():
    """Each one-off claim prints one line, the same at every grid, an empty one included."""
    for claim in ("lemma3.7", "lemma3.20", "lemma3.9"):
        runs = {run_cli(_verify(d, h, "--claim", claim)) for d, h in _ONE_OFF_GRIDS}
        (code, out), *others = runs
        ok = not others and code == 0 and len(out.splitlines()) == 1
        grids = ", ".join(f"{d}/{h}" for d, h in _ONE_OFF_GRIDS)
        yield ok, f"verify --claim {claim} at {grids}: {len(runs)} distinct outputs, exit {code}"


#: (certificate, arguments, counts it returns besides its problem list)
_CERTIFICATES = (
    (certify_verify_sweep, (8, 60), (780, 3636)),
    (certify_structured_search, (128, "perfect"), (295, 1347, 1250)),
    (certify_structured_search, (128, "unitary"), (295, 1347, 984)),
)


def certificates():
    """The certificates of tests/oracles.py, at the counts each returns."""
    for certify, args, counts in _CERTIFICATES:
        *got, problems = certify(*args)
        ok = tuple(got) == counts and not problems
        yield ok, f"{certify.__name__}{args}: counts {tuple(got)}, {len(problems)} problems" + "".join(
            f"\n  {problem}" for problem in problems
        )


CHECKS = (claim_filters, one_off_claims, certificates)


def main(rows=None, checks=CHECKS) -> int:
    """Run rows (every ci row by default), then checks; 1 on any mismatch."""
    rows = [row for row in PINS if row.tier == "ci"] if rows is None else rows
    ran = mismatches = 0
    for row in rows:
        ok, line = check_pin(row)
        ran += 1
        mismatches += not ok
        print(("ok        " if ok else "MISMATCH  ") + line, flush=True)
    for check in checks:
        for ok, line in check():
            mismatches += not ok
            print(("ok        " if ok else "MISMATCH  ") + line, flush=True)
    print(f"{ran} of {len(rows)} ci rows run, {mismatches} mismatched")
    return 1 if mismatches or ran < len(rows) else 0


if __name__ == "__main__":
    if sys.argv[1:]:
        sys.exit("tests/pins.py takes no arguments")
    sys.exit(main())
