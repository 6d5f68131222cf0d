import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from gf2perfect import cli, verify
from gf2perfect.cli import main
import pins


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_sigma_golden(capsys):
    code, out = run_cli(capsys, "sigma", "x^4")
    assert code == 0 and out == "x^4+x^3+x^2+x+1\n"


def test_sigma_star(capsys):
    code, out = run_cli(capsys, "sigma", "x^3", "--star")
    assert code == 0 and out == "x^3+1\n"


def test_sigma_json(capsys):
    code, out = run_cli(capsys, "sigma", "M1", "--format", "json")
    assert json.loads(out) == {"input": "x^2+x+1", "sigma": "x^2+x"}


def test_check_pass_and_fail(capsys):
    code, out = run_cli(capsys, "check", "--mode", "perfect", "T_1")
    assert code == 0 and out == "perfect: true\n"
    code, out = run_cli(capsys, "check", "--mode", "perfect", "S1")
    assert code == 1 and "witness: x with exact powers 13 vs 7" in out
    code, out = run_cli(capsys, "check", "--mode", "unitary", "S2", "--format", "json")
    assert code == 1
    assert json.loads(out)["witness"] == {"prime": "x", "m1": 14, "m2": 10}


def test_factor_rejects_zero(capsys):
    assert run_cli(capsys, "factor", "0x0")[0] == 2
    assert run_cli(capsys, "factor", "0")[0] == 2


def test_factor_output(capsys):
    code, out = run_cli(capsys, "factor", "x^6+x^5+x^4+x^3+x^2+x+1")
    assert code == 0 and out == "(x^3+x+1) * (x^3+x^2+1)\n"
    code, out = run_cli(capsys, "factor", "T5", "--format", "json")
    assert json.loads(out) == [
        {"prime": "x", "mult": 4},
        {"prime": "x+1", "mult": 4},
        {"prime": "x^4+x^3+1", "mult": 1},
        {"prime": "x^4+x^3+x^2+x+1", "mult": 1},
    ]


def test_malformed_polynomial(capsys):
    assert run_cli(capsys, "factor", "x^^2")[0] == 2
    assert run_cli(capsys, "sigma", "unknown_name")[0] == 2


def test_parse_degree_cap_exits_2(capsys):
    code = main(["factor", "x^2000000"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "text",
    ["x^" + "9" * 5000, "(" * 10_000 + "x" + ")" * 10_000, "x^\u0661\u0662", "x^" + "\u0660" * 6 + "3"],
    ids=["long-exponent", "deep-nesting", "arabic-indic-digits", "arabic-indic-zeros"],
)
def test_parse_hostile_input_exits_2(capsys, text):
    code = main(["factor", text])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert captured.err.count("\n") == 1
    assert "set_int_max_str_digits" not in captured.err


def test_unknown_subcommand(capsys):
    assert main(["no-such-command"]) == 2


def test_mersenne_lines(capsys):
    code, out = run_cli(capsys, "mersenne", "--max-degree", "4", "--format", "json")
    rows = [json.loads(line) for line in out.splitlines()]
    assert [(r["a"], r["b"]) for r in rows] == [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1)]
    assert rows[0]["poly"] == "x^2+x+1" and rows[0]["degree"] == 2


def test_mersenne_refuses_a_degree_below_2(capsys):
    assert main(["mersenne", "--max-degree", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: --max-degree must be at least 2\n"


def test_verify_exit_codes_and_filter(capsys):
    code, out = run_cli(capsys, "verify", "--max-degree", "4", "--max-h", "1", "--format", "json")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert all(r["verdict"] != "fail" for r in rows)
    oos = [r for r in rows if r["claim"] == "thm1.2-i" and r["verdict"] == "out_of_scope"]
    assert {r["params"]["M"] for r in oos} == {"x^3+x+1", "x^3+x^2+1"}
    code, out = run_cli(capsys, "verify", "--max-degree", "4", "--max-h", "1", "--claim", "lemma3.2")
    assert code == 0
    assert all(line.startswith(("lemma3.2", "summary:")) for line in out.splitlines())


def tier1_pins(command):
    # the tier-1 rows of tests/pins.py that run one subcommand
    rows = [row for row in pins.PINS if row.tier == "tier1" and row.argv[0] == command]
    return [(list(row.argv), row.sha256, row.lines) for row in rows]


def check_digest(capsys, argv, sha256, lines):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert len(out.splitlines()) == lines
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


@pytest.mark.parametrize("argv, sha256, lines", tier1_pins("verify"))
def test_verify_json_digest(capsys, argv, sha256, lines):
    check_digest(capsys, argv, sha256, lines)


@pytest.mark.parametrize("argv, sha256, lines", tier1_pins("search"))
def test_search_json_digest(capsys, argv, sha256, lines):
    # the json rows, then the text rows
    check_digest(capsys, argv, sha256, lines)


@pytest.mark.parametrize("argv, sha256, lines", tier1_pins("mersenne") + tier1_pins("explore-p7"))
def test_mersenne_and_explore_digest(capsys, argv, sha256, lines):
    check_digest(capsys, argv, sha256, lines)


@pytest.mark.parametrize("argv, sha256, lines", tier1_pins("factor") + tier1_pins("sigma") + tier1_pins("check"))
def test_factor_sigma_and_check_digest(capsys, argv, sha256, lines):
    check_digest(capsys, argv, sha256, lines)


def test_pin_table_rows():
    # the digest tests above run every tier-1 row, in process, where no
    # row's extra environment could take effect; tests/pins.py runs the ci rows
    tier1 = [row for row in pins.PINS if row.tier == "tier1"]
    assert {row.tier for row in pins.PINS} == {"tier1", "ci"}
    assert {row.argv[0] for row in tier1} == {"verify", "search", "mersenne", "explore-p7", "factor", "sigma", "check"}
    assert not any(row.env for row in tier1)
    assert len({(row.argv, row.env) for row in pins.PINS}) == len(pins.PINS)


def test_pins_script_fails_on_a_wrong_digest(capsys):
    out = b"x^4+x^3+x^2+x+1\n"
    right = pins.Pin(("sigma", "x^4"), hashlib.sha256(out).hexdigest(), 1, "ci")
    assert pins.main([right], checks=()) == 0
    assert capsys.readouterr().out.endswith("1 of 1 ci rows run, 0 mismatched\n")
    assert pins.main([right, right._replace(sha256="0" * 64)], checks=()) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("MISMATCH") and lines[-1] == "2 of 2 ci rows run, 1 mismatched"


def test_verify_exits_1_on_a_failing_verdict(capsys, monkeypatch):
    def failing(rec):
        return verify.TheoremReport("lemma3.2", verify._m_params(rec.m, h=rec.h), "fail")

    monkeypatch.setitem(verify._CHECKERS, "lemma3.2", failing)
    code, out = run_cli(capsys, "verify", "--max-degree", "4", "--max-h", "1", "--format", "json")
    assert code == 1
    rows = [json.loads(line) for line in out.splitlines()]
    assert {r["claim"] for r in rows if r["verdict"] == "fail"} == {"lemma3.2"}


def test_search_bruteforce_guard_exits_2(capsys):
    code = main(["search", "--family", "all", "--max-degree", "21"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: family=all search is guarded at degree 20\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["--max-degree", "1"],
        ["--max-h", "0"],
        ["--max-degree", "0"],
        ["--max-h", "-1"],
    ],
)
def test_verify_checking_nothing_exits_2(capsys, argv):
    code = main(["verify", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err


@pytest.mark.parametrize("claim", ["lemma3.7", "lemma3.20", "lemma3.9"])
def test_verify_one_off_claim_runs_on_an_empty_grid(capsys, claim):
    # a one-off claim reads no Mersenne prime, so an empty grid does not stop it
    expected = run_cli(capsys, "verify", "--max-h", "1", "--claim", claim, "--format", "json")
    assert expected[0] == 0 and len(expected[1].splitlines()) == 1
    for grid in (["--max-h", "0"], ["--max-degree", "1"]):
        assert run_cli(capsys, "verify", *grid, "--claim", claim, "--format", "json") == expected


def test_verify_unknown_claim_exits_2_on_an_empty_sweep(capsys):
    # the claim is checked before an empty grid ends the sweep
    code = main(["verify", "--max-h", "0", "--claim", "nope"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: unknown claim 'nope'")


@pytest.mark.parametrize(
    "grid, notes",
    [
        ((6, 30), ["note: cor3.28 checked nothing: 9 out_of_scope"]),
        ((4, 2), ["note: cor3.17 checked nothing: 2 out_of_scope", "note: cor3.28 checked nothing: 5 out_of_scope"]),
        ((8, 5), []),
    ],
)
def test_verify_notes_each_claim_that_checked_nothing(capsys, grid, notes):
    # a claim whose every instance is out of scope gets a note on stderr;
    # the stream and the exit code stay those of the sweep
    code = main(["verify", "--max-degree", str(grid[0]), "--max-h", str(grid[1]), "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0 and captured.out
    assert captured.err.splitlines() == notes


def test_check_refuses_constants(capsys):
    # perfection is defined for nonconstant polynomials, and a constant
    # would check unitary perfect vacuously
    for mode in ("perfect", "unitary"):
        assert main(["check", "--mode", mode, "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: perfection is defined for nonconstant polynomials\n"


def test_search_json(capsys):
    code, out = run_cli(capsys, "search", "--mode", "unitary", "--family", "all", "--max-degree", "10", "--format", "json")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert {r["class_rep"] for r in rows if r["trivial"]} == {"x^2+x"}
    in_cat = [r for r in rows if r["in_catalog"]]
    assert {r["degree"] for r in in_cat} == {7, 10}  # B2 and B1 classes
    code, out_all = run_cli(capsys, "search", "--mode", "unitary", "--family", "all", "--max-degree", "10", "--format", "json", "--all-powers")
    assert len(out_all.splitlines()) > len(rows)


def test_explore_p7(capsys):
    code, out = run_cli(capsys, "explore-p7", "M2", "--odd-only")
    assert code == 0
    assert "odd l with alpha_l = 0" in out
    assert main(["explore-p7", "x^6+x+1"]) == 2  # not Mersenne
    assert capsys.readouterr().err == "error: x^6+x+1 is not a Mersenne prime\n"


def test_out_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    code, _ = run_cli(capsys, "sigma", "x^4", "--out", str(target))
    assert code == 0
    assert target.read_text() == "x^4+x^3+x^2+x+1\n"


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_out_unwritable_exits_2(tmp_path, capsys, where):
    target = tmp_path / "missing" / "f" if where == "missing-dir" else tmp_path
    code = main(["factor", "x", "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {target}:")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err



@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
def test_out_on_a_full_device_exits_2(capsys):
    # the write fits the file's buffer, so the error comes from its flush,
    # and again from the close at the end of the with statement
    code = main(["factor", "x", "--out", "/dev/full"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: cannot write /dev/full: No space left on device\n"

def test_out_unwritable_fails_before_the_command_runs(tmp_path, capsys):
    # the full sweep takes seconds; the unwritable --out must stop it first
    target = tmp_path / "missing" / "f"
    start = time.perf_counter()
    code = main(["verify", "--max-degree", "8", "--max-h", "60", "--out", str(target)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: cannot write {target}:")
    assert elapsed < 2.0


def test_arithmetic_error_exits_2(capsys, monkeypatch):
    # _intmath._pollard_rho raises ArithmeticError when rho cannot split n
    def failing(args):
        raise ArithmeticError("rho failed to split 91")

    monkeypatch.setitem(cli._COMMANDS, "factor", failing)
    code = main(["factor", "x"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: rho failed to split 91\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["sigma", "x^4", "--seed", "7"],
        ["verify", "--max-degree", "2", "--max-h", "1", "--seed", "7"],
        ["search", "--max-degree", "4", "--jobs", "2"],
    ],
)
def test_removed_flags_rejected(capsys, argv):
    assert main(argv) == 2


def test_verify_jobs_is_an_unrecognized_argument(capsys):
    assert main(["verify", "--max-degree", "2", "--max-h", "1", "--jobs", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --jobs 2" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["mersenne", "--max-degree", "5000"],
        ["verify", "--max-degree", "2000", "--max-h", "1"],
        ["search", "--family", "mersenne", "--max-degree", "3000"],
    ],
)
def test_mersenne_enumeration_past_its_cap_exits_2(capsys, argv):
    # the enumeration refuses the degree before it tests any candidate
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: Mersenne prime enumeration is capped at degree 256\n"
    assert elapsed < 2.0


def test_seed_env_var_ignored(capsys, monkeypatch):
    monkeypatch.setenv("GF2PERFECT_SEED", "not-a-number")
    assert run_cli(capsys, "sigma", "x^4") == (0, "x^4+x^3+x^2+x+1\n")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "gf2perfect", "check", "--mode", "unitary", "B_9"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "unitary: true\n"
