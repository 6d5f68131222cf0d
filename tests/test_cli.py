import hashlib
import json
import subprocess
import sys

import pytest

from gf2perfect.cli import main


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
    ["x^" + "9" * 5000, "(" * 10_000 + "x" + ")" * 10_000],
    ids=["long-exponent", "deep-nesting"],
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


#: sha256 and line count of `verify --max-degree 4 --max-h 2 --format json`,
#: pinned so that a refactor cannot change a byte of the report stream
VERIFY_4_2_SHA256 = "8de25dcf724cb58d66ac4750f9bf1306fb4344c3de8afe9d6b7c2286a91dd414"
VERIFY_4_2_LINES = 95


def test_verify_json_digest(capsys):
    code, out = run_cli(capsys, "verify", "--max-degree", "4", "--max-h", "2", "--format", "json")
    assert code == 0
    assert len(out.splitlines()) == VERIFY_4_2_LINES
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_4_2_SHA256


#: sha256 and line count of `search ... --format json` stdout, pinned so
#: that a refactor of either search route cannot change a byte of it
SEARCH_DIGESTS = [
    (
        ["--mode", "perfect", "--family", "mersenne", "--max-degree", "24"],
        "ae9e983a74531e3099ba40dc193492e9055bf61285ef5cdcb98d11577004e5e8",
        12,
    ),
    (
        ["--mode", "unitary", "--family", "mersenne", "--max-degree", "24", "--all-powers"],
        "d77ad062c2c26195db466434e403c070abf0fb9833bfd4cf80d3f9ff3078e50e",
        21,
    ),
    (
        ["--mode", "perfect", "--family", "all", "--max-degree", "12"],
        "6f202f0e77931bf0ef2ba404031de2dd009ed098d1297ef41db8c99f36040c66",
        8,
    ),
    (
        ["--mode", "unitary", "--family", "all", "--max-degree", "10", "--all-powers"],
        "b25805cf53946d52182f6ef33b091b3bdc82d68aa7a88dd460f070a1b7cc71ec",
        6,
    ),
]


@pytest.mark.parametrize("argv, sha256, lines", SEARCH_DIGESTS)
def test_search_json_digest(capsys, argv, sha256, lines):
    code, out = run_cli(capsys, "search", *argv, "--format", "json")
    assert code == 0
    assert len(out.splitlines()) == lines
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


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
        ["--degree-budget", "-5"],
        ["--jobs", "0"],
    ],
)
def test_verify_checking_nothing_exits_2(capsys, argv):
    code = main(["verify", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err


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
    assert run_cli(capsys, "explore-p7", "x^6+x+1")[0] == 2  # not Mersenne


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
