from pathlib import Path

import pytest

import mutants

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gf2perfect"


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_mutant_edits_its_module_once(mutant):
    # tests/mutants.py refuses a row whose old text has drifted, so a
    # change to src/ that moves one shows here first
    text = (PACKAGE / mutant.module).read_text()
    assert mutants.apply(text, mutant) != text


def test_apply_refuses_a_missing_or_repeated_text():
    row = mutants.Mutant("demo", "demo.py", "a = 1", "a = 2", ())
    assert mutants.apply("a = 1\n", row) == "a = 2\n"
    for text in ("b = 1\n", "a = 1\na = 1\n"):
        with pytest.raises(ValueError, match="not once"):
            mutants.apply(text, row)


def test_a_mutant_the_tests_miss_survives(capsys):
    # an edit of a comment changes nothing a test can see
    harmless = mutants.Mutant(
        "a comment edited",
        "cli.py",
        "# ZeroDivisionError is an ArithmeticError",
        "# edited",
        ("tests/test_cli.py::test_sigma_golden",),
    )
    assert mutants.main([harmless]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("ok") and out[1].startswith("SURVIVED") and out[-1] == "0 of 1 mutants killed"
