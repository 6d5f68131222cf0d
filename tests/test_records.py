"""The record types: immutable, comparable, and built without dataclasses."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import gf2perfect
from gf2perfect.factor import Factorization, factorize
from gf2perfect.gf2poly import X, XP1, parse
from gf2perfect.mersenne import MersennePrime, catalog
from gf2perfect.verify import TheoremReport, sigma_record


def test_cli_import_does_not_load_dataclasses():
    # dataclasses pulls in inspect, dis, ast and tokenize on every CLI call
    env = dict(os.environ)
    src = str(Path(gf2perfect.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, gf2perfect.cli; print(sorted({'dataclasses', 'gf2perfect.cli'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['gf2perfect.cli']"


RECORDS = [
    (lambda: factorize(parse("x^3+x")), "factors"),
    (lambda: MersennePrime(1, 2, catalog().lookup("M2")), "a"),
    (lambda: TheoremReport("lemma3.2", {"M": "x^2+x+1"}, "pass"), "verdict"),
    (lambda: sigma_record(MersennePrime(1, 2, catalog().lookup("M2")), 1), "fact"),
]


@pytest.mark.parametrize("build, field", RECORDS, ids=["Factorization", "MersennePrime", "TheoremReport", "SigmaRecord"])
def test_records_are_immutable(build, field):
    record = build()
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


def test_slotted_records_compare_hash_repr_and_pickle():
    fact = factorize(parse("x^3+x"))
    same = Factorization(factors=((X, 1), (XP1, 2)))
    assert fact == same and hash(fact) == hash(same)
    assert pickle.loads(pickle.dumps(fact)) == fact
    assert repr(fact) == "Factorization(factors=((Poly('x'), 1), (Poly('x+1'), 2)))"
    assert list(fact) == [(X, 1), (XP1, 2)] and len(fact) == 2
