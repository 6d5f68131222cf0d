"""Library guards that no other in-process test reaches, each with its error type and message."""

import re

import pytest

from gf2perfect import divisors
from gf2perfect._intmath import euler_phi, factorize_int
from gf2perfect.divisors import check, exact_power, is_indecomposable, sigma_star
from gf2perfect.factor import is_primitive, is_squarefree
from gf2perfect.gf2poly import X, ZERO, BudgetError, Poly
from gf2perfect.mersenne import catalog, enumerate_mersenne_primes
from gf2perfect.search import _divisor_sum_tables, classify_hits

CAT = catalog()


GUARDS = {
    "Poly(-1)": (lambda: Poly(-1), ValueError, "coefficient mask must be a nonnegative integer"),
    "Poly(1.5)": (lambda: Poly(1.5), ValueError, "coefficient mask must be a nonnegative integer"),
    "ZERO.alpha(0)": (lambda: ZERO.alpha(0), ValueError, "alpha is undefined for the zero polynomial"),
    "X ** -1": (lambda: X**-1, ValueError, "exponent must be a nonnegative integer"),
    "X << -1": (lambda: X << -1, ValueError, "shift must be nonnegative"),
    "ZERO.is_square()": (lambda: ZERO.is_square(), ValueError, "zero polynomial has no square status"),
    "sigma_star(ZERO)": (lambda: sigma_star(ZERO), ValueError, "sigma* is undefined for the zero polynomial"),
    "exact_power(M1, ZERO)": (
        lambda: exact_power(CAT.lookup("M1"), ZERO),
        ValueError,
        "exact power is undefined for the zero polynomial",
    ),
    'check(T1, "bogus")': (
        lambda: check(CAT.lookup("T1"), "bogus"),
        ValueError,
        "mode must be one of ('perfect', 'unitary')",
    ),
    'classify_hits([], "bogus")': (
        lambda: classify_hits([], "bogus"),
        ValueError,
        "mode must be one of ('perfect', 'unitary')",
    ),
    "is_squarefree(ZERO)": (
        lambda: is_squarefree(ZERO),
        ValueError,
        "squarefreeness is undefined for the zero polynomial",
    ),
    "is_primitive(X)": (lambda: is_primitive(X), ValueError, "x has no multiplicative order modulo x"),
    "enumerate_mersenne_primes(1)": (
        lambda: enumerate_mersenne_primes(1),
        ValueError,
        "Mersenne primes have degree at least 2",
    ),
    "euler_phi(0)": (lambda: euler_phi(0), ValueError, "totient is defined for positive integers"),
    "factorize_int(0)": (lambda: factorize_int(0), ValueError, "can only factor positive integers"),
    "_divisor_sum_tables(26, False)": (
        lambda: _divisor_sum_tables(26, False),
        ValueError,
        "divisor-sum tables are built for degree 1 to 25, got 26",
    ),
    "is_indecomposable(T8) past a cap of 2": (  # T8 has five distinct primes
        lambda: is_indecomposable(CAT.lookup("T8")),
        BudgetError,
        "coprime-split search capped at 2 primes",
    ),
}


@pytest.mark.parametrize("name", GUARDS)
def test_guard_raises_its_error(monkeypatch, name):
    call, error, message = GUARDS[name]
    monkeypatch.setattr(divisors, "INDECOMPOSABLE_OMEGA_CAP", 2)  # read by is_indecomposable alone
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
