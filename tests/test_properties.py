"""Property checks with hypothesis: ring laws, multiplicativity of the
divisor sums, their invariance under x -> x+1, the piecewise
factorization of c(p), and the brute-force oracle's divisor-sum table.

Every property runs a fixed, derandomized set of examples with no example
database, so the suite stays deterministic; degrees are bounded to keep it
fast.
"""

from functools import cache

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from gf2perfect.divisors import sigma, sigma_star  # noqa: E402
from gf2perfect.factor import factorize, factorize_composed  # noqa: E402
from gf2perfect.gf2poly import ONE, ZERO, Poly, gcd  # noqa: E402
from gf2perfect.search import _divisor_sum_tables  # noqa: E402

deterministic = settings(derandomize=True, database=None, deadline=None, max_examples=200)


def polys(max_degree):
    return st.integers(min_value=0, max_value=(1 << max_degree + 1) - 1).map(Poly)


def nonzero_polys(max_degree):
    return st.integers(min_value=1, max_value=(1 << max_degree + 1) - 1).map(Poly)


def nonconstant_polys(max_degree):
    return st.integers(min_value=2, max_value=(1 << max_degree + 1) - 1).map(Poly)


@deterministic
@given(polys(80), polys(80), polys(80))
def test_ring_laws(a, b, c):
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a and a * ONE == a and a * ZERO == ZERO
    assert a + a == ZERO  # characteristic 2


@deterministic
@given(nonzero_polys(12), nonzero_polys(12))
def test_divisor_sums_multiplicative_on_coprime_pairs(a, b):
    assume(gcd(a, b) == ONE)
    assert sigma(a * b) == sigma(a) * sigma(b)
    assert sigma_star(a * b) == sigma_star(a) * sigma_star(b)


@deterministic
@given(nonzero_polys(20))
def test_divisor_sums_commute_with_bar(a):
    assert sigma(a.bar()) == sigma(a).bar()
    assert sigma_star(a.bar()) == sigma_star(a).bar()


@deterministic
@given(nonzero_polys(16), nonconstant_polys(6))
def test_factorize_composed_is_factorize_of_the_substitution(c, p):
    whole = ZERO
    for i in range(int(c.degree), -1, -1):  # Horner's rule through Poly's ring operations
        whole = whole * p + Poly(c.mask >> i & 1)
    assert factorize_composed(c, p) == factorize(whole)


@cache
def table_16(unitary):
    return _divisor_sum_tables(16, unitary)


@deterministic
@given(st.integers(min_value=1, max_value=(1 << 17) - 1))
def test_divisor_sum_table_matches_sigma(mask):
    assert table_16(False)[mask] == sigma(Poly(mask)).mask
    assert table_16(True)[mask] == sigma_star(Poly(mask)).mask
