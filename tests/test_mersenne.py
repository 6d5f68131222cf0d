from collections import Counter
from math import gcd, isqrt

import pytest

from gf2perfect import euler_phi
from gf2perfect.gf2poly import ONE, X, XP1, Poly, parse
from gf2perfect.mersenne import (
    catalog,
    enumerate_mersenne_primes,
    in_delta,
    is_mersenne_prime,
    mersenne_form,
    mersenne_poly,
    ord2,
    parse_named,
)
from oracles import rabin_irreducible

CAT = catalog()


def test_mersenne_poly():
    assert mersenne_poly(1, 1) == parse("x^2+x+1")
    assert mersenne_poly(1, 3) == parse("x^4+x^3+x^2+x+1")
    # expansion oracle: 1 + x^2 (x+1)
    assert mersenne_poly(2, 1) == ONE + parse("x^2") * XP1 == parse("x^3+x^2+1")
    assert mersenne_poly(2, 1) == CAT.lookup("M2").bar()
    with pytest.raises(ValueError):
        mersenne_poly(0, 1)


def test_is_mersenne_prime():
    # irreducible but 1+p = x(x+1)(x^4+x^3+x^2+x+1), not a pure form
    p = parse("x^6+x+1")
    assert ONE + p == X * XP1 * CAT.lookup("M3")
    assert is_mersenne_prime(p) is None
    q = parse("x^4+x^3+1")
    assert ONE + q == parse("x^3") * XP1  # expansion oracle
    assert is_mersenne_prime(q) == (3, 1)
    assert is_mersenne_prime(parse("x^2+1")) is None  # reducible
    with pytest.raises(ValueError):
        is_mersenne_prime(Poly(0))


def test_mersenne_form():
    # 1 + 1 = 0, 1 + x = x + 1 and 1 + (x+1) = x: degree below 2, no form
    for p in (ONE, X, XP1):
        assert mersenne_form(p) is None, p
    with pytest.raises(ValueError):
        mersenne_form(Poly(0))
    # every mask of degree at most 10 against the forms built from (a, b)
    forms = {mersenne_poly(a, b): (a, b) for a in range(1, 10) for b in range(1, 11 - a)}
    for mask in range(1, 1 << 11):
        assert mersenne_form(Poly(mask)) == forms.get(Poly(mask)), mask


def test_enumerate_matches_catalog_at_degree_4():
    found = enumerate_mersenne_primes(4)
    assert {m.poly for m in found} == set(CAT.mersennes)
    assert [(m.a, m.b) for m in found] == [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1)]


def test_no_mersenne_prime_of_degree_multiple_8():
    for m in enumerate_mersenne_primes(24):
        assert m.degree % 8 != 0


# Mersenne primes 1 + x^a (x+1)^b per degree up to 100, 231 in all; a degree
# not listed has none (8, 16, 24, ... among them)
_CENSUS_100 = {
    2: 1, 3: 2, 4: 2, 5: 2, 6: 2, 7: 4, 9: 4, 10: 2, 11: 2, 12: 2, 14: 2,
    15: 6, 17: 6, 18: 2, 20: 2, 21: 2, 22: 2, 23: 4, 25: 4, 28: 8, 29: 2,
    30: 2, 31: 8, 33: 4, 34: 2, 35: 2, 36: 2, 39: 6, 41: 4, 44: 2, 46: 2,
    47: 8, 49: 8, 52: 8, 55: 4, 57: 8, 58: 2, 60: 8, 62: 2, 63: 8, 65: 4,
    68: 4, 71: 10, 73: 6, 74: 2, 76: 2, 79: 4, 81: 6, 84: 6, 86: 2, 87: 2,
    89: 2, 92: 2, 93: 2, 94: 2, 95: 4, 97: 8, 98: 4, 100: 6,
}


def test_census_to_degree_100():
    assert Counter(m.degree for m in enumerate_mersenne_primes(100)) == _CENSUS_100


def test_enumeration_is_the_exhaustive_rabin_list_in_order():
    # every coprime (a, b) in (degree, a) order, each tested by Rabin's
    # criterion, which shares no loop with factor; the enumeration tests
    # only a <= b and takes (b, a) from the x -> x+1 symmetry
    exhaustive = [
        (a, d - a, mersenne_poly(a, d - a))
        for d in range(2, 65)
        for a in range(1, d)
        if gcd(a, d - a) == 1 and rabin_irreducible(mersenne_poly(a, d - a))
    ]
    assert [(m.a, m.b, m.poly) for m in enumerate_mersenne_primes(64)] == exhaustive


def test_enumeration_invariants():
    found = enumerate_mersenne_primes(12)
    by_degree = {}
    for m in found:
        assert m.poly == mersenne_poly(m.a, m.b)
        assert is_mersenne_prime(m.poly) == (m.a, m.b)
        by_degree.setdefault(m.degree, []).append(m)
    for d, entries in by_degree.items():
        assert len(entries) <= euler_phi(d)
        # the conjugate maps (a, b) to (b, a) within the same degree
        pairs = {(m.a, m.b) for m in entries}
        assert {(b, a) for a, b in pairs} == pairs
        for m in entries:
            assert is_mersenne_prime(m.poly.bar()) == (m.b, m.a)


def test_non_mersenne_irreducible_exists_per_degree():
    from gf2perfect.factor import count_irreducibles

    counts = {}
    for m in enumerate_mersenne_primes(24):
        counts[m.degree] = counts.get(m.degree, 0) + 1
    for d in range(4, 25):
        assert count_irreducibles(d) - counts.get(d, 0) >= 1


def test_ord2():
    assert ord2(3) == 2
    assert ord2(7) == 3
    # repeated multiplication oracle for p = 17
    v, e = 2, 1
    while v != 1:
        v = v * 2 % 17
        e += 1
    assert ord2(17) == e == 8
    with pytest.raises(ValueError):
        ord2(15)
    with pytest.raises(ValueError):
        ord2(2)



def test_ord2_is_the_brute_force_order_below_3000():
    primes = [p for p in range(3, 3000, 2) if all(p % d for d in range(3, isqrt(p) + 1, 2))]
    assert len(primes) == 429
    for p in primes:
        v, e = 2, 1
        while v != 1:
            v, e = v * 2 % p, e + 1
        assert ord2(p) == e, p

def test_in_delta():
    assert in_delta(7)  # 2^3 - 1
    assert in_delta(17)  # ord 8
    assert not in_delta(5)  # ord 4, and excluded by convention
    assert in_delta(3)
    assert not in_delta(73)  # ord_73(2) = 9
    # all Fermat primes above 5, checked empirically
    for p in (17, 257, 65537):
        assert in_delta(p)
    with pytest.raises(ValueError):
        in_delta(9)


def test_catalog_fixtures():
    t5 = CAT.lookup("T_5")
    assert t5 == parse("x^4") * XP1**4 * CAT.lookup("M3") * CAT.lookup("M3b")
    assert t5.bar() == t5
    assert CAT.lookup("B_9") == parse("x^7") * XP1**5 * CAT.lookup("M2") * CAT.lookup("M2b") * CAT.lookup("M3b")
    assert CAT.lookup("M_1") == parse("x^2+x+1")
    assert CAT.lookup("T2") == CAT.lookup("T1").bar()
    assert len(CAT.perfects) == 9 and len(CAT.unitary_perfects) == 9
    with pytest.raises(ValueError):
        CAT.lookup("T10")


def test_parse_named():
    assert parse_named("M1^2 * x") == CAT.lookup("M1") ** 2 * X
    assert parse_named("B_4") == CAT.lookup("B4")
    assert parse_named("x^2+x+1") == CAT.lookup("M1")
