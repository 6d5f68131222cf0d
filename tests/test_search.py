from functools import cache
from itertools import islice

import pytest

from gf2perfect import search
from gf2perfect.divisors import canonical_class_rep, check, is_indecomposable, sigma, sigma_star
from gf2perfect.factor import count_irreducibles, factorize, is_irreducible
from gf2perfect.gf2poly import X, XP1, BudgetError, Poly, parse
from gf2perfect.mersenne import catalog, mersenne_form
from gf2perfect.search import (
    _divisor_sum_tables,
    _part_sigma_table,
    classify_hits,
    search_bruteforce,
    search_structured,
)

CAT = catalog()


def mersenne_only_odd_part(p):
    return all(q == X or q == XP1 or mersenne_form(q) is not None for q, _ in factorize(p))


def test_config_validation():
    for run in (search_structured, search_bruteforce):
        with pytest.raises(ValueError, match="max_degree must be positive"):
            run(0)
        with pytest.raises(ValueError, match="mode must be one of"):
            run(8, "odd")
    with pytest.raises(BudgetError):
        search_bruteforce(21)


def test_bruteforce_trivial_budgets():
    assert search_bruteforce(1) == []
    assert search_bruteforce(3) == [parse("x^2+x")]


def test_bruteforce_small_unitary():
    hits = search_bruteforce(10, "unitary")
    assert CAT.lookup("B1") in hits  # degree 10
    assert CAT.lookup("B2") in hits  # degree 7
    for a in hits:
        assert sigma_star(a) == a


def test_bruteforce_matches_direct_scan():
    # independent oracle: test sigma(A) = A via the factorization route
    hits = search_bruteforce(9)
    direct = [Poly(m) for m in range(2, 1 << 10) if sigma(Poly(m)) == Poly(m)]
    assert hits == direct


def test_divisor_sum_table_entries():
    # every entry, not just the fixed points the hit lists compare
    irreducibles = [Poly(m) for m in range(2, 1 << 10) if is_irreducible(Poly(m))]
    for unitary, divisor_sum in ((False, sigma), (True, sigma_star)):
        table = _divisor_sum_tables(12, unitary)
        assert all(table[m] == divisor_sum(Poly(m)).mask for m in range(1, 1 << 13))
        # prime powers times a coprime cofactor: the entries built from rest[]
        table = _divisor_sum_tables(16, unitary)
        for i, p in enumerate(irreducibles):
            for k in range(2, 16 // p.degree + 1):
                for r in (Poly(1), *irreducibles[i + 1 : i + 4]):
                    m = p**k * r
                    if m.degree <= 16:
                        assert table[m.mask] == divisor_sum(m).mask, (p, k, r)


DIVISOR_SUMS = ((False, sigma), (True, sigma_star))


def primes_of_degree(d):
    return (Poly(m) for m in range(1 << d | 1, 2 << d, 2) if is_irreducible(Poly(m)))


@pytest.mark.parametrize("unitary, divisor_sum", DIVISOR_SUMS, ids=["sigma", "sigma_star"])
def test_divisor_sum_table_every_entry_small(unitary, divisor_sum):
    # odd and even sizes, both sides of the 2d <= max_degree split at each
    for degree in range(1, 12):
        table = _divisor_sum_tables(degree, unitary)
        assert len(table) == 2 << degree
        assert all(table[m] == divisor_sum(Poly(m)).mask for m in range(1, 2 << degree)), degree


@pytest.mark.parametrize("degree", [16, 17])
@pytest.mark.parametrize("unitary, divisor_sum", DIVISOR_SUMS, ids=["sigma", "sigma_star"])
def test_divisor_sum_table_across_the_half_degree(degree, unitary, divisor_sum):
    table = _divisor_sum_tables(degree, unitary)
    # products of two primes of degree degree // 2, the highest degree taken one prime at a time
    half = list(primes_of_degree(degree // 2))
    for i, p in enumerate(half):
        for q in half[i:]:
            m = p * q
            assert table[m.mask] == divisor_sum(m).mask, (p, q)
    # a prime of degree d > degree / 2 beside every odd cofactor that fits
    for d in range(degree // 2 + 1, degree + 1):
        for p in islice(primes_of_degree(d), 3):
            for c in range(1, 2 << degree - d, 2):
                m = p * Poly(c)
                assert table[m.mask] == divisor_sum(m).mask, (p, c)


@pytest.mark.parametrize("unitary", [False, True], ids=["sigma", "sigma_star"])
def test_divisor_sum_table_prefix_consistent(unitary):
    assert _divisor_sum_tables(16, unitary) == _divisor_sum_tables(18, unitary)[: 1 << 17]


@pytest.mark.parametrize("unitary", [False, True], ids=["sigma", "sigma_star"])
def test_bruteforce_plane_scan_finds_every_fixed_point(unitary):
    # the low-byte scan against the table read entry by entry; degrees up to 6
    # give tables shorter than one 256-byte period of the identity plane
    mode = "unitary" if unitary else "perfect"
    for degree in range(1, 13):
        table = _divisor_sum_tables(degree, unitary)
        fixed = [Poly(m) for m in range(2, len(table)) if table[m] == m]
        assert search_bruteforce(degree, mode) == fixed, degree


def test_divisor_sum_table_guards_each_bucket(monkeypatch):
    # a bucket whose size differs from 2^(d-1) - N(d) stops the build at its degree
    monkeypatch.setattr(search, "count_irreducibles", lambda d: count_irreducibles(d) + (d == 5))
    with pytest.raises(RuntimeError, match="degree 5"):
        _divisor_sum_tables(8, False)


@cache
def bruteforce_at_20(mode):
    # one exhaustive scan per mode, shared by the degree-20 tests
    return search_bruteforce(20, mode)


def test_bruteforce_classification_at_degree_20():
    # the exhaustive route, assuming nothing about the odd primes
    report = classify_hits(bruteforce_at_20("perfect"), "perfect")
    trivial = {(X * XP1) ** (2**n - 1) for n in range(1, 4)}  # degree 2, 6, 14
    known = {CAT.lookup(f"T{i}") for i in range(1, 10)}
    sporadic = parse("x(x+1)^2(x^2+x+1)^2(x^4+x+1)")
    assert len(report.classes) == 14
    assert {c.rep for c in report.classes if c.trivial} == trivial
    assert {c.rep for c in report.classes if c.in_catalog} == known
    assert {c.rep for c in report.flagged} == {sporadic, sporadic.bar()}


def test_bruteforce_unitary_classification_at_degree_20():
    report = classify_hits(bruteforce_at_20("unitary"), "unitary")
    assert len(report.classes) == 9
    assert len(report.flagged) == 2
    assert all(c.in_catalog or c.trivial or c.outside_scope for c in report.classes)


@pytest.mark.parametrize("mode", ["perfect", "unitary"])
def test_structured_vs_bruteforce_degree_20(mode):
    brute = bruteforce_at_20(mode)
    assert [p for p in brute if mersenne_only_odd_part(p)] == search_structured(20, mode)


def test_structured_smallest():
    hits = search_structured(3, "perfect")
    assert hits == [parse("x^2+x")]


def test_structured_vs_bruteforce_degree_12():
    for mode in ("perfect", "unitary"):
        brute = search_bruteforce(12, mode)
        structured = search_structured(12, mode)
        assert sorted(p for p in brute if mersenne_only_odd_part(p)) == structured
        for p in structured:
            assert check(p, mode).verdict


def test_monotone_budgets():
    # (15, 16) and (31, 32) straddle a step of the packed field width
    for mode in ("perfect", "unitary"):
        for lo, hi in ((10, 16), (15, 16), (31, 32)):
            small = search_structured(lo, mode)
            large = search_structured(hi, mode)
            assert set(small) <= set(large)
            assert all(check(p, mode).verdict for p in small + large)


def test_packed_part_sums_decode():
    # every packed divisor sum unpacks to the factorization it was built from
    for mode in ("perfect", "unitary"):
        divisor_sum = sigma if mode == "perfect" else sigma_star
        for degree in (15, 16, 31, 32):
            width, primes, x_parts, xp1_parts, prime_parts = _part_sigma_table(degree, mode)
            index = [X, XP1, *primes]
            tables = [(X, x_parts), (XP1, xp1_parts), *zip(primes, prime_parts)]
            for base, table in tables:
                for e, packed in table.items():
                    fields = [packed >> width * i & ((1 << width) - 1) for i in range(len(index))]
                    assert packed >> width * len(index) == 0
                    assert {p: m for p, m in zip(index, fields) if m} == dict(factorize(divisor_sum(base**e)).factors)


def test_classification_at_degree_40():
    def classes(mode):
        hits = search_structured(40, mode)
        return classify_hits(hits, mode).classes

    perfect = classes("perfect")
    trivial = {(X * XP1) ** (2**n - 1) for n in range(1, 5)}  # degree 2, 6, 14, 30
    known = {CAT.lookup(f"T{i}") for i in range(1, 10)}
    assert len(perfect) == 13
    assert {c.rep for c in perfect} == trivial | known

    unitary = classes("unitary")
    known = {canonical_class_rep(CAT.lookup(f"B{i}")) for i in range(1, 10)}
    assert len(unitary) == 10
    assert {c.rep for c in unitary} == {X * XP1} | known

    for c in perfect + unitary:
        assert (c.in_catalog or c.trivial) and not c.outside_scope


@pytest.mark.parametrize("mode, degree, count", [("perfect", 60, 13), ("unitary", 48, 10)])
def test_classification_beyond_degree_40(mode, degree, count):
    # the same classes as at degree 40: the valuation bound loses none
    report = classify_hits(search_structured(degree, mode), mode)
    assert len(report.classes) == count
    assert report.flagged == ()
    assert all(c.in_catalog or c.trivial for c in report.classes)


def indecomposable_by_definition(a, mode):
    # two-sided reference: no split a = u v into coprime nonconstant parts
    # with both u and v (unitary) perfect
    parts = [p**m for p, m in factorize(a)]
    for bits in range(1, (1 << len(parts)) - 1):
        u = Poly(1)
        for i, part in enumerate(parts):
            if bits >> i & 1:
                u = u * part
        if check(u, mode).verdict and check(a // u, mode).verdict:
            return False
    return True


@pytest.mark.parametrize("mode, count", [("perfect", 15), ("unitary", 34)])
def test_is_indecomposable_matches_the_two_sided_definition(mode, count):
    # every hit here is divisible by x(x+1), so no coprime split has two
    # perfect parts and both sides answer True; the reference still tries
    # every split, each with two full checks
    hits = set(search_structured(40, mode)) | set(search_bruteforce(16, mode))
    assert len(hits) == count
    for a in sorted(hits):
        assert is_indecomposable(a, mode) == indecomposable_by_definition(a, mode), a


def test_bar_closure_of_hits():
    for mode in ("perfect", "unitary"):
        hits = set(search_structured(16, mode))
        assert {p.bar() for p in hits} == hits


def test_classify_groups_powers():
    b1 = CAT.lookup("B1")
    report = classify_hits([b1, b1**2], "unitary")
    assert len(report.classes) == 1
    cls = report.classes[0]
    assert cls.members == (b1, b1**2)
    assert cls.in_catalog and not cls.trivial and not cls.outside_scope


def test_classify_flags_non_mersenne():
    # the degree-16 unitary perfect with the non-Mersenne prime x^4+x+1
    sporadic = parse("x^3(x+1)^3(x^2+x+1)^3(x^4+x+1)")
    assert sigma_star(sporadic) == sporadic
    report = classify_hits([sporadic], "unitary")
    assert report.classes[0].outside_scope
    assert report.flagged == (report.classes[0],)


def test_classify_perfect_hits_are_singletons():
    hits = search_structured(16, "perfect")
    report = classify_hits(hits, "perfect")
    nontrivial = report.nontrivial
    assert all(len(c.members) == 1 for c in nontrivial)
    assert sum(c.in_catalog for c in nontrivial) == 7  # T1..T7 fit in degree 16
