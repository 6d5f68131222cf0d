import pytest

from gf2perfect.divisors import canonical_class_rep, check, sigma, sigma_star
from gf2perfect.factor import factorize, is_irreducible
from gf2perfect.gf2poly import X, XP1, BudgetError, Poly, parse
from gf2perfect.mersenne import catalog, mersenne_form
from gf2perfect.search import (
    SearchConfig,
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
    with pytest.raises(ValueError):
        SearchConfig(max_degree=0)
    with pytest.raises(ValueError):
        SearchConfig(max_degree=8, mode="odd")
    with pytest.raises(BudgetError):
        search_bruteforce(SearchConfig(21))


def test_bruteforce_trivial_budgets():
    assert search_bruteforce(SearchConfig(max_degree=1)) == []
    assert search_bruteforce(SearchConfig(max_degree=3)) == [parse("x^2+x")]


def test_bruteforce_small_unitary():
    hits = search_bruteforce(SearchConfig(max_degree=10, mode="unitary"))
    assert CAT.lookup("B1") in hits  # degree 10
    assert CAT.lookup("B2") in hits  # degree 7
    for a in hits:
        assert sigma_star(a) == a


def test_bruteforce_matches_direct_scan():
    # independent oracle: test sigma(A) = A via the factorization route
    hits = search_bruteforce(SearchConfig(max_degree=9))
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


def test_bruteforce_classification_at_degree_20():
    # the exhaustive route, assuming nothing about the odd primes
    report = classify_hits(search_bruteforce(SearchConfig(20)), "perfect")
    trivial = {(X * XP1) ** (2**n - 1) for n in range(1, 4)}  # degree 2, 6, 14
    known = {CAT.lookup(f"T{i}") for i in range(1, 10)}
    sporadic = parse("x(x+1)^2(x^2+x+1)^2(x^4+x+1)")
    assert len(report.classes) == 14
    assert {c.rep for c in report.classes if c.trivial} == trivial
    assert {c.rep for c in report.classes if c.in_catalog} == known
    assert {c.rep for c in report.flagged} == {sporadic, sporadic.bar()}


def test_structured_smallest():
    hits = search_structured(SearchConfig(max_degree=3, mode="perfect"))
    assert hits == [parse("x^2+x")]


def test_structured_vs_bruteforce_degree_12():
    for mode in ("perfect", "unitary"):
        brute = search_bruteforce(SearchConfig(max_degree=12, mode=mode))
        structured = search_structured(SearchConfig(max_degree=12, mode=mode))
        assert sorted(p for p in brute if mersenne_only_odd_part(p)) == structured
        for p in structured:
            assert check(p, mode).verdict


def test_monotone_budgets():
    # (15, 16) and (31, 32) straddle a step of the packed field width
    for mode in ("perfect", "unitary"):
        for lo, hi in ((10, 16), (15, 16), (31, 32)):
            small = search_structured(SearchConfig(max_degree=lo, mode=mode))
            large = search_structured(SearchConfig(max_degree=hi, mode=mode))
            assert set(small) <= set(large)
            assert all(check(p, mode).verdict for p in small + large)


def test_packed_part_sums_decode():
    # every packed divisor sum unpacks to the factorization it was built from
    for mode in ("perfect", "unitary"):
        divisor_sum = sigma if mode == "perfect" else sigma_star
        for degree in (15, 16, 31, 32):
            width, primes, x_parts, xp1_parts, prime_parts = _part_sigma_table(SearchConfig(degree, mode))
            index = [X, XP1, *primes]
            tables = [(X, x_parts), (XP1, xp1_parts), *zip(primes, prime_parts)]
            for base, table in tables:
                for e, packed in table.items():
                    fields = [packed >> width * i & ((1 << width) - 1) for i in range(len(index))]
                    assert packed >> width * len(index) == 0
                    assert {p: m for p, m in zip(index, fields) if m} == dict(factorize(divisor_sum(base**e)).factors)


def test_classification_at_degree_40():
    def classes(mode):
        hits = search_structured(SearchConfig(max_degree=40, mode=mode))
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
    report = classify_hits(search_structured(SearchConfig(degree, mode)), mode)
    assert len(report.classes) == count
    assert report.flagged == ()
    assert all(c.in_catalog or c.trivial for c in report.classes)


def test_bar_closure_of_hits():
    for mode in ("perfect", "unitary"):
        hits = set(search_structured(SearchConfig(max_degree=16, mode=mode)))
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
    hits = search_structured(SearchConfig(max_degree=16, mode="perfect"))
    report = classify_hits(hits, "perfect")
    nontrivial = report.nontrivial()
    assert all(len(c.members) == 1 for c in nontrivial)
    assert sum(c.in_catalog for c in nontrivial) == 7  # T1..T7 fit in degree 16
