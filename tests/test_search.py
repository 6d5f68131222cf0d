from functools import cache
from itertools import islice

import pytest

from gf2perfect import search
from gf2perfect.divisors import canonical_class_rep, check, is_indecomposable, sigma, sigma_star
from gf2perfect.factor import count_irreducibles, factorize, is_irreducible
from gf2perfect.gf2poly import X, XP1, BudgetError, Poly, parse
from gf2perfect.mersenne import catalog, enumerate_mersenne_primes, mersenne_form
from gf2perfect.search import (
    _divisor_sum_tables,
    _part_sigma_table,
    classify_hits,
    search_bruteforce,
    search_structured,
)
from oracles import certify_structured_search

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
    classes = classify_hits(bruteforce_at_20("perfect"), "perfect")
    trivial = {(X * XP1) ** (2**n - 1) for n in range(1, 4)}  # degree 2, 6, 14
    known = {CAT.lookup(f"T{i}") for i in range(1, 10)}
    sporadic = parse("x(x+1)^2(x^2+x+1)^2(x^4+x+1)")
    assert len(classes) == 14
    assert {c.rep for c in classes if c.trivial} == trivial
    assert {c.rep for c in classes if c.in_catalog} == known
    assert {c.rep for c in classes if c.outside_scope} == {sporadic, sporadic.bar()}


def test_bruteforce_unitary_classification_at_degree_20():
    classes = classify_hits(bruteforce_at_20("unitary"), "unitary")
    assert len(classes) == 9
    assert len([c for c in classes if c.outside_scope]) == 2
    assert all(c.in_catalog or c.trivial or c.outside_scope for c in classes)


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
            width, primes, parts = _part_sigma_table(degree, mode)
            for base, table in zip(primes, parts):
                for e, packed in table.items():
                    fields = [packed >> width * i & ((1 << width) - 1) for i in range(len(primes))]
                    assert packed >> width * len(primes) == 0
                    assert {p: m for p, m in zip(primes, fields) if m} == dict(factorize(divisor_sum(base**e)))


def search_by_recursion(max_degree, mode):
    """The structured search as a pruned subset recursion, the scan's reference.

    It mixes every admissible part of each prime in turn, carries the odd
    part's exponents beside the sum of its parts' packed divisor sums, and
    probes each x part a, which fixes b through the x+1 field.  A node is
    pruned once its sums' x and x+1 fields alone need a + b above the
    budget: extending only grows the sums and shrinks the budget.
    """
    width, primes, parts = search._part_sigma_table(max_degree, mode)
    field = (1 << width) - 1
    x_probes = [(a, fx, fx >> width & field) for a, fx in parts[0].items()]
    order = sorted(range(2, len(primes)), key=lambda k: -primes[k].degree)  # the large primes use up the budget soonest
    hits = []

    def extend(i, budget, sums, odd):
        # budget is max_degree - 2 minus the odd part's degree
        vx1 = sums >> width & field
        if (sums & field) + vx1 > budget + 2:
            return
        for a, fx, fx_xp1 in x_probes:
            b = vx1 + fx_xp1
            f1 = parts[1].get(b)
            if f1 is not None and a + b <= budget + 2 and sums + fx + f1 == (want := odd + a + (b << width)):
                poly = Poly(1)
                for k, p in enumerate(primes):
                    poly = poly * p ** (want >> width * k & field)
                hits.append(poly)
        for j in range(i, len(order)):
            k, d = order[j], primes[order[j]].degree
            if d > budget:
                continue
            for h, s in parts[k].items():
                if h * d <= budget:
                    extend(j + 1, budget - h * d, sums + s, odd + (h << width * k))

    extend(0, max_degree - 2, 0, 0)
    return sorted(hits)


@pytest.mark.parametrize("mode, nprimes", [("perfect", 365), ("unitary", 253)])
def test_structured_route_rests_on_certified_verdicts(mode, nprimes):
    # Rabin's test, which shares no loop with factor, accepts exactly the
    # 145 enumerated Mersenne primes of degree <= 62, and every prime of the
    # 557 splits the degree-64 part table reads
    assert certify_structured_search(64, mode) == (145, 557, nprimes, [])


@pytest.mark.parametrize("mode", ["perfect", "unitary"])
def test_scan_matches_the_recursion(mode):
    for degree in [*range(1, 41), 56]:
        assert search_structured(degree, mode) == search_by_recursion(degree, mode), degree


SMALL_MERSENNE = [m.poly for m in enumerate_mersenne_primes(4)]  # x^2+x+1, two cubics, two quartics


def test_scan_matches_the_recursion_on_synthetic_tables(monkeypatch):
    # no hit of the real tables up to degree 200 uses a special part, so
    # random tables with the real ones' invariants exercise the choices:
    # each part's sum has the part's degree and no field at its own prime
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(st.integers(4, 14), st.randoms(use_true_random=True))
    def agree(max_degree, rng):
        pool = [p for p in SMALL_MERSENNE if p.degree <= max_degree - 2]
        primes = rng.sample(pool, rng.randint(0, len(pool)))
        width = max_degree.bit_length() + 1
        degree_of = [1, 1, *(p.degree for p in primes)]

        def part_sum(own, degree, take):
            # take(k, top) <= top is the odd field k; x and x+1 share the rest
            fields = [0] * len(degree_of)
            for k in range(2, len(fields)):
                if k != own:
                    fields[k] = take(k, degree // degree_of[k])
                    degree -= fields[k] * degree_of[k]
            fields[0] = 0 if own == 0 else degree if own == 1 else rng.randint(0, degree)
            fields[1] = degree - fields[0]
            return fields

        def packed(fields):
            return sum(f << width * k for k, f in enumerate(fields))

        def table(own, top):
            entries = (e for e in range(1, top + 1) if rng.random() < 0.75)
            some = lambda k, top: rng.randint(0, top) if rng.random() < 0.5 else 0  # noqa: E731
            return {e: packed(part_sum(own, e * degree_of[own], some)) for e in entries}

        parts = [table(0, max_degree - 1), table(1, max_degree - 1)]
        parts += [table(k, (max_degree - 2) // degree_of[k]) for k in range(2, len(degree_of))]
        # plant a candidate x^a (x+1)^b prod P_k^h_k whose parts add up to it: each
        # prime part takes what it can of the other primes' fields, the x and
        # x+1 parts the rest, and the x+1 part's x field v balances the two
        h = [0, 0, *(int(rng.random() < 0.5) for _ in primes)]
        need, low = h.copy(), [0, 0]  # the odd fields still unmet; the x and x+1 fields so far
        for k in range(2, len(h)):
            if h[k]:
                fields = part_sum(k, h[k] * degree_of[k], lambda j, top: min(need[j], top))
                parts[k][h[k]] = packed(fields)
                need = [n - f for n, f in zip(need, fields)]
                low = [low[0] + fields[0], low[1] + fields[1]]
        fx = [0, 0, *(rng.randint(0, n) for n in need[2:])]
        f1 = [0, 0, *(n - f for n, f in zip(need[2:], fx[2:]))]
        odd_x, odd_xp1 = (sum(f * d for f, d in zip(part, degree_of)) for part in (fx, f1))
        v = max(0, odd_x - low[0], 1 - low[0], 1 - odd_xp1)
        a, b = v + low[0], v + odd_xp1
        planted = None
        if a + b + sum(e * d for e, d in zip(h, degree_of)) <= max_degree:
            parts[0][a] = packed([0, a - odd_x, *fx[2:]])
            parts[1][b] = packed([v, 0, *f1[2:]])
            planted = XP1**b << a
            for p, e in zip(primes, h[2:]):
                planted = planted * p**e
        with monkeypatch.context() as patch:
            patch.setattr(search, "_part_sigma_table", lambda *_: (width, [X, XP1, *primes], parts))
            hits = search_by_recursion(max_degree, "perfect")
            assert planted is None or planted in hits
            assert search_structured(max_degree, "perfect") == hits

    agree()


def test_classification_at_degree_40():
    def classes(mode):
        hits = search_structured(40, mode)
        return classify_hits(hits, mode)

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
    # the same classes as at degree 40: no class has degree 41 to 60 (perfect) or 48 (unitary)
    classes = classify_hits(search_structured(degree, mode), mode)
    assert len(classes) == count
    assert not any(c.outside_scope for c in classes)
    assert all(c.in_catalog or c.trivial for c in classes)


@cache
def structured_at_128(mode):
    return search_structured(128, mode)


def test_classification_at_degree_128():
    perfect = classify_hits(structured_at_128("perfect"), "perfect")
    trivial = {(X * XP1) ** (2**n - 1) for n in range(1, 7)}  # degree 2, 6, ..., 126
    known = {CAT.lookup(f"T{i}") for i in range(1, 10)}
    assert len(perfect) == 15
    assert {c.rep for c in perfect} == trivial | known

    unitary = classify_hits(structured_at_128("unitary"), "unitary")
    known = {canonical_class_rep(CAT.lookup(f"B{i}")) for i in range(1, 10)}
    assert len(unitary) == 10
    assert {c.rep for c in unitary} == {X * XP1} | known

    for mode, classes in (("perfect", perfect), ("unitary", unitary)):
        assert not any(c.outside_scope for c in classes)
        assert all(c.in_catalog or c.trivial for c in classes)
        assert all(check(p, mode).verdict for c in classes for p in c.members)


@pytest.mark.parametrize("mode", ["perfect", "unitary"])
def test_no_hit_splits_into_two_perfect_parts(mode):
    # the premise of is_indecomposable's docstring: x divides a perfect A
    # iff x+1 does, x(x+1) divides every unitary perfect A, and no hit
    # is odd, so no coprime split has two (unitary) perfect parts
    hits = set(bruteforce_at_20(mode)) | set(structured_at_128(mode))
    for a in hits:
        assert a.valuation(X) > 0 and a.valuation(XP1) > 0, a
    assert all(not c.decomposable for c in classify_hits(sorted(hits), mode))


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
    classes = classify_hits([b1, b1**2], "unitary")
    assert len(classes) == 1
    cls = classes[0]
    assert cls.members == (b1, b1**2)
    assert cls.in_catalog and not cls.trivial and not cls.outside_scope


def test_classify_flags_non_mersenne():
    # the degree-16 unitary perfect with the non-Mersenne prime x^4+x+1
    sporadic = parse("x^3(x+1)^3(x^2+x+1)^3(x^4+x+1)")
    assert sigma_star(sporadic) == sporadic
    classes = classify_hits([sporadic], "unitary")
    assert classes[0].outside_scope
    assert tuple(c for c in classes if c.outside_scope) == (classes[0],)


def test_classify_perfect_hits_are_singletons():
    hits = search_structured(16, "perfect")
    nontrivial = [c for c in classify_hits(hits, "perfect") if not c.trivial]
    assert all(len(c.members) == 1 for c in nontrivial)
    assert sum(c.in_catalog for c in nontrivial) == 7  # T1..T7 fit in degree 16
