import random

import pytest

from gf2perfect import euler_phi
from gf2perfect.factor import (
    count_irreducibles,
    factorize,
    factorize_composed,
    is_irreducible,
    is_primitive,
    is_squarefree,
)
from gf2perfect.gf2poly import ONE, X, XP1, BudgetError, Poly, _gcd_mask, _mul_mask, _reducer, parse
from gf2perfect.divisors import factor_sigma_prime_power, sigma, sigma_prime_power
from oracles import rabin_irreducible


def trial_division_irreducible(p):
    # brute oracle: no divisor of degree 1 .. deg/2
    d = int(p.degree)
    for mask in range(2, 1 << (d // 2 + 1)):
        if Poly(mask).divides(p):
            return False
    return d >= 1


def test_is_irreducible_examples():
    assert is_irreducible(parse("x^2+x+1"))
    assert is_irreducible(parse("x^4+x^3+x^2+x+1"))
    assert not is_irreducible(parse("x^2+1"))  # (x+1)^2
    with pytest.raises(ValueError):
        is_irreducible(ONE)


def test_is_irreducible_matches_trial_division():
    for mask in range(2, 1 << 11):
        p = Poly(mask)
        assert is_irreducible(p) == trial_division_irreducible(p), p


def test_factorize_examples():
    m2 = parse("x^3+x+1")
    pinned = factorize(sigma(m2**8))
    assert [(str(p), m) for p, m in pinned] == [
        ("x^2+x+1", 1),
        ("x^4+x^3+1", 1),
        ("x^6+x+1", 1),
        ("x^12+x^8+x^7+x^4+1", 1),
    ]
    f = factorize(parse("x^6+x^5+x^4+x^3+x^2+x+1"))
    assert tuple(p for p, _ in f) == (parse("x^3+x+1"), parse("x^3+x^2+1"))
    assert factorize(parse("x^4")) == ((X, 4),)
    with pytest.raises(ValueError):
        factorize(Poly(0))


def test_factorize_reconstruction_random():
    rng = random.Random(41)
    for _ in range(1000):
        p = Poly(rng.getrandbits(rng.randrange(2, 130)) | 1)
        if not p or p.degree < 1:
            continue
        fact = factorize(p)
        assert fact.reconstruct() == p
        for q, m in fact:
            assert m >= 1
            assert is_irreducible(q)
            assert rabin_irreducible(q)  # shares no loop with the factorizer
        assert tuple(p for p, _ in fact) == tuple(sorted(p for p, _ in fact))


def sympy_factors(p):
    # sympy's dense GF(2) factorization; shares no code with gf2perfect
    galoistools = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    coeffs = [ZZ(p.mask >> i & 1) for i in range(int(p.degree), -1, -1)]
    _, factors = galoistools.gf_factor(coeffs, 2, ZZ)
    return sorted((Poly(int("".join(str(int(c)) for c in q), 2)), m) for q, m in factors)


def test_factorize_matches_sympy_gf_factor():
    from gf2perfect.mersenne import enumerate_mersenne_primes

    rng = random.Random(53)
    inputs = [Poly(rng.getrandbits(d) | 1 << d) for d in (8, 17, 30, 45, 64, 65, 90, 120)]
    inputs += [inputs[1] ** 3 * inputs[3], inputs[2] ** 2 * X**5 * XP1]  # repeated factors
    primes = enumerate_mersenne_primes(5)
    inputs += [sigma(m.poly ** (2 * h)) for m, h in ((primes[0], 15), (primes[1], 10), (primes[-1], 6), (primes[-1], 12))]
    for p in inputs:
        assert list(factorize(p)) == sympy_factors(p), p


def test_factorize_composed_matches_factorize_of_the_whole():
    from gf2perfect.mersenne import enumerate_mersenne_primes

    # every c(p) is built without substitution: sigma(M^n) through the
    # divisors layer, 1 + M^e directly, c(x+1) with bar
    for m in enumerate_mersenne_primes(6):
        for n in range(1, 61):  # odd n: (z+1)^(2^k - 1) divides c_n when 2^k || n+1
            c = Poly((1 << n + 1) - 1)  # 1 + z + ... + z^n
            assert factorize_composed(c, m.poly) == factorize(sigma(m.poly**n)), (m.poly, n)
        for e in range(1, 41):
            assert factorize_composed(Poly(1 << e | 1), m.poly) == factorize(ONE + m.poly**e), (m.poly, e)
    # the divisors layer's split of each prime power's divisor sum, against
    # factoring its closed form whole
    for p in [X, XP1, *(m.poly for m in enumerate_mersenne_primes(6))]:
        for unitary in (False, True):
            for n in range(1, 41):
                want = factorize(sigma_prime_power(p, n, unitary))
                assert factor_sigma_prime_power(p, n, unitary) == want, (p, n, unitary)
    m1, m2 = parse("x^2+x+1"), parse("x^3+x+1")
    repeated = [X**4 * XP1**7 * m1**3 * m2**2, XP1**8, m1**2 * m2**5, XP1 * X**3 * parse("x^5+x^2+1") ** 4]
    for c in repeated:
        assert factorize_composed(c, X) == factorize(c)
        assert factorize_composed(c, XP1) == factorize(c.bar())
    assert factorize_composed(ONE, m1) == ()
    with pytest.raises(ValueError):
        factorize_composed(Poly(0), m1)


def test_every_prime_of_a_composition_has_degree_divisible_by_the_outer_degree():
    # For q irreducible of degree e and P nonconstant, a root b of a prime
    # r | q(P) makes P(b) a root of q, so GF(2^e) lies in GF(2)(b) = GF(2^deg r)
    # and e | deg r (Lidl & Niederreiter, Finite Fields, ch. 2).  A
    # distinct-degree split of q(P) could then skip every degree e does not
    # divide; here the premise is checked on factorize of q(P) built whole.
    outer = [Poly(mask) for mask in range(2, 1 << 7) if is_irreducible(Poly(mask))]
    cases = 0
    for q in outer:
        for p in map(Poly, range(2, 1 << 7)):
            whole = Poly(0)
            for i in range(int(q.degree), -1, -1):
                whole = whole * p + Poly(q.mask >> i & 1)
            assert all(r.degree % q.degree == 0 for r, _ in factorize(whole)), (q, p)
            cases += 1
    assert (len(outer), cases) == (23, 2898)


def test_factorize_composed_matches_sympy_gf_factor():
    m3, m5, m6 = parse("x^3+x+1"), parse("x^5+x^3+1"), parse("x^6+x^5+1")
    cases = [
        (Poly((1 << 40) - 1), m3),  # sigma(M^39) = (M+1)^7 (M^4+M^3+M^2+M+1)^8
        (Poly((1 << 23) - 1), m5),  # sigma(M^22): two pieces of degree 11 in z
        (Poly((1 << 21) - 1), m6),  # sigma(M^20): pieces of degree 2, 3, 3, 6, 6 in z
        (Poly(1 << 24 | 1), m5),  # sigma*(M^24) = (M+1)^8 (M^2+M+1)^8
        (XP1**3 * parse("x^2+x+1") ** 2 * parse("x^4+x+1"), m6),
    ]
    for c, p in cases:
        whole = Poly(0)
        for i in range(int(c.degree), -1, -1):
            whole = whole * p + Poly(c.mask >> i & 1)
        assert whole.degree <= 120
        assert list(factorize_composed(c, p)) == sympy_factors(whole), (c, p)


def test_distinct_degree_split_rebuilds_its_table_as_f_shrinks(monkeypatch):
    from gf2perfect import factor

    # known irreducibles of degree 3, 40 and 70: the product is above the
    # table cutover, and the loop divides the first two out as it meets them
    p3, p40, p70 = parse("x^3+x+1"), parse("x^40+x^5+x^4+x^3+1"), parse("x^70+x^5+x^3+x+1")
    product = p3 * p40 * p70
    moduli = []

    def reducer(f):
        moduli.append(f)
        return _reducer(f)

    monkeypatch.setattr(factor, "_reducer", reducer)
    assert list(factor._distinct_degree_parts(product)) == [(3, p3), (40, p40), (70, p70)]
    assert moduli == [product.mask, (p40 * p70).mask, p70.mask]  # one table per modulus
    assert factorize(product) == ((p3, 1), (p40, 1), (p70, 1))


def irreducible_masks(d):
    return [mask for mask in range(1 << d, 2 << d) if trial_division_irreducible(Poly(mask))]


def test_equal_degree_split_pair_bound(monkeypatch):
    from gf2perfect import factor

    # two distinct irreducibles of degree d have trace bits that differ
    # within 2d consecutive k, so a pair takes at most 2d candidates
    calls = []

    def counting_gcd(a, b):
        calls.append((a, b))
        return _gcd_mask(a, b)

    monkeypatch.setattr(factor, "_gcd_mask", counting_gcd)
    for d in range(1, 9):
        primes = irreducible_masks(d)
        for i, g in enumerate(primes):
            for h in primes[:i]:  # d = 1 gives the pair x, x+1
                f = _mul_mask(g, h)
                calls.clear()
                assert sorted(factor._equal_degree_split(f, d, f ^ 1 << 2 * d)) == [h, g]
                assert len(calls) <= 2 * d, (d, g, h, len(calls))


def test_equal_degree_split_all_of_one_degree():
    from gf2perfect import factor

    for d in range(1, 9):
        primes = irreducible_masks(d)
        f = 1
        for g in primes:
            f = _mul_mask(f, g)
        top = f.bit_length() - 1
        assert top == d * len(primes)
        assert sorted(factor._equal_degree_split(f, d, f ^ 1 << top)) == primes, d


def test_factoring_makes_no_random_draws(monkeypatch):
    from gf2perfect.factor import _factorize_cached
    from gf2perfect.verify import check_primitivity

    inputs = [X**1024 + X, sigma(parse("x^2+x+1") ** 60)]
    _factorize_cached.cache_clear()
    expected = [factorize(p) for p in inputs], check_primitivity()

    def no_draws(*args, **kwargs):
        raise AssertionError("random draw")

    monkeypatch.setattr(random, "Random", no_draws)
    monkeypatch.setattr(random, "getrandbits", no_draws)
    _factorize_cached.cache_clear()
    assert ([factorize(p) for p in inputs], check_primitivity()) == expected
    assert expected[1].verdict == "pass"


def test_factorize_high_multiplicities():
    p = X**13 * XP1**6 * parse("x^2+x+1") ** 8 * parse("x^3+x+1") ** 3
    fact = factorize(p)
    assert dict(fact) == {
        X: 13,
        XP1: 6,
        parse("x^2+x+1"): 8,
        parse("x^3+x+1"): 3,
    }


def test_factorize_independent_of_cache_and_order():
    from gf2perfect.factor import _factorize_cached

    rng = random.Random(4)
    polys = [Poly(rng.getrandbits(100) | 1) for _ in range(12)]
    _factorize_cached.cache_clear()
    forwards = [factorize(p) for p in polys]
    _factorize_cached.cache_clear()
    backwards = [factorize(p) for p in reversed(polys)][::-1]
    assert forwards == backwards
    assert [factorize(p) for p in polys] == forwards  # served from the cache


def test_omega():
    from gf2perfect.mersenne import catalog

    assert len(factorize(catalog().lookup("T5"))) == 4
    assert len(factorize(parse("x^8"))) == 1
    m1 = parse("x^2+x+1")
    s = ONE + m1 + m1**2
    assert s == parse("x^4+x+1")
    assert trial_division_irreducible(s)  # oracle for the expected count
    assert len(factorize(s)) == 1


def test_is_squarefree():
    m2 = parse("x^3+x+1")
    assert is_squarefree(sigma(m2**4))
    assert not is_squarefree(parse("x^2+1"))
    assert is_squarefree(parse("x^2+x"))
    # agrees with factorization multiplicities
    rng = random.Random(43)
    for _ in range(300):
        p = Poly(rng.getrandbits(40))
        if not p:
            continue
        assert is_squarefree(p) == factorize(p).is_squarefree


def brute_count_irreducibles(m):
    return sum(1 for mask in range(1 << m, 1 << (m + 1)) if trial_division_irreducible(Poly(mask)))


def test_count_irreducibles():
    assert count_irreducibles(4) == 3
    assert count_irreducibles(5) == 6
    assert count_irreducibles(6) == brute_count_irreducibles(6) == 9
    for m in range(1, 11):
        assert count_irreducibles(m) == brute_count_irreducibles(m)
    # root-counting identity
    for m in range(1, 25):
        assert sum(d * count_irreducibles(d) for d in range(1, m + 1) if m % d == 0) == 1 << m
    with pytest.raises(ValueError):
        count_irreducibles(0)


def test_totient_vs_count():
    assert euler_phi(4) == 2
    assert euler_phi(1) == 1
    assert euler_phi(12) == sum(1 for k in range(1, 13) if _coprime(k, 12)) == 4
    for m in range(4, 25):
        assert euler_phi(m) < count_irreducibles(m)


def _coprime(a, b):
    while b:
        a, b = b, a % b
    return a == 1


def brute_force_order(p):
    # direct order oracle: multiply x powers modulo p until hitting 1
    r, order = X, 1
    while r != ONE:
        r = (r * X) % p
        order += 1
    return order


def test_is_primitive():
    assert is_primitive(parse("x^2+x+1"))
    assert is_primitive(parse("x^3+x+1"))
    m3 = parse("x^4+x^3+x^2+x+1")
    assert brute_force_order(m3) == 5
    assert not is_primitive(m3)
    with pytest.raises(ValueError):
        is_primitive(parse("x^2+1"))


def test_is_primitive_matches_the_brute_force_order_through_degree_10():
    irreducibles = [p for p in map(Poly, range(4, 1 << 11)) if is_irreducible(p)]
    assert len(irreducibles) == 224
    verdicts = [is_primitive(p) for p in irreducibles]
    assert verdicts.count(False) == 65
    for p, primitive in zip(irreducibles, verdicts):
        assert primitive == (brute_force_order(p) == (1 << int(p.degree)) - 1), p


def test_primitivity_exhaustive_small_mersenne_degrees():
    for r in (2, 3, 5, 7):
        for mask in range(1 << r, 1 << (r + 1)):
            p = Poly(mask)
            if is_irreducible(p):
                assert is_primitive(p), p


def test_primitivity_degree_cap():
    # degree 89: 2^89-1 would need factoring past the supported range
    p = Poly((1 << 89) | (1 << 38) | 1)
    assert is_irreducible(p)
    with pytest.raises(BudgetError):
        is_primitive(p)


def test_pow_of_x_with_a_modulus():
    m = parse("x^4+x+1")
    assert pow(X, 15, m) == ONE
    assert pow(X, 0, m) == ONE
