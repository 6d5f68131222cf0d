import random

import pytest

from gf2perfect import divisors
from gf2perfect.divisors import (
    canonical_class_rep,
    check,
    exact_power,
    factor_sigma_prime_power,
    is_indecomposable,
    sigma,
    sigma_prime_power,
    sigma_star,
)
from gf2perfect.factor import factorize, is_irreducible
from gf2perfect.gf2poly import ONE, X, XP1, BudgetError, Poly, gcd, parse
from gf2perfect.mersenne import catalog, enumerate_mersenne_primes
from oracles import _sigma_prime_power_naive, is_even_poly, sigma_oracle, sigma_star_oracle

CAT = catalog()


def test_sigma_examples():
    assert sigma(parse("x^2")) == CAT.lookup("M1")
    assert sigma(parse("x^4")) == CAT.lookup("M3")
    assert sigma(ONE) == ONE
    with pytest.raises(ValueError):
        sigma(Poly(0))


def test_sigma_closed_form_vs_horner():
    rng = random.Random(47)
    primes = [p for p in (Poly(m) for m in range(2, 200)) if is_irreducible(p)]
    for _ in range(100):
        p = rng.choice(primes)
        n = rng.randrange(1, 9)
        assert sigma_prime_power(p, n) == _sigma_prime_power_naive(p, n)


def test_split_of_a_conjugate_is_the_conjugate_of_the_split():
    # x -> x+1 (bar) is a degree-preserving ring automorphism, so it maps
    # primes to primes and sigma(bar(M)^n) = bar(sigma(M^n)), in both modes:
    # a split of a Mersenne prime's twin could be read off its partner's
    primes = enumerate_mersenne_primes(7)
    cases = 0
    for m in primes:
        for n in range(41):
            for unitary in (False, True):
                mapped = sorted((p.bar(), e) for p, e in factor_sigma_prime_power(m.poly, n, unitary))
                assert factor_sigma_prime_power(m.poly.bar(), n, unitary) == tuple(mapped), (m, n, unitary)
                cases += 1
    assert (len(primes), cases) == (13, 1066)


@pytest.mark.parametrize("unitary", [False, True])
def test_prime_power_sum_is_its_split_from_exponent_0(unitary):
    # prime^0 = 1 has the one divisor 1, so sigma and sigma* of it are 1 and
    # its split is empty; a negative exponent is refused, naming it
    for p in (X, XP1, parse("x^2+x+1"), parse("x^3+x+1")):
        for n in range(9):
            assert sigma_prime_power(p, n, unitary) == factor_sigma_prime_power(p, n, unitary).reconstruct()
        assert sigma_prime_power(p, 0, unitary) == ONE
        for fn in (sigma_prime_power, factor_sigma_prime_power):
            with pytest.raises(ValueError, match="-1"):
                fn(p, -1, unitary)


def test_sigma_star_examples():
    # 1+x^3 expanded and factored by oracle
    assert sigma_star(parse("x^3")) == XP1 * CAT.lookup("M1") == parse("x^3+1")
    m2 = CAT.lookup("M2")
    assert sigma_star(m2**3) == (ONE + m2) * CAT.lookup("M1") * CAT.lookup("M3b")
    for p in (CAT.lookup("M1"), CAT.lookup("M3"), parse("x^5+x^2+1")):
        assert sigma_star(p) == ONE + p


def test_multiplicativity_random_coprime():
    rng = random.Random(53)
    done = 0
    while done < 120:
        a = Poly(rng.getrandbits(64) | 1)
        b = Poly(rng.getrandbits(64) | 1)
        if not a or not b or a.degree < 1 or b.degree < 1:
            continue
        if gcd(a, b) != ONE:
            continue
        assert sigma(a * b) == sigma(a) * sigma(b)
        assert sigma_star(a * b) == sigma_star(a) * sigma_star(b)
        done += 1


def test_oracle_agreement_exhaustive_small():
    for mask in range(1, 1 << 9):
        a = Poly(mask)
        assert sigma(a) == sigma_oracle(a)
        assert sigma_star(a) == sigma_star_oracle(a)


def test_oracle_agreement_random_within_guard():
    rng = random.Random(59)
    for _ in range(200):
        a = Poly(rng.getrandbits(rng.randrange(10, 25)) | 1)
        if not a:
            continue
        assert sigma(a) == sigma_oracle(a)
        assert sigma_star(a) == sigma_star_oracle(a)


def test_oracle_guard():
    with pytest.raises(BudgetError):
        sigma_oracle(Poly(1 << 25))
    with pytest.raises(BudgetError):
        sigma_star_oracle(Poly(1 << 25))


def test_unitary_differs_from_sigma():
    x2 = parse("x^2")
    assert sigma_star_oracle(x2) == ONE + x2 != sigma(x2)


def test_sigma_oracle_on_perfect_fixture():
    t3 = CAT.lookup("T3")
    assert sigma_oracle(t3) == t3


def test_exact_power_examples():
    s1 = CAT.lookup("S1")
    assert exact_power(X, s1) == 13
    assert exact_power(X, sigma(s1)) == 7
    assert exact_power(XP1, parse("x^3")) == 0
    with pytest.raises(ValueError):
        exact_power(parse("x^2+1"), s1)


def test_lemma_2_12_identity():
    # sigma*(S^(2^n * u)) = (1+S)^(2^n) * sigma(S^(u-1))^(2^n), S irreducible
    rng = random.Random(61)
    primes = [p for p in (Poly(m) for m in range(2, 400)) if is_irreducible(p)]
    for _ in range(60):
        s = rng.choice(primes)
        n = rng.randrange(0, 4)
        u = rng.choice((1, 3, 5, 7, 9))
        lhs = sigma_star(s ** ((1 << n) * u))
        rhs = (ONE + s) ** (1 << n) * sigma(s ** (u - 1)) ** (1 << n)
        assert lhs == rhs


def test_perfection_reports():
    t8 = CAT.lookup("T8")
    assert check(t8, "perfect").verdict
    trivial = (X * XP1) ** 15
    assert check(trivial, "perfect").verdict
    r = check(CAT.lookup("S1"), "perfect")
    assert not r.verdict
    assert r.witness == (X, 13, 7)


def test_unitary_perfection_reports():
    assert check(CAT.lookup("B1"), "unitary").verdict
    r = check(CAT.lookup("S2"), "unitary")
    assert not r.verdict
    assert r.witness == (X, 14, 10)
    assert check(CAT.lookup("B7") ** 2, "unitary").verdict


@pytest.mark.parametrize("a", [Poly(0), ONE])
def test_check_refuses_constants(a):
    # sigma*(1) = 1 would make 1 unitary perfect, against the paper's lemma
    # that every unitary perfect polynomial is even
    for mode in ("perfect", "unitary"):
        with pytest.raises(ValueError, match="nonconstant"):
            check(a, mode)


def test_witness_invariant():
    # verdict false => the witness powers match the subject and its sum
    rng = random.Random(67)
    for mode in ("perfect", "unitary"):
        checked = 0
        while checked < 40:
            a = Poly(rng.getrandbits(20) | 1)
            if not a or a.degree < 1:
                continue
            rep = check(a, mode)
            if rep.verdict:
                continue
            prime, m1, m2 = rep.witness
            total = sigma(a) if mode == "perfect" else sigma_star(a)
            assert m1 != m2
            assert exact_power(prime, a) == m1
            assert exact_power(prime, total) == m2
            checked += 1


def test_divisor_sum_tables():
    m1, m2, m2b = CAT.lookup("M1"), CAT.lookup("M2"), CAT.lookup("M2b")
    m3, m3b = CAT.lookup("M3"), CAT.lookup("M3b")
    for n in range(3):
        e = 1 << n
        assert sigma(X ** (3 * e - 1)) == XP1 ** (e - 1) * m1**e
        assert sigma(X ** (5 * e - 1)) == XP1 ** (e - 1) * m3**e
        assert sigma(X ** (7 * e - 1)) == XP1 ** (e - 1) * m2**e * m2b**e
        assert sigma(XP1 ** (3 * e - 1)) == X ** (e - 1) * m1**e
        assert sigma(XP1 ** (5 * e - 1)) == X ** (e - 1) * m3b**e
        assert sigma_star(X ** (3 * e)) == XP1**e * m1**e
        assert sigma_star(m2 ** (3 * e)) == (ONE + m2) ** e * m1**e * m3b**e


def test_lemma_2_6_instances():
    m2, m2b = CAT.lookup("M2"), CAT.lookup("M2b")
    assert sigma(m2**2) == CAT.lookup("M1") * CAT.lookup("M3b")
    assert sigma(m2b**2) == CAT.lookup("M1") * CAT.lookup("M3")


def test_is_even_poly():
    assert is_even_poly(parse("x^2+x"))
    assert not is_even_poly(CAT.lookup("M3"))
    assert is_even_poly(CAT.lookup("T6"))
    with pytest.raises(ValueError):
        is_even_poly(Poly(0))


def test_is_indecomposable():
    assert is_indecomposable(CAT.lookup("T1"), "perfect")
    assert is_indecomposable(CAT.lookup("B3"), "unitary")
    # definitional oracle on T1: check all nontrivial coprime splits by hand
    t1 = CAT.lookup("T1")
    parts = [p**m for p, m in factorize(t1)]
    for bits in range(1, 1 << len(parts)):
        if bits == (1 << len(parts)) - 1:
            continue
        u = ONE
        for i, part in enumerate(parts):
            if bits >> i & 1:
                u = u * part
        v = t1 // u
        assert not (sigma(u) == u and sigma(v) == v)
    with pytest.raises(ValueError):
        is_indecomposable(CAT.lookup("S1"), "perfect")


def test_is_indecomposable_finds_a_perfect_split(monkeypatch):
    # negative control: no known input splits, so a split test that never
    # fired would pass every real case.  Under a sigma that fixes each prime
    # power of T1 = x^2 (x+1) M1, T1 still checks perfect, and every coprime
    # part of it looks perfect too
    fixed = {(X, 2): X**2, (XP1, 1): XP1, (CAT.lookup("M1"), 1): CAT.lookup("M1")}
    monkeypatch.setattr(divisors, "sigma_prime_power", lambda p, n, unitary=False: fixed[p, n])
    t1 = CAT.lookup("T1")
    assert check(t1, "perfect").verdict
    assert not is_indecomposable(t1, "perfect")


def test_canonical_class_rep():
    b1 = CAT.lookup("B1")
    assert canonical_class_rep(b1**4) == canonical_class_rep(b1)
    # conjugates fold to the same representative, normalized to
    # val_x <= val_{x+1}
    b3 = CAT.lookup("B3")
    rep = canonical_class_rep(b3)
    assert rep == canonical_class_rep(b3.bar()) == canonical_class_rep(b3**2)
    assert rep.valuation(X) <= rep.valuation(XP1)
    with pytest.raises(ValueError):
        canonical_class_rep(ONE)
