import random
import time

import pytest

from gf2perfect import gf2poly
from gf2perfect.gf2poly import (
    NEG_INFINITY,
    ONE,
    PARSE_DEGREE_CAP,
    X,
    XP1,
    ZERO,
    _REDUCE_TABLE_CUTOVER,
    BudgetError,
    Poly,
    _bar_mask,
    _gcd_mask,
    _mod_mask,
    _mod_table,
    _mul_mask,
    _reducer,
    _reduction_table,
    _sqr_mask,
    _sqrt_mask,
    gcd,
    parse,
)
from oracles import gcd_reference


def rand_poly(rng, max_degree):
    return Poly(rng.getrandbits(max_degree + 1))


def mul_reference(p, q):
    # independent quadratic oracle: shift-and-xor over explicit exponents
    acc = 0
    for i in range(int(p.degree) + 1 if p else 0):
        if p.mask >> i & 1:
            acc ^= q.mask << i
    return Poly(acc)


def test_add_examples():
    m1 = parse("x^2+x+1")
    assert m1 + m1 == ZERO  # self-inverse in characteristic 2
    assert parse("x^3+x+1") + parse("x^3+x^2+1") == parse("x^2+x")
    p = parse("x^5+x^2+1")
    assert p + ZERO == p


def test_degree_laws():
    assert ZERO.degree == NEG_INFINITY
    assert ONE.degree == 0
    assert ZERO != ONE
    assert (X * XP1).degree == 2
    rng = random.Random(7)
    for _ in range(200):
        p, q = rand_poly(rng, 60), rand_poly(rng, 60)
        assert (p + q).degree <= max(p.degree, q.degree)
        if p and q:
            assert (p * q).degree == p.degree + q.degree


def test_mul_examples():
    assert parse("x^3+x+1") * parse("x^3+x^2+1") == parse("x^6+x^5+x^4+x^3+x^2+x+1")
    assert X * XP1 == parse("x^2+x")
    cube = XP1 * XP1 * XP1  # repeated-multiplication oracle
    assert XP1**3 == cube == parse("x^3+x^2+x+1")


def test_mul_kernels_agree():
    rng = random.Random(2024)
    for _ in range(10_000):
        a = rng.getrandbits(rng.randrange(1, 160))
        b = rng.getrandbits(rng.randrange(1, 160))
        assert _mul_mask(a, b) == mul_reference(Poly(a), Poly(b)).mask
    for _ in range(50):  # dense operands, about a thousand set bits each
        a, b = rng.getrandbits(2000), rng.getrandbits(2500)
        assert Poly(a) * Poly(b) == mul_reference(Poly(a), Poly(b))


def test_ring_axioms():
    rng = random.Random(11)
    for _ in range(200):
        p, q, r = (rand_poly(rng, 512) for _ in range(3))
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)


def test_div_rem_examples():
    q, r = divmod(parse("x^2+x"), X)
    assert (q, r) == (XP1, ZERO)
    p, d = parse("x^4+x^3+x^2+x+1"), parse("x^2+x+1")
    q, r = divmod(p, d)
    assert q * d + r == p and r.degree < d.degree
    assert divmod(p, ONE) == (p, ZERO)


def test_div_rem_reconstruction():
    rng = random.Random(3)
    for _ in range(500):
        p = rand_poly(rng, 200)
        d = rand_poly(rng, 90)
        if not d:
            continue
        q, r = divmod(p, d)
        assert q * d + r == p
        assert not r or r.degree < d.degree


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        divmod(X, ZERO)
    with pytest.raises(ZeroDivisionError):
        X % ZERO


def test_gcd():
    assert gcd(parse("x^2+x"), X) == X
    m2 = parse("x^3+x+1")
    assert gcd(m2, m2.bar()) == ONE
    p = parse("x^7+x^2+1")
    assert gcd(p, ZERO) == p
    with pytest.raises(ValueError):
        gcd(ZERO, ZERO)
    rng = random.Random(5)
    for _ in range(200):
        a, b = rand_poly(rng, 64), rand_poly(rng, 64)
        if not a and not b:
            continue
        g = gcd(a, b)
        if a:
            assert g.divides(a)
        if b:
            assert g.divides(b)


def test_reducer_matches_mod_mask():
    # every modulus degree 0..1100, so both sides of the table cutover; the
    # table kernel is also checked below the cutover, where _reducer skips it
    rng = random.Random(17)
    for n in range(1101):
        f = 1 << n | rng.getrandbits(n)
        reduce, key = _reducer(f)
        assert (reduce is _mod_mask) == (n < _REDUCE_TABLE_CUTOVER)
        table = _reduction_table(f)
        assert [m >> n for m in table] == list(range(256))  # indexed by bits n..n+7
        for bits in {0, 1, n, n + 1, n + 7, n + 8, n + 9, 2 * n + 8}:
            a = rng.getrandbits(bits) | (1 << bits >> 1)  # exactly `bits` bits long
            assert reduce(a, key) == _mod_table(a, table) == _mod_mask(a, f), (n, bits)


def test_gcd_kernel_matches_reference_euclid():
    rng = random.Random(19)
    for _ in range(2000):
        a = rng.getrandbits(rng.randrange(0, 300))
        b = rng.getrandbits(rng.randrange(0, 300))
        if a or b:
            assert _gcd_mask(a, b) == _gcd_mask(b, a) == gcd_reference(a, b), (a, b)
    for _ in range(100):  # up to degree 1000, equal lengths among them
        a = rng.getrandbits(rng.randrange(1, 1001))
        b = rng.getrandbits(rng.choice((a.bit_length(), rng.randrange(1, 1001))))
        if a or b:
            assert _gcd_mask(a, b) == _gcd_mask(b, a) == gcd_reference(a, b), (a, b)
    for _ in range(100):  # one operand divides the other: the gcd is that operand
        d = rng.getrandbits(rng.randrange(1, 500)) | 1
        a = _mul_mask(d, rng.getrandbits(rng.randrange(1, 500)) | 1)
        assert _gcd_mask(a, d) == _gcd_mask(d, a) == gcd_reference(a, d) == d, (a, d)
        assert _gcd_mask(d, d) == d
    common = parse("x^7+x^3+1").mask
    for _ in range(200):  # a shared factor, so the gcd is not 1
        a = _mul_mask(common, rng.getrandbits(rng.randrange(1, 120)) | 1)
        b = _mul_mask(common, rng.getrandbits(rng.randrange(1, 120)) | 1)
        assert _gcd_mask(a, b) == gcd_reference(a, b)
        assert _mod_mask(_gcd_mask(a, b), common) == 0
    for a in (1, 2, 0b1011, 1 << 500 | 1):
        assert _gcd_mask(a, 0) == _gcd_mask(0, a) == a


def test_pow():
    assert XP1**2 == parse("x^2+1")
    assert parse("x^2+x+1") ** 2 == parse("x^4+x^2+1")
    p = parse("x^5+x+1")
    assert p**1 == p
    assert p**0 == ONE


def pow_reference(p, n):
    # square-and-multiply through Poly's product, not __pow__
    result, base = ONE, p
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


def test_pow_of_monomials():
    for k in range(71):
        xk = Poly(1 << k)
        for n in range(301):
            assert xk**n == pow_reference(xk, n), (k, n)
    for mask in range(1 << 9):  # p**0 == 1 for every p, 0 included
        assert Poly(mask) ** 0 == ONE
    assert ZERO**5 == ZERO
    for mask in (0b110, 0b1011, 0b10001):  # not monomials: the loop path
        assert Poly(mask) ** 13 == pow_reference(Poly(mask), 13)



def test_pow_with_a_modulus_is_the_reduced_power():
    rng = random.Random(37)
    for _ in range(300):
        p, m, n = rand_poly(rng, 40), rand_poly(rng, 20), rng.randrange(70)
        if m:
            assert pow(p, n, m) == (p**n) % m, (p, n, m)
    m = parse("x^4+x+1")
    assert pow(X, 0, m) == ONE % m == ONE and pow(ZERO, 0, m) == ONE
    for p in (ZERO, ONE, X, m):
        assert pow(p, 0, ONE) == pow(p, 5, ONE) == ZERO  # everything is 0 mod 1
    for n in (0, 3):
        with pytest.raises(ZeroDivisionError):
            pow(X, n, ZERO)
    with pytest.raises(ValueError, match="exponent must be a nonnegative integer"):
        pow(X, -1, m)


def test_pow_with_a_modulus_multiplies_reduced_operands(monkeypatch):
    # reducing the base is what keeps pow(p, n, m) small: an unreduced
    # square doubles its degree each step, so the kernels must only ever
    # see operands of degree below deg m
    m = parse("x^7+x+1")
    p, n = parse("x^40+x^9+x^3+1"), (1 << 10) - 1  # deg p > deg m: its first use is reduced too
    expected = (p**n) % m
    kernels = {name: getattr(gf2poly, name) for name in ("_mul_mask", "_sqr_mask")}

    def spy(name):
        def kernel(*operands):
            assert max(operands).bit_length() < m.mask.bit_length(), (name, operands)
            return kernels[name](*operands)

        return kernel

    for name in kernels:
        monkeypatch.setattr(gf2poly, name, spy(name))
    assert pow(p, n, m) == expected

def test_frobenius_spread():
    rng = random.Random(13)
    for _ in range(300):
        p = rand_poly(rng, 256)
        assert p**2 == p * p
        if p:
            assert (p**2).mask == sum(1 << (2 * i) for i in range(int(p.degree) + 1) if p.mask >> i & 1)


def test_sqr_sqrt_base_conversions():
    # the base-4 readings against the product itself, up to 4096 bits
    rng = random.Random(31)
    masks = [0, 1, 2, 3] + [rng.getrandbits(rng.randrange(1, 4097)) for _ in range(300)]
    for a in masks:
        assert _sqr_mask(a) == _mul_mask(a, a)
        assert _sqrt_mask(_sqr_mask(a)) == a


def test_bar():
    assert parse("x^3+x+1").bar() == parse("x^3+x^2+1")
    assert parse("x^2+x+1").bar() == parse("x^2+x+1")
    # substitute-and-expand oracle for bar(x^4+x^3+x^2+x+1)
    expected = XP1**4 + XP1**3 + XP1**2 + XP1 + ONE
    assert parse("x^4+x^3+x^2+x+1").bar() == expected == parse("x^4+x^3+1")
    rng = random.Random(17)
    for _ in range(300):
        p, q = rand_poly(rng, 120), rand_poly(rng, 120)
        assert (p * q).bar() == p.bar() * q.bar()
        assert p.bar().bar() == p
        assert (p + q).bar() == p.bar() + q.bar()


def bar_reference(a):
    # substitute x -> x+1 one coefficient at a time, accumulating the
    # successive powers of x+1
    out = 0
    power = 1
    while a:
        if a & 1:
            out ^= power
        a >>= 1
        power ^= power << 1
    return out


def test_bar_kernel_matches_the_per_coefficient_substitution():
    for a in range(1 << 12):  # every mask of degree below 12
        assert _bar_mask(a) == bar_reference(a), a
    rng = random.Random(41)
    widths = [1 << k for k in range(13)] + [(1 << k) + 1 for k in range(13)] + [rng.randrange(1, 4098) for _ in range(100)]
    for width in widths:  # up to degree 4096, at and just past each power of two
        a = rng.getrandbits(width) | 1 << (width - 1)
        assert _bar_mask(a) == bar_reference(a), width
        assert _bar_mask(_bar_mask(a)) == a


def test_valuation():
    assert parse("x^2+x").valuation(X) == 1
    t1 = parse("x^2") * XP1 * parse("x^2+x+1")
    assert t1.valuation(X) == 2
    assert parse("x^4+x^3+x^2+x+1").valuation(XP1) == 0
    with pytest.raises(ValueError):
        ZERO.valuation(X)
    with pytest.raises(ValueError):
        X.valuation(parse("x^2+x+1"))
    rng = random.Random(19)
    # random p, then p (x+1)^k and p x^k up to degree 600: at x+1 the
    # valuation reads the x -> x+1 image, so high multiplicities test it
    samples = [rand_poly(rng, 40) for _ in range(100)]
    samples += [rand_poly(rng, rng.randrange(500)) * at ** rng.randrange(100) for at in (X, XP1) for _ in range(60)]
    for p in samples:
        if not p:
            continue
        for at in (X, XP1):
            e = p.valuation(at)
            # cross-check against repeated division
            q, count = p, 0
            while True:
                qq, r = divmod(q, at)
                if r:
                    break
                q, count = qq, count + 1
            assert e == count


def test_alpha():
    rng = random.Random(23)
    for _ in range(100):
        p = rand_poly(rng, 50)
        if not p:
            continue
        assert p.alpha(0) == 1
        # oracle: read exponents off the formatted string
        text = str(p)
        exps = set()
        for term in text.split("+"):
            if term == "1":
                exps.add(0)
            elif term == "x":
                exps.add(1)
            else:
                exps.add(int(term[2:]))
        d = int(p.degree)
        for l in range(d + 1):
            assert p.alpha(l) == (1 if d - l in exps else 0)
    assert parse("x^3+x+1").alpha(1) == 0
    with pytest.raises(ValueError):
        parse("x^3").alpha(4)


def test_is_square_sqrt():
    assert parse("x^2+1").is_square()
    assert parse("x^2+1").sqrt() == XP1
    assert not parse("x^3+x+1").is_square()
    with pytest.raises(ValueError):
        parse("x^3+x+1").sqrt()
    rng = random.Random(29)
    for _ in range(200):
        p = rand_poly(rng, 100)
        if not p:
            continue
        sq = p * p
        assert sq.is_square()
        assert sq.sqrt() == p


def test_parse_format_round_trip():
    assert parse("x^2+x+1") == Poly(0b111)
    assert parse("0xB") == parse("x^3+x+1")
    assert parse("0x13") == parse("x^4+x+1")
    assert parse("x^2(x+1)^3") == parse("x^2") * XP1**3
    assert parse("x^2 * (x+1) * (x^2+x+1)") == parse("x^5+x^2")
    assert parse("x+1 ") == XP1  # trailing whitespace ends the tokens
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    rng = random.Random(31)
    for _ in range(300):
        p = rand_poly(rng, 80)
        assert parse(str(p)) == p


def test_parse_errors():
    deep = ["(" * n + "x" + ")" * n for n in (101, 10_000)]  # nesting cap is 100
    for bad in ("", "  ", "x^", "2x", "x+", "y", "(x+1", "x^2++1", "x^-1", *deep):
        with pytest.raises(ValueError):
            parse(bad)
    with pytest.raises(ValueError, match="trailing input in polynomial expression"):
        parse("x)")
    assert parse("(" * 100 + "x" + ")" * 100) == X
    # digits are ASCII 0-9 only: Arabic-Indic twelve, and a long run of
    # Arabic-Indic zeros before an ASCII 3, are refused as characters
    for bad in ("x^\u0661\u0662", "x^" + "\u0660" * 6 + "3", "x+\u0661"):
        with pytest.raises(ValueError, match="unexpected character"):
            parse(bad)


def test_parse_degree_cap():
    assert PARSE_DEGREE_CAP == 1 << 16
    too_big = ["x^2000000", "(x+1)^70000", "x^40000*x^40000", "x^40000 x^40000", "0x" + "f" * 16400, "x^" + "9" * 5000]
    for text in too_big:
        start = time.perf_counter()
        with pytest.raises(BudgetError):
            parse(text)
        assert time.perf_counter() - start < 1.0
    assert parse("x^65536") == Poly(1 << PARSE_DEGREE_CAP)
    assert parse("x^32768*x^32768") == Poly(1 << PARSE_DEGREE_CAP)
    assert parse("0^99999999999") == ZERO
    assert parse("1^99999999999") == ONE
    assert parse("0^" + "9" * 5000) == ZERO and parse("1^" + "9" * 5000) == ONE
    assert parse("0^" + "0" * 5000) == ONE and parse("x^" + "0" * 5000 + "3") == X**3
    assert parse("0*x^40000*x^40000") == ZERO


def test_poly_immutable_and_hashable():
    p = parse("x^3+x")
    with pytest.raises(AttributeError):
        p.mask = 5
    assert p.mask == 0b1010
    assert len({p, parse("x^3+x"), X}) == 2


def test_comparisons_order_by_mask():
    # Poly defines only < and <=: a > b and a >= b fall back to b < a and b <= a
    for a in map(Poly, range(16)):
        for b in map(Poly, range(16)):
            got = (a < b, a <= b, a > b, a >= b)
            assert got == (a.mask < b.mask, a.mask <= b.mask, a.mask > b.mask, a.mask >= b.mask)
    assert max(X, XP1, ONE) == XP1 and sorted([XP1, ONE, X]) == [ONE, X, XP1]
