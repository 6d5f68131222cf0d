"""Microbenchmarks of the mask kernels, one layer below the CLI benchmark.

    PYTHONPATH=src python -m pytest tests/microbench_kernels.py
    PYTHONPATH=src python -m pytest tests/microbench_kernels.py --benchmark-disable   # each once, as a smoke test

The file name is outside the tier-1 `test_*.py` pattern, so the tier-1
suite never collects it.  Inputs come from fixed seeds; every benchmark
also checks its result, so a timing is never of a wrong answer.
"""

import random

import pytest

from gf2perfect.divisors import canonical_class_rep, check
from gf2perfect.factor import _factorize_cached, is_irreducible
from gf2perfect.gf2poly import (
    Poly,
    _bar_mask,
    _gcd_mask,
    _mod_mask,
    _mul_mask,
    _reducer,
    _sqr_mask,
    _sqrt_mask,
)
from gf2perfect.search import _divisor_sum_tables, search_bruteforce, search_structured

DEGREES = (64, 256, 1024)


def random_mask(degree, seed):
    # a random polynomial of exactly this degree
    return random.Random(seed).getrandbits(degree) | 1 << degree


@pytest.mark.parametrize("unitary", [False, True], ids=["sigma", "sigma_star"])
def test_divisor_sum_tables_16(benchmark, unitary):
    table = benchmark(_divisor_sum_tables, 16, unitary)
    assert table[0b111] == 0b110  # sigma(x^2+x+1) = sigma*(x^2+x+1) = x^2+x


@pytest.mark.parametrize("unitary", [False, True], ids=["sigma", "sigma_star"])
def test_divisor_sum_tables_20(benchmark, unitary):
    # the oracle's guard, BRUTEFORCE_MAX_DEGREE
    table = benchmark(_divisor_sum_tables, 20, unitary)
    # sigma(x^20) = 1 + x + ... + x^20, sigma*(x^20) = x^20 + 1
    assert table[1 << 20] == (1 << 20 | 1 if unitary else (1 << 21) - 1)


@pytest.mark.parametrize("mode, count", [("perfect", 12), ("unitary", 15)])
def test_search_bruteforce_18(benchmark, mode, count):
    # the table plus the fixed-point scan, as the oracle-bruteforce workload runs it
    hits = benchmark(search_bruteforce, 18, mode)
    assert len(hits) == count and all(check(p, mode).verdict for p in hits)


@pytest.mark.parametrize("mode, classes", [("perfect", 15), ("unitary", 10)])
def test_search_structured_128(benchmark, mode, classes):
    # the part table plus the scan; every hit is checked, and the count of
    # distinct power-of-two classes pins the classification at this degree
    hits = benchmark(search_structured, 128, mode)
    assert all(check(p, mode).verdict for p in hits)
    assert len({canonical_class_rep(p) if mode == "unitary" else p for p in hits}) == classes


@pytest.mark.parametrize("degree", DEGREES)
def test_sqr_mask(benchmark, degree):
    a = random_mask(degree, degree)
    assert benchmark(_sqr_mask, a) == _mul_mask(a, a)


@pytest.mark.parametrize("degree", DEGREES)
def test_sqrt_mask(benchmark, degree):
    a = random_mask(degree, degree)
    assert benchmark(_sqrt_mask, _sqr_mask(a)) == a


@pytest.mark.parametrize("set_bits", [48, 192], ids=["sparse", "dense"])
def test_mul_mask(benchmark, set_bits):
    # both operands of degree 1024 with this many set bits; the kernel makes
    # one shift-XOR per set bit of the sparser one
    rng = random.Random(set_bits)
    a, b = (sum(1 << i for i in {1024, *rng.sample(range(1024), set_bits - 1)}) for _ in range(2))
    assert benchmark(_mul_mask, a, b) == _mul_mask(b, a)


@pytest.mark.parametrize("degree", DEGREES)
def test_gcd_mask(benchmark, degree):
    common = random_mask(degree // 2, 1)
    a = _mul_mask(common, random_mask(degree // 2, 2))
    b = _mul_mask(common, random_mask(degree // 2 - 1, 3))
    g = benchmark(_gcd_mask, a, b)
    assert _mod_mask(a, g) == _mod_mask(b, g) == 0 and _mod_mask(g, common) == 0


@pytest.mark.parametrize("degree", DEGREES)
def test_bar_mask(benchmark, degree):
    # x -> x+1 is an involution, and the image's constant term is a(1)
    a = random_mask(degree, degree)
    image = benchmark(_bar_mask, a)
    assert _bar_mask(image) == a and image & 1 == a.bit_count() & 1


@pytest.mark.parametrize("degree", DEGREES)
def test_reducer(benchmark, degree):
    # one squaring's worth of reduction, as the factoring loops do it
    f = random_mask(degree, degree)
    reduce, key = _reducer(f)
    a = _sqr_mask(random_mask(degree - 1, degree + 1))
    assert benchmark(reduce, a, key) == _mod_mask(a, f)


@pytest.mark.parametrize("degree, taps", [(64, (4, 3, 1)), (256, (10, 5, 2)), (1024, (19, 6, 1))])
def test_is_irreducible(benchmark, degree, taps):
    # an irreducible pentanomial x^degree + x^a + x^b + x^c + 1, so Ben-Or's
    # loop runs to degree/2 (no irreducible trinomial has degree 8k)
    p = Poly(1 << degree | sum(1 << t for t in taps) | 1)
    assert benchmark(is_irreducible, p)


def test_factorize_x1024_plus_x(benchmark):
    # x^1024 + x is the product of every irreducible whose degree divides 10;
    # the degree-10 part (99 primes) runs the equal-degree split.  The
    # uncached function, so every round does the work
    fact = benchmark(_factorize_cached.__wrapped__, 1 << 1024 | 2)
    degrees = [int(p.degree) for p, m in fact if m == 1]
    assert len(degrees) == len(fact) == 108 and degrees.count(10) == 99 and sum(degrees) == 1024
