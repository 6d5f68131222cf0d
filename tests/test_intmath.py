import pytest

from gf2perfect import _intmath
from gf2perfect._intmath import factorize_int, is_mersenne_prime_exponent, is_prime


def test_mersenne_exponent_agrees_with_miller_rabin_below_2_64():
    for k in range(64):
        assert is_mersenne_prime_exponent(k) == is_prime((1 << k) - 1), k


def test_mersenne_exponent_beyond_2_64():
    for k in (61, 89, 107, 127):
        assert is_mersenne_prime_exponent(k)
    assert not is_mersenne_prime_exponent(67)


def test_is_prime_refuses_beyond_its_proven_range():
    # the Miller-Rabin witness set is proven complete only below 2^64
    assert is_prime((1 << 64) - 59)  # the largest prime below 2^64
    assert not is_prime((1 << 64) - 1)
    with pytest.raises(ValueError):
        is_prime((1 << 64) + 13)
    with pytest.raises(ValueError):
        is_prime(1 << 64)


def test_factorize_int_splits_mersenne_numbers_with_rho(monkeypatch):
    # each 2^r - 1 here keeps a composite cofactor past trial division, so
    # only Pollard's rho can split it; sympy shares no code with _intmath
    sympy = pytest.importorskip("sympy")
    rho, calls = _intmath._pollard_rho, []
    monkeypatch.setattr(_intmath, "_pollard_rho", lambda n: calls.append(n) or rho(n))
    for r in (29, 37, 41, 43, 47, 53, 59, 62, 64):
        calls.clear()
        assert factorize_int((1 << r) - 1) == sympy.factorint((1 << r) - 1), r
        assert calls, r
