import pytest

from gf2perfect._intmath import is_mersenne_prime_exponent, is_prime


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
