from gf2perfect._intmath import is_mersenne_prime_exponent, is_prime


def test_mersenne_exponent_agrees_with_miller_rabin_below_2_64():
    for k in range(64):
        assert is_mersenne_prime_exponent(k) == is_prime((1 << k) - 1), k


def test_mersenne_exponent_beyond_2_64():
    for k in (61, 89, 107, 127):
        assert is_mersenne_prime_exponent(k)
    assert not is_mersenne_prime_exponent(67)
