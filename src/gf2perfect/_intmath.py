"""Small deterministic integer helpers: primality, factoring, totient.

Everything here is exact and deterministic.  Primality is Miller-Rabin
with a witness set proven complete below 2^64 (larger n is refused), and
Lucas-Lehmer for Mersenne numbers 2^k - 1 of any size; factoring is
trial division with a Pollard-rho (Brent) fallback, adequate for the
64-bit inputs this package needs.
"""

from __future__ import annotations

from math import gcd

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_prime(n: int) -> bool:
    """Deterministic primality test for n below 2^64; raises ValueError above.

    The witness set is proven complete only below 2^64, so a larger n gets
    no verdict rather than an unproven one (2^k - 1 of any size goes to
    is_mersenne_prime_exponent).
    """
    if n >= 1 << 64:
        raise ValueError(f"is_prime is exact only below 2^64, got {n}")
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_mersenne_prime_exponent(k: int) -> bool:
    """True iff 2^k - 1 is prime, exact for every k (Lucas-Lehmer)."""
    if not is_prime(k):  # 2^k - 1 is composite for composite k, and 1 for k = 1
        return False
    if k == 2:
        return True
    m = (1 << k) - 1
    s = 4
    for _ in range(k - 2):
        s = (s * s - 2) % m
    return s == 0


def _pollard_rho(n: int) -> int:
    # Brent's cycle variant with a deterministic parameter schedule; n is odd
    for c in range(1, 64):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed to split {n}")


def factorize_int(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise ValueError("can only factor positive integers")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return out


def prime_factors(n: int) -> list[int]:
    """Sorted distinct prime factors of n >= 1."""
    return sorted(factorize_int(n))


def euler_phi(n: int) -> int:
    """Euler totient via the prime factorization of n."""
    if n < 1:
        raise ValueError("totient is defined for positive integers")
    result = n
    for p in factorize_int(n):
        result -= result // p
    return result

