"""Divisor sums, perfection predicates and the power-of-two equivalence.

sigma(A) is the sum of all divisors of A (including 1 and A) and
sigma_star(A) the sum of the unitary divisors d, those with
gcd(d, A/d) = 1.  Both are multiplicative, so they are computed from the
factorization one prime power at a time; sigma_prime_power and
factor_sigma_prime_power, here only, form and split each such sum.
"""

from __future__ import annotations

from typing import NamedTuple

from .factor import Factorization, factorize, factorize_composed, is_irreducible
from .gf2poly import ONE, X, BudgetError, Poly

#: is_indecomposable enumerates 2^omega coprime splits; cap omega here.
INDECOMPOSABLE_OMEGA_CAP = 20


#: check's modes: sigma(A) = A and sigma*(A) = A
MODES = ("perfect", "unitary")


class PerfectionReport(NamedTuple):
    """Verdict of check's sigma(A) = A (or sigma*(A) = A) test of A.

    When the verdict is false, witness holds (prime, m1, m2) with
    prime^m1 exactly dividing A, prime^m2 exactly dividing the divisor
    sum, and m1 != m2.
    """

    verdict: bool
    witness: tuple[Poly, int, int] | None = None


def is_unitary(mode: str) -> bool:
    """True for mode 'unitary' and False for 'perfect'; any other mode is refused."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    return mode == "unitary"


def sigma_prime_power(prime: Poly, n: int, unitary: bool = False) -> Poly:
    """sigma(prime^n), or sigma*(prime^n) = prime^n + 1 when unitary; n >= 0.

    prime^0 = 1 has the one divisor 1, so n = 0 gives 1 in both modes.
    """
    if n < 0:
        raise ValueError(f"prime power exponent must be nonnegative, got {n}")
    if unitary:
        return prime**n + ONE if n else ONE
    # 1 + P + ... + P^n as (P^(n+1) + 1) / (P + 1); exact by construction
    q, r = divmod(prime ** (n + 1) + ONE, prime + ONE)
    assert not r
    return q


def factor_sigma_prime_power(prime: Poly, n: int, unitary: bool = False) -> Factorization:
    """factorize(sigma_prime_power(prime, n, unitary)) for an irreducible prime, as
    c(prime) with c = 1 + z + ... + z^n, or z^n + 1 when unitary (factorize_composed).
    Both c are 1 at n = 0, whose split is empty."""
    if n < 0:
        raise ValueError(f"prime power exponent must be nonnegative, got {n}")
    c = Poly(1 << n | 1) if unitary else Poly((2 << n) - 1)
    return factorize_composed(c, prime)


def sigma_of_factored(fact: Factorization, unitary: bool = False) -> Poly:
    """sigma (or sigma*) of the polynomial whose complete factorization is fact."""
    out = ONE
    for prime, n in fact:
        out = out * sigma_prime_power(prime, n, unitary)
    return out


def sigma(a: Poly) -> Poly:
    """Sum of all divisors of a nonzero polynomial."""
    if not a:
        raise ValueError("sigma is undefined for the zero polynomial")
    return sigma_of_factored(factorize(a))


def sigma_star(a: Poly) -> Poly:
    """Sum of the unitary divisors: product of 1 + P^n over P^n || a."""
    if not a:
        raise ValueError("sigma* is undefined for the zero polynomial")
    return sigma_of_factored(factorize(a), unitary=True)


def exact_power(prime: Poly, s: Poly) -> int:
    """The m with prime^m dividing s but prime^(m+1) not dividing s."""
    if not is_irreducible(prime):
        raise ValueError("exact powers are taken at irreducible polynomials")
    if not s:
        raise ValueError("exact power is undefined for the zero polynomial")
    m = 0
    while True:
        q, r = divmod(s, prime)
        if r:
            return m
        s = q
        m += 1


def _witness(subject: Poly, divisor_sum: Poly):
    # first prime (in mask order) whose exact powers in subject and in the
    # divisor sum disagree; one exists whenever the two differ
    fs, fd = dict(factorize(subject)), dict(factorize(divisor_sum))
    for p in sorted(fs.keys() | fd.keys()):
        m1, m2 = fs.get(p, 0), fd.get(p, 0)
        if m1 != m2:
            return p, m1, m2


def check(a: Poly, mode: str) -> PerfectionReport:
    """Test sigma(a) = a (mode 'perfect') or sigma*(a) = a (mode 'unitary'),
    with a disagreeing prime-power pair on failure; a must be nonconstant."""
    unitary = is_unitary(mode)
    if not a or a.degree < 1:
        raise ValueError("perfection is defined for nonconstant polynomials")
    s = sigma_of_factored(factorize(a), unitary)
    if s == a:
        return PerfectionReport(True)
    return PerfectionReport(False, _witness(a, s))


def is_indecomposable(a: Poly, mode: str = "perfect") -> bool:
    """True iff a is not a product of two coprime nonconstant polynomials
    that are both perfect (or both unitary perfect, per mode).

    Searches all coprime splits obtained by grouping prime powers.

    Every search hit gives True.  A (unitary) perfect A is divisible by x
    iff by x+1, so a coprime split into two nonconstant (unitary) perfect
    parts has one part coprime to x(x+1).  Perfect: if x | A but not x+1,
    then A(1) = 1 and sigma(A)(1) = (a+1) prod (h+1) forces a and every
    odd prime's h even, so sigma(A)(0) = prod (h+1) = 1 != A(0); the
    converse is the image under x -> x+1.  Unitary (the paper's lemma
    that unitary perfects are even): a prime P != x of A gives sigma*(A)
    the factor 1 + P^h, which vanishes at 0, and x gives 1 + x^a, which
    vanishes at 1, so x(x+1) | A, as A is nonconstant (check refuses the
    constants, which sigma* would fix vacuously).  So a unitary split is
    impossible, and a perfect one needs an odd perfect polynomial, of
    which none is known and the brute-force search finds none.  The
    splits are still tried: they are the check.
    """
    if not check(a, mode).verdict:
        raise ValueError(f"input is not {mode} so indecomposability does not apply")
    unitary = mode == "unitary"
    fact = factorize(a)
    k = len(fact)
    if k > INDECOMPOSABLE_OMEGA_CAP:
        raise BudgetError(f"coprime-split search capped at {INDECOMPOSABLE_OMEGA_CAP} primes")
    parts = [(p**m, sigma_prime_power(p, m, unitary)) for p, m in fact]
    for bits in range(1, 1 << (k - 1) if k else 0):
        # a = sigma(a) = sigma(u) sigma(a/u) for the coprime split a = u (a/u),
        # so sigma(u) = u forces sigma(a/u) = a/u: one comparison decides
        u = su = ONE
        for i in range(k):
            if bits >> i & 1:
                u = u * parts[i][0]
                su = su * parts[i][1]
        if su == u:
            return False
    return True


def _square_free_core(s: Poly) -> Poly:
    while s.is_square():
        s = s.sqrt()
    return s


def canonical_class_rep(s: Poly) -> Poly:
    """Canonical representative of the power-of-two class of s.

    Takes square roots until the result is no longer a square, then folds
    with the x -> x+1 conjugate so that val_x <= val_{x+1} (mask order
    breaks ties), making conjugate inputs normalize identically.
    """
    if not s or s.degree < 1:
        raise ValueError("class representatives are defined for nonconstant polynomials")
    core = _square_free_core(s)
    other = core.bar()
    key = (core.valuation(X), core.mask)
    other_key = (other.valuation(X), other.mask)
    return core if key <= other_key else other
