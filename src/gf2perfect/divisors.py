"""Divisor sums, perfection predicates and the power-of-two equivalence.

sigma(A) is the sum of all divisors of A (including 1 and A) and
sigma_star(A) the sum of the unitary divisors d, those with
gcd(d, A/d) = 1.  Both are multiplicative, so they are computed from the
factorization one prime power at a time; brute-force oracles that
literally enumerate divisors are provided for cross-checking.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

from .factor import Factorization, factorize, is_irreducible
from .gf2poly import ONE, X, BudgetError, Poly, gcd

#: sigma_oracle refuses inputs above this degree (divisor counts explode).
ORACLE_DEGREE_CAP = 24

#: is_indecomposable enumerates 2^omega coprime splits; cap omega here.
INDECOMPOSABLE_OMEGA_CAP = 20

MODE_SIGMA = "sigma"
MODE_SIGMA_STAR = "sigma_star"


class PerfectionReport(NamedTuple):
    """Verdict of the sigma(A) = A (or sigma*(A) = A) test.

    When the verdict is false, witness holds (prime, m1, m2) with
    prime^m1 exactly dividing the subject, prime^m2 exactly dividing the
    divisor sum, and m1 != m2.
    """

    subject: Poly
    mode: str
    verdict: bool
    witness: tuple[Poly, int, int] | None = None

    def to_json_obj(self):
        obj = {"subject": str(self.subject), "mode": self.mode, "verdict": self.verdict}
        if self.witness is not None:
            prime, m1, m2 = self.witness
            obj["witness"] = {"prime": str(prime), "m1": m1, "m2": m2}
        return obj


def _sigma_prime_power(prime: Poly, n: int) -> Poly:
    # 1 + P + ... + P^n as (P^(n+1) + 1) / (P + 1); exact by construction
    q, r = divmod(prime ** (n + 1) + ONE, prime + ONE)
    assert not r
    return q


def _sigma_prime_power_naive(prime: Poly, n: int) -> Poly:
    # Horner form of the geometric sum; cross-checks the closed form
    acc = ONE
    for _ in range(n):
        acc = acc * prime + ONE
    return acc


def sigma_of_factored(fact: Factorization) -> Poly:
    """sigma of the polynomial whose complete factorization is fact."""
    out = ONE
    for prime, n in fact:
        out = out * _sigma_prime_power(prime, n)
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
    out = ONE
    for prime, n in factorize(a):
        out = out * (prime**n + ONE)
    return out


def _divisors(fact: Factorization):
    primes = fact.primes()
    for exps in product(*[range(m + 1) for _, m in fact.factors]):
        d = ONE
        for p, e in zip(primes, exps):
            d = d * p**e
        yield d


def sigma_oracle(a: Poly) -> Poly:
    """Literal sum over all divisors; degree-capped verification oracle."""
    if not a:
        raise ValueError("sigma is undefined for the zero polynomial")
    if a.degree > ORACLE_DEGREE_CAP:
        raise BudgetError(f"oracle is capped at degree {ORACLE_DEGREE_CAP}")
    out = Poly(0)
    for d in _divisors(factorize(a)):
        out = out + d
    return out


def sigma_star_oracle(a: Poly) -> Poly:
    """Literal sum over divisors d with gcd(d, a/d) = 1; degree-capped."""
    if not a:
        raise ValueError("sigma* is undefined for the zero polynomial")
    if a.degree > ORACLE_DEGREE_CAP:
        raise BudgetError(f"oracle is capped at degree {ORACLE_DEGREE_CAP}")
    out = Poly(0)
    for d in _divisors(factorize(a)):
        if gcd(d, a // d) == ONE:
            out = out + d
    return out


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
    fs = factorize(subject)
    fd = factorize(divisor_sum)
    primes = sorted(set(fs.primes()) | set(fd.primes()))
    for p in primes:
        m1 = fs.exponent_of(p)
        m2 = fd.exponent_of(p)
        if m1 != m2:
            return p, m1, m2
    return None


def is_perfect(a: Poly) -> PerfectionReport:
    """Test sigma(a) = a, with a disagreeing prime-power pair on failure."""
    if not a:
        raise ValueError("perfection is undefined for the zero polynomial")
    s = sigma(a)
    if s == a:
        return PerfectionReport(a, MODE_SIGMA, True)
    return PerfectionReport(a, MODE_SIGMA, False, _witness(a, s))


def is_unitary_perfect(a: Poly) -> PerfectionReport:
    """Test sigma*(a) = a, with a disagreeing prime-power pair on failure."""
    if not a:
        raise ValueError("perfection is undefined for the zero polynomial")
    s = sigma_star(a)
    if s == a:
        return PerfectionReport(a, MODE_SIGMA_STAR, True)
    return PerfectionReport(a, MODE_SIGMA_STAR, False, _witness(a, s))


def check(a: Poly, mode: str) -> PerfectionReport:
    """Dispatch on mode: 'perfect' -> sigma, 'unitary' -> sigma*."""
    if mode == "perfect":
        return is_perfect(a)
    if mode == "unitary":
        return is_unitary_perfect(a)
    raise ValueError(f"unknown mode {mode!r}")


def is_even_poly(a: Poly) -> bool:
    """True iff a has a linear factor (x or x+1)."""
    if not a:
        raise ValueError("evenness is undefined for the zero polynomial")
    return a.mask & 1 == 0 or a.mask.bit_count() % 2 == 0


def is_indecomposable(a: Poly, mode: str = "perfect") -> bool:
    """True iff a is not a product of two coprime nonconstant polynomials
    that are both perfect (or both unitary perfect, per mode).

    Searches all coprime splits obtained by grouping prime powers.
    """
    report = check(a, mode)
    if not report.verdict:
        raise ValueError(f"input is not {mode} so indecomposability does not apply")
    fact = factorize(a)
    k = len(fact)
    if k > INDECOMPOSABLE_OMEGA_CAP:
        raise BudgetError(f"coprime-split search capped at {INDECOMPOSABLE_OMEGA_CAP} primes")
    parts = [p**m for p, m in fact]
    for bits in range(1, 1 << (k - 1) if k else 0):
        u = ONE
        for i in range(k):
            if bits >> i & 1:
                u = u * parts[i]
        v = a // u
        if check(u, mode).verdict and check(v, mode).verdict:
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
