"""Independent oracles the tests cross-check the library against.

Each one computes its answer the long way, from the definition or from a
criterion the library does not use, and is shared by several test
modules; none of them is used by the package.  Run as a script,

    PYTHONPATH=src python tests/oracles.py MAX_DEGREE MAX_H

it runs the verify sweep and certifies every factorization its verdicts
read (certify_verify_sweep); it exits 1 on any failure.
"""

import sys
from itertools import product

from gf2perfect import verify
from gf2perfect._intmath import prime_factors
from gf2perfect.factor import factorize
from gf2perfect.gf2poly import ONE, BudgetError, Poly, _gcd_mask, _reducer, _sqr_mask, gcd

#: sigma_oracle refuses inputs above this degree (divisor counts explode).
ORACLE_DEGREE_CAP = 24


def _sigma_prime_power_naive(prime: Poly, n: int) -> Poly:
    # Horner form of the geometric sum; cross-checks the closed form
    acc = ONE
    for _ in range(n):
        acc = acc * prime + ONE
    return acc


def _divisors(fact):
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


def is_even_poly(a: Poly) -> bool:
    """True iff a has a linear factor (x or x+1)."""
    if not a:
        raise ValueError("evenness is undefined for the zero polynomial")
    return a.mask & 1 == 0 or a.mask.bit_count() % 2 == 0


def rabin_irreducible(p: Poly) -> bool:
    """Rabin's criterion (SIAM J. Comput. 1980), sharing no loop with factor.

    f of degree n >= 1 is irreducible iff x^(2^n) = x mod f and
    gcd(x^(2^(n/q)) - x, f) = 1 for every prime q dividing n.
    """
    f = p.mask
    n = f.bit_length() - 1
    reduce, key = _reducer(f)
    x = reduce(2, key)
    powers = [x]  # powers[k] = x^(2^k) mod f
    for _ in range(n):
        powers.append(reduce(_sqr_mask(powers[-1]), key))
    return powers[n] == x and all(_gcd_mask(f, powers[n // q] ^ x) == 1 for q in prime_factors(n))


def certify_verify_sweep(max_degree: int, max_h: int) -> tuple[int, int, list[str]]:
    """Run verify serially and certify each split of sigma(M^n) it read.

    Every split must multiply back to its sum, and every prime in it must
    pass rabin_irreducible.  Returns (splits, distinct primes, problems).
    """
    seen = {}
    cached = verify._sigma_power

    def recording(m, n):
        seen[m, n] = cached(m, n)
        return seen[m, n]

    verify._sigma_power = recording
    try:
        reports = verify.run_all(max_degree, max_h)
    finally:
        verify._sigma_power = cached
    problems = [f"verdict fail: {r.to_json()}" for r in verify.failures(reports)]
    primes = set()
    for (m, n), (s, fact) in seen.items():
        if fact.reconstruct() != s:
            problems.append(f"split of sigma(({m.poly})^{n}) does not multiply back")
        primes.update(q for q, _ in fact)
    problems += [f"not irreducible: {q}" for q in sorted(primes) if not rabin_irreducible(q)]
    return len(seen), len(primes), problems


if __name__ == "__main__":
    splits, nprimes, problems = certify_verify_sweep(int(sys.argv[1]), int(sys.argv[2]))
    print(f"{splits} splits, {nprimes} distinct primes, {len(problems)} problems")
    for problem in problems:
        print(problem)
    sys.exit(1 if problems or not nprimes else 0)
