"""Independent oracles the tests cross-check the library against.

Each one computes its answer the long way, from the definition or from a
criterion the library does not use, and is shared by several test
modules; none of them is used by the package.  The certificates,
certify_verify_sweep and certify_structured_search, re-check every
verdict a run rests on; tests/pins.py runs them at CI's scale.
"""

from itertools import product
from math import gcd as int_gcd

from gf2perfect import search, verify
from gf2perfect._intmath import prime_factors
from gf2perfect.divisors import sigma_prime_power
from gf2perfect.factor import factorize, is_squarefree
from gf2perfect.gf2poly import ONE, BudgetError, Poly, _divmod_mask, _mod_mask, _sqr_mask, gcd
from gf2perfect.mersenne import enumerate_mersenne_primes, mersenne_poly

#: sigma_oracle refuses inputs above this degree (divisor counts explode).
ORACLE_DEGREE_CAP = 24


def _sigma_prime_power_naive(prime: Poly, n: int) -> Poly:
    # Horner form of the geometric sum; cross-checks the closed form
    acc = ONE
    for _ in range(n):
        acc = acc * prime + ONE
    return acc


def _divisors(fact):
    primes = tuple(p for p, _ in fact)
    for exps in product(*[range(m + 1) for _, m in fact]):
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


def gcd_reference(a: int, b: int) -> int:
    """gcd of two masks by textbook Euclid, each remainder from long division."""
    while b:
        a, b = b, _divmod_mask(a, b)[1]
    return a


def rabin_irreducible(p: Poly) -> bool:
    """Rabin's criterion (SIAM J. Comput. 1980), without factor's fast kernels.

    f of degree n >= 1 is irreducible iff x^(2^n) = x mod f and
    gcd(x^(2^(n/q)) - x, f) = 1 for every prime q dividing n.  Each
    square is reduced bit by bit with _mod_mask, never with _reducer's
    byte table, and each gcd is gcd_reference's, never _gcd_mask, so a
    fault in either of those kernels cannot pass both a split and its
    certificate.
    """
    f = p.mask
    n = f.bit_length() - 1
    x = _mod_mask(2, f)
    powers = [x]  # powers[k] = x^(2^k) mod f
    for _ in range(n):
        powers.append(_mod_mask(_sqr_mask(powers[-1]), f))
    return powers[n] == x and all(gcd_reference(f, powers[n // q] ^ x) == 1 for q in prime_factors(n))


def _certify_splits(splits) -> tuple[int, list[str]]:
    # splits maps (p, n, unitary) to (sum, split): every split must multiply
    # back to its sum, and every prime in it must pass rabin_irreducible
    problems, primes = [], set()
    for (p, n, unitary), (s, fact) in splits.items():
        if fact.reconstruct() != s:
            problems.append(f"split of sigma{'*' if unitary else ''}(({p})^{n}) does not multiply back")
        primes.update(q for q, _ in fact)
    problems += [f"not irreducible: {q}" for q in sorted(primes) if not rabin_irreducible(q)]
    return len(primes), problems


def certify_verify_sweep(max_degree: int, max_h: int) -> tuple[int, int, list[str]]:
    """Run verify serially and certify each record of sigma(M^n) it formed.

    Every record's sum must be sigma_prime_power's.  Every split a record
    holds must multiply back to that record's own sum, every prime in it
    must pass rabin_irreducible, and it must be squarefree exactly when
    factor.is_squarefree says the sum is.  Returns (distinct (M, n) split,
    distinct primes, problems).
    """
    records = []
    form = verify.sigma_record

    def recording(m, h, **kwargs):
        records.append(form(m, h, **kwargs))
        return records[-1]

    verify.sigma_record = recording
    try:
        reports = verify.run_all(max_degree, max_h)
    finally:
        verify.sigma_record = form
    problems = [f"verdict fail: {r!r}" for r in verify.failures(reports)]
    problems += [
        f"the record of sigma(({r.m.poly})^{2 * r.h}) holds a wrong sum"
        for r in records
        if r.s != sigma_prime_power(r.m.poly, 2 * r.h)
    ]
    splits = {(r.m.poly, 2 * r.h, False): (r.s, r.fact) for r in records if r.fact is not None}
    # lemma3.2's verdict by a second route: gcd(s, s') = 1 reads no split
    problems += [
        f"is_squarefree disagrees with the split of sigma(({p})^{n})"
        for (p, n, _), (s, fact) in splits.items()
        if is_squarefree(s) != fact.is_squarefree
    ]
    nprimes, split_problems = _certify_splits(splits)
    return len(splits), nprimes, problems + split_problems


def certify_structured_search(max_degree: int, mode: str) -> tuple[int, int, int, list[str]]:
    """Certify the verdicts the structured search's part table rests on.

    Rabin's test must accept exactly the Mersenne primes that
    enumerate_mersenne_primes(max_degree - 2) lists, over every coprime
    (a, b) with a + b <= max_degree - 2; and every split that
    search._part_sigma_table reads must multiply back to its sum, with
    every prime in it passing Rabin.  Returns (Mersenne primes, splits,
    distinct primes, problems).
    """
    top = max_degree - 2
    listed = {(m.a, m.b): m.poly for m in enumerate_mersenne_primes(top)}
    problems = [f"listed with the wrong polynomial: {ab}" for ab, p in listed.items() if p != mersenne_poly(*ab)]
    rabin = {
        (a, d - a)
        for d in range(2, top + 1)
        for a in range(1, d)
        if int_gcd(a, d - a) == 1 and rabin_irreducible(mersenne_poly(a, d - a))
    }
    problems += [f"irreducible but not listed: 1 + x^{a} (x+1)^{b}" for a, b in sorted(rabin - set(listed))]
    problems += [f"listed but reducible: 1 + x^{a} (x+1)^{b}" for a, b in sorted(set(listed) - rabin)]
    seen = {}
    split = search.factor_sigma_prime_power

    def recording(p, n, unitary):
        fact = split(p, n, unitary)
        seen[p, n, unitary] = sigma_prime_power(p, n, unitary), fact
        return fact

    search.factor_sigma_prime_power = recording
    try:
        search._part_sigma_table(max_degree, mode)
    finally:
        search.factor_sigma_prime_power = split
    nprimes, split_problems = _certify_splits(seen)
    return len(listed), len(seen), nprimes, problems + split_problems

