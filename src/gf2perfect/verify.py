"""Checkers that mechanically confirm the package's numbered claims.

Each checker recomputes one verifiable statement about divisor sums of
Mersenne-prime powers and returns a TheoremReport.  Claim identifiers
("thm1.2-i", "lemma3.2", ...) are the stable vocabulary used by the CLI
and the report stream; every checker is a function of its arguments
alone, and run_all emits reports in a fixed order so two runs with the
same budgets are byte-identical.

Verdicts: "pass" and "fail" apply inside a claim's hypotheses; instances
outside them report "out_of_scope" and still attach the computed data,
since the hypothesis boundary is where transcription slips would hide.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import chain, islice
from typing import NamedTuple

from . import _intmath
from ._intmath import euler_phi
from .divisors import factor_sigma_prime_power, sigma_of_factored, sigma_prime_power
from .factor import Factorization, count_irreducibles, is_irreducible, is_primitive
from .gf2poly import X, XP1, Poly
from .mersenne import MersennePrime, catalog, enumerate_mersenne_primes, in_delta, mersenne_form, mersenne_poly, ord2

#: Cap on deg(M^2h) for swept instances.
DEGREE_BUDGET = 2048

#: Mersenne prime numbers 2^m - 1 accepted by check_degree_m_divisors.
DESK_MERSENNE_NUMBERS = (3, 7, 31)

# ranges of lemma3.7, lemma3.20 and lemma3.9, which each run once per sweep
_COUNTING_MAX_M = 24
_MULTIPLE_8_DEGREES = (8, 16, 24)
_PRIMITIVE_EXHAUSTIVE_DEGREES = (2, 3, 5, 7)
_PRIMITIVE_SAMPLED_DEGREE = 13
_PRIMITIVE_SAMPLES = 12


class TheoremReport(NamedTuple):
    """Machine-readable outcome of one claim checker."""

    claim_id: str
    params: dict
    verdict: str  # "pass" | "fail" | "out_of_scope"
    witness: dict | None = None

    def sort_key(self):
        return (self.claim_id, json.dumps(self.params, sort_keys=True))


def _m_params(m: MersennePrime, **extra):
    return {"M": str(m.poly), "a": m.a, "b": m.b, **extra}


def _classify_factors(fact):
    mers = [p for p, _ in fact if p == X or p == XP1 or mersenne_form(p) is not None]
    return mers, [p for p, _ in fact if p not in mers]


def _delta_primes(n: int):
    return [q for q in _intmath.prime_factors(n) if q != 2 and in_delta(q)]


class SigmaRecord(NamedTuple):
    """sigma(M^2h) for a Mersenne prime M: closed-form sum s, split fact (None if unread)."""

    m: MersennePrime
    h: int
    s: Poly
    fact: Factorization | None


def sigma_record(m: MersennePrime, h: int, *, split: bool = True) -> SigmaRecord:
    """The record of sigma(M^2h) for h >= 1, split only when split is true."""
    if h < 1:
        raise ValueError("h must be positive")
    n = 2 * h
    return SigmaRecord(m, h, sigma_prime_power(m.poly, n), factor_sigma_prime_power(m.poly, n) if split else None)


def check_squarefree(rec: SigmaRecord) -> TheoremReport:
    """sigma(M^2h) has no repeated irreducible factor."""
    params = _m_params(rec.m, h=rec.h)
    verdict = "pass" if rec.fact.is_squarefree else "fail"
    return TheoremReport("lemma3.2", params, verdict, {"multiplicities": [mu for _, mu in rec.fact]})


def check_sigma_even_power(rec: SigmaRecord) -> TheoremReport:
    """sigma(M^2h) is divisible by a non-Mersenne prime, inside hypotheses.

    Case (i): M one of the five small Mersenne primes, excluding h = 1
    for the two cubic ones.  Case (ii): M outside that set and 2h + 1
    divisible by a prime (other than 7) that is a Mersenne number or has
    order of 2 divisible by 8.  Other instances are out of scope and
    report their factor classification.
    """
    m, h, fact = rec.m, rec.h, rec.fact
    mers, other = _classify_factors(fact)
    params = _m_params(m, h=h)
    witness = {
        "squarefree": fact.is_squarefree,
        "mersenne_factors": [str(p) for p in mers],
        "non_mersenne_factors": [str(p) for p in other],
    }
    if not fact.is_squarefree:
        return TheoremReport("thm1.2", params, "fail", witness)
    if m.poly in catalog().mersennes:
        claim = "thm1.2-i"
        cubic = (m.a, m.b) in ((1, 2), (2, 1))
        applicable = not cubic or h >= 2
    else:
        claim = "thm1.2-ii"
        hits = _delta_primes(2 * h + 1)
        witness["delta_primes"] = hits
        applicable = bool(hits)
    if not applicable:
        return TheoremReport(claim, params, "out_of_scope", witness)
    return TheoremReport(claim, params, "pass" if other else "fail", witness)


def check_U_split_square(rec: SigmaRecord) -> TheoremReport:
    """When sigma(M^2h) has only Mersenne prime factors, the double
    divisor sum U = sigma(sigma(M^2h)) must split as x^u (x+1)^v with u
    and v even, and sigma(M^2h) must be reducible.  When some factor is
    not Mersenne the premise fails; the report then records which of the
    conclusions concretely fail for this instance.
    """
    fact = rec.fact
    _, other = _classify_factors(fact)
    u2h = sigma_of_factored(fact)
    u = u2h.valuation(X)
    v = u2h.valuation(XP1)
    # x^u (x+1)^v divides U by the valuations' definition, so U is that
    # product exactly when the degrees agree, mersenne_form's rule
    splits = u + v == u2h.degree
    witness = {
        "u": u,
        "v": v,
        "splits": splits,
        "square": u2h.is_square(),
        "reducible": len(fact) > 1,
        "non_mersenne_factors": [str(p) for p in other],
    }
    params = _m_params(rec.m, h=rec.h)
    if other:
        return TheoremReport("cor3.6", params, "out_of_scope", witness)
    ok = splits and u % 2 == 0 and v % 2 == 0 and witness["square"] and witness["reducible"]
    return TheoremReport("cor3.6", params, "pass" if ok else "fail", witness)


def check_p_reduction(rec: SigmaRecord) -> list[TheoremReport]:
    """For every divisor k of 2h+1, sigma(M^(k-1)) divides sigma(M^2h); one report per k."""
    n, m = 2 * rec.h + 1, rec.m
    ks = [k for k in range(1, n + 1) if n % k == 0]
    verdicts = ["pass" if sigma_prime_power(m.poly, k - 1).divides(rec.s) else "fail" for k in ks]
    return [TheoremReport("lemma3.4", _m_params(m, h=rec.h, k=k), v) for k, v in zip(ks, verdicts)]


def check_alpha_ranges(rec: SigmaRecord) -> TheoremReport:
    """Top coefficients of sigma(M^2h) agree with M^2h over the first
    deg(M) positions and with M^2h + M^(2h-1) over the next deg(M)."""
    m, h, s = rec.m, rec.h, rec.s
    d = m.degree
    high = m.poly ** (2 * h)
    mixed = high + m.poly ** (2 * h - 1)
    bad = [l for l in range(d) if s.alpha(l) != high.alpha(l)]
    bad += [l for l in range(d, 2 * d) if s.alpha(l) != mixed.alpha(l)]
    params = _m_params(m, h=h)
    return TheoremReport("lemma3.15", params, "fail" if bad else "pass", {"mismatched_l": bad})


def check_alpha3_u2h(rec: SigmaRecord) -> TheoremReport:
    """alpha_3 of the double divisor sum equals 1 for M = x^3+x+1 when
    2h+1 is a prime other than 3, 5, 7; other instances are reported out
    of scope with the computed coefficient attached."""
    m, h = rec.m, rec.h
    u2h = sigma_of_factored(rec.fact)
    low = m.poly ** (2 * h - 1)
    witness = {"alpha3_U": u2h.alpha(3), "alpha3_M_low": low.alpha(3), "alpha1_M_low": low.alpha(1)}
    params = _m_params(m, h=h)
    p = 2 * h + 1
    applicable = (m.a, m.b) == (1, 2) and _intmath.is_prime(p) and p not in (3, 5, 7)
    if not applicable:
        return TheoremReport("cor3.17", params, "out_of_scope", witness)
    ok = (witness["alpha3_U"], witness["alpha3_M_low"], witness["alpha1_M_low"]) == (1, 1, 0)
    return TheoremReport("cor3.17", params, "pass" if ok else "fail", witness)


def check_alpha3_u2(rec: SigmaRecord) -> TheoremReport:
    """alpha_3(sigma(sigma(M^2))) equals 1 for Mersenne primes outside
    the degree-4 catalog whose sigma(M^2) has at least three distinct
    prime factors; reads the record at h = 1."""
    cat = catalog()
    m, s, fact = rec.m, rec.s, rec.fact
    u2 = sigma_of_factored(fact)
    witness = {
        "omega": len(fact),
        "alpha3_U2": u2.alpha(3),
        "alpha3_sigma_M2": s.alpha(3),
        "trinomial_divides": cat.lookup("M1").divides(s),
    }
    params = _m_params(m)
    if m.poly in cat.mersennes or len(fact) < 3:
        return TheoremReport("cor3.28", params, "out_of_scope", witness)
    ok = witness["alpha3_U2"] == 1 and witness["alpha3_sigma_M2"] == 0 and witness["trinomial_divides"]
    return TheoremReport("cor3.28", params, "pass" if ok else "fail", witness)


def _irreducibles_of_degree(r: int):
    # the irreducibles of degree r in increasing mask order, found lazily
    return filter(is_irreducible, map(Poly, range(1 << r, 2 << r)))


def check_degree_m_divisors(rec: SigmaRecord) -> TheoremReport:
    """Divisibility pattern of sigma(M^(p-1)) (the record at h = (p-1)/2) for a
    Mersenne number p = 2^r - 1: every irreducible of degree r other than M
    divides it, no irreducible whose degree r' has 2^r' - 1 prime != p divides
    it, and the small Mersenne primes divide it exactly per the (M, p) rule."""
    m, p, s, fact = rec.m, 2 * rec.h + 1, rec.s, rec.fact
    if p not in DESK_MERSENNE_NUMBERS:
        raise ValueError(f"supported Mersenne prime numbers: {DESK_MERSENNE_NUMBERS}")
    r = (p + 1).bit_length() - 1
    cat = catalog()
    missing = [str(q) for q in _irreducibles_of_degree(r) if q != m.poly and not q.divides(s)]
    forbidden = [
        str(q)
        for q, _ in fact
        if _intmath.is_mersenne_prime_exponent(q.degree) and (1 << q.degree) - 1 != p
    ]
    iff_bad = []
    for name, cond_p in (("M1", 3), ("M2", 7), ("M2b", 7)):
        small = cat.lookup(name)
        expected = small != m.poly and p == cond_p
        if small.divides(s) != expected:
            iff_bad.append(name)
    params = _m_params(m, p=p)
    witness = {"missing_degree_r": missing, "forbidden_factors": forbidden, "iff_violations": iff_bad}
    ok = not missing and not forbidden and not iff_bad
    return TheoremReport("cor3.13", params, "pass" if ok else "fail", witness)


def check_order_divides_degrees(rec: SigmaRecord) -> TheoremReport:
    """For prime p = 2h+1, ord_p(2) divides the degree of every prime
    factor of sigma(M^2h)."""
    p = 2 * rec.h + 1
    params = _m_params(rec.m, h=rec.h)
    if not _intmath.is_prime(p):
        return TheoremReport("lemma3.8", params, "out_of_scope", {"p": p})
    o = ord2(p)
    bad = [str(q) for q, _ in rec.fact if q.degree % o]
    return TheoremReport("lemma3.8", params, "fail" if bad else "pass", {"ord": o, "violations": bad})


def _exceeds_isqrt_bound(n2: int, m: int) -> bool:
    # exact check of m*N(m) >= 2^m - 2*(2^(m/2) - 1) with real 2^(m/2)
    rhs = (1 << m) + 2 - n2 * m
    if rhs <= 0:
        return True
    return 4 * (1 << m) >= rhs * rhs


def check_counting() -> TheoremReport:
    """Counting facts for irreducibles of degree m <= 24: the necklace
    count satisfies the root-counting identity, exceeds the totient from
    degree 4 on, meets the standard lower bound, and bounds the number of
    Mersenne primes per degree by the totient."""
    max_m = _COUNTING_MAX_M
    bad = []
    mers_by_degree = Counter(mp.degree for mp in enumerate_mersenne_primes(max_m))
    for m in range(1, max_m + 1):
        n2 = count_irreducibles(m)
        if sum(d * count_irreducibles(d) for d in range(1, m + 1) if m % d == 0) != 1 << m:
            bad.append(f"root identity at {m}")
        if m >= 4 and not euler_phi(m) < n2:
            bad.append(f"totient bound at {m}")
        if m >= 4 and not _exceeds_isqrt_bound(n2, m):
            bad.append(f"lower bound at {m}")
        if mers_by_degree[m] > euler_phi(m):
            bad.append(f"mersenne count at {m}")
    pinned = (count_irreducibles(4), count_irreducibles(5), euler_phi(4), euler_phi(5))
    if pinned != (3, 6, 2, 4):
        bad.append(f"pinned values {pinned}")
    witness = {"max_m": max_m, "violations": bad}
    return TheoremReport("lemma3.7", {"max_m": max_m}, "fail" if bad else "pass", witness)


def check_no_mersenne_degree_multiple_8() -> TheoremReport:
    """No Mersenne prime exists in degree 8, 16 or 24."""
    candidates = (mersenne_poly(a, d - a) for d in _MULTIPLE_8_DEGREES for a in range(1, d))
    found = [str(p) for p in candidates if is_irreducible(p)]
    params = {"degrees": list(_MULTIPLE_8_DEGREES)}
    return TheoremReport("lemma3.20", params, "fail" if found else "pass", {"found": found})


def check_primitivity() -> TheoremReport:
    """Every irreducible of degree r is primitive when 2^r - 1 is prime;
    exhaustive for r = 2, 3, 5, 7, and at degree 13 for the first
    _PRIMITIVE_SAMPLES irreducibles in increasing mask order."""
    sampled_degree = _PRIMITIVE_SAMPLED_DEGREE
    exhaustive = [q for r in _PRIMITIVE_EXHAUSTIVE_DEGREES for q in _irreducibles_of_degree(r)]
    sampled = islice(_irreducibles_of_degree(sampled_degree), _PRIMITIVE_SAMPLES)
    bad = [str(q) for q in chain(exhaustive, sampled) if not is_primitive(q)]
    params = {"exhaustive": list(_PRIMITIVE_EXHAUSTIVE_DEGREES), "sampled_degree": sampled_degree}
    return TheoremReport("lemma3.9", params, "fail" if bad else "pass", {"violations": bad})


def explore_alpha_u6(m: MersennePrime) -> list[tuple[int, int]]:
    """Coefficients alpha_l of sigma(sigma(M^6)) for every l.

    Exploration only: the open question is whether some odd l always has
    alpha_l = 0 here.  Nothing is asserted.
    """
    u6 = sigma_of_factored(sigma_record(m, 3).fact)
    return [(l, u6.alpha(l)) for l in range(u6.degree + 1)]


_CHECKERS = {
    "lemma3.2": check_squarefree,
    "thm1.2": check_sigma_even_power,
    "cor3.6": check_U_split_square,
    "lemma3.4": check_p_reduction,
    "lemma3.15": check_alpha_ranges,
    "cor3.17": check_alpha3_u2h,
    "cor3.28": check_alpha3_u2,
    "cor3.13": check_degree_m_divisors,
    "lemma3.8": check_order_divides_degrees,
    "lemma3.7": check_counting,
    "lemma3.20": check_no_mersenne_degree_multiple_8,
    "lemma3.9": check_primitivity,
}

#: claim ids accepted by the --claim filter (thm1.2 covers both cases)
CLAIM_IDS = tuple(sorted(_CHECKERS))


def _records_read(m: MersennePrime, max_h: int, claim: str | None):
    # yields (h, the checks claim selects that read M's record sigma(M^2h)):
    # h = 1..max_h for the per-h checks, 1 for cor3.28 and (p-1)/2 for
    # cor3.13, which may lie past max_h; cor3.17 reads x^3+x+1 alone
    top = DEGREE_BUDGET // (2 * m.degree)
    desk_h = [(p - 1) // 2 for p in DESK_MERSENNE_NUMBERS if p - 1 <= 2 * top]
    for h in sorted(set(desk_h).union(range(1, min(max_h, top) + 1))):
        per_h = h <= max_h
        reads = {
            **dict.fromkeys(("lemma3.2", "thm1.2", "cor3.6", "lemma3.15", "lemma3.4"), per_h),
            "cor3.17": per_h and (m.a, m.b) == (1, 2),
            "lemma3.8": per_h and _intmath.is_prime(2 * h + 1),
            "cor3.28": h == 1,
            "cor3.13": h in desk_h,
        }
        if names := [name for name, read in reads.items() if read and claim in (None, name)]:
            yield h, names


def run_all(max_mersenne_degree: int, max_h: int, *, claim: str | None = None) -> list[TheoremReport]:
    """Sweep every checker over the in-budget grid; deterministic order."""
    if claim is not None and claim not in CLAIM_IDS and claim not in ("thm1.2-i", "thm1.2-ii"):
        raise ValueError(f"unknown claim {claim!r}; known: {', '.join(CLAIM_IDS)}")
    # the one-off checkers take a few milliseconds, so they run here; one of
    # them selected alone reads no Mersenne prime of the grid, so it runs
    # whatever the grid, an empty one included
    one_off = ("lemma3.7", "lemma3.20", "lemma3.9")
    if claim in one_off:
        return [_CHECKERS[claim]()]
    if max_mersenne_degree < 2 or max_h < 1:
        return []
    base = "thm1.2" if claim in ("thm1.2-i", "thm1.2-ii") else claim
    reports = [_CHECKERS[name]() for name in one_off if base is None]
    # a record is split unless its checks all read the sum alone; lemma3.4
    # reports once per k
    for m in enumerate_mersenne_primes(max_mersenne_degree):
        for h, names in _records_read(m, max_h, base):
            rec = sigma_record(m, h, split=not {"lemma3.4", "lemma3.15"}.issuperset(names))
            for name in names:
                r = _CHECKERS[name](rec)
                reports += r if isinstance(r, list) else [r]
    if base != claim:
        reports = [r for r in reports if r.claim_id == claim]
    reports.sort(key=TheoremReport.sort_key)
    return reports


def failures(reports) -> list[TheoremReport]:
    return [r for r in reports if r.verdict == "fail"]
