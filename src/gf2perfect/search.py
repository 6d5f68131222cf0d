"""Two independent searches for perfect and unitary-perfect polynomials.

The structured search enumerates the family x^a (x+1)^b * prod P_i^h_i
with every P_i a Mersenne prime, pruning each part by the requirement
that its divisor sum factor into x, x+1 and Mersenne primes only (any
prime of a part's divisor sum divides the whole polynomial, so nothing
is lost).  The brute-force search sieves smallest prime factors over all
coefficient masks and tests sigma(A) = A literally; it is the oracle the
structured route is checked against at small degree.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from .divisors import PerfectionReport, canonical_class_rep, check, is_indecomposable, sigma, sigma_star
from .factor import factorize
from .gf2poly import ONE, X, XP1, BudgetError, Poly, _divmod_mask, _mul_mask
from .mersenne import catalog, enumerate_mersenne_primes, mersenne_form

#: Hard guard for the exhaustive family=all search (2^(D+1) sigma values).
BRUTEFORCE_MAX_DEGREE = 18

MODES = ("perfect", "unitary")
FAMILIES = ("mersenne_restricted", "all")


@dataclass(frozen=True)
class SearchConfig:
    max_degree: int
    mode: str = "perfect"
    family: str = "mersenne_restricted"

    def __post_init__(self):
        if self.max_degree < 1:
            raise ValueError("max_degree must be positive")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}")
        if self.family == "all" and self.max_degree > BRUTEFORCE_MAX_DEGREE:
            raise BudgetError(f"family=all search is guarded at degree {BRUTEFORCE_MAX_DEGREE}")


def _is_mersenne_or_linear(fact) -> bool:
    return all(p == X or p == XP1 or mersenne_form(p) is not None for p, _ in fact)


def _part_sigma_table(cfg: SearchConfig):
    """Divisor-sum factorizations for every admissible part.

    Returns (x_parts, xp1_parts, prime_parts) where each entry maps an
    exponent to a {prime: mult} dict of the part's divisor sum, keeping
    only parts whose divisor sum is a product of x, x+1 and Mersenne
    primes.
    """
    unitary = cfg.mode == "unitary"

    def part_sum(base: Poly, e: int):
        value = sigma_star(base**e) if unitary else sigma(base**e)
        fact = factorize(value)
        if not _is_mersenne_or_linear(fact):
            return None
        return dict(fact.factors)

    x_parts = {}
    xp1_parts = {}
    for e in range(1, cfg.max_degree - 1 + 1):
        fx = part_sum(X, e)
        if fx is not None:
            x_parts[e] = fx
        f1 = part_sum(XP1, e)
        if f1 is not None:
            xp1_parts[e] = f1
    prime_parts = {}
    if cfg.max_degree >= 4:  # smallest candidate with an odd part is x(x+1)M1
        for m in enumerate_mersenne_primes(cfg.max_degree - 2):
            table = {}
            for h in range(1, (cfg.max_degree - 2) // m.degree + 1):
                fp = part_sum(m.poly, h)
                if fp is not None:
                    table[h] = fp
            if table:
                prime_parts[m.poly] = table
    return x_parts, xp1_parts, prime_parts


def _merge(*dicts):
    out: dict[Poly, int] = {}
    for d in dicts:
        for p, m in d.items():
            out[p] = out.get(p, 0) + m
    return out


def search_structured(cfg: SearchConfig) -> list[tuple[Poly, PerfectionReport]]:
    """All (unitary) perfect polynomials of the Mersenne-restricted family.

    A candidate x^a (x+1)^b * prod P_i^h_i is perfect iff the factored
    divisor sums of its parts multiply out to the candidate's own prime
    multiset, so each candidate costs one multiset comparison; the two
    linear exponents are forced by the x- and (x+1)-valuations of the
    odd part's divisor sums, which cuts the (a, b) scan to a handful of
    consistency probes.
    """
    if cfg.family != "mersenne_restricted":
        raise ValueError("structured search runs on the mersenne_restricted family")
    x_parts, xp1_parts, prime_parts = _part_sigma_table(cfg)
    primes = sorted(prime_parts, key=lambda p: (-p.degree, p.mask))
    degrees = [int(p.degree) for p in primes]

    def val(d, at):
        return sum(m * p.valuation(at) for p, m in d.items()) if d else 0

    hits = []

    def try_odd_part(chosen):
        odd = {p: h for p, h in chosen}
        sums = _merge(*(prime_parts[p][h] for p, h in chosen)) if chosen else {}
        vx = val(sums, X)
        vx1 = val(sums, XP1)
        odd_degree = sum(h * int(p.degree) for p, h in chosen)
        for a, fx in x_parts.items():
            b = vx1 + val(fx, XP1)
            if b not in xp1_parts or a + b + odd_degree > cfg.max_degree:
                continue
            f1 = xp1_parts[b]
            if a != vx + val(f1, X):
                continue
            total = _merge(sums, fx, f1)
            want = dict(odd)
            want[X] = want.get(X, 0) + a
            want[XP1] = want.get(XP1, 0) + b
            if total == want:
                poly = (XP1**b << a) * _product(odd)
                hits.append(poly)

    def _product(exps):
        out = ONE
        for p, h in exps.items():
            out = out * p**h
        return out

    def extend(i, budget, chosen):
        try_odd_part(chosen)
        for j in range(i, len(primes)):
            d = degrees[j]
            if d > budget:
                continue
            for h in prime_parts[primes[j]]:
                if h * d <= budget:
                    chosen.append((primes[j], h))
                    extend(j + 1, budget - h * d, chosen)
                    chosen.pop()

    extend(0, cfg.max_degree - 2, [])
    hits.sort()
    return [(p, check(p, cfg.mode)) for p in hits]


def _sieve_masks(max_degree: int):
    """Smallest-prime-factor table over all masks of degree <= max_degree.

    Masks are visited in increasing order, so an unmarked mask has no
    smaller prime divisor and is itself irreducible; marking its
    in-range multiples fills the table like an Eratosthenes sieve.
    """
    limit = 1 << (max_degree + 1)
    spf = array("q", bytes(8 * limit))
    for p in range(2, limit):
        if spf[p]:
            continue
        pd = p.bit_length() - 1
        for q in range(1, 1 << (max_degree + 1 - pd)):
            v = _mul_mask(p, q)
            if not spf[v]:
                spf[v] = p
    return spf


def _divisor_sum_tables(max_degree: int, unitary: bool):
    # table[rest] is always ready before table[m]: deg(rest) < deg(m)
    limit = 1 << (max_degree + 1)
    spf = _sieve_masks(max_degree)
    table = array("q", bytes(8 * limit))
    table[1] = 1
    for m in range(2, limit):
        p = spf[m] or m
        pe = p
        rest, r = _divmod_mask(m, p)
        while True:
            q, r = _divmod_mask(rest, p)
            if r:
                break
            rest = q
            pe = _mul_mask(pe, p)
        part = (pe ^ 1) if unitary else _geometric_sum(p, pe)
        table[m] = _mul_mask(part, table[rest])
    return table


def _geometric_sum(p, pe):
    # 1 + p + p^2 + ... up to and including pe
    acc = 1
    cur = 1
    while cur != pe:
        cur = _mul_mask(cur, p)
        acc ^= cur
    return acc


def search_bruteforce(cfg: SearchConfig) -> list[Poly]:
    """Exhaustive scan of every polynomial of degree <= max_degree."""
    if cfg.family != "all":
        raise ValueError("brute force runs on family=all")
    table = _divisor_sum_tables(cfg.max_degree, cfg.mode == "unitary")
    return [Poly(m) for m in range(2, 1 << (cfg.max_degree + 1)) if table[m] == m]


@dataclass(frozen=True)
class HitClass:
    """One power-of-two equivalence class among search hits."""

    rep: Poly
    members: tuple[Poly, ...]
    trivial: bool  # no odd prime factor at all (the x(x+1) family)
    in_catalog: bool  # class of a cataloged perfect / unitary-perfect
    outside_scope: bool  # divisible by a non-Mersenne odd prime
    decomposable: bool

    def to_json_obj(self):
        return {
            "rep": str(self.rep),
            "members": [str(m) for m in self.members],
            "trivial": self.trivial,
            "in_catalog": self.in_catalog,
            "outside_scope": self.outside_scope,
            "decomposable": self.decomposable,
        }


@dataclass(frozen=True)
class ClassificationReport:
    mode: str
    classes: tuple[HitClass, ...]

    @property
    def flagged(self) -> tuple[HitClass, ...]:
        return tuple(c for c in self.classes if c.outside_scope)

    def nontrivial(self) -> tuple[HitClass, ...]:
        return tuple(c for c in self.classes if not c.trivial)

    def to_json_obj(self):
        return {"mode": self.mode, "classes": [c.to_json_obj() for c in self.classes]}


def classify_hits(hits, mode: str) -> ClassificationReport:
    """Group hits into classes and flag the notable ones.

    Unitary hits are grouped under their canonical power-of-two class
    representative (squaring and the x -> x+1 conjugate both preserve
    unitary perfection); perfect hits stay as singletons since squaring
    does not preserve sigma-perfection.  Representatives carrying a
    non-Mersenne odd prime are flagged as outside the structured
    family's scope; a representative that is neither cataloged, trivial,
    nor flagged would falsify the classification this package reproduces.
    """
    cat = catalog()
    groups: dict[Poly, list[Poly]] = {}
    if mode == "perfect":
        known_reps = set(cat.perfects)
        for h in hits:
            groups[h] = [h]
    else:
        known_reps = {canonical_class_rep(p) for p in cat.unitary_perfects}
        for h in hits:
            groups.setdefault(canonical_class_rep(h), []).append(h)
    classes = []
    for rep in sorted(groups):
        fact = factorize(rep)
        odd = [p for p, _ in fact if p != X and p != XP1]
        classes.append(
            HitClass(
                rep=rep,
                members=tuple(sorted(groups[rep])),
                trivial=not odd,
                in_catalog=rep in known_reps,
                outside_scope=any(mersenne_form(p) is None for p in odd),
                decomposable=not is_indecomposable(groups[rep][0], mode),
            )
        )
    return ClassificationReport(mode=mode, classes=tuple(classes))
