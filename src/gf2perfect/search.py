"""Two independent searches for perfect and unitary-perfect polynomials.

The structured search enumerates the family x^a (x+1)^b * prod P_i^h_i
with every P_i a Mersenne prime.  Each part's divisor sum is factored
once and packed into one integer exponent vector over x, x+1 and the
Mersenne primes in range; a part whose divisor sum has any other prime
is dropped (that prime would divide the whole polynomial, so nothing is
lost).  The enumeration then only adds and compares integers.  The
brute-force search makes no assumption about which primes appear: one
linear-sieve pass over all coefficient masks gives each mask's divisor
sum from a smaller mask's, with its products written inline rather than
through _mul_mask, and it tests sigma(A) = A literally.  It is
the oracle the structured route is checked against up to
BRUTEFORCE_MAX_DEGREE, the degree of T8 and T9.  Both return the sorted
hits; classify_hits groups and flags them.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import compress
from operator import eq, not_

from .divisors import canonical_class_rep, is_indecomposable
from .factor import factorize, factorize_composed
# bench/trace_launch.py wraps search._mul_mask and search._divmod_mask by
# name, so both stay imported here although search calls neither.
from .gf2poly import ONE, X, XP1, BudgetError, Poly, _byte_multiples, _divmod_mask, _mul_mask
from .mersenne import catalog, enumerate_mersenne_primes, mersenne_form

#: Hard guard for the exhaustive family=all search (2^(D+1) sigma values).
BRUTEFORCE_MAX_DEGREE = 20

MODES = ("perfect", "unitary")


@dataclass(frozen=True)
class SearchConfig:
    max_degree: int
    mode: str = "perfect"

    def __post_init__(self):
        if self.max_degree < 1:
            raise ValueError("max_degree must be positive")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")


def _part_sigma_table(cfg: SearchConfig):
    """Packed divisor sums for every admissible part.

    Each prime the search can use gets a fixed index: x is 0, x+1 is 1
    and the i-th Mersenne prime of degree <= max_degree - 2, in
    (-degree, mask) order, is i + 2.  A part's divisor sum is stored as
    the single int sum(mult << width * index); no field can carry, since
    every multiplicity is at most the candidate's degree, at most
    max_degree.  A part whose divisor sum has a prime outside the index
    is dropped: that prime would have to divide the hit.

    Returns (width, primes, x_parts, xp1_parts, prime_parts): the two
    linear tables map an exponent to its packed sum, and prime_parts[i]
    does the same for primes[i].
    """
    unitary = cfg.mode == "unitary"
    primes = []
    if cfg.max_degree >= 4:  # smallest candidate with an odd part is x(x+1)M1
        found = enumerate_mersenne_primes(cfg.max_degree - 2)
        primes = sorted((m.poly for m in found), key=lambda p: (-p.degree, p.mask))
    width = cfg.max_degree.bit_length() + 1
    shift = {p: width * i for i, p in enumerate([X, XP1, *primes])}

    def part_sum(base: Poly, e: int):
        # base is irreducible, so sigma*(base^e) = c(base) with c = z^e + 1
        # and sigma(base^e) = c(base) with c = 1 + z + ... + z^e
        c = X**e + ONE if unitary else (X ** (e + 1) + ONE) // XP1
        packed = 0
        for p, m in factorize_composed(c, base):
            if p not in shift:
                return None
            packed += m << shift[p]
        return packed

    def table(base: Poly, top: int):
        return {e: s for e in range(1, top + 1) if (s := part_sum(base, e)) is not None}

    x_parts = table(X, cfg.max_degree - 1)
    xp1_parts = table(XP1, cfg.max_degree - 1)
    prime_parts = [table(p, (cfg.max_degree - 2) // p.degree) for p in primes]
    return width, primes, x_parts, xp1_parts, prime_parts


def search_structured(cfg: SearchConfig) -> list[Poly]:
    """All (unitary) perfect polynomials of the Mersenne-restricted family, sorted.

    A candidate x^a (x+1)^b * prod P_i^h_i is perfect iff the divisor
    sums of its parts multiply out to the candidate's own prime multiset.
    With both sides packed as exponent vectors (see _part_sigma_table)
    a part is added with +, and the test is one integer comparison.  The
    odd part's sums fix b from a through the (x+1) field, so each odd
    part costs one probe per admissible a; a Poly is built only for a hit.
    """
    width, primes, x_parts, xp1_parts, prime_parts = _part_sigma_table(cfg)
    field = (1 << width) - 1
    degrees = [p.degree for p in primes]
    x_probes = [(a, fx, fx >> width & field) for a, fx in x_parts.items()]
    hits = []

    def hit(a, b, odd):
        poly = XP1**b << a
        for i, p in enumerate(primes):
            h = odd >> width * (i + 2) & field
            if h:
                poly = poly * p**h
        return poly

    def extend(i, budget, sums, odd):
        # budget is max_degree - 2 minus the odd part's degree
        vx1 = sums >> width & field
        # a hit has a >= the x field and b >= vx1, and extending only
        # grows sums and shrinks budget: no hit below this node
        if (sums & field) + vx1 > budget + 2:
            return
        for a, fx, fx_xp1 in x_probes:
            b = vx1 + fx_xp1
            f1 = xp1_parts.get(b)
            if f1 is None or a + b > budget + 2:
                continue
            if sums + fx + f1 == odd + a + (b << width):
                hits.append(hit(a, b, odd))
        for j in range(i, len(primes)):
            d = degrees[j]
            if d > budget:
                continue
            for h, s in prime_parts[j].items():
                if h * d <= budget:
                    extend(j + 1, budget - h * d, sums + s, odd + (h << width * (j + 2)))

    extend(0, cfg.max_degree - 2, 0, 0)
    hits.sort()
    return hits


def _divisor_sum_tables(max_degree: int, unitary: bool):
    """sigma (or sigma*) of every mask of degree <= max_degree, by linear sieve.

    Masks are visited in increasing order, in bands of one degree; an
    unmarked mask is prime.  Each composite v is written exactly once, as
    p * q with p = spf[v] its least prime and q already final (Gries &
    Misra's linear sieve).  rest[q] is q with every factor p = spf[q]
    divided out, so q = p^k r, v = p^(k+1) r, and the divisor sum of v
    follows from q's and r's by multiplicativity.  No product goes
    through _mul_mask: p = x and p = x+1, the least prime of most
    composites, multiply as q << 1 and q ^ q << 1, and every other least
    prime (degree 2 .. max_degree / 2) multiplies through its own table
    of byte multiples, three lookups for an operand below 2^24.  Within a
    band the room left, and so the list of usable primes, is fixed.
    Every entry is a mask below 2^(max_degree + 1).
    """
    if not 1 <= max_degree <= 25:  # q and its divisor sum, of degree <= max_degree - 2, must fit in three bytes
        raise ValueError(f"divisor-sum tables are built for degree 1 to 25, got {max_degree}")
    limit = 1 << (max_degree + 1)
    spf = array("I", bytes(4 * limit))
    rest = array("I", bytes(4 * limit))
    table = array("I", bytes(4 * limit))
    table[1] = 1
    others = []  # (p, byte multiples of p) for each prime p of degree 2 .. max_degree / 2
    for d in range(1, max_degree):
        room = max_degree - d  # a least prime p may have degree <= room
        # a prime of this band is appended to others iff d <= room, and then p = q is usable
        usable = others if d <= room else [(p, m) for p, m in others if p.bit_length() - 1 <= room]
        for q in range(1 << d, 2 << d):
            sq = spf[q]
            if not sq:
                sq = spf[q] = q
                rest[q] = 1
                table[q] = q ^ 1
                if 2 <= d <= room:
                    others.append((q, array("I", _byte_multiples(q))))
            s = table[q]
            v = q << 1  # p = x, sigma(x) = sigma*(x) = x + 1
            spf[v] = 2
            if sq == 2:
                r = rest[v] = rest[q]
                t = table[r]
                table[v] = s << 1 ^ (t ^ t << 1 if unitary else t)
                continue
            rest[v] = q
            table[v] = s ^ s << 1
            v ^= q  # p = x + 1, sigma(x + 1) = sigma*(x + 1) = x
            spf[v] = 3
            if sq == 3:
                r = rest[v] = rest[q]
                t = table[r]
                table[v] = s ^ s << 1 ^ (t << 1 if unitary else t)
                continue
            rest[v] = q
            table[v] = s << 1
            if not usable:
                continue
            # sq is a prime of degree >= 2, so usable's first prime x^2 + x + 1 is <= sq
            q0, q1, q2 = q & 255, q >> 8 & 255, q >> 16
            s0, s1, s2 = s & 255, s >> 8 & 255, s >> 16
            for p, m in usable:
                if p > sq:
                    break
                v = m[q0] ^ m[q1] << 8 ^ m[q2] << 16
                ps = m[s0] ^ m[s1] << 8 ^ m[s2] << 16
                spf[v] = p
                if p < sq:  # p does not divide q: (p + 1) * s
                    rest[v] = q
                    table[v] = ps ^ s
                    continue
                r = rest[v] = rest[q]
                t = table[r]
                if unitary:  # sigma*(p^(k+1)) = p * sigma*(p^k) + p + 1
                    table[v] = ps ^ m[t & 255] ^ m[t >> 8 & 255] << 8 ^ m[t >> 16] << 16 ^ t
                else:  # sigma(p^(k+1)) = p * sigma(p^k) + 1
                    table[v] = ps ^ t
    top = 1 << max_degree  # the top band writes no product: only its primes, the masks left unmarked
    for q in compress(range(top, limit), map(not_, memoryview(spf)[top:])):
        spf[q] = q
        rest[q] = 1
        table[q] = q ^ 1
    return table


def search_bruteforce(cfg: SearchConfig) -> list[Poly]:
    """Exhaustive scan of every polynomial of degree <= max_degree."""
    if cfg.max_degree > BRUTEFORCE_MAX_DEGREE:
        raise BudgetError(f"family=all search is guarded at degree {BRUTEFORCE_MAX_DEGREE}")
    table = _divisor_sum_tables(cfg.max_degree, cfg.mode == "unitary")
    masks = range(len(table))
    return [Poly(m) for m in compress(masks, map(eq, table, masks)) if m > 1]


@dataclass(frozen=True)
class HitClass:
    """One power-of-two equivalence class among search hits."""

    rep: Poly
    members: tuple[Poly, ...]
    trivial: bool  # no odd prime factor at all (the x(x+1) family)
    in_catalog: bool  # class of a cataloged perfect / unitary-perfect
    outside_scope: bool  # divisible by a non-Mersenne odd prime
    decomposable: bool


@dataclass(frozen=True)
class ClassificationReport:
    classes: tuple[HitClass, ...]

    @property
    def flagged(self) -> tuple[HitClass, ...]:
        return tuple(c for c in self.classes if c.outside_scope)

    @property
    def nontrivial(self) -> tuple[HitClass, ...]:
        return tuple(c for c in self.classes if not c.trivial)


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
    return ClassificationReport(classes=tuple(classes))
