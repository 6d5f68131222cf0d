"""Two independent searches for perfect and unitary-perfect polynomials.

The structured search enumerates the family x^a (x+1)^b * prod P_i^h_i
with every P_i a Mersenne prime.  Each part's divisor sum is factored
once (divisors.factor_sigma_prime_power) and packed into one integer
exponent vector over x, x+1 and the Mersenne primes in range; a part
whose divisor sum has any other prime is dropped (that prime would
divide the whole polynomial, so nothing is lost).  A flat scan then
reads each candidate's odd exponents off its packed divisor sum (see
search_structured).  The brute-force search makes no assumption about
which primes appear: it builds every mask's divisor sum by
multiplicativity, prime by prime in a fixed order, so each mask is
produced exactly once, and it tests sigma(A) = A literally: the low byte
of every table entry is compared with the mask's own at once, and each
match is confirmed in full.  Its products run on whole arrays at a time,
32-bit lanes packed into one int and multiplied by a fixed polynomial
with shifts and XORs; no product reaches degree 32, so no lane carries
into the next.  It is the oracle the structured route is checked against
up to BRUTEFORCE_MAX_DEGREE, the degree of T8 and T9.  Both return the
sorted hits; classify_hits groups and flags them.
"""

from __future__ import annotations

import sys
from array import array
from collections import deque
from itertools import accumulate, compress, repeat
from operator import not_, setitem, xor
from typing import NamedTuple

from .divisors import canonical_class_rep, factor_sigma_prime_power, is_indecomposable, is_unitary
from .factor import count_irreducibles, factorize
# bench/trace_launch.py wraps search._mul_mask and search._divmod_mask by
# name; search calls _mul_mask, and _divmod_mask stays imported for the tracer.
from .gf2poly import X, XP1, BudgetError, Poly, _divmod_mask, _mul_mask
from .mersenne import catalog, enumerate_mersenne_primes, mersenne_form

#: Hard guard for the exhaustive family=all search (2^(D+1) sigma values).
BRUTEFORCE_MAX_DEGREE = 20


def _check_search_args(max_degree: int, mode: str) -> bool:
    if max_degree < 1:
        raise ValueError("max_degree must be positive")
    return is_unitary(mode)


def _part_sigma_table(max_degree: int, mode: str):
    """Packed divisor sums for every admissible part.

    Each prime the search can use gets one index, which is also its
    field: primes = [x, x+1, *the Mersenne primes of degree <= max_degree
    - 2].  A part's divisor sum is stored as the single int
    sum(mult << width * index), with 2^width > 2 max_degree.  A part
    whose divisor sum has a prime outside the index is dropped: that
    prime would have to divide the hit.

    Returns (width, primes, parts): parts[i] maps e to the packed sum of
    primes[i]^e, for e <= max_degree - 1 when primes[i] is x or x+1 and
    e <= (max_degree - 2) // deg for a Mersenne prime of degree deg.
    """
    unitary = mode == "unitary"
    primes = [X, XP1]
    if max_degree >= 4:  # smallest candidate with an odd part is x(x+1)M1
        primes += [m.poly for m in enumerate_mersenne_primes(max_degree - 2)]
    width = max_degree.bit_length() + 1
    shift = {p: width * i for i, p in enumerate(primes)}

    def part_sum(base: Poly, e: int):
        packed = 0
        for p, m in factor_sigma_prime_power(base, e, unitary):
            if p not in shift:
                return None
            packed += m << shift[p]
        return packed

    def table(base: Poly, top: int):
        return {e: s for e in range(1, top + 1) if (s := part_sum(base, e)) is not None}

    parts = [table(p, max_degree - 1) for p in primes[:2]]
    parts += [table(p, (max_degree - 2) // p.degree) for p in primes[2:]]
    return width, primes, parts


def search_structured(max_degree: int, mode: str = "perfect") -> list[Poly]:
    """All (unitary) perfect polynomials of the Mersenne-restricted family, sorted.

    A candidate A = x^a (x+1)^b * prod P_i^h_i is perfect iff its parts'
    packed divisor sums (see _part_sigma_table) add up to A's packed
    exponents, field k holding the power of primes[k].  A part is special
    if its sum has an odd field (k >= 2); only the x part, the x+1 part
    and special parts reach the odd fields, so each choice of at most one
    special part per prime, with a and b, names one candidate: their
    sums' odd fields, under a and b.  A hit is read back field by field.

    Complete: a hit's own special parts are a choice, and with them the
    odd fields are its h_i.  Sound: the last comparison is sigma(A) = A.
    No carry: every part added has degree <= max_degree - 2 and the
    adding stops once the degree passes max_degree, so each field stays
    <= 2 max_degree - 2 < 2^width.
    """
    _check_search_args(max_degree, mode)
    width, primes, parts = _part_sigma_table(max_degree, mode)
    field, odd = (1 << width) - 1, 2 * width
    degrees = [p.degree for p in primes]
    choices = [(0, 0)]  # (degree, packed sum)
    for table, d in zip(parts[2:], degrees[2:]):
        special = [(h * d, s) for h, s in table.items() if s >> odd]
        choices += [(c + e, sums + s) for c, sums in choices for e, s in special if c + e <= max_degree - 2]
    found = set()  # two choices can name one hit
    for c, sums in choices:
        for a, fx in parts[0].items():
            for b, f1 in parts[1].items():
                if c + a + b > max_degree:
                    continue
                want = (sums + fx + f1) >> odd << odd | b << width | a
                total, degree, rest = fx + f1, a + b, want >> odd << odd
                while rest and degree <= max_degree:
                    k = ((rest & -rest).bit_length() - 1) // width  # the lowest odd field left
                    h = rest >> width * k & field
                    rest ^= h << width * k
                    if (s := parts[k].get(h)) is None:
                        break
                    total, degree = total + s, degree + h * degrees[k]
                else:
                    if degree <= max_degree and total == want:
                        found.add(want)
    hits = []
    for want in found:
        poly = Poly(1)
        for k, p in enumerate(primes):
            if h := want >> width * k & field:
                poly = poly * p**h
        hits.append(poly)
    return sorted(hits)


def _divisor_sum_tables(max_degree: int, unitary: bool):
    """sigma (or sigma*) of every mask of degree <= max_degree, on packed lanes.

    The odd masks are built by degree into buckets: masks[k] and sums[k]
    hold masks of degree k and their divisor sums, and bucket 0 holds 1.
    For d = 1 .. max_degree in turn, bucket d is written into the table;
    the odd masks of degree d whose entry is still 0 are then exactly the
    primes of degree d, and each gets p + 1.  A prime p with 2d <= max_degree
    is taken on its own, in mask order: for e = 1, 2, ... every entry m
    already in a bucket, which p does not divide, gives p^e m with divisor
    sum sigma(p^e) sigma(m) (sigma*: (p^e + 1) sigma*(m)); the buckets
    0 .. max_degree - d are laid side by side, so each power of p costs two
    products.  A prime with 2d > max_degree divides a mask at most once,
    beside a cofactor of degree < d, so all primes of degree d are
    multiplied by each cofactor at once.  A prime of degree max_degree
    divides no other mask in range and is no factor of any product, so the
    top degree needs no detection: every odd lane of that degree is first
    written m + 1, as if prime, and its composites are then written over
    it.  Last, x^j m for odd m gets sigma(x^j) sigma(m) by strided slices
    of the table, each from the one before: sigma(x^j) = sigma(x^(j-1)) + x^j
    and sigma*(x^j) = 1 + x^j.

    Every product is taken on a whole array at a time: the array's 32-bit
    lanes are packed into one int, multiplied by a fixed polynomial with
    _mul_mask, the package's one carry-less kernel, and unpacked.  Exact,
    for two reasons.  Factorization is unique, the primes are taken in a fixed
    order, and each new entry is p^e times an entry p does not divide, so
    every odd mask above 1 is produced exactly once, before its bucket is
    written (its primes have lower degree).  And every product, mask or
    divisor sum, has degree <= max_degree <= 25 < 32, so no lane carries
    into the next.  Every entry is a mask below 2^(max_degree + 1).

    The first reason is also checked as the table is built: a product
    taken twice would write the same values twice and leave the table
    right, only slower, so bucket d must hold exactly the 2^(d-1) odd
    masks of degree d less the N(d) primes among them (x, the one even
    prime, counted back in at d = 1), or RuntimeError is raised.
    """
    if not 1 <= max_degree <= 25:  # every product must fit in its 32-bit lane with room to spare
        raise ValueError(f"divisor-sum tables are built for degree 1 to 25, got {max_degree}")
    order = sys.byteorder  # array("I") holds its lanes in native byte order

    def pack(vector) -> int:
        return int.from_bytes(vector, order)

    def product(lanes: int, nbytes: int, c: int) -> bytes:
        return _mul_mask(c, lanes).to_bytes(nbytes, order)

    def scatter(keys: array, values: array):  # table[k] = v for each pair, with no Python-level loop
        deque(map(setitem, repeat(table), keys, values), maxlen=0)

    table = array("I", [0]) * (2 << max_degree)
    table[1] = 1
    masks = [array("I", [1])] + [array("I") for _ in range(max_degree)]
    sums = [array("I", [1])] + [array("I") for _ in range(max_degree)]
    for d in range(1, max_degree + 1):
        room = max_degree - d
        low = 1 << d
        if len(masks[d]) != (low >> 1) - count_irreducibles(d) + (d == 1):
            raise RuntimeError(f"divisor-sum table: bucket of degree {d} does not hold each composite once")
        if not room:  # a prime of the top degree is no factor of any product: write m + 1 for all
            table[low + 1 :: 2] = array("I", range(low, 2 * low, 2))
        # bucket d holds every composite of degree d: its primes have lower degree
        scatter(masks[d], sums[d])
        if d > room:  # no mask of degree d is a cofactor still to come
            masks[d] = sums[d] = None
        if not room:  # the composites overwrote their lanes; the rest are the primes
            break
        primes = array("I", compress(range(low + 1, 2 * low, 2), map(not_, table[low + 1 : 2 * low : 2])))
        succ = array("I", map(xor, primes, repeat(1)))  # sigma(p) = sigma*(p) = p + 1
        scatter(primes, succ)
        if d <= room:
            for p in primes:
                # what the buckets hold so far is exactly what p does not divide;
                # ends[k] is where bucket k ends in the side-by-side bytes
                ends = list(accumulate(4 * len(masks[k]) for k in range(room + 1)))
                row_masks = b"".join(masks[k].tobytes() for k in range(room + 1))
                row_sums = b"".join(sums[k].tobytes() for k in range(room + 1))
                pe = spe = 1
                for e in range(1, max_degree // d + 1):
                    pe = _mul_mask(pe, p)
                    spe = pe ^ 1 if unitary else spe ^ pe  # sigma(p^e) = sigma(p^(e-1)) + p^e
                    top = max_degree - e * d  # buckets 0 .. top times p^e stay in range
                    nbytes = ends[top]
                    out_masks = product(pack(row_masks[:nbytes]), nbytes, pe)
                    out_sums = product(pack(row_sums[:nbytes]), nbytes, spe)
                    for k, start, stop in zip(range(e * d, max_degree + 1), [0, *ends], ends[: top + 1]):
                        masks[k].frombytes(out_masks[start:stop])
                        sums[k].frombytes(out_sums[start:stop])
        else:  # a cofactor of degree <= room < d has no prime of degree >= d
            nbytes = 4 * len(primes)
            packed, packed_succ = pack(primes), pack(succ)
            for k in range(1, room + 1):
                for m, s in zip(masks[k], sums[k]):
                    masks[d + k].frombytes(product(packed, nbytes, m))
                    sums[d + k].frombytes(product(packed_succ, nbytes, s))
    prev = b""  # slice j - 1's products sigma(x^(j-1)) m, for the perfect recurrence
    for j in range(1, max_degree + 1):
        # sigma(x^j m) = sigma(x^j) sigma(m) for each odd m of degree <= max_degree - j
        nbytes = 4 << max_degree - j
        lanes = pack(table[1 : 2 << max_degree - j : 2])
        # sigma*(x^j) = 1 + x^j, and sigma(x^j) = sigma(x^(j-1)) + x^j
        base = lanes if unitary or j == 1 else pack(prev[:nbytes])
        prev = (base ^ lanes << j).to_bytes(nbytes, order)
        table[1 << j :: 2 << j] = array("I", prev)
    return table


def search_bruteforce(max_degree: int, mode: str = "perfect") -> list[Poly]:
    """Exhaustive scan of every polynomial of degree <= max_degree.

    A fixed point table[m] = m agrees with m in its low byte, so the scan
    XORs the table's low-byte plane with the bytes m mod 256 and confirms
    each zero byte, about one lane in 256, with the full comparison.
    """
    unitary = _check_search_args(max_degree, mode)
    if max_degree > BRUTEFORCE_MAX_DEGREE:
        raise BudgetError(f"family=all search is guarded at degree {BRUTEFORCE_MAX_DEGREE}")
    table = _divisor_sum_tables(max_degree, unitary)
    n = len(table)
    plane = memoryview(table).cast("B")[0 if sys.byteorder == "little" else 3 :: 4]
    identity = (bytes(range(256)) * (n + 255 >> 8))[:n]  # m mod 256 for each m
    diff = (int.from_bytes(plane, "little") ^ int.from_bytes(identity, "little")).to_bytes(n, "little")
    hits = []
    m = diff.find(0, 2)  # 0 and 1 are not hits
    while m >= 0:
        if table[m] == m:
            hits.append(Poly(m))
        m = diff.find(0, m + 1)
    return hits


class HitClass(NamedTuple):
    """One power-of-two equivalence class among search hits."""

    rep: Poly
    members: tuple[Poly, ...]
    trivial: bool  # no odd prime factor at all (the x(x+1) family)
    in_catalog: bool  # class of a cataloged perfect / unitary-perfect
    outside_scope: bool  # divisible by a non-Mersenne odd prime
    decomposable: bool


def classify_hits(hits, mode: str) -> tuple[HitClass, ...]:
    """Group hits into classes, sorted by representative, and flag the notable ones.

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
    if is_unitary(mode):
        known_reps = {canonical_class_rep(p) for p in cat.unitary_perfects}
        for h in hits:
            groups.setdefault(canonical_class_rep(h), []).append(h)
    else:
        known_reps = set(cat.perfects)
        for h in hits:
            groups[h] = [h]
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
    return tuple(classes)
