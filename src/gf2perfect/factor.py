"""Irreducibility testing, factorization and counting over GF(2).

Factorization runs squarefree splitting (derivative/gcd plus square-root
extraction, which in characteristic 2 replaces Yun's algorithm), then
distinct-degree splitting, then equal-degree splitting with the
characteristic-2 trace map.  The equal-degree stage tries the fixed
candidates x^k, k = deg f, deg f + 1, ..., and makes no random draws; the
factorization over GF(2) is unique and returned sorted, so the result
depends on the input only.  is_irreducible is the distinct-degree loop
stopped at its first factor.

The distinct-degree loop and the trace map work on coefficient masks:
they square with the Frobenius spread and reduce with a per-modulus byte
table (gf2poly._reducer), built once per modulus and rebuilt whenever the
distinct-degree loop divides a factor out; the loop's gcds are the fused
Euclid kernel.

factorize_composed factors c(p), the polynomial c with p substituted for
x, one irreducible factor q of c at a time: c(p) is the product of the
q(p)^e, and each q(p) is usually far smaller than c(p).  The divisor
sums sigma(P^n) = (1 + z + ... + z^n)(P) and sigma*(P^n) = (z^n + 1)(P)
of an irreducible P reach factorize only as these pieces, split by
divisors.factor_sigma_prime_power for search and verify, neither of
which caches a split.  verify splits each sigma(M^n) once and hands the
split to every check on it, so a piece recurs only across n (z^2 + z + 1
divides 1 + z + ... + z^2h whenever 3 | 2h + 1); factorize's cache, the
only one here, factors it once per process.
"""

from __future__ import annotations

from functools import lru_cache

from . import _intmath
from .gf2poly import ONE, X, BudgetError, Poly, _divmod_mask, _gcd_mask, _mod_mask, _mul_mask, _reducer, _sqr_mask, gcd

#: is_primitive refuses degrees whose group order 2^r - 1 exceeds this.
PRIMITIVITY_DEGREE_CAP = 64


class Factorization(tuple):
    """Complete factorization: distinct irreducibles with multiplicities.

    A tuple of (prime, multiplicity) pairs sorted by (degree, coefficient
    mask), which for the mask representation is plain mask order.
    Immutable, like Poly; as with the NamedTuple records, a Factorization
    equals the plain tuple of the same pairs and hashes like it.
    """

    __slots__ = ()

    def __new__(cls, factors: tuple[tuple[Poly, int], ...]):
        return super().__new__(cls, factors)

    def __repr__(self):
        return f"Factorization(factors={tuple(self)!r})"

    @property
    def is_squarefree(self) -> bool:
        return all(m == 1 for _, m in self)

    def reconstruct(self) -> Poly:
        out = ONE
        for p, m in self:
            out = out * p**m
        return out

    def __str__(self):
        parts = []
        for p, m in self:
            text = str(p)
            if "+" in text:
                text = f"({text})"
            parts.append(text if m == 1 else f"{text}^{m}")
        return " * ".join(parts) if parts else "1"


def is_irreducible(p: Poly) -> bool:
    """Deterministic irreducibility test (Ben-Or's criterion).

    A reducible p of degree n has an irreducible factor of degree d <= n/2,
    so p is irreducible iff gcd(x^(2^d) - x, p) = 1 for every d <= n/2
    (Ben-Or 1981; Gao & Panario 1997).  That is the first step of the
    distinct-degree split: p is irreducible iff the split's first part is
    p itself.
    """
    if not p or p.degree < 1:
        raise ValueError("irreducibility is defined for nonconstant polynomials")
    return next(_distinct_degree_parts(p))[0] == p.degree


def _equal_degree_split(f, d, r):
    # f is the mask of a product of distinct irreducibles of degree d and
    # r = x^k mod f; yields the factors' masks.  Each try takes the trace
    # t = r + r^2 + ... + r^(2^(d-1)) mod f, which is Tr(x^k) in {0, 1}
    # modulo every factor g, and splits f by gcd(f, t), then steps to k + 1.
    # Write s_g(k) for that bit.  For distinct factors g and h, s_g + s_h
    # is the sum of rho^k over the 2d distinct nonzero roots rho of gh, a
    # linear recurring sequence whose minimal polynomial is gh, of degree
    # 2d, so it cannot vanish on 2d consecutive k.  Every k tried at an
    # ancestor gave one bit on all factors of the current part, so the
    # window that starts at the top-level k covers every pair, and a path
    # from the root to a leaf tries at most 2d candidates.  For d = 1,
    # x and x + 1 give 0 and 1 at every k >= 1 and split at the first try.
    n = f.bit_length() - 1
    if n == d:
        yield f
        return
    reduce, key = _reducer(f)
    top = 1 << n
    while True:
        t = cur = r
        for _ in range(d - 1):
            cur = reduce(_sqr_mask(cur), key)
            t ^= cur
        u = _gcd_mask(f, t)
        r <<= 1
        if r & top:
            r ^= f
        if 1 < u < f:
            break
    v = _divmod_mask(f, u)[0]
    yield from _equal_degree_split(u, d, _mod_mask(r, u))
    yield from _equal_degree_split(v, d, _mod_mask(r, v))


def _distinct_degree_parts(f: Poly):
    # yields (d, g): g the product of f's irreducible factors of degree d,
    # exact for squarefree f; what is left past deg/2 comes last as one part
    fm = f.mask
    reduce, key = _reducer(fm)
    r = reduce(2, key)  # x mod f
    d = 0
    while 2 * (d + 1) < fm.bit_length():
        d += 1
        r = reduce(_sqr_mask(r), key)
        g = _gcd_mask(fm, r ^ 2)
        if g > 1:
            yield d, Poly(g)
            fm = _divmod_mask(fm, g)[0]
            reduce, key = _reducer(fm)
            r = reduce(r, key)
    if fm > 1:
        yield fm.bit_length() - 1, Poly(fm)


@lru_cache(maxsize=8192)
def _factorize_cached(mask: int) -> Factorization:
    """factorize's memo, keyed by mask.  maxsize is never reached in the runs
    measured: a fresh process holds 2,022 entries after verify 8/60, 3,532
    after 12/60 and 3,233 after the structured search at degree 256 (perfect;
    3,002 unitary), with as many misses, so nothing was evicted."""
    counts: dict[int, int] = {}
    f = Poly(mask)
    scale = 1
    while f.degree > 0:
        df = f.derivative()
        if not df:
            f = f.sqrt()
            scale *= 2
            continue
        # w collects each prime whose multiplicity in f is odd, once;
        # the cofactor f // w is then a perfect square
        w = f // gcd(f, df)
        for d, g in _distinct_degree_parts(w):
            # the first candidate is x^deg(g) mod g
            for prime in _equal_degree_split(g.mask, d, g.mask ^ 1 << g.degree):
                counts[prime] = counts.get(prime, 0) + scale
        f = (f // w).sqrt()
        scale *= 2
    return Factorization(factors=tuple((Poly(m), e) for m, e in sorted(counts.items())))


def factorize(p: Poly) -> Factorization:
    """Complete factorization of a nonzero polynomial."""
    if not p:
        raise ValueError("cannot factor the zero polynomial")
    return _factorize_cached(p.mask)


def _compose_mask(c: int, p: int) -> int:
    # c(p) by Horner's rule, top coefficient first
    acc = 0
    for i in range(c.bit_length() - 1, -1, -1):
        acc = _mul_mask(acc, p) ^ (c >> i & 1)
    return acc


def factorize_composed(c: Poly, p: Poly) -> Factorization:
    """Complete factorization of c(p), c with p substituted for x.

    c is factored first, c = prod q^e over distinct irreducibles q; then
    c(p) = prod q(p)^e, since substitution is a ring homomorphism, and
    each q(p) is factored on its own.  For distinct q and q' the pieces
    q(p) and q'(p) are coprime: a common root beta would make p(beta) a
    common root of q and q', which have none.  So every irreducible of
    c(p) comes from exactly one piece, with e times its multiplicity
    there.  This holds for any p and for repeated factors of c alike;
    nothing about the degrees of the pieces' factors is assumed.  The
    result equals factorize(c(p)); a constant p with c(p) = 0 raises
    ValueError as factorize does.
    """
    if not c:
        raise ValueError("cannot factor the zero polynomial")
    counts: dict[Poly, int] = {}
    for q, e in factorize(c):
        for r, f in factorize(Poly(_compose_mask(q.mask, p.mask))):
            counts[r] = counts.get(r, 0) + e * f
    return Factorization(factors=tuple(sorted(counts.items())))


def is_squarefree(p: Poly) -> bool:
    """True iff no irreducible factor repeats.

    Uses the derivative criterion: a nonzero p is squarefree exactly when
    gcd(p, p') = 1 (a repeated or even-multiplicity factor survives into
    the gcd; a square has p' = 0).
    """
    if not p:
        raise ValueError("squarefreeness is undefined for the zero polynomial")
    return gcd(p, p.derivative()) == ONE


def count_irreducibles(m: int) -> int:
    """Number of irreducible polynomials of degree m over GF(2).

    Standard necklace count: N(m) = (1/m) * sum_{d | m} mu(m/d) 2^d.
    """
    if m < 1:
        raise ValueError("degree must be positive")
    total = 0
    for d in range(1, m + 1):
        if m % d:
            continue
        k = m // d
        kf = _intmath.factorize_int(k)
        if any(e > 1 for e in kf.values()):
            continue
        mu = -1 if len(kf) % 2 else 1
        total += mu * (1 << d)
    return total // m


def is_primitive(p: Poly) -> bool:
    """True iff x generates the multiplicative group modulo p: iff
    x^((2^r - 1)/q) != 1 for every prime q dividing 2^r - 1, r = deg p."""
    if not is_irreducible(p):
        raise ValueError("order of x is computed modulo an irreducible polynomial")
    r = p.degree
    if r > PRIMITIVITY_DEGREE_CAP:
        raise BudgetError(f"group order 2^{r}-1 exceeds the supported factoring range")
    if p == X:  # x = 0 mod p has no order
        raise ValueError("x has no multiplicative order modulo x")
    order = (1 << r) - 1
    return all(pow(X, order // q, p) != ONE for q in _intmath.prime_factors(order))
