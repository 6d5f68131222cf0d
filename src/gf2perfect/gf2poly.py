"""Exact arithmetic for polynomials over the two-element field.

A polynomial c_n x^n + ... + c_1 x + c_0 with c_i in {0, 1} is stored as
the nonnegative integer c_n 2^n + ... + c_1 2 + c_0, so bit i of the
integer is the coefficient of x^i.  Python's arbitrary-precision integers
give dense packed-bit storage for free: addition is XOR, multiplication
by x^k is a left shift, and equality/ordering of masks coincides with the
canonical (degree, coefficient-mask) ordering used throughout.

The zero polynomial is the integer 0 and its degree is the distinct
sentinel ``NEG_INFINITY`` (never -1), so degree laws such as
deg(p*q) = deg(p) + deg(q) stay testable.

Multiplication is one carry-less kernel: a shifted copy of one operand
per set bit of the other, the sparser.  Squaring moves bit i to bit 2i,
so it reads a's binary digits as base-4 digits with the interpreter's
own conversions, and the square root reads hex digits back as base-4
ones; neither keeps a table.
Repeated reduction modulo one f (the factoring loops square and reduce
many times per modulus) goes through _reducer: from a cutover degree on
it builds the 256 multiples of f once and clears the top byte a step,
reading each length once; below it, it is the bit-at-a-time _mod_mask.
The gcd kernel runs Euclid with each remainder computed inline: the two
operands take turns as the dividend, with no swap, and each remainder's
length is carried into the next division.  x -> x+1 is a superset sum
over index bits (Lucas's theorem: (x+1)^k is the sum of the x^i with i
a bit subset of k), one masked shift-XOR per bit of the length instead
of one step per coefficient.
"""

from __future__ import annotations

import re

NEG_INFINITY = float("-inf")

#: Modulus degree from which _reducer reduces with a byte table of multiples
#: of the modulus instead of one bit a step.
_REDUCE_TABLE_CUTOVER = 64

#: Largest degree the parser builds; a larger power, product or hex mask
#: raises BudgetError before it is computed.
PARSE_DEGREE_CAP = 1 << 16

# deepest parenthesis nesting parsed: four stack frames a level, well inside the recursion limit
_MAX_NESTING = 100


class BudgetError(RuntimeError):
    """A computation was refused because it exceeds a configured cost cap."""


def _sqr_mask(a):
    # Frobenius: squaring spreads bit i to bit 2i, so a's binary digits
    # read in base 4 are its square
    return int(bin(a)[2:], 4)


# hex digit -> base-4 digit made of its bits 0 and 2
_HALVE_HEX = str.maketrans("0123456789abcdef", "".join(str(h & 1 | h >> 1 & 2) for h in range(16)))


def _sqrt_mask(a):
    # inverse of _sqr_mask on the even bits: bits 2i move to bit i, odd bits are dropped
    return int(hex(a)[2:].translate(_HALVE_HEX), 4)


def _mul_mask(a, b):
    # one shifted copy of b per set bit of a, the sparser operand
    if a.bit_count() > b.bit_count():
        a, b = b, a
    acc = 0
    while a:
        low = a & -a
        acc ^= b * low  # low is a power of two, so this is a shift
        a ^= low
    return acc


def _divmod_mask(a, d):
    if d == 0:
        raise ZeroDivisionError("division by zero polynomial")
    dn = d.bit_length() - 1
    q = 0
    while True:
        shift = a.bit_length() - 1 - dn
        if shift < 0:
            return q, a
        q |= 1 << shift
        a ^= d << shift


def _mod_mask(a, d):
    if d == 0:
        raise ZeroDivisionError("division by zero polynomial")
    dn = d.bit_length() - 1
    while True:
        shift = a.bit_length() - 1 - dn
        if shift < 0:
            return a
        a ^= d << shift


def _reduction_table(f):
    # the 256 multiples of f, n = deg f, listed by their bits n..n+7
    # (f is monic, so each byte value is met once); entry i is the sum of
    # the multiples m_j whose bits n..n+7 read 2^j, over the bits j of i
    n = f.bit_length() - 1
    table = [0]
    m = f
    for _ in range(8):
        table += [t ^ m for t in table]
        m <<= 1
        if m >> n & 1:
            m ^= f
    return table


def _mod_table(a, table):
    # a mod f, eight bits a step, with f's _reduction_table (f is table[1]):
    # the top byte of a picks the multiple that clears it, and each length
    # is read once; the last byte, bits n..n+7, is cleared on return
    n = table[1].bit_length() - 1
    top = n + 8
    w = a.bit_length()
    while w > top:
        a ^= table[a >> (w - 8)] << (w - top)
        w = a.bit_length()
    return a ^ table[a >> n]


def _reducer(f):
    """(reduce, key) with reduce(a, key) == a mod f, for many a and one f.

    From degree _REDUCE_TABLE_CUTOVER on, reduce clears eight bits a step
    with f's table of multiples; below it, building the table costs more
    than it saves and reduce is _mod_mask itself, called with no wrapper.
    The bitwise branch pays at the structured search's small moduli: with
    the byte table for every modulus, search_structured(36, "perfect")
    took 58.2 ms against 32.6 ms, and search_structured(34, "unitary")
    40.5 ms against 22.0 ms (medians of 12 alternating in-process runs,
    factorize's cache cleared before each, on a 2-core Intel Xeon).
    """
    if f.bit_length() - 1 < _REDUCE_TABLE_CUTOVER:
        return _mod_mask, f
    return _mod_table, _reduction_table(f)


def _gcd_mask(a, b):
    # Euclid with each remainder computed in place, a and b taking turns as
    # the dividend instead of being swapped; each remainder's length is
    # carried into the next division, so a step reads one bit_length
    if not b:
        return a
    na, nb = a.bit_length(), b.bit_length()
    while True:
        while na >= nb:
            a ^= b << (na - nb)
            na = a.bit_length()
        if not a:
            return b
        while nb >= na:
            b ^= a << (nb - na)
            nb = b.bit_length()
        if not b:
            return a


def _bar_mask(a):
    # substitute x -> x+1.  By Lucas's theorem (x+1)^k is the sum of the x^i
    # whose index bits i are a subset of k's, so coefficient i of the image
    # is the XOR of a's coefficients k with i a subset of k: a superset sum,
    # one masked shift-XOR per index bit.  m marks the indices with bit j
    # set, from j = half the power of two that covers a's length down to 1
    j = 1 << (a.bit_length() - 1).bit_length() >> 1
    m = ((1 << j) - 1) << j
    while j:
        a ^= (a & m) >> j
        j >>= 1
        m ^= m >> j
    return a


def _even_positions_mask(width):
    # 0b...010101 covering bit positions 0, 2, ... below width
    w = width + (width & 1)
    return ((1 << w) - 1) // 3


class Poly:
    """Immutable polynomial over GF(2), wrapping a coefficient bitmask.

    Supports +, *, **, divmod, //, %, << (shift by x^k) between Poly
    values, and pow(p, n, modulus).  Comparison orders by mask, which
    sorts by degree first and then by coefficients.
    """

    __slots__ = ("mask",)

    def __init__(self, mask: int):
        if not isinstance(mask, int) or mask < 0:
            raise ValueError("coefficient mask must be a nonnegative integer")
        object.__setattr__(self, "mask", mask)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @property
    def degree(self):
        """Degree of the polynomial; NEG_INFINITY for the zero polynomial."""
        if self.mask == 0:
            return NEG_INFINITY
        return self.mask.bit_length() - 1

    def alpha(self, l: int) -> int:
        """Coefficient of x^(deg - l), indexing from the leading term down."""
        if self.mask == 0:
            raise ValueError("alpha is undefined for the zero polynomial")
        deg = self.mask.bit_length() - 1
        if not 0 <= l <= deg:
            raise ValueError(f"alpha index {l} out of range 0..{deg}")
        return self.mask >> (deg - l) & 1

    def __add__(self, other):
        return Poly(self.mask ^ other.mask)

    __sub__ = __add__

    def __mul__(self, other):
        return Poly(_mul_mask(self.mask, other.mask))

    def __pow__(self, n: int, modulus: "Poly | None" = None):
        """self**n, or with pow(self, n, modulus) self^n mod modulus, reduced every step."""
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        base, result = self.mask, 1
        m = None if modulus is None else modulus.mask
        if m is not None:  # a zero modulus raises ZeroDivisionError here
            base, result = _mod_mask(base, m), _mod_mask(1, m)
        while n:
            if n & 1:
                result = _mul_mask(result, base)
            n >>= 1
            if n:
                base = _sqr_mask(base)
            if m is not None:
                result, base = _mod_mask(result, m), _mod_mask(base, m)
        return Poly(result)

    def __divmod__(self, other):
        q, r = _divmod_mask(self.mask, other.mask)
        return Poly(q), Poly(r)

    def __floordiv__(self, other):
        return Poly(_divmod_mask(self.mask, other.mask)[0])

    def __mod__(self, other):
        return Poly(_mod_mask(self.mask, other.mask))

    def __lshift__(self, k: int):
        if k < 0:
            raise ValueError("shift must be nonnegative")
        return Poly(self.mask << k)

    def divides(self, other: "Poly") -> bool:
        return _mod_mask(other.mask, self.mask) == 0

    def square(self) -> "Poly":
        return Poly(_sqr_mask(self.mask))

    def is_square(self) -> bool:
        """True iff every odd-exponent coefficient vanishes."""
        if self.mask == 0:
            raise ValueError("zero polynomial has no square status")
        odd = _even_positions_mask(self.mask.bit_length()) << 1
        return self.mask & odd == 0

    def sqrt(self) -> "Poly":
        if not self.is_square():
            raise ValueError(f"{self} is not a square")
        return Poly(_sqrt_mask(self.mask))

    def derivative(self) -> "Poly":
        even = _even_positions_mask(self.mask.bit_length())
        return Poly((self.mask >> 1) & even)

    def bar(self) -> "Poly":
        """Composition with x+1; an involution and ring homomorphism."""
        return Poly(_bar_mask(self.mask))

    def valuation(self, at: "Poly") -> int:
        """Largest e such that at^e divides self, for at in {x, x+1}."""
        if self.mask == 0:
            raise ValueError("valuation is undefined for the zero polynomial")
        if at == X:
            m = self.mask
        elif at == XP1:
            m = _bar_mask(self.mask)
        else:
            raise ValueError("valuation is only defined at x and x+1")
        return (m & -m).bit_length() - 1

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.mask == other.mask

    def __lt__(self, other):
        return self.mask < other.mask

    def __le__(self, other):
        return self.mask <= other.mask

    def __hash__(self):
        return hash(self.mask)

    def __bool__(self):
        return self.mask != 0

    def __reduce__(self):
        return (Poly, (self.mask,))

    def __str__(self):
        """Canonical descending-power expression, e.g. 'x^4+x^3+1'."""
        m = self.mask
        if m == 0:
            return "0"
        terms = []
        for i in range(m.bit_length() - 1, -1, -1):
            if m >> i & 1:
                if i == 0:
                    terms.append("1")
                elif i == 1:
                    terms.append("x")
                else:
                    terms.append(f"x^{i}")
        return "+".join(terms)

    def __repr__(self):
        return f"Poly({str(self)!r})"


ZERO = Poly(0)
ONE = Poly(1)
X = Poly(2)
XP1 = Poly(3)


def gcd(p: Poly, q: Poly) -> Poly:
    """Greatest common divisor; undefined for two zero inputs."""
    if not p and not q:
        raise ValueError("gcd(0, 0) is undefined")
    return Poly(_gcd_mask(p.mask, q.mask))


_TOKEN = re.compile(
    r"\s*(?:(?P<hex>0[xX][0-9a-fA-F]+)|(?P<int>[0-9]+)|(?P<name>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*^()]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ValueError(f"unexpected character {text[pos:].lstrip()[0]!r} in polynomial")
        pos = m.end()
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group(m.lastgroup)))
    return tokens


def _check_parse_degree(degree):
    if degree > PARSE_DEGREE_CAP:
        raise BudgetError(f"polynomial degree {degree} exceeds the parse cap {PARSE_DEGREE_CAP}")


class _Parser:
    # expr   := term ('+' term)*        ('-' accepted as '+': characteristic 2)
    # term   := factor (['*'] factor)*  (juxtaposition multiplies)
    # factor := atom ('^' uint)?
    # atom   := '(' expr ')' | 'x' | '0' | '1' | hex-mask | alias

    _ATOM_START = {"hex", "int", "name"}

    def __init__(self, tokens, aliases):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.aliases = aliases or {}

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self):
        value = self.expr()
        if self.pos != len(self.tokens):
            raise ValueError("trailing input in polynomial expression")
        return value

    def expr(self):
        value = self.term()
        while self.peek()[1] in ("+", "-"):
            self.take()
            value = value + self.term()
        return value

    def term(self):
        value = self.factor()
        while True:
            kind, text = self.peek()
            if text == "*":
                self.take()
            elif kind not in self._ATOM_START and text != "(":
                return value
            rhs = self.factor()
            _check_parse_degree(value.degree + rhs.degree)
            value = value * rhs

    def factor(self):
        value = self.atom()
        if self.peek()[1] == "^":
            self.take()
            kind, text = self.take()
            if kind != "int":
                raise ValueError("exponent must be a nonnegative integer")
            digits = text.lstrip("0")
            if value.degree < 1:  # 0^n and 1^n stay valid for any n
                return value if digits else ONE
            if len(digits) > len(str(PARSE_DEGREE_CAP)):  # before int() sees a long string
                bound = f"10^{len(digits) - 1}"
                raise BudgetError(f"polynomial degree of at least {bound} exceeds the parse cap {PARSE_DEGREE_CAP}")
            n = int(digits or "0")
            _check_parse_degree(value.degree * n)
            value = value**n
        return value

    def atom(self):
        kind, text = self.take()
        if text == "(":
            self.depth += 1
            if self.depth > _MAX_NESTING:
                raise ValueError(f"parentheses nested deeper than {_MAX_NESTING} levels")
            value = self.expr()
            if self.take()[1] != ")":
                raise ValueError("expected ')' in polynomial expression")
            self.depth -= 1
            return value
        if kind == "hex":
            value = Poly(int(text, 16))
            _check_parse_degree(value.degree)
            return value
        if kind == "int":
            if text == "0":
                return ZERO
            if text == "1":
                return ONE
            raise ValueError(f"coefficient {text} is not valid over GF(2)")
        if kind == "name":
            if text == "x":
                return X
            key = text.replace("_", "")
            if key in self.aliases:
                return self.aliases[key]
            raise ValueError(f"unknown polynomial name {text!r}")
        raise ValueError("malformed polynomial expression")


def parse(text: str, aliases=None) -> Poly:
    """Parse a polynomial expression or hex coefficient mask.

    Accepts sums of monomials ('x^4+x^3+1'), products of parenthesized
    factors with integer exponents ('x^2(x+1)^3'), hex masks ('0x13',
    bit i = coefficient of x^i), and optional named aliases.  Raises
    BudgetError for an expression of degree above PARSE_DEGREE_CAP and
    ValueError for parentheses nested more than 100 deep.
    """
    if not isinstance(text, str) or text.strip() == "":
        raise ValueError("empty polynomial expression")
    return _Parser(_tokenize(text), aliases).parse()
