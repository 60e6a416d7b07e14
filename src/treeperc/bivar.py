"""Exact sparse bivariate polynomial arithmetic over arbitrary-precision ints.

Polynomials live in Z[x, t] with nonnegative exponents.  The variable ``x``
marks homological degree, ``t`` marks total (internal) degree; everything in
the package flows through this ring: generating functions have nonnegative
coefficients, numerators alternate signs in x, truncations drop high x-powers.

Representation: a dict mapping ``(x_degree, t_degree) -> coefficient`` with no
zero coefficients stored.  Serialization orders terms canonically (x-degree
major, t-degree minor) so equal polynomials serialize identically.

``BivarPoly`` and ``UniPoly`` (the x = 1 specialization in t) share one sparse
core, ``_SparsePoly``: the coefficient dict, equality (an int compares with
the constant term), hashing, addition, negation, subtraction and printing.
Each class supplies only its constant-term key and the variable text of one
monomial.

Products switch between schoolbook convolution and Kronecker substitution
(packing each polynomial into one huge number, so one big multiply does the
convolution).  Kronecker substitution takes operands with nonnegative
coefficients only, as every product of the path and cut recursions is; a
product with a negative coefficient in either operand goes to schoolbook.
The packed numbers are decimal: each operand is one string of zero-padded
w-digit slots with 10^w above the product of both operands' coefficient sums,
which bounds every convolution entry.  So a product is a single big multiply,
and a square (``a is b``) a single squaring.  The multiply runs in
``decimal``'s C backend (libmpdec), whose number-theoretic transform beats
CPython's Karatsuba int multiply about ten-fold at the sizes the recursions
reach (a 4.9 Mbit squaring: 0.09 s against 0.87 s as ints, Python 3.11 on a
2-core Xeon).
Each operand is a ``_Packed``, a ``Decimal`` whose ``*`` is exact and whose
``bit_length()`` is an upper bound from its digit count, so ``_big_mul`` stays
``a * b``, the one seam where a profiler or tracer can time and size the
multiply.  The product's digits are read back one slot at a time from the
least significant end, each slot a coefficient as it stands.

Python refuses int <-> str conversions above a digit limit (4,300 digits by
default).  ``_int_text`` and its inverse ``_text_int`` convert at any size
without touching that limit: ``str()`` and ``int()`` below it, divide and
conquer above.  The packing, the decode and every renderer of coefficients
go through them.

The packing follows the support's skewed band, not its bounding rectangle:
term (i, j) goes to slot i*W + (j - a*i - low), with one integer skew ``a``
per product, ``low`` the least j - a*i over the operand and W, the slots per
x-row, one more than the sum of both operands' spans of j - a*i.  The map is
additive, so the decode adds a*i plus both operands' ``low`` back.  The path
recursion's supports are thin diagonal bands, so the best skew shrinks W
several-fold, and packs the diagonal (1 + tx)^k one slot per row.  The span of
j - a*i is convex in a, so a walk from a = 0 that stops when W stops shrinking
finds the best skew.
"""

from __future__ import annotations

from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, localcontext
from typing import Mapping, Union

Term = tuple[int, int, int]

# Schoolbook beats packing overhead for small term-count products.
_SCHOOLBOOK_OPS = 20_000

# Exact decimal arithmetic: no operand of this size is ever rounded, and a
# result that would need rounding raises instead.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact])

# Python may refuse int <-> str conversions above a digit limit, which can be
# set as low as 640 digits but never lower; str() and int() stay the fast path
# below it.  2,048 bits are at most 617 digits.
_STR_DIGITS = 640
_STR_BITS = 2048
_STR_LIMIT = 1 << _STR_BITS


def _int_text(value: int) -> str:
    """Decimal digits of an int of any size.

    This is str() up to 2,048 bits.  Above that, str() may be refused, and it
    is quadratic in the length anyway, so the bits are split in halves, each
    half converted on its own, and the halves recombined as lo + hi * 2^w in
    exact ``decimal`` arithmetic.
    """
    if -_STR_LIMIT < value < _STR_LIMIT:
        return str(value)
    n = abs(value)
    powers: dict[int, Decimal] = {}

    def pow2(w: int) -> Decimal:
        if w not in powers:
            powers[w] = Decimal(2) ** w if w <= 128 else pow2(w >> 1) * pow2(w - (w >> 1))
        return powers[w]

    def digits(n: int, w: int) -> Decimal:
        if w <= _STR_BITS:
            return Decimal(n)
        half = w >> 1
        hi = n >> half
        return digits(n - (hi << half), half) + digits(hi, w - half) * pow2(half)

    with localcontext(_EXACT):
        return ("-" if value < 0 else "") + str(digits(n, n.bit_length()))


def _text_int(text: str) -> int:
    """The int of a decimal digit string of any size (an optional leading
    "-", then digits): the inverse of ``_int_text``.

    This is int() up to 640 digits.  Above that the text is split in halves,
    each half read on its own, and the halves recombined as lo + hi * 10^w.
    """
    if len(text) <= _STR_DIGITS:
        return int(text)
    if text[0] == "-":
        return -_text_int(text[1:])
    w = len(text) >> 1
    return _text_int(text[-w:]) + _text_int(text[:-w]) * 10 ** w


class _Packed(Decimal):
    """A Kronecker-packed operand: an integral ``Decimal`` whose products are
    exact, so ``_big_mul`` stays ``a * b`` and the multiply runs in libmpdec
    (a number-theoretic transform for huge operands, where CPython's int
    multiply is Karatsuba)."""

    __slots__ = ()

    def __mul__(self, other: Decimal) -> Decimal:
        return _EXACT.multiply(self, other)

    def bit_length(self) -> int:
        """An upper bound on the bit length of the integer, from its digit
        count d: 10^d < 2^(3.322 d).  It can exceed int.bit_length() of the
        same value by a few bits, and never falls below it."""
        return (self.adjusted() + 1) * 3322 // 1000 + 1


def _big_mul(a: _Packed, b: _Packed) -> Decimal:
    return a * b


def _mul_schoolbook(a: dict[tuple[int, int], int], b: dict[tuple[int, int], int]) -> dict[tuple[int, int], int]:
    out: dict[tuple[int, int], int] = {}
    get = out.get
    for (ia, ja), ca in a.items():
        for (ib, jb), cb in b.items():
            key = (ia + ib, ja + jb)
            v = get(key, 0) + ca * cb
            if v:
                out[key] = v
            elif key in out:
                del out[key]
    return out


def _band(d: dict[tuple[int, int], int], skew: int) -> tuple[int, int]:
    """The least and greatest j - skew*i over d's support."""
    us = [j - skew * i for i, j in d]
    return min(us), max(us)


def _pack(d: dict[tuple[int, int], int], width: int, skew: int, low: int, digits: int) -> _Packed:
    """Pack d, whose coefficients are nonnegative, into one number: sum of
    c * 10^(digits * s), with slot s = i*width + (j - skew*i - low).

    The number is one string of zero-padded ``digits``-wide slots, most
    significant first.
    """
    stride = width - skew  # i*width + j - skew*i - low == i*stride + j - low
    top = max(i * stride + j for i, j in d) - low
    slots = ["0" * digits] * (top + 1)
    for (i, j), c in d.items():
        slots[top - (i * stride + j - low)] = _int_text(c).zfill(digits)
    return _Packed("".join(slots))


def _mul_kronecker(a: dict[tuple[int, int], int], b: dict[tuple[int, int], int]) -> dict[tuple[int, int], int]:
    """The product of two polynomials with nonnegative coefficients, by one
    big multiply of their packed digit strings."""
    def slots_per_row(skew: int) -> int:
        (lo_a, hi_a), (lo_b, hi_b) = _band(a, skew), _band(b, skew)
        return hi_a - lo_a + hi_b - lo_b + 1

    # Walk from skew 0 in whichever direction narrows the rows, until they
    # stop narrowing; the width is convex in the skew, so this is its minimum.
    skew, width = 0, slots_per_row(0)
    for step in (1, -1):
        while (narrower := slots_per_row(skew + step)) < width:
            skew, width = skew + step, narrower
        if skew:
            break
    low_a, low_b = _band(a, skew)[0], _band(b, skew)[0]
    # Any product coefficient is at most the product of the coefficient sums,
    # so slots of base 10^digits above that hold each one as it stands.
    digits = len(_int_text(sum(a.values()) * sum(b.values())))
    pa = _pack(a, width, skew, low_a, digits)
    pb = pa if a is b else _pack(b, width, skew, low_b, digits)
    prod = _big_mul(pa, pb)
    # Each number is dropped once read, so the product's text is built next
    # to one copy of the product and no operand.
    del pa, pb
    text = format(prod, "f")
    del prod
    # Read the product one slot at a time from the least significant end.
    low = low_a + low_b
    out: dict[tuple[int, int], int] = {}
    for s, end in enumerate(range(len(text), 0, -digits)):
        c = _text_int(text[max(end - digits, 0):end])
        if c:
            i, r = divmod(s, width)
            out[i, r + skew * i + low] = c
    return out


class _SparsePoly:
    """The sparse core shared by BivarPoly and UniPoly: a dict of nonzero
    coefficients keyed by exponent, with equality, hashing, addition,
    negation, subtraction and printing.  A subclass names its constant-term
    key and the variable text of one monomial."""

    __slots__ = ("_terms",)
    _CONSTANT_KEY: object

    @classmethod
    def _raw(cls, terms: dict) -> "_SparsePoly":
        # internal constructor: terms already canonical (no zeros, valid keys)
        p = object.__new__(cls)
        p._terms = terms
        return p

    @classmethod
    def _constant(cls, c: int) -> "_SparsePoly":
        return cls._raw({cls._CONSTANT_KEY: c} if c else {})

    def _variables(self, key) -> str:
        raise NotImplementedError

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, type(self)):
            return self._terms == other._terms
        if isinstance(other, int):
            return self._terms == self._constant(other)._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: Union["_SparsePoly", int]) -> "_SparsePoly":
        if isinstance(other, int):
            other = self._constant(other)
        if not isinstance(other, type(self)):
            return NotImplemented
        out = dict(self._terms)
        for key, c in other._terms.items():
            v = out.get(key, 0) + c
            if v:
                out[key] = v
            elif key in out:
                del out[key]
        return self._raw(out)

    __radd__ = __add__

    def __neg__(self) -> "_SparsePoly":
        return self._raw({key: -c for key, c in self._terms.items()})

    def __sub__(self, other: Union["_SparsePoly", int]) -> "_SparsePoly":
        if isinstance(other, int):
            other = self._constant(other)
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: int) -> "_SparsePoly":
        if not isinstance(other, int):
            return NotImplemented
        return self._constant(other) + (-self)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for key, c in sorted(self._terms.items()):
            variables = self._variables(key)
            body = [_int_text(abs(c))] if abs(c) != 1 or not variables else []
            if variables:
                body.append(variables)
            parts.append(("- " if c < 0 else "+ ") + "*".join(body))
        out = " ".join(parts)
        return out[2:] if out.startswith("+ ") else "-" + out[2:]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class BivarPoly(_SparsePoly):
    """Immutable exact polynomial in Z[x, t]."""

    __slots__ = ()
    _CONSTANT_KEY = (0, 0)

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None) -> None:
        clean: dict[tuple[int, int], int] = {}
        for (i, j), c in (terms or {}).items():
            if not (isinstance(i, int) and isinstance(j, int) and isinstance(c, int)):
                raise TypeError("term degrees and coefficients must be ints")
            if i < 0 or j < 0:
                raise ValueError("negative exponents are not representable")
            if c:
                clean[(i, j)] = c
        self._terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "BivarPoly":
        return cls._raw({})

    @classmethod
    def one(cls) -> "BivarPoly":
        return cls._raw({(0, 0): 1})

    @classmethod
    def constant(cls, c: int) -> "BivarPoly":
        return cls._constant(c)

    @classmethod
    def monomial(cls, x_degree: int, t_degree: int, coefficient: int = 1) -> "BivarPoly":
        if x_degree < 0 or t_degree < 0:
            raise ValueError("negative exponents are not representable")
        return cls._raw({(x_degree, t_degree): coefficient} if coefficient else {})

    # -- inspection --------------------------------------------------------

    @property
    def deg_x(self) -> int:
        """Largest x-degree, or -1 for the zero polynomial."""
        return max((i for i, _ in self._terms), default=-1)

    def term_count(self) -> int:
        return len(self._terms)

    def max_coeff_bits(self) -> int:
        return max((abs(c).bit_length() for c in self._terms.values()), default=0)

    def coefficient(self, x_degree: int, t_degree: int) -> int:
        return self._terms.get((x_degree, t_degree), 0)

    def terms(self) -> tuple[Term, ...]:
        """Canonically ordered terms: x-degree major, t-degree minor."""
        return tuple((i, j, self._terms[(i, j)]) for (i, j) in sorted(self._terms))

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other: Union["BivarPoly", int]) -> "BivarPoly":
        if isinstance(other, int):
            if not other:
                return BivarPoly.zero()
            return BivarPoly._raw({key: c * other for key, c in self._terms.items()})
        if not isinstance(other, BivarPoly):
            return NotImplemented
        a, b = self._terms, other._terms
        if not a or not b:
            return BivarPoly.zero()
        if len(a) * len(b) <= _SCHOOLBOOK_OPS or min(a.values()) < 0 or min(b.values()) < 0:
            return BivarPoly._raw(_mul_schoolbook(a, b))
        return BivarPoly._raw(_mul_kronecker(a, b))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "BivarPoly":
        return self.power(exponent)

    def power(self, exponent: int, x_truncation: int | None = None) -> "BivarPoly":
        """a**exponent, optionally truncated at x-degree ``x_truncation``.

        Truncation is applied to the base and after every multiplication, and
        the result equals the full power truncated at that x-degree: discarded
        terms have x-degree > m and can never contribute back down.
        """
        if exponent < 0:
            raise ValueError("negative exponents are not supported")
        if exponent == 0:
            one = BivarPoly.one()
            return one if x_truncation is None else one.truncate_x(x_truncation)
        base = self if x_truncation is None else self.truncate_x(x_truncation)
        result = None
        e = exponent
        while True:
            if e & 1:
                result = base if result is None else result * base
                if x_truncation is not None:
                    result = result.truncate_x(x_truncation)
            e >>= 1
            if not e:
                return result
            base = base * base
            if x_truncation is not None:
                base = base.truncate_x(x_truncation)

    def truncate_x(self, m: int) -> "BivarPoly":
        """Keep terms with x-degree <= m, drop the rest."""
        if m >= self.deg_x:
            return self
        return BivarPoly._raw({key: c for key, c in self._terms.items() if key[0] <= m})

    def negate_x(self) -> "BivarPoly":
        """Substitute x -> -x: term (i, j, c) becomes (i, j, (-1)^i c)."""
        return BivarPoly._raw({key: (-c if key[0] & 1 else c) for key, c in self._terms.items()})

    def exact_divide_x(self, d: int) -> "BivarPoly":
        """Divide by x^d; every term must have x-degree >= d.

        A failure signals a violated divisibility invariant in the cut
        recursion, so it raises instead of truncating.
        """
        from .limits import InexactDivisionError

        if d < 0:
            raise ValueError("d must be nonnegative")
        if d == 0:
            return self
        out: dict[tuple[int, int], int] = {}
        for (i, j), c in self._terms.items():
            if i < d:
                raise InexactDivisionError(f"term x^{i} t^{j} has x-degree below divisor x^{d}")
            out[(i - d, j)] = c
        return BivarPoly._raw(out)

    # -- evaluation --------------------------------------------------------

    def eval_x1(self) -> "UniPoly":
        """Collapse x = 1: sum coefficients over x-degree for each t-degree."""
        out: dict[int, int] = {}
        for (_, j), c in self._terms.items():
            v = out.get(j, 0) + c
            if v:
                out[j] = v
            elif j in out:
                del out[j]
        return UniPoly._raw(out)

    # -- serialization -----------------------------------------------------

    def to_json_obj(self) -> list[dict[str, object]]:
        """JSON form: [{"x": i, "t": j, "c": "<decimal>"}] in canonical order."""
        return [{"x": i, "t": j, "c": _int_text(c)} for i, j, c in self.terms()]

    def _variables(self, key: tuple[int, int]) -> str:
        i, j = key
        body = []
        if i:
            body.append("x" if i == 1 else f"x^{i}")
        if j:
            body.append("t" if j == 1 else f"t^{j}")
        return "*".join(body)


class UniPoly(_SparsePoly):
    """Immutable exact univariate polynomial in t (the x = 1 specialization)."""

    __slots__ = ()
    _CONSTANT_KEY = 0

    def __init__(self, coeffs: Mapping[int, int] | None = None) -> None:
        clean: dict[int, int] = {}
        for d, c in (coeffs or {}).items():
            if d < 0:
                raise ValueError("negative exponents are not representable")
            if c:
                clean[d] = c
        self._terms = clean

    @property
    def degree(self) -> int:
        return max(self._terms, default=-1)

    def coefficient(self, t_degree: int) -> int:
        return self._terms.get(t_degree, 0)

    def terms(self) -> tuple[tuple[int, int], ...]:
        """(t_degree, coefficient) pairs in increasing degree."""
        return tuple(sorted(self._terms.items()))

    def evaluate(self, t_value):
        """Horner evaluation; exact for Fraction/int inputs, float for float."""
        zero = t_value * 0
        acc = zero
        for d in range(self.degree, -1, -1):
            acc = acc * t_value + self._terms.get(d, 0)
        return acc + zero

    def substitute_one_minus_t(self) -> "UniPoly":
        """The exact polynomial u(1 - t)."""
        acc: dict[int, int] = {}
        for d in range(self.degree, -1, -1):
            nxt: dict[int, int] = {}
            for e, c in acc.items():  # acc * (1 - t)
                nxt[e] = nxt.get(e, 0) + c
                nxt[e + 1] = nxt.get(e + 1, 0) - c
            c0 = self._terms.get(d, 0)
            if c0:
                nxt[0] = nxt.get(0, 0) + c0
            acc = {e: c for e, c in nxt.items() if c}
        return UniPoly._raw(acc)

    def _variables(self, key: int) -> str:
        if not key:
            return ""
        return "t" if key == 1 else f"t^{key}"
