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
(packing each polynomial into one huge integer so Python's subquadratic int
multiplication does the convolution).  Each operand packs into one signed
integer, its positive part minus its negative part, so a product is a single
big-integer multiply, and a square (``a is b``) a single squaring.  The slot
width comes from the product of absolute-coefficient sums, which bounds every
convolution entry and leaves each slot's sign bit free; the product is read
back one signed slot at a time, adding 1 to each slot that follows a negative
one (the negative slot borrowed that 1 from it).

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

from typing import Iterator, Mapping, Union

Term = tuple[int, int, int]

# Schoolbook beats packing overhead for small term-count products.
_SCHOOLBOOK_OPS = 20_000


def _big_mul(a: int, b: int) -> int:
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


def _pack(d: dict[tuple[int, int], int], width: int, skew: int, low: int, slot_bytes: int) -> int:
    """Pack d into one signed integer: sum of c * 2^(8 * slot_bytes * s), with
    slot s = i*width + (j - skew*i - low).

    Positive and negative coefficients fill two little-endian byte buffers;
    the packed value is their difference.
    """
    stride = width - skew  # i*width + j - skew*i - low == i*stride + j - low
    size = (max(i * stride + j for i, j in d) - low + 1) * slot_bytes
    pos = bytearray(size)
    neg = bytearray(size)
    for (i, j), c in d.items():
        off = (i * stride + j - low) * slot_bytes
        if c > 0:
            pos[off:off + slot_bytes] = c.to_bytes(slot_bytes, "little")
        else:
            neg[off:off + slot_bytes] = (-c).to_bytes(slot_bytes, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _mul_kronecker(a: dict[tuple[int, int], int], b: dict[tuple[int, int], int]) -> dict[tuple[int, int], int]:
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
    # Any product coefficient is bounded by the product of absolute-sum norms;
    # this slot width holds that bound plus a sign bit, so no slot overflows.
    bound = sum(abs(c) for c in a.values()) * sum(abs(c) for c in b.values())
    slot_bytes = (bound.bit_length() + 8) // 8
    pa = _pack(a, width, skew, low_a, slot_bytes)
    pb = pa if a is b else _pack(b, width, skew, low_b, slot_bytes)
    nslots = (max(i for i, _ in a) + max(i for i, _ in b) + 1) * width
    raw = _big_mul(pa, pb).to_bytes(nslots * slot_bytes, "little", signed=True)
    low = low_a + low_b
    out: dict[tuple[int, int], int] = {}
    frombytes = int.from_bytes
    borrow = 0
    off = 0
    for s in range(nslots):
        end = off + slot_bytes
        c = frombytes(raw[off:end], "little", signed=True)
        if c + borrow:
            i, r = divmod(s, width)
            out[i, r + skew * i + low] = c + borrow
        borrow = c < 0
        off = end
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
            body = [str(abs(c))] if abs(c) != 1 or not variables else []
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

    def __iter__(self) -> Iterator[Term]:
        return iter(self.terms())

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
        if len(a) * len(b) <= _SCHOOLBOOK_OPS:
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
        return [{"x": i, "t": j, "c": str(c)} for i, j, c in self.terms()]

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
