"""Generating functions, Hilbert numerators and graded Betti tables.

Two families of squarefree monomial ideals on the edge variables of the
complete k-ary tree T(k, n):

* the path ideal, generated by the k^n root-to-leaf edge-path monomials;
* the cut ideal, its Alexander dual, generated by the minimal-cut monomials.

Their graded Betti numbers are packaged as the bivariate generating function
G(x, t) = sum beta_{i,j}(S/I) x^i t^j over i, j > 0, computed exactly:

    path:  G_{k,0} = x,
           G_{k,n} = (1 + t G_{k,n-1})^k - 1;
    cut:   Gc_{k,n} = x * sum_d c_d t^d (1 + t x)^((d - k)/(k - 1)),

where c_d is the coefficient of s^d in the Multibrot iterate W_n of
W_0 = 0, W_{m+1} = (s + W_m)^k (for k = 2, W_n + s is the Mandelbrot iterate
z_{n+1} in q = s).  ``multibrot`` is the one place that iterates W; ``cut_gf``
reads it, and so does ``mandelbrot_iterate``, the one assembly of
z_n = q + W_{n-1} behind the ``mandelbrot`` command and the verify check
``mandelbrot_routes``.  The cut formula solves the bivariate recursion
Gc_{k,1} = t^k x, Gc_{k,n} = x^-(k-1) * ((1 + t x)(1 + Gc_{k,n-1}) - 1)^k:
substituting Gc = x (1 + x t)^(-k/(k-1)) W(s) with s = t (1 + x t)^(1/(k-1))
turns it into W' = (s + W)^k.  That recursion now lives in
``oracle.cut_gf_recursive`` as the independent route the verify battery
compares with.  The Hilbert-series numerator is H(x, t) = -G(-x, t), an
involution (G = -H(-x, t), so ``gf_to_numerator`` maps both ways); its
x = 1 specialization at t = p is the probability that an operative-edge path
exists (path side) resp. that all paths are blocked (cut side, t = q = 1 - p).

All tables use the quotient convention beta_{i,j}(S/I) internally, with
beta_{0,0} = 1; the ideal convention is the index shift beta_{i-1,j}(I).
"""

from __future__ import annotations

from math import comb
from typing import Mapping, Sequence

from .bivar import BivarPoly, _int_text
from . import limits
from .limits import check_tree

GradedEntries = dict[tuple[int, int], int]


class BettiTable:
    """Graded Betti numbers beta_{i,j}(S/I) as positive big integers.

    Invariants: beta_{0,0} = 1 is present and is the only entry with i = 0;
    all stored entries are strictly positive.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[tuple[int, int], int]) -> None:
        clean: GradedEntries = {}
        for (i, j), beta in entries.items():
            if beta == 0:
                continue
            if beta < 0:
                raise ValueError(f"negative Betti number at ({i}, {j})")
            if i < 0 or j < 0:
                raise ValueError(f"negative index at ({i}, {j})")
            if i == 0 and (j, beta) != (0, 1):
                raise ValueError("the only homological-degree-0 entry is beta_{0,0} = 1")
            clean[(i, j)] = beta
        if clean.get((0, 0)) != 1:
            raise ValueError("a quotient-convention table must contain beta_{0,0} = 1")
        self._entries = clean

    # -- access -------------------------------------------------------------

    def entry(self, i: int, j: int) -> int:
        return self._entries.get((i, j), 0)

    def entries(self) -> tuple[tuple[int, int, int], ...]:
        """(i, j, beta) triples sorted by (i, j)."""
        return tuple((i, j, self._entries[(i, j)]) for (i, j) in sorted(self._entries))

    def as_dict(self) -> GradedEntries:
        return dict(self._entries)

    @property
    def max_i(self) -> int:
        return max(i for i, _ in self._entries)

    @property
    def max_j(self) -> int:
        return max(j for _, j in self._entries)

    def totals(self) -> tuple[int, ...]:
        """Total Betti numbers (sum over j) for i = 0..max_i, in one pass."""
        out = [0] * (self.max_i + 1)
        for (i, _), beta in self._entries.items():
            out[i] += beta
        return tuple(out)

    def offset_row(self, r: int, max_i: int | None = None) -> tuple[int, ...]:
        """The row beta_{i, i+r} for i = 1..max_i (default: the table's max_i)."""
        hi = self.max_i if max_i is None else max_i
        return tuple(self.entry(i, i + r) for i in range(1, hi + 1))

    def max_offset(self) -> int:
        return max(j - i for (i, j) in self._entries)

    def ideal_convention(self) -> GradedEntries:
        """The same module shifted to the ideal convention: {(i-1, j): beta}."""
        return {(i - 1, j): beta for (i, j), beta in self._entries.items() if i > 0}

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BettiTable):
            return self._entries == other._entries
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._entries.items()))

    def __repr__(self) -> str:
        # As repr of the totals tuple, but with digits past the int/str limit.
        totals = self.totals()
        text = ", ".join(map(_int_text, totals)) + ("," if len(totals) == 1 else "")
        return f"BettiTable({len(self._entries)} entries, totals ({text}))"

    # -- serialization -------------------------------------------------------

    def to_csv(self) -> str:
        lines = ["i,j,beta"]
        lines.extend(f"{i},{j},{_int_text(beta)}" for i, j, beta in self.entries())
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> list[dict[str, object]]:
        return [{"i": i, "j": j, "beta": _int_text(beta)} for i, j, beta in self.entries()]

    def render_layout(self) -> str:
        """Text table in the printed layout: columns i, rows r = j - i.

        A "total" row leads; zero cells print as ".".
        """
        totals: dict[int, int] = {}
        max_r = 0
        for (i, j), beta in self._entries.items():
            totals[i] = totals.get(i, 0) + beta
            max_r = max(max_r, j - i)
        cols = range(1, max(totals) + 1)
        get = self._entries.get
        grid = [["j-i \\ i"] + [str(i) for i in cols],
                ["total"] + [_int_text(totals.get(i, 0)) for i in cols]]
        for r in range(1, max_r + 1):
            grid.append([str(r)] + [_int_text(beta) if (beta := get((i, i + r))) else "." for i in cols])
        widths = [max(map(len, column)) for column in zip(*grid)]
        return "".join("  ".join(cell.rjust(w) for cell, w in zip(row, widths)) + "\n" for row in grid)


# -- generating functions ----------------------------------------------------


def _check_poly_budget(poly: BivarPoly) -> None:
    limits.DEFAULT_BUDGET.check_terms(poly.term_count())
    limits.DEFAULT_BUDGET.check_bits(poly.max_coeff_bits())


def path_gf(k: int, n: int, *, x_truncation: int | None = None) -> BivarPoly:
    """G_{k,n}(x, t) for the path ideal, by the recursion (1 + t*G)^k - 1.

    With ``x_truncation=m`` every intermediate product is truncated at
    x-degree m; the result equals the full polynomial truncated at m (the
    dropped terms can never feed back into lower x-degrees).
    """
    check_tree(k, n)
    g = BivarPoly.monomial(1, 0)  # G_{k,0} = x, so level 1 gives (1 + t x)^k - 1
    t = BivarPoly.monomial(0, 1)
    for _ in range(n):
        g = (BivarPoly.one() + t * g).power(k, x_truncation) - 1
        _check_poly_budget(g)
    return g


def cut_x_degree(k: int, n: int) -> int:
    """x-degree of the cut generating function: d_n = k*d_{n-1} + 1, d_1 = 1."""
    check_tree(k, n)
    return (k ** n - 1) // (k - 1)


def multibrot(k: int, n: int, *, max_degree: int | None = None) -> BivarPoly:
    """The Multibrot iterate W_n of W_0 = 0, W_{m+1} = (s + W_m)^k, in s = x.

    For n >= 1 its support is every d = k + (k - 1) e, 0 <= e < cut_x_degree(k, n),
    with positive coefficients; for k = 2, s + W_{n-1} is the Mandelbrot z_n.
    ``max_degree=m`` truncates each power at s-degree m, which is exactly W_n
    truncated at m; W_n and W_m agree below s^(m+1), so at most m steps run.
    The budget sees the exact coefficient count before the first product.
    ``asymptotics.mandelbrot_poly`` is the schoolbook oracle.
    """
    check_tree(k, n, min_n=0)
    if max_degree is not None and max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    steps = n if max_degree is None else min(n, max_degree)
    count = (k ** steps - 1) // (k - 1)
    if max_degree is not None:
        count = max(0, min(count, (max_degree - k) // (k - 1) + 1))
    limits.DEFAULT_BUDGET.check_terms(count, f"multibrot({k}, {n}) coefficient count")
    s = BivarPoly.monomial(1, 0)
    w = BivarPoly.zero()
    for _ in range(steps):
        w = (s + w).power(k, max_degree)
    return w


def mandelbrot_iterate(n: int, *, max_degree: int | None = None) -> BivarPoly:
    """The Mandelbrot iterate z_n of z_0 = 0, z_{m+1} = z_m^2 + q, in q = x.

    z_n = q + W_{n-1} with W from ``multibrot(2, ...)``; ``max_degree=m``
    truncates it at q-degree m.  ``asymptotics.mandelbrot_poly`` is the
    schoolbook oracle.
    """
    check_tree(2, n, min_n=0)
    if max_degree is not None and max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    if n == 0:
        return BivarPoly.zero()
    w = multibrot(2, n - 1, max_degree=max_degree)
    return w if max_degree == 0 else w + BivarPoly.monomial(1, 0)


def cut_gf(k: int, n: int, *, x_truncation: int | None = None) -> BivarPoly:
    """Gc_{k,n}(x, t) for the cut ideal (the Alexander dual of the path ideal).

    Computed from the Multibrot iterate W_n of ``multibrot``.  With
    c_d = [s^d] W_n and e_d = (d - k) / (k - 1),

        Gc_{k,n}(x, t) = x * sum_d c_d t^d (1 + x t)^(e_d),

    that is beta_{i,j} = c_{j-i+1} * C(e_{j-i+1}, i - 1).  The support of W_n
    is every d = k + (k - 1) e with 0 <= e < cut_x_degree(k, n), so each e_d
    is a nonnegative integer.  The bivariate recursion this replaces is kept
    as the independent route ``oracle.cut_gf_recursive``.

    With ``x_truncation=m`` each binomial row keeps its x-degrees <= m, which
    is exactly the full result truncated at m (the zero polynomial for m < 1).

    The budget sees the exact output size before it is built: the term count
    sum_e min(e + 1, m) before W_n is computed, the largest coefficient
    max_d c_d * C(e_d, min(e_d // 2, m - 1)) before the rows are expanded.
    """
    check_tree(k, n)
    top = cut_x_degree(k, n)
    cap = top if x_truncation is None else min(x_truncation, top)
    if cap < 1:
        return BivarPoly.zero()
    label = f"cut_gf({k}, {n})"
    limits.DEFAULT_BUDGET.check_terms(cap * (cap + 1) // 2 + (top - cap) * cap,
                                      f"{label} term count")
    series = [(d, c) for d, _, c in multibrot(k, n).terms()]
    return BivarPoly._raw(betti_rows(k, series, cap, label))


def betti_rows(k: int, series: Sequence[tuple[int, int]], cap: int,
               label: str) -> GradedEntries:
    """The entries beta_{i,j} = c_d * C(e_d, i - 1), d = j - i + 1, of the
    positive coefficient series [(d, c_d)], with e_d = (d - k) / (k - 1) and
    i <= cap.

    ``cut_gf`` reads c_d off W_n; ``asymptotics.asymptotic_table`` reads the
    depth limit for k = 2, c_d = catalan(d - 1).  The budget sees the largest
    entry, max_d c_d * C(e_d, min(e_d // 2, cap - 1)), before any row is built.
    """
    rows = [(d, (d - k) // (k - 1), c) for d, c in series]
    limits.DEFAULT_BUDGET.check_bits(
        max((c * comb(e, min(e // 2, cap - 1))).bit_length() for _, e, c in rows),
        f"{label} coefficient bits")
    out: GradedEntries = {}
    for d, e, c in rows:
        for i in range(min(e + 1, cap)):
            out[(i + 1, d + i)] = c
            c = c * (e - i) // (i + 1)
    return out


def gf_to_numerator(g: BivarPoly) -> BivarPoly:
    """Hilbert-series numerator H(x, t) = -G(-x, t); the map is an involution,
    so it also reads G back off H."""
    return -g.negate_x()


def betti_table(g: BivarPoly) -> BettiTable:
    """Read the graded Betti table off a generating function.

    Entry (i, j) is the coefficient of x^i t^j; beta_{0,0} = 1 comes first,
    then the terms in canonical order.  Rejects x-free terms; ``BettiTable``
    rejects negative coefficients.
    """
    terms = g.terms()
    if terms and terms[0][0] == 0:
        raise ValueError("generating functions have no x-free terms")
    entries: GradedEntries = {(0, 0): 1}
    for i, j, c in terms:
        entries[(i, j)] = c
    del terms  # freed before the table copies the entries
    return BettiTable(entries)


# -- independent recursive route for path Betti numbers ----------------------


def _convolve(a: GradedEntries, b: GradedEntries) -> GradedEntries:
    out: GradedEntries = {}
    for (ia, ja), va in a.items():
        for (ib, jb), vb in b.items():
            key = (ia + ib, ja + jb)
            out[key] = out.get(key, 0) + va * vb
    return out


def path_betti_recursive(k: int, n: int) -> BettiTable:
    """beta_{i,j}(S/I_{k,n}) by direct convolution, no polynomial engine.

    Level step: choose s of the k branches to be homologically active
    (weight C(k, s)), distribute homological degree over the s branches with
    positive parts, add s to the internal degree for the connecting edges.
    Must agree with betti_table(path_gf(k, n)); the two routes share no code.
    """
    check_tree(k, n)
    table: GradedEntries = {(0, 0): 1}
    for i in range(1, k + 1):
        table[(i, i)] = comb(k, i)
    for _ in range(2, n + 1):
        nontrivial = {key: v for key, v in table.items() if key != (0, 0)}
        new: GradedEntries = {(0, 0): 1}
        conv: GradedEntries = {(0, 0): 1}
        for s in range(1, k + 1):
            conv = _convolve(conv, nontrivial)
            weight = comb(k, s)
            for (i, j), v in conv.items():
                key = (i, j + s)
                new[key] = new.get(key, 0) + weight * v
        limits.DEFAULT_BUDGET.check_terms(len(new), "Betti entry count")
        table = new
    return BettiTable(table)


# -- tensor combination rules (ideals in disjoint variable sets) -------------


def tensor_sum_betti(tables: Sequence[BettiTable]) -> BettiTable:
    """Betti table of S/(I_1 + ... + I_r) from the tables of the S/I_l.

    Valid when the ideals live in pairwise disjoint variable sets (the
    resolutions tensor): a plain convolution of quotient-convention tables.
    The empty list yields the unit table {beta_{0,0} = 1}.
    """
    acc: GradedEntries = {(0, 0): 1}
    for tb in tables:
        acc = _convolve(acc, tb.as_dict())
    return BettiTable(acc)


def tensor_product_betti(tables: Sequence[BettiTable]) -> BettiTable:
    """Betti table of S/(I_1 * ... * I_r) for disjoint-variable ideals.

    The resolution of the product is the tensor of the ideal resolutions, so
    ideal-convention tables convolve directly; the result shifts back to the
    quotient convention.  (In numerator language this is the product of the
    numerators divided by x^(r-1), which is exact because each numerator has
    minimum x-degree 1 — here the shift is structural, never inexact.)
    """
    if not tables:
        raise ValueError("tensor_product_betti needs at least one table")
    acc: GradedEntries | None = None
    for tb in tables:
        d = tb.ideal_convention()
        acc = d if acc is None else _convolve(acc, d)
    assert acc is not None
    out: GradedEntries = {(i + 1, j): v for (i, j), v in acc.items()}
    out[(0, 0)] = 1
    return BettiTable(out)
