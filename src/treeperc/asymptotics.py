"""Asymptotic Betti numbers of binary-tree cut ideals and the Mandelbrot
connection.

As the depth n grows, each graded Betti number of the depth-n binary cut
ideal stabilizes.  The limits have the closed form (for column i >= 1 and
internal degree j)

    beta_{i,j} = (2(j-i))! / ((j-i+1) (j-i) (j-i)! (j-2i)! (i-1)!)   if j >= 2i,
    beta_{i,j} = 0 otherwise,

equivalently catalan(j-i) * C(j-i-1, i-1): the first column of the limiting
table is the Catalan sequence and each antidiagonal is a Catalan multiple of
a binomial row.  ``asymptotic_table`` expands the Catalan-binomial form
with ``cut_gf``'s row expansion; ``asymptotic_betti_k2`` is the factorial
form, the independent route the verify battery compares it with.

The finite tables are governed by the Mandelbrot polynomials z_0 = 0,
z_{m+1} = z_m^2 + q: the depth-n table entry at column i, offset j is the
coefficient of q^(j+1) in z_{n+1} times C(j-1, i-1).  Coefficientwise the
Mandelbrot coefficient of q^j converges to catalan(j-1); the check helper
reports how that empirical limit compares with the off-by-one variant
catalan(j), which does not stabilize.

The production route to z_n = q + W_{n-1} is ``resolutions.mandelbrot_iterate``;
``mandelbrot_poly`` here is its independent schoolbook oracle, sharing no code
with ``BivarPoly``, and the route this module's helpers read.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

from . import limits
from .bivar import _int_text
from .limits import check_tree
from .resolutions import BettiTable, betti_rows, betti_table, cut_gf


def catalan(r: int) -> int:
    """The r-th Catalan number C(2r, r) / (r + 1)."""
    if r < 0:
        raise ValueError("catalan index must be >= 0")
    return comb(2 * r, r) // (r + 1)


@dataclass(frozen=True)
class MandelbrotPolynomial:
    """z_n as a polynomial in q; coefficients[j] is the coefficient of q^j.

    When built with a max_degree the tail above it is truncated (the low
    coefficients are unaffected: the recursion never moves mass downward).
    """

    n: int
    coefficients: tuple[int, ...]
    truncated_at: int | None = None

    def coefficient(self, j: int) -> int:
        if j < 0:
            raise ValueError("coefficient index must be >= 0")
        if self.truncated_at is not None and j > self.truncated_at:
            raise ValueError(f"coefficient {j} was truncated away (kept degrees <= {self.truncated_at})")
        if j >= len(self.coefficients):
            return 0
        return self.coefficients[j]


def mandelbrot_poly(n: int, max_degree: int | None = None) -> MandelbrotPolynomial:
    """Compute z_n by iterating z -> z^2 + q with exact integer coefficients.

    The degree of z_n is 2^(n-1), so untruncated computation is limited by
    the term budget; pass max_degree to work with a fixed window.

    The schoolbook square is the oracle for ``resolutions.mandelbrot_iterate``,
    slow but independent of ``BivarPoly``.  It keeps its name because this
    module's helpers, the verify battery and outside checkers import it by
    that name.
    """
    if n < 0:
        raise ValueError("mandelbrot index must be >= 0")
    coeffs = [0]
    for _ in range(n):
        full_len = max(2 * len(coeffs) - 1, 2)  # z^2 + q has degree >= 1
        out_len = full_len if max_degree is None else min(full_len, max_degree + 1)
        limits.DEFAULT_BUDGET.check_terms(out_len, "mandelbrot coefficient count")
        squared = [0] * out_len
        for a, ca in enumerate(coeffs):
            if ca == 0 or a >= out_len:
                continue
            for b, cb in enumerate(coeffs):
                if a + b >= out_len:
                    break
                if cb:
                    squared[a + b] += ca * cb
        if out_len > 1:
            squared[1] += 1  # + q
        coeffs = squared
    return MandelbrotPolynomial(n=n, coefficients=tuple(coeffs), truncated_at=max_degree)


def asymptotic_betti_k2(i: int, j: int) -> int:
    """Limiting Betti number at column i >= 1, internal degree j (k = 2)."""
    if i < 1:
        raise ValueError("column index i must be >= 1")
    if j < 0:
        raise ValueError("internal degree j must be >= 0")
    if j < 2 * i:
        return 0
    d = j - i
    num = factorial(2 * d)
    den = (d + 1) * d * factorial(d) * factorial(j - 2 * i) * factorial(i - 1)
    quotient, remainder = divmod(num, den)
    if remainder:
        raise ArithmeticError("limiting Betti formula did not divide exactly")
    return quotient


def asymptotic_table(max_offset: int) -> BettiTable:
    """The limiting table as a BettiTable prefix: rows (offsets) r = 1..max_offset,
    columns 1..r, entry catalan(r) * C(r - 1, i - 1).  These are ``cut_gf``'s
    rows read off the Catalan series c_d = catalan(d - 1), d = r + 1.  Its
    max_offset (max_offset + 1) / 2 entries are checked against the term
    budget before the first one is computed."""
    if max_offset < 1:
        raise ValueError("max_offset must be >= 1")
    label = f"asymptotic_table({max_offset})"
    limits.DEFAULT_BUDGET.check_terms(max_offset * (max_offset + 1) // 2, f"{label} entry count")
    series = [(d, catalan(d - 1)) for d in range(2, max_offset + 2)]
    rows = betti_rows(2, series, max_offset, label)
    return BettiTable({(0, 0): 1, **rows})


def betti_from_mandelbrot(n: int, i: int, j_offset: int) -> int:
    """Depth-n binary cut-ideal Betti number at column i, offset j_offset,
    from the Mandelbrot side: coefficient of q^(j_offset + 1) in z_{n+1}
    times C(j_offset - 1, i - 1)."""
    check_tree(2, n)
    if i < 1:
        raise ValueError("column index i must be >= 1")
    if j_offset < 1:
        raise ValueError("offset must be >= 1")
    m = mandelbrot_poly(n + 1, max_degree=j_offset + 1).coefficient(j_offset + 1)
    return m * comb(j_offset - 1, i - 1)


def stabilization_prefix(n: int, table: BettiTable | None = None) -> dict[int, int]:
    """For each column i of the depth-n binary cut table, the smallest internal
    degree j at which the table entry first differs from the limit (so the
    table agrees with the limit for all j below it).  Computes the table from
    the cut recursion unless one is supplied."""
    check_tree(2, n)
    if table is None:
        table = betti_table(cut_gf(2, n))
    out: dict[int, int] = {}
    for i in range(1, table.max_i + 1):
        j = 0
        while table.entry(i, j) == asymptotic_betti_k2(i, j):
            j += 1
            if j > table.max_j + 2 * i + 2:
                raise AssertionError("no mismatch found; table and limit agree beyond the table")
        out[i] = j
    return out


@dataclass(frozen=True)
class MandelbrotLimitReport:
    """Stabilization report for one Mandelbrot coefficient column.

    values lists (n, coefficient of q^j in z_n).  The empirical limit is
    catalan(j - 1); printed_target records the off-by-one catalan(j) variant
    sometimes quoted for this limit, which the data contradict.
    """

    j: int
    n_max: int
    values: tuple[tuple[int, int], ...]
    empirical_target: int
    printed_target: int
    stabilized_at: int | None

    @property
    def empirical_alignment_holds(self) -> bool:
        return self.stabilized_at is not None


def mandelbrot_catalan_limit_check(j: int) -> MandelbrotLimitReport:
    """Track the coefficient of q^j across z_1..z_(j+3) and report against
    both candidate limits.  The coefficient stabilizes once n >= j."""
    if j < 1:
        raise ValueError("coefficient index must be >= 1")
    n_max = j + 3
    values = []
    for n in range(1, n_max + 1):
        values.append((n, mandelbrot_poly(n, max_degree=j).coefficient(j)))
    target = catalan(j - 1)
    stabilized_at: int | None = None
    for n, v in values:
        if v == target:
            if stabilized_at is None:
                stabilized_at = n
        else:
            stabilized_at = None
    return MandelbrotLimitReport(
        j=j,
        n_max=n_max,
        values=tuple(values),
        empirical_target=target,
        printed_target=catalan(j),
        stabilized_at=stabilized_at,
    )


ASYMPTOTIC_CSV_HEADER = "i,j,beta,n"


def render_asymptotic_csv(table: BettiTable) -> str:
    """CSV rows i,j,beta,n for the limiting table, in any size; the depth
    column carries "inf"."""
    rows = (f"{i},{j},{_int_text(beta)},inf\n" for i, j, beta in table.entries()[1:])
    return ASYMPTOTIC_CSV_HEADER + "\n" + "".join(rows)
