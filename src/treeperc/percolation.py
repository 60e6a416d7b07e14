"""Percolation probabilities, truncated-resolution bounds, critical values.

An edge of T(k, n) is operative with independent probability p; the tree
percolates when an operative root-to-leaf path exists.  Exact finite-depth
probabilities follow the recursion P_n = 1 - (1 - p P_{n-1})^k with P_0 = 1,
which equals the x = 1 specialization of the path Hilbert numerator at t = p.
The failure probability is the cut-side specialization at t = q = 1 - p.

Truncating the numerators at x-degree m yields the classical alternating
inclusion-exclusion bounds: odd m bounds from above, even m from below.  The
m = 1, 2, 3 path bounds admit closed forms; the first cut bound obeys the
recursion C_n = (C_{n-1} + q)^k whose fixed points exist up to the critical
value q* = (k-1)/k^2 * k^((k-2)/(k-1)).

Arithmetic is type-polymorphic: Fraction in, exact Fraction out; float in,
float out.  Exact evaluation is used by every acceptance-grade identity; the
curve samplers use floats (documented, display only).  Note that the exact
recursion's denominator size doubles per level, so exact deep recursions
(n beyond ~20) are infeasible by nature, not by implementation;
``percolation_exact`` refuses them against the budget before the work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence, Union

from .bivar import UniPoly
from . import limits
from .limits import NoRealRootError, PoleError, check_tree
from .resolutions import cut_gf, cut_x_degree, gf_to_numerator, path_gf

Number = Union[Fraction, int, float]

BISECTION_TOL = 1e-12


def _validate_prob(value: Number, name: str) -> None:
    if not 0 <= value <= 1:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")


def percolation_exact(k: int, n: int, p: Number) -> Number:
    """P_{k,n}(p) by the recursion P_m = 1 - (1 - p P_{m-1})^k, P_0 = 1.

    Exact for Fraction/int p, float arithmetic for float p.  Depth 0 is the
    single-node tree, which percolates with probability 1.  For exact p = a/b
    the denominator divides b^E, E = k + ... + k^n the edge count, so
    E * ceil(log2 b) bits are checked against the budget before the first level.
    """
    check_tree(k, n, min_n=0)
    _validate_prob(p, "p")
    if not isinstance(p, float):
        edges = (k ** (n + 1) - k) // (k - 1)
        limits.DEFAULT_BUDGET.check_bits(edges * (p.denominator - 1).bit_length(),
                                         f"percolation_exact({k}, {n}) denominator bits")
    prob = p * 0 + 1
    for _ in range(n):
        prob = 1 - (1 - p * prob) ** k
    return prob


def failure_exact(k: int, n: int, q: Number) -> Number:
    """Probability that no operative root-to-leaf path exists, at edge
    failure probability q (the cut-side specialization)."""
    _validate_prob(q, "q")
    return 1 - percolation_exact(k, n, 1 - q)


def _bisect(f: Callable[[float], float], lo: float, hi: float) -> float:
    """A root of f in [lo, hi], given f(lo) > 0 >= f(hi), to BISECTION_TOL."""
    while hi - lo > BISECTION_TOL / 10:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def percolation_infinite(k: int, p: Number) -> float:
    """Infinite-depth percolation probability, max(0, 1 - u) for the smallest
    root u in [0, 1] of u = (1 - p(1 - u))^k.

    Subcritical regime p <= 1/k returns exactly 0.0 (the tangent root u = 1;
    the comparison is exact for rational p).  The supercritical root is found
    by bisection to 1e-12.
    """
    check_tree(k)
    _validate_prob(p, "p")
    if p == 0:
        return 0.0
    if p == 1:
        return 1.0
    if isinstance(p, float):
        subcritical = p * k <= 1.0
    else:
        subcritical = Fraction(p) * k <= 1
    if subcritical:
        return 0.0
    pf = float(p)

    def f(u: float) -> float:
        return (1.0 - pf * (1.0 - u)) ** k - u

    # f(0) = (1-p)^k > 0, f(1) = 0
    return max(0.0, 1.0 - _bisect(f, 0.0, 1.0))


# -- truncated-resolution bounds ----------------------------------------------


@dataclass(frozen=True)
class BoundResult:
    """A truncation bound value with its direction.

    kind is "exact" when the truncation depth covers the whole numerator,
    otherwise "<family>_upper" for odd m and "<family>_lower" for even m
    (cut bounds bound the failure probability).  Values may leave [0, 1] in
    the divergence regime by design; ``clamped`` is for display.
    """

    value: Number
    kind: str
    k: int
    n: int
    m: int

    @property
    def clamped(self) -> Number:
        zero = self.value * 0
        one = zero + 1
        if self.value < zero:
            return zero
        if self.value > one:
            return one
        return self.value


def _bound_kind(family: str, m: int, full_degree: int) -> str:
    if m >= full_degree:
        return "exact"
    return f"{family}_{'upper' if m % 2 else 'lower'}"


def path_bound_poly(k: int, n: int, m: int) -> UniPoly:
    """The univariate bound polynomial B_{k,n,m}(t): the path numerator
    truncated at x-degree m, specialized to x = 1."""
    if m < 1:
        raise ValueError("truncation depth m must be >= 1")
    return gf_to_numerator(path_gf(k, n, x_truncation=m)).eval_x1()


def cut_bound_poly(k: int, n: int, m: int) -> UniPoly:
    """The univariate bound polynomial C_{k,n,m}(t) on the failure side."""
    if m < 1:
        raise ValueError("truncation depth m must be >= 1")
    return gf_to_numerator(cut_gf(k, n, x_truncation=m)).eval_x1()


def _eval_number(poly: UniPoly, value: Number, what: str) -> Number:
    """poly at value.  For exact value = a/b the result's denominator divides
    b^D, D the degree, so D * ceil(log2 b) bits are checked against the budget
    before the Horner; float values skip the check."""
    if isinstance(value, float):
        return poly.evaluate(value)
    value = Fraction(value)
    limits.DEFAULT_BUDGET.check_bits(poly.degree * (value.denominator - 1).bit_length(),
                                     f"{what} denominator bits")
    return poly.evaluate(value)


def path_bound(k: int, n: int, m: int, p: Number) -> BoundResult:
    """Truncation bound on the percolation probability: odd m from above,
    even m from below; m at or beyond x-degree k^n reproduces the exact value."""
    check_tree(k, n)
    _validate_prob(p, "p")
    value = _eval_number(path_bound_poly(k, n, m), p, f"path_bound({k}, {n}, {m})")
    return BoundResult(value, _bound_kind("path", m, k ** n), k, n, m)


def cut_bound(k: int, n: int, m: int, q: Number) -> BoundResult:
    """Truncation bound on the failure probability at edge-failure rate q."""
    check_tree(k, n)
    _validate_prob(q, "q")
    value = _eval_number(cut_bound_poly(k, n, m), q, f"cut_bound({k}, {n}, {m})")
    return BoundResult(value, _bound_kind("cut", m, cut_x_degree(k, n)), k, n, m)


def closed_form_path_bound(k: int, n: int, m: int, p: Number) -> Number:
    """Closed forms of the first three path bounds; equals path_bound exactly.

    The m = 2 form has a pole at p = 1/k, the m = 3 form also at p = -1/k
    (the factors (1 - kp) and (1 - k^2 p^2)); evaluation at a pole raises.
    """
    check_tree(k, n)
    if m not in (1, 2, 3):
        raise ValueError("closed forms exist for m in {1, 2, 3}")
    _validate_prob(p, "p")
    as_float = isinstance(p, float)
    pf = Fraction(p)
    kn = k ** n
    lead = pf ** n * kn
    if m == 1:
        value = lead
    elif m == 2:
        if k * pf == 1:
            raise PoleError("closed form m=2 has a pole at p = 1/k")
        series = 1 - Fraction(3 * k - 1, 2) * pf + Fraction(k - 1, 2) * kn * pf ** (n + 1)
        value = lead * series / (1 - k * pf)
    else:
        if k * pf == 1 or (k * pf) ** 2 == 1:
            raise PoleError("closed form m=3 has poles where (1-kp)(1-k^2p^2) = 0")
        series = (
            1
            - Fraction(3 * k - 1, 2) * pf
            - Fraction((k + 1) * (5 * k - 2), 6) * pf ** 2
            + Fraction(k * (11 * k * k - 6 * k + 1), 6) * pf ** 3
            + Fraction(k - 1, 2) * kn * pf ** (n + 1)
            - Fraction((k - 1) ** 2, 2) * kn * pf ** (n + 2)
            - Fraction((2 * k - 1) * (k - 1), 2) * k ** (n + 1) * pf ** (n + 3)
            + Fraction((2 * k - 1) * (k - 1), 6) * k ** (2 * n) * pf ** (2 * n + 2)
            + Fraction((k - 1) * (k - 2), 6) * k ** (2 * n + 1) * pf ** (2 * n + 3)
        )
        value = lead * series / ((1 - k * pf) * (1 - (k * pf) ** 2))
    return float(value) if as_float else value


def cut_bound_m2_recursive(k: int, n: int, q: Number) -> Number:
    """The first cut bound by its own recursion C_n = (C_{n-1} + q)^k, C_1 = q^k.

    Despite the traditional "m = 2" name this equals the truncation of the cut
    numerator at x-degree 1, i.e. cut_bound(k, n, 1, q) — the base case q^k is
    the whole x^1 coefficient of the depth-1 numerator (verified in tests).
    Diverges without bound for q above q_star(k); float overflow reports inf.
    """
    check_tree(k, n)
    _validate_prob(q, "q")
    value = q ** k
    try:
        for _ in range(1, n):
            value = (value + q) ** k
    except OverflowError:
        return math.inf
    return value


def q_star(k: int) -> float:
    """Critical edge-failure rate (k-1)/k^2 * k^((k-2)/(k-1)) above which the
    first cut bound diverges with depth."""
    check_tree(k)
    return (k - 1) / k ** 2 * k ** ((k - 2) / (k - 1))


def q_star_exact(k: int) -> Fraction | None:
    """Exact rational value of q_star when the exponent (k-2)/(k-1) is an
    integer — that is k = 2, where q* = 1/4.  None otherwise."""
    check_tree(k)
    if (k - 2) % (k - 1) == 0:
        return Fraction(k - 1, k ** 2) * k ** ((k - 2) // (k - 1))
    return None


def cut_fixed_point_m2(k: int, q: Number) -> float:
    """Smallest nonnegative root of z = (z + q)^k, to 1e-12.

    This is the depth limit of cut_bound_m2_recursive below criticality.  At
    q = q_star(k) the root is the tangency point (double root); above it
    there is no real root and NoRealRootError is raised.
    """
    check_tree(k)
    qf = float(q)
    if qf < 0:
        raise ValueError("q must be nonnegative")
    if qf == 0.0:
        return 0.0

    def f(z: float) -> float:
        return (z + qf) ** k - z

    # Convex in z; the minimum sits where k (z+q)^(k-1) = 1.
    z_min = (1.0 / k) ** (1.0 / (k - 1)) - qf
    if z_min <= 0.0 or f(z_min) > 0.0:
        raise NoRealRootError(f"z = (z + q)^{k} has no real root at q = {qf} > q* = {q_star(k)}")
    if f(z_min) == 0.0:
        return z_min
    return _bisect(f, 0.0, z_min)  # f(0) = q^k > 0 >= f(z_min)


def cut_asymptote_closed_form_k2_m2(q: Number) -> float:
    """Closed-form depth limit of the first cut bound for k = 2, stated only
    for k = 2 (its derivation squares):

        1/2 - q^2 + (6q^2 + 2q - 1) / (2 sqrt(1 - 4q)),   0 <= q < 1/4.

    Evaluated verbatim; the square root forces q < 1/4.
    """
    qf = float(q)
    if qf < 0:
        raise ValueError("q must be nonnegative")
    if qf >= 0.25:
        raise PoleError("the closed form requires q < 1/4")
    return 0.5 - qf * qf + 0.5 * (6.0 * qf * qf + 2.0 * qf - 1.0) / math.sqrt(1.0 - 4.0 * qf)


# -- curve sampling ------------------------------------------------------------


@dataclass(frozen=True)
class CurveRow:
    """One sampled row of a bound-curve artifact (floats, display precision)."""

    p: float
    exact: float
    lower: float
    upper: float
    k: int
    n: int
    m_lower: int
    m_upper: int


CURVE_CSV_HEADER = "p,exact,lower,upper,k,n,m_lower,m_upper"


def _grid(samples: int, hi: Fraction = Fraction(1)) -> list[Fraction]:
    if samples < 2:
        raise ValueError("need at least 2 samples")
    return [hi * i / (samples - 1) for i in range(samples)]


def _curve_rows(grid: Sequence[Fraction], exact: Callable[[Fraction], Number],
                lower: Callable[[Fraction], Number], upper: Callable[[Fraction], Number],
                k: int, n: int, m_lower: int, m_upper: int) -> list[CurveRow]:
    """One row per grid point, each column evaluated exactly then rounded."""
    return [CurveRow(p=float(x), exact=float(exact(x)), lower=float(lower(x)),
                     upper=float(upper(x)), k=k, n=n, m_lower=m_lower, m_upper=m_upper)
            for x in grid]


def curve_rows_path(k: int, n: int, m_lower: int, m_upper: int, samples: int = 101) -> list[CurveRow]:
    """Operating-probability rows: exact curve with even/odd truncation bounds."""
    lower_poly = path_bound_poly(k, n, m_lower)
    upper_poly = path_bound_poly(k, n, m_upper)
    return _curve_rows(_grid(samples), lambda p: percolation_exact(k, n, p),
                       lower_poly.evaluate, upper_poly.evaluate, k, n, m_lower, m_upper)


def curve_rows_cut(k: int, n: int, m_lower: int, m_upper: int, samples: int = 101,
                   q_max: Fraction = Fraction(1)) -> list[CurveRow]:
    """Failure-probability rows on a q-grid (q sits in the p column)."""
    lower_poly = cut_bound_poly(k, n, m_lower)
    upper_poly = cut_bound_poly(k, n, m_upper)
    return _curve_rows(_grid(samples, q_max), lambda q: failure_exact(k, n, q),
                       lower_poly.evaluate, upper_poly.evaluate, k, n, m_lower, m_upper)


def curve_rows_cut_dual(k: int, n: int, m_on_lower: int, m_on_upper: int,
                        samples: int = 101) -> list[CurveRow]:
    """Cut bounds mapped to the operating probability via P = 1 - Pfail(1-p).

    An odd-m cut bound (upper on failure) turns into a lower bound on the
    operating probability and vice versa, so m_on_lower is odd here.
    """
    lower_poly = cut_bound_poly(k, n, m_on_lower)
    upper_poly = cut_bound_poly(k, n, m_on_upper)
    return _curve_rows(_grid(samples), lambda p: percolation_exact(k, n, p),
                       lambda p: 1 - lower_poly.evaluate(1 - p),
                       lambda p: 1 - upper_poly.evaluate(1 - p),
                       k, n, m_on_lower, m_on_upper)


def curve_figure3(samples: int = 101) -> list[CurveRow]:
    """Preset: k=2, n=4 operating probability with m in {3, 4} bounds from
    both families — path rows (m_lower=4, m_upper=3) then duality-mapped cut
    rows (m_lower=3, m_upper=4)."""
    return curve_rows_path(2, 4, 4, 3, samples) + curve_rows_cut_dual(2, 4, 3, 4, samples)


def curve_figure4(samples: int = 101) -> list[CurveRow]:
    """Preset: k=2, n=6 failure probability near the critical q* = 1/4, cut
    bounds m in {3, 4}; q ranges over [0, 1/2] (in the p column)."""
    return curve_rows_cut(2, 6, 4, 3, samples, q_max=Fraction(1, 2))


def render_curve_csv(rows: Sequence[CurveRow], clamp: bool = False) -> str:
    """CSV artifact; ``clamp`` restricts bound columns to [0, 1] for display."""

    def fmt(v: float) -> str:
        return repr(min(1.0, max(0.0, v)) if clamp else v)

    lines = [CURVE_CSV_HEADER]
    for r in rows:
        lines.append(",".join([
            repr(r.p), repr(r.exact), fmt(r.lower), fmt(r.upper),
            str(r.k), str(r.n), str(r.m_lower), str(r.m_upper),
        ]))
    return "\n".join(lines) + "\n"
