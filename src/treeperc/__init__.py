"""Exact-arithmetic engine for graded Betti tables, Hilbert-series numerators
and percolation bounds of path and cut ideals of complete k-ary trees.

The package is organized around one object — the bigraded generating function
of a tree ideal's minimal free resolution — computed by exact recursions over
integer polynomials, specialized on demand into Betti tables, Hilbert
numerators, reliability polynomials, truncation bounds, critical values and
asymptotics, and cross-checked against independent exhaustive oracles.
"""

from __future__ import annotations

from .asymptotics import (
    MandelbrotLimitReport,
    MandelbrotPolynomial,
    asymptotic_betti_k2,
    asymptotic_table,
    betti_from_mandelbrot,
    catalan,
    mandelbrot_catalan_limit_check,
    mandelbrot_poly,
    stabilization_prefix,
)
from .bivar import BivarPoly, UniPoly
from .limits import (
    Budget,
    BudgetExceededError,
    DEFAULT_BUDGET,
    InexactDivisionError,
    NoRealRootError,
    PoleError,
    TreepercError,
)
from .oracle import (
    MonomialSet,
    alexander_dual,
    cut_gf_recursive,
    cut_monomials,
    double_bridge_cut_monomials,
    double_bridge_path_monomials,
    failure_exhaustive,
    multigraded_betti_homology,
    path_monomials,
    reliability_exhaustive,
    taylor_numerator,
    union_probability_exhaustive,
)
from .percolation import (
    BoundResult,
    CurveRow,
    closed_form_path_bound,
    curve_figure3,
    curve_figure4,
    curve_rows_cut,
    curve_rows_path,
    cut_asymptote_closed_form_k2_m2,
    cut_bound,
    cut_bound_m2_recursive,
    cut_fixed_point_m2,
    failure_exact,
    path_bound,
    percolation_exact,
    percolation_infinite,
    q_star,
    q_star_exact,
    render_curve_csv,
)
from .resolutions import (
    BettiTable,
    betti_table,
    cut_gf,
    cut_x_degree,
    gf_to_numerator,
    mandelbrot_iterate,
    multibrot,
    path_betti_recursive,
    path_gf,
    tensor_product_betti,
    tensor_sum_betti,
)
from .trees import TreeSpec, enumerate_minimal_cuts, enumerate_path_generators, percolates
from .verify import CheckResult, VerifyReport, run_verify

__version__ = "0.1.0"

__all__ = [
    "BettiTable",
    "BivarPoly",
    "BoundResult",
    "Budget",
    "BudgetExceededError",
    "CheckResult",
    "CurveRow",
    "DEFAULT_BUDGET",
    "InexactDivisionError",
    "MandelbrotLimitReport",
    "MandelbrotPolynomial",
    "MonomialSet",
    "NoRealRootError",
    "PoleError",
    "TreeSpec",
    "TreepercError",
    "UniPoly",
    "VerifyReport",
    "alexander_dual",
    "asymptotic_betti_k2",
    "asymptotic_table",
    "betti_from_mandelbrot",
    "betti_table",
    "catalan",
    "closed_form_path_bound",
    "curve_figure3",
    "curve_figure4",
    "curve_rows_cut",
    "curve_rows_path",
    "cut_asymptote_closed_form_k2_m2",
    "cut_bound",
    "cut_bound_m2_recursive",
    "cut_fixed_point_m2",
    "cut_gf",
    "cut_gf_recursive",
    "cut_monomials",
    "cut_x_degree",
    "double_bridge_cut_monomials",
    "double_bridge_path_monomials",
    "enumerate_minimal_cuts",
    "enumerate_path_generators",
    "failure_exact",
    "failure_exhaustive",
    "gf_to_numerator",
    "mandelbrot_catalan_limit_check",
    "mandelbrot_iterate",
    "mandelbrot_poly",
    "multibrot",
    "multigraded_betti_homology",
    "path_betti_recursive",
    "path_bound",
    "path_gf",
    "path_monomials",
    "percolates",
    "percolation_exact",
    "percolation_infinite",
    "q_star",
    "q_star_exact",
    "reliability_exhaustive",
    "render_curve_csv",
    "run_verify",
    "stabilization_prefix",
    "taylor_numerator",
    "tensor_product_betti",
    "tensor_sum_betti",
    "union_probability_exhaustive",
]
