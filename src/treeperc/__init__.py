"""Exact-arithmetic engine for graded Betti tables, Hilbert-series numerators
and percolation bounds of path and cut ideals of complete k-ary trees.

The package is organized around one object — the bigraded generating function
of a tree ideal's minimal free resolution — computed by exact recursions over
integer polynomials, specialized on demand into Betti tables, Hilbert
numerators, reliability polynomials, truncation bounds, critical values and
asymptotics, and cross-checked against independent exhaustive oracles.
"""

from __future__ import annotations

from importlib import import_module

__version__ = "0.1.0"

# Home module of each exported name.  ``import treeperc`` loads no submodule:
# a name's module is imported the first time the name is read (PEP 562), so a
# CLI command loads only the modules it runs.
_HOMES = {
    "asymptotics": (
        "MandelbrotLimitReport", "MandelbrotPolynomial", "asymptotic_betti_k2",
        "asymptotic_table", "betti_from_mandelbrot", "catalan",
        "mandelbrot_catalan_limit_check", "mandelbrot_poly",
        "stabilization_prefix",
    ),
    "bivar": ("BivarPoly", "UniPoly"),
    "limits": (
        "Budget", "BudgetExceededError", "DEFAULT_BUDGET",
        "InexactDivisionError", "NoRealRootError", "PoleError",
        "TreepercError",
    ),
    "oracle": (
        "MonomialSet", "alexander_dual", "cut_gf_recursive", "cut_monomials",
        "double_bridge_cut_monomials", "double_bridge_path_monomials",
        "failure_exhaustive", "multigraded_betti_homology", "path_monomials",
        "reliability_exhaustive", "taylor_numerator",
        "union_probability_exhaustive",
    ),
    "percolation": (
        "BoundResult", "CurveRow", "closed_form_path_bound", "curve_figure3",
        "curve_figure4", "curve_rows_cut", "curve_rows_path",
        "cut_asymptote_closed_form_k2_m2", "cut_bound",
        "cut_bound_m2_recursive", "cut_fixed_point_m2", "failure_exact",
        "path_bound", "percolation_exact", "percolation_infinite", "q_star",
        "q_star_exact", "render_curve_csv",
    ),
    "resolutions": (
        "BettiTable", "betti_table", "cut_gf", "cut_x_degree",
        "gf_to_numerator", "mandelbrot_iterate", "multibrot",
        "path_betti_recursive", "path_gf", "tensor_product_betti",
        "tensor_sum_betti",
    ),
    "trees": (
        "TreeSpec", "enumerate_minimal_cuts", "enumerate_path_generators",
        "percolates",
    ),
    "verify": ("CheckResult", "VerifyReport", "run_verify"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME_OF)


def __getattr__(name: str):
    # Looked up on every access, never stored in the package's globals, so a
    # rebinding in the home module (a test's monkeypatch, a tracer's wrapper)
    # is what the package name reads too.
    try:
        module = _HOME_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
