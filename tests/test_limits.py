"""The one tree-shape rule, ``limits.check_tree``, as every (k, n) entry point
reports it, and the one size budget, ``limits.DEFAULT_BUDGET``, that every size
check reads."""
from __future__ import annotations

from fractions import Fraction

import pytest

from treeperc import asymptotics, oracle, percolation, resolutions, trees
from treeperc.limits import BudgetExceededError

HALF = Fraction(1, 2)

# (name, call(k, n), takes k, smallest accepted depth or None when n is not an input)
ENTRY_POINTS = [
    ("TreeSpec", lambda k, n: trees.TreeSpec(k, n), True, 1),
    ("path_gf", lambda k, n: resolutions.path_gf(k, n), True, 1),
    ("cut_gf", lambda k, n: resolutions.cut_gf(k, n), True, 1),
    ("cut_x_degree", lambda k, n: resolutions.cut_x_degree(k, n), True, 1),
    ("path_betti_recursive", lambda k, n: resolutions.path_betti_recursive(k, n), True, 1),
    ("multibrot", lambda k, n: resolutions.multibrot(k, n), True, 0),
    ("mandelbrot_iterate", lambda k, n: resolutions.mandelbrot_iterate(n), False, 0),
    ("cut_gf_recursive", lambda k, n: oracle.cut_gf_recursive(k, n), True, 1),
    ("percolation_exact", lambda k, n: percolation.percolation_exact(k, n, HALF), True, 0),
    ("failure_exact", lambda k, n: percolation.failure_exact(k, n, HALF), True, 0),
    ("path_bound", lambda k, n: percolation.path_bound(k, n, 1, HALF), True, 1),
    ("cut_bound", lambda k, n: percolation.cut_bound(k, n, 1, HALF), True, 1),
    ("curve_rows_path", lambda k, n: percolation.curve_rows_path(k, n, 2, 1), True, 1),
    ("curve_rows_cut", lambda k, n: percolation.curve_rows_cut(k, n, 2, 1), True, 1),
    ("closed_form_path_bound",
     lambda k, n: percolation.closed_form_path_bound(k, n, 1, HALF), True, 1),
    ("cut_bound_m2_recursive",
     lambda k, n: percolation.cut_bound_m2_recursive(k, n, HALF), True, 1),
    ("percolation_infinite", lambda k, n: percolation.percolation_infinite(k, HALF), True, None),
    ("q_star", lambda k, n: percolation.q_star(k), True, None),
    ("q_star_exact", lambda k, n: percolation.q_star_exact(k), True, None),
    ("cut_fixed_point_m2", lambda k, n: percolation.cut_fixed_point_m2(k, 0.1), True, None),
    ("betti_from_mandelbrot", lambda k, n: asymptotics.betti_from_mandelbrot(n, 1, 1), False, 1),
    ("stabilization_prefix", lambda k, n: asymptotics.stabilization_prefix(n), False, 1),
]

CASES = (
    [pytest.param(call, 1, 3, "branching factor k must be >= 2", id=f"{name}-k1")
     for name, call, takes_k, _ in ENTRY_POINTS if takes_k]
    + [pytest.param(call, 2, min_n - 1, f"depth n must be >= {min_n}", id=f"{name}-n{min_n - 1}")
       for name, call, _, min_n in ENTRY_POINTS if min_n is not None]
    # Below zero these report their own minimum, not the >= 0 of the other bounds.
    + [pytest.param(call, 2, -1, "depth n must be >= 1", id=f"{name}-n-1")
       for name, call, _, _ in ENTRY_POINTS
       if name in ("path_bound", "cut_bound", "closed_form_path_bound", "cut_bound_m2_recursive")]
)


@pytest.mark.parametrize("call, k, n, message", CASES)
def test_entry_point_refuses_tree_shape(call, k, n, message):
    with pytest.raises(ValueError) as exc:
        call(k, n)
    assert str(exc.value) == message


# Every size check, each on an input just past a one-term, one-bit budget.
SIZE_CHECKS = [
    ("path_gf", lambda: resolutions.path_gf(2, 1)),
    ("cut_gf", lambda: resolutions.cut_gf(2, 2)),
    ("multibrot", lambda: resolutions.multibrot(2, 2)),
    ("mandelbrot_iterate", lambda: resolutions.mandelbrot_iterate(3)),
    ("path_bound", lambda: percolation.path_bound(2, 2, 1, HALF)),
    ("cut_bound", lambda: percolation.cut_bound(2, 2, 1, HALF)),
    ("percolation_exact", lambda: percolation.percolation_exact(2, 2, HALF)),
    ("asymptotic_table", lambda: asymptotics.asymptotic_table(2)),
    ("mandelbrot_poly", lambda: asymptotics.mandelbrot_poly(3)),
    ("path_betti_recursive", lambda: resolutions.path_betti_recursive(2, 2)),
    ("cut_gf_recursive", lambda: oracle.cut_gf_recursive(2, 2)),
    ("enumerate_path_generators", lambda: trees.enumerate_path_generators(trees.TreeSpec(2, 1))),
    ("enumerate_minimal_cuts", lambda: trees.enumerate_minimal_cuts(trees.TreeSpec(2, 2))),
]


@pytest.mark.parametrize("call", [pytest.param(call, id=name) for name, call in SIZE_CHECKS])
def test_one_binding_moves_every_size_check(call, budget):
    call()  # fits the default budget
    with budget(max_terms=1, max_coeff_bits=1), pytest.raises(BudgetExceededError):
        call()
