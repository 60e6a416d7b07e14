"""Independent brute-force routes: state sweeps, Taylor complex, duality, homology."""
from __future__ import annotations

from fractions import Fraction

import pytest

from treeperc import oracle
from treeperc.bivar import BivarPoly
from treeperc.limits import BudgetExceededError, TreepercError
from treeperc.oracle import (
    DOUBLE_BRIDGE_VARIABLES,
    MonomialSet,
    alexander_dual,
    cut_gf_recursive,
    cut_monomials,
    double_bridge_cut_monomials,
    double_bridge_path_monomials,
    failure_exhaustive,
    lcm_lattice,
    multigraded_betti_homology,
    path_monomials,
    reliability_exhaustive,
    taylor_numerator,
    tree_variables,
    union_probability_exhaustive,
)
from treeperc.percolation import failure_exact, percolation_exact
from treeperc.resolutions import betti_table, cut_gf, gf_to_numerator, path_gf
from treeperc.trees import TreeSpec

HALF = Fraction(1, 2)


def monomial_strings(ms: MonomialSet) -> list[str]:
    return ["*".join(ms.support_names(g)) for g in ms.generators]


class TestMonomialSet:
    def test_from_supports_by_name(self):
        by_name = MonomialSet.from_supports(("a", "b", "c"), [("a", "b"), ("c",)])
        assert by_name == MonomialSet(("a", "b", "c"), (3, 4))
        assert by_name.generators == (3, 4)

    def test_support_names_and_strings(self):
        ms = MonomialSet.from_supports(("a", "b", "c"), [("a", "c")])
        assert ms.support_names(5) == ("a", "c")
        assert monomial_strings(ms) == ["a*c"]

    def test_rejects_duplicate_variables(self):
        with pytest.raises(ValueError):
            MonomialSet(("a", "a"), (1,))

    def test_rejects_trivial_generators(self):
        with pytest.raises(ValueError):
            MonomialSet(("a", "b"), (0,))
        with pytest.raises(ValueError):
            MonomialSet(("a",), (2,))

    def test_rejects_non_minimal_generators(self):
        # a divides a*b, so {a, a*b} is not a minimal generating set.
        with pytest.raises(ValueError):
            MonomialSet(("a", "b"), (1, 3))

    def test_deduplicates_and_sorts(self):
        ms = MonomialSet(("a", "b", "c"), (6, 1, 6))
        assert ms.generators == (1, 6)


class TestTreeMonomials:
    def test_variables_are_level_labels(self):
        assert tree_variables(TreeSpec(2, 2)) == ("x1", "x2", "x3", "x4", "x5", "x6")

    def test_path_generators_depth_two(self):
        ms = path_monomials(TreeSpec(2, 2))
        assert set(monomial_strings(ms)) == {"x1*x3", "x1*x4", "x2*x5", "x2*x6"}

    def test_cut_generators_depth_two(self):
        ms = cut_monomials(TreeSpec(2, 2))
        assert set(monomial_strings(ms)) == {
            "x1*x2", "x1*x5*x6", "x2*x3*x4", "x3*x4*x5*x6",
        }

    def test_generator_counts(self):
        assert len(path_monomials(TreeSpec(3, 2)).generators) == 9
        assert len(cut_monomials(TreeSpec(3, 2)).generators) == 8
        assert len(cut_monomials(TreeSpec(2, 3)).generators) == 25


class TestExhaustiveSweep:
    def test_single_generator(self):
        ms = MonomialSet.from_supports(("a", "b"), [("a", "b")])
        assert union_probability_exhaustive(ms, HALF) == Fraction(1, 4)

    def test_reliability_depth_two(self):
        assert reliability_exhaustive(TreeSpec(2, 2), HALF) == Fraction(39, 64)

    def test_failure_depth_two(self):
        assert failure_exhaustive(TreeSpec(2, 2), HALF) == Fraction(25, 64)

    def test_three_routes_agree(self):
        for k, n in [(2, 1), (2, 2), (3, 1)]:
            spec = TreeSpec(k, n)
            h = gf_to_numerator(path_gf(k, n)).eval_x1()
            for p in (Fraction(1, 3), HALF, Fraction(2, 3)):
                sweep = reliability_exhaustive(spec, p)
                assert sweep == percolation_exact(k, n, p)
                assert sweep == h.evaluate(p)

    def test_failure_routes_agree(self):
        spec = TreeSpec(2, 2)
        for q in (Fraction(1, 4), Fraction(3, 5)):
            assert failure_exhaustive(spec, q) == failure_exact(2, 2, q)

    def test_complementarity(self):
        spec = TreeSpec(3, 1)
        p = Fraction(2, 7)
        assert reliability_exhaustive(spec, p) + failure_exhaustive(spec, 1 - p) == 1

    def test_state_cap(self, monkeypatch):
        # A cap of 5 must refuse the 6-edge (2, 2) tree; the 24-edge cap
        # refuses the 30-edge (2, 4) tree.
        with monkeypatch.context() as patched:
            patched.setattr(oracle, "ORACLE_STATE_CAP", 5)
            with pytest.raises(BudgetExceededError):
                reliability_exhaustive(TreeSpec(2, 2), HALF)
        with pytest.raises(BudgetExceededError):
            reliability_exhaustive(TreeSpec(2, 4), HALF)


class TestCutRecursion:
    def test_matches_multibrot_route(self):
        # The bivariate recursion and the closed-form Multibrot expansion
        # share no arithmetic beyond BivarPoly, so equality checks both.
        for k, depth in ((2, 5), (3, 3), (4, 2)):
            for n in range(1, depth + 1):
                for m in (None, -1, 0, 1, 2, 3):
                    assert (cut_gf_recursive(k, n, x_truncation=m)
                            == cut_gf(k, n, x_truncation=m)), (k, n, m)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            cut_gf_recursive(1, 2)
        with pytest.raises(ValueError):
            cut_gf_recursive(2, 0)


class TestTaylorNumerator:
    def test_minimal_for_path_ideals(self):
        # The subset-indexed resolution is minimal for tree path ideals, so
        # the alternating sum reproduces the minimal numerator termwise.
        for k, n in [(2, 1), (2, 2), (3, 1), (2, 3)]:
            ms = path_monomials(TreeSpec(k, n))
            assert taylor_numerator(ms) == gf_to_numerator(path_gf(k, n))

    def test_not_minimal_for_cut_ideals_but_same_specialization(self):
        # Cut ideals: the subset route overcounts termwise, yet the x = 1
        # collapse (the probability) is resolution-independent.
        for k, n in [(2, 2), (3, 1)]:
            ms = cut_monomials(TreeSpec(k, n))
            taylor = taylor_numerator(ms)
            minimal = gf_to_numerator(cut_gf(k, n))
            assert taylor.eval_x1() == minimal.eval_x1()
        ms22 = cut_monomials(TreeSpec(2, 2))
        assert taylor_numerator(ms22) != gf_to_numerator(cut_gf(2, 2))

    def test_single_generator(self):
        ms = MonomialSet.from_supports(("a", "b"), [("a", "b")])
        assert taylor_numerator(ms) == BivarPoly({(1, 2): 1})

    def test_inclusion_exclusion_shape(self):
        # Two generators sharing one variable: x*t^2*2 - x^2*t^3.
        ms = MonomialSet.from_supports(("a", "b", "c"), [("a", "b"), ("b", "c")])
        assert taylor_numerator(ms) == BivarPoly({(1, 2): 2, (2, 3): -1})

    def test_subset_cap(self):
        ms = cut_monomials(TreeSpec(2, 3))  # 25 generators
        with pytest.raises(BudgetExceededError):
            taylor_numerator(ms)


class TestAlexanderDual:
    def test_tree_duality(self):
        for k, n in [(2, 1), (2, 2), (2, 3), (3, 2)]:
            spec = TreeSpec(k, n)
            assert alexander_dual(path_monomials(spec)) == cut_monomials(spec)

    def test_involution(self):
        for ms in (path_monomials(TreeSpec(2, 2)), cut_monomials(TreeSpec(3, 2))):
            assert alexander_dual(alexander_dual(ms)) == ms

    def test_simple_example(self):
        # dual of {ab} is {a, b}.
        ms = MonomialSet.from_supports(("a", "b"), [("a", "b")])
        assert alexander_dual(ms) == MonomialSet.from_supports(("a", "b"), [("a",), ("b",)])


class TestDoubleBridge:
    def test_shape(self):
        paths = double_bridge_path_monomials()
        cuts = double_bridge_cut_monomials()
        assert paths.variables == cuts.variables == DOUBLE_BRIDGE_VARIABLES
        assert len(paths.generators) == 9
        assert len(cuts.generators) == 8

    def test_duality_both_ways(self):
        assert alexander_dual(double_bridge_path_monomials()) == double_bridge_cut_monomials()
        assert alexander_dual(double_bridge_cut_monomials()) == double_bridge_path_monomials()

    def test_reliability_value(self):
        assert union_probability_exhaustive(double_bridge_path_monomials(), HALF) == Fraction(43, 64)

    def test_complementarity(self):
        p = Fraction(3, 7)
        rel = union_probability_exhaustive(double_bridge_path_monomials(), p)
        fail = union_probability_exhaustive(double_bridge_cut_monomials(), 1 - p)
        assert rel + fail == 1


class TestHomology:
    def test_lcm_lattice_depth_one(self):
        ms = path_monomials(TreeSpec(2, 1))
        # Generators x1, x2 and their join x1*x2.
        assert lcm_lattice(ms) == [1, 2, 3]

    def test_cut_22_matches_generating_function(self):
        ms = cut_monomials(TreeSpec(2, 2))
        assert multigraded_betti_homology(ms) == betti_table(cut_gf(2, 2))

    def test_path_22_matches_generating_function(self):
        ms = path_monomials(TreeSpec(2, 2))
        assert multigraded_betti_homology(ms) == betti_table(path_gf(2, 2))

    def test_cut_23_matches_generating_function(self):
        # A depth-3 table with no golden data; slow, so not in the verify battery.
        ms = cut_monomials(TreeSpec(2, 3))
        assert multigraded_betti_homology(ms) == betti_table(cut_gf(2, 3))

    def test_path_32_matches_generating_function(self):
        # A k = 3 path table with no golden data; slow, so not in the verify battery.
        ms = path_monomials(TreeSpec(3, 2))
        assert multigraded_betti_homology(ms) == betti_table(path_gf(3, 2))

    def test_path_23_matches_generating_function(self):
        # The 14-variable path table, at the variable cap.
        ms = path_monomials(TreeSpec(2, 3))
        assert multigraded_betti_homology(ms) == betti_table(path_gf(2, 3))

    @pytest.mark.parametrize("monomials, gf", [(cut_monomials, cut_gf),
                                               (path_monomials, path_gf)])
    def test_31_matches_generating_function(self, monomials, gf):
        assert multigraded_betti_homology(monomials(TreeSpec(3, 1))) == betti_table(gf(3, 1))

    def test_double_bridge_tables(self):
        # Non-tree tables with no generating function, pinned as computed.
        # beta_1 counts the generators (9 paths, 8 cuts); Alexander duality
        # does not carry one table to the other, so both are pinned.
        paths = multigraded_betti_homology(double_bridge_path_monomials())
        assert paths.as_dict() == {
            (0, 0): 1, (1, 2): 3, (1, 3): 4, (1, 4): 2, (2, 4): 11, (2, 5): 14,
            (3, 5): 4, (3, 6): 27, (4, 7): 18, (5, 8): 4}
        assert paths.totals() == (1, 9, 25, 31, 18, 4)
        cuts = multigraded_betti_homology(double_bridge_cut_monomials())
        assert cuts.as_dict() == {
            (0, 0): 1, (1, 3): 2, (1, 4): 4, (1, 5): 2, (2, 5): 4, (2, 6): 13,
            (3, 7): 14, (4, 8): 4}
        assert cuts.totals() == (1, 8, 17, 14, 4)

    def test_point_plus_circle_is_refused(self):
        # At the top multidegree the upper Koszul complex is the point v
        # beside the hollow triangle abc: reduced homology in degrees 0 and
        # 1, so the GF(2) ranks certify nothing and no table is returned.
        ms = MonomialSet.from_supports(("v", "a", "b", "c"),
                                       [("a", "b", "c"), ("v", "c"), ("v", "a"), ("v", "b")])
        with pytest.raises(TreepercError, match=r"multidegree v\*a\*b\*c "):
            multigraded_betti_homology(ms)

    def test_projective_plane_is_refused(self):
        # Complements of the 10 triangles of the 6-vertex RP^2: at the top
        # multidegree the complex is RP^2 itself, with h1 = h2 = 1 over GF(2)
        # and no rational homology.  The GF(2) numbers must not be reported.
        triangles = ("123", "134", "145", "156", "126", "235", "245", "246", "346", "356")
        names = tuple(f"x{v}" for v in "123456")
        ms = MonomialSet.from_supports(
            names, [[f"x{v}" for v in "123456" if v not in tri] for tri in triangles])
        with pytest.raises(TreepercError, match=r"multidegree x1\*x2\*x3\*x4\*x5\*x6 "):
            multigraded_betti_homology(ms)

    def test_variable_cap(self, monkeypatch):
        # A cap of 5 must refuse the 6-variable depth-2 instance; the (2,3)
        # tree sits exactly at the 14-variable cap, so (2, 4) is refused.
        with monkeypatch.context() as patched:
            patched.setattr(oracle, "ORACLE_HOMOLOGY_CAP", 5)
            with pytest.raises(BudgetExceededError):
                multigraded_betti_homology(cut_monomials(TreeSpec(2, 2)))
        with pytest.raises(BudgetExceededError):
            multigraded_betti_homology(cut_monomials(TreeSpec(2, 4)))
