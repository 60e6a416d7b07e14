"""Percolation probabilities, truncation bounds, critical values, curves."""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeperc.limits import NoRealRootError, PoleError
from treeperc.percolation import (
    CURVE_CSV_HEADER,
    BoundResult,
    closed_form_path_bound,
    curve_figure3,
    curve_figure4,
    curve_rows_cut,
    curve_rows_path,
    cut_asymptote_closed_form_k2_m2,
    cut_bound,
    cut_bound_m2_recursive,
    cut_fixed_point_m2,
    cut_bound_poly,
    failure_exact,
    path_bound,
    path_bound_poly,
    percolation_exact,
    percolation_infinite,
    q_star,
    q_star_exact,
    render_curve_csv,
)
from treeperc.resolutions import cut_gf, gf_to_numerator, path_gf

HALF = Fraction(1, 2)


class TestPercolationExact:
    def test_depth_one_binary_formula(self):
        for p in (Fraction(0), Fraction(1, 3), HALF, Fraction(9, 10), Fraction(1)):
            assert percolation_exact(2, 1, p) == 2 * p - p * p

    def test_certainty_at_p_one(self):
        assert percolation_exact(2, 2, Fraction(1)) == 1

    def test_depth_two_binary_at_half(self):
        assert percolation_exact(2, 2, HALF) == Fraction(39, 64)
        # The complementary event: both probabilities sum to one.
        assert failure_exact(2, 2, HALF) == Fraction(25, 64)

    def test_matches_numerator_specialization(self):
        for k, n in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]:
            h = gf_to_numerator(path_gf(k, n)).eval_x1()
            for p in (Fraction(1, 3), HALF, Fraction(2, 3)):
                assert percolation_exact(k, n, p) == h.evaluate(p)

    def test_failure_matches_cut_numerator(self):
        for k, n in [(2, 2), (3, 2)]:
            ht = gf_to_numerator(cut_gf(k, n)).eval_x1()
            for q in (Fraction(1, 4), HALF):
                assert failure_exact(k, n, q) == ht.evaluate(q)

    def test_depth_zero_is_certain(self):
        assert percolation_exact(2, 0, HALF) == 1

    def test_type_polymorphism(self):
        assert isinstance(percolation_exact(2, 2, HALF), Fraction)
        assert isinstance(percolation_exact(2, 2, 0.5), float)
        assert percolation_exact(2, 2, 0.5) == pytest.approx(39 / 64)

    def test_monotone_in_p(self):
        grid = [Fraction(i, 20) for i in range(21)]
        values = [percolation_exact(2, 3, p) for p in grid]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_nonincreasing_in_depth(self):
        for p in (Fraction(1, 4), HALF, Fraction(3, 4)):
            values = [percolation_exact(2, n, p) for n in range(6)]
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            percolation_exact(2, 2, Fraction(3, 2))
        with pytest.raises(ValueError):
            failure_exact(2, 2, -0.25)


class TestPercolationInfinite:
    def test_supercritical_binary(self):
        assert percolation_infinite(2, 0.75) == pytest.approx(8 / 9, abs=1e-10)

    def test_zero_at_and_below_criticality(self):
        for k in (2, 3, 4):
            assert percolation_infinite(k, Fraction(1, k)) == 0.0
            assert percolation_infinite(k, 1 / k) == 0.0
            assert percolation_infinite(k, Fraction(1, k + 1)) == 0.0

    def test_boundary_values(self):
        assert percolation_infinite(2, 1) == 1.0
        assert percolation_infinite(3, 0) == 0.0

    def test_fixed_point_property(self):
        # 1 - P solves u = (1 - p(1 - u))^k.
        for k, p in [(2, 0.8), (3, 0.5), (4, 0.3)]:
            u = 1 - percolation_infinite(k, p)
            assert (1 - p * (1 - u)) ** k == pytest.approx(u, abs=1e-9)

    def test_monotone_in_p(self):
        values = [percolation_infinite(2, p / 100) for p in range(101)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_finite_depth_approaches_infinite(self):
        for p in (0.75, 0.9):
            gap = abs(percolation_exact(2, 30, p) - percolation_infinite(2, p))
            assert gap < 1e-6

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            percolation_infinite(2, 1.5)


class TestPathBound:
    def test_first_truncation_closed_form(self):
        for k, n in [(2, 2), (2, 3), (3, 2)]:
            for p in (Fraction(1, 3), HALF):
                assert path_bound(k, n, 1, p).value == p ** n * k ** n

    def test_full_depth_is_exact(self):
        r = path_bound(2, 2, 4, HALF)
        assert r.kind == "exact"
        assert r.value == percolation_exact(2, 2, HALF)

    def test_even_truncation_is_lower(self):
        r = path_bound(2, 2, 2, HALF)
        assert r.kind == "path_lower"
        assert r.value <= percolation_exact(2, 2, HALF)

    def test_kind_parity(self):
        assert path_bound(2, 3, 3, HALF).kind == "path_upper"
        assert path_bound(2, 3, 6, HALF).kind == "path_lower"
        assert path_bound(2, 3, 8, HALF).kind == "exact"

    def test_result_metadata(self):
        r = path_bound(3, 2, 2, Fraction(1, 4))
        assert (r.k, r.n, r.m) == (3, 2, 2)
        assert isinstance(r, BoundResult)


class TestCutBound:
    def test_depth_one(self):
        for q in (Fraction(1, 3), HALF):
            assert cut_bound(2, 1, 1, q).value == q ** 2

    def test_depth_two_first_truncation(self):
        for q in (Fraction(1, 5), HALF, Fraction(7, 10)):
            assert cut_bound(2, 2, 1, q).value == q ** 2 * (q + 1) ** 2

    def test_full_depth_duality(self):
        for q in (Fraction(1, 4), HALF):
            r = cut_bound(2, 2, 3, q)
            assert r.kind == "exact"
            assert r.value == 1 - percolation_exact(2, 2, 1 - q)

    def test_kind_parity(self):
        assert cut_bound(2, 3, 3, HALF).kind == "cut_upper"
        assert cut_bound(2, 3, 4, HALF).kind == "cut_lower"

    def test_sandwich_small(self):
        for q in (Fraction(1, 10), Fraction(2, 5), Fraction(4, 5)):
            exact = failure_exact(2, 3, q)
            assert cut_bound(2, 3, 2, q).value <= exact <= cut_bound(2, 3, 1, q).value


rationals = st.builds(lambda b, a: Fraction(a % (b + 1), b), st.integers(1, 60), st.integers(0, 10 ** 6))
small_trees = st.tuples(st.integers(2, 3), st.integers(1, 3))


@lru_cache(maxsize=None)
def exact_polys(k: int, n: int):
    """Untruncated x = 1 numerators of the path and cut ideals."""
    return (gf_to_numerator(path_gf(k, n)).eval_x1(),
            gf_to_numerator(cut_gf(k, n)).eval_x1())


cached_path_bound = lru_cache(maxsize=None)(path_bound_poly)
cached_cut_bound = lru_cache(maxsize=None)(cut_bound_poly)


class TestBoundProperties:
    """Duality and sandwich at random rationals, for k <= 3 and n <= 3."""

    @settings(derandomize=True, database=None, max_examples=100)
    @given(small_trees, rationals)
    def test_duality_identity(self, tree, p):
        # P(p) = 1 - Pfail(1 - p), with each side from its own ideal.
        operating, failure = exact_polys(*tree)
        assert operating.evaluate(p) == 1 - failure.evaluate(1 - p)
        assert operating.evaluate(p) == percolation_exact(*tree, p)

    @settings(derandomize=True, database=None, max_examples=100)
    @given(small_trees, st.integers(1, 8), rationals)
    def test_sandwich(self, tree, m, p):
        # Odd truncations bound from above, even ones from below.
        exact_op, exact_fail = percolation_exact(*tree, p), failure_exact(*tree, 1 - p)
        for bound, exact in ((cached_path_bound(*tree, m).evaluate(p), exact_op),
                             (cached_cut_bound(*tree, m).evaluate(1 - p), exact_fail)):
            assert bound >= exact if m % 2 else bound <= exact


class TestBoundResultClamping:
    def test_clamped_restricts_to_unit_interval(self):
        # Divergent cut bounds can exceed 1; clamping is display-only.
        r = cut_bound(2, 5, 1, Fraction(9, 10))
        assert r.value > 1
        assert r.clamped == 1

    def test_clamped_preserves_type(self):
        r = cut_bound(2, 2, 1, HALF)
        assert isinstance(r.clamped, Fraction)
        rf = cut_bound(2, 2, 1, 0.5)
        assert isinstance(rf.clamped, float)


class TestClosedFormPathBound:
    def test_m1(self):
        for k, n in [(2, 2), (3, 3)]:
            p = Fraction(1, 5)
            assert closed_form_path_bound(k, n, 1, p) == p ** n * k ** n

    def test_m2_worked_value(self):
        assert closed_form_path_bound(2, 2, 2, Fraction(1, 4)) == Fraction(13, 64)
        assert path_bound(2, 2, 2, Fraction(1, 4)).value == Fraction(13, 64)

    def test_zero_probability(self):
        for m in (1, 2, 3):
            assert closed_form_path_bound(2, 3, m, Fraction(0)) == 0

    def test_matches_truncation_route(self):
        for m in (1, 2, 3):
            for k in (2, 3):
                for n in (2, 3):
                    for p in (Fraction(1, 5), Fraction(2, 7), Fraction(3, 5)):
                        if m >= 2 and k * p == 1:
                            continue
                        assert closed_form_path_bound(k, n, m, p) == path_bound(k, n, m, p).value

    def test_pole_errors(self):
        with pytest.raises(PoleError):
            closed_form_path_bound(2, 2, 2, HALF)
        with pytest.raises(PoleError):
            closed_form_path_bound(2, 2, 3, HALF)
        with pytest.raises(PoleError):
            closed_form_path_bound(3, 2, 2, Fraction(1, 3))
        # m=1 has no denominator, so the same point is fine.
        assert closed_form_path_bound(2, 2, 1, HALF) == Fraction(4, 4) * HALF ** 2 * 4

    def test_float_input_gives_float(self):
        v = closed_form_path_bound(2, 2, 2, 0.25)
        assert isinstance(v, float)
        assert v == pytest.approx(13 / 64)

    def test_unsupported_m_rejected(self):
        with pytest.raises(ValueError):
            closed_form_path_bound(2, 2, 4, HALF)


class TestCutBoundM2Recursion:
    def test_base_case(self):
        for q in (Fraction(1, 3), HALF):
            assert cut_bound_m2_recursive(2, 1, q) == q ** 2
            assert cut_bound_m2_recursive(3, 1, q) == q ** 3

    def test_depth_two(self):
        for q in (Fraction(1, 5), Fraction(2, 5)):
            assert cut_bound_m2_recursive(2, 2, q) == q ** 2 * (q + 1) ** 2

    def test_matches_first_truncation_of_cut_numerator(self):
        # The recursion reproduces the x-degree-1 truncation (the published
        # "m=2" label); n=1 pins the alignment: q^k is the x^1 coefficient.
        for k in (2, 3):
            for n in (1, 2, 3):
                for q in (Fraction(1, 7), Fraction(1, 3), Fraction(4, 5)):
                    assert cut_bound_m2_recursive(k, n, q) == cut_bound(k, n, 1, q).value

    def test_divergence_above_critical(self):
        values = [cut_bound_m2_recursive(2, n, 0.3) for n in range(1, 26)]
        assert any(v > 1e6 for v in values)
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_convergence_below_critical(self):
        target = cut_fixed_point_m2(2, 0.2)
        assert abs(cut_bound_m2_recursive(2, 60, 0.2) - target) < 1e-9

    def test_monotone_increasing_in_depth(self):
        values = [cut_bound_m2_recursive(2, n, Fraction(1, 5)) for n in range(1, 12)]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestCriticalValues:
    def test_q_star_binary(self):
        assert q_star(2) == 0.25
        assert q_star_exact(2) == Fraction(1, 4)

    def test_q_star_ternary(self):
        assert q_star(3) == pytest.approx(2 * math.sqrt(3) / 9, abs=1e-15)
        assert q_star_exact(3) is None

    def test_q_star_formula(self):
        for k in range(2, 11):
            expected = (k - 1) / k ** 2 * k ** ((k - 2) / (k - 1))
            assert q_star(k) == pytest.approx(expected, rel=1e-14)

    def test_q_star_increasing_in_k(self):
        values = [q_star(k) for k in range(2, 11)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            q_star(1)


class TestCutFixedPoint:
    def test_quadratic_root(self):
        expected = (0.6 - math.sqrt(0.2)) / 2
        assert cut_fixed_point_m2(2, 0.2) == pytest.approx(expected, abs=1e-12)

    def test_tangency_at_critical(self):
        assert cut_fixed_point_m2(2, 0.25) == pytest.approx(0.25, abs=1e-12)

    def test_zero(self):
        assert cut_fixed_point_m2(2, 0) == 0.0

    def test_no_root_above_critical(self):
        with pytest.raises(NoRealRootError):
            cut_fixed_point_m2(2, 0.26)
        with pytest.raises(NoRealRootError):
            cut_fixed_point_m2(3, 0.4)

    def test_satisfies_fixed_point_equation(self):
        for k, q in [(2, 0.1), (3, 0.2), (4, 0.3)]:
            z = cut_fixed_point_m2(k, q)
            assert (z + q) ** k == pytest.approx(z, abs=1e-10)


class TestAsymptoteClosedForm:
    def test_zero(self):
        assert cut_asymptote_closed_form_k2_m2(0) == 0.0

    def test_published_point(self):
        v = cut_asymptote_closed_form_k2_m2(0.1)
        assert v == pytest.approx(0.012332053967751944, abs=1e-15)
        # The published approximation 0.0123310 is nearby but not equal; the
        # verify module flags the discrepancy against the fixed point.
        assert abs(v - 0.0123310) < 2e-6

    def test_disagrees_with_fixed_point(self):
        gap = cut_fixed_point_m2(2, 0.1) - cut_asymptote_closed_form_k2_m2(0.1)
        assert abs(gap) > 1e-7

    def test_domain_error_at_branch_point(self):
        with pytest.raises(PoleError):
            cut_asymptote_closed_form_k2_m2(0.25)
        with pytest.raises(PoleError):
            cut_asymptote_closed_form_k2_m2(0.3)


class TestCurves:
    def test_header_pinned(self):
        assert CURVE_CSV_HEADER == "p,exact,lower,upper,k,n,m_lower,m_upper"

    def test_figure3_schema_and_order(self):
        rows = curve_figure3(samples=5)
        assert len(rows) == 10  # path sweep then duality-mapped cut sweep
        path_rows, cut_rows = rows[:5], rows[5:]
        assert all((r.m_lower, r.m_upper) == (4, 3) for r in path_rows)
        assert all((r.m_lower, r.m_upper) == (3, 4) for r in cut_rows)
        assert [float(r.p) for r in path_rows] == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_figure3_endpoint_rows(self):
        rows = curve_rows_path(2, 4, 4, 3, samples=3)
        zero, _, one = rows
        assert (zero.exact, zero.lower, zero.upper) == (0.0, 0.0, 0.0)
        assert one.exact == 1.0
        # At p = 1 every odd partial sum overshoots and every even one
        # undershoots unless the truncation is exact.
        assert one.lower <= 1.0 <= one.upper

    def test_figure3_cut_rows_use_duality(self):
        rows = curve_figure3(samples=5)
        cut_row = rows[5 + 2]  # p = 1/2 in the cut sweep
        q = Fraction(1, 2)
        assert cut_row.lower == pytest.approx(float(1 - cut_bound(2, 4, 3, q).value))
        assert cut_row.upper == pytest.approx(float(1 - cut_bound(2, 4, 4, q).value))

    def test_figure4_grid_stops_at_half(self):
        rows = curve_figure4(samples=6)
        assert [float(r.p) for r in rows] == [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
        assert all((r.k, r.n) == (2, 6) for r in rows)

    def test_sandwich_holds_on_sampled_rows(self):
        for row in curve_rows_path(2, 3, 4, 3, samples=21):
            assert row.lower <= row.exact <= row.upper

    def test_render_deterministic(self):
        a = render_curve_csv(curve_figure3(samples=11))
        b = render_curve_csv(curve_figure3(samples=11))
        assert a == b
        assert a.splitlines()[0] == CURVE_CSV_HEADER
        assert len(a.splitlines()) == 23

    def test_render_clamped(self):
        rows = curve_rows_cut(2, 6, 4, 3, samples=6, q_max=Fraction(1, 2))
        text = render_curve_csv(rows, clamp=True)
        for line in text.splitlines()[1:]:
            _, exact, lower, upper = line.split(",")[:4]
            for field in (exact, lower, upper):
                assert 0.0 <= float(field) <= 1.0
