"""Catalan/Mandelbrot machinery and asymptotic cut Betti numbers (k=2)."""
from __future__ import annotations

from math import comb

import pytest

from treeperc.asymptotics import (
    ASYMPTOTIC_CSV_HEADER,
    MandelbrotPolynomial,
    asymptotic_betti_k2,
    asymptotic_table,
    betti_from_mandelbrot,
    catalan,
    mandelbrot_catalan_limit_check,
    mandelbrot_poly,
    render_asymptotic_csv,
    stabilization_prefix,
)
from treeperc.limits import BudgetExceededError
from treeperc.resolutions import BettiTable, betti_table, cut_gf

CATALAN_PREFIX = (1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796)


@pytest.fixture(scope="module")
def limit():
    """The limiting table through offset 12, from the Catalan row expansion."""
    return asymptotic_table(12)


class TestCatalan:
    def test_prefix(self):
        assert tuple(catalan(r) for r in range(11)) == CATALAN_PREFIX

    def test_recurrence(self):
        # c_{r+1} = sum c_s c_{r-s}.
        for r in range(12):
            assert catalan(r + 1) == sum(catalan(s) * catalan(r - s) for s in range(r + 1))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            catalan(-1)


class TestMandelbrotPoly:
    def test_first_iterates(self):
        assert mandelbrot_poly(0).coefficients == (0,)
        assert mandelbrot_poly(1).coefficients == (0, 1)
        assert mandelbrot_poly(2).coefficients == (0, 1, 1)
        assert mandelbrot_poly(3).coefficients == (0, 1, 1, 2, 1)

    def test_fourth_iterate(self):
        assert mandelbrot_poly(4).coefficients == (0, 1, 1, 2, 5, 6, 6, 4, 1)

    def test_degree_doubles(self):
        for n in range(1, 7):
            z = mandelbrot_poly(n)
            assert len(z.coefficients) - 1 == 2 ** (n - 1)
            assert z.coefficients[-1] == 1

    def test_coefficients_nonnegative(self):
        assert all(c >= 0 for c in mandelbrot_poly(6).coefficients)

    def test_iteration_identity(self):
        # z_n(q) = z_{n-1}(q)^2 + q, checked pointwise at q = 2.
        for n in range(1, 7):
            prev = sum(c * 2 ** e for e, c in enumerate(mandelbrot_poly(n - 1).coefficients))
            here = sum(c * 2 ** e for e, c in enumerate(mandelbrot_poly(n).coefficients))
            assert here == prev * prev + 2

    def test_truncation(self):
        z = mandelbrot_poly(5, max_degree=4)
        assert z.coefficients == mandelbrot_poly(5).coefficients[:5]
        assert z.truncated_at == 4
        assert z.coefficient(4) == mandelbrot_poly(5).coefficient(4)
        with pytest.raises(ValueError):
            z.coefficient(5)

    def test_untruncated_coefficient_beyond_degree_is_zero(self):
        assert mandelbrot_poly(3).coefficient(100) == 0

    def test_budget(self, budget):
        # z_9 has 257 coefficients, past a 100-term budget.
        with budget(max_terms=100), pytest.raises(BudgetExceededError):
            mandelbrot_poly(9)

    def test_dataclass_fields(self):
        z = mandelbrot_poly(2)
        assert isinstance(z, MandelbrotPolynomial)
        assert z.n == 2


class TestAsymptoticBetti:
    def test_printed_spot_value(self):
        assert asymptotic_betti_k2(2, 6) == 42

    def test_catalan_column(self):
        for r in range(1, 11):
            assert asymptotic_betti_k2(1, 1 + r) == CATALAN_PREFIX[r]

    def test_zero_below_diagonal(self):
        assert asymptotic_betti_k2(3, 5) == 0
        assert asymptotic_betti_k2(4, 7) == 0

    def test_two_routes_agree(self, limit):
        for i in range(1, 13):
            for offset in range(i, 13):
                assert asymptotic_betti_k2(i, i + offset) == limit.entry(i, i + offset)

    def test_catalan_route_examples(self, limit):
        assert limit.entry(2, 2 + 4) == 14 * 3
        assert limit.entry(5, 5 + 3) == 0
        for offset in range(1, 10):
            assert limit.entry(1, 1 + offset) == catalan(offset)

    def test_offset_rows_symmetric(self, limit):
        # Row r is c_r * C(r-1, i-1), symmetric under i <-> r - i + 1.
        for r in range(1, 13):
            row = [limit.entry(i, i + r) for i in range(1, r + 1)]
            assert row == row[::-1]

    def test_requires_positive_i(self):
        with pytest.raises(ValueError):
            asymptotic_betti_k2(0, 4)


class TestAsymptoticTable:
    def test_matches_formula(self):
        t = asymptotic_table(6)
        for i in range(1, 7):
            for offset in range(1, 7):
                assert t.entry(i, i + offset) == catalan(offset) * comb(offset - 1, i - 1)

    def test_csv_schema(self):
        text = render_asymptotic_csv(asymptotic_table(3))
        lines = text.splitlines()
        assert lines[0] == ASYMPTOTIC_CSV_HEADER == "i,j,beta,n"
        assert all(line.endswith(",inf") for line in lines[1:])
        # The unit entry (0,0) is a quotient-resolution artifact, not an
        # asymptotic statement, so the export skips it.
        assert not any(line.startswith("0,") for line in lines[1:])

    def test_csv_renders_an_entry_above_the_digit_limit(self):
        huge = "1" + "0" * 5000
        text = render_asymptotic_csv(BettiTable({(0, 0): 1, (1, 2): 10 ** 5000, (2, 4): 3}))
        assert text == f"i,j,beta,n\n1,2,{huge},inf\n2,4,3,inf\n"


class TestBettiFromMandelbrot:
    def test_depth_two_entries(self):
        assert betti_from_mandelbrot(2, 2, 2) == 2
        assert betti_from_mandelbrot(2, 1, 2) == 2

    def test_vanishes_above_offset(self):
        assert betti_from_mandelbrot(3, 4, 3) == 0

    def test_matches_cut_tables(self):
        for n in (2, 3):
            table = betti_table(cut_gf(2, n))
            for i in range(1, table.max_i + 1):
                for offset in range(1, table.max_offset() + 1):
                    assert betti_from_mandelbrot(n, i, offset) == table.entry(i, i + offset)


class TestStabilization:
    def test_offset_row_five_flips_between_depths(self, limit):
        t4 = betti_table(cut_gf(2, 4))
        t5 = betti_table(cut_gf(2, 5))
        asym = [limit.entry(i, i + 5) for i in range(1, 6)]
        assert asym == [42, 168, 252, 168, 42]
        assert t4.offset_row(5, max_i=5) == (26, 104, 156, 104, 26)
        assert t5.offset_row(5, max_i=5) == (42, 168, 252, 168, 42)

    def test_offset_rows_below_five_already_asymptotic_at_depth_four(self, limit):
        t4 = betti_table(cut_gf(2, 4))
        for r in range(1, 5):
            expected = tuple(limit.entry(i, i + r) for i in range(1, r + 1))
            assert t4.offset_row(r, max_i=r) == expected

    def test_prefixes_nondecreasing_in_depth(self):
        p4 = stabilization_prefix(4)
        p5 = stabilization_prefix(5)
        assert set(p4) <= set(p5)
        assert all(p5[i] >= p4[i] for i in p4)

    def test_first_mismatch_for_column_one(self):
        # beta_{1,j}(S/J_{2,4}) agrees with the Catalan column through j = 5
        # and first differs at j = 6 (offset 5: 26 vs 42).
        assert stabilization_prefix(4)[1] == 6
        assert stabilization_prefix(5)[1] == 7

    def test_accepts_precomputed_table(self):
        table = betti_table(cut_gf(2, 3))
        assert stabilization_prefix(3, table=table) == stabilization_prefix(3)


class TestMandelbrotCatalanLimit:
    def test_column_four(self):
        report = mandelbrot_catalan_limit_check(4)
        assert report.empirical_target == catalan(3) == 5
        assert report.stabilized_at == 4
        assert report.empirical_alignment_holds
        assert report.values[-1][1] != report.printed_target

    def test_column_one_constant(self):
        report = mandelbrot_catalan_limit_check(1)
        assert all(value == 1 for n, value in report.values if n >= 1)
        assert report.empirical_alignment_holds

    def test_column_five_not_yet_stable_at_depth_four(self):
        report = mandelbrot_catalan_limit_check(5)
        values = dict(report.values)
        assert values[4] == 6 and values[5] == 14
        assert report.stabilized_at == 5
        assert report.empirical_target == catalan(4) == 14

    def test_stabilization_at_column_index(self):
        # M_{n,j} is constant from n = j on; the limit is c_{j-1}.
        for j in range(1, 8):
            report = mandelbrot_catalan_limit_check(j)
            assert report.stabilized_at == max(j, 1)
            assert report.empirical_alignment_holds
