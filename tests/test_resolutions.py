"""Generating functions, Betti tables, and tensor combination rules."""
from __future__ import annotations

from fractions import Fraction
from math import comb

import pytest

from treeperc.bivar import BivarPoly, UniPoly
from treeperc.limits import BudgetExceededError
from treeperc.resolutions import (
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


def poly(mapping: dict[tuple[int, int], int]) -> BivarPoly:
    return BivarPoly(mapping)


class TestPathGf:
    def test_depth_one_binary(self):
        assert path_gf(2, 1) == poly({(1, 1): 2, (2, 2): 1})

    def test_depth_two_binary(self):
        expected = poly({(1, 2): 4, (2, 3): 2, (2, 4): 4, (3, 5): 4, (4, 6): 1})
        assert path_gf(2, 2) == expected

    def test_total_betti_numbers_are_binomials(self):
        # The resolution indexed by generator subsets is minimal here, so the
        # i-th total Betti number of the ideal is C(k^n, i).
        for k, n in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]:
            g = path_gf(k, n)
            gens = k ** n
            for i in range(1, g.deg_x + 1):
                assert sum(c for xi, _, c in g.terms() if xi == i) == comb(gens, i)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            path_gf(1, 2)
        with pytest.raises(ValueError):
            path_gf(2, 0)

    def test_budget_enforced(self, budget):
        with budget(max_terms=10), pytest.raises(BudgetExceededError):
            path_gf(2, 4)


class TestCutGf:
    def test_depth_one_is_single_cut(self):
        assert cut_gf(2, 1) == poly({(1, 2): 1})
        assert cut_gf(3, 1) == poly({(1, 3): 1})

    def test_depth_two_binary(self):
        expected = poly({(1, 2): 1, (1, 3): 2, (1, 4): 1, (2, 4): 2, (2, 5): 2, (3, 6): 1})
        assert cut_gf(2, 2) == expected

    def test_depth_three_extreme_coefficients(self):
        g = cut_gf(2, 3)
        # x^1 coefficient t^2 (t^3 + 2t^2 + t + 1)^2, expanded.
        base = UniPoly({3: 1, 2: 2, 1: 1, 0: 1})
        sq = base + UniPoly({})  # copy via addition with zero
        prod = {}
        for d1, c1 in base.terms():
            for d2, c2 in base.terms():
                prod[d1 + d2 + 2] = prod.get(d1 + d2 + 2, 0) + c1 * c2
        assert UniPoly({j: c for i, j, c in g.terms() if i == 1}) == UniPoly(prod)
        # Top corner: single deepest cut of all 8 leaf edges plus... the
        # unique x^7 term is t^14.
        assert [(j, c) for i, j, c in g.terms() if i == 7] == [(14, 1)]

    def test_x_degree_recursion(self):
        # d_1 = 1, d_n = k d_{n-1} + 1.
        for k in (2, 3):
            expected = 1
            for n in range(1, 5 if k == 2 else 4):
                if n > 1:
                    expected = k * expected + 1
                assert cut_x_degree(k, n) == expected
                if k == 2 or n <= 3:
                    assert cut_gf(k, n).deg_x == expected

    def test_t_degree_is_edge_count(self):
        for k, n in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 2)]:
            top = max(j for _, j, _ in cut_gf(k, n).terms())
            assert top == sum(k ** i for i in range(1, n + 1))

    def test_truncated_route_matches_full(self):
        for m in (1, 2, 3):
            assert cut_gf(2, 3, x_truncation=m) == cut_gf(2, 3).truncate_x(m)
            assert path_gf(2, 3, x_truncation=m) == path_gf(2, 3).truncate_x(m)

    def test_budget_prediction_is_exact(self, budget):
        # The term count and coefficient bits are predicted before the
        # output is built; a budget at the true size passes, one below fails.
        for k, n, m in ((2, 5, None), (3, 3, None), (2, 6, 3), (3, 4, 1)):
            g = cut_gf(k, n, x_truncation=m)
            terms, bits = g.term_count(), g.max_coeff_bits()
            with budget(max_terms=terms, max_coeff_bits=bits):
                assert cut_gf(k, n, x_truncation=m) == g
            with budget(max_terms=terms - 1), \
                    pytest.raises(BudgetExceededError, match=f"needed {terms}, limit {terms - 1}"):
                cut_gf(k, n, x_truncation=m)
            with budget(max_coeff_bits=bits - 1), \
                    pytest.raises(BudgetExceededError, match=f"needed {bits}, limit {bits - 1}"):
                cut_gf(k, n, x_truncation=m)

    def test_deep_request_refused_before_any_work(self):
        # Depth 40 would have (2^40 - 1) 2^40 / 2 terms; the refusal names
        # that count without computing a single level.
        with pytest.raises(BudgetExceededError, match="cut_gf\\(2, 40\\) term count") as info:
            cut_gf(2, 40)
        assert info.value.needed == (2 ** 40 - 1) * 2 ** 39


class TestMultibrot:
    def test_budget_prediction_is_exact(self, budget):
        # The coefficient count is checked before the first product; a
        # budget at the true count passes, one below fails.
        for k, n, m in ((2, 6, None), (3, 4, None), (2, 6, 9), (3, 4, 10), (2, 3, 1), (2, 12, 5)):
            w = multibrot(k, n, max_degree=m)
            count = w.term_count()
            with budget(max_terms=count):
                assert multibrot(k, n, max_degree=m) == w
            if count:
                with budget(max_terms=count - 1), \
                        pytest.raises(BudgetExceededError,
                                      match=f"multibrot\\({k}, {n}\\) coefficient count budget "
                                            f"exceeded: needed {count}, limit {count - 1}"):
                    multibrot(k, n, max_degree=m)

    def test_truncation_and_validation(self, monkeypatch):
        assert multibrot(2, 0) == BivarPoly.zero()
        assert multibrot(3, 4, max_degree=10) == multibrot(3, 4).truncate_x(10)
        # W_n agrees with W_m below s^(m+1) once n >= m, so a deep truncated
        # request stops after m steps.
        expected = multibrot(2, 6).truncate_x(6)
        calls = []
        power = BivarPoly.power
        monkeypatch.setattr(BivarPoly, "power", lambda *a: calls.append(a) or power(*a))
        assert multibrot(2, 10 ** 9, max_degree=6) == expected
        assert len(calls) == 6
        for bad in ({"k": 1, "n": 2}, {"k": 2, "n": -1}, {"k": 2, "n": 3, "max_degree": -1}):
            with pytest.raises(ValueError):
                multibrot(**bad)


class TestMandelbrotIterate:
    def test_first_iterates_and_validation(self):
        q = BivarPoly.monomial(1, 0)
        assert mandelbrot_iterate(0) == mandelbrot_iterate(0, max_degree=3) == BivarPoly.zero()
        assert mandelbrot_iterate(1) == q
        assert mandelbrot_iterate(3) == q + q ** 2 + q ** 3 * 2 + q ** 4
        assert mandelbrot_iterate(3, max_degree=0) == BivarPoly.zero()
        assert mandelbrot_iterate(3, max_degree=1) == q
        assert mandelbrot_iterate(3, max_degree=2) == q + q ** 2
        for n, m in ((-1, None), (0, -1), (3, -1)):
            with pytest.raises(ValueError):
                mandelbrot_iterate(n, max_degree=m)


class TestNumerator:
    def test_sign_rule_depth_one(self):
        assert gf_to_numerator(path_gf(2, 1)) == poly({(1, 1): 2, (2, 2): -1})

    def test_cut_depth_two(self):
        expected = poly({(1, 2): 1, (1, 3): 2, (1, 4): 1, (2, 4): -2, (2, 5): -2, (3, 6): 1})
        assert gf_to_numerator(cut_gf(2, 2)) == expected

    def test_zero_maps_to_zero(self):
        assert gf_to_numerator(BivarPoly.zero()) == BivarPoly.zero()

    def test_involution_with_gf(self):
        for k, n in [(2, 2), (3, 2)]:
            g = cut_gf(k, n)
            assert gf_to_numerator(gf_to_numerator(g)) == g
            h = gf_to_numerator(path_gf(k, n))
            assert gf_to_numerator(gf_to_numerator(h)) == h


class TestBettiTable:
    def test_cut_23_totals(self):
        t = betti_table(cut_gf(2, 3))
        assert t.totals() == (1, 25, 80, 114, 90, 41, 10, 1)

    def test_cut_24_first_total(self):
        t = betti_table(cut_gf(2, 4))
        assert t.totals()[1] == 676

    def test_path_22_totals(self):
        assert betti_table(path_gf(2, 2)).totals() == (1, 4, 6, 4, 1)

    def test_unit_entry_added(self):
        t = betti_table(path_gf(2, 1))
        assert t.entry(0, 0) == 1

    def test_entry_and_offset_row_access(self):
        t = betti_table(cut_gf(2, 2))
        assert t.entry(1, 2) == 1 and t.entry(2, 4) == 2 and t.entry(3, 6) == 1
        assert t.entry(5, 9) == 0
        # Offset rows r collect entries beta_{i, i+r} for i = 1..max_i.
        assert t.offset_row(1) == (1, 0, 0)
        assert t.offset_row(2) == (2, 2, 0)
        assert t.offset_row(3) == (1, 2, 1)

    def test_ideal_convention_shift(self):
        t = betti_table(cut_gf(2, 2))
        ideal = t.ideal_convention()
        # beta_{i,j}(S/J) = beta_{i-1,j}(J): the quotient's (0,0) unit drops.
        assert ideal == {(0, 2): 1, (0, 3): 2, (0, 4): 1, (1, 4): 2, (1, 5): 2, (2, 6): 1}

    def test_csv_and_json_roundtrip(self):
        t = betti_table(cut_gf(2, 2))
        assert t.to_csv().splitlines()[0] == "i,j,beta"
        assert BettiTable({(e["i"], e["j"]): int(e["beta"]) for e in t.to_json_obj()}) == t

    def test_render_layout_matches_printed_shape(self):
        # Printed tables put beta_{c, c+r} at row r, column c.
        text = betti_table(cut_gf(2, 2)).render_layout()
        lines = text.splitlines()
        assert lines[0].split() == ["j-i", "\\", "i", "1", "2", "3"]
        total_line = next(line for line in lines if line.strip().startswith("total"))
        assert total_line.split()[1:] == ["4", "4", "1"]
        assert lines[-1].split() == ["3", "1", "2", "1"]

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            BettiTable({(1, 2): -1})

    def test_betti_table_refuses_negative_coefficients(self):
        with pytest.raises(ValueError):
            betti_table(poly({(1, 2): 1, (2, 3): -1}))

    @pytest.mark.parametrize("terms", [{(0, 2): 1, (1, 2): 1}, {(0, 0): 1, (1, 1): 1}])
    def test_betti_table_refuses_x_free_terms(self, terms):
        # A constant term 1 would otherwise pass as beta_{0,0}.
        with pytest.raises(ValueError, match="x-free"):
            betti_table(poly(terms))

    def test_betti_table_inserts_the_unit_first_then_canonical_order(self):
        # The verify report prints repr(as_dict()), so the order is output.
        keys = list(betti_table(cut_gf(2, 3)).as_dict())
        assert keys[0] == (0, 0)
        assert keys[1:] == sorted(keys[1:]) and len(keys) == 1 + cut_gf(2, 3).term_count()

    def test_renders_an_entry_above_the_digit_limit(self):
        huge = "1" + "0" * 5000
        t = BettiTable({(0, 0): 1, (1, 2): 10 ** 5000, (2, 4): 3})
        assert t.to_csv().splitlines() == ["i,j,beta", "0,0,1", f"1,2,{huge}", "2,4,3"]
        assert t.to_json_obj()[1] == {"i": 1, "j": 2, "beta": huge}
        lines = t.render_layout().splitlines()
        assert lines[1].split() == ["total", huge, "3"]
        assert lines[2].split() == ["1", huge, "."]
        assert lines[3].split() == ["2", ".", "3"]

    def test_repr_above_the_digit_limit(self):
        huge = "1" + "0" * 5000
        t = BettiTable({(0, 0): 1, (1, 2): 10 ** 5000, (2, 4): 3})
        assert repr(t) == f"BettiTable(3 entries, totals (1, {huge}, 3))"

    @pytest.mark.parametrize("entries", [{(0, 0): 1}, {(0, 0): 1, (1, 2): 3, (2, 3): 2}])
    def test_repr_reads_as_the_totals_tuple(self, entries):
        t = BettiTable(entries)
        assert repr(t) == f"BettiTable({len(entries)} entries, totals {t.totals()!r})"


class TestPathBettiRecursive:
    def test_depth_one(self):
        t = path_betti_recursive(2, 1)
        assert t.entry(1, 1) == 2 and t.entry(2, 2) == 1

    def test_depth_two_all_entries(self):
        t = path_betti_recursive(2, 2)
        assert t.as_dict() == {
            (0, 0): 1, (1, 2): 4, (2, 3): 2, (2, 4): 4, (3, 5): 4, (4, 6): 1,
        }

    def test_base_case_is_koszul(self):
        t = path_betti_recursive(3, 1)
        for i in range(4):
            assert t.entry(i, i) == comb(3, i)

    def test_agrees_with_generating_function_route(self):
        for k in (2, 3):
            for n in (1, 2, 3):
                assert path_betti_recursive(k, n) == betti_table(path_gf(k, n))


class TestDuality:
    def test_operating_probability_polynomial_identity(self):
        # P(p) = 1 - Ptilde(1-p) as exact polynomials, for every tree here.
        for k in (2, 3):
            for n in (1, 2, 3):
                hp = gf_to_numerator(path_gf(k, n)).eval_x1()
                hc = gf_to_numerator(cut_gf(k, n)).eval_x1()
                assert hp == UniPoly({0: 1}) - hc.substitute_one_minus_t()

    def test_spot_value(self):
        hp = gf_to_numerator(path_gf(2, 2)).eval_x1()
        assert hp.evaluate(Fraction(1, 2)) == Fraction(39, 64)


class TestTensorCombination:
    TABLE_I = BettiTable({(0, 0): 1, (1, 2): 1, (1, 3): 2, (2, 4): 1, (2, 5): 2, (3, 6): 1})
    TABLE_J = BettiTable({(0, 0): 1, (1, 3): 2, (2, 5): 1})

    def test_sum_totals(self):
        s = tensor_sum_betti([self.TABLE_I, self.TABLE_J])
        assert s.totals() == (1, 5, 10, 10, 5, 1)

    def test_sum_graded_first_column(self):
        s = tensor_sum_betti([self.TABLE_I, self.TABLE_J])
        assert s.entry(1, 2) == 1 and s.entry(1, 3) == 4

    def test_sum_unit_law(self):
        unit = BettiTable({(0, 0): 1})
        assert tensor_sum_betti([self.TABLE_I, unit]) == self.TABLE_I

    def test_product_numerator(self):
        p = tensor_product_betti([self.TABLE_I, self.TABLE_J])
        assert p.as_dict() == {
            (0, 0): 1, (1, 5): 2, (1, 6): 4, (2, 7): 3, (2, 8): 6,
            (3, 9): 3, (3, 10): 2, (4, 11): 1,
        }

    def test_product_generator_count(self):
        p = tensor_product_betti([self.TABLE_I, self.TABLE_J])
        # The product ideal has 2 + 4 = 6 generators, i.e. first total 6.
        assert p.totals()[1] == 6

    def test_product_singleton_law(self):
        assert tensor_product_betti([self.TABLE_I]) == self.TABLE_I

    def test_empty_inputs(self):
        # An empty sum of ideals is the zero ideal (unit table); an empty
        # product is undefined because of the x-shift by the factor count.
        assert tensor_sum_betti([]) == BettiTable({(0, 0): 1})
        with pytest.raises(ValueError):
            tensor_product_betti([])
