"""Exact bivariate/univariate polynomial arithmetic."""
from __future__ import annotations

import random
import sys
from fractions import Fraction
from functools import reduce
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeperc import bivar
from treeperc.bivar import BivarPoly, UniPoly, _int_text, _mul_kronecker, _mul_schoolbook, _text_int
from treeperc.limits import InexactDivisionError
from treeperc.resolutions import cut_gf, gf_to_numerator, path_gf

X = BivarPoly.monomial(1, 0)
T = BivarPoly.monomial(0, 1)
TX = BivarPoly.monomial(1, 1)
ONE = BivarPoly.one()


def poly(mapping: dict[tuple[int, int], int]) -> BivarPoly:
    return BivarPoly(mapping)


def random_poly(rng: random.Random, max_x: int = 4, max_t: int = 4, terms: int = 6) -> BivarPoly:
    out: dict[tuple[int, int], int] = {}
    for _ in range(terms):
        out[(rng.randrange(max_x + 1), rng.randrange(max_t + 1))] = rng.randint(-9, 9)
    return BivarPoly(out)


def term_dict(p: BivarPoly) -> dict[tuple[int, int], int]:
    return {(i, j): c for i, j, c in p.terms()}


class TestAdd:
    def test_disjoint_supports(self):
        assert poly({(1, 1): 2}) + poly({(2, 2): 1}) == poly({(1, 1): 2, (2, 2): 1})

    def test_additive_inverse_cancels_to_empty(self):
        p = poly({(1, 1): 2, (0, 3): -5})
        assert p + (-p) == BivarPoly.zero()
        assert (p + (-p)).term_count() == 0

    def test_doubling(self):
        p = ONE + TX
        assert p + p == poly({(0, 0): 2, (1, 1): 2})

    def test_int_operand(self):
        assert TX + 1 == ONE + TX


class TestMul:
    def test_binomial_square(self):
        p = ONE + TX
        assert p * p == poly({(0, 0): 1, (1, 1): 2, (2, 2): 1})

    def test_annihilator(self):
        p = poly({(3, 2): 7, (1, 0): -1})
        assert p * BivarPoly.zero() == BivarPoly.zero()

    def test_mixed_square(self):
        # (t + t^2 + t^3 x)^2 = t^2 + 2t^3 + t^4 + (2t^4 + 2t^5)x + t^6 x^2
        p = poly({(0, 1): 1, (0, 2): 1, (1, 3): 1})
        expected = poly({(0, 2): 1, (0, 3): 2, (0, 4): 1, (1, 4): 2, (1, 5): 2, (2, 6): 1})
        assert p * p == expected

    def test_kronecker_matches_schoolbook(self, rng):
        pairs = []
        for _ in range(25):
            a = term_dict(random_poly(rng))
            pairs.append((a, term_dict(random_poly(rng))))
            pairs.append((a, a))  # same object: the squaring path
        for _ in range(5):
            neg = {key: -abs(c) for key, c in term_dict(random_poly(rng)).items()}
            pairs.append((neg, neg))
            pairs.append((neg, term_dict(random_poly(rng))))
        pairs.append(({(2, 3): -7}, {(1, 0): 5}))
        pairs.append(({(0, 0): -1}, {(0, 0): -1}))
        # Norm sums 127, 128, 255 and 256 put the largest product entries just
        # under or just over a slot's sign bit; each negative slot below a
        # nonzero one makes the decode carry its borrow upward.
        for norm in (127, 128, 255, 256):
            edge = {(0, 0): -(norm - 1), (0, 1): 1}
            pairs.append(({(0, 0): -norm}, {(0, 0): 1}))
            pairs.append(({(0, 0): norm}, {(0, 0): -1}))
            pairs.append((edge, {(0, 0): 1}))
            pairs.append((edge, {(1, 0): -1}))
            pairs.append(({(0, 0): -(norm - 1), (1, 0): 1}, {(0, 0): 1}))
            pairs.append(({(0, 0): 1, (0, 1): -(norm - 2), (1, 1): 1}, {(0, 0): 1}))
            pairs.append((edge, edge))
        for a, b in pairs:
            assert _mul_kronecker(a, b) == _mul_schoolbook(a, b), (a, b)

    def test_one_big_multiply_per_product(self, monkeypatch):
        squares = []
        monkeypatch.setattr(bivar, "_big_mul", lambda x, y: squares.append(x is y) or x * y)
        a = {(0, 0): 3, (2, 1): -5}
        b = {(1, 3): 7, (0, 0): -1}
        _mul_kronecker(a, b)
        _mul_kronecker(a, a)
        assert squares == [False, True]

    def test_kronecker_large_coefficients(self):
        big = 10 ** 50
        a = term_dict(poly({(1, 2): big, (2, 1): -big + 7, (0, 0): 3}))
        b = term_dict(poly({(1, 1): big - 1, (3, 0): 5}))
        assert _mul_kronecker(a, b) == _mul_schoolbook(a, b)


class TestPow:
    def test_square(self):
        assert (ONE + TX) ** 2 == poly({(0, 0): 1, (1, 1): 2, (2, 2): 1})

    def test_zeroth_power_is_one(self):
        p = poly({(2, 3): 5, (1, 1): -2})
        assert p ** 0 == ONE

    def test_truncated_power(self):
        # (1 + tx)^3 cut at x-degree 1 keeps 1 + 3tx only.
        assert (ONE + TX).power(3, x_truncation=1) == poly({(0, 0): 1, (1, 1): 3})

    def test_truncated_equals_truncation_of_full(self, rng):
        for _ in range(20):
            a = random_poly(rng, max_x=4)
            e = rng.randrange(6)
            m = rng.randrange(9)
            assert a.power(e, x_truncation=m) == (a ** e).truncate_x(m)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            (ONE + TX).power(-1)


coefficients = st.integers(-300, 300).filter(bool) | st.integers(-(10 ** 40), 10 ** 40).filter(bool)
term_dicts = st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 6)), coefficients,
                             min_size=1, max_size=8)


class TestKroneckerProperties:
    """Properties of the packed product, checked against schoolbook."""

    @settings(derandomize=True, database=None, max_examples=100)
    @given(term_dicts, term_dicts)
    def test_kronecker_equals_schoolbook(self, a, b):
        assert _mul_kronecker(a, b) == _mul_schoolbook(a, b)
        assert _mul_kronecker(a, a) == _mul_schoolbook(a, a)

    @settings(derandomize=True, database=None, max_examples=100)
    @given(term_dicts, st.integers(0, 6), st.sampled_from([None, -1, 0, 1, 2]))
    def test_power_equals_repeated_multiplication(self, a, e, m):
        expected = reduce(lambda acc, _: BivarPoly._raw(_mul_schoolbook(acc._terms, a)),
                          range(e), ONE)
        if m is not None:
            expected = expected.truncate_x(m)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bivar, "_SCHOOLBOOK_OPS", 0)  # every product through Kronecker
            assert BivarPoly(a).power(e, m) == expected


# Coefficients around the slot sign bits (2^7, 2^8, 2^63) and past a 64-bit word.
edge_coefficients = st.sampled_from([127, 128, 255, 256, 2 ** 63 - 1, 2 ** 63, 2 ** 70])
banded_coefficients = coefficients | st.builds(lambda c, sign: sign * c, edge_coefficients,
                                               st.sampled_from([1, -1]))


@st.composite
def banded_pairs(draw):
    """Two term dicts whose supports lie on bands j = skew*i + c (up to three
    t-degrees wide) of one drawn skew; the second operand is the first one,
    as the same object, half of the time."""
    skew = draw(st.integers(-2, 3))

    def band():
        c = draw(st.integers(0, 3)) + 6 * max(0, -skew)  # keeps j >= 0 for i <= 6
        keys = st.tuples(st.integers(0, 6), st.integers(0, 2)).map(
            lambda key: (key[0], skew * key[0] + c + key[1]))
        return draw(st.dictionaries(keys, banded_coefficients, min_size=1, max_size=12))

    a = band()
    return a, (a if draw(st.booleans()) else band())


class TestSkewedPacking:
    """The packing follows the support's band; schoolbook is the oracle."""

    @settings(derandomize=True, database=None, max_examples=200)
    @given(banded_pairs())
    def test_banded_kronecker_equals_schoolbook(self, pair):
        a, b = pair
        assert _mul_kronecker(a, b) == _mul_schoolbook(a, b)

    def test_diagonal_power_packs_one_slot_per_row(self, monkeypatch):
        # (1 + tx)^512 - 1 lies on the diagonal j = i: skew 1 packs each
        # x-row into one slot, where the bounding rectangle packed 513.
        bits = []
        monkeypatch.setattr(bivar, "_big_mul",
                            lambda x, y: bits.append(max(x.bit_length(), y.bit_length())) or x * y)
        expected = BivarPoly({(i, i): comb(512, i) for i in range(1, 513)})
        assert path_gf(512, 1) == expected
        assert bits and max(bits) < 1_000_000


# Absolute-sum norms on either side of a decimal slot boundary: a slot of
# base 10^w holds products whose norm bound is below 10^w / 2.
SLOT_EDGES = [4, 5, 49, 50, 499, 500, 5 * 10 ** 20 - 1, 5 * 10 ** 20, 5 * 10 ** 20 + 1]


@st.composite
def slot_edge_pairs(draw):
    """An operand whose norm is a slot edge (or a sign-bit or word edge),
    times a signed monomial, so the product's norm bound is that edge and
    its largest coefficient reaches it; or the operand squared.  Half of
    the operands have only negative coefficients."""
    norm = draw(st.sampled_from(SLOT_EDGES) | edge_coefficients)
    keys = st.tuples(st.integers(0, 3), st.integers(0, 5))
    a = draw(st.dictionaries(keys, st.sampled_from([1, -1]), max_size=3))
    key = draw(keys.filter(lambda k: k not in a))
    a[key] = draw(st.sampled_from([1, -1])) * (norm - len(a))
    if draw(st.booleans()):
        a = {k: -abs(c) for k, c in a.items()}
    if draw(st.booleans()):
        return a, a
    return a, {draw(keys): draw(st.sampled_from([1, -1]))}


class TestDecimalSlots:
    """Products packed in decimal-digit slots; schoolbook is the oracle."""

    @settings(derandomize=True, database=None, max_examples=200)
    @given(slot_edge_pairs())
    def test_slot_edges_equal_schoolbook(self, pair):
        a, b = pair
        assert _mul_kronecker(a, b) == _mul_schoolbook(a, b)

    def test_norm_bound_is_reached_on_both_sides_of_each_edge(self):
        for norm in SLOT_EDGES:
            for sign in (1, -1):
                a = {(0, 0): sign * norm}
                assert _mul_kronecker(a, {(1, 2): 1}) == {(1, 2): sign * norm}
                assert _mul_kronecker(a, {(1, 2): -1}) == {(1, 2): -sign * norm}
                # a mixed-sign operand of the same norm, squared: negative
                # slots borrow from the slots above them
                edge = {(0, 0): -(norm - 2), (0, 1): sign, (1, 0): -1}
                assert _mul_kronecker(edge, edge) == _mul_schoolbook(edge, edge)

    def test_coefficients_above_the_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        big = 10 ** 5000 + 12_345
        a = {(0, 0): big, (1, 2): -3, (0, 1): -(big // 7)}
        b = {(1, 1): -big + 1, (2, 0): 5, (0, 0): 2}
        assert _mul_kronecker(a, b) == _mul_schoolbook(a, b)
        assert _mul_kronecker(a, a) == _mul_schoolbook(a, a)
        assert sys.get_int_max_str_digits() == limit

    def test_packed_operands_report_a_bit_length_upper_bound(self, monkeypatch):
        seen = []

        def big_mul(x, y):
            seen.append((x.bit_length(), y.bit_length(), int(x).bit_length(), int(y).bit_length()))
            return x * y

        monkeypatch.setattr(bivar, "_big_mul", big_mul)
        a = {(0, 0): 3, (2, 1): -5, (1, 4): 2 ** 70}
        _mul_kronecker(a, {(1, 3): 7, (0, 0): -1})
        _mul_kronecker(a, a)
        assert len(seen) == 2
        for bound_x, bound_y, exact_x, exact_y in seen:
            assert exact_x <= bound_x <= exact_x + 4 and exact_y <= bound_y <= exact_y + 4


class TestDigitText:
    def test_text_int_inverts_int_text_at_every_size(self):
        rng = random.Random(21)
        values = [0, 1, -1, 10 ** 639, 10 ** 640, -(10 ** 641), 2 ** 2048, -(2 ** 2048) - 1,
                  10 ** 5000, -(10 ** 5000) + 1]
        for size in (100, 2_047, 2_049, 14_000, 30_000, 100_000):
            values.extend([rng.getrandbits(size), -rng.getrandbits(size)])
        limit = sys.get_int_max_str_digits()
        for v in values:
            assert _text_int(_int_text(v)) == v
        assert _text_int("000123") == 123 and _text_int("0" * 5000 + "7") == 7
        assert sys.get_int_max_str_digits() == limit

    def test_json_form_of_a_coefficient_above_the_digit_limit(self):
        obj = poly({(1, 2): -(10 ** 5000)}).to_json_obj()
        assert obj == [{"x": 1, "t": 2, "c": "-1" + "0" * 5000}]


class TestTruncateX:
    def test_drops_high_degrees(self):
        assert poly({(1, 1): 2, (2, 2): 1}).truncate_x(1) == poly({(1, 1): 2})

    def test_identity_at_full_degree(self):
        p = poly({(0, 1): 3, (2, 2): 1, (1, 4): -2})
        assert p.truncate_x(p.deg_x) == p

    def test_numerator_22_truncated_at_2(self):
        # t^2(t+1)^2 x - 2t^4(t+1) x^2  (the x^3 term t^6 x^3 is dropped)
        h22 = gf_to_numerator(cut_gf(2, 2))
        expected = poly({(1, 2): 1, (1, 3): 2, (1, 4): 1, (2, 4): -2, (2, 5): -2})
        assert h22.truncate_x(2) == expected


class TestNegateX:
    def test_sign_rule(self):
        assert poly({(1, 1): 2, (2, 2): 1}).negate_x() == poly({(1, 1): -2, (2, 2): 1})

    def test_involution(self, rng):
        for _ in range(10):
            p = random_poly(rng)
            assert p.negate_x().negate_x() == p

    def test_numerator_of_depth_one_path(self):
        # -negate_x((1+tx)^2 - 1) = 2tx - t^2 x^2
        g = (ONE + TX) ** 2 - 1
        assert -g.negate_x() == poly({(1, 1): 2, (2, 2): -1})


class TestExactDivideX:
    def test_single_power(self):
        assert poly({(1, 2): 1, (1, 3): 2}).exact_divide_x(1) == poly({(0, 2): 1, (0, 3): 2})

    def test_divide_by_zero_power_is_identity(self):
        p = poly({(2, 2): 3})
        assert p.exact_divide_x(0) == p

    def test_cut_recursion_step(self):
        # ((1+tx)(1+t^2 x) - 1)^2 / x = x(t + t^2 + t^3 x)^2, the depth-2
        # binary cut generating function.
        base = (ONE + TX) * (ONE + poly({(1, 2): 1})) - 1
        assert (base ** 2).exact_divide_x(1) == cut_gf(2, 2)

    def test_inexact_division_raises(self):
        with pytest.raises(InexactDivisionError):
            poly({(0, 1): 1, (2, 2): 1}).exact_divide_x(1)

    def test_shift_then_divide_roundtrip(self, rng):
        for _ in range(10):
            p = random_poly(rng)
            d = rng.randrange(4)
            shifted = BivarPoly({(i + d, j): c for i, j, c in p.terms()})
            assert shifted.exact_divide_x(d) == p


class TestEvalX1:
    def test_single_powers(self):
        assert poly({(1, 1): 2, (2, 2): -1}).eval_x1() == UniPoly({1: 2, 2: -1})

    def test_numerator_22(self):
        h22 = gf_to_numerator(cut_gf(2, 2))
        # path-side H(1,t) for (2,2) after duality has the same Hilbert data;
        # the cut numerator itself collapses to t^2+2t^3-t^4-2t^5+t^6.
        assert h22.eval_x1() == UniPoly({2: 1, 3: 2, 4: -1, 5: -2, 6: 1})

    def test_zero(self):
        assert BivarPoly.zero().eval_x1().terms() == ()

    def test_alternating_collapse_of_negate_x(self, rng):
        for _ in range(10):
            p = random_poly(rng)
            acc: dict[int, int] = {}
            for i, j, c in p.terms():
                acc[j] = acc.get(j, 0) + ((-1) ** i) * c
            assert p.negate_x().eval_x1() == UniPoly(acc)


class TestRingAxioms:
    def test_commutativity_associativity_distributivity(self, rng):
        for _ in range(15):
            a, b, c = (random_poly(rng, terms=4) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_neutral_elements(self, rng):
        p = random_poly(rng)
        assert p + BivarPoly.zero() == p
        assert p * ONE == p


class TestCanonicalForm:
    def test_zero_coefficients_dropped_on_construction(self):
        assert poly({(1, 1): 0, (2, 2): 3}).term_count() == 1

    def test_terms_sorted_x_major_t_minor(self):
        p = poly({(2, 1): 1, (1, 5): 2, (1, 2): 3, (0, 9): 4})
        assert [(i, j) for i, j, _ in p.terms()] == [(0, 9), (1, 2), (1, 5), (2, 1)]

    def test_equality_and_hash(self):
        a = poly({(1, 1): 2, (0, 0): 1})
        b = poly({(0, 0): 1, (1, 1): 2})
        assert a == b and hash(a) == hash(b)

    def test_degrees_and_coefficient_access(self):
        p = poly({(3, 7): -4, (1, 2): 5})
        assert p.deg_x == 3
        assert p.coefficient(3, 7) == -4
        assert p.coefficient(2, 2) == 0


class TestSerialization:
    def test_json_roundtrip(self, rng):
        for _ in range(5):
            p = random_poly(rng)
            obj = p.to_json_obj()
            assert [(e["x"], e["t"], int(e["c"])) for e in obj] == list(p.terms())

    def test_json_coefficients_are_decimal_strings(self):
        obj = poly({(1, 2): -3}).to_json_obj()
        assert obj == [{"x": 1, "t": 2, "c": "-3"}]

    def test_str_forms(self):
        assert str(BivarPoly.zero()) == "0"
        assert "x" in str(TX) and "t" in str(TX)
        assert repr(poly({(0, 0): 1, (1, 1): -2, (2, 3): 1})) == "BivarPoly(1 - 2*x*t + x^2*t^3)"
        assert str(poly({(1, 0): -1, (0, 2): 3})) == "3*t^2 - x"
        assert repr(UniPoly({0: 3, 1: -1, 2: 1})) == "UniPoly(3 - t + t^2)"
        assert str(UniPoly({1: -1})) == "-t"
        assert str(UniPoly()) == "0"


class TestUniPoly:
    def test_evaluate_float_and_fraction(self):
        u = UniPoly({1: 2, 2: -1})
        assert u.evaluate(Fraction(1, 2)) == Fraction(3, 4)
        assert u.evaluate(Fraction(1)) == 1 and u.evaluate(Fraction(0)) == 0
        assert u.evaluate(0.5) == pytest.approx(0.75)

    def test_substitute_one_minus_t(self):
        # u(t) = t^2 -> (1-t)^2 = 1 - 2t + t^2
        assert UniPoly({2: 1}).substitute_one_minus_t() == UniPoly({0: 1, 1: -2, 2: 1})

    def test_substitute_involution(self, rng):
        for _ in range(10):
            u = UniPoly({rng.randrange(6): rng.randint(-9, 9) for _ in range(4)})
            assert u.substitute_one_minus_t().substitute_one_minus_t() == u

    def test_int_operands(self):
        u = UniPoly({1: 2})
        assert u + 1 == UniPoly({0: 1, 1: 2}) == 1 + u
        assert u - 2 == UniPoly({0: -2, 1: 2})
        assert 1 - u == UniPoly({0: 1, 1: -2})
        assert UniPoly({0: 5}) == 5 and UniPoly() == 0 and u != 0

    def test_never_equals_a_bivariate_polynomial(self):
        pairs = [(UniPoly(), BivarPoly.zero()), (UniPoly({0: 1}), BivarPoly.one()),
                 (UniPoly({2: 3}), poly({(0, 2): 3}))]
        for u, b in pairs:
            assert u != b and b != u
            assert not u == b and not b == u
