from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from latpath.series import (
    DivisionByNonUnit,
    NonSquareConstantTerm,
    Series,
    div,
    moebius,
    rational,
    sqrt,
)


def geometric(order):
    return rational([1], [1, -1], order)


class TestRingOps:
    def test_mul_difference_of_squares(self):
        assert (Series([1, 1], 4) * Series([1, -1], 4)).int_coeffs() == [1, 0, -1, 0, 0]

    def test_x_times_geometric(self):
        got = Series.x(4) * geometric(4)
        assert got.int_coeffs() == [0, 1, 1, 1, 1]

    def test_additive_identity(self):
        s = Series([1, 1], 3)
        assert (s + Series.zero(3)) == s
        assert (s + 0) == s

    def test_result_order_is_min_of_operands(self):
        a = Series([1, 2, 3], 7)
        b = Series([1], 3)
        assert (a + b).order == 3
        assert (a * b).order == 3
        assert (a - b).order == 3

    def test_scalar_arithmetic(self):
        s = Series([1, 2], 3)
        assert (2 * s).int_coeffs() == [2, 4, 0, 0]
        assert (s - 1).int_coeffs() == [0, 2, 0, 0]
        assert (1 - s).int_coeffs() == [0, -2, 0, 0]

    def test_pow(self):
        assert (Series([1, 1], 4) ** 2).int_coeffs() == [1, 2, 1, 0, 0]
        assert (Series.x(5) ** 3).valuation() == 3
        assert (Series([2], 2) ** 0) == Series.one(2)

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError, match="^only non-negative integer powers are supported$"):
            Series.x(3) ** -1

    def test_other_operand_types_are_not_implemented(self):
        # __add__ and __mul__ return NotImplemented, so Python raises TypeError
        with pytest.raises(TypeError, match="unsupported operand type"):
            Series.x(3) + "a"
        with pytest.raises(TypeError, match="can't multiply sequence by non-int of type 'Series'"):
            Series.x(3) * "a"

    def test_constructor_checks(self):
        with pytest.raises(ValueError, match="^order must be >= 0$"):
            Series([1], -1)
        with pytest.raises(ValueError, match="^empty coefficient list and no order given$"):
            Series([])

    def test_truncate(self):
        s = Series([1, 2, 3, 4], 3)
        assert s.truncate(1).coeffs == (1, 2)
        with pytest.raises(ValueError):
            s.truncate(5)

    def test_exact_rationals(self):
        s = Series([Fraction(1, 2), Fraction(1, 3)], 2)
        assert (s + s).coeffs[0] == 1
        with pytest.raises(ValueError):
            s.int_coeffs()


class TestDiv:
    def test_shift_out_common_valuation(self):
        got = div(Series([0, 1, 1], 4), Series([0, 1], 4))
        assert got.int_coeffs() == [1, 1, 0, 0]

    def test_geometric(self):
        assert div(Series.one(5), Series([1, -1], 5)).int_coeffs() == [1] * 6

    def test_valuation_aware(self):
        got = div(Series([0, 0, 1], 4), Series([1, -2], 4))
        assert got.int_coeffs() == [0, 0, 1, 2, 4]

    def test_order_reduced_by_denominator_valuation(self):
        q = div(Series([0, 0, 1, 1], 9), Series([0, 0, 2], 9))
        assert q.order == 7

    def test_rejects_nonunit(self):
        with pytest.raises(DivisionByNonUnit):
            div(Series([1], 4), Series([0, 1], 4))
        with pytest.raises(DivisionByNonUnit):
            div(Series([1], 4), Series.zero(4))

    def test_zero_numerator(self):
        assert div(Series.zero(5), Series([0, 3], 5)).is_zero()

    def test_rational_by_the_zero_polynomial(self):
        with pytest.raises(DivisionByNonUnit, match="^division by the zero polynomial$"):
            rational([1], [0, 0], 5)


class TestSqrt:
    def test_perfect_square(self):
        assert sqrt(Series([1, -2, 1], 5)).int_coeffs() == [1, -1, 0, 0, 0, 0]

    def test_one(self):
        assert sqrt(Series.one(4)) == Series.one(4)

    def test_catalan_radical(self):
        assert sqrt(Series([1, -4], 4)).int_coeffs() == [1, -2, -2, -4, -10]

    def test_rational_constant(self):
        got = sqrt(Series([Fraction(9, 4)], 3))
        assert got.coeffs[0] == Fraction(3, 2)

    def test_rejects_non_square(self):
        with pytest.raises(NonSquareConstantTerm):
            sqrt(Series([2], 3))
        with pytest.raises(NonSquareConstantTerm):
            sqrt(Series([0, 1], 3))
        with pytest.raises(NonSquareConstantTerm):
            sqrt(Series([-1], 3))


class TestMoebius:
    def test_identity_transform(self):
        B = Series([1, 5, 7], 4)
        got = moebius(Series.zero(4), Series.one(4), Series.one(4), Series.zero(4), B)
        assert got.coeffs == B.coeffs

    def test_constant_transform(self):
        B = Series([2, 3], 4)
        got = moebius(Series.one(4), Series.zero(4), Series.one(4), Series.zero(4), B)
        assert got == Series.one(4)

    def test_rejects_nonunit_denominator(self):
        with pytest.raises(DivisionByNonUnit):
            moebius(
                Series.one(3), Series.zero(3), Series.zero(3), Series.one(3),
                Series.x(3),
            )


fractions_st = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def series_st(order=10):
    return st.builds(
        lambda cs: Series(cs), st.lists(fractions_st, min_size=order + 1, max_size=order + 1)
    )


@given(a=series_st(), b=series_st())
@settings(max_examples=120)
def test_div_inverts_mul(a, b):
    v = b.valuation()
    if v is None:
        return
    assert div(a * b, b) == a.truncate(a.order - v)


@given(g=series_st())
@settings(max_examples=120)
def test_sqrt_squares_back(g):
    if g.coeffs[0] <= 0:
        return
    s = g * g
    root = sqrt(s)
    assert root == g
    assert root * root == s


@given(a=series_st(), b=series_st(), m=st.integers(min_value=0, max_value=10))
@settings(max_examples=120)
def test_truncation_commutes_with_ring_ops(a, b, m):
    am, bm = a.truncate(m), b.truncate(m)
    assert (a + b).truncate(m) == am + bm
    assert (a - b).truncate(m) == am - bm
    assert (a * b).truncate(m) == am * bm


def exact_and_normal(s):
    """Every coefficient is an int, or a Fraction that is not integral."""
    return all(
        type(c) is int or (type(c) is Fraction and c.denominator != 1)
        for c in s.coeffs
    )


class TestAgreesWith:
    def test_equal_prefix(self):
        assert Series([1, 1, 2, 5], 3).agrees_with(Series([1, 1, 2, 5], 3))
        assert geometric(6).agrees_with(Series([1, 1, 1, 1, 1, 1, 1]))

    def test_one_differing_coefficient(self):
        a = Series([1, 1, 2, 5, 14], 4)
        for n in range(5):
            coeffs = list(a.coeffs)
            coeffs[n] += 1
            assert not a.agrees_with(Series(coeffs, 4)), n
            assert not Series(coeffs, 4).agrees_with(a), n

    def test_operands_of_different_orders(self):
        # compared through the lower order only, whichever side holds it
        long, short = Series([1, 1, 2, 5, 14, 42], 5), Series([1, 1, 2], 2)
        assert long.agrees_with(short) and short.agrees_with(long)
        assert long.agrees_with(Series([1, 1, 2, 5, 14], 4))
        assert not long.agrees_with(Series([1, 1, 3], 2))
        assert not Series([1, 2], 1).agrees_with(long)


class TestRepresentation:
    def test_integral_inputs_stay_int(self):
        s = Series([Fraction(3), Fraction(4, 2), 5], 4)
        assert all(type(c) is int for c in s.coeffs)
        assert s.coeffs == (3, 2, 5, 0, 0)

    def test_integral_results_are_int(self):
        g = geometric(8)
        results = [
            g * g,
            g + g,
            g - 1,
            div(Series([0, 1, 1], 8), Series([0, 1], 8)),
            sqrt(Series([1, -4], 8)),
            moebius(g, Series.x(8), Series.one(8), Series.x(8), g),
        ]
        for s in results:
            assert all(type(c) is int for c in s.coeffs), s

    def test_fraction_results_are_fraction_only_when_not_integral(self):
        half = div(Series.one(3), Series([2], 3))
        assert half.coeffs[0] == Fraction(1, 2) and type(half.coeffs[0]) is Fraction
        root = sqrt(Series([4, 1], 3))
        assert type(root.coeffs[0]) is int and root.coeffs[1] == Fraction(1, 4)
        assert exact_and_normal(half) and exact_and_normal(root)
        assert type((half * 2).coeffs[0]) is int

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            Series([0.5], 2)

    def test_int_coeffs_names_the_non_integral_coefficient(self):
        s = Series([1, 2, Fraction(1, 2), Fraction(6, 3)], 4)
        with pytest.raises(ValueError, match=r"coefficient of x\^2 is not an integer: 1/2"):
            s.int_coeffs()
        assert Series([Fraction(4, 2), True, 3], 3).int_coeffs() == [2, 1, 3, 0]

    @pytest.mark.parametrize(
        "series,text",
        [
            (Series.zero(2), "<0 + O(x^3)>"),
            (Series([1, -1, 2], 2), "<1 + -1*x + 2*x^2 + O(x^3)>"),
            (Series.x(3), "<x + O(x^4)>"),
            (Series([Fraction(1, 2), 0, 3], 2), "<1/2 + 3*x^2 + O(x^3)>"),
        ],
        ids=["zero", "signed", "x", "fraction"],
    )
    def test_repr(self, series, text):
        assert repr(series) == text


mixed_st = st.one_of(st.integers(min_value=-5, max_value=5), fractions_st)


def mixed_series_st(order=8):
    return st.builds(
        lambda cs: Series(cs), st.lists(mixed_st, min_size=order + 1, max_size=order + 1)
    )


@given(a=mixed_series_st(), b=mixed_series_st())
@settings(max_examples=120)
def test_mixed_coefficients_never_float(a, b):
    results = [a, b, a + b, a - b, a * b, -a]
    if b.valuation() is not None:
        results.append(div(a * b, b))
    if b.coeffs[0] != 0:
        results.append(div(a, b))
    if a.coeffs[0] > 0:
        results.append(sqrt(a * a))
    for s in results:
        assert exact_and_normal(s)
