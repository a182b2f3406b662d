"""Polylog / polyexponential builders and the two quotient kernels."""

from fractions import Fraction

import pytest

from polygenocchi import (
    CLASSICAL_POINT,
    K_MAX,
    ParamPoint,
    Series,
    expm1_series,
    kernel_type1,
    kernel_type2,
    log1p_linear,
    polyexp_series,
    polylog_series,
    ps_mul,
)
from polygenocchi.errors import RangeError, SingularDenominator

import oracles


def scalars(series):
    return [series.coefficient(n) for n in range(series.order + 1)]


def t_series(order):
    return Series(
        order, [Fraction(0), Fraction(1)] + [Fraction(0)] * (order - 1)
    )


class TestPolylog:
    def test_weight_two(self):
        got = scalars(polylog_series(2, t_series(3)))
        assert got == [0, 1, Fraction(1, 4), Fraction(1, 9)]

    def test_weight_one_telescopes(self):
        # Li_1(1 - e^{-2t}) = 2t exactly
        order = 10
        inner = expm1_series(Fraction(-2), order)
        inner = Series(order, [-c for c in inner.coeffs])
        got = scalars(polylog_series(1, inner))
        assert got == [Fraction(0), Fraction(2)] + [Fraction(0)] * (order - 1)

    def test_negative_weight(self):
        got = scalars(polylog_series(-1, t_series(3)))
        assert got == [0, 1, 2, 3]

    def test_from_zero_adds_unit_at_weight_zero(self):
        plain = scalars(polylog_series(0, t_series(4)))
        shifted = scalars(polylog_series(0, t_series(4), from_zero=True))
        assert shifted[0] - plain[0] == 1
        assert shifted[1:] == plain[1:]

    def test_from_zero_rejected_for_positive_weight(self):
        with pytest.raises(RangeError):
            polylog_series(2, t_series(4), from_zero=True)

    def test_weight_bound(self):
        with pytest.raises(RangeError):
            polylog_series(K_MAX + 1, t_series(2))
        with pytest.raises(RangeError):
            polylog_series(-(K_MAX + 1), t_series(2))

    def test_exp_of_log_series(self):
        # exp(-Li_1(z)) = 1 - z: composing the pieces must telescope
        order = 8
        z = t_series(order)
        li1 = polylog_series(1, z)
        exp_outer = [
            Fraction((-1) ** n, oracles.factorial(n)) for n in range(order + 1)
        ]
        got = oracles.compose(exp_outer, scalars(li1))
        assert got == [1, -1] + [0] * (order - 1)


class TestPolyexp:
    def test_weight_two(self):
        got = scalars(polyexp_series(2, t_series(3)))
        assert got == [0, 1, Fraction(1, 4), Fraction(1, 18)]

    def test_weight_one_is_expm1(self):
        order = 9
        got = scalars(polyexp_series(1, t_series(order)))
        expected = oracles.exp_coeffs(1, order)
        expected[0] -= 1
        assert got == expected

    def test_log_composition_telescopes(self):
        # e_1(log(1 + 2t)) = 2t exactly
        order = 10
        inner = log1p_linear(Fraction(2), order)
        got = scalars(polyexp_series(1, inner))
        assert got == [Fraction(0), Fraction(2)] + [Fraction(0)] * (order - 1)


class TestKernels:
    def test_classical_type1_weight_one(self):
        got = scalars(kernel_type1(CLASSICAL_POINT, 1, 1, 4))
        assert got == [
            Fraction(0),
            Fraction(1),
            Fraction(-1, 2),
            Fraction(0),
            Fraction(1, 24),
        ]

    def test_classical_type1_weight_two(self):
        got = scalars(kernel_type1(CLASSICAL_POINT, 2, 1, 3))
        assert got == [Fraction(0), Fraction(1), Fraction(-1), Fraction(13, 36)]

    def test_kernels_agree_at_weight_one(self):
        point = ParamPoint(
            Fraction(2), Fraction(1, 2), Fraction(1, 3), Fraction(2)
        )
        a = kernel_type1(point, 1, 2, 8)
        b = kernel_type2(point, 1, 2, 8)
        assert scalars(a) == scalars(b)

    def test_alpha_zero_is_one(self):
        got = scalars(kernel_type1(CLASSICAL_POINT, 2, 0, 4))
        assert got == [1, 0, 0, 0, 0]

    def test_alpha_power_is_product(self):
        point = ParamPoint(
            Fraction(1, 2), Fraction(1), Fraction(1, 2), Fraction(1)
        )
        single = kernel_type2(point, -1, 1, 6)
        squared = kernel_type2(point, -1, 2, 6)
        assert scalars(squared) == scalars(ps_mul(single, single))

    def test_singular_denominator(self):
        with pytest.raises(SingularDenominator):
            kernel_type1(ParamPoint(-1, 0, 1, 1), 1, 1, 4)

    def test_valuation_shift_vanishing_orders(self):
        # the alpha-th kernel power starts at t^alpha
        got = scalars(kernel_type1(CLASSICAL_POINT, 2, 3, 6))
        assert got[:3] == [0, 0, 0]
        assert got[3] == 1
