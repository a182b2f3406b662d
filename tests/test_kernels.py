"""Polylog / polyexponential builders and the type1 and type2 kernels."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polygenocchi import (
    CLASSICAL_POINT,
    K_MAX,
    TYPE1,
    TYPE2,
    FamilySpec,
    ParamPoint,
    Series,
    expm1_series,
    log1p_linear,
    polyexp_series,
    polylog_series,
    ps_ipow,
    ps_mul,
)
from polygenocchi import families
from polygenocchi.errors import (
    CompositionError,
    ConfigError,
    RangeError,
    SingularDenominator,
)

import oracles


def scalars(series):
    return [series.coefficient(n) for n in range(series.order + 1)]


def kernel(tag, point, k, order):
    """The alpha = 1 kernel of ``tag`` as the families table builds it."""
    return families.kernel_power(FamilySpec(tag, k=k), point, order, False, {})


class TestParamPoint:
    def test_coordinates_are_stored_as_fractions(self):
        point = ParamPoint(2, Fraction(1, 2), 0, -1)
        coords = (point.lam, point.ln_a, point.ln_b, point.ln_c)
        assert all(type(v) is Fraction for v in coords)
        assert point == ParamPoint(
            Fraction(2), Fraction(1, 2), Fraction(0), Fraction(-1)
        )

    @pytest.mark.parametrize("index", range(4))
    @pytest.mark.parametrize("bad", [0.1, 1.0, True])
    def test_floats_and_bools_are_rejected(self, index, bad):
        coords = [Fraction(1), Fraction(0), Fraction(1), Fraction(1)]
        coords[index] = bad
        with pytest.raises(ConfigError, match="Fraction"):
            ParamPoint(*coords)


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

    @pytest.mark.parametrize("k", [1.5, 2.0, True])
    def test_weight_must_be_an_integer(self, k):
        with pytest.raises(ConfigError, match="integer"):
            polylog_series(k, t_series(2))
        with pytest.raises(ConfigError, match="integer"):
            polyexp_series(k, t_series(2))

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


def power_sum(k, inner, polylog):
    """sum_m weight_m inner^m from plain lists, the composition by powers."""
    order = len(inner) - 1
    weights = [None] + [
        Fraction(m) ** -k / (1 if polylog else oracles.factorial(m - 1))
        for m in range(1, order + 1)
    ]
    return oracles._polylog_type_sum(inner, weights, order)


def inner_with_valuation(order, v, lead, tail):
    """lead t^v + tail, cut at ``order``: the zero inner when order < v."""
    values = [Fraction(0)] * v + [lead] + tail
    return Series(order, (values + [Fraction(0)] * order)[: order + 1])


inner_st = st.one_of(
    st.integers(0, 6).map(Series.zero),
    st.builds(
        inner_with_valuation,
        st.integers(0, 6),
        st.integers(1, 3),
        st.fractions(max_denominator=5).filter(bool),
        st.lists(
            st.one_of(st.just(Fraction(0)), st.fractions(max_denominator=5)),
            min_size=6,
            max_size=6,
        ),
    ),
)


class TestLadderMatchesPowerSum:
    """The differential ladder against the power sum over inner^m."""

    @settings(max_examples=80)
    @given(st.integers(-K_MAX, K_MAX), inner_st, st.booleans())
    def test_polylog(self, k, inner, from_zero):
        if from_zero and k > 0:
            with pytest.raises(RangeError):
                polylog_series(k, inner, from_zero=from_zero)
            return
        expected = power_sum(k, scalars(inner), polylog=True)
        if from_zero and k == 0:
            expected[0] += 1
        got = polylog_series(k, inner, from_zero=from_zero)
        assert got.order == inner.order
        assert scalars(got) == expected

    @settings(max_examples=80)
    @given(st.integers(-K_MAX, K_MAX), inner_st)
    def test_polyexp(self, k, inner):
        got = polyexp_series(k, inner)
        assert got.order == inner.order
        assert scalars(got) == power_sum(k, scalars(inner), polylog=False)

    @pytest.mark.parametrize("k", range(-K_MAX, K_MAX + 1))
    def test_zero_and_short_inners(self, k):
        inners = [
            Series.zero(0),
            Series.zero(4),
            Series(1, [0, Fraction(-2, 3)]),
            Series(2, [0, 0, Fraction(5)]),
        ]
        for inner in inners:
            expected = power_sum(k, scalars(inner), polylog=True)
            assert scalars(polylog_series(k, inner)) == expected
            if k <= 0:
                expected[0] += k == 0
                got = polylog_series(k, inner, from_zero=True)
                assert scalars(got) == expected
            expected = power_sum(k, scalars(inner), polylog=False)
            assert scalars(polyexp_series(k, inner)) == expected

    def test_nonzero_constant_rejected(self):
        for build in (polylog_series, polyexp_series):
            with pytest.raises(CompositionError):
                build(1, Series(2, [1, 1, 0]))


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
        got = scalars(kernel(TYPE1, CLASSICAL_POINT, 1, 4))
        assert got == [
            Fraction(0),
            Fraction(1),
            Fraction(-1, 2),
            Fraction(0),
            Fraction(1, 24),
        ]

    def test_classical_type1_weight_two(self):
        got = scalars(kernel(TYPE1, CLASSICAL_POINT, 2, 3))
        assert got == [Fraction(0), Fraction(1), Fraction(-1), Fraction(13, 36)]

    def test_kernels_agree_at_weight_one(self):
        point = ParamPoint(
            Fraction(2), Fraction(1, 2), Fraction(1, 3), Fraction(2)
        )
        a = ps_ipow(kernel(TYPE1, point, 1, 8), 2)
        b = ps_ipow(kernel(TYPE2, point, 1, 8), 2)
        assert scalars(a) == scalars(b)

    def test_alpha_zero_is_one(self):
        got = scalars(ps_ipow(kernel(TYPE1, CLASSICAL_POINT, 2, 4), 0))
        assert got == [1, 0, 0, 0, 0]

    def test_alpha_power_is_product(self):
        point = ParamPoint(
            Fraction(1, 2), Fraction(1), Fraction(1, 2), Fraction(1)
        )
        single = kernel(TYPE2, point, -1, 6)
        squared = ps_ipow(single, 2)
        assert scalars(squared) == scalars(ps_mul(single, single))

    def test_singular_denominator(self):
        with pytest.raises(SingularDenominator):
            kernel(TYPE1, ParamPoint(-1, 0, 1, 1), 1, 4)

    def test_valuation_shift_vanishing_orders(self):
        # the alpha-th kernel power starts at t^alpha
        got = scalars(ps_ipow(kernel(TYPE1, CLASSICAL_POINT, 2, 6), 3))
        assert got[:3] == [0, 0, 0]
        assert got[3] == 1
