"""Polylog / polyexponential ladders and the type1 and type2 kernels."""

import copy
import pickle
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
    polyexp_series,
    polylog_series,
    ps_mul,
)
from polygenocchi import families, kernels
from polygenocchi.families import stored_power
from polygenocchi.errors import ConfigError, RangeError, SingularDenominator

import oracles


def scalars(series):
    return [series.coefficient(n) for n in range(series.order + 1)]


def kernel(tag, point, k, order):
    """The alpha = 1 kernel of ``tag`` as the families table builds it."""
    return families.kernel_power(FamilySpec(tag, k=k), point, order, {})


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

    @pytest.mark.parametrize("name", ["lam", "ln_a", "ln_b", "ln_c"])
    @pytest.mark.parametrize("bad", [0.5, True])
    def test_a_copy_applies_the_constructor_rules(self, name, bad):
        with pytest.raises(ConfigError, match="Fraction"):
            CLASSICAL_POINT._replace(**{name: bad})
        moved = CLASSICAL_POINT._replace(**{name: 3})
        assert getattr(moved, name) == Fraction(3)
        assert type(getattr(moved, name)) is Fraction
        assert moved.ln_ab == moved.ln_a + moved.ln_b

    def test_ln_ab_is_stored_but_not_a_coordinate(self):
        point = ParamPoint(2, Fraction(1, 2), Fraction(1, 3), -1)
        assert point.ln_ab == Fraction(5, 6)
        assert repr(point) == (
            "ParamPoint(lam=Fraction(2, 1), ln_a=Fraction(1, 2), "
            "ln_b=Fraction(1, 3), ln_c=Fraction(-1, 1))"
        )
        with pytest.raises(TypeError):
            point._replace(ln_ab=Fraction(1))

    def test_a_point_is_not_the_tuple_of_its_coordinates(self):
        coords = (Fraction(1), Fraction(0), Fraction(1), Fraction(1))
        assert CLASSICAL_POINT != coords
        assert coords != CLASSICAL_POINT
        assert CLASSICAL_POINT not in {coords: None}
        assert CLASSICAL_POINT == ParamPoint(*coords)
        assert hash(CLASSICAL_POINT) == hash(ParamPoint(*coords))

    def test_points_are_immutable_and_copy_through_the_constructor(self):
        with pytest.raises(AttributeError):
            CLASSICAL_POINT.lam = Fraction(2)
        with pytest.raises(AttributeError):
            del CLASSICAL_POINT.ln_c
        for copied in (
            copy.copy(CLASSICAL_POINT),
            pickle.loads(pickle.dumps(CLASSICAL_POINT)),
        ):
            assert copied == CLASSICAL_POINT
            assert copied.ln_ab == CLASSICAL_POINT.ln_ab


def inner(polylog, r, order):
    """The type-1 inner 1 - e^{-rt} (``polylog``) or the type-2 inner
    log(1 + rt), as a plain coefficient list."""
    if polylog:
        w = [-c for c in oracles.exp_coeffs(-r, order)]
        w[0] += 1
        return w
    return [Fraction(0)] + [
        (-1) ** (m + 1) * Fraction(r) ** m / m for m in range(1, order + 1)
    ]


class TestPolylog:
    def test_weight_two(self):
        # the derivative of Li_2(1 - e^{-t}) is t/(e^t - 1) = sum B_n t^n/n!
        got = scalars(polylog_series(2, 1, 5))
        assert got == [
            0, 1, Fraction(-1, 4), Fraction(1, 36), 0, Fraction(-1, 3600),
        ]

    def test_weight_one_telescopes(self):
        # Li_1(1 - e^{-2t}) = 2t exactly
        order = 10
        got = scalars(polylog_series(1, Fraction(2), order))
        assert got == [Fraction(0), Fraction(2)] + [Fraction(0)] * (order - 1)

    def test_negative_weight(self):
        # Li_{-1}(w) = w/(1 - w)^2, which at w = 1 - e^{-rt} is e^{2rt} - e^{rt}
        for r in (Fraction(1), Fraction(-3, 2)):
            got = scalars(polylog_series(-1, r, 6))
            assert got == [
                a - b
                for a, b in zip(
                    oracles.exp_coeffs(2 * r, 6), oracles.exp_coeffs(r, 6)
                )
            ]

    def test_from_zero_adds_unit_at_weight_zero(self):
        # summed from m = 0, Li_0(w) = 1/(1 - w), which at w = 1 - e^{-rt}
        # is e^{rt}: the m = 0 term adds 1 to Li_0 at t^0 alone
        for r in (Fraction(1), Fraction(-3, 2)):
            plain = scalars(polylog_series(0, r, 4))
            shifted = oracles.exp_coeffs(r, 4)
            assert shifted[0] - plain[0] == 1
            assert shifted[1:] == plain[1:]

    def test_weight_bound(self):
        for build in (polylog_series, polyexp_series):
            with pytest.raises(RangeError):
                build(K_MAX + 1, 1, 2)
            with pytest.raises(RangeError):
                build(-(K_MAX + 1), 1, 2)

    @pytest.mark.parametrize("k", [1.5, 2.0, True])
    def test_weight_must_be_an_integer(self, k):
        with pytest.raises(ConfigError, match="integer"):
            polylog_series(k, 1, 2)
        with pytest.raises(ConfigError, match="integer"):
            polyexp_series(k, 1, 2)

    def test_exp_of_log_series(self):
        # exp(-Li_1(w)) = 1 - w: at w = 1 - e^{-t} the pieces telescope to e^{-t}
        order = 8
        li1 = polylog_series(1, 1, order)
        exp_outer = [
            Fraction((-1) ** n, oracles.factorial(n)) for n in range(order + 1)
        ]
        got = oracles.compose(exp_outer, scalars(li1))
        assert got == oracles.exp_coeffs(-1, order)


def power_sum(k, w, polylog):
    """sum_m weight_m w^m from plain lists, the composition by powers."""
    order = len(w) - 1
    weights = [None] + [
        Fraction(m) ** -k / (1 if polylog else oracles.factorial(m - 1))
        for m in range(1, order + 1)
    ]
    return oracles._polylog_type_sum(w, weights, order)


# small-height nonzero rates, both signs, denominators up to 4
rate_st = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


class TestLadderMatchesPowerSum:
    """The differential ladder against the power sum over inner^m."""

    @settings(max_examples=80)
    @given(st.integers(-K_MAX, K_MAX), rate_st, st.integers(0, 12))
    def test_polylog(self, k, r, order):
        got = polylog_series(k, r, order)
        assert got.order == order
        assert scalars(got) == power_sum(k, inner(True, r, order), polylog=True)

    @settings(max_examples=80)
    @given(st.integers(-K_MAX, K_MAX), rate_st, st.integers(0, 12))
    def test_polyexp(self, k, r, order):
        got = polyexp_series(k, r, order)
        assert got.order == order
        assert scalars(got) == power_sum(k, inner(False, r, order), polylog=False)

    @pytest.mark.parametrize("k", range(-K_MAX, K_MAX + 1))
    def test_zero_and_short_inners(self, k):
        # r = 0 makes the inner zero, and orders 0..2 are the short ones
        for r in (Fraction(0), Fraction(-2, 3), Fraction(5)):
            for order in (0, 1, 2):
                for polylog, build in ((True, polylog_series), (False, polyexp_series)):
                    expected = power_sum(k, inner(polylog, r, order), polylog)
                    assert scalars(build(k, r, order)) == expected

    @pytest.mark.parametrize("polylog", [True, False])
    @pytest.mark.parametrize("r", [Fraction(1), Fraction(-3, 2), Fraction(5, 3)])
    def test_down_factor_is_w_over_t_dw(self, polylog, r):
        # the closed form of D = w/(t w') against the quotient of plain lists
        order = 9
        w = inner(polylog, r, order + 1)
        t_dw = [n * c for n, c in enumerate(w)]
        expected = oracles.divide(w[1:], t_dw[1:], order)
        assert scalars(kernels._factor(polylog, False, r, order)) == expected
        product = ps_mul(
            kernels._factor(polylog, False, r, order),
            kernels._factor(polylog, True, r, order),
        )
        assert scalars(product) == [1] + [0] * order

    def test_two_bounded_caches(self):
        caches = {
            name: value.cache_info().maxsize
            for name, value in vars(kernels).items()
            if hasattr(value, "cache_info")
        }
        assert caches == {"_factor": 64, "_rung": 512}


class TestPolyexp:
    def test_weight_two(self):
        got = scalars(polyexp_series(2, 1, 4))
        assert got == [
            0, 1, Fraction(-1, 4), Fraction(5, 36), Fraction(-3, 32),
        ]

    def test_weight_one_is_expm1(self):
        # e_1(w) = exp(w) - 1, composed by Horner's rule at w = log(1 + rt)
        order = 9
        outer = oracles.exp_coeffs(1, order)
        outer[0] -= 1
        for r in (Fraction(1), Fraction(-3, 2), Fraction(5, 3)):
            expected = oracles.compose(outer, inner(False, r, order))
            assert scalars(polyexp_series(1, r, order)) == expected

    def test_log_composition_telescopes(self):
        # e_1(log(1 + 2t)) = 2t exactly
        order = 10
        got = scalars(polyexp_series(1, Fraction(2), order))
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
        a = stored_power(kernel(TYPE1, point, 1, 8), 2, {})
        b = stored_power(kernel(TYPE2, point, 1, 8), 2, {})
        assert scalars(a) == scalars(b)

    def test_alpha_zero_is_one(self):
        got = scalars(stored_power(kernel(TYPE1, CLASSICAL_POINT, 2, 4), 0, {}))
        assert got == [1, 0, 0, 0, 0]

    def test_alpha_power_is_product(self):
        point = ParamPoint(
            Fraction(1, 2), Fraction(1), Fraction(1, 2), Fraction(1)
        )
        single = kernel(TYPE2, point, -1, 6)
        squared = stored_power(single, 2, {})
        assert scalars(squared) == scalars(ps_mul(single, single))

    def test_singular_denominator(self):
        with pytest.raises(SingularDenominator):
            kernel(TYPE1, ParamPoint(-1, 0, 1, 1), 1, 4)

    def test_valuation_shift_vanishing_orders(self):
        # the alpha-th kernel power starts at t^alpha
        got = scalars(stored_power(kernel(TYPE1, CLASSICAL_POINT, 2, 6), 3, {}))
        assert got[:3] == [0, 0, 0]
        assert got[3] == 1
