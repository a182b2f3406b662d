"""Core series arithmetic: frozen values, ring axioms, canonical form."""

import math
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polygenocchi import (
    Poly,
    Series,
    binomial_convolution,
    ps_add,
    ps_div,
    ps_exp,
    ps_exp_linear,
    ps_ipow,
    ps_mul,
    ps_scale,
)
from polygenocchi.errors import (
    CompositionError,
    ConfigError,
    DivisionByNonUnit,
    ValuationError,
)
from polygenocchi.kernels import log1p_linear
from polygenocchi.series import poly_lincomb

import oracles

fractions_st = st.fractions(max_denominator=6)


def scalar_series(values):
    vals = [Fraction(v) for v in values]
    return Series(len(vals) - 1, vals)


def series_st(order=6):
    return st.lists(
        fractions_st, min_size=order + 1, max_size=order + 1
    ).map(scalar_series)


def coeffs(series):
    return [series.coefficient(n) for n in range(series.order + 1)]


class TestPoly:
    def test_trailing_zeros_are_stripped(self):
        assert Poly((1, 0, 0)) == Poly((1,))
        assert Poly((0, 0)).degree == -1

    def test_zero_poly_degree(self):
        assert Poly().degree == -1
        assert Poly().is_zero

    def test_evaluate_horner(self):
        p = Poly((Fraction(1), Fraction(-3), Fraction(2)))
        assert p.evaluate(Fraction(1, 2)) == 1 - Fraction(3, 2) + Fraction(1, 2)

    def test_substitute_affine(self):
        p = Poly((0, 0, 1))  # x^2
        q = p.substitute(Poly((1, 1)))  # (x+1)^2
        assert q == Poly((1, 2, 1))

    def test_derivative(self):
        p = Poly((5, 1, -3, 2))
        assert p.derivative() == Poly((1, -6, 6))

    def test_immutable(self):
        p = Poly((1, 2))
        with pytest.raises(AttributeError):
            p.coeffs = (3,)

    def test_monomial(self):
        assert Poly.monomial(2, Fraction(3)) == Poly((0, 0, 3))

    @given(st.lists(fractions_st, max_size=6), fractions_st)
    def test_poly_eval_matches_naive(self, cs, x):
        p = Poly(cs)
        naive = sum((c * x**i for i, c in enumerate(cs)), Fraction(0))
        assert p.evaluate(x) == naive


def horner_compose(p, inner):
    """p(inner(x)) by the plain-list oracle, as a Poly."""
    return Poly(oracles.horner_compose(list(p.coeffs), list(inner.coeffs)))


class TestAffineSubstitute:
    @given(
        st.lists(fractions_st, max_size=8),
        fractions_st,
        fractions_st.filter(lambda b: b != 0),
    )
    def test_matches_horner_composition(self, cs, a, b):
        p = Poly(cs)
        for shift in (a, Fraction(0), Fraction(1), Fraction(-1, 2)):
            inner = Poly((shift, b))
            assert inner.degree == 1
            assert p.substitute(inner) == horner_compose(p, inner)

    def test_zero_and_constant_polynomials(self):
        inner = Poly((Fraction(2, 3), Fraction(-5, 4)))
        for p in (Poly(), Poly((Fraction(7, 3),)), Poly((Fraction(-1),))):
            assert p.substitute(inner) == horner_compose(p, inner) == p

    @given(st.lists(fractions_st, max_size=8), fractions_st)
    def test_constant_and_zero_inners(self, cs, a):
        # ln c = 0 makes the verifier's affine arguments constant or zero
        p = Poly(cs)
        for inner in (Poly((a,)), Poly()):
            assert inner.degree <= 0
            assert p.substitute(inner) == horner_compose(p, inner)
            assert p.substitute(inner) == Poly((p.evaluate(inner.constant_term),))

    def test_inner_of_degree_two_rejected(self):
        with pytest.raises(ValueError):
            Poly((1, 2)).substitute(Poly((0, 0, 1)))


def strip(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


coeff_lists_st = st.lists(
    st.one_of(st.just(Fraction(0)), st.fractions(max_denominator=12)),
    max_size=7,
)
multipliers_st = st.integers(min_value=-30, max_value=30).filter(bool)


class TestPolyIntegerForm:
    """``Poly.ints``: integer numerators over one denominator, den > 0,
    gcd(den, *nums) = 1, no trailing zero."""

    @given(coeff_lists_st)
    def test_ints_is_canonical(self, cs):
        nums, den = Poly(cs).ints
        assert den > 0
        assert math.gcd(den, *nums) == 1
        assert not nums or nums[-1] != 0
        assert [Fraction(c, den) for c in nums] == strip(cs)

    @given(coeff_lists_st, multipliers_st)
    def test_from_ints_reduces_any_multiple(self, cs, g):
        nums, den = Poly(cs).ints
        scaled = Poly.from_ints([g * c for c in nums] + [0] * 2, g * den)
        assert scaled == Poly(cs)
        assert hash(scaled) == hash(Poly(cs))
        assert scaled.ints == (nums, den)

    @given(coeff_lists_st)
    def test_coeffs_round_trip(self, cs):
        p = Poly(cs)
        assert list(p.coeffs) == strip(cs)
        assert list(Poly.from_ints(*p.ints).coeffs) == strip(cs)
        # p now holds the integer form only, and reads the same
        assert list(p.coeffs) == strip(cs)
        assert [p.coefficient(d) for d in range(len(cs) + 1)] == cs + [0]

    def test_zero_polynomial(self):
        for zero in (Poly(), Poly((0, 0)), Poly.from_ints((0, 0), -5)):
            assert zero.ints == ((), 1)
            assert zero.degree == -1 and zero.is_zero
            assert zero.coeffs == ()
        with pytest.raises(ZeroDivisionError):
            Poly.from_ints((1,), 0)


class TestMixedForms:
    """Every operation gives the same canonical value for each mix of
    operands built by ``Poly(coeffs)`` versus ``from_ints`` of a multiple,
    against the plain-list oracles.

    The ``from_ints`` operand is built from a nonzero (maybe negative)
    multiple of the canonical form, so a ``from_ints`` that skipped the
    sign or gcd normalisation shows as unequal results.
    """

    @staticmethod
    def held(cs, g, as_ints):
        if not as_ints:
            return Poly(cs)
        nums, den = Poly(cs).ints
        return Poly.from_ints([g * c for c in nums], g * den)

    def assert_is(self, got, expected):
        want = Poly(expected)
        assert got == want
        assert hash(got) == hash(want)
        assert got.ints == want.ints
        assert list(got.coeffs) == strip(expected)

    @given(coeff_lists_st, coeff_lists_st, fractions_st, multipliers_st)
    def test_operations_match_oracles(self, a, b, f, g):
        width = max(len(a), len(b))
        pa = a + [Fraction(0)] * (width - len(a))
        pb = b + [Fraction(0)] * (width - len(b))
        naive = sum((c * f**i for i, c in enumerate(a)), Fraction(0))
        for fa in (False, True):
            p = partial(self.held, a, g, fa)
            self.assert_is(p().derivative(), [i * c for i, c in enumerate(a)][1:])
            self.assert_is(p() * f, [c * f for c in a])
            assert p().evaluate(f) == naive
            for fb in (False, True):
                q = partial(self.held, b, -g, fb)
                self.assert_is(p() + q(), [u + v for u, v in zip(pa, pb)])
                # a Poly is not a scalar: Poly products are not an operation
                with pytest.raises(ConfigError, match="int or Fraction"):
                    p() * q()
                self.assert_is(
                    poly_lincomb([(p(), f), (q(), Fraction(-2, 3))]),
                    [f * u - Fraction(2, 3) * v for u, v in zip(pa, pb)],
                )
                self.assert_is(
                    p().substitute(self.held(b[:2], -g, fb)),
                    oracles.horner_compose(a, b[:2]),
                )

    @given(st.lists(coeff_lists_st, max_size=5), fractions_st, multipliers_st)
    def test_binomial_convolution_matches_oracle(self, rows, f, g):
        scalars = [f**j - j for j in range(len(rows))]
        expected = oracles.binomial_convolution(scalars, rows)
        for flip in (False, True):
            # alternate the forms along the list, starting either way
            polys = [self.held(r, g, i % 2 != flip) for i, r in enumerate(rows)]
            got = binomial_convolution(scalars, polys)
            for p, e in zip(got, expected):
                self.assert_is(p, e)

    @given(fractions_st, st.integers(min_value=0, max_value=5))
    def test_constant_and_monomial(self, f, degree):
        self.assert_is(Poly.constant(f), [f])
        self.assert_is(Poly.monomial(degree, f), [Fraction(0)] * degree + [f])


def signed_fractions_st(max_denominator=12):
    return st.fractions(
        min_value=-20, max_value=20, max_denominator=max_denominator
    )


class TestBinomialConvolution:
    """The EGF product sum_m C(n,m) a_{n-m} Q_m(x) of the Appell-shaped
    right-hand sides, against the plain-list oracle."""

    @given(
        st.lists(
            st.one_of(st.just(Fraction(0)), signed_fractions_st()), max_size=7
        ),
        st.lists(
            st.one_of(
                st.just([]),
                st.lists(signed_fractions_st(), min_size=1, max_size=1),
                st.lists(signed_fractions_st(), max_size=6),
            ),
            max_size=7,
        ),
        st.integers(min_value=0, max_value=2),
    )
    def test_matches_oracle(self, scalars, rows, extra):
        rows = rows[: len(scalars)]
        polys = [Poly(r) for r in rows]
        got = binomial_convolution(scalars, polys)
        assert len(got) == len(polys)
        assert [list(p.coeffs) for p in got] == oracles.binomial_convolution(
            scalars, rows
        )
        # scalars past len(polys) are unused
        padded = scalars + [Fraction(1, 7)] * extra
        assert binomial_convolution(padded, polys) == got

    def test_lengths_zero_and_one(self):
        assert binomial_convolution([], []) == []
        assert binomial_convolution([Fraction(3)], []) == []
        p = Poly((Fraction(1, 2), Fraction(-2, 3)))
        assert binomial_convolution([Fraction(-3, 5)], [p]) == [p * Fraction(-3, 5)]
        assert binomial_convolution([0], [p]) == [Poly()]

    def test_exp_times_powers_is_the_binomial_theorem(self):
        # e^{yt} times e^{xt}: the n-th entry is (x + y)^n
        y, order = Fraction(-2, 3), 6
        got = binomial_convolution(
            [y**j for j in range(order + 1)],
            [Poly.monomial(m) for m in range(order + 1)],
        )
        for n, p in enumerate(got):
            assert p == Poly.monomial(n).substitute(Poly((y, 1)))

    def test_too_few_scalars_rejected(self):
        with pytest.raises(ValueError):
            binomial_convolution([1], [Poly((1,)), Poly((0, 1))])


class TestFrozenQuotients:
    def test_classical_kernel_by_long_division(self):
        # 2t/(e^t + 1): the first entries pin the sign and scale conventions
        num = scalar_series([0, 2, 0, 0, 0, 0, 0])
        den = scalar_series(
            [Fraction(2)] + [Fraction(1, oracles.factorial(n)) for n in range(1, 7)]
        )
        got = ps_div(num, den)
        den_list = oracles.exp_coeffs(1, 6)
        den_list[0] += 1
        expected = oracles.divide([Fraction(0), Fraction(2)], den_list, 6)
        assert coeffs(got) == expected
        assert expected[:5] == [
            Fraction(0),
            Fraction(1),
            Fraction(-1, 2),
            Fraction(0),
            Fraction(1, 24),
        ]

    def test_valuation_cancellation(self):
        # t^2/(t - t^2) = t + t^2 + ... as a formal quotient
        num = scalar_series([0, 0, 1, 0, 0])
        den = scalar_series([0, 1, -1, 0, 0])
        got = ps_div(num, den)
        assert coeffs(got) == [Fraction(0), Fraction(1), Fraction(1), Fraction(1)]

    def test_division_by_zero_series(self):
        num = scalar_series([1, 0])
        den = scalar_series([0, 0])
        with pytest.raises(DivisionByNonUnit):
            ps_div(num, den)

    def test_valuation_error_when_num_lower(self):
        num = scalar_series([1, 0, 0])
        den = scalar_series([0, 1, 0])
        with pytest.raises(ValuationError):
            ps_div(num, den)


class TestCompose:
    def test_square_of_double(self):
        outer = [0, 0, 1, 0, 0]  # w^2
        inner = [0, 2, 0, 0, 0]  # 2t
        got = oracles.compose(outer, inner)
        assert got == [0, 0, 4, 0, 0]

    def test_log_of_exp_minus_one(self):
        order = 8
        log_coeffs = [Fraction(0)] + [
            Fraction((-1) ** (n + 1), n) for n in range(1, order + 1)
        ]
        em1 = oracles.exp_coeffs(1, order)
        em1[0] -= 1
        got = oracles.compose(log_coeffs, em1)
        assert got == [Fraction(0), Fraction(1)] + [Fraction(0)] * (
            order - 1
        )

    def test_nonzero_constant_rejected(self):
        with pytest.raises(CompositionError):
            oracles.compose([0, 1, 0], [1, 1, 0])


class TestExpFactories:
    def test_exp_linear_matches_oracle(self):
        got = ps_exp_linear(Fraction(2, 3), 6)
        assert coeffs(got) == oracles.exp_coeffs(Fraction(2, 3), 6)


class TestRingAxioms:
    @given(series_st(), series_st())
    def test_add_commutes(self, a, b):
        assert ps_add(a, b) == ps_add(b, a)

    @given(series_st(), series_st())
    def test_mul_commutes(self, a, b):
        assert ps_mul(a, b) == ps_mul(b, a)

    @given(series_st(4), series_st(4), series_st(4))
    def test_mul_associates(self, a, b, c):
        assert ps_mul(ps_mul(a, b), c) == ps_mul(a, ps_mul(b, c))

    @given(series_st(4), series_st(4), series_st(4))
    def test_mul_distributes(self, a, b, c):
        lhs = ps_mul(a, ps_add(b, c))
        rhs = ps_add(ps_mul(a, b), ps_mul(a, c))
        assert lhs == rhs

    @given(series_st(), series_st())
    def test_mul_matches_convolution_oracle(self, a, b):
        got = ps_mul(a, b)
        expected = oracles.convolve(coeffs(a), coeffs(b), got.order)
        assert coeffs(got) == expected

    @given(series_st())
    def test_div_inverts_mul_for_units(self, a):
        unit = ps_add(a, Series.one(a.order))
        if unit.coefficient(0) == 0:
            unit = Series.one(a.order)
        prod = ps_mul(a, unit)
        assert coeffs(ps_div(prod, unit)) == coeffs(a)

    @given(series_st(5), st.integers(min_value=0, max_value=4))
    def test_ipow_matches_repeated_mul(self, a, e):
        expected = Series.one(a.order)
        for _ in range(e):
            expected = ps_mul(expected, a)
        assert ps_ipow(a, e) == expected

    @given(series_st(4), series_st(4))
    def test_compose_distributes_over_mul(self, f, g):
        inner = [0, 1, 1, 0, 0]
        lhs = oracles.compose(coeffs(ps_mul(f, g)), inner)
        rhs = ps_mul(
            scalar_series(oracles.compose(coeffs(f), inner)),
            scalar_series(oracles.compose(coeffs(g), inner)),
        )
        assert lhs == coeffs(rhs)

    @given(series_st())
    def test_scale(self, a):
        assert coeffs(ps_scale(a, Fraction(3, 2))) == [
            Fraction(3, 2) * c for c in coeffs(a)
        ]


# coefficients with zeros and negatives common, and mixed operand orders
entries_st = st.one_of(st.just(Fraction(0)), fractions_st)


def mixed_series_st(min_order=0, max_order=7):
    return st.integers(min_order, max_order).flatmap(
        lambda n: st.lists(entries_st, min_size=n + 1, max_size=n + 1)
    ).map(scalar_series)


class TestIntegerInnerLoops:
    """ps_mul, ps_div and ps_exp against the plain-list oracles."""

    @settings(max_examples=60)
    @given(mixed_series_st(), mixed_series_st())
    def test_mul_matches_convolve(self, a, b):
        got = ps_mul(a, b)
        assert got.order == min(a.order, b.order)
        assert coeffs(got) == oracles.convolve(coeffs(a), coeffs(b), got.order)

    @settings(max_examples=60)
    @given(
        st.integers(0, 2),
        fractions_st.filter(bool),
        mixed_series_st(),
        mixed_series_st(),
    )
    def test_div_matches_long_division(self, v, lead, num, rest):
        # den = t^v (lead + t rest), num = t^v num: the quotient is num/den'
        den = scalar_series([0] * v + [lead] + coeffs(rest))
        num = scalar_series([0] * v + coeffs(num))
        got = ps_div(num, den)
        order = min(num.order, den.order) - v
        assert got.order == order
        expected = oracles.divide(
            coeffs(num)[v:], coeffs(den)[v:], order
        )
        assert coeffs(got) == expected

    @given(mixed_series_st(), st.integers(1, 3))
    def test_div_rejects_low_numerator(self, den_tail, v):
        den = scalar_series([0] * v + [1] + coeffs(den_tail))
        num = scalar_series([0] * (v - 1) + [Fraction(1, 3)] + [0] * 4)
        with pytest.raises(ValuationError):
            ps_div(num, den)

    def test_div_too_short_and_by_zero(self):
        with pytest.raises(ValuationError):
            ps_div(scalar_series([0]), scalar_series([0, 0, 1]))
        with pytest.raises(DivisionByNonUnit):
            ps_div(scalar_series([0, 1, 2]), scalar_series([0, 0, 0]))

    @settings(max_examples=40)
    @given(mixed_series_st())
    def test_exp_matches_composition(self, a):
        a = scalar_series([0] + coeffs(a)[1:])
        outer = oracles.exp_coeffs(1, a.order)
        assert coeffs(ps_exp(a)) == oracles.compose(outer, coeffs(a))

    def test_exp_needs_zero_constant(self):
        with pytest.raises(CompositionError):
            ps_exp(scalar_series([1, 1]))


class TestSeriesIntegerForm:
    """``Series.ints``: order + 1 integer numerators over one denominator,
    den > 0, gcd(den, *nums) = 1, from the constructor and from every
    operation alike."""

    @given(mixed_series_st())
    def test_ints_is_canonical(self, a):
        nums, den = a.ints
        assert len(nums) == a.order + 1
        assert den > 0
        assert math.gcd(den, *nums) == 1
        assert [Fraction(c, den) for c in nums] == coeffs(a)
        assert list(a.coeffs) == coeffs(a)

    @given(mixed_series_st(), multipliers_st)
    def test_from_ints_reduces_any_multiple(self, a, g):
        nums, den = a.ints
        scaled = Series.from_ints(a.order, [g * c for c in nums], g * den)
        assert scaled == a
        assert hash(scaled) == hash(a)
        assert scaled.ints == (nums, den)
        if any(nums):
            assert Series.from_ints(a.order, nums, 2 * den) != a

    @given(series_st(4), series_st(4))
    def test_arithmetic_and_constructor_agree(self, a, b):
        # the lru_cache keys of the kernel ladder hash series built both ways
        for got in (ps_add(a, b), ps_mul(a, b), ps_scale(a, Fraction(-3, 4))):
            rebuilt = Series(got.order, got.coeffs)
            assert got == rebuilt
            assert hash(got) == hash(rebuilt)
            assert got.ints == rebuilt.ints

    def test_zero_series(self):
        for zero in (
            Series(3),
            Series(3, (0, 0)),
            Series.zero(3),
            Series.from_ints(3, (0, 0, 0, 0), -7),
            ps_scale(Series.one(3), 0),
            ps_add(Series.one(3), -Series.one(3)),
        ):
            assert zero.ints == ((0, 0, 0, 0), 1)
            assert zero.valuation() is None
            assert zero == Series.zero(3)
        with pytest.raises(ZeroDivisionError):
            Series.from_ints(2, (1,), 0)
        with pytest.raises(ValueError):
            Series.from_ints(1, (1, 2, 3))
        with pytest.raises(ValueError):
            Series.from_ints(-1, ())

    def test_immutable(self):
        a = Series(2, (1, 2))
        for name in ("order", "_nums", "_den"):
            with pytest.raises(AttributeError):
                setattr(a, name, 3)
        assert a.order == 2 and a.ints == ((1, 2, 0), 1)

    @given(
        st.lists(fractions_st, min_size=1, max_size=6).filter(
            lambda cs: cs[-1] != 0
        )
    )
    def test_never_equals_a_poly(self, cs):
        # the kernel caches are keyed on Series; a Poly with the same
        # numerators and denominator is another value and another key
        p = Poly(cs)
        a = Series(len(cs) - 1, cs)
        assert p.ints == a.ints
        assert p != a and a != p
        assert len({a: 0, p: 1}) == 2

    @given(
        st.fractions(min_value=-5, max_value=5, max_denominator=7),
        st.integers(0, 12),
    )
    @example(Fraction(-2), 9)
    @example(Fraction(-7, 3), 8)
    @example(Fraction(0), 4)
    def test_exp_linear_is_rate_powers_over_factorials(self, rate, order):
        got = ps_exp_linear(rate, order)
        assert coeffs(got) == [
            rate**n / math.factorial(n) for n in range(order + 1)
        ]
        nums, den = got.ints
        assert den > 0 and math.gcd(den, *nums) == 1


class TestCanonicalForm:
    @given(series_st())
    def test_coefficients_stay_reduced(self, a):
        b = ps_mul(a, a)
        for n in range(b.order + 1):
            value = b.coefficient(n)
            assert isinstance(value, Fraction)
            assert value.denominator > 0
            from math import gcd

            assert gcd(value.numerator, value.denominator) == 1


class TestExactScalars:
    # a float is not the rational it stands in for: Poly((0.1,)) would hold
    # 3602879701896397/36028797018963968, not 1/10
    @pytest.mark.parametrize("bad", [0.1, 2.0, True])
    @pytest.mark.parametrize(
        "build",
        [
            lambda v: Poly((1, v)),
            lambda v: Poly.monomial(2, v),
            lambda v: Poly((1, 2)) * v,
            lambda v: Poly((1, 2)).evaluate(v),
            lambda v: Series(2, (v,)),
            lambda v: ps_scale(Series.one(2), v),
            lambda v: ps_exp_linear(v, 2),
            lambda v: binomial_convolution([v], [Poly((1,))]),
            lambda v: log1p_linear(v, 2),
        ],
    )
    def test_floats_and_bools_are_rejected(self, build, bad):
        with pytest.raises(ConfigError, match="int or Fraction"):
            build(bad)

    def test_ints_and_fractions_are_kept_exact(self):
        assert Poly((1, Fraction(1, 10))).coeffs == (Fraction(1), Fraction(1, 10))
        assert Series(1, (Fraction(1, 10), 2)).coeffs == (Fraction(1, 10), 2)
        assert Poly((0, 3)).evaluate(Fraction(1, 10)) == Fraction(3, 10)
