"""Family construction: frozen sequences, structure, round trips."""

import copy
import pickle
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from polygenocchi import (
    ALL_TAGS,
    APOSTOL_BERNOULLI,
    APOSTOL_GENOCCHI,
    APOSTOL_GENOCCHI_HIGHER,
    BERNOULLI_T1,
    BERNOULLI_T2,
    CLASSICAL_GENOCCHI,
    CLASSICAL_GENOCCHI_HIGHER,
    CLASSICAL_POINT,
    FROBENIUS,
    K_MAX,
    TYPE1,
    TYPE2,
    FamilyExpansion,
    FamilySpec,
    ParamPoint,
    Poly,
    Series,
    binomial_convolution,
    double_gf_rhs,
    family_series,
)
from polygenocchi import families, verifier
from polygenocchi.errors import ConfigError, RangeError, SingularDenominator
from polygenocchi.families import (
    LN_C_TAGS,
    ORDER_ONE_TAGS,
    POLY_ORDER_TAGS,
    appell_rows,
    kernel_power,
)

import oracles
from test_cli import expansion_to_dict

GENERIC = ParamPoint(Fraction(2), Fraction(1, 2), Fraction(1, 3), Fraction(2))


def numbers(spec, point, order):
    """P_0(0) .. P_order(0) of one family instance."""
    return [p.coefficient(0) for p in family_series(spec, point, order).polys]


class TestSpecValidation:
    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            FamilySpec("no-such-family")

    def test_k_required(self):
        with pytest.raises(ValueError):
            FamilySpec(TYPE1)
        with pytest.raises(ValueError):
            FamilySpec(CLASSICAL_GENOCCHI, k=2)

    def test_k_bound(self):
        # an order outside the ladder's range is invalid before any expansion
        with pytest.raises(RangeError):
            FamilySpec(TYPE1, k=K_MAX + 1)
        with pytest.raises(RangeError):
            FamilySpec(BERNOULLI_T2, k=-K_MAX - 1)

    def test_mu_only_for_frobenius(self):
        with pytest.raises(ValueError):
            FamilySpec(TYPE1, k=1, mu=Fraction(2))
        with pytest.raises(ValueError):
            FamilySpec(FROBENIUS)

    def test_mu_one_singular(self):
        with pytest.raises(SingularDenominator):
            FamilySpec(FROBENIUS, mu=Fraction(1))

    def test_alpha_fixed_for_order_one_tags(self):
        with pytest.raises(ValueError):
            FamilySpec(CLASSICAL_GENOCCHI, alpha=2)
        FamilySpec(CLASSICAL_GENOCCHI_HIGHER, alpha=2)

    def test_negative_alpha(self):
        with pytest.raises(ValueError):
            FamilySpec(TYPE1, k=1, alpha=-1)

    @pytest.mark.parametrize(
        "tag, fields",
        [
            (TYPE1, {"k": 1.5}),
            (TYPE1, {"k": 2.0}),
            (TYPE1, {"k": True}),
            (TYPE1, {"k": 1, "alpha": True}),
            (TYPE1, {"k": 1, "alpha": 2.0}),
            (FROBENIUS, {"mu": 0.5}),
            (FROBENIUS, {"mu": True}),
        ],
    )
    def test_integer_and_rational_fields_are_exact(self, tag, fields):
        # a float k once reached the ladder and died in a RecursionError
        with pytest.raises(ConfigError):
            FamilySpec(tag, **fields)

    @pytest.mark.parametrize(
        "spec, changes, error",
        [
            (FamilySpec(TYPE1, k=2), {"tag": "no-such-family"}, ValueError),
            (FamilySpec(TYPE1, k=2), {"k": None}, ValueError),
            (FamilySpec(TYPE1, k=2), {"k": K_MAX + 1}, RangeError),
            (FamilySpec(TYPE1, k=2), {"k": 1.5}, ConfigError),
            (FamilySpec(TYPE1, k=2), {"alpha": -1}, ValueError),
            (FamilySpec(TYPE1, k=2), {"mu": Fraction(2)}, ValueError),
            (FamilySpec(CLASSICAL_GENOCCHI), {"alpha": 2}, ValueError),
            (FamilySpec(FROBENIUS, mu=2), {"mu": Fraction(1)}, SingularDenominator),
            (FamilySpec(FROBENIUS, mu=2), {"mu": 0.5}, ConfigError),
        ],
    )
    def test_a_copy_applies_the_constructor_rules(self, spec, changes, error):
        with pytest.raises(error):
            spec._replace(**changes)

    def test_a_copy_keeps_what_it_does_not_change(self):
        spec = FamilySpec(FROBENIUS, alpha=2, mu=3)
        assert spec.mu == Fraction(3) and type(spec.mu) is Fraction
        assert spec._replace(alpha=3) == FamilySpec(FROBENIUS, alpha=3, mu=3)
        assert spec._replace() == spec
        assert spec != FamilySpec(FROBENIUS, alpha=3, mu=3)
        assert spec != (FROBENIUS, None, 2, Fraction(3))
        assert repr(spec) == (
            "FamilySpec(tag='frobenius-higher', k=None, alpha=2, "
            "mu=Fraction(3, 1))"
        )


class TestClassicalReduction:
    def test_polynomials_match_long_division_oracle(self):
        expected = oracles.genocchi_polynomials(10)
        spec = FamilySpec(TYPE1, k=1, alpha=1)
        got = family_series(spec, CLASSICAL_POINT, 10)
        for n, coeffs in enumerate(expected):
            assert got.polys[n] == Poly(coeffs), f"degree {n}"

    def test_three_routes_agree(self):
        routes = [
            family_series(FamilySpec(TYPE1, k=1, alpha=1), CLASSICAL_POINT, 8),
            family_series(FamilySpec(TYPE2, k=1, alpha=1), CLASSICAL_POINT, 8),
            family_series(FamilySpec(CLASSICAL_GENOCCHI), CLASSICAL_POINT, 8),
            family_series(
                FamilySpec(CLASSICAL_GENOCCHI_HIGHER, alpha=1), CLASSICAL_POINT, 8
            ),
            family_series(FamilySpec(APOSTOL_GENOCCHI), CLASSICAL_POINT, 8),
        ]
        for other in routes[1:]:
            assert routes[0].polys == other.polys

    def test_classical_numbers(self):
        nums = numbers(FamilySpec(CLASSICAL_GENOCCHI), CLASSICAL_POINT, 8)
        assert nums == [0, 1, -1, 0, 1, 0, -3, 0, 17]


class TestKernelOracle:
    """Every kernel away from the classical point, by plain lists."""

    POINTS = (
        GENERIC,
        ParamPoint(Fraction(-1, 3), Fraction(-1, 4), Fraction(3, 2), Fraction(-5, 2)),
    )
    ORDER = 8

    @pytest.mark.parametrize("alpha", [0, 1, 3])
    @pytest.mark.parametrize("k", [-2, 0, 2, 3])
    @pytest.mark.parametrize(
        "tag, oracle",
        [(TYPE1, oracles.type1_kernel), (TYPE2, oracles.type2_kernel)],
    )
    def test_polys_are_kernel_times_exp_x_ln_c(self, tag, oracle, k, alpha):
        for pt in self.POINTS:
            kernel = oracle(pt.lam, pt.ln_a, pt.ln_b, k, alpha, self.ORDER)
            got = family_series(FamilySpec(tag, k=k, alpha=alpha), pt, self.ORDER)
            expected = oracles.family_rows(kernel, pt.ln_c, self.ORDER)
            for n in range(self.ORDER + 1):
                assert list(got.polys[n].coeffs) == expected[n], (pt, n)

    @pytest.mark.parametrize(
        "tag, k",
        [
            (tag, k)
            for tag in ALL_TAGS
            for k in ([-2, 0, 2, 3] if tag in POLY_ORDER_TAGS else [None])
        ],
    )
    def test_every_tag_is_its_quotient_power(self, tag, k):
        # at lam = 1 the Bernoulli-type denominator lam e^t - 1 has
        # valuation one
        for pt in (GENERIC, self.POINTS[1]._replace(lam=Fraction(1))):
            rate = pt.ln_c if tag in LN_C_TAGS else 1
            for alpha in [1] if tag in ORDER_ONE_TAGS else [0, 1, 3]:
                for mu in (
                    [Fraction(1, 2), Fraction(-1), Fraction(3)]
                    if tag == FROBENIUS
                    else [None]
                ):
                    spec = FamilySpec(tag, k=k, alpha=alpha, mu=mu)
                    kernel = oracles.family_kernel(
                        tag, k, alpha, pt.lam, pt.ln_a, pt.ln_b, mu, self.ORDER
                    )
                    got = family_series(spec, pt, self.ORDER).polys
                    expected = oracles.family_rows(kernel, rate, self.ORDER)
                    assert [list(p.coeffs) for p in got] == expected, (
                        pt, alpha, mu,
                    )


class TestRowBuilders:
    """The integer-held rows of family_series against the Fraction Cauchy
    product of the same kernel power with exp(x t rate)."""

    @settings(max_examples=80, deadline=None)
    @given(
        tag=st.sampled_from(ALL_TAGS),
        k=st.integers(-3, 3),
        alpha=st.integers(0, 3),
        mu=st.fractions(min_value=-2, max_value=2, max_denominator=3),
        params=st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=4),
            min_size=4,
            max_size=4,
        ),
        ln_c_zero=st.booleans(),
        order=st.integers(0, 9),
    )
    @example(
        tag=TYPE1, k=-2, alpha=2, mu=Fraction(0),
        params=[Fraction(2), Fraction(1, 2), Fraction(-1, 3), Fraction(3, 2)],
        ln_c_zero=False, order=9,
    )
    @example(
        tag=TYPE2, k=-3, alpha=3, mu=Fraction(0),
        params=[Fraction(-1, 2), Fraction(0), Fraction(3, 4), Fraction(0)],
        ln_c_zero=True, order=9,
    )
    def test_integer_rows_equal_oracle_rows(
        self, tag, k, alpha, mu, params, ln_c_zero, order
    ):
        lam, ln_a, ln_b, ln_c = params
        assume(lam != -1 and ln_a + ln_b != 0 and mu != 1)
        if ln_c_zero:
            ln_c = Fraction(0)
        point = ParamPoint(lam, ln_a, ln_b, ln_c)
        spec = FamilySpec(
            tag,
            k=k if tag in POLY_ORDER_TAGS else None,
            alpha=1 if tag in ORDER_ONE_TAGS else alpha,
            mu=mu if tag == FROBENIUS else None,
        )
        # a lower order first: its rows, built from their own kernel, are
        # a prefix of the higher order's
        low = family_series(spec, point, order // 2).polys
        rows = family_series(spec, point, order)
        kernel = families.kernel_power(spec, point, order, {}).coeffs
        rate = ln_c if tag in LN_C_TAGS else 1
        expected = oracles.family_rows(kernel, rate, order)
        assert [list(p.coeffs) for p in low] == expected[: order // 2 + 1]
        assert [list(p.coeffs) for p in rows.polys] == expected
        assert (rows.spec, rows.params, rows.order) == (spec, point, order)
        if tag in LN_C_TAGS and ln_c == 0:
            assert all(p.degree <= 0 for p in rows.polys)


    @settings(max_examples=100, deadline=None)
    @given(
        order=st.integers(0, 12),
        valuation=st.integers(0, 3),
        coeffs=st.lists(
            st.one_of(
                st.just(Fraction(0)),
                st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12)),
            ),
            min_size=13,
            max_size=13,
        ),
        # p/q with q up to 9; p = 0 gives the rate 0
        rate=st.builds(Fraction, st.integers(-12, 12), st.integers(1, 9)),
    )
    # p^d and v share the factor 2: the cell C(1, 1) (1/2) 2 is 1/1
    @example(
        order=1, valuation=0, coeffs=[Fraction(1, 2)] + [Fraction(0)] * 12,
        rate=Fraction(2),
    )
    # u and q^d share the factor 2: the cell C(1, 1) 2 (1/2) is 1/1
    @example(
        order=1, valuation=0, coeffs=[Fraction(2)] + [Fraction(0)] * 12,
        rate=Fraction(1, 2),
    )
    def test_cells_are_the_reduced_row_coefficients(
        self, order, valuation, coeffs, rate
    ):
        gf = Series(order, ([Fraction(0)] * valuation + coeffs)[: order + 1])
        expected = tuple(
            tuple((c.numerator, c.denominator) for c in p.coeffs)
            for p in families.appell_rows(gf, rate, order)
        )
        assert families.appell_cells(gf, rate, order) == expected


def rows_from(store, spec, point, order):
    """The rows of one instance, from the kernel ``store`` keeps."""
    gf = families.kernel_power(spec, point, order, store)
    return families.appell_rows(gf, families.family_rate(spec, point), order)


def instance(tag, k, alpha, params):
    """A spec of ``tag`` and the point ``params``, with the k, alpha and mu
    the tag takes."""
    return (
        FamilySpec(
            tag,
            k=k if tag in POLY_ORDER_TAGS else None,
            alpha=1 if tag in ORDER_ONE_TAGS else alpha,
            mu=Fraction(1, 2) if tag == FROBENIUS else None,
        ),
        ParamPoint(*params),
    )


class TestKernelCache:
    """A store keeps one kernel per (tag, k, mu, lam, ln a, ln b) and
    order, alpha and ln c not in its key, and the powers of each kernel
    value once."""

    @settings(max_examples=60, deadline=None)
    @given(
        tag=st.sampled_from(ALL_TAGS),
        k=st.integers(-3, 3),
        alpha=st.integers(0, 3),
        params=st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=4),
            min_size=4,
            max_size=4,
        ),
        order=st.integers(0, 8),
        warm=st.lists(
            st.tuples(
                st.integers(0, 3),
                st.fractions(min_value=-3, max_value=3, max_denominator=4),
                st.integers(0, 10),
                st.sampled_from(["lam", "ln_a", None]),
            ),
            max_size=4,
        ),
    )
    # a warm kernel at another ln a, or another lam, of a higher order
    @example(
        tag=TYPE1, k=2, alpha=2,
        params=[Fraction(2), Fraction(1, 2), Fraction(1, 3), Fraction(3, 2)],
        order=6,
        warm=[(1, Fraction(-2), 8, "ln_a"), (3, Fraction(1), 2, None)],
    )
    @example(
        tag=TYPE2, k=-1, alpha=1,
        params=[Fraction(-1, 2), Fraction(0), Fraction(3, 4), Fraction(2)],
        order=5, warm=[(0, Fraction(1, 2), 7, "ln_a")],
    )
    @example(
        tag=APOSTOL_BERNOULLI, k=0, alpha=2,
        params=[Fraction(3), Fraction(1), Fraction(1), Fraction(1)],
        order=5, warm=[(2, Fraction(1), 9, "lam")],
    )
    def test_warm_rows_equal_cold_rows(
        self, tag, k, alpha, params, order, warm
    ):
        lam, ln_a, ln_b, _ = params
        assume(lam != -1 and ln_a + ln_b != 0)
        spec, point = instance(tag, k, alpha, params)
        cold = rows_from({}, spec, point, order)
        store: dict = {}
        for alpha_w, ln_c_w, order_w, shifted in warm:
            # lam + 1 is another kernel for every tag that reads lam,
            # ln a + 1 for type1 and type2 only
            spec_w, point_w = instance(
                tag,
                k,
                alpha_w,
                [
                    lam + (shifted == "lam"),
                    ln_a + (shifted == "ln_a"),
                    ln_b,
                    ln_c_w,
                ],
            )
            try:
                rows_from(store, spec_w, point_w, order_w)
            except SingularDenominator:
                pass
        assert rows_from(store, spec, point, order) == cold
        assert family_series(spec, point, order).polys == cold

    def test_one_type1_kernel_per_alpha_and_ln_c_sweep(self, monkeypatch):
        calls = []
        kernel = families._kernel

        def counted(*args, **kwargs):
            calls.append(args)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(families, "_kernel", counted)
        stores = ({}, {})
        for store in stores:
            for alpha in range(4):
                for ln_c in (Fraction(1), Fraction(1, 2), Fraction(-2)):
                    rows_from(
                        store,
                        FamilySpec(TYPE1, k=2, alpha=alpha),
                        GENERIC._replace(ln_c=ln_c),
                        6,
                    )
        # one per key in each store: a new store builds its own
        assert len(calls) == len(stores)
        # the kernel under what it reads, with neither alpha nor ln c, then
        # K^2 and K^3 under the products that built them: one ps_mul per
        # new alpha
        read = (TYPE1, 2, None, GENERIC.lam, GENERIC.ln_a, GENERIC.ln_b, 6)
        for store in stores:
            [(key, kernel), (square_key, square), (cube_key, cube)] = store.items()
            assert key == (families._kernel, *read)
            assert square_key == (families.ps_mul, kernel, kernel)
            assert cube_key == (families.ps_mul, square, kernel)
            assert cube == families.ps_mul(square, kernel)

    @pytest.mark.parametrize(
        "tag", [TYPE1, TYPE2, APOSTOL_GENOCCHI, APOSTOL_GENOCCHI_HIGHER]
    )
    def test_singular_lambda_raises_at_alpha_zero(self, tag):
        spec, point = instance(tag, 2, 0, [-1, Fraction(1, 2), 1, 2])
        store: dict = {}
        for _ in range(2):
            with pytest.raises(SingularDenominator):
                families.kernel_power(spec, point, 4, store)
            with pytest.raises(SingularDenominator):
                family_series(spec, point, 4)
        assert store == {}

    def test_equal_kernels_share_their_powers(self, monkeypatch):
        # type1 and type2 agree at k = 1: two kernels, one power list
        products = []
        mul = families.ps_mul

        def counted(a, b):
            products.append((a, b))
            return mul(a, b)

        monkeypatch.setattr(families, "ps_mul", counted)
        store: dict = {}
        k1, k2 = (
            families.kernel_power(FamilySpec(tag, k=1, alpha=3), GENERIC, 6, store)
            for tag in (TYPE1, TYPE2)
        )
        assert k1 is k2
        assert len(products) == 2
        assert sum(key[0] is families._kernel for key in store) == 2

    def test_a_new_power_is_one_product_of_stored_ones(self, monkeypatch):
        base = Series.from_egf(6, [Fraction(j * j - 2, j + 1) for j in range(7)])
        products = []
        mul = families.ps_mul

        def counted(a, b):
            products.append((a, b))
            return mul(a, b)

        monkeypatch.setattr(families, "ps_mul", counted)
        store: dict = {}
        square = families.stored_power(base, 2, store)
        # C^2 = C C, a square: ps_mul's a is b path
        [(a, b)] = products
        assert a is base and b is base
        # an equal copy of the base finds the stored C^2
        copy = Series.from_ints(6, *base.ints)
        cube = families.stored_power(copy, 3, store)
        assert len(products) == 2
        a, b = products[1]
        assert a is square and b is copy
        assert cube == mul(mul(base, base), base)
        assert families.stored_power(copy, 0, store) == Series.one(6)
        assert families.stored_power(copy, 2, store) is square
        assert len(products) == 2
        # each power is kept under the product that built it
        assert store == {
            (counted, base, base): square,
            (counted, square, base): cube,
        }

    @pytest.mark.parametrize("k", [-3, -1])
    def test_from_zero_shares_the_kernel_below_k_zero(self, k):
        # the m = 0 polylog term is 0 for k < 0: the printed kernel is the
        # from-zero kernel too, and one kernel serves every alpha
        point = ParamPoint(2, Fraction(1, 2), 1, 2)
        store: dict = {}
        for alpha in (1, 2):
            spec = FamilySpec(TYPE1, k=k, alpha=alpha)
            got = families.kernel_power(spec, point, 5, store)
            assert list(got.coeffs) == oracles.type1_kernel(
                point.lam, point.ln_a, point.ln_b, k, alpha, 5, from_zero=True
            )
        assert sum(key[0] is families._kernel for key in store) == 1

    def test_from_zero_keeps_its_own_kernel_at_k_zero(self):
        # at k = 0 the m = 0 term is 1: the from-zero K_0 is the printed
        # K_0 plus 1/(e^{-t ln a} + lam e^{t ln b}), a kernel of its own
        point = ParamPoint(2, Fraction(1, 2), 1, 2)
        store: dict = {}
        plain = families.kernel_power(FamilySpec(TYPE1, k=0), point, 5, store)
        from_zero = plain + verifier._m_zero_term(point, 5)
        assert from_zero != plain
        args = (point.lam, point.ln_a, point.ln_b, 0, 1, 5)
        assert list(plain.coeffs) == oracles.type1_kernel(*args)
        assert list(from_zero.coeffs) == oracles.type1_kernel(
            *args, from_zero=True
        )


class TestKanekoPolyBernoulli:
    """apostol-poly-bernoulli-t1 at the classical point (lam = 1), read at
    x = 1, is Kaneko's poly-Bernoulli B_n^{(k)}: its kernel
    Li_k(1 - e^{-t})/(e^t - 1) times e^t is Kaneko's generating function
    Li_k(1 - e^{-t})/(1 - e^{-t}) (M. Kaneko, J. Theor. Nombres Bordeaux
    9 (1997) 221-228).  This anchors the r = 1 ladder to published
    values."""

    N = 8

    def values(self, k):
        """B_0^{(k)} .. B_N^{(k)} from the library's rows."""
        expansion = family_series(
            FamilySpec(BERNOULLI_T1, k=k), CLASSICAL_POINT, self.N
        )
        return [p.evaluate(1) for p in expansion.polys]

    def test_negative_index_closed_form(self):
        for k in range(self.N + 1):
            assert self.values(-k) == [
                oracles.kaneko_poly_bernoulli(n, k) for n in range(self.N + 1)
            ], k

    def test_duality(self):
        # B_n^{(-k)} = B_k^{(-n)}
        table = [self.values(-k) for k in range(self.N + 1)]
        for n in range(self.N + 1):
            for k in range(self.N + 1):
                assert table[k][n] == table[n][k], (n, k)

    def test_closed_form_small_values(self):
        # Kaneko's table: B_n^{(-2)} = 1, 4, 14, 46, 146, 454
        assert [oracles.kaneko_poly_bernoulli(n, 2) for n in range(6)] == [
            1, 4, 14, 46, 146, 454,
        ]

    def test_weight_one_is_bernoulli_with_plus_half(self):
        assert self.values(1)[:5] == [
            1, Fraction(1, 2), Fraction(1, 6), 0, Fraction(-1, 30),
        ]


class TestKnownSequences:
    def test_bernoulli_numbers(self):
        point = ParamPoint(Fraction(1), Fraction(0), Fraction(1), Fraction(1))
        nums = numbers(FamilySpec(APOSTOL_BERNOULLI, alpha=1), point, 6)
        assert nums == [
            1,
            Fraction(-1, 2),
            Fraction(1, 6),
            0,
            Fraction(-1, 30),
            0,
            Fraction(1, 42),
        ]

    def test_euler_polynomials_from_frobenius(self):
        spec = FamilySpec(FROBENIUS, alpha=1, mu=Fraction(-1))
        got = family_series(spec, CLASSICAL_POINT, 3)
        assert got.polys[0] == Poly((1,))
        assert got.polys[1] == Poly((Fraction(-1, 2), 1))
        assert got.polys[2] == Poly((0, -1, 1))
        assert got.polys[3] == Poly((Fraction(1, 4), 0, Fraction(-3, 2), 1))

    def test_apostol_genocchi_lam_two(self):
        point = ParamPoint(Fraction(2), Fraction(0), Fraction(1), Fraction(1))
        nums = numbers(FamilySpec(APOSTOL_GENOCCHI), point, 3)
        # 2t/(2e^t + 1): direct division oracle
        den = oracles.exp_coeffs(1, 3)
        den = [2 * c for c in den]
        den[0] += 1
        kernel = oracles.divide([Fraction(0), Fraction(2)], den, 3)
        assert nums == [kernel[n] * factorial(n) for n in range(4)]

    def test_higher_order_bernoulli_t2_at_k1(self):
        # both Bernoulli-type kernels coincide at weight one
        a = family_series(FamilySpec(BERNOULLI_T1, k=1, alpha=2), GENERIC, 6)
        b = family_series(FamilySpec(BERNOULLI_T2, k=1, alpha=2), GENERIC, 6)
        assert a.polys == b.polys


class TestStructure:
    @pytest.mark.parametrize("tag", [TYPE1, TYPE2])
    @pytest.mark.parametrize("alpha", [0, 1, 2, 3])
    def test_leading_zeros_match_alpha(self, tag, alpha):
        spec = FamilySpec(tag, k=2, alpha=alpha)
        got = family_series(spec, GENERIC, 6)
        for n in range(alpha):
            assert got.polys[n].degree < 0
        assert got.polys[alpha].degree >= 0

    def test_degrees_bounded(self):
        spec = FamilySpec(TYPE1, k=-2, alpha=2)
        got = family_series(spec, GENERIC, 8)
        for n, p in enumerate(got.polys):
            assert p.degree <= n

    def test_numbers_ignore_ln_c(self):
        spec = FamilySpec(TYPE2, k=2, alpha=1)
        a = numbers(spec, GENERIC, 6)
        b = numbers(spec, GENERIC._replace(ln_c=Fraction(7)), 6)
        assert a == b

    @pytest.mark.parametrize("tag", ALL_TAGS)
    def test_numbers_are_the_kernel_at_every_rate(self, tag):
        # the family is Appell: sum_n P_n(0) t^n/n! is K^alpha at any rate,
        # so a right side may take the kernel for the numbers of its rows
        order = 6
        mu = Fraction(1, 2) if tag == FROBENIUS else None
        for k in [-1, 2] if tag in POLY_ORDER_TAGS else [None]:
            for alpha in [1] if tag in ORDER_ONE_TAGS else [0, 1, 2]:
                spec = FamilySpec(tag, k=k, alpha=alpha, mu=mu)
                kernel = kernel_power(spec, GENERIC, order, {})
                for rate in (0, 1, Fraction(-2, 3), GENERIC.ln_c):
                    rows = appell_rows(kernel, Fraction(rate), order)
                    numbers = [p.coefficient(0) for p in rows]
                    assert numbers == list(kernel.egf), (k, alpha, rate)

    def test_an_expansion_copies_and_pickles(self):
        got = family_series(FamilySpec(TYPE1, k=-1, alpha=2), GENERIC, 5)
        for copied in (
            copy.copy(got), copy.deepcopy(got), pickle.loads(pickle.dumps(got))
        ):
            assert copied == got
            assert [p.ints for p in copied.polys] == [p.ints for p in got.polys]

    def test_lower_order_member_consistent(self):
        spec = FamilySpec(TYPE1, k=2, alpha=2)
        full = family_series(spec, GENERIC, 7)
        assert family_series(spec, GENERIC, 5).polys[5] == full.polys[5]

    def test_appell_expansion_is_a_binomial_convolution(self):
        spec = FamilySpec(TYPE1, k=1, alpha=1)
        nums = numbers(spec, CLASSICAL_POINT, 4)
        powers = [Poly((0,) * m + (1,)) for m in range(5)]
        poly = binomial_convolution(Series.from_egf(4, nums), powers)[4]
        # sum_i C(4,i) nums[i] x^{4-i} written out directly
        direct = [Fraction(0)] * 5
        for i in range(5):
            weight = Fraction(factorial(4), factorial(i) * factorial(4 - i))
            direct[4 - i] += weight * nums[i]
        assert poly == Poly(direct)

    def test_singular_lambda(self):
        with pytest.raises(SingularDenominator):
            family_series(
                FamilySpec(APOSTOL_GENOCCHI),
                ParamPoint(Fraction(-1), Fraction(0), Fraction(1), Fraction(1)),
                4,
            )


def expansion_from_dict(data: dict) -> FamilyExpansion:
    """The inverse of ``test_cli.expansion_to_dict``."""
    spec = FamilySpec(
        tag=data["family"],
        k=data["k"],
        alpha=data["alpha"],
        mu=None if data["mu"] is None else Fraction(data["mu"]),
    )
    point = ParamPoint(
        *(Fraction(data[name]) for name in ("lam", "ln_a", "ln_b", "ln_c"))
    )
    polys = tuple(Poly(Fraction(c) for c in row) for row in data["polynomials"])
    return FamilyExpansion(spec, point, data["order"], polys)


class TestRoundTrip:
    def test_json_round_trip(self):
        spec = FamilySpec(TYPE2, k=-1, alpha=2)
        expansion = family_series(spec, GENERIC, 5)
        payload = expansion_to_dict(expansion)
        back = expansion_from_dict(payload)
        assert back == expansion

    def test_lower_order_request_is_a_prefix(self):
        spec = FamilySpec(TYPE1, k=3, alpha=2)
        point = ParamPoint(
            Fraction(3), Fraction(1, 5), Fraction(2, 7), Fraction(-4, 3)
        )
        full = family_series(spec, point, 9)
        for m in (0, 4, 9):
            low = family_series(spec, point, m)
            assert low.order == m
            assert low.polys == full.polys[: m + 1]
            assert expansion_from_dict(expansion_to_dict(low)) == low

    def test_dict_is_json_safe(self):
        import json

        spec = FamilySpec(FROBENIUS, alpha=2, mu=Fraction(1, 3))
        expansion = family_series(spec, CLASSICAL_POINT, 4)
        text = json.dumps(expansion_to_dict(expansion))
        assert expansion_from_dict(json.loads(text)) == expansion


class TestSymmetrized:
    """The oracle S_n^{(m,alpha)} of ``oracles.symmetrized_S``, assembled
    from plain-list kernels, against the library's type-1 members."""

    def test_zero_order_matches_family(self):
        # m = 0 collapses to the plain family member rescaled by ln(ab)^n
        pt, n = GENERIC, 3
        member = family_series(FamilySpec(TYPE1, k=0, alpha=1), pt, n).polys[n]
        got = oracles.symmetrized_S(
            0, n, 1, pt.lam, pt.ln_a, pt.ln_b, pt.ln_c, Fraction(0)
        )
        assert Poly(got) == member * (Fraction(1) / pt.ln_ab**n)

    def test_first_order_assembly(self):
        # S_n^{(1,a)} = P_n^{(0,a)}/ln(ab)^n * w + P_n^{(-1,a)}/ln(ab)^n
        pt = GENERIC
        n, alpha, y0 = 3, 2, Fraction(1, 3)
        lab = pt.ln_ab
        w = (y0 * pt.ln_c + alpha * pt.ln_a) / lab
        p0 = family_series(FamilySpec(TYPE1, k=0, alpha=alpha), pt, n).polys[n]
        p1 = family_series(FamilySpec(TYPE1, k=-1, alpha=alpha), pt, n).polys[n]
        expected = p0 * (w / lab**n) + p1 * (Fraction(1) / lab**n)
        got = oracles.symmetrized_S(
            1, n, alpha, pt.lam, pt.ln_a, pt.ln_b, pt.ln_c, y0
        )
        assert Poly(got) == expected


class TestDoubleGf:
    @settings(max_examples=60, deadline=None)
    @given(
        nt=st.integers(0, 4),
        nu=st.integers(0, 4),
        params=st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=4),
            min_size=6,
            max_size=6,
        ),
    )
    def test_denominator_times_rows_is_numerator(self, nt, nu, params):
        lam, ln_a, ln_b, ln_c, x, y = params
        assume(lam != -1 and ln_a + ln_b != 0)
        rows = double_gf_rhs(ParamPoint(lam, ln_a, ln_b, ln_c), x, y, (nt, nu))
        assert len(rows) == nt + 1
        assert all(row.order == nu for row in rows)
        numer, den = oracles.double_gf_grids(
            1, lam, ln_a, ln_b, ln_c, x, y, nt, nu
        )
        grid = [list(row.coeffs) for row in rows]
        assert oracles.bivariate_convolve(den, grid, nt, nu) == numer

    @pytest.mark.parametrize(
        "point",
        [
            ParamPoint(*map(Fraction, (-1, 1, 2, 1))),  # lam = -1
            ParamPoint(*map(Fraction, (2, 1, -1, 1))),  # ln a + ln b = 0
        ],
    )
    def test_singular_points(self, point):
        with pytest.raises(SingularDenominator):
            double_gf_rhs(point, Fraction(0), Fraction(0), (2, 2))

    @pytest.mark.parametrize(
        "x, y", [(0.1, Fraction(0)), (Fraction(0), 0.2), (True, 0)]
    )
    def test_float_arguments_are_rejected(self, x, y):
        with pytest.raises(ConfigError, match="int or Fraction"):
            double_gf_rhs(CLASSICAL_POINT, x, y, (1, 1))

    def test_int_arguments_are_their_fractions(self):
        assert double_gf_rhs(GENERIC, 1, -2, (3, 3)) == double_gf_rhs(
            GENERIC, Fraction(1), Fraction(-2), (3, 3)
        )
