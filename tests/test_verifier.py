"""Verifier behavior: statuses, variant notes, fault injection, config."""

import importlib
import inspect
import pkgutil
import sys
from fractions import Fraction
from math import factorial
from types import CodeType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polygenocchi
from polygenocchi import (
    CLASSICAL_POINT,
    K_MAX,
    CheckConfig,
    FamilySpec,
    ParamPoint,
    SUITES,
    TYPE1,
    TYPE2,
    default_config,
    default_samples,
    run_suite,
    stirling_weights,
)
from polygenocchi import cli, families, verifier
from polygenocchi.errors import ConfigError
from polygenocchi.families import appell_rows, stored_power
from polygenocchi.series import Poly, Series, poly_lincomb
from polygenocchi.verifier import (
    CHECKS,
    REGISTRY,
    Mismatch,
    _compare,
    _factorial_rows,
    _BasisInstance,
    _Form,
    _Identity,
    _Instance,
    _run_parts,
    _symmetrized,
)

import oracles
from faults import injected, perturb


def small_config(order=6):
    return CheckConfig(
        order=order,
        samples=default_samples(0)[:3],
        k_range=(-1, 1, 2),
        alpha_range=(0, 1, 2),
        s_range=(1, 2),
    )


CFG = small_config()
# small-height rationals, 0 and 1 among them
SMALL = st.fractions(min_value=-2, max_value=2, max_denominator=3)
ZERO_ONE = st.sampled_from([Fraction(0), Fraction(1)])


class TestConfig:
    def test_default_samples_are_deterministic(self):
        assert default_samples(7) == default_samples(7)
        assert default_samples(1) != default_samples(2)

    def test_default_samples_cover_degenerate_cases(self):
        pts = default_samples(0)
        assert len(pts) == 5
        assert any(pt.lam == 0 for pt in pts)
        assert any(pt.ln_c == 0 for pt in pts)
        assert any(pt.lam == 1 and pt.ln_c == 1 for pt in pts)

    # a CheckConfig is valid by construction: _replace() builds a new one
    def test_order_must_be_positive(self):
        with pytest.raises(ConfigError):
            default_config()._replace(order=0)

    def test_samples_required(self):
        # samples has no default: a missing one is a constructor error, an
        # empty one a grid error
        with pytest.raises(TypeError, match="samples"):
            CheckConfig(order=4)
        with pytest.raises(ConfigError, match="samples"):
            CheckConfig(order=4, samples=())

    def test_singular_sample_rejected(self):
        bad = ParamPoint(Fraction(-1), Fraction(0), Fraction(1), Fraction(1))
        with pytest.raises(ConfigError):
            default_config()._replace(samples=(bad,))
        flat = ParamPoint(Fraction(2), Fraction(1), Fraction(-1), Fraction(1))
        with pytest.raises(ConfigError):
            default_config()._replace(samples=(flat,))
        with pytest.raises(ConfigError):
            default_config()._replace(samples=(("1", "0", "1", "1"),))

    def test_weight_bound_enforced(self):
        with pytest.raises(ConfigError):
            default_config()._replace(k_range=(99,))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("order", True),
            ("k_range", (True,)),
            ("k_range", (1.0,)),
            ("alpha_range", (False,)),
            ("alpha_range", ("2",)),
            ("s_range", (True,)),
            ("s_range", (2.0,)),
        ],
    )
    def test_integer_fields_reject_non_integers(self, field, value):
        with pytest.raises(ConfigError, match="integer"):
            default_config()._replace(**{field: value})

    @pytest.mark.parametrize("value", [True, 1.0, "0", [1]])
    def test_seed_must_be_an_integer(self, value):
        with pytest.raises(ConfigError, match="integer"):
            default_config()._replace(seed=value)
        with pytest.raises(ConfigError, match="integer"):
            default_config(seed=value)

    @pytest.mark.parametrize("field", ["mu_samples", "x_samples", "y_samples"])
    @pytest.mark.parametrize("value", [0.25, True])
    def test_rational_fields_reject_floats_and_bools(self, field, value):
        with pytest.raises(ConfigError, match="Fraction"):
            default_config()._replace(**{field: (Fraction(1, 3), value)})

    def test_rational_fields_are_stored_as_fractions(self):
        cfg = default_config()._replace(x_samples=(2, Fraction(1, 2)))
        assert all(type(x) is Fraction for x in cfg.x_samples)
        assert cfg.x_samples == (Fraction(2), Fraction(1, 2))

    @pytest.mark.parametrize(
        "changes",
        [
            {"order": 0},
            {"seed": 1.0},
            {"samples": CLASSICAL_POINT},
            {"samples": (ParamPoint(-1, 0, 1, 1),)},
            {"k_range": [K_MAX + 1]},
            {"mu_samples": (Fraction(1),)},
            {"y_samples": (0.5,)},
        ],
    )
    def test_a_copy_applies_the_constructor_rules(self, changes):
        # _replace builds through the constructor: no copy skips a rule
        with pytest.raises(ConfigError):
            CFG._replace(**changes)

    def test_a_copy_keeps_what_it_does_not_change(self):
        cfg = CFG._replace(k_range=[2, 1], y_samples=[1])
        assert cfg.k_range == (2, 1) and cfg.y_samples == (Fraction(1),)
        assert cfg._replace(k_range=CFG.k_range, y_samples=CFG.y_samples) == CFG
        assert cfg != CFG and hash(CFG._replace()) == hash(CFG)
        assert repr(SMALLEST) == (
            "CheckConfig(order=1, samples=(ParamPoint(lam=Fraction(1, 1), "
            "ln_a=Fraction(0, 1), ln_b=Fraction(1, 1), ln_c=Fraction(1, 1)),), "
            "k_range=(1,), alpha_range=(1,), s_range=(1,), "
            "mu_samples=(Fraction(-1, 1),), x_samples=(Fraction(0, 1),), "
            "y_samples=(Fraction(0, 1),), seed=0)"
        )

    def test_float_grid_is_rejected_and_its_rational_twin_passes(self):
        # a float y times a Fraction ln c is a float: the identities that
        # pass at these values as Fractions would report fail
        floats = {
            "x_samples": (0.1, 0.2),
            "y_samples": (0.3, 0.5),
            "mu_samples": (0.25,),
        }
        with pytest.raises(ConfigError):
            default_config(4)._replace(**floats)
        exact = default_config(4)._replace(
            **{
                field: tuple(Fraction(str(v)) for v in values)
                for field, values in floats.items()
            },
        )
        for check_id in ("appell", "explicit-formulas", "symmetrized-gf"):
            assert REGISTRY[check_id](exact).status != "fail"

    def test_mu_one_rejected(self):
        with pytest.raises(ConfigError):
            default_config()._replace(mu_samples=(Fraction(1),))

    def test_unknown_suite(self):
        with pytest.raises(ConfigError):
            run_suite(default_config(order=2), "no-such-suite")


class TestPassingChecks:
    @pytest.mark.parametrize(
        "check_id", ["shift-recurrence", "expansion-in-numbers", "appell"]
    )
    def test_passes_as_printed(self, check_id):
        result = REGISTRY[check_id](CFG)
        assert result.status == "pass"
        assert result.variant_note is None
        assert result.first_mismatch is None

    @pytest.mark.parametrize("which", [1, 2])
    def test_base_reduction(self, which):
        assert REGISTRY[f"base-reduction-type{which}"](CFG).status == "pass"

    @pytest.mark.parametrize("which", [1, 2])
    def test_bernoulli(self, which):
        assert REGISTRY[f"bernoulli-type{which}"](CFG).status == "pass"

    def test_stirling_type2_passes_as_printed(self):
        assert REGISTRY["stirling-type2"](CFG).status == "pass"


class TestVariantResolution:
    def test_stirling_type1_resolves_to_orientation(self):
        result = REGISTRY["stirling-type1"](CFG)
        assert result.status == "resolved-variant"
        assert result.variant_note.startswith("resolved to variant:")
        assert "definition orientation" in result.variant_note
        assert "multiple" not in result.variant_note
        assert result.first_mismatch is not None

    def test_explicit_formulas_resolutions(self):
        result = REGISTRY["explicit-formulas"](CFG)
        assert result.status == "resolved-variant"
        note = result.variant_note
        assert "bernoulli-order-s: resolved to variant: " in note
        assert "order-s Bernoulli factor taken at lam = 1" in note
        assert "frobenius-order-s: resolved to variant: " in note
        assert "Frobenius argument x ln c" in note
        assert "rising-factorial" not in note
        assert "falling-factorial" not in note

    def test_symmetrized_resolves_to_from_zero(self):
        result = REGISTRY["symmetrized-gf"](small_config(5))
        assert result.status == "resolved-variant"
        assert "polylog sum started at m = 0" in result.variant_note

    def test_symmetrized_resolves_at_order_16(self):
        # the (t, u) grid is min(order, K_MAX) = 16 deep here
        result = REGISTRY["symmetrized-gf"](default_config(16))
        assert result.status == "resolved-variant"
        assert "polylog sum started at m = 0" in result.variant_note
        assert result.first_mismatch == Mismatch(0, 0, "0", "1/2")

    def test_remark_mirrors_type1_resolutions(self):
        result = REGISTRY["remark-type2"](CFG)
        assert result.status == "resolved-variant"
        assert "order-s Bernoulli factor taken at lam = 1" in result.variant_note
        assert "Frobenius argument x ln c" in result.variant_note


class TestSymmetrizedRows:
    @pytest.mark.parametrize("from_zero", [False, True])
    @pytest.mark.parametrize(
        "pt",
        [
            ParamPoint(Fraction(2), Fraction(1, 2), Fraction(1, 3), Fraction(2)),
            CLASSICAL_POINT,
        ],
    )
    def test_left_side_rows_are_the_printed_S(self, pt, from_zero):
        # row n, u^m coefficient: S_n^{(m,1)}(x0, y0) / (n! m!)
        cfg = small_config(5)._replace(samples=(pt,))
        inst = _Instance(cfg, pt, None, {})
        cases = list(_symmetrized(from_zero)(inst))
        points = [(x0, y0) for x0 in cfg.x_samples[:2] for y0 in cfg.y_samples[:2]]
        assert len(cases) == len(points)
        order = cfg.order
        printed = {
            (y0, n, m): oracles.symmetrized_S(
                m, n, 1, pt.lam, pt.ln_a, pt.ln_b, pt.ln_c, y0, from_zero
            )
            for y0 in cfg.y_samples[:2]
            for n in range(order + 1)
            for m in range(order + 1)
        }
        for (lhs, _), (x0, y0) in zip(cases, points):
            assert len(lhs) == order + 1
            for n, row in enumerate(lhs):
                assert row.order == order
                for m in range(order + 1):
                    s = printed[y0, n, m]
                    value = sum((c * x0**d for d, c in enumerate(s)), Fraction(0))
                    expected = value / (factorial(n) * factorial(m))
                    assert row.coefficient(m) == expected, (x0, y0, n, m)

    def test_the_m_zero_variant_changes_k0_alone(self):
        # the m = 0 polylog term z^0/0^k is 1 at k = 0 and 0 below: the
        # variant reads the printed form's kernels and builds none, and
        # adds 1/(e^{-t ln a} + lam e^{t ln b}) to K_0 alone
        order = 6
        for pt in (
            ParamPoint(Fraction(2), Fraction(1, 2), Fraction(1, 3), Fraction(2)),
            CLASSICAL_POINT,
        ):
            store: dict = {}
            inst = _Instance(small_config(order)._replace(samples=(pt,)), pt, None, store)

            def kernel_keys():
                return {key for key in store if key[0] is families._kernel}

            list(_symmetrized(False)(inst))
            printed = kernel_keys()
            assert len(printed) == order + 1
            list(_symmetrized(True)(inst))
            assert kernel_keys() == printed
            for k in (0, -1, -3):
                kernel = families.kernel_power(FamilySpec(TYPE1, k=k), pt, order, store)
                if k == 0:
                    kernel = kernel + verifier._m_zero_term(pt, order)
                assert list(kernel.coeffs) == oracles.type1_kernel(
                    pt.lam, pt.ln_a, pt.ln_b, k, 1, order, from_zero=True
                ), (pt, k)

    def test_every_expansion_is_requested_at_the_config_order(self, monkeypatch):
        orders = {}

        def recorder(name):
            original = getattr(verifier, name)

            def recorded(spec, point, order, *args, **kwargs):
                orders.setdefault(name, []).append(order)
                return original(spec, point, order, *args, **kwargs)

            return recorded

        for name in ("appell_rows", "kernel_power"):
            monkeypatch.setattr(verifier, name, recorder(name))
        cfg = small_config(4)
        run_suite(cfg, "all")
        assert sorted(orders) == ["appell_rows", "kernel_power"]
        assert {o for seen in orders.values() for o in seen} == {cfg.order}


class TestStirlingHelpers:
    # the Stirling check's d_j are the egf coefficients of D = C^alpha,
    # ``stored_power`` of the weight series C
    def test_alpha_one_convolution_is_identity(self):
        c = tuple(Fraction(i * i - 3, i + 1) for i in range(9))
        assert stored_power(Series.from_egf(8, c), 1, {}).egf == c

    def test_alpha_zero_is_delta(self):
        c = tuple(Fraction(i + 1) for i in range(5))
        d = stored_power(Series.from_egf(4, c), 0, {}).egf
        assert d == (1, 0, 0, 0, 0)

    @given(
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=8).flatmap(
            lambda jmax: st.lists(
                st.fractions(min_value=-5, max_value=5, max_denominator=7),
                min_size=jmax + 1,
                max_size=jmax + 1,
            )
        ),
    )
    def test_convolution_matches_compositions_sum(self, alpha, c):
        jmax = len(c) - 1
        expected = oracles.stirling_convolution(c, alpha, jmax)
        assert stored_power(Series.from_egf(jmax, c), alpha, {}).egf == expected

    def test_oriented_weights_collapse_at_weight_one(self):
        # the m! (m+1)^{1-k} weights cancel at k = 1, at every rate the
        # oriented form uses on the default grid: -2 ln ab at each point
        cfg = default_config()
        rates = {Fraction(-2)} | {-2 * pt.ln_ab for pt in cfg.samples}
        for rate in rates:
            w = stirling_weights(1, 1, rate, cfg.order, oriented=True)
            assert w[0] == 1, rate
            assert all(v == 0 for v in w[1:]), rate

    def test_printed_type2_weights_weight_one(self):
        # e_1(log(1+w)) = w pins c_0 = 1, c_j = 0 for the type-2 kernel too
        w = stirling_weights(2, 1, Fraction(2), 6)
        assert w[0] == 1
        assert all(v == 0 for v in w[1:])

    @pytest.mark.parametrize("k", range(-K_MAX, K_MAX + 1))
    def test_weights_match_the_printed_double_sum(self, k):
        # every (rate, oriented) the Stirling forms use: printed, power
        # flip, definition orientation; type 2 ignores ``oriented``
        for which in (1, 2):
            for lab in (Fraction(3, 2), Fraction(-2, 5)):
                forms = ((2 * lab, False), (-2 * lab, False), (-2 * lab, True))
                for rate, oriented in forms:
                    expected = oracles.stirling_weights(which, k, rate, 10, oriented)
                    for jmax in range(11):
                        got = stirling_weights(which, k, rate, jmax, oriented)
                        assert got == expected[: jmax + 1]


class TestFactorialRows:
    @given(
        st.booleans(),
        st.fractions(min_value=-3, max_value=3, max_denominator=5),
        st.integers(min_value=0, max_value=10),
    )
    @example(True, Fraction(0), 10)
    @example(False, Fraction(0), 10)
    @example(True, Fraction(-2), 10)
    @example(False, Fraction(-7, 3), 10)
    def test_rows_are_powers_of_x_ln_c(self, rising, ln_c, order):
        rows = _factorial_rows(rising, ln_c, order)
        assert len(rows) == order + 1
        for r, row in enumerate(rows):
            expected = [Fraction(0)] * r + [ln_c**r]
            while expected and expected[-1] == 0:
                expected.pop()
            assert list(row.coeffs) == expected

    def test_rows_carry_the_printed_stirling_weights(self, monkeypatch):
        original = verifier.stirling2

        def bumped(l, m):
            return original(l, m) + (1 if (l, m) == (2, 2) else 0)

        monkeypatch.setattr(verifier, "stirling2", bumped)
        formulas = [identity for identity, _ in CHECKS["explicit-formulas"][1]]
        for tag in (TYPE1, TYPE2):
            statuses = {
                r.check_id: r.status
                for r in _run_parts([(f, tag) for f in formulas], CFG)
            }
            assert statuses["rising-factorial"] == "fail"
            assert statuses["falling-factorial"] == "fail"


class TestCompare:
    def test_equal_shapes_give_first_mismatch(self):
        lhs = [Poly((1,)), Poly((0, 2, 3))]
        assert _compare(lhs, list(lhs)) is None
        got = _compare(lhs, [Poly((1,)), Poly((0, 2, 4))])
        assert got == Mismatch(1, 2, "3", "4")

    @pytest.mark.parametrize("lhs, rhs", [
        ([Poly((1,))], []),
        ([], [Poly((1,))]),
        ([Poly((1,)), Poly((2,))], [Poly((1,))]),
    ])
    def test_sides_of_different_lengths_raise(self, lhs, rhs):
        # a shorter side would otherwise compare only the common prefix
        with pytest.raises(ValueError):
            _compare(lhs, rhs)

    def test_bivariate_sides_of_different_orders_raise(self):
        # (t, u) sides are rows of u-series: a t-order or u-order mismatch
        # is a shape fault, even behind a row whose values differ
        rows = [Series.zero(2), Series.zero(2)]
        with pytest.raises(ValueError):
            _compare(rows + [Series.zero(2)], rows)
        with pytest.raises(ValueError):
            _compare(rows, [Series.zero(3), Series.zero(3)])
        with pytest.raises(ValueError):
            _compare(rows, [Series(2, (1,)), Series.zero(3)])
        assert _compare(rows, list(rows)) is None
        got = _compare(rows, [Series.zero(2), Series(2, (0, 0, 5))])
        assert got == Mismatch(1, 2, "0", "5")


# rate and oriented flag of each Stirling form, in form order: printed,
# power sign flip, definition orientation (type 1 only)
STIRLING_FORMS = ((2, False), (-2, False), (-2, True))


class TestPrintedRightSides:
    # the base-reduction, Bernoulli and Stirling forms build their right
    # sides as generating functions; their rows must be the printed sums,
    # evaluated term by term in plain Fractions
    @pytest.mark.parametrize("which", [1, 2])
    @pytest.mark.parametrize("pt", [default_samples(0)[i] for i in (0, 2, 4)])
    def test_rows_are_the_printed_right_sides(self, which, pt):
        order = 6
        cfg = small_config(order)._replace(samples=(pt,))
        tag = TYPE1 if which == 1 else TYPE2
        base, bernoulli, stirling = (
            IDENTITIES[f"{name}-type{which}"]
            for name in ("base-reduction", "bernoulli", "stirling")
        )
        assert len(stirling.forms) == (3 if which == 1 else 2)
        for k in (-1, 0, 2):
            for alpha in (0, 1, 3):
                inst = _Instance(cfg, pt, FamilySpec(tag, k=k, alpha=alpha), {})
                args = (which, k, alpha, pt.lam, pt.ln_a, pt.ln_b, pt.ln_c, order)
                expected = [
                    (base.forms[0], oracles.printed_base_reduction(*args)),
                    (bernoulli.forms[0], oracles.printed_bernoulli(*args)),
                ]
                for form, (sign, oriented) in zip(stirling.forms, STIRLING_FORMS):
                    rate = sign * pt.ln_ab
                    expected.append(
                        (form, oracles.printed_stirling(*args, rate, oriented))
                    )
                for form, printed in expected:
                    [(lhs, rhs)] = form.cases(inst)
                    assert appell_rows(lhs, pt.ln_c, order) == inst.polys
                    got = [list(p.coeffs) for p in appell_rows(rhs, pt.ln_c, order)]
                    assert got == printed, (form.note, k, alpha)


coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=7)


class TestKernelSides:
    # a kernel side G stands for its rows n! [t^n] G(t) e^{x t rate}: its
    # witness and its fault must be those of the rows, at every rate
    @given(
        st.integers(min_value=0, max_value=8).flatmap(
            lambda order: st.tuples(
                st.lists(coefficients, min_size=order + 1, max_size=order + 1),
                st.lists(coefficients, min_size=order + 1, max_size=order + 1),
                st.integers(min_value=1, max_value=order + 1),
            )
        ),
        st.fractions(min_value=-3, max_value=3, max_denominator=5),
    )
    @example(([1, 2, 3], [1, 2, 4], 1), Fraction(0))
    @example(([1, 2, 3], [0, 0, 0], 3), Fraction(-2))
    @example(([Fraction(1, 2)], [0], 1), Fraction(0))
    def test_witness_and_fault_are_those_of_the_rows(self, drawn, rate):
        a, tail, start = drawn
        order = len(a) - 1
        # the first difference lies past t^0, at start or later, or nowhere
        lhs, rhs = Series(order, a), Series(order, a[:start] + tail[start:])
        lhs_rows, rhs_rows = (appell_rows(g, rate, order) for g in (lhs, rhs))
        assert _compare(lhs, rhs) == _compare(lhs_rows, rhs_rows)
        assert _compare(lhs, perturb(rhs)) == _compare(lhs_rows, perturb(rhs_rows))
        assert appell_rows(perturb(rhs), rate, order)[0] == perturb(rhs_rows)[0]

    def test_kernels_of_different_orders_raise(self):
        with pytest.raises(ValueError):
            _compare(Series.one(2), Series.one(3))


class TestFaultInjection:
    # ``faults.injected`` perturbs the right side of every comparison
    @pytest.mark.parametrize("check_id", sorted(REGISTRY))
    def test_every_check_can_fail(self, check_id):
        cfg = small_config(4)
        with injected():
            result = REGISTRY[check_id](cfg)
        assert result.status == "fail"
        assert result.first_mismatch is not None
        assert result.first_mismatch.lhs != result.first_mismatch.rhs

    @pytest.mark.parametrize(
        "check_id, index",
        [
            (check_id, index)
            for check_id in ("appell", "explicit-formulas", "remark-type2")
            for index in range(len(CHECKS[check_id][1]))
        ],
    )
    def test_every_sub_identity_can_fail(self, check_id, index):
        part = CHECKS[check_id][1][index]
        with injected():
            [result] = _run_parts([part], small_config(4))
        assert result.status == "fail"
        assert result.first_mismatch is not None
        assert result.first_mismatch.lhs != result.first_mismatch.rhs

    def test_clean_run_after_injected_run_passes(self):
        # a perturbed right-hand side must not leak into shared expansions
        # or into lists hoisted out of the case loops
        small = CheckConfig(
            order=4,
            samples=default_samples(0)[:2],
            k_range=(1, 2),
            alpha_range=(1,),
        )
        with injected():
            faulty = run_suite(small, "all")
        assert all(r.status == "fail" for r in faulty.results)
        clean = run_suite(small, "all")
        assert clean.overall == "pass"
        assert all(r.status != "fail" for r in clean.results)

    @pytest.mark.parametrize("check_id", sorted(REGISTRY))
    def test_a_fault_never_reaches_a_shared_value(self, check_id):
        # right sides are values of the run's store: a perturbed one must
        # be a copy, so a clean run after a faulty one on the same store
        # gives what it gives on a fresh store.  The faulty run leaves its
        # basis verdicts in the store as False: the clean run then checks
        # those points on the grid, which gives the same verdicts
        cfg = default_config(6)
        store: dict = {}
        with injected():
            assert REGISTRY[check_id](cfg, store).status == "fail"
        after = REGISTRY[check_id](cfg, store)
        fresh = REGISTRY[check_id](cfg, {})
        assert (after.status, after.variant_note, after.first_mismatch) == (
            fresh.status, fresh.variant_note, fresh.first_mismatch
        )


IDENTITIES = {
    identity.check_id: identity
    for _, parts in CHECKS.values()
    for identity, _ in parts
}
LINEAR = sorted(i for i, identity in IDENTITIES.items() if identity.linear)
# the checks with a linear part; no other check reads a basis verdict
BASIS_CHECKS = sorted(
    check_id
    for check_id, (_, parts) in CHECKS.items()
    if any(identity.linear for identity, _ in parts)
)


def code_names(fn) -> set[str]:
    """Every name the code of ``fn`` reads or binds, with its nested code
    objects and the functions it closes over."""
    names: set[str] = set()
    for cell in fn.__closure__ or ():
        if inspect.isfunction(cell.cell_contents):
            names |= code_names(cell.cell_contents)
    codes = [fn.__code__]
    while codes:
        code = codes.pop()
        names.update(
            code.co_names, code.co_varnames, code.co_freevars, code.co_cellvars
        )
        codes.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return names


def counting(identity: "verifier._Identity", seen: dict):
    """``identity`` with each form recording, in seen[form index], the
    (point, spec) of every instance it is evaluated on."""

    def wrap(index, cases):
        def counted(inst):
            seen.setdefault(index, []).append((inst.pt, inst.spec))
            return cases(inst)

        return counted

    forms = tuple(
        form._replace(cases=wrap(index, form.cases))
        for index, form in enumerate(identity.forms)
    )
    return identity._replace(forms=forms)


def _p0_zero(inst):
    yield [inst.polys[0]], [Poly()]


# "P_0 = 0": linear in the rows, false for a kernel with K(0) != 0
P0_ZERO = _Identity("p0-zero", "P_0 = 0", (_Form(None, _p0_zero),), linear=True)


def _pn_zero(inst):
    yield [Poly((inst.polys[inst.cfg.order].coefficient(0),))], [Poly()]


# "P_order(0) = 0": P_order(0) is order! [t^order] K, so of the kernel
# basis only t^order breaks it
PN_ZERO = _Identity(
    "pn-zero", "P_order(0) = 0", (_Form(None, _pn_zero),), linear=True
)


class TestLinearSkip:
    # a linear form that holds on the kernel basis t^j, j <= order, at a
    # point holds for every kernel there, so its grid instances are skipped
    def test_declared_set(self):
        assert LINEAR == sorted([
            "shift-recurrence", "expansion-in-numbers", "derivative",
            "number-operator", "addition-plain", "addition-lnc",
            "rising-factorial", "falling-factorial", "bernoulli-order-s",
            "frobenius-order-s",
        ])

    @pytest.mark.parametrize("tag", [TYPE1, TYPE2])
    @pytest.mark.parametrize("check_id", LINEAR)
    def test_cases_are_linear_in_the_rows(self, check_id, tag):
        cfg = small_config(5)
        pt = default_samples(0)[3]  # a random, generic point
        store: dict = {}
        one, two = (
            _Instance(cfg, pt, FamilySpec(tag, k=k, alpha=a), store)
            for k, a in ((-1, 1), (2, 3))
        )
        a, b = Fraction(2, 3), Fraction(-5, 7)
        # no spec: a form that read one would raise
        mixed = _Instance(cfg, pt, None, store)
        for name in ("polys", "polys_e"):
            mixed.__dict__[name] = tuple(
                poly_lincomb(((p, a), (q, b)))
                for p, q in zip(getattr(one, name), getattr(two, name))
            )
        for form in IDENTITIES[check_id].forms:
            cases = [list(form.cases(inst)) for inst in (one, two, mixed)]
            assert len(cases[0]) == len(cases[1]) == len(cases[2]) > 0
            for c1, c2, c3 in zip(*cases):
                for side in (0, 1):
                    assert len(c1[side]) == len(c2[side]) == len(c3[side])
                    for r1, r2, r3 in zip(c1[side], c2[side], c3[side]):
                        assert r3 == poly_lincomb(((r1, a), (r2, b)))

    def test_declared_forms_never_name_spec(self):
        for check_id in LINEAR:
            for form in IDENTITIES[check_id].forms:
                assert "spec" not in code_names(form.cases), (check_id, form.note)

    def test_scan_sees_forms_that_read_spec(self):
        for check_id in ("base-reduction-type1", "bernoulli-type2", "stirling-type1"):
            for form in IDENTITIES[check_id].forms:
                assert "spec" in code_names(form.cases), (check_id, form.note)

    @pytest.mark.parametrize("order", [6, 12])
    def test_grid_fallback_never_changes_a_verdict(self, order, monkeypatch):
        def verdicts():
            found = []
            for seed in (0, 1):
                for fault in (False, True):
                    with injected(fault):
                        found.extend(
                            (check_id, seed, fault, r.status, r.variant_note,
                             r.first_mismatch)
                            for check_id in BASIS_CHECKS
                            for r in [REGISTRY[check_id](default_config(order, seed))]
                        )
            return found

        proved = verdicts()
        asked = []

        def never_holds(form, inst):
            asked.append(form)
            return False

        monkeypatch.setattr(verifier, "_holds_on_basis", never_holds)
        assert verdicts() == proved
        assert asked

    @pytest.mark.parametrize(
        "pt",
        [
            *default_samples(0),
            ParamPoint(Fraction(3), Fraction(-2, 3), Fraction(1, 2), Fraction(-7, 3)),
        ],
    )
    def test_basis_rows_are_the_unit_kernel_rows(self, pt):
        cfg = small_config(7)._replace(samples=(pt,))
        for j in range(cfg.order + 1):
            unit = [0] * (cfg.order + 1)
            unit[j] = 1
            inst = _BasisInstance(cfg, pt, None, {}, j)
            for rows, rate in ((inst.polys, pt.ln_c), (inst.polys_e, Fraction(1))):
                assert [list(p.coeffs) for p in rows] == oracles.family_rows(
                    unit, rate, cfg.order
                ), (j, rate)

    def test_the_basis_kernels_are_values_of_the_store(self):
        cfg = small_config(5)
        store: dict = {}
        first, second = (
            [_BasisInstance(cfg, pt, None, store, j) for j in range(cfg.order + 1)]
            for pt in cfg.samples[:2]
        )
        for j, (a, b) in enumerate(zip(first, second)):
            assert a.kernel is b.kernel
            assert a.kernel == Series(cfg.order, [0] * j + [1])

    def test_a_form_false_on_the_basis_falls_back_to_the_grid(self):
        [form] = P0_ZERO.forms
        cfg = default_config(6)._replace(alpha_range=(1, 2))
        basis = [
            _BasisInstance(cfg, pt, None, {}, j)
            for pt in cfg.samples
            for j in range(cfg.order + 1)
        ]
        # K = t^0 breaks it, every other t^j keeps P_0 = 0
        assert [
            verifier._evaluate_form(form, [inst]) for inst in basis
        ] == [
            Mismatch(0, 0, "1", "0") if inst.j == 0 else None for inst in basis
        ]
        for tag in (TYPE1, TYPE2):
            # K^alpha(0) = 0 for alpha >= 1: the grid holds where the basis
            # does not
            store: dict = {}
            [result] = _run_parts([(P0_ZERO, tag)], cfg, store)
            assert result.status == "pass"
            # the form reads the point only through the rows' ln c: one
            # verdict per distinct ln c
            assert store[verifier._basis_verdict, form] == {
                (("ln_c", pt.ln_c),): False for pt in cfg.samples
            }
            # K^0 = 1 is on the grid at alpha = 0
            with_zero = cfg._replace(alpha_range=(1, 0, 2))
            [result] = _run_parts([(P0_ZERO, tag)], with_zero)
            assert result.status == "fail"
            assert result.first_mismatch == Mismatch(0, 0, "1", "0")

    def test_the_basis_reaches_t_order(self, monkeypatch):
        [form] = PN_ZERO.forms
        cfg = default_config(6)
        basis = [
            _BasisInstance(cfg, pt, None, {}, j)
            for pt in cfg.samples
            for j in range(cfg.order + 1)
        ]
        assert [
            verifier._evaluate_form(form, [inst]) is None for inst in basis
        ] == [inst.j < cfg.order for inst in basis]
        for tag in (TYPE1, TYPE2):
            [proved] = _run_parts([(PN_ZERO, tag)], cfg)
            with monkeypatch.context() as m:
                m.setattr(verifier, "_holds_on_basis", lambda form, inst: False)
                [grid] = _run_parts([(PN_ZERO, tag)], cfg)
            assert grid.status == "fail"
            assert proved._replace(elapsed_ms=0) == grid._replace(elapsed_ms=0)

    def test_a_suite_computes_each_basis_verdict_once(self, monkeypatch):
        asked = []
        original = verifier._holds_on_basis

        def recorded(form, inst):
            asked.append((form, inst.pt))
            return original(form, inst)

        monkeypatch.setattr(verifier, "_holds_on_basis", recorded)
        cfg = default_config(6)
        run_suite(cfg)
        # once per form and distinct tuple of the point values it read
        proofs = [(form, tuple(pt.reads.items())) for form, pt in asked]
        assert proofs
        assert len(proofs) == len(set(proofs))
        # the default points include two with ln c = 1/2, and a form that
        # reads only ln c is proved once per distinct ln c
        ln_cs = {pt.ln_c for pt in cfg.samples}
        assert len(ln_cs) < len(cfg.samples)
        [derivative] = IDENTITIES["derivative"].forms
        assert sorted(
            reads for form, reads in proofs if form == derivative
        ) == sorted((("ln_c", ln_c),) for ln_c in ln_cs)
        # the number operator reads its numbers from the ln c = 1 rows and
        # no point field: one proof per run
        [operator] = IDENTITIES["number-operator"].forms
        assert [reads for form, reads in proofs if form == operator] == [()]
        # the j ln ab Frobenius variant reads ln ab by that name, one value
        # stored on the point, not as ln a and ln b
        [jlab] = [
            form for form in IDENTITIES["frobenius-order-s"].forms
            if form.note == "base argument j ln ab"
        ]
        assert {
            name for form, reads in proofs if form == jlab for name, _ in reads
        } == {"ln_ab", "ln_c"}
        # the type-2 remark reads only forms the type-1 checks proved
        store: dict = {}
        for check_id in BASIS_CHECKS:
            if check_id != "remark-type2":
                REGISTRY[check_id](cfg, store)
        asked.clear()
        REGISTRY["remark-type2"](cfg, store)
        assert asked == []
        # a fault takes the production path: the basis proofs, then the grid
        with injected():
            run_suite(cfg)
        assert asked

    @pytest.mark.parametrize("check_id", BASIS_CHECKS)
    def test_a_fault_reaches_the_basis_proofs(self, check_id, monkeypatch):
        # a faulty run takes the path a clean run takes: it asks for the
        # basis proofs, each sees the fault, and the grid gives the witness
        verdicts = []
        original = verifier._holds_on_basis

        def recorded(form, inst):
            verdicts.append(original(form, inst))
            return verdicts[-1]

        monkeypatch.setattr(verifier, "_holds_on_basis", recorded)
        with injected():
            result = REGISTRY[check_id](small_config(4))
        assert verdicts
        assert not any(verdicts)
        assert (result.status, result.variant_note, result.first_mismatch) == (
            "fail", None, _INJECTED
        )

    @pytest.mark.parametrize(
        "check_id, samples, index, note, witness",
        [
            # the printed form reads lam and holds on the basis at lam = 1
            (
                "bernoulli-order-s",
                (CLASSICAL_POINT, ParamPoint(2, 0, 1, 1)),
                0,
                "resolved to variant: order-s Bernoulli factor taken at lam = 1",
                Mismatch(0, 0, "1", "0"),
            ),
            # with x ln c, the j ln ab variant holds on the basis at ln ab = 1
            (
                "frobenius-order-s",
                (ParamPoint(1, 0, 1, 2), ParamPoint(1, 0, 3, 2)),
                3,
                "resolved to variant: Frobenius argument x ln c",
                Mismatch(1, 1, "2", "1"),
            ),
        ],
        ids=["lam", "ln_ab"],
    )
    def test_a_verdict_is_shared_only_where_the_values_read_agree(
        self, check_id, samples, index, note, witness, monkeypatch
    ):
        # both points share ln c, so a verdict kept by ln c alone would
        # carry the form's basis verdict at the first point to the second
        cfg = CheckConfig(order=6, samples=samples)
        assert samples[0].ln_c == samples[1].ln_c
        identity = IDENTITIES[check_id]
        for tag in (TYPE1, TYPE2):
            store: dict = {}
            [proved] = _run_parts([(identity, tag)], cfg, store)
            assert proved.status == "resolved-variant"
            assert (proved.variant_note, proved.first_mismatch) == (note, witness)
            with monkeypatch.context() as m:
                m.setattr(verifier, "_holds_on_basis", lambda form, inst: False)
                [grid] = _run_parts([(identity, tag)], cfg)
            assert proved._replace(elapsed_ms=0) == grid._replace(elapsed_ms=0)
            # the form holds on the basis at the first point only
            verdicts = store[verifier._basis_verdict, identity.forms[index]]
            assert list(verdicts.values()) == [True, False]

    @settings(max_examples=20, deadline=None)
    @given(
        order=st.integers(2, 5),
        ln_c=ZERO_ONE | SMALL,
        moves=st.lists(
            st.tuples(ZERO_ONE | SMALL, SMALL, SMALL).filter(
                lambda m: m[0] != -1 and m[1] + m[2] != 0
            ),
            min_size=2,
            max_size=3,
        ),
    )
    # lam = 0 beside lam = 1/2 at ln c = 0
    @example(
        order=4,
        ln_c=Fraction(0),
        moves=[
            (Fraction(0), Fraction(1, 2), Fraction(1)),
            (Fraction(1, 2), Fraction(1, 2), Fraction(1)),
        ],
    )
    # at ln c = 1 the printed order-s Bernoulli form holds on the basis at
    # lam = 1 only, and the j ln ab Frobenius variants at ln ab = 1 only
    @example(
        order=3,
        ln_c=Fraction(1),
        moves=[
            (Fraction(1), Fraction(0), Fraction(1)),
            (Fraction(2), Fraction(0), Fraction(1)),
            (Fraction(1), Fraction(0), Fraction(2)),
        ],
    )
    def test_one_store_hides_the_basis_shortcut(self, order, ln_c, moves):
        # points that share ln c while lam, ln a or ln b move: every check
        # in turn on one store, as in a suite, gives the verdicts of the
        # grid without the shortcut
        cfg = CheckConfig(
            order=order,
            samples=tuple(ParamPoint(*m, ln_c) for m in moves),
            k_range=(-1, 2),
            alpha_range=(0, 2),
            s_range=(1, 2),
        )

        def verdicts():
            store: dict = {}
            return [
                (check_id, r.status, r.variant_note, r.first_mismatch)
                for check_id, runner in REGISTRY.items()
                for r in [runner(cfg, store)]
            ]

        proved = verdicts()
        with pytest.MonkeyPatch.context() as m:
            m.setattr(verifier, "_holds_on_basis", lambda form, inst: False)
            assert verdicts() == proved

    @pytest.mark.parametrize("seed", [0, 1])
    def test_a_check_alone_equals_it_in_the_suite(self, seed):
        cfg = default_config(6, seed)
        suite = {r.check_id: r for r in run_suite(cfg).results}
        assert sorted(suite) == sorted(REGISTRY)
        for check_id, runner in REGISTRY.items():
            alone = runner(cfg)
            assert alone._replace(elapsed_ms=0) == suite[check_id]._replace(
                elapsed_ms=0
            ), check_id

    def test_at_most_order_plus_one_instances_per_point(self):
        cfg = default_config(6)
        for check_id in LINEAR:
            seen: dict = {}
            _run_parts([(counting(IDENTITIES[check_id], seen), TYPE1)], cfg)
            assert seen, check_id
            for evaluated in seen.values():
                for pt in cfg.samples:
                    count = sum(1 for p, _ in evaluated if p == pt)
                    assert count <= 7, (check_id, pt, count)


# every module of the package; __main__ runs the CLI when imported
PACKAGE_MODULES = (polygenocchi,) + tuple(
    importlib.import_module(f"polygenocchi.{info.name}")
    for info in pkgutil.iter_modules(polygenocchi.__path__)
    if info.name != "__main__"
)

# the module-level caches, which outlive a run, each with the reason
MODULE_CACHES = {
    # the ladder's factor D or U per (type, direction, r, order), 64
    # entries: one division per (type, r, order), not per ladder
    "polygenocchi.kernels._factor",
    # the ladder's rungs per (type, k, r, order), 512 entries: verify-all
    # asks for 194 ladders that share 112 rungs (README, Library)
    "polygenocchi.kernels._rung",
    # C(i+j, i) for i + j <= n, read by every product and division: 32
    # orders, bounded, and a pure function of n
    "polygenocchi.series._binomial_table",
}

# module-level containers that grow, each with the reason
GROWING = {
    # the Stirling rows, grown by their recurrence as far as asked: a pure
    # function of n, bounded by the largest order asked
    ("polygenocchi.combinatorics", "_SECOND"),
    ("polygenocchi.combinatorics", "_FIRST_SIGNED"),
}


class TestRunStore:
    # an instance owns its kernel and its rows are views of it: a run
    # builds every row set from a kernel, once, in its own store

    def test_a_suite_reads_no_family_series(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("family_series called")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "polygenocchi" and hasattr(
                module, "family_series"
            ):
                monkeypatch.setattr(module, "family_series", refuse)
        assert run_suite(small_config(4)).overall == "pass"

    def test_a_suite_builds_each_row_set_once(self, monkeypatch):
        requests = []

        def recorded(gf, rate, order):
            requests.append((gf, rate, order))
            return appell_rows(gf, rate, order)

        monkeypatch.setattr(verifier, "appell_rows", recorded)
        cfg = small_config(4)
        run_suite(cfg)
        assert requests
        assert len(requests) == len(set(requests))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_a_run_builds_each_right_side_once(self, seed, monkeypatch):
        # every Appell-shaped right side is a value of the run's store,
        # keyed by its scalar series and its rows
        built = []
        original = verifier.binomial_convolution

        def recorded(a, polys):
            built.append((a, tuple(polys)))
            return original(a, polys)

        monkeypatch.setattr(verifier, "binomial_convolution", recorded)
        run_suite(default_config(6, seed))
        assert built
        assert len(built) == len(set(built))

    def test_a_run_builds_each_bernoulli_shift_once(self, monkeypatch):
        built = []
        original = verifier._bernoulli_shifts

        def recorded(alpha, pt, order):
            built.append((alpha, pt))
            return original(alpha, pt, order)

        monkeypatch.setattr(verifier, "_bernoulli_shifts", recorded)
        cfg = small_config()
        store: dict = {}
        for check_id in ("bernoulli-type1", "bernoulli-type2"):
            REGISTRY[check_id](cfg, store)
        # once per (alpha, point), not per k and type
        assert len(built) == len(cfg.samples) * len(cfg.alpha_range)
        assert len(set(built)) == len(built)

    def test_nothing_outlives_a_run(self):
        # every value a run builds lives in its store, but for the named
        # module-level caches and growing containers
        caches = {
            f"{module.__name__}.{name}"
            for module in PACKAGE_MODULES
            for name, value in vars(module).items()
            if hasattr(value, "cache_info")
        }
        assert caches == MODULE_CACHES

        def sizes():
            return {
                (module.__name__, name): len(value)
                for module in PACKAGE_MODULES
                for name, value in vars(module).items()
                if not name.startswith("__")
                and isinstance(value, (dict, list, set))
                and (module.__name__, name) not in GROWING
            }

        before = sizes()
        assert ("polygenocchi.verifier", "REGISTRY") in before
        assert GROWING <= {
            (module.__name__, name)
            for module in PACKAGE_MODULES
            for name in vars(module)
        }
        for seed in range(4):
            run_suite(default_config(4, seed))
        argv = ["table", "--family", "type2", "--k", "3", "--alpha", "2",
                "--ln-a", "1/5", "--ln-c", "2/7", "--n-max", "9"]
        assert cli.main(argv) == 0
        assert sizes() == before

    def test_the_store_is_a_pure_memo(self):
        # each value of a run's store is build(*args) under its key
        # (build, *args), so rebuilt from the key alone it is equal; the
        # basis verdict tables, keyed (_basis_verdict, form), are the one
        # other kind of entry
        store: dict = {}
        for runner in REGISTRY.values():
            runner(default_config(4, 0), store)
        verdicts = 0
        for key, value in store.items():
            assert isinstance(key, tuple) and callable(key[0]), key
            if key[0] is verifier._basis_verdict:
                [form] = key[1:]
                assert isinstance(form, _Form) and isinstance(value, dict)
                verdicts += 1
                continue
            assert key[0](*key[1:]) == value, key[0].__name__
        assert verdicts

    def test_instances_of_one_kernel_share_their_rows(self):
        cfg = small_config(4)
        store: dict = {}
        for pt in cfg.samples:
            # alpha = 0 is the kernel 1 at every k, of either type
            instances = [
                _Instance(cfg, pt, FamilySpec(tag, k=k, alpha=0), store)
                for tag in (TYPE1, TYPE2)
                for k in cfg.k_range
            ]
            for name in ("polys", "polys_e"):
                first, *rest = (getattr(inst, name) for inst in instances)
                assert all(rows is first for rows in rest), (pt, name)


# the smallest grid a CheckConfig admits: one value in every field
SMALLEST = CheckConfig(
    order=1,
    samples=(CLASSICAL_POINT,),
    k_range=(1,),
    alpha_range=(1,),
    s_range=(1,),
    mu_samples=(Fraction(-1),),
    x_samples=(Fraction(0),),
    y_samples=(Fraction(0),),
)
GRID_FIELDS = (
    "samples", "k_range", "alpha_range", "s_range",
    "mu_samples", "x_samples", "y_samples",
)


class TestEmptyGrid:
    # an empty grid field would let a check compare nothing and pass
    # vacuously: it cannot be built, so no entry can be handed one, and
    # the smallest grid that can be built still compares a case, which a
    # fault makes fail
    @pytest.mark.parametrize("check_id", sorted(REGISTRY))
    def test_registry_entry_rejects_empty_grid(self, check_id):
        for field in GRID_FIELDS:
            for bad in ((), None):
                with pytest.raises(ConfigError, match=field):
                    REGISTRY[check_id](SMALLEST._replace(**{field: bad}))
        with injected():
            assert REGISTRY[check_id](SMALLEST).status == "fail"


_RESOLVED_ORDER_S = (
    "bernoulli-order-s: resolved to variant: order-s Bernoulli factor "
    "taken at lam = 1; frobenius-order-s: resolved to variant: Frobenius "
    "argument x ln c"
)
_INJECTED = Mismatch(0, 0, "1", "2")

# (check_id, status, variant_note, first_mismatch) of run_suite on
# small_config(4), without and with the fault of ``faults.injected``
PINNED_WITNESSES = {
    False: [
        ("appell", "pass", None, None),
        ("base-reduction-type1", "pass", None, None),
        ("base-reduction-type2", "pass", None, None),
        ("bernoulli-type1", "pass", None, None),
        ("bernoulli-type2", "pass", None, None),
        ("expansion-in-numbers", "pass", None, None),
        (
            "explicit-formulas", "resolved-variant", _RESOLVED_ORDER_S,
            Mismatch(0, 0, "1", "0"),
        ),
        (
            "remark-type2", "resolved-variant", _RESOLVED_ORDER_S,
            Mismatch(0, 0, "1", "0"),
        ),
        ("shift-recurrence", "pass", None, None),
        (
            "stirling-type1",
            "resolved-variant",
            "resolved to variant: definition orientation: coefficients "
            "rebuilt from the (ab)^{-2t} series, c_j = sum_m (-1)^m "
            "(-2 ln ab)^j m! S2(j+1,m+1) / ((j+1)(m+1)^{k-1})",
            Mismatch(1, 0, "1", "-1"),
        ),
        ("stirling-type2", "pass", None, None),
        (
            "symmetrized-gf",
            "resolved-variant",
            "resolved to variant: polylog sum started at m = 0",
            Mismatch(0, 0, "0", "1/2"),
        ),
    ],
    True: [
        ("appell", "fail", None, _INJECTED),
        ("base-reduction-type1", "fail", None, _INJECTED),
        ("base-reduction-type2", "fail", None, _INJECTED),
        ("bernoulli-type1", "fail", None, _INJECTED),
        ("bernoulli-type2", "fail", None, _INJECTED),
        ("expansion-in-numbers", "fail", None, _INJECTED),
        ("explicit-formulas", "fail", None, _INJECTED),
        ("remark-type2", "fail", None, _INJECTED),
        ("shift-recurrence", "fail", None, _INJECTED),
        ("stirling-type1", "fail", None, _INJECTED),
        ("stirling-type2", "fail", None, _INJECTED),
        ("symmetrized-gf", "fail", None, Mismatch(0, 0, "0", "3/2")),
    ],
}


class TestWitnesses:
    @pytest.mark.parametrize("fault", [False, True])
    def test_statuses_notes_and_witnesses_are_pinned(self, fault):
        with injected(fault):
            report = run_suite(small_config(4))
        got = [
            (r.check_id, r.status, r.variant_note, r.first_mismatch)
            for r in report.results
        ]
        assert got == PINNED_WITNESSES[fault]

    def test_verdicts_are_stable_in_depth(self):
        # a statement that holds to order 16 but not to order 24 would show
        # here as a changed status, variant note or first mismatch
        got = [
            [
                (r.check_id, r.status, r.variant_note, r.first_mismatch)
                for r in run_suite(default_config(order)).results
            ]
            for order in (16, 24)
        ]
        assert len(got[0]) == len(REGISTRY)
        assert got[0] == got[1]

    def test_no_check_resolves_to_more_than_one_variant(self):
        # a resolved-variant verdict names the one reading of the printed
        # statement that holds; a grid on which two hold would not tell
        # them apart, and another seed's points must not change the reading
        got = [
            [
                (r.check_id, r.status, r.variant_note)
                for r in run_suite(default_config(6, seed)).results
            ]
            for seed in range(4)
        ]
        assert all(verdicts == got[0] for verdicts in got)
        assert not any(
            "multiple variants pass" in (note or "") for _, _, note in got[0]
        )


class TestReport:
    def test_results_sorted_and_overall(self):
        cfg = small_config(4)
        report = run_suite(cfg, "stirling")
        ids = [r.check_id for r in report.results]
        assert ids == sorted(ids) == ["stirling-type1", "stirling-type2"]
        assert report.overall == "pass"
        assert report.suite == "stirling"

    def test_overall_fail_with_injection(self):
        with injected():
            report = run_suite(small_config(3), "bernoulli")
        assert report.overall == "fail"

    def test_suite_names(self):
        assert set(SUITES) == {
            "all",
            "appell",
            "bernoulli",
            "stirling",
            "symmetrized",
            "type2",
        }
        assert SUITES["all"] == tuple(sorted(REGISTRY))

    def test_deterministic_results(self):
        cfg = small_config(4)
        a = run_suite(cfg, "appell")
        b = run_suite(cfg, "appell")
        strip = lambda rs: [
            (r.check_id, r.status, r.variant_note, r.first_mismatch)
            for r in rs
        ]
        assert strip(a.results) == strip(b.results)
