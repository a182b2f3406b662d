"""Verifier behavior: statuses, variant notes, fault injection, config."""

import inspect
from dataclasses import replace
from fractions import Fraction
from math import factorial
from types import CodeType

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

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
    stirling_convolution,
    stirling_weights,
)
from polygenocchi import verifier
from polygenocchi.errors import ConfigError
from polygenocchi.series import Poly, Series, poly_lincomb
from polygenocchi.verifier import (
    CHECKS,
    REGISTRY,
    Mismatch,
    _compare,
    _factorial_rows,
    _grid,
    _implied,
    _Instance,
    _run_parts,
    _symmetrized,
)

import oracles


def small_config(order=6):
    return CheckConfig(
        order=order,
        samples=default_samples(0)[:3],
        k_range=(-1, 1, 2),
        alpha_range=(0, 1, 2),
        s_range=(1, 2),
    )


CFG = small_config()


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

    # a CheckConfig is valid by construction: replace() builds a new one
    def test_order_must_be_positive(self):
        with pytest.raises(ConfigError):
            replace(default_config(), order=0)

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
            replace(default_config(), samples=(bad,))
        flat = ParamPoint(Fraction(2), Fraction(1), Fraction(-1), Fraction(1))
        with pytest.raises(ConfigError):
            replace(default_config(), samples=(flat,))
        with pytest.raises(ConfigError):
            replace(default_config(), samples=(("1", "0", "1", "1"),))

    def test_weight_bound_enforced(self):
        with pytest.raises(ConfigError):
            replace(default_config(), k_range=(99,))

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
            replace(default_config(), **{field: value})

    @pytest.mark.parametrize("value", [True, 1.0, "0", [1]])
    def test_seed_must_be_an_integer(self, value):
        with pytest.raises(ConfigError, match="integer"):
            replace(default_config(), seed=value)
        with pytest.raises(ConfigError, match="integer"):
            default_config(seed=value)

    @pytest.mark.parametrize("field", ["mu_samples", "x_samples", "y_samples"])
    @pytest.mark.parametrize("value", [0.25, True])
    def test_rational_fields_reject_floats_and_bools(self, field, value):
        with pytest.raises(ConfigError, match="Fraction"):
            replace(default_config(), **{field: (Fraction(1, 3), value)})

    def test_rational_fields_are_stored_as_fractions(self):
        cfg = replace(default_config(), x_samples=(2, Fraction(1, 2)))
        assert all(type(x) is Fraction for x in cfg.x_samples)
        assert cfg.x_samples == (Fraction(2), Fraction(1, 2))

    def test_float_grid_is_rejected_and_its_rational_twin_passes(self):
        # a float y times a Fraction ln c is a float: the identities that
        # pass at these values as Fractions would report fail
        floats = {
            "x_samples": (0.1, 0.2),
            "y_samples": (0.3, 0.5),
            "mu_samples": (0.25,),
        }
        with pytest.raises(ConfigError):
            replace(default_config(4), **floats)
        exact = replace(
            default_config(4),
            **{
                field: tuple(Fraction(str(v)) for v in values)
                for field, values in floats.items()
            },
        )
        for check_id in ("appell", "explicit-formulas", "symmetrized-gf"):
            assert REGISTRY[check_id](exact).status != "fail"

    def test_mu_one_rejected(self):
        with pytest.raises(ConfigError):
            replace(default_config(), mu_samples=(Fraction(1),))

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
        cfg = replace(small_config(5), samples=(pt,))
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

    def test_every_expansion_is_requested_at_the_config_order(self, monkeypatch):
        orders = []
        original = verifier.family_series

        def recorded(spec, point, order, **kwargs):
            orders.append(order)
            return original(spec, point, order, **kwargs)

        monkeypatch.setattr(verifier, "family_series", recorded)
        cfg = small_config(4)
        run_suite(cfg, "all")
        assert orders
        assert set(orders) == {cfg.order}


class TestStirlingHelpers:
    def test_alpha_one_convolution_is_identity(self):
        c = tuple(Fraction(i * i - 3, i + 1) for i in range(9))
        assert stirling_convolution(c, 1, 8) == c

    def test_alpha_zero_is_delta(self):
        c = tuple(Fraction(i + 1) for i in range(5))
        d = stirling_convolution(c, 0, 4)
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
        assert stirling_convolution(tuple(c), alpha, jmax) == expected

    def test_oriented_weights_collapse_at_weight_one(self):
        w = stirling_weights(1, 1, Fraction(-2), 6, oriented=True)
        assert w[0] == 1
        assert all(v == 0 for v in w[1:])

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
                for r in _run_parts([(f, tag) for f in formulas], CFG, False)
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


class TestFaultInjection:
    @pytest.mark.parametrize("check_id", sorted(REGISTRY))
    def test_every_check_can_fail(self, check_id):
        cfg = small_config(4)
        result = REGISTRY[check_id](cfg, True)
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
        [result] = _run_parts([part], small_config(4), True)
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
        injected = run_suite(small, "all", inject_fault=True)
        assert all(r.status == "fail" for r in injected.results)
        clean = run_suite(small, "all")
        assert clean.overall == "pass"
        assert all(r.status != "fail" for r in clean.results)


IDENTITIES = {
    identity.check_id: identity
    for _, parts in CHECKS.values()
    for identity, _ in parts
}
LINEAR = sorted(i for i, identity in IDENTITIES.items() if identity.linear)
# the checks with a linear part; no other check reads the skip rule
SKIPPING_CHECKS = sorted(
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
        replace(form, cases=wrap(index, form.cases))
        for index, form in enumerate(identity.forms)
    )
    return replace(identity, forms=forms)


class TestLinearSkip:
    # a linear identity skips every instance whose kernel numerators lie
    # in the span of those evaluated before it at the same point
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
        memo: dict = {}
        one, two = (
            _Instance(cfg, pt, FamilySpec(tag, k=k, alpha=a), memo)
            for k, a in ((-1, 1), (2, 3))
        )
        a, b = Fraction(2, 3), Fraction(-5, 7)
        # no spec: a form that read one would raise
        mixed = _Instance(cfg, pt, None, memo)
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
    def test_skipping_never_changes_a_verdict(self, order, monkeypatch):
        def verdicts():
            return [
                (check_id, seed, fault, r.status, r.variant_note, r.first_mismatch)
                for seed in (0, 1)
                for fault in (False, True)
                for check_id in SKIPPING_CHECKS
                for r in [REGISTRY[check_id](default_config(order, seed), fault)]
            ]

        pruned = verdicts()
        grids = []

        def skip_nothing(tag, cfg, withhold_first):
            grids.append(tag)
            return [False] * len(_grid(tag, cfg))

        monkeypatch.setattr(verifier, "_implied", skip_nothing)
        assert verdicts() == pruned
        assert grids

    def test_at_most_order_plus_one_instances_per_point(self):
        cfg = default_config(6)
        for check_id in LINEAR:
            seen: dict = {}
            _run_parts([(counting(IDENTITIES[check_id], seen), TYPE1)], cfg, False)
            assert seen, check_id
            for evaluated in seen.values():
                for pt in cfg.samples:
                    count = sum(1 for p, _ in evaluated if p == pt)
                    assert count <= 7, (check_id, pt, count)

    def test_past_the_rank_bound_only_alpha_zero_repeats_are_skipped(self):
        # K^0 = 1 for every k; at these generic points the 18 powers
        # K^1..K^3 of six kernels are independent, so at order 24 (25
        # dimensions) only the repeats go
        cfg = replace(default_config(24), samples=default_samples(0)[3:])
        seen: dict = {}
        _run_parts([(counting(IDENTITIES["derivative"], seen), TYPE1)], cfg, False)
        first_k = cfg.k_range[0]
        assert seen[0] == [
            (pt, spec)
            for pt, spec in _grid(TYPE1, cfg)
            if spec.alpha or spec.k == first_k
        ]

    def test_an_injected_instance_spans_nothing(self):
        # the perturbed first instance does not hold, so it implies nothing:
        # one more instance is evaluated, at the first point
        cfg = default_config(6)
        clean = _implied(TYPE1, cfg, False)
        injected = _implied(TYPE1, cfg, True)
        assert not clean[0] and not injected[0]
        moved = [i for i, (c, j) in enumerate(zip(clean, injected)) if c != j]
        per_point = len(cfg.k_range) * len(cfg.alpha_range)
        assert len(moved) == 1 and moved[0] < per_point
        assert clean[moved[0]] and not injected[moved[0]]


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
    # the smallest grid that can be built still compares a case
    @pytest.mark.parametrize("check_id", sorted(REGISTRY))
    def test_registry_entry_rejects_empty_grid(self, check_id):
        for field in GRID_FIELDS:
            with pytest.raises(ConfigError, match=field):
                REGISTRY[check_id](replace(SMALLEST, **{field: ()}), True)
        assert REGISTRY[check_id](SMALLEST, True).status == "fail"


_RESOLVED_ORDER_S = (
    "bernoulli-order-s: resolved to variant: order-s Bernoulli factor "
    "taken at lam = 1; frobenius-order-s: resolved to variant: Frobenius "
    "argument x ln c"
)
_INJECTED = Mismatch(0, 0, "1", "2")

# (check_id, status, variant_note, first_mismatch) of run_suite on
# small_config(4), without and with inject_fault
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
    @pytest.mark.parametrize("inject_fault", [False, True])
    def test_statuses_notes_and_witnesses_are_pinned(self, inject_fault):
        report = run_suite(small_config(4), inject_fault=inject_fault)
        got = [
            (r.check_id, r.status, r.variant_note, r.first_mismatch)
            for r in report.results
        ]
        assert got == PINNED_WITNESSES[inject_fault]

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


class TestReport:
    def test_results_sorted_and_overall(self):
        cfg = small_config(4)
        report = run_suite(cfg, "stirling")
        ids = [r.check_id for r in report.results]
        assert ids == sorted(ids) == ["stirling-type1", "stirling-type2"]
        assert report.overall == "pass"
        assert report.suite == "stirling"

    def test_overall_fail_with_injection(self):
        report = run_suite(small_config(3), "bernoulli", inject_fault=True)
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

    def test_timestamp_honors_epoch(self, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1500000000")
        report = run_suite(small_config(2), "symmetrized")
        assert report.generated_at == "2017-07-14T02:40:00Z"
