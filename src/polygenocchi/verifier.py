"""Coefficient-level verification of the family identities.

Every check expands both sides of an identity as exact polynomials (or
exact bivariate coefficient grids) and compares coefficient by
coefficient over a configured grid of parameter points, polylog orders k,
and kernel orders alpha.  There are no tolerances: a check passes only on
exact equality everywhere.

Where a stated identity disagrees with what the family definitions imply,
the check first evaluates the statement as printed, then a short list of
derivation-motivated variants.  A passing variant is reported with status
``resolved-variant`` and a note naming the variant; nothing is ever
substituted silently.  The printed form's first mismatch (smallest n,
then smallest x-degree) is recorded either way.

``inject_fault=True`` perturbs one coefficient of the first computed
right-hand side in every evaluated form.  It exists so the test suite can
prove each check is actually capable of failing.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from fractions import Fraction
from math import factorial
from typing import Callable, Iterator, Optional, Sequence, Union

from .combinatorics import (
    binomial,
    compositions,
    falling_factorial_poly,
    multinomial,
    rising_factorial_poly,
    stirling1_signed,
    stirling2,
)
from .errors import ConfigError
from .families import (
    APOSTOL_BERNOULLI,
    BERNOULLI_T1,
    BERNOULLI_T2,
    FROBENIUS,
    TYPE1,
    TYPE2,
    FamilySpec,
    appell_expand,
    double_gf_rhs,
    family_series,
    numbers_list,
    symmetrized_S,
)
from .kernels import CLASSICAL_POINT, K_MAX, ParamPoint
from .series import BiSeries, Poly, poly_lincomb

PASS = "pass"
FAIL = "fail"
RESOLVED = "resolved-variant"


@dataclass(frozen=True)
class CheckConfig:
    """Grid over which every identity is checked exactly."""

    order: int = 16
    samples: tuple[ParamPoint, ...] = ()
    k_range: tuple[int, ...] = (-2, -1, 0, 1, 2, 3)
    alpha_range: tuple[int, ...] = (0, 1, 2, 3)
    s_range: tuple[int, ...] = (1, 2)
    mu_samples: tuple[Fraction, ...] = (Fraction(-1), Fraction(1, 2))
    x_samples: tuple[Fraction, ...] = (Fraction(1, 3), Fraction(-1, 2))
    y_samples: tuple[Fraction, ...] = (Fraction(0), Fraction(1), Fraction(-1, 2))
    seed: int = 0


def default_samples(seed: int) -> tuple[ParamPoint, ...]:
    """Five parameter points: classical, lam = 0, ln c = 0, two random.

    Random points have small-height rationals with lam outside {-1, 0, 1},
    ln(ab) != 0, and ln c outside {0, 1}, so degenerate and generic cases
    are both always present.  Deterministic for a fixed seed.
    """
    rng = random.Random(seed)
    points = [
        CLASSICAL_POINT,
        ParamPoint(Fraction(0), Fraction(1, 3), Fraction(1, 4), Fraction(1, 2)),
        ParamPoint(Fraction(2), Fraction(1, 2), Fraction(1, 3), Fraction(0)),
    ]
    while len(points) < 5:
        lam = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        ln_a = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
        ln_b = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
        ln_c = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
        if lam in (-1, 0, 1) or ln_a + ln_b == 0 or ln_c in (0, 1):
            continue
        points.append(ParamPoint(lam, ln_a, ln_b, ln_c))
    return tuple(points)


def default_config(order: int = 16, seed: int = 0) -> CheckConfig:
    return CheckConfig(order=order, samples=default_samples(seed), seed=seed)


def validate_config(cfg: CheckConfig) -> None:
    if not isinstance(cfg.order, int) or cfg.order < 1:
        raise ConfigError(f"order must be a positive integer, got {cfg.order!r}")
    if not cfg.samples:
        raise ConfigError("at least one parameter sample is required")
    for pt in cfg.samples:
        if 1 + pt.lam == 0:
            raise ConfigError("sample with lam = -1 is singular")
        if pt.ln_ab == 0:
            raise ConfigError("sample with ln a + ln b = 0 is singular")
    if not cfg.k_range:
        raise ConfigError("k_range must be nonempty")
    for k in cfg.k_range:
        if abs(k) > K_MAX:
            raise ConfigError(f"|k| must be <= {K_MAX}, got {k}")
    if not cfg.alpha_range:
        raise ConfigError("alpha_range must be nonempty")
    for a in cfg.alpha_range:
        if not isinstance(a, int) or a < 0:
            raise ConfigError(f"alpha must be a nonnegative integer, got {a!r}")
    if not cfg.s_range or any(s < 1 for s in cfg.s_range):
        raise ConfigError("s_range must be nonempty positive integers")
    if any(mu == 1 for mu in cfg.mu_samples):
        raise ConfigError("mu = 1 is singular for Frobenius factors")
    if not cfg.mu_samples:
        raise ConfigError("mu_samples must be nonempty")
    if not cfg.x_samples or not cfg.y_samples:
        raise ConfigError("x_samples and y_samples must be nonempty")


@dataclass(frozen=True)
class Mismatch:
    """Smallest witness of a failed comparison.

    For polynomial identities (n, x_degree) locate the t^n/n! coefficient
    and the x power; for the bivariate check they are the (t, u) orders.
    """

    n: int
    x_degree: int
    lhs: str
    rhs: str


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    statement: str
    status: str
    variant_note: Optional[str]
    first_mismatch: Optional[Mismatch]
    elapsed_ms: float


@dataclass(frozen=True)
class Report:
    suite_version: str
    suite: str
    config: CheckConfig
    results: tuple[CheckResult, ...]
    overall: str
    generated_at: str


_Case = tuple[Union[Sequence[Poly], BiSeries], Union[Sequence[Poly], BiSeries]]


@dataclass(frozen=True)
class _Form:
    note: Optional[str]  # None marks the statement as printed
    cases: Callable[[], Iterator[_Case]]


def _compare(lhs, rhs) -> Optional[Mismatch]:
    if isinstance(lhs, BiSeries):
        nt, nu = lhs.orders
        for n in range(nt + 1):
            for m in range(nu + 1):
                a, b = lhs.entry(n, m), rhs.entry(n, m)
                if a != b:
                    return Mismatch(n, m, str(a), str(b))
        return None
    for n, (a, b) in enumerate(zip(lhs, rhs)):
        if a != b:
            for d in range(max(a.degree, b.degree) + 1):
                ca, cb = a.coefficient(d), b.coefficient(d)
                if ca != cb:
                    return Mismatch(n, d, str(ca), str(cb))
    return None


def _perturb(rhs):
    if isinstance(rhs, BiSeries):
        grid = [list(row) for row in rhs.coeffs]
        grid[0][0] += 1
        return BiSeries(rhs.orders, grid)
    bumped = list(rhs)
    bumped[0] = bumped[0] + Poly.constant(1)
    return bumped


def _evaluate_form(form: _Form, inject_fault: bool) -> Optional[Mismatch]:
    injected = False
    for lhs, rhs in form.cases():
        if inject_fault and not injected:
            rhs = _perturb(rhs)
            injected = True
        mismatch = _compare(lhs, rhs)
        if mismatch is not None:
            return mismatch
    return None


def _run_forms(
    check_id: str,
    statement: str,
    forms: Sequence[_Form],
    inject_fault: bool,
) -> CheckResult:
    """Evaluate the printed form, then every variant; report the outcome.

    All variants are evaluated (no short-circuit among them) so the note
    can honestly say whether exactly one passed.
    """
    start = time.perf_counter()
    printed_mismatch = _evaluate_form(forms[0], inject_fault)
    if printed_mismatch is None:
        elapsed = (time.perf_counter() - start) * 1000
        return CheckResult(check_id, statement, PASS, None, None, elapsed)
    passing = [
        form.note
        for form in forms[1:]
        if _evaluate_form(form, inject_fault) is None
    ]
    elapsed = (time.perf_counter() - start) * 1000
    if passing:
        if len(passing) == 1:
            note = f"resolved to variant: {passing[0]}"
        else:
            note = "multiple variants pass: " + "; ".join(passing)
        return CheckResult(
            check_id, statement, RESOLVED, note, printed_mismatch, elapsed
        )
    return CheckResult(
        check_id, statement, FAIL, None, printed_mismatch, elapsed
    )


def _composite(
    check_id: str, statement: str, subresults: Sequence[CheckResult]
) -> CheckResult:
    """Fold sub-identity results: fail > resolved-variant > pass."""
    elapsed = sum(r.elapsed_ms for r in subresults)
    failed = [r for r in subresults if r.status == FAIL]
    resolved = [r for r in subresults if r.status == RESOLVED]
    notes = [f"{r.check_id}: {r.variant_note}" for r in resolved]
    note = "; ".join(notes) if notes else None
    if failed:
        return CheckResult(
            check_id, statement, FAIL, note, failed[0].first_mismatch, elapsed
        )
    if resolved:
        return CheckResult(
            check_id,
            statement,
            RESOLVED,
            note,
            resolved[0].first_mismatch,
            elapsed,
        )
    return CheckResult(check_id, statement, PASS, None, None, elapsed)


def _poly_specs(cfg: CheckConfig, tag: str) -> Iterator[FamilySpec]:
    for k in cfg.k_range:
        for alpha in cfg.alpha_range:
            yield FamilySpec(tag, k=k, alpha=alpha)


def _grid(cfg: CheckConfig, tag: str) -> Iterator[tuple[ParamPoint, FamilySpec]]:
    for pt in cfg.samples:
        for spec in _poly_specs(cfg, tag):
            yield pt, spec


# --- shift recurrence: P_n(x+1) = sum_r C(n,r) ln(c)^r P_{n-r}(x) ---------


def _shift_cases(cfg: CheckConfig, tag: str) -> Callable[[], Iterator[_Case]]:
    def gen() -> Iterator[_Case]:
        shift = Poly((1, 1))
        for pt, spec in _grid(cfg, tag):
            polys = family_series(spec, pt, cfg.order).polys
            lhs = [p.substitute(shift) for p in polys]
            rhs = [
                poly_lincomb(
                    (polys[n - r], binomial(n, r) * pt.ln_c**r)
                    for r in range(n + 1)
                )
                for n in range(cfg.order + 1)
            ]
            yield lhs, rhs

    return gen


def check_shift_recurrence(
    cfg: CheckConfig, tag: str = TYPE1, *, inject_fault: bool = False
) -> CheckResult:
    return _run_forms(
        "shift-recurrence",
        "P_n(x+1) = sum_{r<=n} C(n,r) ln(c)^r P_{n-r}(x)",
        [_Form(None, _shift_cases(cfg, tag))],
        inject_fault,
    )


# --- expansion in numbers: P_n(x) = sum_i C(n,i) ln(c)^{n-i} P_i(0) x^{n-i}


def _expansion_cases(cfg: CheckConfig, tag: str) -> Callable[[], Iterator[_Case]]:
    def gen() -> Iterator[_Case]:
        for pt, spec in _grid(cfg, tag):
            polys = family_series(spec, pt, cfg.order).polys
            nums = [p.constant_term for p in polys]
            rhs = []
            for n in range(cfg.order + 1):
                coeffs = [Fraction(0)] * (n + 1)
                for i in range(n + 1):
                    coeffs[n - i] += binomial(n, i) * pt.ln_c ** (n - i) * nums[i]
                rhs.append(Poly(coeffs))
            yield list(polys), rhs

    return gen


def check_expansion_in_numbers(
    cfg: CheckConfig, tag: str = TYPE1, *, inject_fault: bool = False
) -> CheckResult:
    return _run_forms(
        "expansion-in-numbers",
        "P_n(x) = sum_{i<=n} C(n,i) ln(c)^{n-i} P_i(0) x^{n-i}",
        [_Form(None, _expansion_cases(cfg, tag))],
        inject_fault,
    )


# --- base reduction: P_n(x; lam,a,b,c) = ln(ab)^n Q_n((x ln c + alpha ln a)/ln(ab))


def _base_reduction_cases(
    cfg: CheckConfig, tag: str
) -> Callable[[], Iterator[_Case]]:
    def gen() -> Iterator[_Case]:
        for pt, spec in _grid(cfg, tag):
            polys = family_series(spec, pt, cfg.order).polys
            base_pt = ParamPoint(pt.lam, Fraction(0), Fraction(1), Fraction(1))
            base = family_series(spec, base_pt, cfg.order).polys
            lab = pt.ln_ab
            affine = Poly((spec.alpha * pt.ln_a / lab, pt.ln_c / lab))
            rhs = [
                base[n].substitute(affine) * lab**n
                for n in range(cfg.order + 1)
            ]
            yield list(polys), rhs

    return gen


def _check_base_reduction(
    cfg: CheckConfig, tag: str, inject_fault: bool
) -> CheckResult:
    which = "1" if tag == TYPE1 else "2"
    return _run_forms(
        f"base-reduction-type{which}",
        "P_n(x; lam,a,b,c) = ln(ab)^n P_n((x ln c + alpha ln a)/ln(ab); lam)",
        [_Form(None, _base_reduction_cases(cfg, tag))],
        inject_fault,
    )


def check_base_reduction(
    cfg: CheckConfig, which: int = 1, *, inject_fault: bool = False
) -> CheckResult:
    if which not in (1, 2):
        raise ConfigError("base reduction type must be 1 or 2")
    return _check_base_reduction(
        cfg, TYPE1 if which == 1 else TYPE2, inject_fault
    )


# --- Appell structure -----------------------------------------------------


def _derivative_cases(cfg: CheckConfig, tag: str) -> Callable[[], Iterator[_Case]]:
    def gen() -> Iterator[_Case]:
        for pt, spec in _grid(cfg, tag):
            polys = family_series(spec, pt, cfg.order).polys
            lhs = [polys[n + 1].derivative() for n in range(cfg.order)]
            rhs = [polys[n] * ((n + 1) * pt.ln_c) for n in range(cfg.order)]
            yield lhs, rhs

    return gen


def _operator_cases(cfg: CheckConfig, tag: str) -> Callable[[], Iterator[_Case]]:
    # appell_expand rebuilds P_n from the numbers; it must equal the
    # ln c = 1 member, which is where the plain Appell sequence lives
    def gen() -> Iterator[_Case]:
        for pt, spec in _grid(cfg, tag):
            pt_e = replace(pt, ln_c=Fraction(1))
            # expand once at cfg.order; appell_expand slices it per n
            family_series(spec, pt, cfg.order)
            lhs = [appell_expand(spec, pt, n) for n in range(cfg.order + 1)]
            rhs = list(family_series(spec, pt_e, cfg.order).polys)
            yield lhs, rhs

    return gen


def _addition_plain_cases(
    cfg: CheckConfig, tag: str
) -> Callable[[], Iterator[_Case]]:
    def gen() -> Iterator[_Case]:
        for pt, spec in _grid(cfg, tag):
            pt_e = replace(pt, ln_c=Fraction(1))
            polys = family_series(spec, pt_e, cfg.order).polys
            for y in cfg.y_samples:
                shift = Poly((y, 1))
                lhs = [p.substitute(shift) for p in polys]
                rhs = [
                    poly_lincomb(
                        (polys[i], binomial(n, i) * y ** (n - i))
                        for i in range(n + 1)
                    )
                    for n in range(cfg.order + 1)
                ]
                yield lhs, rhs

    return gen


def _addition_lnc_cases(
    cfg: CheckConfig, tag: str
) -> Callable[[], Iterator[_Case]]:
    def gen() -> Iterator[_Case]:
        for pt, spec in _grid(cfg, tag):
            polys = family_series(spec, pt, cfg.order).polys
            for y in cfg.y_samples:
                shift = Poly((y, 1))
                lhs = [p.substitute(shift) for p in polys]
                rhs = [
                    poly_lincomb(
                        (
                            polys[i],
                            binomial(n, i) * pt.ln_c ** (n - i) * y ** (n - i),
                        )
                        for i in range(n + 1)
                    )
                    for n in range(cfg.order + 1)
                ]
                yield lhs, rhs

    return gen


def check_appell(cfg: CheckConfig, *, inject_fault: bool = False) -> CheckResult:
    subs = [
        _run_forms(
            "derivative",
            "d/dx P_{n+1}(x) = (n+1) ln(c) P_n(x)",
            [_Form(None, _derivative_cases(cfg, TYPE1))],
            inject_fault,
        ),
        _run_forms(
            "number-operator",
            "sum_i C(n,i) P_i(0) x^{n-i} equals the ln c = 1 member",
            [_Form(None, _operator_cases(cfg, TYPE1))],
            inject_fault,
        ),
        _run_forms(
            "addition-plain",
            "P_n(x+y) = sum_i C(n,i) P_i(x) y^{n-i} at ln c = 1",
            [_Form(None, _addition_plain_cases(cfg, TYPE1))],
            inject_fault,
        ),
        _run_forms(
            "addition-lnc",
            "P_n(x+y) = sum_i C(n,i) ln(c)^{n-i} P_i(x) y^{n-i}",
            [_Form(None, _addition_lnc_cases(cfg, TYPE1))],
            inject_fault,
        ),
    ]
    return _composite(
        "appell",
        "Appell structure: derivative, number expansion, addition formulas",
        subs,
    )


# --- Bernoulli-type relation ----------------------------------------------


def _bernoulli_cases(cfg: CheckConfig, tag: str) -> Callable[[], Iterator[_Case]]:
    btag = BERNOULLI_T1 if tag == TYPE1 else BERNOULLI_T2

    def gen() -> Iterator[_Case]:
        for pt, spec in _grid(cfg, tag):
            polys = family_series(spec, pt, cfg.order).polys
            bspec = FamilySpec(btag, k=spec.k, alpha=spec.alpha)
            bpt = ParamPoint(
                pt.lam**2, Fraction(0), Fraction(1), Fraction(1)
            )
            bpolys = family_series(bspec, bpt, cfg.order).polys
            lab2 = 2 * pt.ln_ab
            alpha = spec.alpha
            subs = []
            weights = []
            for j in range(alpha + 1):
                shift = ((alpha - j) * pt.ln_b + (2 * alpha - j) * pt.ln_a) / lab2
                subs.append(Poly((shift, pt.ln_c / lab2)))
                weights.append(
                    binomial(alpha, j) * Fraction(-1) ** j * pt.lam ** (alpha - j)
                )
            rhs = [
                poly_lincomb(
                    (bpolys[n].substitute(subs[j]), weights[j] * lab2**n)
                    for j in range(alpha + 1)
                    if weights[j] != 0
                )
                for n in range(cfg.order + 1)
            ]
            yield list(polys), rhs

    return gen


def check_bernoulli_relation(
    cfg: CheckConfig, which: int = 1, *, inject_fault: bool = False
) -> CheckResult:
    if which not in (1, 2):
        raise ConfigError("bernoulli relation type must be 1 or 2")
    tag = TYPE1 if which == 1 else TYPE2
    return _run_forms(
        f"bernoulli-type{which}",
        "P_n(x) = sum_{j<=alpha} C(alpha,j) (-1)^j lam^{alpha-j} 2^n ln(ab)^n "
        "B_n(((alpha-j) ln b + x ln c + (2 alpha - j) ln a)/(2 ln ab); lam^2)",
        [_Form(None, _bernoulli_cases(cfg, tag))],
        inject_fault,
    )


# --- Stirling-number relation ----------------------------------------------

STIRLING_PRINTED = "printed"
STIRLING_POWER_FLIP = "power-flip"
STIRLING_ORIENTED = "definition-orientation"

STIRLING_VARIANTS_T1 = (STIRLING_PRINTED, STIRLING_POWER_FLIP, STIRLING_ORIENTED)
STIRLING_VARIANTS_T2 = (STIRLING_PRINTED, STIRLING_POWER_FLIP)

_STIRLING_NOTES = {
    STIRLING_POWER_FLIP: "power sign flip: (2 ln ab)^j -> (-2 ln ab)^j",
    STIRLING_ORIENTED: (
        "definition orientation: coefficients rebuilt from the "
        "(ab)^{-2t} series, c_j = sum_m (-1)^m (-2 ln ab)^j m! "
        "S2(j+1,m+1) / ((j+1)(m+1)^{k-1})"
    ),
}


def stirling_weights(
    which: int, k: int, lab2: Fraction, jmax: int, variant: str
) -> tuple[Fraction, ...]:
    """The c_j sequence of the Stirling relation for one variant.

    ``which`` selects the family type: 1 uses second-kind numbers with
    alternating signs, 2 uses signed first-kind numbers.  ``lab2`` is
    2 ln(ab).
    """
    out = []
    for j in range(jmax + 1):
        acc = Fraction(0)
        for m in range(j + 1):
            if which == 1:
                # type 1 carries an m! from reindexing the polylog sum
                s = factorial(m) * stirling2(j + 1, m + 1)
                sign = (-1) ** (m + 1)
                if variant == STIRLING_ORIENTED:
                    sign = (-1) ** m
            else:
                s = stirling1_signed(j + 1, m + 1)
                sign = 1
            power = (-lab2) ** j if variant in (
                STIRLING_POWER_FLIP,
                STIRLING_ORIENTED,
            ) else lab2**j
            acc += (
                Fraction(sign)
                * power
                * s
                / ((j + 1) * Fraction(m + 1) ** (k - 1))
            )
        out.append(acc)
    return tuple(out)


def stirling_convolution(
    c: Sequence[Fraction], alpha: int, jmax: int
) -> tuple[Fraction, ...]:
    """d_j = sum over compositions of j into alpha parts of
    multinomial(j; parts) prod_i c_{part_i}; alpha = 1 gives d = c."""
    out = []
    for j in range(jmax + 1):
        acc = Fraction(0)
        for parts in compositions(j, alpha):
            prod = Fraction(multinomial(j, parts))
            for p in parts:
                prod *= c[p]
            acc += prod
        out.append(acc)
    return tuple(out)


def _stirling_type1_weights(k, lab2, jmax, variant):
    w = stirling_weights(1, k, lab2, jmax, variant)
    # the m!(m+1)^{1-k} weights cancel at k = 1: sanity-pin the oriented
    # variant's classical limit
    if variant == STIRLING_ORIENTED and k == 1:
        assert w[0] == 1 and all(v == 0 for v in w[1:])
    return w


def _stirling_cases(
    cfg: CheckConfig, which: int, variant: str
) -> Callable[[], Iterator[_Case]]:
    tag = TYPE1 if which == 1 else TYPE2

    def gen() -> Iterator[_Case]:
        for pt, spec in _grid(cfg, tag):
            polys = family_series(spec, pt, cfg.order).polys
            base_pt = ParamPoint(pt.lam, Fraction(0), Fraction(1), Fraction(1))
            base_spec = FamilySpec(tag, k=1, alpha=spec.alpha)
            base = family_series(base_spec, base_pt, cfg.order).polys
            lab = pt.ln_ab
            affine = Poly((spec.alpha * pt.ln_a / lab, pt.ln_c / lab))
            scaled = [
                base[i].substitute(affine) * lab**i
                for i in range(cfg.order + 1)
            ]
            if which == 1:
                c = _stirling_type1_weights(spec.k, 2 * lab, cfg.order, variant)
            else:
                c = stirling_weights(2, spec.k, 2 * lab, cfg.order, variant)
            d = stirling_convolution(c, spec.alpha, cfg.order)
            rhs = [
                poly_lincomb(
                    (scaled[n - j], binomial(n, j) * d[j]) for j in range(n + 1)
                )
                for n in range(cfg.order + 1)
            ]
            yield list(polys), rhs

    return gen


def check_stirling_relation(
    cfg: CheckConfig, which: int = 1, *, inject_fault: bool = False
) -> CheckResult:
    if which not in (1, 2):
        raise ConfigError("stirling relation type must be 1 or 2")
    variants = STIRLING_VARIANTS_T1 if which == 1 else STIRLING_VARIANTS_T2
    forms = [_Form(None, _stirling_cases(cfg, which, STIRLING_PRINTED))]
    for variant in variants[1:]:
        forms.append(
            _Form(_STIRLING_NOTES[variant], _stirling_cases(cfg, which, variant))
        )
    kind = "S2" if which == 1 else "s1"
    return _run_forms(
        f"stirling-type{which}",
        "P_n(x) = sum_{j<=n} C(n,j) ln(ab)^{n-j} "
        "Q_{n-j}((x ln c + alpha ln a)/ln(ab); lam) d_j, "
        f"d_j the alpha-fold convolution of {kind}-weighted c_j",
        forms,
        inject_fault,
    )


# --- explicit formulas (rising/falling factorial, order-s relations) -------


def _factorial_cases(
    cfg: CheckConfig, tag: str, rising: bool
) -> Callable[[], Iterator[_Case]]:
    """Rising factorials (x)^(m) weighted by P_{n-l}(-m ln c; base), or
    falling factorials (x)_m weighted by P_{n-l}(0; base)."""
    make = rising_factorial_poly if rising else falling_factorial_poly

    def gen() -> Iterator[_Case]:
        basis = [make(m) for m in range(cfg.order + 1)]
        for pt in cfg.samples:
            # S2(l,m) C(n,l) ln(c)^l for l = m..n does not depend on spec
            weights = [
                [
                    [
                        stirling2(l, m) * binomial(n, l) * pt.ln_c**l
                        for l in range(m, n + 1)
                    ]
                    for m in range(n + 1)
                ]
                for n in range(cfg.order + 1)
            ]
            pt_e = replace(pt, ln_c=Fraction(1))
            for spec in _poly_specs(cfg, tag):
                polys = family_series(spec, pt, cfg.order).polys
                polys_e = family_series(spec, pt_e, cfg.order).polys
                if rising:
                    vals = [
                        [p.evaluate(-m * pt.ln_c) for m in range(cfg.order + 1)]
                        for p in polys_e
                    ]
                else:
                    vals = [[p.constant_term] * (cfg.order + 1) for p in polys_e]
                rhs = [
                    poly_lincomb(
                        (
                            basis[m],
                            sum(
                                w * vals[n - l][m]
                                for l, w in enumerate(weights[n][m], m)
                            ),
                        )
                        for m in range(n + 1)
                    )
                    for n in range(cfg.order + 1)
                ]
                yield list(polys), rhs

    return gen


def _bernoulli_s_cases(
    cfg: CheckConfig, tag: str, lam_is_one: bool
) -> Callable[[], Iterator[_Case]]:
    def gen() -> Iterator[_Case]:
        for pt in cfg.samples:
            # B_m^{(s)}(x ln c; lam) depends on (ln c, s, lam), not on spec
            x_lnc = Poly((0, pt.ln_c))
            blam = Fraction(1) if lam_is_one else pt.lam
            bpt = ParamPoint(blam, Fraction(0), Fraction(1), Fraction(1))
            bxs = {
                s: [
                    p.substitute(x_lnc)
                    for p in family_series(
                        FamilySpec(APOSTOL_BERNOULLI, alpha=s), bpt, cfg.order
                    ).polys
                ]
                for s in cfg.s_range
            }
            pt_e = replace(pt, ln_c=Fraction(1))
            for spec in _poly_specs(cfg, tag):
                polys = family_series(spec, pt, cfg.order).polys
                nums = numbers_list(spec, pt_e, cfg.order)
                for s in cfg.s_range:
                    bx = bxs[s]
                    # C(n,l) C(n-l,m) = C(n,m) C(n-m,l), so the sum over l
                    # depends on n - m only
                    inner = [
                        sum(
                            binomial(d, l)
                            * Fraction(stirling2(l + s, s), binomial(l + s, s))
                            * nums[d - l]
                            for l in range(d + 1)
                        )
                        for d in range(cfg.order + 1)
                    ]
                    rhs = [
                        poly_lincomb(
                            (bx[m], binomial(n, m) * inner[n - m])
                            for m in range(n + 1)
                        )
                        for n in range(cfg.order + 1)
                    ]
                    yield list(polys), rhs

    return gen


def _frobenius_cases(
    cfg: CheckConfig, tag: str, f_arg_lnc: bool, g_arg_lab: bool
) -> Callable[[], Iterator[_Case]]:
    def gen() -> Iterator[_Case]:
        fpolys = {
            (s, mu): family_series(
                FamilySpec(FROBENIUS, alpha=s, mu=mu), CLASSICAL_POINT, cfg.order
            ).polys
            for s in cfg.s_range
            for mu in cfg.mu_samples
        }
        for pt in cfg.samples:
            # F_m^{(s)}(x; mu) at the Frobenius argument, for every spec
            f_sub = Poly((0, pt.ln_c)) if f_arg_lnc else Poly((0, 1))
            fxs = {
                key: [p.substitute(f_sub) for p in polys]
                for key, polys in fpolys.items()
            }
            jmul = pt.ln_ab if g_arg_lab else Fraction(1)
            pt_e = replace(pt, ln_c=Fraction(1))
            for spec in _poly_specs(cfg, tag):
                polys = family_series(spec, pt, cfg.order).polys
                polys_e = family_series(spec, pt_e, cfg.order).polys
                for s in cfg.s_range:
                    gvals = [
                        [p.evaluate(j * jmul) for j in range(s + 1)]
                        for p in polys_e
                    ]
                    for mu in cfg.mu_samples:
                        fx = fxs[s, mu]
                        inv = Fraction(1) / (1 - mu) ** s
                        # the sum over j depends on n - m only
                        inner = [
                            inv
                            * sum(
                                binomial(s, j) * (-mu) ** (s - j) * g[j]
                                for j in range(s + 1)
                            )
                            for g in gvals
                        ]
                        rhs = [
                            poly_lincomb(
                                (fx[m], binomial(n, m) * inner[n - m])
                                for m in range(n + 1)
                            )
                            for n in range(cfg.order + 1)
                        ]
                        yield list(polys), rhs

    return gen


def explicit_formula_subresults(
    cfg: CheckConfig, tag: str, inject_fault: bool = False
) -> list[CheckResult]:
    """The four explicit formulas, each with its own variant handling."""
    return [
        _run_forms(
            "rising-factorial",
            "P_n(x) = sum_m sum_{l=m..n} S2(l,m) C(n,l) ln(c)^l "
            "P_{n-l}(-m ln c; base) (x)^(m)",
            [_Form(None, _factorial_cases(cfg, tag, rising=True))],
            inject_fault,
        ),
        _run_forms(
            "falling-factorial",
            "P_n(x) = sum_m sum_{l=m..n} S2(l,m) C(n,l) ln(c)^l "
            "P_{n-l}(0; base) (x)_m",
            [_Form(None, _factorial_cases(cfg, tag, rising=False))],
            inject_fault,
        ),
        _run_forms(
            "bernoulli-order-s",
            "P_n(x) = sum_l sum_m C(n,l) S2(l+s,s) C(n-l,m)/C(l+s,s) "
            "P_{n-l-m}(0) B_m^{(s)}(x ln c; lam)",
            [
                _Form(None, _bernoulli_s_cases(cfg, tag, lam_is_one=False)),
                _Form(
                    "order-s Bernoulli factor taken at lam = 1",
                    _bernoulli_s_cases(cfg, tag, lam_is_one=True),
                ),
            ],
            inject_fault,
        ),
        _run_forms(
            "frobenius-order-s",
            "P_n(x) = sum_m C(n,m)/(1-mu)^s sum_{j<=s} C(s,j) (-mu)^{s-j} "
            "P_{n-m}(j) F_m^{(s)}(x; mu)",
            [
                _Form(
                    None,
                    _frobenius_cases(cfg, tag, f_arg_lnc=False, g_arg_lab=False),
                ),
                _Form(
                    "Frobenius argument x ln c",
                    _frobenius_cases(cfg, tag, f_arg_lnc=True, g_arg_lab=False),
                ),
                _Form(
                    "base argument j ln ab",
                    _frobenius_cases(cfg, tag, f_arg_lnc=False, g_arg_lab=True),
                ),
                _Form(
                    "Frobenius argument x ln c and base argument j ln ab",
                    _frobenius_cases(cfg, tag, f_arg_lnc=True, g_arg_lab=True),
                ),
            ],
            inject_fault,
        ),
    ]


def check_explicit_formulas(
    cfg: CheckConfig, *, inject_fault: bool = False
) -> CheckResult:
    return _composite(
        "explicit-formulas",
        "explicit formulas: rising/falling factorial and order-s relations",
        explicit_formula_subresults(cfg, TYPE1, inject_fault),
    )


# --- symmetrized double generating function --------------------------------


def _symmetrized_cases(
    cfg: CheckConfig, from_zero: bool
) -> Callable[[], Iterator[_Case]]:
    nt = nu = min(cfg.order, 8)

    def gen() -> Iterator[_Case]:
        for pt in cfg.samples:
            # expand once at nt; symmetrized_S slices it for each n
            for j in range(nu + 1):
                family_series(
                    FamilySpec(TYPE1, k=-j, alpha=1),
                    pt,
                    nt,
                    polylog_from_zero=from_zero,
                )
            for x0 in cfg.x_samples[:2]:
                for y0 in cfg.y_samples[:2]:
                    grid = [
                        [
                            symmetrized_S(
                                m, n, 1, pt, y0, polylog_from_zero=from_zero
                            ).evaluate(x0)
                            / (factorial(n) * factorial(m))
                            for m in range(nu + 1)
                        ]
                        for n in range(nt + 1)
                    ]
                    lhs = BiSeries((nt, nu), grid)
                    rhs = double_gf_rhs(1, pt, x0, y0, (nt, nu))
                    yield lhs, rhs

    return gen


def check_symmetrized_gf(
    cfg: CheckConfig, *, inject_fault: bool = False
) -> CheckResult:
    return _run_forms(
        "symmetrized-gf",
        "sum_{n,m} S_n^{(m,1)}(x,y) t^n/n! u^m/m! = exp(Au) exp((B+2)t) / "
        "((1 + lam e^t)(e^{2t} - e^{2t+u} + e^u))",
        [
            _Form(None, _symmetrized_cases(cfg, from_zero=False)),
            _Form(
                "polylog sum started at m = 0",
                _symmetrized_cases(cfg, from_zero=True),
            ),
        ],
        inject_fault,
    )


# --- type-2 remark identities -----------------------------------------------


def check_remark_identities(
    cfg: CheckConfig, *, inject_fault: bool = False
) -> CheckResult:
    subs = [
        _run_forms(
            "expansion-in-numbers",
            "type-2 P_n(x) = sum_i C(n,i) ln(c)^{n-i} P_i(0) x^{n-i}",
            [_Form(None, _expansion_cases(cfg, TYPE2))],
            inject_fault,
        ),
        _run_forms(
            "shift-recurrence",
            "type-2 P_n(x+1) = sum_r C(n,r) ln(c)^r P_{n-r}(x)",
            [_Form(None, _shift_cases(cfg, TYPE2))],
            inject_fault,
        ),
        _run_forms(
            "derivative",
            "type-2 d/dx P_{n+1}(x) = (n+1) ln(c) P_n(x)",
            [_Form(None, _derivative_cases(cfg, TYPE2))],
            inject_fault,
        ),
        _run_forms(
            "addition-lnc",
            "type-2 P_n(x+y) = sum_i C(n,i) ln(c)^{n-i} P_i(x) y^{n-i}",
            [_Form(None, _addition_lnc_cases(cfg, TYPE2))],
            inject_fault,
        ),
    ] + explicit_formula_subresults(cfg, TYPE2, inject_fault)
    return _composite(
        "remark-type2",
        "type-2 analogues: expansion, shift, derivative, addition, "
        "rising/falling factorial, order-s relations",
        subs,
    )


# --- suite ------------------------------------------------------------------


def _runner(fn, **kwargs):
    def run(cfg: CheckConfig, inject_fault: bool) -> CheckResult:
        return fn(cfg, inject_fault=inject_fault, **kwargs)

    return run


REGISTRY: dict[str, Callable[[CheckConfig, bool], CheckResult]] = {
    "appell": _runner(check_appell),
    "base-reduction-type1": _runner(check_base_reduction, which=1),
    "base-reduction-type2": _runner(check_base_reduction, which=2),
    "bernoulli-type1": _runner(check_bernoulli_relation, which=1),
    "bernoulli-type2": _runner(check_bernoulli_relation, which=2),
    "expansion-in-numbers": _runner(check_expansion_in_numbers),
    "explicit-formulas": _runner(check_explicit_formulas),
    "remark-type2": _runner(check_remark_identities),
    "shift-recurrence": _runner(check_shift_recurrence),
    "stirling-type1": _runner(check_stirling_relation, which=1),
    "stirling-type2": _runner(check_stirling_relation, which=2),
    "symmetrized-gf": _runner(check_symmetrized_gf),
}

SUITES: dict[str, tuple[str, ...]] = {
    "all": tuple(sorted(REGISTRY)),
    "appell": (
        "appell",
        "base-reduction-type1",
        "base-reduction-type2",
        "expansion-in-numbers",
        "shift-recurrence",
    ),
    "bernoulli": ("bernoulli-type1", "bernoulli-type2"),
    "stirling": ("stirling-type1", "stirling-type2"),
    "symmetrized": ("symmetrized-gf",),
    "type2": (
        "base-reduction-type2",
        "bernoulli-type2",
        "remark-type2",
        "stirling-type2",
    ),
}


def _timestamp() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    ts = int(epoch) if epoch else int(time.time())
    return datetime.fromtimestamp(ts, timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ"
    )


def run_suite(
    cfg: CheckConfig, suite: str = "all", *, inject_fault: bool = False
) -> Report:
    """Run every check in ``suite`` and collect a deterministic Report.

    Results are sorted by check id.  The timestamp honors
    SOURCE_DATE_EPOCH so reports can be byte-identical across runs.
    """
    validate_config(cfg)
    if suite not in SUITES:
        raise ConfigError(
            f"unknown suite {suite!r}; choose from {sorted(SUITES)}"
        )
    results = tuple(
        REGISTRY[check_id](cfg, inject_fault) for check_id in SUITES[suite]
    )
    results = tuple(sorted(results, key=lambda r: r.check_id))
    overall = FAIL if any(r.status == FAIL for r in results) else PASS
    return Report("1.0", suite, cfg, results, overall, _timestamp())
