"""Coefficient-level verification of the family identities.

Every check expands both sides of an identity as exact polynomials (or,
for the double generating function, as rows of exact u-series, one per
power of t) and compares coefficient by coefficient over a configured
grid of parameter points, polylog orders k, and kernel orders alpha.
There are no tolerances: a check passes only on exact equality
everywhere.

Where a stated identity disagrees with what the family definitions imply,
the check first evaluates the statement as printed, then a short list of
derivation-motivated variants.  A passing variant is reported with status
``resolved-variant`` and a note naming the variant; nothing is ever
substituted silently.  The printed form's first mismatch (smallest n,
then smallest x-degree) is recorded either way.

``inject_fault=True`` perturbs one coefficient of the first computed
right-hand side in every evaluated form.  It exists so the test suite can
prove each check is actually capable of failing.

Shape.  Each identity is defined once, as an ``_Identity`` (id, statement,
forms).  A ``_Form`` is the printed statement or one named variant; its
``cases(instance)`` yields the (lhs, rhs) pairs of one ``_Instance``, a
(point, spec) of the grid built from the points, then k, then alpha (the
symmetrized check's instances are its points alone).  An instance builds
its expansions and base reduction on first use, and a memo shared by the
instances of one check run holds the values that depend on less, so the
printed form and every variant read the same ones.  ``CHECKS`` is the one
table: a check runs one identity on one family type, or folds several
(identity, type) pairs into a composite verdict; the type-2 remark runs
the type-1 identities with the type-2 tag.  ``REGISTRY`` is built from it
and is the one way to run a single check:
``REGISTRY[check_id](cfg, inject_fault)``.

Implied instances.  Ten identities are declared ``linear``: the shift,
addition, derivative, number expansion and operator, rising and falling
factorial, order-s Bernoulli and order-s Frobenius formulas.  Their forms
read an instance only through its point, the config, ``polys`` and
``polys_e``, and at a fixed point and family type both row sets are
linear images of the kernel numerators [t^j] K^alpha, j <= order
(``families.kernel_numerators``).  So every case is linear in them, and an
instance whose numerators lie in the span of those of the instances
evaluated before it at its point holds wherever those hold.  ``_implied``
marks such instances once per check run, by fraction-free elimination
against one integer echelon basis per point, and every form of a linear
identity leaves them out: at order N a point evaluates at most N + 1
instances, and at high order only true dependencies are left out, such as
the alpha = 0 repeats (K^0 = 1 for every k).  The witness cannot move: a
form stops at its first mismatch, so each instance before it held or was
implied by ones that held, and a left-out instance would have held too.
An injected fault perturbs the first instance, which is always evaluated
and, since it then does not hold, implies nothing.

Every Appell-shaped right-hand side, sum_m C(n,m) a_{n-m} Q_m(x), is one
``series.binomial_convolution`` call per case: the shift and addition
formulas, the expansion in numbers, the number operator, the Stirling
relations, the order-s Frobenius formula, and the order-s Bernoulli and
rising and falling factorial formulas, whose numbers P_j(0) weigh
polynomials R_r built once per check run from the printed Stirling and
factorial weights.  The expansions are the integer-held rows of
``families.family_series``, each requested at the configured order, which
the symmetrized check caps at K_MAX.  Its left side is one ``ps_mul`` per
t-row: e^{w u} times the type-1 members at k = -j; its right side is
``families.double_gf_rhs``.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from fractions import Fraction
from functools import cached_property, partial
from math import comb, factorial, gcd, lcm
from operator import mul
from typing import Callable, Iterator, Optional, Sequence, Union

from .combinatorics import stirling1_signed, stirling2
from .errors import ConfigError, exact_int, exact_rational
from .families import (
    APOSTOL_BERNOULLI,
    BERNOULLI_T1,
    BERNOULLI_T2,
    FROBENIUS,
    TYPE1,
    TYPE2,
    FamilySpec,
    double_gf_rhs,
    family_series,
    kernel_numerators,
)
from .kernels import CLASSICAL_POINT, K_MAX, ParamPoint
from .series import (
    Poly,
    Series,
    binomial_convolution,
    poly_lincomb,
    ps_exp_linear,
    ps_ipow,
    ps_mul,
)

PASS = "pass"
FAIL = "fail"
RESOLVED = "resolved-variant"


# each integer range field: the rule its elements keep, and its wording
_INT_RULES = {
    "k_range": (lambda k: abs(k) <= K_MAX, f"|k| <= {K_MAX}"),
    "alpha_range": (lambda a: a >= 0, "alpha >= 0"),
    "s_range": (lambda s: s >= 1, "s >= 1"),
}
_RATIONAL_FIELDS = ("mu_samples", "x_samples", "y_samples")


@dataclass(frozen=True)
class CheckConfig:
    """Grid over which every identity is checked exactly; an invalid or
    empty field raises ConfigError when it is built, so no check runs on
    a grid that could pass vacuously or compare floats."""

    order: int = 16
    samples: tuple[ParamPoint, ...] = field(kw_only=True)
    k_range: tuple[int, ...] = (-2, -1, 0, 1, 2, 3)
    alpha_range: tuple[int, ...] = (0, 1, 2, 3)
    s_range: tuple[int, ...] = (1, 2)
    mu_samples: tuple[Fraction, ...] = (Fraction(-1), Fraction(1, 2))
    x_samples: tuple[Fraction, ...] = (Fraction(1, 3), Fraction(-1, 2))
    y_samples: tuple[Fraction, ...] = (Fraction(0), Fraction(1), Fraction(-1, 2))
    seed: int = 0

    def __post_init__(self) -> None:
        if exact_int(self.order, "order") < 1:
            raise ConfigError(f"order must be positive, got {self.order}")
        exact_int(self.seed, "seed")
        for name in ("samples", *_INT_RULES, *_RATIONAL_FIELDS):
            values = tuple(getattr(self, name))
            if not values:
                raise ConfigError(f"{name} must be nonempty")
            if name in _RATIONAL_FIELDS:
                values = tuple(exact_rational(v, f"{name} element") for v in values)
            object.__setattr__(self, name, values)
        for pt in self.samples:
            if not isinstance(pt, ParamPoint):
                raise ConfigError(f"a sample must be a ParamPoint, got {pt!r}")
            if 1 + pt.lam == 0:
                raise ConfigError("sample with lam = -1 is singular")
            if pt.ln_ab == 0:
                raise ConfigError("sample with ln a + ln b = 0 is singular")
        for name, (ok, rule) in _INT_RULES.items():
            for v in getattr(self, name):
                if not ok(exact_int(v, f"{name} element")):
                    raise ConfigError(f"{name} needs {rule}, got {v}")
        if 1 in self.mu_samples:
            raise ConfigError("mu = 1 is singular for Frobenius factors")


def default_samples(seed: int) -> tuple[ParamPoint, ...]:
    """Five parameter points: classical, lam = 0, ln c = 0, two random.

    Random points have small-height rationals with lam outside {-1, 0, 1},
    ln(ab) != 0, and ln c outside {0, 1}, so degenerate and generic cases
    are both always present.  Deterministic for a fixed seed.
    """
    rng = random.Random(exact_int(seed, "seed"))
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


_Case = tuple[Sequence[Union[Poly, Series]], Sequence[Union[Poly, Series]]]


@dataclass
class _Instance:
    """One (point, spec) of a check's grid; ``spec`` is None for the
    symmetrized check, whose grid is its points alone.

    Members are built on first use, so the printed form and every variant
    read the same expansions.  ``memo`` is shared by every instance of one
    check run.
    """

    cfg: CheckConfig
    pt: ParamPoint
    spec: Optional[FamilySpec]
    memo: dict

    @cached_property
    def polys(self) -> tuple[Poly, ...]:
        return family_series(self.spec, self.pt, self.cfg.order).polys

    @cached_property
    def polys_e(self) -> tuple[Poly, ...]:
        """The ln c = 1 member, where the plain Appell sequence lives."""
        pt_e = replace(self.pt, ln_c=Fraction(1))
        return family_series(self.spec, pt_e, self.cfg.order).polys

    def reduced(self, spec: FamilySpec) -> list[Poly]:
        """ln(ab)^n Q_n((x ln c + alpha ln a)/ln(ab)) for n <= order, Q the
        member of ``spec`` at ln a = 0, ln b = ln c = 1."""
        return self.shared(_reduced, spec, self.pt, self.cfg.order)

    def shared(self, build, *args):
        """build(*args), computed once per check run: for values that
        depend on less than (point, spec)."""
        key = (build, *args)
        try:
            return self.memo[key]
        except KeyError:
            pass
        value = self.memo[key] = build(*args)
        return value


@dataclass(frozen=True)
class _Form:
    note: Optional[str]  # None marks the statement as printed
    cases: Callable[[_Instance], Iterator[_Case]]


@dataclass(frozen=True)
class _Identity:
    check_id: str
    statement: str
    forms: tuple[_Form, ...]  # the printed form first, then the variants
    # the forms read an instance only through pt, cfg, polys and polys_e,
    # so every case is linear in the instance's kernel numerators
    linear: bool = False


def _compare(lhs, rhs) -> Optional[Mismatch]:
    """First mismatch of two sides of one shape, row by row: polynomials
    in x, or u-series.  Sides of different lengths or rows of different
    u-orders are a fault of the form, not a mismatch."""
    if len(lhs) != len(rhs):
        raise ValueError(f"sides of lengths {len(lhs)} and {len(rhs)}")
    rows = list(zip(lhs, rhs))
    for n, (a, b) in enumerate(rows):
        if isinstance(a, Series) and a.order != b.order:
            raise ValueError(f"row {n} of u-orders {a.order} and {b.order}")
    for n, (a, b) in enumerate(rows):
        if a != b:
            for d in range(max(len(a.coeffs), len(b.coeffs))):
                ca, cb = a.coefficient(d), b.coefficient(d)
                if ca != cb:
                    return Mismatch(n, d, str(ca), str(cb))
    return None


def _perturb(rhs):
    bumped = list(rhs)
    first = bumped[0]
    if isinstance(first, Series):
        bumped[0] = first + Series.one(first.order)
    else:
        bumped[0] = first + Poly.constant(1)
    return bumped


def _evaluate_form(
    form: _Form, instances: Sequence[_Instance], inject_fault: bool
) -> Optional[Mismatch]:
    injected = False
    for inst in instances:
        for lhs, rhs in form.cases(inst):
            if inject_fault and not injected:
                rhs = _perturb(rhs)
                injected = True
            mismatch = _compare(lhs, rhs)
            if mismatch is not None:
                return mismatch
    return None


def _grid(
    tag: Optional[str], cfg: CheckConfig
) -> list[tuple[ParamPoint, Optional[FamilySpec]]]:
    """The (point, spec) pairs of a check's grid: the points, then k, then
    alpha, each spec of family type ``tag``; with no tag, the points."""
    specs = [None]
    if tag is not None:
        specs = [
            FamilySpec(tag, k=k, alpha=a) for k in cfg.k_range for a in cfg.alpha_range
        ]
    return [(pt, spec) for pt in cfg.samples for spec in specs]


def _reduce(
    vec: Sequence[int], basis: list[tuple[int, Sequence[int]]]
) -> Sequence[int]:
    """``vec`` less its part in the span of ``basis``, fraction-free: each
    (pivot, row) of the echelon basis is zero at the pivots before it, so
    the result is zero at every pivot, and zero exactly when ``vec`` is in
    the span."""
    for pivot, row in basis:
        c = vec[pivot]
        if c:
            r = row[pivot]
            vec = [r * a - c * b for a, b in zip(vec, row)]
            g = gcd(*vec)
            if g > 1:
                vec = [a // g for a in vec]
    return vec


def _implied(tag: str, cfg: CheckConfig, withhold_first: bool) -> list[bool]:
    """Per (point, spec) of ``_grid(tag, cfg)``: whether its kernel
    numerators are in the span of those of the evaluated instances before
    it at the same point.  A linear form that held at those holds there.

    The first instance is always evaluated.  Under ``withhold_first`` (an
    injected fault, which perturbs the first instance) its numerators do
    not enter the span, since it does not hold.  At order N a point spans
    at most N + 1 dimensions; from there on every instance is implied.
    """
    size = cfg.order + 1
    bases: dict[ParamPoint, list[tuple[int, Sequence[int]]]] = {}
    flags = []
    for index, (pt, spec) in enumerate(_grid(tag, cfg)):
        basis = bases.setdefault(pt, [])
        if len(basis) == size:
            flags.append(True)
            continue
        vec = _reduce(kernel_numerators(spec, pt, cfg.order), basis)
        pivot = next((d for d, c in enumerate(vec) if c), None)
        flags.append(pivot is None and index > 0)
        if pivot is not None and not (withhold_first and index == 0):
            basis.append((pivot, vec))
    return flags


def _run_forms(
    identity: _Identity,
    tag: Optional[str],
    cfg: CheckConfig,
    inject_fault: bool,
    memo: dict,
) -> CheckResult:
    """Evaluate the printed form, then every variant; report the outcome.

    The instances are those of ``_grid(tag, cfg)``; a linear identity
    leaves out those ``_implied`` by the ones before them.  All variants
    are evaluated (no short-circuit among them) so the note can honestly
    say whether exactly one passed.
    """
    start = time.perf_counter()
    instances = [_Instance(cfg, pt, spec, memo) for pt, spec in _grid(tag, cfg)]
    if identity.linear:
        implied = instances[0].shared(_implied, tag, cfg, inject_fault)
        instances = [inst for inst, skip in zip(instances, implied) if not skip]
    check_id, statement = identity.check_id, identity.statement
    printed, *variants = identity.forms
    printed_mismatch = _evaluate_form(printed, instances, inject_fault)
    if printed_mismatch is None:
        elapsed = (time.perf_counter() - start) * 1000
        return CheckResult(check_id, statement, PASS, None, None, elapsed)
    passing = [
        form.note
        for form in variants
        if _evaluate_form(form, instances, inject_fault) is None
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
    if not failed and not resolved:
        return CheckResult(check_id, statement, PASS, None, None, elapsed)
    status, first = (FAIL, failed[0]) if failed else (RESOLVED, resolved[0])
    return CheckResult(
        check_id, statement, status, note, first.first_mismatch, elapsed
    )


# --- values shared by the instances of one check run ------------------------


def _base_member(
    spec: FamilySpec, lam: Fraction, affine: Poly, order: int
) -> list[Poly]:
    """Q_n(affine(x)) for n <= order, Q the member of ``spec`` at
    (lam, ln a = 0, ln b = 1, ln c = 1)."""
    base_pt = ParamPoint(lam, Fraction(0), Fraction(1), Fraction(1))
    return [p.substitute(affine) for p in family_series(spec, base_pt, order).polys]


def _reduced(spec: FamilySpec, pt: ParamPoint, order: int) -> list[Poly]:
    lab = pt.ln_ab
    affine = Poly((spec.alpha * pt.ln_a / lab, pt.ln_c / lab))
    base = _base_member(spec, pt.lam, affine, order)
    return [q * lab**n for n, q in enumerate(base)]


def _factorial_rows(rising: bool, ln_c: Fraction, order: int) -> list[Poly]:
    """R_r = sum_m basis_m(x) sum_{l<=r} C(r,l) S2(l,m) ln(c)^l y_m^{r-l}
    for r <= order: the rising factorials (x)^(m) with y_m = -m ln c, or
    the falling factorials (x)_m with y_m = 0.

    With ln c = u/v, y_m is ys[m]/v, so every term of R_r is over v^r and
    each row is integer numerators over that one denominator.  The bases
    are rows of signed first-kind numbers: s(m, d) for (x)_m and
    (-1)^(m-d) s(m, d) for (x)^(m).
    """
    sign = -1 if rising else 1
    bases = [
        [sign ** (m - d) * stirling1_signed(m, d) for d in range(m + 1)]
        for m in range(order + 1)
    ]
    u, v = ln_c.numerator, ln_c.denominator
    ys = [-m * u if rising else 0 for m in range(order + 1)]
    rows = []
    for r in range(order + 1):
        nums = [0] * (r + 1)
        for m in range(r + 1):
            w = sum(
                comb(r, l) * stirling2(l, m) * u**l * ys[m] ** (r - l)
                for l in range(m, r + 1)
            )
            if w:
                for d, c in enumerate(bases[m]):
                    nums[d] += w * c
        rows.append(Poly.from_ints(nums, v**r))
    return rows


# --- the identities: each form yields (lhs, rhs) cases for one instance ------


def _addition(at_e: bool, shift_only: bool = False):
    """P_n(x+y) = sum_i C(n,i) (y ln c)^{n-i} P_i(x).

    ``shift_only`` takes y = 1, the shift recurrence; ``at_e`` takes the
    ln c = 1 member, the plain Appell addition formula.
    """

    def cases(inst: _Instance) -> Iterator[_Case]:
        polys = inst.polys_e if at_e else inst.polys
        ln_c = Fraction(1) if at_e else inst.pt.ln_c
        for y in (1,) if shift_only else inst.cfg.y_samples:
            shift = Poly((y, 1))
            lhs = [p.substitute(shift) for p in polys]
            powers = [(y * ln_c) ** j for j in range(inst.cfg.order + 1)]
            yield lhs, binomial_convolution(powers, polys)

    return cases


def _expansion_cases(inst: _Instance) -> Iterator[_Case]:
    ln_c = inst.pt.ln_c
    nums = [p.constant_term for p in inst.polys]
    powers = [Poly.monomial(m, ln_c**m) for m in range(inst.cfg.order + 1)]
    yield inst.polys, binomial_convolution(nums, powers)


def _base_reduction_cases(inst: _Instance) -> Iterator[_Case]:
    yield inst.polys, inst.reduced(inst.spec)


def _derivative_cases(inst: _Instance) -> Iterator[_Case]:
    polys, ln_c, order = inst.polys, inst.pt.ln_c, inst.cfg.order
    lhs = [polys[n + 1].derivative() for n in range(order)]
    rhs = [polys[n] * ((n + 1) * ln_c) for n in range(order)]
    yield lhs, rhs


def _operator_cases(inst: _Instance) -> Iterator[_Case]:
    # the numbers P_i(0) do not involve ln c
    nums = [p.constant_term for p in inst.polys]
    powers = [Poly.monomial(m) for m in range(inst.cfg.order + 1)]
    yield binomial_convolution(nums, powers), inst.polys_e


def _bernoulli_cases(inst: _Instance) -> Iterator[_Case]:
    pt, spec, alpha, order = inst.pt, inst.spec, inst.spec.alpha, inst.cfg.order
    btag = BERNOULLI_T1 if spec.tag == TYPE1 else BERNOULLI_T2
    bspec = FamilySpec(btag, k=spec.k, alpha=alpha)
    lab2 = 2 * pt.ln_ab
    terms = []
    for j in range(alpha + 1):
        weight = comb(alpha, j) * Fraction(-1) ** j * pt.lam ** (alpha - j)
        if weight != 0:
            shift = ((alpha - j) * pt.ln_b + (2 * alpha - j) * pt.ln_a) / lab2
            affine = Poly((shift, pt.ln_c / lab2))
            terms.append((_base_member(bspec, pt.lam**2, affine, order), weight))
    rhs = [
        poly_lincomb((b[n], w * lab2**n) for b, w in terms)
        for n in range(order + 1)
    ]
    yield inst.polys, rhs


def stirling_weights(
    which: int, k: int, rate: Fraction, jmax: int, oriented: bool = False
) -> tuple[Fraction, ...]:
    """c_j = rate^j/(j+1) sum_{m<=j} w_m (m+1)^{1-k} for j <= jmax, the
    weights of the Stirling relation of family type ``which``.

    Type 1 takes w_m = (-1)^{m+1} m! S2(j+1,m+1), the m! from reindexing
    the polylog sum, or (-1)^m m! S2(j+1,m+1) when ``oriented``; type 2
    takes w_m = s1(j+1,m+1).  The printed relation has rate = 2 ln(ab).
    """
    # the factors of w_m that do not depend on j, times (m+1)^{1-k}, as
    # integers over one denominator, so each m-sum runs over ints
    factors = [Fraction(m + 1) ** (1 - k) for m in range(jmax + 1)]
    if which == 1:
        sign = 1 if oriented else -1
        factors = [sign * (-1) ** m * factorial(m) * f for m, f in enumerate(factors)]
    den = lcm(*(f.denominator for f in factors))
    nums = [f.numerator * (den // f.denominator) for f in factors]
    stirling = stirling2 if which == 1 else stirling1_signed
    out = []
    power = Fraction(1)
    for j in range(jmax + 1):
        acc = sum(c * stirling(j + 1, m + 1) for m, c in enumerate(nums[: j + 1]))
        out.append(power * Fraction(acc, (j + 1) * den))
        power *= rate
    return tuple(out)


def stirling_convolution(
    c: Sequence[Fraction], alpha: int, jmax: int
) -> tuple[Fraction, ...]:
    """d_j = sum over compositions of j into alpha parts of
    multinomial(j; parts) prod_i c_{part_i}; alpha = 1 gives d = c.

    d is the alpha-th power of c under the binomial convolution,
    d_j = j! [t^j] (sum_i c_i t^i / i!)^alpha, so it is one ``ps_ipow``
    of that exponential generating function: O(log(alpha) jmax^2), not
    one term per composition.
    """
    egf = Series(
        jmax, [Fraction(v, factorial(i)) for i, v in enumerate(c[: jmax + 1])]
    )
    return tuple(
        factorial(j) * v for j, v in enumerate(ps_ipow(egf, alpha).coeffs)
    )


def _stirling(which: int, flip: bool, oriented: bool):
    def cases(inst: _Instance) -> Iterator[_Case]:
        spec, lab, order = inst.spec, inst.pt.ln_ab, inst.cfg.order
        scaled = inst.reduced(FamilySpec(spec.tag, k=1, alpha=spec.alpha))
        rate = -2 * lab if flip else 2 * lab
        c = inst.shared(stirling_weights, which, spec.k, rate, order, oriented)
        if oriented and spec.k == 1:
            # the m!(m+1)^{1-k} weights cancel at k = 1: sanity-pin the
            # oriented variant's classical limit
            assert c[0] == 1 and all(v == 0 for v in c[1:])
        d = inst.shared(stirling_convolution, c, spec.alpha, order)
        yield inst.polys, binomial_convolution(d, scaled)

    return cases


def _factorial(rising: bool):
    """Rising factorials (x)^(m) weighted by P_{n-l}(-m ln c; base), or
    falling factorials (x)_m weighted by P_{n-l}(0; base).

    With P_d(y; base) = sum_j C(d,j) P_j(0) y^{d-j}, the double sum is
    sum_j C(n,j) P_j(0) R_{n-j}(x), R the ``_factorial_rows``.
    """

    def cases(inst: _Instance) -> Iterator[_Case]:
        rows = inst.shared(_factorial_rows, rising, inst.pt.ln_c, inst.cfg.order)
        nums = [p.constant_term for p in inst.polys_e]
        yield inst.polys, binomial_convolution(nums, rows)

    return cases


def _bernoulli_rows(s: int, lam: Fraction, ln_c: Fraction, order: int) -> list[Poly]:
    """sum_l C(r,l) S2(l+s,s)/C(l+s,s) B_{r-l}^{(s)}(x ln c; lam) for
    r <= order: the l-sum of the order-s Bernoulli formula, which
    C(n,l) C(n-l,m) = C(n,m) C(n-m,l) makes a function of n - m only."""
    bspec = FamilySpec(APOSTOL_BERNOULLI, alpha=s)
    bx = _base_member(bspec, lam, Poly((0, ln_c)), order)
    weights = [Fraction(stirling2(l + s, s), comb(l + s, s)) for l in range(order + 1)]
    return binomial_convolution(weights, bx)


def _bernoulli_order_s(lam_is_one: bool):
    def cases(inst: _Instance) -> Iterator[_Case]:
        pt, order = inst.pt, inst.cfg.order
        blam = Fraction(1) if lam_is_one else pt.lam
        nums = [p.constant_term for p in inst.polys_e]
        for s in inst.cfg.s_range:
            rows = inst.shared(_bernoulli_rows, s, blam, pt.ln_c, order)
            yield inst.polys, binomial_convolution(nums, rows)

    return cases


def _frobenius_moments(
    s: int, mu: Fraction, jmul: Fraction, order: int
) -> tuple[tuple[int, ...], int]:
    """M_d = sum_{j<=s} C(s,j) (-mu)^{s-j} (j jmul)^d / (1-mu)^s for
    d <= order, as the integer form of sum_d M_d x^d (``Poly.ints``).

    The j-sum of the Frobenius formula, sum_j C(s,j) (-mu)^{s-j}
    P_n(j jmul) / (1-mu)^s, is sum_d [x^d]P_n M_d: one integer dot
    product per n in place of s + 1 evaluations.
    """
    inv = Fraction(1) / (1 - mu) ** s
    weights = [inv * comb(s, j) * (-mu) ** (s - j) for j in range(s + 1)]
    points = [j * jmul for j in range(s + 1)]
    return Poly(
        sum(w * x**d for w, x in zip(weights, points)) for d in range(order + 1)
    ).ints


def _frobenius_order_s(f_arg_lnc: bool, g_arg_lab: bool):
    def cases(inst: _Instance) -> Iterator[_Case]:
        pt, order = inst.pt, inst.cfg.order
        f_arg = Poly((0, pt.ln_c if f_arg_lnc else 1))
        jmul = pt.ln_ab if g_arg_lab else Fraction(1)
        for s in inst.cfg.s_range:
            for mu in inst.cfg.mu_samples:
                # F_m^{(s)}(x; mu) at the Frobenius argument
                fspec = FamilySpec(FROBENIUS, alpha=s, mu=mu)
                fx = inst.shared(_base_member, fspec, Fraction(1), f_arg, order)
                moments, m_den = inst.shared(_frobenius_moments, s, mu, jmul, order)
                # the sum over j depends on n - m only
                inner = [
                    Fraction(sum(map(mul, nums, moments)), den * m_den)
                    for nums, den in (p.ints for p in inst.polys_e)
                ]
                yield inst.polys, binomial_convolution(inner, fx)

    return cases


def _symmetrized(from_zero: bool):
    def cases(inst: _Instance) -> Iterator[_Case]:
        cfg, pt = inst.cfg, inst.pt
        # the u-order m reaches polylog order k = -m, so |k| <= K_MAX caps it
        nt = nu = min(cfg.order, K_MAX)
        members = [
            family_series(
                FamilySpec(TYPE1, k=-j, alpha=1),
                pt,
                nt,
                polylog_from_zero=from_zero,
            ).polys
            for j in range(nu + 1)
        ]
        lab = pt.ln_ab
        # S_n^{(m,1)}(x, y) = sum_j C(m,j) G_n^{(-j,1)}(x) w^{m-j} / ln(ab)^n
        # is a binomial sum over j, so sum_m S_n^{(m,1)} u^m/m! is e^{w u}
        # times sum_j G_n^{(-j,1)}(x) u^j/j!, over ln(ab)^n
        for x0 in cfg.x_samples[:2]:
            rows = [
                Series(
                    nu,
                    (
                        members[j][n].evaluate(x0)
                        / (factorial(n) * factorial(j) * lab**n)
                        for j in range(nu + 1)
                    ),
                )
                for n in range(nt + 1)
            ]
            for y0 in cfg.y_samples[:2]:
                exp_wu = ps_exp_linear((y0 * pt.ln_c + pt.ln_a) / lab, nu)
                lhs = [ps_mul(exp_wu, row) for row in rows]
                yield lhs, double_gf_rhs(pt, x0, y0, (nt, nu))

    return cases


_SHIFT = _Identity(
    "shift-recurrence",
    "P_n(x+1) = sum_{r<=n} C(n,r) ln(c)^r P_{n-r}(x)",
    (_Form(None, _addition(at_e=False, shift_only=True)),),
    linear=True,
)
_EXPANSION = _Identity(
    "expansion-in-numbers",
    "P_n(x) = sum_{i<=n} C(n,i) ln(c)^{n-i} P_i(0) x^{n-i}",
    (_Form(None, _expansion_cases),),
    linear=True,
)
_DERIVATIVE = _Identity(
    "derivative",
    "d/dx P_{n+1}(x) = (n+1) ln(c) P_n(x)",
    (_Form(None, _derivative_cases),),
    linear=True,
)
_NUMBER_OPERATOR = _Identity(
    "number-operator",
    "sum_i C(n,i) P_i(0) x^{n-i} equals the ln c = 1 member",
    (_Form(None, _operator_cases),),
    linear=True,
)
_ADDITION_PLAIN = _Identity(
    "addition-plain",
    "P_n(x+y) = sum_i C(n,i) P_i(x) y^{n-i} at ln c = 1",
    (_Form(None, _addition(at_e=True)),),
    linear=True,
)
_ADDITION_LNC = _Identity(
    "addition-lnc",
    "P_n(x+y) = sum_i C(n,i) ln(c)^{n-i} P_i(x) y^{n-i}",
    (_Form(None, _addition(at_e=False)),),
    linear=True,
)
_EXPLICIT_FORMULAS = (
    _Identity(
        "rising-factorial",
        "P_n(x) = sum_m sum_{l=m..n} S2(l,m) C(n,l) ln(c)^l "
        "P_{n-l}(-m ln c; base) (x)^(m)",
        (_Form(None, _factorial(rising=True)),),
        linear=True,
    ),
    _Identity(
        "falling-factorial",
        "P_n(x) = sum_m sum_{l=m..n} S2(l,m) C(n,l) ln(c)^l "
        "P_{n-l}(0; base) (x)_m",
        (_Form(None, _factorial(rising=False)),),
        linear=True,
    ),
    _Identity(
        "bernoulli-order-s",
        "P_n(x) = sum_l sum_m C(n,l) S2(l+s,s) C(n-l,m)/C(l+s,s) "
        "P_{n-l-m}(0) B_m^{(s)}(x ln c; lam)",
        (
            _Form(None, _bernoulli_order_s(lam_is_one=False)),
            _Form(
                "order-s Bernoulli factor taken at lam = 1",
                _bernoulli_order_s(lam_is_one=True),
            ),
        ),
        linear=True,
    ),
    _Identity(
        "frobenius-order-s",
        "P_n(x) = sum_m C(n,m)/(1-mu)^s sum_{j<=s} C(s,j) (-mu)^{s-j} "
        "P_{n-m}(j) F_m^{(s)}(x; mu)",
        tuple(
            _Form(note, _frobenius_order_s(f_arg_lnc, g_arg_lab))
            for note, f_arg_lnc, g_arg_lab in (
                (None, False, False),
                ("Frobenius argument x ln c", True, False),
                ("base argument j ln ab", False, True),
                ("Frobenius argument x ln c and base argument j ln ab", True, True),
            )
        ),
        linear=True,
    ),
)
_SYMMETRIZED = _Identity(
    "symmetrized-gf",
    "sum_{n,m} S_n^{(m,1)}(x,y) t^n/n! u^m/m! = exp(Au) exp((B+2)t) / "
    "((1 + lam e^t)(e^{2t} - e^{2t+u} + e^u))",
    (
        _Form(None, _symmetrized(from_zero=False)),
        _Form("polylog sum started at m = 0", _symmetrized(from_zero=True)),
    ),
)


def _typed_identities(tag: str) -> tuple[tuple[_Identity, str], ...]:
    """The base-reduction, Bernoulli and Stirling relations of one type."""
    which = 1 if tag == TYPE1 else 2
    kind = "S2" if which == 1 else "s1"
    identities = (
        _Identity(
            f"base-reduction-type{which}",
            "P_n(x; lam,a,b,c) = ln(ab)^n P_n((x ln c + alpha ln a)/ln(ab); lam)",
            (_Form(None, _base_reduction_cases),),
        ),
        _Identity(
            f"bernoulli-type{which}",
            "P_n(x) = sum_{j<=alpha} C(alpha,j) (-1)^j lam^{alpha-j} 2^n "
            "ln(ab)^n B_n(((alpha-j) ln b + x ln c + (2 alpha - j) ln a)"
            "/(2 ln ab); lam^2)",
            (_Form(None, _bernoulli_cases),),
        ),
        _Identity(
            f"stirling-type{which}",
            "P_n(x) = sum_{j<=n} C(n,j) ln(ab)^{n-j} "
            "Q_{n-j}((x ln c + alpha ln a)/ln(ab); lam) d_j, "
            f"d_j the alpha-fold convolution of {kind}-weighted c_j",
            tuple(
                _Form(note, _stirling(which, flip, oriented))
                for note, flip, oriented in (
                    (None, False, False),
                    ("power sign flip: (2 ln ab)^j -> (-2 ln ab)^j", True, False),
                    (
                        "definition orientation: coefficients rebuilt from the "
                        "(ab)^{-2t} series, c_j = sum_m (-1)^m (-2 ln ab)^j m! "
                        "S2(j+1,m+1) / ((j+1)(m+1)^{k-1})",
                        True,
                        True,
                    ),
                )[: 3 if which == 1 else 2]
            ),
        ),
    )
    return tuple((identity, tag) for identity in identities)


# check id -> (statement, (identity, family type) parts).  A check of one
# part has statement None and reports that identity's own id and
# statement; a check of several folds them into one composite verdict.
CHECKS: dict[str, tuple[Optional[str], tuple[tuple[_Identity, Optional[str]], ...]]] = {
    "appell": (
        "Appell structure: derivative, number expansion, addition formulas",
        tuple(
            (identity, TYPE1)
            for identity in (
                _DERIVATIVE, _NUMBER_OPERATOR, _ADDITION_PLAIN, _ADDITION_LNC
            )
        ),
    ),
    "explicit-formulas": (
        "explicit formulas: rising/falling factorial and order-s relations",
        tuple((identity, TYPE1) for identity in _EXPLICIT_FORMULAS),
    ),
    "remark-type2": (
        "type-2 analogues: expansion, shift, derivative, addition, "
        "rising/falling factorial, order-s relations",
        tuple(
            (identity, TYPE2)
            for identity in (
                _EXPANSION, _SHIFT, _DERIVATIVE, _ADDITION_LNC,
                *_EXPLICIT_FORMULAS,
            )
        ),
    ),
    **{
        identity.check_id: (None, ((identity, tag),))
        for identity, tag in (
            (_SHIFT, TYPE1),
            (_EXPANSION, TYPE1),
            (_SYMMETRIZED, None),
            *_typed_identities(TYPE1),
            *_typed_identities(TYPE2),
        )
    },
}


def _run_parts(parts, cfg: CheckConfig, inject_fault: bool) -> list[CheckResult]:
    memo: dict = {}
    return [
        _run_forms(identity, tag, cfg, inject_fault, memo)
        for identity, tag in parts
    ]


def _run_check(
    check_id: str, cfg: CheckConfig, inject_fault: bool = False
) -> CheckResult:
    statement, parts = CHECKS[check_id]
    results = _run_parts(parts, cfg, inject_fault)
    if statement is None:
        return results[0]
    return _composite(check_id, statement, results)


# --- suite ------------------------------------------------------------------


REGISTRY: dict[str, Callable[[CheckConfig, bool], CheckResult]] = {
    check_id: partial(_run_check, check_id) for check_id in sorted(CHECKS)
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
