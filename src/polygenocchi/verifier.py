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

Every comparison goes through ``_compare``, so a test can show that each
check is able to fail by replacing it with one that perturbs the right
side: such a fault takes the path a run takes, basis proofs included.

Shape.  Each identity is defined once, as an ``_Identity`` (id, statement,
forms).  A ``_Form`` is the printed statement or one named variant; its
``cases(instance)`` yields the (lhs, rhs) pairs of one ``_Instance``, a
(point, spec) of the grid built from the points, then k, then alpha (the
symmetrized check's instances are its points alone).  An instance owns
one value, its kernel K^alpha, built on first use; its rows are
``appell_rows`` of it at ln c and at ln c = 1.  One store per run holds
all a run builds, and it is one memo (``families.shared``): each value
build(*args) is kept under (build, *args), so it can be rebuilt from its
key alone.  The kernels and their powers (``families.kernel_power``) are
such values, and so is every value that depends on less than an
instance, through ``_Instance.shared``: row sets keyed by
(appell_rows, kernel, rate, order) among them, so instances of one
kernel (alpha = 0 at every k) share their rows, and the printed form and
every variant read the same ones.  The basis verdict tables below are
the one other kind of entry.  ``CHECKS`` is the one table: a check runs
one identity on one family type, or folds several (identity, type) pairs
into a composite verdict; the type-2 remark runs the type-1 identities
with the type-2 tag.  ``REGISTRY`` is built from it and is the one way to
run a single check: ``REGISTRY[check_id](cfg, store)``, the store
optional.  ``run_suite`` hands every check its store; a check run alone
makes its own.

Basis verdicts.  Ten identities are declared ``linear``: the shift,
addition, derivative, number expansion and operator, rising and falling
factorial, order-s Bernoulli and order-s Frobenius formulas.  Their
forms read an instance only through its point, the config, ``polys`` and
``polys_e``, and at a point both row sets are linear images of the
kernel coefficients [t^j] K^alpha, j <= order, whatever the tag, k or
alpha.  So a form that holds on the kernels t^j, j <= order
(``_BasisInstance``, an instance whose kernel is t^j) holds for every
kernel at that point, and its grid instances there are skipped.  Where
the basis fails, the point's grid instances run in grid order as for any
other form, so the first mismatch is the one the whole grid gives.  A
basis proof sees its point through a recorder of the fields it reads,
and the run's store keeps its verdict in the form's table, under the
key (``_basis_verdict``, form), by those (name, value) pairs.  A later
point whose values agree on every recorded name runs the same
computation, so it reuses the verdict.  The basis
rows at ln c read only ln c and those at ln c = 1 read nothing, so most
forms are proved once per distinct ln c, and the plain addition formula
and the number operator (whose numbers come from the ln c = 1 rows) once
per run; the printed order-s Bernoulli form also reads lam, and the
j ln ab Frobenius variants ln ab.  Checks that share a form (the type-2
remark and the type-1 checks) prove it once.  The basis kernel t^j is a
value of the run's store per (order, j).  Inside a linear form a store
key holds point values read through the recorder, never the point
itself, so every verdict keeps the (name, value) pairs its proof read.

Kernel sides.  The base-reduction, Bernoulli and Stirling relations
compare generating functions G, one series per side, standing for the
rows n! [t^n] G(t) e^{x t ln c}: the instance's K^alpha against
K_base(ln(ab) t) e^{alpha ln a t}, the printed sum of B(2 ln(ab) t)
e^{r_j t}, or D(t) times the k = 1 reduction, each O(order^2).  D is
C^alpha for the weight series C, each power a value of the run's store
under (ps_mul, C^(a-1), C) (``families.stored_power``), one ``ps_mul``
per new power.  Row n's x^0 coefficient is n! G_n at every rate, so the
first unequal coefficient is the rows' first mismatch, at x-degree 0.

Every other Appell-shaped right-hand side, sum_m C(n,m) a_{n-m} Q_m(x), is
``inst.shared(binomial_convolution, a, Q)``: a value of the run's store,
keyed by the scalar series a (exponential coefficients a_j) and the rows
Q, and so built once per run however many forms, checks or points ask
for it.  The shift and addition formulas take a = e^{y ln c t}; the
expansion in numbers, the number operator and the rising and falling
factorial and order-s Bernoulli formulas take the numbers P_j(0), from
the rows' integer constant terms, against the powers (x ln c)^m or
against polynomials R_r built once per run from the printed Stirling,
factorial and Bernoulli weights; the order-s Frobenius formula takes
integer dot products of the rows with its moments.  The shift is the
y = 1 case of the ln c addition formula, the factorial rows equal the
powers (x ln c)^m, and the printed Frobenius right side does not depend
on ln c, so each of these is built once.  The shifted rows P_n(x + y),
the kernel sides above and the symmetrized products are store values too.
Shared values are tuples or immutable series: no comparison can change one.
Every kernel and expansion is requested at the configured order, which
the symmetrized check caps at K_MAX.  Its left side is one ``ps_mul`` per
t-row: e^{w u} times u-rows read from the products K_{-j}(t)
e^{x0 t ln c} of the type-1 kernels at k = -j; its right side is
``families.double_gf_rhs`` per (point, x0, y0, orders).  Its variant
"polylog sum started at m = 0" changes K_0 alone: the m = 0 term
z^0/0^k is 1 at k = 0 and 0 below, so the variant adds
1/(e^{-t ln a} + lam e^{t ln b}), a store value per (point, order), to
K_0 and reads the printed form's other kernels.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from functools import cached_property, partial
from itertools import groupby
from math import comb, factorial, lcm
from operator import attrgetter, mul
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union

from .combinatorics import stirling1_signed, stirling2
from .errors import ConfigError, Immutable, exact_int, exact_rational
from .families import (
    APOSTOL_BERNOULLI,
    BERNOULLI_T1,
    BERNOULLI_T2,
    FROBENIUS,
    TYPE1,
    TYPE2,
    FamilySpec,
    appell_rows,
    double_gf_rhs,
    kernel_power,
    shared,
    stored_power,
)
from .kernels import CLASSICAL_POINT, K_MAX, ParamPoint
from .series import (
    Poly,
    Series,
    binomial_convolution,
    ps_dilate,
    ps_div,
    ps_exp_linear,
    ps_lincomb,
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

_Scalar = Union[int, Fraction]


class CheckConfig(Immutable):
    """Grid over which every identity is checked exactly; an invalid or
    empty field raises ConfigError when it is built, so no check runs on
    a grid that could pass vacuously or compare floats.

    The symmetrized check reads only the first two ``x_samples`` and the
    first two ``y_samples``.  It is the one reader of ``x_samples``; the
    addition formulas read every ``y_samples`` value.
    """

    __slots__ = _fields = (
        "order", "samples", *_INT_RULES, *_RATIONAL_FIELDS, "seed"
    )

    order: int
    samples: tuple[ParamPoint, ...]
    k_range: tuple[int, ...]
    alpha_range: tuple[int, ...]
    s_range: tuple[int, ...]
    mu_samples: tuple[Fraction, ...]
    x_samples: tuple[Fraction, ...]
    y_samples: tuple[Fraction, ...]
    seed: int

    def __init__(
        self,
        order: int = 16,
        *,
        samples: Sequence[ParamPoint],
        k_range: Sequence[int] = (-2, -1, 0, 1, 2, 3),
        alpha_range: Sequence[int] = (0, 1, 2, 3),
        s_range: Sequence[int] = (1, 2),
        mu_samples: Sequence[_Scalar] = (Fraction(-1), Fraction(1, 2)),
        x_samples: Sequence[_Scalar] = (Fraction(1, 3), Fraction(-1, 2)),
        y_samples: Sequence[_Scalar] = (Fraction(0), Fraction(1), Fraction(-1, 2)),
        seed: int = 0,
    ) -> None:
        if exact_int(order, "order") < 1:
            raise ConfigError(f"order must be positive, got {order}")
        exact_int(seed, "seed")
        grid = {
            "samples": samples,
            "k_range": k_range,
            "alpha_range": alpha_range,
            "s_range": s_range,
            "mu_samples": mu_samples,
            "x_samples": x_samples,
            "y_samples": y_samples,
        }
        for name, given in grid.items():
            try:
                values = tuple(given)
            except TypeError:
                raise ConfigError(
                    f"{name} must be an iterable, got {given!r}"
                ) from None
            if not values:
                raise ConfigError(f"{name} must be nonempty")
            if name in _RATIONAL_FIELDS:
                values = tuple(exact_rational(v, f"{name} element") for v in values)
            grid[name] = values
        for pt in grid["samples"]:
            if not isinstance(pt, ParamPoint):
                raise ConfigError(f"a sample must be a ParamPoint, got {pt!r}")
            if 1 + pt.lam == 0:
                raise ConfigError("sample with lam = -1 is singular")
            if pt.ln_ab == 0:
                raise ConfigError("sample with ln a + ln b = 0 is singular")
        for name, (ok, rule) in _INT_RULES.items():
            for v in grid[name]:
                if not ok(exact_int(v, f"{name} element")):
                    raise ConfigError(f"{name} needs {rule}, got {v}")
        if 1 in grid["mu_samples"]:
            raise ConfigError("mu = 1 is singular for Frobenius factors")
        self._set(order=order, seed=seed, **grid)


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


class Mismatch(NamedTuple):
    """Smallest witness of a failed comparison.

    For polynomial identities (n, x_degree) locate the t^n/n! coefficient
    and the x power; for the bivariate check they are the (t, u) orders.
    """

    n: int
    x_degree: int
    lhs: str
    rhs: str


class CheckResult(NamedTuple):
    check_id: str
    statement: str
    status: str
    variant_note: Optional[str]
    first_mismatch: Optional[Mismatch]
    elapsed_ms: float


class Report(NamedTuple):
    suite_version: str
    suite: str
    config: CheckConfig
    results: tuple[CheckResult, ...]
    overall: str


_Side = Union[Series, Sequence[Union[Poly, Series]]]  # a kernel, or rows
_Case = tuple[_Side, _Side]


class _Instance:
    """One (point, spec) of a check's grid; ``spec`` is None for the
    symmetrized check, whose grid is its points alone, and for a basis
    instance.

    The kernel is built on first use and the rows are views of it, so the
    printed form and every variant read the same expansions.  ``store``
    is shared by every instance of one run.
    """

    def __init__(
        self,
        cfg: CheckConfig,
        pt: ParamPoint,
        spec: Optional[FamilySpec],
        store: dict,
    ) -> None:
        self.cfg = cfg
        self.pt = pt
        self.spec = spec
        self.store = store

    @cached_property
    def kernel(self) -> Series:
        """K^alpha, whose rows are ``polys`` and ``polys_e``."""
        return kernel_power(self.spec, self.pt, self.cfg.order, self.store)

    @cached_property
    def polys(self) -> tuple[Poly, ...]:
        return self.shared(appell_rows, self.kernel, self.pt.ln_c, self.cfg.order)

    @cached_property
    def polys_e(self) -> tuple[Poly, ...]:
        """The ln c = 1 member, where the plain Appell sequence lives."""
        return self.shared(appell_rows, self.kernel, Fraction(1), self.cfg.order)

    def shared(self, build, *args):
        """``families.shared`` in the run's store: for values that depend
        on less than (point, spec)."""
        return shared(self.store, build, *args)


class _BasisInstance(_Instance):
    """The kernel t^j at a point."""

    def __init__(
        self,
        cfg: CheckConfig,
        pt: ParamPoint,
        spec: Optional[FamilySpec],
        store: dict,
        j: int,
    ) -> None:
        super().__init__(cfg, pt, spec, store)
        self.j = j
        self.kernel = self.shared(_unit_kernel, cfg.order, j)


def _unit_kernel(order: int, j: int) -> Series:
    """t^j to ``order``: its one exponential numerator is j!."""
    return Series.from_ints(order, (0,) * j + (factorial(j),))


class _Form(NamedTuple):
    note: Optional[str]  # None marks the statement as printed
    cases: Callable[[_Instance], Iterator[_Case]]


class _Identity(NamedTuple):
    check_id: str
    statement: str
    forms: tuple[_Form, ...]  # the printed form first, then the variants
    # the forms read an instance only through pt, cfg, polys and polys_e,
    # so every case is linear in the instance's kernel numerators
    linear: bool = False


def _compare(lhs, rhs) -> Optional[Mismatch]:
    """First mismatch of two sides of one shape: rows of polynomials in x
    or of u-series, or two kernels (see "Kernel sides").  Sides of other
    lengths or orders are a fault of the form, not a mismatch."""
    if isinstance(lhs, Series):
        if lhs.order != rhs.order:
            raise ValueError(f"kernels of orders {lhs.order} and {rhs.order}")
        if lhs == rhs:
            return None
        n, a, b = next(
            (n, a, b) for n, (a, b) in enumerate(zip(lhs.egf, rhs.egf)) if a != b
        )
        return Mismatch(n, 0, str(a), str(b))
    if len(lhs) != len(rhs):
        raise ValueError(f"sides of lengths {len(lhs)} and {len(rhs)}")
    rows = list(zip(lhs, rhs))
    for n, (a, b) in enumerate(rows):
        if isinstance(a, Series) and a.order != b.order:
            raise ValueError(f"row {n} of u-orders {a.order} and {b.order}")
    for n, (a, b) in enumerate(rows):
        if a != b:
            for d in range(max(len(a.ints[0]), len(b.ints[0]))):
                ca, cb = a.coefficient(d), b.coefficient(d)
                if ca != cb:
                    return Mismatch(n, d, str(ca), str(cb))
    return None


def _evaluate_form(
    form: _Form, instances: Sequence[_Instance]
) -> Optional[Mismatch]:
    for inst in instances:
        for lhs, rhs in form.cases(inst):
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


class _ReadPoint:
    """A point that notes, in ``reads``, the value of each field read of
    it (``ln_c``, ``lam``, ``ln_ab``, ...)."""

    def __init__(self, pt: ParamPoint) -> None:
        self._pt = pt
        self.reads: dict[str, Fraction] = {}

    def __getattr__(self, name: str):
        value = self.reads[name] = getattr(self._pt, name)
        return value


def _holds_on_basis(form: _Form, inst: _Instance) -> bool:
    """Whether ``form`` holds at the point of ``inst`` for every kernel:
    on the kernels t^j, j <= order."""
    basis = [
        _BasisInstance(inst.cfg, inst.pt, None, inst.store, j)
        for j in range(inst.cfg.order + 1)
    ]
    return _evaluate_form(form, basis) is None


def _basis_verdict(form: _Form, inst: _Instance) -> bool:
    """``_holds_on_basis`` at the point of ``inst``, proved once per
    distinct tuple of the point values the form read.

    The store keeps, under (``_basis_verdict``, form), each proof's
    verdict by the (name, value) pairs it read.  A point that agrees with
    one of them on every name would run that same computation, so it
    reuses the verdict.
    """
    verdicts = inst.store.setdefault((_basis_verdict, form), {})
    for reads, holds in verdicts.items():
        if all(getattr(inst.pt, name) == value for name, value in reads):
            return holds
    pt = _ReadPoint(inst.pt)
    holds = _holds_on_basis(form, _Instance(inst.cfg, pt, inst.spec, inst.store))
    verdicts[tuple(pt.reads.items())] = holds
    return holds


def _evaluate_linear(
    form: _Form, instances: Sequence[_Instance]
) -> Optional[Mismatch]:
    """``_evaluate_form`` of a linear form, point by point: a point whose
    basis verdict (``_basis_verdict``) holds is skipped, and the others
    evaluate their instances in grid order."""
    for _, group in groupby(instances, key=attrgetter("pt")):
        group = list(group)
        if not _basis_verdict(form, group[0]):
            mismatch = _evaluate_form(form, group)
            if mismatch is not None:
                return mismatch
    return None


def _run_forms(
    identity: _Identity,
    tag: Optional[str],
    cfg: CheckConfig,
    store: dict,
) -> CheckResult:
    """Evaluate the printed form, then every variant; report the outcome.

    The instances are those of ``_grid(tag, cfg)``, sharing ``store``.  A
    linear identity reads each point's basis verdict from the store, or
    computes it there.  All variants are evaluated (no short-circuit among
    them) so the note can honestly say whether exactly one passed.
    """
    start = time.perf_counter()
    instances = [_Instance(cfg, pt, spec, store) for pt, spec in _grid(tag, cfg)]
    evaluate = _evaluate_linear if identity.linear else _evaluate_form
    evaluate = partial(evaluate, instances=instances)
    check_id, statement = identity.check_id, identity.statement
    printed, *variants = identity.forms
    printed_mismatch = evaluate(printed)
    if printed_mismatch is None:
        elapsed = (time.perf_counter() - start) * 1000
        return CheckResult(check_id, statement, PASS, None, None, elapsed)
    passing = [form.note for form in variants if evaluate(form) is None]
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


# --- values shared by the instances of one run ------------------------------


def _base_point(lam: Fraction) -> ParamPoint:
    """(lam, ln a = 0, ln b = 1, ln c = 1): the point of a base member."""
    return ParamPoint(lam, Fraction(0), Fraction(1), Fraction(1))


def _base_kernel(inst: _Instance, spec: FamilySpec, lam: Fraction) -> Series:
    """K^alpha of the base member Q of ``spec``, the member at
    ``_base_point(lam)``, whose rate is 1."""
    return kernel_power(
        spec, inst.shared(_base_point, lam), inst.cfg.order, inst.store
    )


def _reduction(base: Series, alpha: int, pt: ParamPoint, order: int) -> Series:
    """K_base(ln(ab) t) e^{alpha ln a t}, K_base = ``base``, the kernel of
    Q: at rate ln c its rows are ln(ab)^n Q_n((x ln c + alpha ln a)/ln(ab))."""
    return ps_mul(
        ps_dilate(base, pt.ln_ab), ps_exp_linear(alpha * pt.ln_a, order)
    )


def _factorial_rows(
    rising: bool, ln_c: Fraction, order: int
) -> tuple[Poly, ...]:
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
    return tuple(rows)


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
            # the scalars (y ln c)^j are the exponential coefficients of
            # e^{y ln c t}
            powers = inst.shared(ps_exp_linear, y * ln_c, inst.cfg.order)
            yield (
                inst.shared(_shifted, polys, y),
                inst.shared(binomial_convolution, powers, polys),
            )

    return cases


def _shifted(polys: Sequence[Poly], y: Fraction) -> tuple[Poly, ...]:
    """P_n(x + y) for each row P_n of ``polys``."""
    shift = Poly((y, 1))
    return tuple(p.substitute(shift) for p in polys)


def _numbers(polys: Sequence[Poly]) -> Series:
    """sum_n P_n(0) t^n/n! over the rows P_n of ``polys``: their integer
    constant terms over the lcm of their denominators.  The numbers do
    not involve the rate, so the rows at ln c and at ln c = 1 give one
    series."""
    ints = [p.ints for p in polys]
    den = lcm(*(d for _, d in ints))
    nums = [c[0] * (den // d) if c else 0 for c, d in ints]
    return Series.from_ints(len(polys) - 1, nums, den)


def _powers(inst: _Instance, rate: Fraction) -> tuple[Poly, ...]:
    """(rate x)^m for m <= order: the rows of the kernel 1 at ``rate``."""
    order = inst.cfg.order
    return inst.shared(appell_rows, Series.one(order), rate, order)


def _appell_sum(
    inst: _Instance, numbers_of: Sequence[Poly], rows: Sequence[Poly]
) -> tuple[Poly, ...]:
    """sum_j C(n,j) P_j(0) rows_{n-j}(x), P_j(0) the numbers of the rows
    ``numbers_of``: one right side per (numbers, rows) in the run."""
    return inst.shared(
        binomial_convolution, inst.shared(_numbers, numbers_of), rows
    )


def _expansion_cases(inst: _Instance) -> Iterator[_Case]:
    yield inst.polys, _appell_sum(inst, inst.polys, _powers(inst, inst.pt.ln_c))


def _base_reduction_cases(inst: _Instance) -> Iterator[_Case]:
    base = _base_kernel(inst, inst.spec, inst.pt.lam)
    yield inst.kernel, inst.shared(
        _reduction, base, inst.spec.alpha, inst.pt, inst.cfg.order
    )


def _derivative_cases(inst: _Instance) -> Iterator[_Case]:
    polys, ln_c, order = inst.polys, inst.pt.ln_c, inst.cfg.order
    lhs = [polys[n + 1].derivative() for n in range(order)]
    rhs = [polys[n] * ((n + 1) * ln_c) for n in range(order)]
    yield lhs, rhs


def _operator_cases(inst: _Instance) -> Iterator[_Case]:
    # the numbers P_i(0) do not involve ln c: taken from the ln c = 1
    # rows, the form reads no point field
    polys_e = inst.polys_e
    yield _appell_sum(inst, polys_e, _powers(inst, Fraction(1))), polys_e


def _bernoulli_shifts(alpha: int, pt: ParamPoint, order: int) -> Series:
    """sum_{j<=alpha} C(alpha,j) (-1)^j lam^{alpha-j} e^{r_j t}, with
    r_j = (alpha-j) ln b + (2 alpha - j) ln a: the factor of the Bernoulli
    relation that reads neither k nor the family type."""
    terms = []
    for j in range(alpha + 1):
        weight = comb(alpha, j) * (-1) ** j * pt.lam ** (alpha - j)
        r_j = (alpha - j) * pt.ln_b + (2 * alpha - j) * pt.ln_a
        terms.append((ps_exp_linear(r_j, order), weight))
    return ps_lincomb(terms, order)


def _bernoulli_cases(inst: _Instance) -> Iterator[_Case]:
    pt, spec, alpha, order = inst.pt, inst.spec, inst.spec.alpha, inst.cfg.order
    btag = BERNOULLI_T1 if spec.tag == TYPE1 else BERNOULLI_T2
    bspec = FamilySpec(btag, k=spec.k, alpha=alpha)
    # (2 ln ab)^n B_n((r_j + x ln c)/(2 ln ab)): B(2 ln(ab) t) e^{r_j t}
    shifts = inst.shared(_bernoulli_shifts, alpha, pt, order)
    base = _base_kernel(inst, bspec, pt.lam**2)
    yield inst.kernel, inst.shared(ps_mul, ps_dilate(base, 2 * pt.ln_ab), shifts)


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


def _stirling_gf(
    which: int, k: int, rate: Fraction, jmax: int, oriented: bool
) -> Series:
    """C(t) = sum_j c_j t^j/j! to t^jmax, c the ``stirling_weights``."""
    return Series.from_egf(jmax, stirling_weights(which, k, rate, jmax, oriented))


def _stirling(which: int, flip: bool, oriented: bool):
    def cases(inst: _Instance) -> Iterator[_Case]:
        spec, pt, order = inst.spec, inst.pt, inst.cfg.order
        base = _base_kernel(inst, spec._replace(k=1), pt.lam)
        reduced = inst.shared(_reduction, base, spec.alpha, pt, order)
        rate = -2 * pt.ln_ab if flip else 2 * pt.ln_ab
        c = inst.shared(_stirling_gf, which, spec.k, rate, order, oriented)
        # sum_j C(n,j) d_j R_{n-j} is n! [t^n] of D(t) R(t), D = C^alpha
        d = stored_power(c, spec.alpha, inst.store)
        yield inst.kernel, inst.shared(ps_mul, d, reduced)

    return cases


def _factorial(rising: bool):
    """Rising factorials (x)^(m) weighted by P_{n-l}(-m ln c; base), or
    falling factorials (x)_m weighted by P_{n-l}(0; base).

    With P_d(y; base) = sum_j C(d,j) P_j(0) y^{d-j}, the double sum is
    sum_j C(n,j) P_j(0) R_{n-j}(x), R the ``_factorial_rows``.
    """

    def cases(inst: _Instance) -> Iterator[_Case]:
        rows = inst.shared(_factorial_rows, rising, inst.pt.ln_c, inst.cfg.order)
        yield inst.polys, _appell_sum(inst, inst.polys_e, rows)

    return cases


def _bernoulli_weights(s: int, order: int) -> Series:
    """sum_l S2(l+s,s)/C(l+s,s) t^l/l! to ``order``."""
    weights = [Fraction(stirling2(l + s, s), comb(l + s, s)) for l in range(order + 1)]
    return Series.from_egf(order, weights)


def _bernoulli_order_s(lam_is_one: bool):
    def cases(inst: _Instance) -> Iterator[_Case]:
        pt, order = inst.pt, inst.cfg.order
        blam = Fraction(1) if lam_is_one else pt.lam
        for s in inst.cfg.s_range:
            base = _base_kernel(inst, FamilySpec(APOSTOL_BERNOULLI, alpha=s), blam)
            # the l-sum, sum_l C(r,l) S2(l+s,s)/C(l+s,s) B_{r-l}^{(s)}(x ln c;
            # lam), which C(n,l) C(n-l,m) = C(n,m) C(n-m,l) makes a function
            # of n - m only
            rows = inst.shared(
                binomial_convolution,
                inst.shared(_bernoulli_weights, s, order),
                inst.shared(appell_rows, base, pt.ln_c, order),
            )
            yield inst.polys, _appell_sum(inst, inst.polys_e, rows)

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


def _frobenius_sums(
    polys: Sequence[Poly], moments: tuple[tuple[int, ...], int]
) -> Series:
    """sum_n (sum_d [x^d]P_n M_d) t^n/n! over the rows P_n of ``polys``,
    M the ``_frobenius_moments``: one integer dot product per row, over
    one denominator."""
    m_nums, m_den = moments
    ints = [p.ints for p in polys]
    den = lcm(*(d for _, d in ints))
    nums = [sum(map(mul, c, m_nums)) * (den // d) for c, d in ints]
    return Series.from_ints(len(polys) - 1, nums, den * m_den)


def _frobenius_order_s(f_arg_lnc: bool, g_arg_lab: bool):
    def cases(inst: _Instance) -> Iterator[_Case]:
        pt, order = inst.pt, inst.cfg.order
        f_rate = pt.ln_c if f_arg_lnc else Fraction(1)
        jmul = pt.ln_ab if g_arg_lab else Fraction(1)
        for s in inst.cfg.s_range:
            for mu in inst.cfg.mu_samples:
                # F_m^{(s)}(x; mu) at the Frobenius argument
                fspec = FamilySpec(FROBENIUS, alpha=s, mu=mu)
                gf = _base_kernel(inst, fspec, Fraction(1))
                fx = inst.shared(appell_rows, gf, f_rate, order)
                moments = inst.shared(_frobenius_moments, s, mu, jmul, order)
                # the sum over j depends on n - m only
                inner = inst.shared(_frobenius_sums, inst.polys_e, moments)
                yield inst.polys, inst.shared(binomial_convolution, inner, fx)

    return cases


def _u_rows(columns: Sequence[Series], lab: Fraction) -> list[Series]:
    """Row n, for n up to the columns' order: the u-series
    sum_j [t^n] columns[j] / lab^n u^j/j!.  With columns[j] = E^j/den_j in
    exponential form and lab = p/q, its j-th exponential coefficient is
    E^j_n q^n / (den_j n! p^n): integer numerators over one denominator
    per row."""
    ints = [c.ints for c in columns]
    common = lcm(*(d for _, d in ints))
    scaled = [[c * (common // d) for c in nums] for nums, d in ints]
    p, q = lab.numerator, lab.denominator
    return [
        Series.from_ints(
            len(columns) - 1,
            [col[n] * q**n for col in scaled],
            common * factorial(n) * p**n,
        )
        for n in range(columns[0].order + 1)
    ]


def _m_zero_term(pt: ParamPoint, order: int) -> Series:
    """1/(e^{-t ln a} + lam e^{t ln b}): the m = 0 term of the polylog sum
    of the type-1 kernel at k = 0, where z^0/0^0 = 1, over its
    denominator.  At k < 0 that term z^0/0^k is 0."""
    e_a, e_b = ps_exp_linear(-pt.ln_a, order), ps_exp_linear(pt.ln_b, order)
    den = ps_lincomb(((e_a, 1), (e_b, pt.lam)), order)
    return ps_div(Series.one(order), den)


def _symmetrized(from_zero: bool):
    def cases(inst: _Instance) -> Iterator[_Case]:
        cfg, pt = inst.cfg, inst.pt
        # the u-order m reaches polylog order k = -m, so |k| <= K_MAX caps it
        nt = nu = min(cfg.order, K_MAX)
        kernels = [
            kernel_power(FamilySpec(TYPE1, k=-j), pt, nt, inst.store)
            for j in range(nu + 1)
        ]
        if from_zero:
            # the polylog sum started at m = 0 changes K_0 alone
            kernels[0] = kernels[0] + inst.shared(_m_zero_term, pt, nt)
        lab = pt.ln_ab
        # S_n^{(m,1)}(x, y) = sum_j C(m,j) G_n^{(-j,1)}(x) w^{m-j} / ln(ab)^n
        # is a binomial sum over j, so sum_m S_n^{(m,1)} u^m/m! is e^{w u}
        # times sum_j G_n^{(-j,1)}(x) u^j/j!, over ln(ab)^n; at x = x0,
        # G_n^{(-j,1)}(x0)/n! is [t^n] of K_{-j}(t) e^{x0 t ln c}
        for x0 in cfg.x_samples[:2]:
            exp_x0 = inst.shared(ps_exp_linear, x0 * pt.ln_c, nt)
            at_x0 = [inst.shared(ps_mul, kernel, exp_x0) for kernel in kernels]
            rows = _u_rows(at_x0, lab)
            for y0 in cfg.y_samples[:2]:
                exp_wu = ps_exp_linear((y0 * pt.ln_c + pt.ln_a) / lab, nu)
                lhs = [ps_mul(exp_wu, row) for row in rows]
                yield lhs, inst.shared(double_gf_rhs, pt, x0, y0, (nt, nu))

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


def _run_parts(parts, cfg: CheckConfig, store=None) -> list[CheckResult]:
    store = {} if store is None else store
    return [_run_forms(identity, tag, cfg, store) for identity, tag in parts]


def _run_check(check_id: str, cfg: CheckConfig, store=None) -> CheckResult:
    statement, parts = CHECKS[check_id]
    results = _run_parts(parts, cfg, store)
    if statement is None:
        return results[0]
    return _composite(check_id, statement, results)


# --- suite ------------------------------------------------------------------


REGISTRY: dict[str, Callable[..., CheckResult]] = {
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


def run_suite(cfg: CheckConfig, suite: str = "all") -> Report:
    """Run every check in ``suite`` and collect a deterministic Report.

    Results are sorted by check id.  The checks share one store: kernels,
    row sets, values built from the config and the points, and the basis
    verdicts, each kept by the point values its form read.  The report
    depends on the arguments alone, but for each check's elapsed time.
    """
    if suite not in SUITES:
        raise ConfigError(
            f"unknown suite {suite!r}; choose from {sorted(SUITES)}"
        )
    store: dict = {}
    results = tuple(
        REGISTRY[check_id](cfg, store) for check_id in SUITES[suite]
    )
    results = tuple(sorted(results, key=lambda r: r.check_id))
    overall = FAIL if any(r.status == FAIL for r in results) else PASS
    return Report("1.0", suite, cfg, results, overall)
