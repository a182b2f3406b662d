"""Polynomial family construction from generating-function kernels.

A family is a kernel series K(t) times an exponential factor, expanded as
sum_n P_n(x) t^n / n!.  The two parametrized poly-Genocchi families attach
exp(x t ln c); every other family here attaches plain exp(x t).  Every
family is Appell, so P_n(x) = sum_d C(n, d) g_{n-d} (rate x)^d with
g_j = j! [t^j] K^alpha, and ``Series`` holds exactly those exponential
coefficients as numerators E_j over one denominator.

Every kernel is one row of one table: a numerator N(t) over
u e^{pt} + v e^{qt}, given as (u, p, v, q), raised to the power alpha
(alpha = 1 for the tags without ``-higher``):

* ``type1`` / ``type2``: Li_k(1 - e^{-rt}) / e_k(log(1 + rt))
  (``polylog_series`` / ``polyexp_series`` at rate r) over
  (1, -ln a, lam, ln b), r = 2 ln(ab)
* ``apostol-poly-bernoulli-t1`` / ``-t2``: the same at r = 1 over
  (-1, 0, lam, 1)
* ``apostol-bernoulli-higher``: t over (-1, 0, lam, 1)
* ``frobenius-higher``: 1 - mu over (-mu, 0, 1, 1)
* ``classical-genocchi[-higher]``: 2t over (1, 0, 1, 1)
* ``apostol-genocchi[-higher]``: 2t over (1, 0, lam, 1)

At k = 1 both polylog-type numerators collapse to rt, so type1 and type2
agree there.  One singular rule: the Genocchi-type denominators (type1,
type2 and the Genocchi tags) are 1 + lam at t = 0, which must not
vanish.  A Bernoulli-type denominator may vanish to order one at t = 0,
as its numerator does.

Families that do not mention a parameter ignore it (their expansions echo
the parameter point they were asked for, but the polynomials depend only
on what the kernel uses).

A store is a dict, one memo: ``shared(store, build, *args)`` keeps
build(*args) under the key (build, *args), so every kept value can be
rebuilt from its key alone.  It is the verifier's run store, or a new
one per ``family_series`` or CLI request.  ``kernel_power`` keeps the
kernel under ``_kernel`` and what it reads, (tag, k, mu, lam, ln a,
ln b, order): ln c only sets the rate of the exponential factor and
alpha is only a power.  ``stored_power`` keeps K^a under
(ps_mul, K^(a-1), K), one ``ps_mul`` per new alpha, so equal kernels
(type1 and type2 at k = 1) share their powers.  A family's rows are
``appell_rows`` of that power at its rate.  The CLI prints
``appell_cells`` of the power instead: each coefficient C(n, d) g_{n-d}
rate^d as its own reduced fraction, with no row built.
Both read g_j = E_j/den straight from the numerators of the power, the
only code outside ``series`` that knows that layout.

``double_gf_rhs`` is the closed form of the symmetrized double generating
function, sum_{n,m} S_n^{(m,1)}(x, y) t^n/n! u^m/m!, as rows in t of
u-series.  The closed form is that generating function only at
alpha = 1, the one kernel power the symmetrized check reads.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import comb, gcd
from typing import NamedTuple, Optional, Union

from .errors import (
    Immutable,
    RangeError,
    SingularDenominator,
    exact_int,
    exact_rational,
)
from .kernels import K_MAX, ParamPoint, polyexp_series, polylog_series
from .series import (
    Poly,
    Series,
    ps_div,
    ps_exp_linear,
    ps_lincomb,
    ps_mul,
)

TYPE1 = "type1"
TYPE2 = "type2"
BERNOULLI_T1 = "apostol-poly-bernoulli-t1"
BERNOULLI_T2 = "apostol-poly-bernoulli-t2"
APOSTOL_BERNOULLI = "apostol-bernoulli-higher"
FROBENIUS = "frobenius-higher"
CLASSICAL_GENOCCHI = "classical-genocchi"
CLASSICAL_GENOCCHI_HIGHER = "classical-genocchi-higher"
APOSTOL_GENOCCHI = "apostol-genocchi"
APOSTOL_GENOCCHI_HIGHER = "apostol-genocchi-higher"

ALL_TAGS = (
    TYPE1,
    TYPE2,
    BERNOULLI_T1,
    BERNOULLI_T2,
    APOSTOL_BERNOULLI,
    FROBENIUS,
    CLASSICAL_GENOCCHI,
    CLASSICAL_GENOCCHI_HIGHER,
    APOSTOL_GENOCCHI,
    APOSTOL_GENOCCHI_HIGHER,
)

# tags whose kernel involves a polylog/polyexp order k
POLY_ORDER_TAGS = frozenset({TYPE1, TYPE2, BERNOULLI_T1, BERNOULLI_T2})
# tags that attach exp(x t ln c) rather than exp(x t)
LN_C_TAGS = frozenset({TYPE1, TYPE2})
# tags fixed at alpha = 1
ORDER_ONE_TAGS = frozenset({CLASSICAL_GENOCCHI, APOSTOL_GENOCCHI})

_Scalar = Union[int, Fraction]


class FamilySpec(Immutable):
    """Which family to expand: tag plus (k, alpha, mu) as the tag needs."""

    __slots__ = _fields = ("tag", "k", "alpha", "mu")

    tag: str
    k: Optional[int]
    alpha: int
    mu: Optional[Fraction]

    def __init__(
        self,
        tag: str,
        k: Optional[int] = None,
        alpha: int = 1,
        mu: Optional[_Scalar] = None,
    ) -> None:
        if tag not in ALL_TAGS:
            raise ValueError(f"unknown family tag {tag!r}")
        if tag in POLY_ORDER_TAGS:
            if k is None:
                raise ValueError(f"family {tag!r} needs a polylog order k")
            if abs(exact_int(k, "k")) > K_MAX:
                raise RangeError(f"|k| must be <= {K_MAX}, got {k}")
        elif k is not None:
            raise ValueError(f"family {tag!r} takes no polylog order")
        if exact_int(alpha, "alpha") < 0:
            raise ValueError("alpha must be a nonnegative integer")
        if tag in ORDER_ONE_TAGS and alpha != 1:
            raise ValueError(f"family {tag!r} is fixed at alpha = 1")
        if tag == FROBENIUS:
            if mu is None:
                raise ValueError("frobenius-higher needs mu")
            mu = exact_rational(mu, "mu")
            if mu == 1:
                raise SingularDenominator("mu = 1 is singular for frobenius")
        elif mu is not None:
            raise ValueError(f"family {tag!r} takes no mu")
        self._set(tag=tag, k=k, alpha=alpha, mu=mu)


class FamilyExpansion(NamedTuple):
    """Expansion result: polynomials P_0..P_order of one family instance."""

    spec: FamilySpec
    params: ParamPoint
    order: int
    polys: tuple[Poly, ...]


def _quotient(num_fn, den: tuple, order: int) -> Series:
    """num/(u e^{pt} + v e^{qt}) at ``order``, den = (u, p, v, q).

    The denominator is u + v at t = 0.  Where that vanishes it is a
    multiple of t, so both sides are built one order further: the
    division cancels t and still reaches ``order``.
    """
    u, p, v, q = den
    n = order if u + v else order + 1
    return ps_div(
        num_fn(n),
        ps_lincomb(((ps_exp_linear(p, n), u), (ps_exp_linear(q, n), v)), n),
    )


def _kernel(
    tag: str, k: Optional[int], mu: Optional[Fraction],
    lam: Fraction, ln_a: Fraction, ln_b: Fraction, order: int,
) -> Series:
    """The kernel of a family at alpha = 1: its row of the table in the
    module docstring.  Raises ValueError for a negative order."""
    if order < 0:
        raise ValueError("order must be >= 0")
    r = 2 * (ln_a + ln_b) if tag in LN_C_TAGS else 1
    if tag in (TYPE1, BERNOULLI_T1):
        num = partial(polylog_series, k, r)
    elif tag in (TYPE2, BERNOULLI_T2):
        num = partial(polyexp_series, k, r)
    elif tag == FROBENIUS:
        def num(n):
            return ps_lincomb(((Series.one(n), 1 - mu),), n)
    else:
        c = 1 if tag == APOSTOL_BERNOULLI else 2

        def num(n):
            return Series(n, (0, c)) if n else Series.zero(n)
    if tag in (BERNOULLI_T1, BERNOULLI_T2, APOSTOL_BERNOULLI):
        den = (-1, 0, lam, 1)
    elif tag == FROBENIUS:
        den = (-mu, 0, 1, 1)
    else:
        if tag in (CLASSICAL_GENOCCHI, CLASSICAL_GENOCCHI_HIGHER):
            lam = 1
        if 1 + lam == 0:
            raise SingularDenominator(
                "lam = -1 makes the Genocchi-type denominator vanish at t = 0"
            )
        p, q = (-ln_a, ln_b) if tag in LN_C_TAGS else (0, 1)
        den = (1, p, lam, q)
    return _quotient(num, den, order)


def shared(store: dict, build, *args):
    """build(*args), kept in ``store`` under (build, *args): built once
    per store, for values that every equal request reads."""
    key = (build, *args)
    try:
        return store[key]
    except KeyError:
        pass
    value = store[key] = build(*args)
    return value


def stored_power(base: Series, alpha: int, store: dict) -> Series:
    """base^alpha, B^a = B^(a-1) B, each product ``shared`` in ``store``,
    so equal bases share their powers and a new alpha costs one
    ``ps_mul``.  alpha = 0 gives the one series."""
    if not alpha:
        return Series.one(base.order)
    power = base
    for _ in range(alpha - 1):
        power = shared(store, ps_mul, power, base)
    return power


def kernel_power(
    spec: FamilySpec, point: ParamPoint, order: int, store: dict
) -> Series:
    """K^alpha of one instance at ``order``, K and its powers ``shared``
    in ``store``.  K is built at alpha = 0 too, so a singular point
    raises for every alpha."""
    kernel = shared(
        store, _kernel, spec.tag, spec.k, spec.mu,
        point.lam, point.ln_a, point.ln_b, order,
    )
    return stored_power(kernel, spec.alpha, store)


def appell_rows(gf: Series, rate: Fraction, order: int) -> tuple[Poly, ...]:
    """P_0 .. P_order of gf(t) e^{x t rate}, P_n = n! [t^n], as integer-held
    rows.  The family is Appell: the x^d coefficient of P_n is
    C(n, d) g_{n-d} rate^d with g_j = P_j(0), the exponential coefficient
    E_j/kden of gf.  With rate p/q that is C(n, d) E_{n-d} p^d q^{n-d}
    over kden q^n."""
    knums, kden = gf.ints
    p, q = rate.numerator, rate.denominator
    p_pow = [p**d for d in range(order + 1)]
    q_pow = [q**d for d in range(order + 1)]
    rows = []
    for n in range(order + 1):
        nums = [
            comb(n, d) * knums[n - d] * p_pow[d] * q_pow[n - d]
            for d in range(n + 1)
        ]
        rows.append(Poly.from_ints(nums, kden * q_pow[n]))
    return tuple(rows)


def appell_cells(
    gf: Series, rate: Fraction, order: int
) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The coefficients of ``appell_rows(gf, rate, order)`` as reduced
    (numerator, denominator) pairs, den > 0, row by row with trailing
    zeros dropped (a zero cell is (0, 1)).

    The x^d coefficient of P_n is C(n, d) g_{n-d} rate^d, g_j = E_j/kden
    the exponential coefficients of gf.  Each g_j is reduced once to
    u_j/v_j, and with rate = p/q a cell is C(n, d) u p^d / (v q^d),
    u/v = g_{n-d}.  Three gcds reduce it: g1 = gcd(u, q^d),
    g2 = gcd(p^d, v), then g3 = gcd(C(n, d), (v/g2)(q^d/g1)).  Since
    gcd(u, v) = gcd(p, q) = 1, each of u/g1 and p^d/g2 is prime to each
    of v/g2 and q^d/g1 (removing a gcd leaves coprime cofactors), so after
    g3 no factor is shared.  As d <= order = N, g1 = gcd(gcd(u, q^N), q^d)
    and g2 = gcd(p^d, gcd(p^N, v)): the inner gcds are taken once per j,
    so the first two gcds of a cell have only small operands.
    """
    knums, kden = gf.ints
    p, q = rate.numerator, rate.denominator
    p_top, q_top = p**order, q**order
    g = []
    for u in knums[: order + 1]:
        h = gcd(u, kden)
        u, v = u // h, kden // h
        g.append((u, v, gcd(u, q_top), gcd(p_top, v)))
    p_pow = [p**d for d in range(order + 1)]
    q_pow = [q**d for d in range(order + 1)]
    rows = []
    for n in range(order + 1):
        row = []
        for d in range(n + 1):
            u, v, u_q, v_p = g[n - d]
            pd = p_pow[d]
            if not (u and pd):
                row.append((0, 1))
                continue
            qd = q_pow[d]
            g1 = gcd(u_q, qd)
            g2 = gcd(pd, v_p)
            den = (v // g2) * (qd // g1)
            c = comb(n, d)
            g3 = gcd(c, den)
            row.append(((c // g3) * (pd // g2) * (u // g1), den // g3))
        while row and not row[-1][0]:
            row.pop()
        rows.append(tuple(row))
    return tuple(rows)


def family_rate(spec: FamilySpec, point: ParamPoint) -> Fraction:
    """The rate of a family's exponential factor: ln c for type1 and
    type2, 1 for every other tag."""
    return point.ln_c if spec.tag in LN_C_TAGS else Fraction(1)


def family_series(
    spec: FamilySpec, point: ParamPoint, order: int
) -> FamilyExpansion:
    """P_0 .. P_order of one family instance: ``appell_rows`` of its kernel
    power at its rate."""
    gf = kernel_power(spec, point, order, {})
    return FamilyExpansion(
        spec, point, order, appell_rows(gf, family_rate(spec, point), order)
    )


def double_gf_rhs(
    point: ParamPoint,
    x: _Scalar,
    y: _Scalar,
    orders: tuple[int, int],
) -> tuple[Series, ...]:
    """Closed form of the symmetrized double generating function (alpha = 1).

    exp(Au) exp((B+2)t) / ((1 + lam e^t)(e^{2t}(1 - e^u) + e^u))
    with A = (y ln c + ln a)/ln ab and B likewise for x, truncated
    at orders (nt, nu).  Row n of the result is the t^n coefficient, a
    Series in u of order nu.  The factors are divided one at a time: first
    s = e^{(B+2)t}/(1 + lam e^t), one scalar division in t; then the
    second factor, whose t^0 row is 1 and whose t^j row is
    (2^j/j!)(1 - e^u), so the rows solve
    out_n = s_n e^{Au} - (1 - e^u) sum_{1<=j<=n} (2^j/j!) out_{n-j},
    one ``ps_mul`` per row.  The j-sum is one ``ps_lincomb``: integer
    numerators over one common denominator, reduced once per row.
    """
    if 1 + point.lam == 0:
        raise SingularDenominator("lam = -1 in double generating function")
    lab = point.ln_ab
    if lab == 0:
        raise SingularDenominator("ln(ab) = 0 in double generating function")
    a_rate = (exact_rational(y, "y") * point.ln_c + point.ln_a) / lab
    b_rate = (exact_rational(x, "x") * point.ln_c + point.ln_a) / lab
    nt, nu = orders
    s = ps_div(
        ps_exp_linear(b_rate + 2, nt),
        ps_lincomb(
            ((Series.one(nt), 1), (ps_exp_linear(1, nt), point.lam)), nt
        ),
    ).coeffs
    two_t = ps_exp_linear(2, nt).coeffs
    exp_au = ps_exp_linear(a_rate, nu)
    one_minus_eu = Series.one(nu) - ps_exp_linear(1, nu)
    out: list[Series] = []
    for n in range(nt + 1):
        acc_row = ps_lincomb(
            ((out[n - j], two_t[j]) for j in range(1, n + 1)), nu
        )
        carried = ps_mul(one_minus_eu, acc_row)
        out.append(ps_lincomb(((exp_au, s[n]), (carried, -1)), nu))
    return tuple(out)


def expansion_header(spec: FamilySpec, point: ParamPoint, order: int) -> dict:
    """The JSON keys of one expansion before its rows, in their printed
    order; rationals as exact 'p/q' strings."""
    return {
        "family": spec.tag,
        "k": spec.k,
        "alpha": spec.alpha,
        "mu": None if spec.mu is None else str(spec.mu),
        "lam": str(point.lam),
        "ln_a": str(point.ln_a),
        "ln_b": str(point.ln_b),
        "ln_c": str(point.ln_c),
        "order": order,
    }
