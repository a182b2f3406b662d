"""Polylogarithm / polyexponential weights and the two family kernels.

The polylogarithm here is the formal sum Li_k(z) = sum_{m>=1} z^m / m^k
and the polyexponential is e_k(z) = sum_{m>=1} z^m / ((m-1)! m^k), both
composed with an inner series w of zero constant term.  Orders k may be
negative (weights become m^{-k}); |k| is capped at K_MAX to keep weight
sizes sane.

Both families satisfy z d/dz f_k = f_{k-1}, so the composition is built by
a ladder over k rather than by powers of w: start at Li_0(w) = w/(1 - w)
or e_1(w) = exp(w) - 1 and step up, f_{k+1} = integral of
(f_k/t)(t w'/w), or down, f_{k-1} = t ((w/t)/w') f_k'.  The two factors
are unit series, one division each; every rung is one Cauchy product.  A
series of order n thus costs O(|k| n^2), against O(n^3) for the powers.
The factors are cached per (inner, direction) in an ``lru_cache`` of 64
entries and the rungs per (family, k, inner) in one of 512, so a grid
that sweeps k over one inner shares them.  A zero inner gives the zero
series.

``polylog_from_zero`` extends the polylog sum to m = 0.  That term is
z^0 / 0^k, which is 1 for k = 0 and 0 for k < 0; for k > 0 it is
undefined and requesting it raises RangeError.

Kernels (before the exp(x t ln c) factor is attached):

* type 1: ( Li_k(1 - (ab)^{-2t}) / (a^{-t} + lam b^t) )^alpha
* type 2: ( e_k(log(1 + 2t log ab)) / (a^{-t} + lam b^t) )^alpha

with a, b entering only through the rational surrogates ln_a, ln_b.
At k = 1 both numerators collapse to 2t log(ab), so the kernels agree
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union

from .errors import CompositionError, RangeError, SingularDenominator
from .series import (
    Series,
    ps_add,
    ps_div,
    ps_exp,
    ps_exp_linear,
    ps_ipow,
    ps_mul,
    ps_scale,
)

K_MAX = 16

_Scalar = Union[int, Fraction]


@dataclass(frozen=True)
class ParamPoint:
    """Rational surrogates (lam, ln a, ln b, ln c) for a family instance."""

    lam: Fraction
    ln_a: Fraction
    ln_b: Fraction
    ln_c: Fraction

    def __post_init__(self) -> None:
        for name in ("lam", "ln_a", "ln_b", "ln_c"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))

    @property
    def ln_ab(self) -> Fraction:
        return self.ln_a + self.ln_b


CLASSICAL_POINT = ParamPoint(Fraction(1), Fraction(0), Fraction(1), Fraction(1))


def _check_k(k: int) -> None:
    if abs(k) > K_MAX:
        raise RangeError(f"|k| must be <= {K_MAX}, got {k}")


@lru_cache(maxsize=64)
def _ladder_factor(inner: Series, up: bool) -> Series:
    """t w'/w (``up``) or its reciprocal (w/t)/w', w = ``inner``.

    Both are unit series.  For w of valuation v the division loses v - 1
    orders, so w is padded with zeros to order n + v - 1 first: the
    ladder's coefficients up to t^n depend on w_0..w_n only.
    """
    n = inner.order + inner.valuation() - 1
    w = inner.coeffs + (0,) * (n - inner.order)
    dw = Series(n - 1, [j * w[j] for j in range(1, n + 1)])
    w_t = Series(n - 1, w[1:])
    return ps_div(dw, w_t) if up else ps_div(w_t, dw)


@lru_cache(maxsize=512)
def _rung(polylog: bool, k: int, inner: Series) -> Series:
    """Li_k(w) (``polylog``) or e_k(w), w = ``inner`` of valuation >= 1,
    from the rung next to it towards Li_0 or e_1 (see the module
    docstring)."""
    n = inner.order
    base = 0 if polylog else 1
    if k == base:
        one = Series.one(n)
        if polylog:
            return ps_div(inner, one - inner)
        return ps_exp(inner) - one
    if k > base:
        f = _rung(polylog, k - 1, inner)
        g = ps_mul(Series(n - 1, f.coeffs[1:]), _ladder_factor(inner, True))
        return Series(n, [0] + [c / (j + 1) for j, c in enumerate(g.coeffs)])
    f = _rung(polylog, k + 1, inner)
    df = Series(n - 1, [j * f.coeffs[j] for j in range(1, n + 1)])
    return Series(n, (0,) + ps_mul(_ladder_factor(inner, False), df).coeffs)


def _composed(polylog: bool, k: int, inner: Series) -> Series:
    if inner.coeffs[0]:
        raise CompositionError("inner series must have zero constant term")
    if inner.valuation() is None:
        return Series.zero(inner.order)
    return _rung(polylog, k, inner)


def polylog_series(k: int, inner: Series, *, from_zero: bool = False) -> Series:
    """Li_k composed with ``inner`` (zero constant term required)."""
    _check_k(k)
    if from_zero and k > 0:
        raise RangeError("the m = 0 polylog term is undefined for k > 0")
    acc = _composed(True, k, inner)
    if from_zero and k == 0:
        acc = ps_add(acc, Series.one(inner.order))
    return acc


def polyexp_series(k: int, inner: Series) -> Series:
    """e_k composed with ``inner`` (zero constant term required)."""
    _check_k(k)
    return _composed(False, k, inner)


def expm1_series(rate: _Scalar, order: int) -> Series:
    """exp(rate t) - 1."""
    rate = Fraction(rate)
    return Series(
        order,
        [0] + [rate**n / math.factorial(n) for n in range(1, order + 1)],
    )


def log1p_linear(rate: _Scalar, order: int) -> Series:
    """log(1 + rate t) = sum_{m>=1} (-1)^(m+1) (rate t)^m / m."""
    rate = Fraction(rate)
    return Series(
        order,
        [0] + [(-1) ** (m + 1) * rate**m / m for m in range(1, order + 1)],
    )


def _genocchi_denominator(point: ParamPoint, order: int) -> Series:
    """a^{-t} + lam b^t; constant term 1 + lam must not vanish."""
    if 1 + point.lam == 0:
        raise SingularDenominator("lam = -1 makes 1 + lam e^{...} vanish")
    return ps_add(
        ps_exp_linear(-point.ln_a, order),
        ps_scale(ps_exp_linear(point.ln_b, order), point.lam),
    )


def kernel_type1(
    point: ParamPoint,
    k: int,
    alpha: int,
    order: int,
    *,
    polylog_from_zero: bool = False,
) -> Series:
    """Type-1 kernel as a scalar series of plain Taylor coefficients."""
    _check_k(k)
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    one_minus = -expm1_series(-2 * point.ln_ab, order)
    num = polylog_series(k, one_minus, from_zero=polylog_from_zero)
    den = _genocchi_denominator(point, order)
    return ps_ipow(ps_div(num, den), alpha)


def kernel_type2(point: ParamPoint, k: int, alpha: int, order: int) -> Series:
    """Type-2 kernel as a scalar series of plain Taylor coefficients."""
    _check_k(k)
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    num = polyexp_series(k, log1p_linear(2 * point.ln_ab, order))
    den = _genocchi_denominator(point, order)
    return ps_ipow(ps_div(num, den), alpha)
