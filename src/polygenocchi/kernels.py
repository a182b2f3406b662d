"""Polylogarithm / polyexponential weights and the two family kernels.

The polylogarithm here is the formal sum Li_k(z) = sum_{m>=1} z^m / m^k
and the polyexponential is e_k(z) = sum_{m>=1} z^m / ((m-1)! m^k), both
composed with an inner series of zero constant term.  Orders k may be
negative (weights become m^{-k}); |k| is capped at K_MAX to keep weight
sizes sane.

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
    ps_exp_linear,
    ps_ipow,
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


def _weight(m: int, k: int) -> Fraction:
    # 1/m^k, written to stay exact for either sign of k
    return Fraction(1, m**k) if k >= 0 else Fraction(m ** (-k))


@lru_cache(maxsize=64)
def _inner_powers(inner: Series) -> tuple[Series, ...]:
    """inner^1 .. inner^order, shared between polylog orders k."""
    powers = [inner]
    for _ in range(inner.order - 1):
        powers.append(powers[-1] * inner)
    return tuple(powers)


def _weighted_sum(inner: Series, weights: list[Fraction]) -> Series:
    if inner.coeffs[0]:
        raise CompositionError("inner series must have zero constant term")
    order = inner.order
    acc = Series.zero(order)
    if order == 0:
        return acc
    for p, w in zip(_inner_powers(inner), weights):
        if w != 0:
            acc = ps_add(acc, ps_scale(p, w))
    return acc


def polylog_series(k: int, inner: Series, *, from_zero: bool = False) -> Series:
    """Li_k composed with ``inner`` (zero constant term required)."""
    _check_k(k)
    if from_zero and k > 0:
        raise RangeError("the m = 0 polylog term is undefined for k > 0")
    weights = [_weight(m, k) for m in range(1, inner.order + 1)]
    acc = _weighted_sum(inner, weights)
    if from_zero and k == 0:
        acc = ps_add(acc, Series.one(inner.order))
    return acc


def polyexp_series(k: int, inner: Series) -> Series:
    """e_k composed with ``inner`` (zero constant term required)."""
    _check_k(k)
    weights = [
        _weight(m, k) / math.factorial(m - 1)
        for m in range(1, inner.order + 1)
    ]
    return _weighted_sum(inner, weights)


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
