"""Polylogarithm and polyexponential kernels at the paper's two inners.

The polylogarithm here is the formal sum Li_k(z) = sum_{m>=1} z^m / m^k
and the polyexponential is e_k(z) = sum_{m>=1} z^m / ((m-1)! m^k).  The
families compose each with one inner series at a rational rate r:
``polylog_series`` is Li_k(1 - e^{-rt}) and ``polyexp_series`` is
e_k(log(1 + rt)).  Orders k may be negative (weights become m^{-k}); |k|
is capped at K_MAX to keep weight sizes sane.

Both families satisfy z d/dz f_k = f_{k-1}, so each kernel is built by a
ladder over k rather than by powers of the inner w.  It starts at a
closed form, Li_0(w) = w/(1 - w) = e^{rt} - 1 or e_1(w) = exp(w) - 1 = rt,
and steps down, f_{k-1} = t D f_k', or up, f_{k+1} = integral of
(f_k/t) U, with D = w/(t w') and U = 1/D.  D is a closed form too; its
exponential coefficients n! [t^n] are r^n/(n+1) for type 1, where
D = (e^{rt} - 1)/(rt), and 1, then (-1)^{n+1} (n-1)! r^n/(n+1), for
type 2, where D = (1 + rt) log(1 + rt)/(rt).  So a rung is one product,
and U costs one division per (type, r, order).  A series of order n
costs O(|k| n^2).  The derivative, the integral, f/t and t f are the
shifts of the exponential numerators of ``Series`` (``ps_derivative``,
``ps_integral``, ``ps_div_t``, ``ps_mul_t``), so the ladder never reads
the numerator layout itself.  The factors are cached per (type,
direction, r, order) in an ``lru_cache`` of 64 entries and the rungs per
(type, k, r, order) in one of 512, so a grid that sweeps k at one rate
shares them.  At r = 0 the inner is zero, and so is every rung.
``families`` builds every kernel from these, and the store of its caller
keeps each one per what it reads.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Union

from .errors import Immutable, RangeError, exact_int, exact_rational
from .series import (
    Series,
    ps_derivative,
    ps_div,
    ps_div_t,
    ps_exp_linear,
    ps_integral,
    ps_mul,
    ps_mul_t,
)

K_MAX = 16

_Scalar = Union[int, Fraction]


class ParamPoint(Immutable):
    """Rational surrogates (lam, ln a, ln b, ln c) for a family instance:
    ints or Fractions, stored as Fractions; a float or a bool raises.
    ``ln_ab`` = ln a + ln b and the hash are taken once, when the point is
    built: many forms read ln ab, and points key the run's store."""

    __slots__ = ("lam", "ln_a", "ln_b", "ln_c", "ln_ab", "_hash")
    _fields = ("lam", "ln_a", "ln_b", "ln_c")

    lam: Fraction
    ln_a: Fraction
    ln_b: Fraction
    ln_c: Fraction
    ln_ab: Fraction

    def __init__(
        self, lam: _Scalar, ln_a: _Scalar, ln_b: _Scalar, ln_c: _Scalar
    ) -> None:
        coords = tuple(
            exact_rational(value, name)
            for name, value in zip(self._fields, (lam, ln_a, ln_b, ln_c))
        )
        self._set(
            **dict(zip(self._fields, coords)),
            ln_ab=coords[1] + coords[2],
            _hash=hash(coords),
        )

    def __hash__(self) -> int:
        return self._hash


CLASSICAL_POINT = ParamPoint(Fraction(1), Fraction(0), Fraction(1), Fraction(1))


def _check_k(k: int) -> None:
    if abs(exact_int(k, "k")) > K_MAX:
        raise RangeError(f"|k| must be <= {K_MAX}, got {k}")


@lru_cache(maxsize=64)
def _factor(polylog: bool, up: bool, r: Fraction, order: int) -> Series:
    """D = w/(t w') or, ``up``, U = 1/D to ``order``, w the type-1 inner
    1 - e^{-rt} (``polylog``) or the type-2 inner log(1 + rt)."""
    if up:
        return ps_div(Series.one(order), _factor(polylog, False, r, order))
    if polylog:
        values = [r**n / (n + 1) for n in range(order + 1)]
    else:
        values = [1] + [
            (-1) ** (n + 1) * factorial(n - 1) * r**n / (n + 1)
            for n in range(1, order + 1)
        ]
    return Series.from_egf(order, values)


@lru_cache(maxsize=512)
def _rung(polylog: bool, k: int, r: Fraction, order: int) -> Series:
    """Li_k(1 - e^{-rt}) (``polylog``) or e_k(log(1 + rt)) to ``order``
    >= 1, from the rung next to it towards Li_0 or e_1 (see the module
    docstring)."""
    base = 0 if polylog else 1
    if k == base:
        if polylog:
            return ps_exp_linear(r, order) - Series.one(order)
        return Series.from_egf(order, (0, r))
    if k > base:
        f = ps_div_t(_rung(polylog, k - 1, r, order))
        return ps_integral(ps_mul(f, _factor(polylog, True, r, order - 1)))
    df = ps_derivative(_rung(polylog, k + 1, r, order))
    return ps_mul_t(ps_mul(_factor(polylog, False, r, order - 1), df))


def _ladder(polylog: bool, k: int, r: _Scalar, order: int) -> Series:
    _check_k(k)
    r = exact_rational(r, "r")
    if order < 1:
        # every rung has zero constant term
        return Series.zero(order)
    return _rung(polylog, k, r, order)


def polylog_series(k: int, r: _Scalar, order: int) -> Series:
    """Li_k(1 - e^{-rt}) to ``order``."""
    return _ladder(True, k, r, order)


def polyexp_series(k: int, r: _Scalar, order: int) -> Series:
    """e_k(log(1 + rt)) to ``order``."""
    return _ladder(False, k, r, order)
