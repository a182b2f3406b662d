"""Polylogarithm / polyexponential ladder and its inner series.

The polylogarithm here is the formal sum Li_k(z) = sum_{m>=1} z^m / m^k
and the polyexponential is e_k(z) = sum_{m>=1} z^m / ((m-1)! m^k), both
composed with an inner series w of zero constant term.  Orders k may be
negative (weights become m^{-k}); |k| is capped at K_MAX to keep weight
sizes sane.

Both families satisfy z d/dz f_k = f_{k-1}, so the composition is built by
a ladder over k rather than by powers of w: start at Li_0(w) = w/(1 - w)
or e_1(w) = exp(w) - 1 and step up, f_{k+1} = integral of
(f_k/t)(t w'/w), or down, f_{k-1} = t (w/(t w')) f_k'.  The two factors
are unit series, one division each; every rung is one product.  A
series of order n thus costs O(|k| n^2), against O(n^3) for the powers.
The derivative, the integral, f/t and t f are the shifts of the
exponential numerators of ``Series`` (``ps_derivative``,
``ps_integral``, ``ps_div_t``, ``ps_mul_t``), so the ladder never reads
the numerator layout itself.  The factors are
cached per (inner, direction) in an ``lru_cache`` of 64 entries and the
rungs per (family, k, inner) in one of 512, so a grid that sweeps k over
one inner shares them; a series hashes as its integer tuple.  A zero
inner gives the zero series.  ``families`` builds every kernel from
these, and the store of its caller keeps each one per what it reads.

``polylog_from_zero`` extends the polylog sum to m = 0.  That term is
z^0 / 0^k, which is 1 for k = 0 and 0 for k < 0; for k > 0 it is
undefined and requesting it raises RangeError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union

from .errors import CompositionError, RangeError, exact_int, exact_rational
from .series import (
    Series,
    ps_add,
    ps_derivative,
    ps_div,
    ps_div_t,
    ps_exp,
    ps_exp_linear,
    ps_integral,
    ps_mul,
    ps_mul_t,
    ps_pad,
)

K_MAX = 16

_Scalar = Union[int, Fraction]


@dataclass(frozen=True)
class ParamPoint:
    """Rational surrogates (lam, ln a, ln b, ln c) for a family instance:
    ints or Fractions, stored as Fractions; a float or a bool raises."""

    lam: Fraction
    ln_a: Fraction
    ln_b: Fraction
    ln_c: Fraction

    def __post_init__(self) -> None:
        for name in ("lam", "ln_a", "ln_b", "ln_c"):
            value = exact_rational(getattr(self, name), name)
            object.__setattr__(self, name, value)
        # points key the expansion caches: hash the four Fractions once
        object.__setattr__(
            self, "_hash", hash((self.lam, self.ln_a, self.ln_b, self.ln_c))
        )

    def __hash__(self) -> int:
        return self._hash

    @property
    def ln_ab(self) -> Fraction:
        return self.ln_a + self.ln_b


CLASSICAL_POINT = ParamPoint(Fraction(1), Fraction(0), Fraction(1), Fraction(1))


def _check_k(k: int) -> None:
    if abs(exact_int(k, "k")) > K_MAX:
        raise RangeError(f"|k| must be <= {K_MAX}, got {k}")


@lru_cache(maxsize=64)
def _ladder_factor(inner: Series, up: bool) -> Series:
    """t w'/w (``up``) or its reciprocal w/(t w'), w = ``inner``.

    Both are unit series.  For w of valuation v, t w' has valuation v too
    and the division cancels t^v, losing v orders, so w is padded with
    zeros to order n + v - 1 first: the factor reaches t^(n-1), and the
    ladder's coefficients up to t^n depend on w_0..w_n only.
    """
    w = ps_pad(inner, inner.order + inner.valuation() - 1)
    t_dw = ps_mul_t(ps_derivative(w))
    return ps_div(t_dw, w) if up else ps_div(w, t_dw)


@lru_cache(maxsize=512)
def _rung(polylog: bool, k: int, inner: Series) -> Series:
    """Li_k(w) (``polylog``) or e_k(w), w = ``inner`` of valuation >= 1,
    from the rung next to it towards Li_0 or e_1 (see the module
    docstring)."""
    base = 0 if polylog else 1
    if k == base:
        one = Series.one(inner.order)
        if polylog:
            return ps_div(inner, one - inner)
        return ps_exp(inner) - one
    if k > base:
        f = ps_div_t(_rung(polylog, k - 1, inner))
        return ps_integral(ps_mul(f, _ladder_factor(inner, True)))
    df = ps_derivative(_rung(polylog, k + 1, inner))
    return ps_mul_t(ps_mul(_ladder_factor(inner, False), df))


def _composed(polylog: bool, k: int, inner: Series) -> Series:
    if inner.coefficient(0):
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
    return ps_exp_linear(rate, order) - Series.one(order)
