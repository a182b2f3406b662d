"""A second, optional oracle: sympy expansions of the generating functions.

It shares no code with the library or with ``oracles.py``: the kernels are
expanded by ``sympy.series``, with the polylog and the polyexponential
written as their sums truncated at the series order, and the classical
families are read from ``sympy.genocchi`` and ``sympy.bernoulli``.
"""

from fractions import Fraction

import pytest

from polygenocchi import (
    APOSTOL_BERNOULLI,
    CLASSICAL_GENOCCHI,
    CLASSICAL_POINT,
    TYPE1,
    TYPE2,
    FamilySpec,
    ParamPoint,
    family_series,
)
from polygenocchi import families

sp = pytest.importorskip("sympy")

ORDER = 6
# lam outside {-1, 0, 1}, ln a and ln b nonzero and unequal
POINT = ParamPoint(Fraction(2), Fraction(1, 2), Fraction(1, 3), Fraction(3, 2))
t, x = sp.symbols("t x")


def rational(value):
    return sp.Rational(value.numerator, value.denominator)


def sympy_kernel(tag, k, alpha):
    lam, ln_a, ln_b = (rational(v) for v in (POINT.lam, POINT.ln_a, POINT.ln_b))
    if tag == "type1":
        z = 1 - sp.exp(-2 * t * (ln_a + ln_b))
        num = sum(z**m / sp.Integer(m) ** k for m in range(1, ORDER + 1))
    else:
        w = sp.log(1 + 2 * t * (ln_a + ln_b))
        num = sum(
            w**m / (sp.factorial(m - 1) * sp.Integer(m) ** k)
            for m in range(1, ORDER + 1)
        )
    kernel = (num / (sp.exp(-ln_a * t) + lam * sp.exp(ln_b * t))) ** alpha
    expansion = sp.series(kernel, t, 0, ORDER + 1).removeO()
    return [expansion.coeff(t, n) for n in range(ORDER + 1)]


def as_sympy(poly):
    return sum(rational(c) * x**d for d, c in enumerate(poly.coeffs))


@pytest.mark.parametrize(
    "tag, k, alpha",
    [
        # k = 3 climbs the ladder from Li_0; k = -2 steps down from e_1
        (TYPE1, 3, 1),
        (TYPE2, -2, 2),
    ],
)
def test_kernel_matches_sympy_series(tag, k, alpha):
    kernel = families.kernel_power(FamilySpec(tag, k=k), POINT, ORDER, {})
    got = families.stored_power(kernel, alpha, {})
    expected = sympy_kernel(tag, k, alpha)
    assert [rational(c) for c in got.coeffs] == expected


def test_classical_genocchi_matches_sympy():
    polys = family_series(
        FamilySpec(CLASSICAL_GENOCCHI), CLASSICAL_POINT, ORDER
    ).polys
    # sympy >= 1.12 takes the negatives of the 2t e^{xt}/(e^t + 1)
    # polynomials; G_1(x) = 1 fixes the sign
    sign = sp.genocchi(1, x)
    for n, p in enumerate(polys):
        assert sp.expand(as_sympy(p) - sign * sp.genocchi(n, x)) == 0


def test_classical_bernoulli_matches_sympy():
    # t e^{xt}/(lam e^t - 1) at lam = 1 is the classical Bernoulli family
    polys = family_series(
        FamilySpec(APOSTOL_BERNOULLI, alpha=1), CLASSICAL_POINT, ORDER
    ).polys
    for n, p in enumerate(polys):
        assert sp.expand(as_sympy(p) - sp.bernoulli(n, x)) == 0
