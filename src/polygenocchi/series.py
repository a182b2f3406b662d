"""Exact truncated formal power series over the rationals.

Two value types, both immutable:

* ``Poly``: dense univariate polynomial in x with rational coefficients,
  no trailing zeros (the zero polynomial has degree -1).  It is the only
  type here that carries x.
* ``Series``: scalar power series in t, truncated at a fixed order N, with
  N+1 rational coefficients.  Coefficients are plain Taylor coefficients
  c_n; any n! normalization is applied by callers when they extract
  polynomial families.

A series in (t, u) truncated at orders (Nt, Nu) is a tuple of Nt+1
``Series`` in u of order Nu, row n the t^n coefficient; ``ps_mul``,
``ps_add``, ``ps_scale`` and ``ps_div`` on the rows do its arithmetic.

Arithmetic truncates to the smaller operand order, so results never claim
more precision than their inputs.  Division cancels the denominator
valuation and loses exactly that many orders.  Nothing here ever rounds.

Both types hold one canonical form, the layout of FLINT's ``fmpq_poly``:
int numerators over one int denominator, den > 0, gcd(den, *nums) = 1.
A ``Poly`` has no trailing zero numerators (zero is ``((), 1)``); a
``Series`` of order N has exactly N+1, so its order is their count less
one.  The private base ``_IntForm`` owns that form: the one gcd-and-sign
reduction behind both ``from_ints``, ``ints``, the ``Fraction``-deriving
``coeffs`` and ``coefficient``, and ``==`` and ``hash`` as tuple
operations that never equate a ``Poly`` with a ``Series``.  The
constructors ``Poly(coeffs)`` and ``Series(order, coeffs)`` convert their
coefficients once; every operation reads and builds the integer form, so
each O(order^2) inner loop runs over Python ints with one reduction per
result.  ``ps_div`` and ``ps_exp`` solve their triangular recurrences
over ints, with the solved prefix kept as numerators over one running
denominator.
``binomial_convolution`` is the exponential-generating-function product
sum_m C(n,m) a_{n-m} Q_m(x) that every Appell-shaped right-hand side of
the verifier is.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import (
    CompositionError,
    DivisionByNonUnit,
    ValuationError,
    exact_rational,
)

_Scalar = Union[int, Fraction]

_ZERO = Fraction(0)


def _fr(value: _Scalar) -> Fraction:
    """``value`` as a Fraction; a float or a bool raises ConfigError, by
    the rule of ``errors.exact_rational``."""
    if isinstance(value, Fraction):
        return value
    return exact_rational(value, "a coefficient or scalar")


class _IntForm:
    """Integer numerators over one denominator in canonical form: den > 0,
    gcd(den, *nums) = 1.  Subclasses set the length rule of ``_nums``;
    values of different subclasses never compare equal."""

    __slots__ = ("_nums", "_den")

    def _set(self, nums: list[int], den: int) -> None:
        object.__setattr__(self, "_nums", tuple(nums))
        object.__setattr__(self, "_den", den)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def _reduced(cls, nums: list[int], den: int):
        """A new instance of sum nums[d] / den divided by the content
        gcd(den, *nums), with the sign moved onto the numerators."""
        if not den:
            raise ZeroDivisionError(
                f"{cls.__name__}.from_ints with denominator 0"
            )
        g = math.gcd(den, *nums)
        if den < 0:
            g = -g
        if g != 1:
            nums = [c // g for c in nums]
            den //= g
        value = object.__new__(cls)
        value._set(nums, den)
        return value

    @property
    def ints(self) -> tuple[tuple[int, ...], int]:
        """(nums, den), the canonical integer form."""
        return self._nums, self._den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self._den) for c in self._nums)

    def coefficient(self, n: int) -> Fraction:
        if 0 <= n < len(self._nums):
            return Fraction(self._nums[n], self._den)
        return _ZERO

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._den == other._den and self._nums == other._nums
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._nums, self._den))


class Poly(_IntForm):
    """Dense polynomial in x with rational coefficients, no trailing zeros,
    held as integer numerators over one denominator; ``ints`` of the zero
    polynomial is ((), 1)."""

    __slots__ = ()

    def __init__(self, coeffs: Iterable[_Scalar] = ()):
        # for reduced Fractions the lcm layout is already canonical
        nums, den = _numerators([_fr(c) for c in coeffs])
        while nums and not nums[-1]:
            nums.pop()
        self._set(nums, den)

    @classmethod
    def from_ints(cls, nums: Iterable[int], den: int = 1) -> "Poly":
        """The polynomial sum_d nums[d] x^d / den, in canonical integer
        form: den > 0, gcd(den, *nums) = 1, no trailing zero numerators."""
        nums = list(nums)
        while nums and not nums[-1]:
            nums.pop()
        return cls._reduced(nums, den)

    @classmethod
    def constant(cls, value: _Scalar) -> "Poly":
        return cls.monomial(0, value)

    @classmethod
    def monomial(cls, degree: int, coeff: _Scalar = 1) -> "Poly":
        f = _fr(coeff)
        return cls.from_ints((0,) * degree + (f.numerator,), f.denominator)

    @property
    def degree(self) -> int:
        return len(self._nums) - 1

    @property
    def is_zero(self) -> bool:
        return self.degree < 0

    @property
    def constant_term(self) -> Fraction:
        return self.coefficient(0)

    def evaluate(self, point: _Scalar) -> Fraction:
        """Horner evaluation at a rational point u/v, over integers.

        With numerators N_d over den, the value is
        sum_d N_d u^d v^(n-d) / (den v^n) for n the degree.
        """
        nums, den = self.ints
        if not nums:
            return _ZERO
        point = _fr(point)
        u, v = point.numerator, point.denominator
        acc, vp = 0, 1
        for c in reversed(nums):
            acc = acc * u + c * vp
            vp *= v
        return Fraction(acc, den * (vp // v))

    def substitute(self, inner: "Poly") -> "Poly":
        """self(a + b x) for inner = a + b x, by a Taylor shift over integers.

        With inner = (u + w x)/v in integer form and self = r(y)/den,
        self = R(v y)/(den v^n) for R_i = r_i v^(n-i) and n the degree, and
        v (a + b x) = u + w x, so self(a + b x) = S(w x)/(den v^n) where
        S(z) = R(z + u) is an integer Taylor shift.  Constant and zero
        inners are the case w = 0.  Inners of degree >= 2 raise ValueError.
        """
        if inner.degree > 1:
            raise ValueError("substitute takes an inner of degree <= 1")
        r, den = self.ints
        if not r:
            return self
        inner_nums, v = inner.ints
        u, w = (inner_nums + (0, 0))[:2]
        n = len(r) - 1
        r = [c * v ** (n - i) for i, c in enumerate(r)]
        if u:
            for i in range(n):
                for j in range(n - 1, i - 1, -1):
                    r[j] += u * r[j + 1]
        out = []
        wp = 1
        for c in r:
            out.append(c * wp)
            wp *= w
        return Poly.from_ints(out, den * v**n)

    def derivative(self) -> "Poly":
        nums, den = self.ints
        return Poly.from_ints((i * nums[i] for i in range(1, len(nums))), den)

    def __add__(self, other: "Poly") -> "Poly":
        return poly_lincomb(((self, 1), (other, 1)))

    def __mul__(self, other: _Scalar) -> "Poly":
        f = _fr(other)
        nums, den = self.ints
        return Poly.from_ints(
            (c * f.numerator for c in nums), den * f.denominator
        )

    def __repr__(self) -> str:
        return f"Poly({[str(c) for c in self.coeffs]})"


def _numerators(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of ``coeffs`` over their least common denominator."""
    den = math.lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def binomial_convolution(
    scalars: Sequence[_Scalar], polys: Sequence[Poly]
) -> list[Poly]:
    """[sum_{m<=n} C(n,m) scalars[n-m] polys[m] for n < len(polys)].

    The t^n/n! coefficients of A(t) Q(x, t) for the exponential generating
    functions A(t) = sum_j scalars[j] t^j/j! and
    Q(x, t) = sum_m polys[m] t^m/m!: the shape of every Appell-type sum.
    ``scalars`` needs at least len(polys) entries; later ones are unused.
    The scalars become integer numerators over their lcm, and every
    polynomial is brought over the lcm of the polynomial denominators, so
    the sums run over Python ints.
    """
    size = len(polys)
    if len(scalars) < size:
        raise ValueError(f"{len(scalars)} scalars for {size} polynomials")
    weights, s_den = _numerators([_fr(c) for c in scalars[:size]])
    ints = [p.ints for p in polys]
    p_den = math.lcm(*[den for _, den in ints])
    rows = [[c * (p_den // den) for c in nums] for nums, den in ints]
    den = s_den * p_den
    out = []
    width = 0
    for n in range(size):
        width = max(width, len(rows[n]))
        acc = [0] * width
        for m in range(n + 1):
            w = weights[n - m]
            if w and rows[m]:
                w *= math.comb(n, m)
                for d, c in enumerate(rows[m]):
                    acc[d] += w * c
        out.append(Poly.from_ints(acc, den))
    return out


def poly_lincomb(terms: Iterable[tuple[Poly, _Scalar]]) -> Poly:
    """The sum of coef * p over the (p, coef) pairs of ``terms``.

    Numerators stay Python ints over one shared denominator, so the sum
    costs integer operations, not a Fraction and a Poly per term.
    """
    parts = []
    for p, coef in terms:
        nums, den = p.ints
        if coef and nums:
            parts.append((nums, coef.numerator, den * coef.denominator))
    common = math.lcm(*[den for _, _, den in parts])
    out = [0] * max((len(nums) for nums, _, _ in parts), default=0)
    for nums, scale, den in parts:
        scale *= common // den
        for i, c in enumerate(nums):
            out[i] += scale * c
    return Poly.from_ints(out, common)


class Series(_IntForm):
    """Power series sum_{n<=order} c_n t^n with rational coefficients c_n,
    held as exactly order + 1 integer numerators over one denominator; the
    zero series is all zeros over 1."""

    __slots__ = ()

    def __init__(self, order: int, coeffs: Iterable[_Scalar] = ()):
        # for reduced Fractions the lcm layout is already canonical
        nums, den = _numerators([_fr(c) for c in coeffs])
        self._set(_padded(order, nums), den)

    @classmethod
    def from_ints(cls, order: int, nums: Iterable[int], den: int = 1) -> "Series":
        """The series sum_n nums[n] t^n / den of ``order``, in canonical
        integer form; missing numerators up to ``order`` are zero."""
        return cls._reduced(_padded(order, list(nums)), den)

    @classmethod
    def zero(cls, order: int) -> "Series":
        return cls.from_ints(order, ())

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls.from_ints(order, (1,))

    @property
    def order(self) -> int:
        return len(self._nums) - 1

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient, None if all zero."""
        for n, c in enumerate(self._nums):
            if c:
                return n
        return None

    def __add__(self, other: "Series") -> "Series":
        return ps_add(self, other)

    def __sub__(self, other: "Series") -> "Series":
        return ps_add(self, -other)

    def __neg__(self) -> "Series":
        return ps_scale(self, -1)

    def __repr__(self) -> str:
        coeffs = [str(c) for c in self.coeffs]
        return f"Series(order={self.order}, coeffs={coeffs})"


def _padded(order: int, nums: list[int]) -> list[int]:
    """``nums`` padded with zeros to order + 1 numerators."""
    if order < 0:
        raise ValueError("series order must be >= 0")
    if len(nums) > order + 1:
        raise ValueError("more coefficients than order allows")
    nums.extend([0] * (order + 1 - len(nums)))
    return nums


def ps_add(a: Series, b: Series) -> Series:
    n = min(a.order, b.order)
    an, a_den = a.ints
    bn, b_den = b.ints
    den = math.lcm(a_den, b_den)
    sa, sb = den // a_den, den // b_den
    return Series.from_ints(
        n, [sa * an[i] + sb * bn[i] for i in range(n + 1)], den
    )


def ps_scale(a: Series, factor: _Scalar) -> Series:
    factor = _fr(factor)
    nums, den = a.ints
    return Series.from_ints(
        a.order, [c * factor.numerator for c in nums], den * factor.denominator
    )


def ps_mul(a: Series, b: Series) -> Series:
    """Cauchy product truncated to the smaller operand order, over the
    integer numerators of both operands."""
    n = min(a.order, b.order)
    an, a_den = a.ints
    bn, b_den = b.ints
    out = [0] * (n + 1)
    for i in range(n + 1):
        ai = an[i]
        if not ai:
            continue
        for j in range(n + 1 - i):
            bj = bn[j]
            if bj:
                out[i + j] += ai * bj
    return Series.from_ints(n, out, a_den * b_den)


def _solve_triangular(
    rhs: Sequence[int], conv: Sequence[int], pivots: Sequence[int]
) -> tuple[list[int], int]:
    """x_i = (rhs_i + sum_{1<=j<=i} conv_j x_{i-j}) / pivots_i for each i,
    over integers, as (numerators, denominator).

    The solved x_0..x_{i-1} are kept as integer numerators X over the lcm
    L of their denominators, rescaled when L grows, so
    x_i = (rhs_i L + S) / (L pivot_i) with the integer
    S = sum_j conv_j X_{i-j}: one gcd per coefficient.
    """
    xs: list[int] = []
    lcd = 1
    for i, pivot in enumerate(pivots):
        s = rhs[i] * lcd
        for j in range(1, i + 1):
            cj = conv[j]
            if cj:
                s += cj * xs[i - j]
        den = lcd * pivot
        g = math.gcd(s, den)
        if den < 0:
            g = -g
        s //= g
        den //= g
        if lcd % den:
            grow = den // math.gcd(lcd, den)
            xs = [c * grow for c in xs]
            lcd *= grow
        xs.append(s * (lcd // den))
    return xs, lcd


def ps_div(num: Series, den: Series) -> Series:
    """Quotient after cancelling t^v from both sides, v = valuation(den).

    ``num`` must vanish at least to order v.  The result has order
    min(num.order, den.order) - v.  For num = N/a and den = D/b over
    integers, the quotient is (b/a)(N/D), and N/D is long division over
    integers (``_solve_triangular``).
    """
    v = den.valuation()
    if v is None:
        raise DivisionByNonUnit("division by the zero series")
    v_num = num.valuation()
    if v_num is not None and v_num < v:
        raise ValuationError(
            f"numerator valuation {v_num} < denominator valuation {v}"
        )
    n = min(num.order, den.order) - v
    if n < 0:
        raise ValuationError(
            "operands too short to determine any quotient coefficient"
        )
    nn, n_den = num.ints
    dn, d_den = den.ints
    dc = dn[v : v + n + 1]
    xs, lcd = _solve_triangular(
        nn[v : v + n + 1], [-c for c in dc], [dc[0]] * (n + 1)
    )
    return Series.from_ints(n, [c * d_den for c in xs], lcd * n_den)


def ps_exp(a: Series) -> Series:
    """exp(a) for ``a`` with zero constant term.

    E = exp(a) solves E' = a' E with E_0 = 1, so for a = A/den over
    integers n E_n = sum_{1<=j<=n} (j A_j / den) E_{n-j}: O(order^2), no
    powers of a.
    """
    nums, den = a.ints
    if nums[0]:
        raise CompositionError("exp needs a zero constant term")
    n = a.order
    xs, lcd = _solve_triangular(
        [1] + [0] * n,
        [j * c for j, c in enumerate(nums)],
        [1] + [i * den for i in range(1, n + 1)],
    )
    return Series.from_ints(n, xs, lcd)


def ps_ipow(base: Series, exponent: int) -> Series:
    """Integer power by repeated squaring; exponent 0 gives the one series."""
    if exponent < 0:
        raise ValueError("exponent must be >= 0")
    result = None
    square = base
    e = exponent
    while e:
        if e & 1:
            result = square if result is None else ps_mul(result, square)
        e >>= 1
        if e:
            square = ps_mul(square, square)
    return Series.one(base.order) if result is None else result


def ps_exp_linear(rate: _Scalar, order: int) -> Series:
    """Series of exp(rate * t): coefficients rate^n / n!.

    For rate = p/q these are p^n q^(order-n) (order!/n!) over
    q^order order!, each numerator the last times p / (q (n+1)).
    """
    rate = _fr(rate)
    p, q = rate.numerator, rate.denominator
    c = q**order * math.factorial(order)
    nums = [c]
    for n in range(order):
        c = c * p // (q * (n + 1))
        nums.append(c)
    return Series.from_ints(order, nums, nums[0])
