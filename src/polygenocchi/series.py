"""Exact truncated formal power series over the rationals.

Two value types, both immutable:

* ``Poly``: dense univariate polynomial in x with rational coefficients,
  no trailing zeros (the zero polynomial has degree -1).  It is the only
  type here that carries x.
* ``Series``: scalar power series sum_n c_n t^n in t, truncated at a
  fixed order N.  It is held in exponential form: its numerators are
  those of the exponential coefficients n! c_n, which every family here
  reads (P_n = n! [t^n]).  ``Series(order, coeffs)``, ``coeffs`` and
  ``coefficient`` take and give the Taylor coefficients c_n;
  ``from_egf`` and ``egf`` the values n! c_n.

A series in (t, u) truncated at orders (Nt, Nu) is a tuple of Nt+1
``Series`` in u of order Nu, row n the t^n coefficient; ``ps_mul``,
``ps_lincomb`` and ``ps_div`` on the rows do its arithmetic.

Every sum, difference and scalar multiple of series is one
``ps_lincomb``, reduced once however many terms it has; its terms must
all have its order.  ``ps_mul`` and ``ps_div`` truncate to the smaller
operand order, so results never claim more precision than their inputs.
Division cancels the denominator valuation and loses exactly that many
orders.  Nothing here ever rounds.

Both types hold one canonical form, the layout of FLINT's ``fmpq_poly``:
int numerators over one int denominator, den > 0, gcd(den, *nums) = 1.
A ``Poly`` has no trailing zero numerators (zero is ``((), 1)``); a
``Series`` of order N has exactly N+1, E_0..E_N with n! c_n = E_n/den,
so its order is their count less one.  The private base ``_IntForm``
owns that form: the one gcd-and-sign reduction behind both
``from_ints`` and ``ints``, and ``==`` and ``hash`` as tuple operations
that never equate a ``Poly`` with a ``Series`` (the hash is taken once
per value, since values key the verifier's run store).  The constructors
``Poly(coeffs)`` and ``Series(order, coeffs)`` convert their
coefficients once; every operation reads and builds the integer form, so
each O(order^2) inner loop runs over Python ints with one reduction per
result.  In exponential form a product is the binomial convolution
sum_i C(n,i) A_i B_{n-i} (a square sums each pair once), f' and the
integral of f shift the numerators, and f/t and t f shift them with a
factor 1/(n+1) or n.  ``ps_div`` is one binomial triangular solve over
ints, with the solved prefix kept as numerators over one running
denominator.  Neither the exponentials e^{rt} nor the kernels built from
them carry the factorials of their Taylor coefficients, so their
numerators stay about half the size.
``binomial_convolution`` is the exponential-generating-function product
sum_m C(n,m) a_{n-m} Q_m(x) of the verifier's row-level Appell-shaped
right-hand sides, its scalars a_j the exponential numerators of a
``Series`` over its denominator, so no scalar is converted from or to a
``Fraction``; ``ps_dilate`` rescales t for its kernel-level ones.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Iterable, Sequence, Union

from .errors import DivisionByNonUnit, ValuationError, exact_rational

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

    __slots__ = ("_nums", "_den", "_hash")

    def _set(self, nums: list[int], den: int) -> None:
        object.__setattr__(self, "_nums", tuple(nums))
        object.__setattr__(self, "_den", den)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # a copy or a pickle rebuilds through from_ints: the slots refuse
        # assignment
        return self.from_ints, self._from_ints_args()

    def _from_ints_args(self) -> tuple:
        return self.ints

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

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._den == other._den and self._nums == other._nums
        return NotImplemented

    def __hash__(self) -> int:
        # taken once: values key the verifier's run store
        try:
            return self._hash
        except AttributeError:
            h = hash((self._nums, self._den))
            object.__setattr__(self, "_hash", h)
            return h


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

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self._den) for c in self._nums)

    def coefficient(self, n: int) -> Fraction:
        if 0 <= n < len(self._nums):
            return Fraction(self._nums[n], self._den)
        return _ZERO

    @property
    def degree(self) -> int:
        return len(self._nums) - 1

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


def binomial_convolution(a: Series, polys: Sequence[Poly]) -> tuple[Poly, ...]:
    """(sum_{m<=n} C(n,m) a_{n-m} polys[m] for n < len(polys)).

    The t^n/n! coefficients of A(t) Q(x, t) for A = ``a``, whose
    exponential coefficients are the scalars a_j, and
    Q(x, t) = sum_m polys[m] t^m/m!: the shape of every Appell-type sum.
    ``a`` needs order >= len(polys) - 1; its later coefficients are
    unused.  The scalars are a's integer numerators over its denominator,
    and every polynomial is brought over the lcm of the polynomial
    denominators, so the sums run over Python ints.
    """
    size = len(polys)
    if a.order < size - 1:
        raise ValueError(
            f"a scalar series of order {a.order} for {size} polynomials"
        )
    weights, s_den = a.ints
    ints = [p.ints for p in polys]
    p_den = math.lcm(*[den for _, den in ints])
    rows = [[c * (p_den // den) for c in nums] for nums, den in ints]
    den = s_den * p_den
    table = _binomial_table(max(size - 1, 0))
    out = []
    width = 0
    for n in range(size):
        width = max(width, len(rows[n]))
        acc = [0] * width
        for m in range(n + 1):
            w = weights[n - m]
            if w and rows[m]:
                w *= table[m][n - m]
                for d, c in enumerate(rows[m]):
                    acc[d] += w * c
        out.append(Poly.from_ints(acc, den))
    return tuple(out)


def _lincomb(terms: Iterable[tuple[_IntForm, _Scalar]]) -> tuple[list[int], int]:
    """sum coef * value over the (value, coef) pairs of ``terms``, as
    integer numerators over one shared denominator: integer operations,
    not a Fraction and a value per term.  An int coefficient is read as
    its own numerator over 1; a float or bool one raises ConfigError."""
    parts = []
    for value, coef in terms:
        nums, den = value.ints
        if type(coef) is not int:
            coef = _fr(coef)
        if coef and nums:
            parts.append((nums, coef.numerator, den * coef.denominator))
    common = math.lcm(*[den for _, _, den in parts])
    out = [0] * max((len(nums) for nums, _, _ in parts), default=0)
    for nums, scale, den in parts:
        scale *= common // den
        for i, c in enumerate(nums):
            out[i] += scale * c
    return out, common


def poly_lincomb(terms: Iterable[tuple[Poly, _Scalar]]) -> Poly:
    """The sum of coef * p over the (p, coef) pairs of ``terms``."""
    return Poly.from_ints(*_lincomb(terms))


class Series(_IntForm):
    """Power series sum_{n<=order} c_n t^n with rational coefficients c_n,
    held as exactly order + 1 integer numerators E_n of the exponential
    coefficients n! c_n over one denominator; the zero series is all
    zeros over 1."""

    __slots__ = ()

    def __init__(self, order: int, coeffs: Iterable[_Scalar] = ()):
        # for reduced Fractions the lcm layout is already canonical
        nums, den = _numerators(
            [_fr(c) * math.factorial(n) for n, c in enumerate(coeffs)]
        )
        self._set(_padded(order, nums), den)

    @classmethod
    def from_ints(cls, order: int, nums: Iterable[int], den: int = 1) -> "Series":
        """The series sum_n nums[n] t^n / (n! den) of ``order``, in
        canonical integer form; missing numerators up to ``order`` are
        zero."""
        return cls._reduced(_padded(order, list(nums)), den)

    def _from_ints_args(self) -> tuple:
        return (self.order, *self.ints)

    @classmethod
    def from_egf(cls, order: int, values: Iterable[_Scalar]) -> "Series":
        """The series sum_n values[n] t^n / n! of ``order``: the exponential
        generating function of ``values``."""
        nums, den = _numerators([_fr(v) for v in values])
        return cls.from_ints(order, nums, den)

    @classmethod
    def zero(cls, order: int) -> "Series":
        return cls.from_ints(order, ())

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls.from_ints(order, (1,))

    @property
    def order(self) -> int:
        return len(self._nums) - 1

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The Taylor coefficients c_n."""
        return tuple(
            Fraction(c, self._den * math.factorial(n))
            for n, c in enumerate(self._nums)
        )

    def coefficient(self, n: int) -> Fraction:
        if 0 <= n < len(self._nums):
            return Fraction(self._nums[n], self._den * math.factorial(n))
        return _ZERO

    @property
    def egf(self) -> tuple[Fraction, ...]:
        """The exponential coefficients n! c_n."""
        return tuple(Fraction(c, self._den) for c in self._nums)

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient, None if all zero."""
        for n, c in enumerate(self._nums):
            if c:
                return n
        return None

    def __add__(self, other: "Series") -> "Series":
        return ps_lincomb(((self, 1), (other, 1)), self.order)

    def __sub__(self, other: "Series") -> "Series":
        return ps_lincomb(((self, 1), (other, -1)), self.order)

    def __neg__(self) -> "Series":
        return ps_lincomb(((self, -1),), self.order)

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


@lru_cache(maxsize=32)
def _binomial_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Row i holds C(i+j, i) for i + j <= n: the weight of the pair
    (A_i, B_j) in a product.  Each row is the running sum of the one
    above it, C(i+j, i) = sum_{m<=j} C(i-1+m, i-1)."""
    rows = [(1,) * (n + 1)]
    for i in range(1, n + 1):
        rows.append(tuple(accumulate(rows[-1][: n + 1 - i])))
    return tuple(rows)


def ps_lincomb(terms: Iterable[tuple[Series, _Scalar]], order: int) -> Series:
    """The sum of coef * a over the (a, coef) pairs of ``terms``; no terms
    give the zero series.  Every a must have ``order``, else ValueError:
    a shorter term would be read as zero past its order."""
    terms = tuple(terms)
    for a, _ in terms:
        if a.order != order:
            raise ValueError(
                f"a term of order {a.order} in a sum of order {order}"
            )
    return Series.from_ints(order, *_lincomb(terms))


def ps_dilate(a: Series, factor: _Scalar) -> Series:
    """a(factor t): for factor p/q, numerator j gains p^j q^(order-j)."""
    f, n = _fr(factor), a.order
    nums, den = a.ints
    scaled = [c * f.numerator**j * f.denominator ** (n - j) for j, c in enumerate(nums)]
    return Series.from_ints(n, scaled, den * f.denominator**n)


def ps_derivative(a: Series) -> Series:
    """a', of order a.order - 1: E_n becomes E_{n+1}."""
    nums, den = a.ints
    return Series.from_ints(a.order - 1, nums[1:], den)


def ps_integral(a: Series) -> Series:
    """The integral of ``a`` from 0, of order a.order + 1: E_n becomes
    E_{n-1}, with E_0 = 0."""
    nums, den = a.ints
    return Series.from_ints(a.order + 1, (0, *nums), den)


def ps_div_t(a: Series) -> Series:
    """a/t for ``a`` of zero constant term, of order a.order - 1: E_n
    becomes E_{n+1}/(n+1), over lcm(1..order)."""
    nums, den = a.ints
    if nums[0]:
        raise ValuationError("a/t needs a zero constant term")
    scale = math.lcm(*range(1, a.order + 1))
    return Series.from_ints(
        a.order - 1,
        [c * (scale // n) for n, c in enumerate(nums[1:], 1)],
        den * scale,
    )


def ps_mul_t(a: Series) -> Series:
    """t a, of order a.order + 1: E_n becomes n E_{n-1}."""
    nums, den = a.ints
    return Series.from_ints(
        a.order + 1, [0, *(n * c for n, c in enumerate(nums, 1))], den
    )


def ps_mul(a: Series, b: Series) -> Series:
    """Product truncated to the smaller operand order: the exponential
    numerators convolve binomially, sum_i C(n,i) A_i B_{n-i}.  A square
    (``a is b``) sums each unordered pair once."""
    n = min(a.order, b.order)
    an, a_den = a.ints
    bn, b_den = b.ints
    table = _binomial_table(n)
    out = [0] * (n + 1)
    if a is b:
        for i in range(n // 2 + 1):
            ai = an[i]
            if not ai:
                continue
            ti = table[i]
            for j in range(i + 1, n + 1 - i):
                aj = an[j]
                if aj:
                    out[i + j] += ti[j] * ai * aj
        out = [2 * c for c in out]
        for i in range(n // 2 + 1):
            out[2 * i] += table[i][i] * an[i] ** 2
    else:
        for i in range(n + 1):
            ai = an[i]
            if not ai:
                continue
            ti = table[i]
            for j in range(n + 1 - i):
                bj = bn[j]
                if bj:
                    out[i + j] += ti[j] * ai * bj
    return Series.from_ints(n, out, a_den * b_den)


def ps_div(num: Series, den: Series) -> Series:
    """Quotient after cancelling t^v from both sides, v = valuation(den).

    ``num`` must vanish at least to order v.  The result has order
    min(num.order, den.order) - v.  For num = N/a and den = D/b over
    integers, the quotient Q is (b/a) times the solution x of
    N_{k+v} = sum_{i<=k} C(k+v, i) x_i D_{k+v-i}, one binomial triangular
    solve whose pivot C(k+v, v) D_v needs no rescaling of t^v.  The
    solved x_0..x_{k-1} are kept as integer numerators X over the lcm L
    of their denominators, rescaled when L grows, so
    x_k = (N_{k+v} L - S) / (L C(k+v, v) D_v) with the integer
    S = sum_{1<=j<=k} C(k+v, j+v) D_{j+v} X_{k-j}: one gcd per coefficient.
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
    table = _binomial_table(n + v)
    xs: list[int] = []
    lcd = 1
    for k in range(n + 1):
        s = nn[k + v] * lcd
        for j in range(1, k + 1):
            dj = dn[j + v]
            if dj:
                s -= table[k - j][j + v] * dj * xs[k - j]
        pivot = lcd * math.comb(k + v, v) * dn[v]
        g = math.gcd(s, pivot)
        if pivot < 0:
            g = -g
        s //= g
        pivot //= g
        if lcd % pivot:
            grow = pivot // math.gcd(lcd, pivot)
            xs = [c * grow for c in xs]
            lcd *= grow
        xs.append(s * (lcd // pivot))
    return Series.from_ints(n, [c * d_den for c in xs], lcd * n_den)


def ps_exp_linear(rate: _Scalar, order: int) -> Series:
    """Series of exp(rate * t): exponential coefficients rate^n, for
    rate = p/q the numerators p^n q^(order-n) over q^order."""
    rate = _fr(rate)
    p, q = rate.numerator, rate.denominator
    return Series.from_ints(
        order, [p**n * q ** (order - n) for n in range(order + 1)], q**order
    )
