"""Independent reference computations used to pin expected values.

Everything here works on plain lists of Fractions and imports nothing
from the package, so a bug in the library cannot hide inside its own
oracle.
"""

from fractions import Fraction
from math import comb, factorial


class PartitionError(ValueError):
    """Multinomial parts do not sum to the expected total."""


class CompositionError(ValueError):
    """Composition needs an inner series with zero constant term."""


def convolve(a, b, order):
    """Cauchy product of two coefficient lists, truncated at ``order``."""
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        if ai == 0:
            continue
        for j, bj in enumerate(b[: order + 1 - i]):
            out[i + j] += ai * bj
    return out


def divide(num, den, order):
    """Long division of coefficient lists; den[0] must be nonzero."""
    if den[0] == 0:
        raise ZeroDivisionError("denominator has zero constant term")
    q = [Fraction(0)] * (order + 1)
    for n in range(order + 1):
        acc = num[n] if n < len(num) else Fraction(0)
        for i in range(1, min(n, len(den) - 1) + 1):
            acc -= den[i] * q[n - i]
        q[n] = acc / den[0]
    return q


def derivative(a):
    """Coefficients of a' for a coefficient list a of length >= 2."""
    return [n * a[n] for n in range(1, len(a))]


def integral(a):
    """Coefficients of the integral of a from 0: one longer than a."""
    return [Fraction(0)] + [c / (n + 1) for n, c in enumerate(a)]


def compose(outer, inner):
    """outer(inner(t)) by Horner's rule, truncated at the shorter order."""
    if inner[0] != 0:
        raise CompositionError("inner series must have zero constant term")
    order = min(len(outer), len(inner)) - 1
    acc = [Fraction(0)] * (order + 1)
    for c in reversed(outer[: order + 1]):
        acc = convolve(acc, inner, order)
        acc[0] += c
    return acc


def binomial_convolution(scalars, polys):
    """[sum_{m<=n} C(n,m) scalars[n-m] polys[m] for n < len(polys)] over
    coefficient lists, each result without trailing zeros."""
    out = []
    for n in range(len(polys)):
        acc = [Fraction(0)] * max(len(p) for p in polys[: n + 1])
        for m in range(n + 1):
            weight = comb(n, m) * Fraction(scalars[n - m])
            for d, c in enumerate(polys[m]):
                acc[d] += weight * c
        while acc and acc[-1] == 0:
            acc.pop()
        out.append(acc)
    return out


def horner_compose(p, inner):
    """p(inner(x)) for coefficient lists p and inner, by Horner's rule,
    without trailing zeros."""
    acc = []
    for c in reversed(p):
        if acc:
            acc = convolve(acc, inner, len(acc) + len(inner) - 2)
        acc = acc or [Fraction(0)]
        acc[0] += c
    while acc and acc[-1] == 0:
        acc.pop()
    return acc


def stirling_convolution(c, alpha, jmax):
    """d_j = sum over compositions of j into alpha parts of
    multinomial(j; parts) prod_i c_{part_i}, for j <= jmax."""
    out = []
    for j in range(jmax + 1):
        acc = Fraction(0)
        for parts in compositions(j, alpha):
            prod = Fraction(multinomial(j, parts))
            for part in parts:
                prod *= c[part]
            acc += prod
        out.append(acc)
    return tuple(out)


def stirling2_explicit(n, m):
    """S2(n, m) = sum_{i<=m} (-1)^(m-i) C(m,i) i^n / m!, for n >= 0."""
    if m < 0 or m > n:
        return 0
    total = sum((-1) ** (m - i) * comb(m, i) * i**n for i in range(m + 1))
    return total // factorial(m)


def kaneko_poly_bernoulli(n, k):
    """Kaneko's poly-Bernoulli number B_n^{(-k)} for n, k >= 0, by his
    closed form sum_m (m!)^2 S2(n+1, m+1) S2(k+1, m+1) (M. Kaneko,
    J. Theor. Nombres Bordeaux 9 (1997) 221-228)."""
    return sum(
        factorial(m) ** 2
        * stirling2_explicit(n + 1, m + 1)
        * stirling2_explicit(k + 1, m + 1)
        for m in range(min(n, k) + 1)
    )


def stirling1_explicit(n, m):
    """Signed first-kind s(n, m) by Schlaefli's formula, for n >= 0:
    sum_{j<=n-m} (-1)^j C(n-1+j, n-m+j) C(2n-m, n-m-j) S2(n-m+j, j)."""
    if m < 0 or m > n:
        return 0
    if n == 0:
        return 1
    return sum(
        (-1) ** j
        * comb(n - 1 + j, n - m + j)
        * comb(2 * n - m, n - m - j)
        * stirling2_explicit(n - m + j, j)
        for j in range(n - m + 1)
    )


def stirling_weights(which, k, rate, jmax, oriented=False):
    """c_j = sum_{m<=j} w_m rate^j / ((j+1) (m+1)^(k-1)) for j <= jmax,
    term by term: w_m = (-1)^(m+1) m! S2(j+1,m+1) for type 1, or
    (-1)^m m! S2(j+1,m+1) when ``oriented``; s1(j+1,m+1) for type 2."""
    out = []
    for j in range(jmax + 1):
        acc = Fraction(0)
        for m in range(j + 1):
            if which == 1:
                sign = (-1) ** (m if oriented else m + 1)
                w = sign * factorial(m) * stirling2_explicit(j + 1, m + 1)
            else:
                w = stirling1_explicit(j + 1, m + 1)
            acc += w * Fraction(rate) ** j / ((j + 1) * Fraction(m + 1) ** (k - 1))
        out.append(acc)
    return tuple(out)


def bivariate_convolve(a, b, nt, nu):
    """Cauchy product of two (t, u) coefficient grids, truncated at
    (nt, nu); a row shorter than nu + 1 is zero past its end."""
    out = [[Fraction(0)] * (nu + 1) for _ in range(nt + 1)]
    for i, a_row in enumerate(a[: nt + 1]):
        for j, aij in enumerate(a_row[: nu + 1]):
            for p, b_row in enumerate(b[: nt + 1 - i]):
                for q, bpq in enumerate(b_row[: nu + 1 - j]):
                    out[i + p][j + q] += aij * bpq
    return out


def double_gf_grids(alpha, lam, ln_a, ln_b, ln_c, x, y, nt, nu):
    """Numerator exp(Au) exp((B+2)t) and denominator
    (1 + lam e^t)(e^{2t} - e^{2t+u} + e^u) of the symmetrized double
    generating function as (nt+1) x (nu+1) grids, A = (y ln c + alpha ln a)
    / ln(ab) and B likewise for x."""
    lab = ln_a + ln_b
    a_rate = (y * ln_c + alpha * ln_a) / lab
    b_rate = (x * ln_c + alpha * ln_a) / lab
    numer = [
        [
            (b_rate + 2) ** n / factorial(n) * a_rate**m / factorial(m)
            for m in range(nu + 1)
        ]
        for n in range(nt + 1)
    ]
    first = [[1 + lam]] + [[lam / factorial(n)] for n in range(1, nt + 1)]
    second = [
        [
            Fraction(2**n, factorial(n)) * (m == 0)  # e^{2t}
            - Fraction(2**n, factorial(n) * factorial(m))  # -e^{2t+u}
            + Fraction(n == 0, factorial(m))  # e^u
            for m in range(nu + 1)
        ]
        for n in range(nt + 1)
    ]
    return numer, bivariate_convolve(first, second, nt, nu)


def rising_factorial_value(point, m):
    """x(x+1)...(x+m-1) at ``point``."""
    out = Fraction(1)
    for i in range(m):
        out *= point + i
    return out


def falling_factorial_value(point, m):
    """x(x-1)...(x-m+1) at ``point``."""
    out = Fraction(1)
    for i in range(m):
        out *= point - i
    return out


def exp_coeffs(rate, order):
    """Coefficients of exp(rate * t)."""
    rate = Fraction(rate)
    return [rate**n / factorial(n) for n in range(order + 1)]


def family_rows(kernel_coeffs, rate, order):
    """Coefficient lists of P_0 .. P_order, each without trailing zeros,
    for P_n = n! sum_d K_{n-d} (rate^d / d!) x^d: the t^n/n! coefficients
    of K(t) exp(x t rate), by a Cauchy product of Fractions."""
    ex = exp_coeffs(rate, order)
    rows = []
    for n in range(order + 1):
        row = [
            Fraction(kernel_coeffs[n - d]) * ex[d] * factorial(n)
            for d in range(n + 1)
        ]
        while row and row[-1] == 0:
            row.pop()
        rows.append(row)
    return rows


def multinomial(total, parts):
    """total! / (parts[0]! ... parts[-1]!); parts must sum to total."""
    if any(p < 0 for p in parts):
        raise PartitionError("parts must be nonnegative")
    if sum(parts) != total:
        raise PartitionError(f"parts sum to {sum(parts)}, expected {total}")
    out = 1
    remaining = total
    for p in parts:
        out *= comb(remaining, p)
        remaining -= p
    return out


def compositions(total, parts):
    """Ordered tuples of ``parts`` nonnegative integers summing to ``total``.

    parts = 0 yields the empty composition exactly when total = 0.
    """
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail


def power_by_multinomial(f, alpha, order):
    """f(t)^alpha summed term by term over ordered index tuples."""
    if alpha == 0:
        return [Fraction(1)] + [Fraction(0)] * order
    out = []
    for n in range(order + 1):
        acc = Fraction(0)
        for parts in compositions(n, alpha):
            prod = Fraction(1)
            for p in parts:
                prod *= f[p] if p < len(f) else Fraction(0)
                if prod == 0:
                    break
            acc += prod
        out.append(acc)
    return out


def genocchi_polynomials(n_max):
    """Classical family from 2t e^{xt}/(e^t + 1) by direct long division.

    Returns a list of coefficient lists: result[n][d] is the x^d
    coefficient of the degree-n member.
    """
    order = n_max
    den = exp_coeffs(1, order)
    den[0] += 1
    num = [Fraction(0), Fraction(2)] + [Fraction(0)] * max(order - 1, 0)
    kernel = divide(num, den, order)
    polys = []
    for n in range(n_max + 1):
        # t^n/n! coefficient of kernel * e^{xt}: sum_d kernel[n-d] x^d/d!,
        # so the x^d coefficient of P_n is kernel[n-d] * n!/d!
        coeffs = [
            kernel[n - d] * Fraction(factorial(n), factorial(d))
            for d in range(n + 1)
        ]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        polys.append(coeffs)
    return polys


def _polylog_type_sum(inner, weights, order):
    """sum_m weights[m] inner^m for m >= 1, powers by repeated convolution."""
    out = [Fraction(0)] * (order + 1)
    power = [Fraction(1)] + [Fraction(0)] * order
    for m in range(1, order + 1):
        power = convolve(power, inner, order)
        for n in range(order + 1):
            out[n] += weights[m] * power[n]
    return out


def quotient_power(num, den, alpha, order):
    """(num / den)^alpha to ``order`` from coefficient lists of at least
    order + 2 terms.  When den[0] = 0 the common factor t is cancelled
    first; num[0] must then vanish too."""
    if den[0] == 0:
        if num[0] != 0:
            raise ZeroDivisionError("numerator does not vanish with den")
        num, den = num[1:], den[1:]
    return power_by_multinomial(divide(num, den, order), alpha, order)


def family_kernel(tag, k, alpha, lam, ln_a, ln_b, mu, order, from_zero=False):
    """K^alpha of the family named ``tag`` to ``order``, each kernel
    written out from its generating function:

    * type1, type2: Li_k(1 - e^{-rt}), e_k(log(1 + rt)) with r = 2 ln(ab),
      over e^{-ln_a t} + lam e^{ln_b t};
    * apostol-poly-bernoulli-t1, -t2: the same at r = 1 over lam e^t - 1;
    * apostol-bernoulli-higher: t over lam e^t - 1;
    * frobenius-higher: (1 - mu) over e^t - mu;
    * classical-genocchi[-higher]: 2t over e^t + 1;
    * apostol-genocchi[-higher]: 2t over lam e^t + 1.

    ``from_zero`` starts the polylog sum at m = 0 (k <= 0): its term
    z^0 / 0^k is 1 at k = 0 and 0 below."""
    n = order + 1  # one spare term for a cancelled t
    lam, ln_a, ln_b = Fraction(lam), Fraction(ln_a), Fraction(ln_b)
    rate = 2 * (ln_a + ln_b) if tag in ("type1", "type2") else Fraction(1)
    if tag in ("type1", "apostol-poly-bernoulli-t1"):
        inner = [-c for c in exp_coeffs(-rate, n)]
        inner[0] += 1
        weights = [None] + [Fraction(m) ** -k for m in range(1, n + 1)]
        num = _polylog_type_sum(inner, weights, n)
        if from_zero and k == 0:
            num[0] += 1
    elif tag in ("type2", "apostol-poly-bernoulli-t2"):
        inner = [Fraction(0)] + [
            (-1) ** (m + 1) * rate**m / m for m in range(1, n + 1)
        ]
        weights = [None] + [
            Fraction(m) ** -k / factorial(m - 1) for m in range(1, n + 1)
        ]
        num = _polylog_type_sum(inner, weights, n)
    elif tag == "frobenius-higher":
        num = [1 - Fraction(mu)] + [Fraction(0)] * n
    else:
        c = 1 if tag == "apostol-bernoulli-higher" else 2
        num = [Fraction(0), Fraction(c)] + [Fraction(0)] * (n - 1)
    e_t = exp_coeffs(1, n)
    if tag in ("type1", "type2"):
        den = [
            p + lam * q
            for p, q in zip(exp_coeffs(-ln_a, n), exp_coeffs(ln_b, n))
        ]
    elif tag == "frobenius-higher":
        den = e_t
        den[0] -= mu
    elif tag.startswith("apostol-genocchi") or tag.startswith("classical"):
        den = [(1 if tag.startswith("classical") else lam) * c for c in e_t]
        den[0] += 1
    else:
        den = [lam * c for c in e_t]
        den[0] -= 1
    return quotient_power(num, den, alpha, order)


def type1_kernel(lam, ln_a, ln_b, k, alpha, order, from_zero=False):
    """(Li_k(1 - e^{-2t(ln_a + ln_b)}) / (e^{-ln_a t} + lam e^{ln_b t}))^alpha."""
    return family_kernel(
        "type1", k, alpha, lam, ln_a, ln_b, None, order, from_zero
    )


def symmetrized_S(m, n, alpha, lam, ln_a, ln_b, ln_c, y, from_zero=False):
    """S_n^{(m,alpha)}(x, y) as a coefficient list in x, without trailing
    zeros: sum_{j<=m} C(m,j) G_n^{(-j,alpha)}(x) w^{m-j} / ln(ab)^n with
    w = (y ln c + alpha ln a)/ln(ab), G the type-1 members at k = -j."""
    lab = Fraction(ln_a) + ln_b
    w = (Fraction(y) * ln_c + alpha * ln_a) / lab
    out = [Fraction(0)] * (n + 1)
    for j in range(m + 1):
        kernel = type1_kernel(lam, ln_a, ln_b, -j, alpha, n, from_zero)
        weight = comb(m, j) * w ** (m - j) / lab**n
        for d, c in enumerate(family_rows(kernel, ln_c, n)[n]):
            out[d] += weight * c
    while out and out[-1] == 0:
        out.pop()
    return out


def type2_kernel(lam, ln_a, ln_b, k, alpha, order):
    """(e_k(log(1 + 2t(ln_a + ln_b))) / (e^{-ln_a t} + lam e^{ln_b t}))^alpha."""
    return family_kernel("type2", k, alpha, lam, ln_a, ln_b, None, order)


def _add_lists(a, b):
    """Sum of two coefficient lists, without trailing zeros."""
    out = [Fraction(0)] * max(len(a), len(b))
    for part in (a, b):
        for d, c in enumerate(part):
            out[d] += c
    while out and out[-1] == 0:
        out.pop()
    return out


def base_member_rows(tag, k, alpha, lam, order):
    """Rows of the base member of ``tag``: the family at (lam, ln a = 0,
    ln b = 1, ln c = 1), at rate 1."""
    kernel = family_kernel(tag, k, alpha, lam, 0, 1, None, order)
    return family_rows(kernel, 1, order)


def printed_base_reduction(which, k, alpha, lam, ln_a, ln_b, ln_c, order):
    """ln(ab)^n Q_n((x ln c + alpha ln a)/ln(ab); lam) for n <= order, Q the
    type-``which`` base member, each row composed by Horner's rule."""
    lab = Fraction(ln_a) + ln_b
    q = base_member_rows(f"type{which}", k, alpha, lam, order)
    inner = [alpha * Fraction(ln_a) / lab, Fraction(ln_c) / lab]
    return [
        [lab**n * c for c in horner_compose(q[n], inner)]
        for n in range(order + 1)
    ]


def printed_bernoulli(which, k, alpha, lam, ln_a, ln_b, ln_c, order):
    """sum_{j<=alpha} C(alpha,j) (-1)^j lam^(alpha-j) 2^n ln(ab)^n
    B_n(((alpha-j) ln b + x ln c + (2 alpha - j) ln a)/(2 ln ab); lam^2)
    for n <= order, B the apostol-poly-bernoulli-t``which`` base member at
    (k, alpha), term by term."""
    lam, ln_a, ln_b = Fraction(lam), Fraction(ln_a), Fraction(ln_b)
    lab2 = 2 * (ln_a + ln_b)
    b = base_member_rows(f"apostol-poly-bernoulli-t{which}", k, alpha, lam**2, order)
    rows = []
    for n in range(order + 1):
        row = []
        for j in range(alpha + 1):
            weight = comb(alpha, j) * (-1) ** j * lam ** (alpha - j) * lab2**n
            shift = ((alpha - j) * ln_b + (2 * alpha - j) * ln_a) / lab2
            term = horner_compose(b[n], [shift, ln_c / lab2])
            row = _add_lists(row, [weight * c for c in term])
        rows.append(row)
    return rows


def printed_stirling(which, k, alpha, lam, ln_a, ln_b, ln_c, order, rate, oriented):
    """sum_{j<=n} C(n,j) ln(ab)^(n-j) Q_{n-j}((x ln c + alpha ln a)/ln(ab); lam) d_j
    for n <= order, Q the type-``which`` base member at k = 1 and d the
    alpha-fold convolution of the ``stirling_weights`` at ``rate``."""
    reduced = printed_base_reduction(which, 1, alpha, lam, ln_a, ln_b, ln_c, order)
    c = stirling_weights(which, k, rate, order, oriented)
    return binomial_convolution(stirling_convolution(c, alpha, order), reduced)
