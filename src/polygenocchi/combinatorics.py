"""Stirling numbers, binomial helpers, and factorial polynomials.

Stirling numbers of the second kind follow S(n,m) = m S(n-1,m) + S(n-1,m-1);
the first kind are the signed ones from s(n,m) = s(n-1,m-1) - (n-1) s(n-1,m),
so that sum_m s(n,m) x^m = x(x-1)...(x-n+1).  Out-of-range (n,m) gives 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .series import Poly

KIND_FIRST_SIGNED = "first-signed"
KIND_SECOND = "second"


@dataclass(frozen=True)
class StirlingTable:
    """Triangular table of Stirling numbers up to row nmax."""

    kind: str
    nmax: int
    rows: tuple[tuple[int, ...], ...]

    @classmethod
    def build(cls, kind: str, nmax: int) -> "StirlingTable":
        if kind not in (KIND_FIRST_SIGNED, KIND_SECOND):
            raise ValueError(f"unknown Stirling kind {kind!r}")
        if nmax < 0:
            raise ValueError("nmax must be >= 0")
        rows: list[tuple[int, ...]] = [(1,)]
        for n in range(1, nmax + 1):
            prev = rows[-1]
            row = [0] * (n + 1)
            for m in range(1, n + 1):
                above = prev[m] if m < len(prev) else 0
                if kind == KIND_SECOND:
                    row[m] = m * above + prev[m - 1]
                else:
                    row[m] = prev[m - 1] - (n - 1) * above
            rows.append(tuple(row))
        return cls(kind, nmax, tuple(rows))

    def value(self, n: int, m: int) -> int:
        if n < 0 or m < 0 or m > n:
            return 0
        if n > self.nmax:
            raise ValueError(f"n={n} beyond table nmax={self.nmax}")
        return self.rows[n][m]


@lru_cache(maxsize=None)
def _table(kind: str, nmax: int) -> StirlingTable:
    return StirlingTable.build(kind, nmax)


def _table_for(kind: str, n: int) -> StirlingTable:
    # round the cached table size up so nearby queries share one table
    nmax = max(32, 1 << max(n, 1).bit_length())
    return _table(kind, nmax)


def stirling2(n: int, m: int) -> int:
    """Stirling number of the second kind; 0 outside 0 <= m <= n."""
    if n < 0 or m < 0 or m > n:
        return 0
    return _table_for(KIND_SECOND, n).value(n, m)


def stirling1_signed(n: int, m: int) -> int:
    """Signed Stirling number of the first kind; 0 outside 0 <= m <= n."""
    if n < 0 or m < 0 or m > n:
        return 0
    return _table_for(KIND_FIRST_SIGNED, n).value(n, m)


def binomial(n: int, k: int) -> int:
    """C(n, k) with the convention 0 for k < 0 or k > n."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def rising_factorial_poly(m: int) -> Poly:
    """(x)^(m) = x(x+1)...(x+m-1) as a Poly; m = 0 gives 1."""
    if m < 0:
        raise ValueError("m must be >= 0")
    out = Poly.constant(1)
    x = Poly.monomial(1)
    for i in range(m):
        out = out * (x + Poly.constant(i))
    return out


def falling_factorial_poly(m: int) -> Poly:
    """(x)_m = x(x-1)...(x-m+1) as a Poly; m = 0 gives 1."""
    if m < 0:
        raise ValueError("m must be >= 0")
    out = Poly.constant(1)
    x = Poly.monomial(1)
    for i in range(m):
        out = out * (x - Poly.constant(i))
    return out
