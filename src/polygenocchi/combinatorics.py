"""Stirling numbers of both kinds.

Stirling numbers of the second kind follow S(n,m) = m S(n-1,m) + S(n-1,m-1);
the first kind are the signed ones from s(n,m) = s(n-1,m-1) - (n-1) s(n-1,m),
so that sum_m s(n,m) x^m = x(x-1)...(x-n+1).  Out-of-range (n,m) gives 0.
Each kind keeps one list of rows, grown by its recurrence as far as asked.
"""

from __future__ import annotations

_SECOND: list[tuple[int, ...]] = [(1,)]
_FIRST_SIGNED: list[tuple[int, ...]] = [(1,)]


def _row(rows: list[tuple[int, ...]], n: int, second: bool) -> tuple[int, ...]:
    """Row n of ``rows``, grown first by row_r[m] = row_{r-1}[m-1]
    + w row_{r-1}[m], w = m for the second kind and 1 - r for the first."""
    while len(rows) <= n:
        r = len(rows)
        prev = rows[-1] + (0,)
        rows.append(
            (0,)
            + tuple(
                prev[m - 1] + (m if second else 1 - r) * prev[m]
                for m in range(1, r + 1)
            )
        )
    return rows[n]


def stirling2(n: int, m: int) -> int:
    """Stirling number of the second kind; 0 outside 0 <= m <= n."""
    if n < 0 or m < 0 or m > n:
        return 0
    return _row(_SECOND, n, True)[m]


def stirling1_signed(n: int, m: int) -> int:
    """Signed Stirling number of the first kind; 0 outside 0 <= m <= n."""
    if n < 0 or m < 0 or m > n:
        return 0
    return _row(_FIRST_SIGNED, n, False)[m]
