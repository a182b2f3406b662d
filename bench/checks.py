"""Output checks of one benchmark iteration, run outside the timed region.

* verify: exit code 0 and stdout verdict lines equal to
  ``reference/verdicts.txt``; at the reference seed the ``--out`` report
  (written under SOURCE_DATE_EPOCH, so byte-deterministic) must also match
  its recorded digest, which pins the mismatch witnesses.
* table: exit code 0, rows 0..n_max in ``n,degree,c0,...`` form, and the
  expansion-in-numbers identity P_n(x) = sum_i C(n,i) ln(c)^{n-i} P_i(0)
  x^{n-i}, recomputed here with ``fractions`` alone.  It checks every
  coefficient of x-degree >= 1 against the constant terms of lower rows;
  the constant term of the last row is pinned only by the digest, which
  is checked at the reference seed.

Every function returns a list of problems; an empty list means correct.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import comb
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference"
REFERENCE_SEED = 0


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def reference_verdicts() -> list[str]:
    return (REFERENCE / "verdicts.txt").read_text(encoding="utf-8").splitlines()


def reference_digests() -> dict:
    return json.loads((REFERENCE / "digests.json").read_text(encoding="utf-8"))


def check_verify(
    rc, stdout: str, report: bytes | None, expected: list[str],
    report_digest: str | None,
) -> list[str]:
    problems = []
    if rc != 0:
        problems.append(f"verify exit code {rc!r}, expected 0")
    lines = stdout.splitlines()
    if lines != expected:
        diff = [
            f"{got!r} != {want!r}"
            for got, want in zip(lines, expected)
            if got != want
        ]
        if len(lines) != len(expected):
            diff.append(f"{len(lines)} lines, expected {len(expected)}")
        problems.append("verdict lines differ: " + "; ".join(diff[:3]))
    if report_digest is not None:
        if report is None:
            problems.append("no --out report written")
        elif sha256(report) != report_digest:
            problems.append("--out report digest differs from the reference")
    return problems


def parse_table(text: str) -> list[list[Fraction]]:
    """CSV rows ``n,degree,c0..cdeg`` to coefficient lists, checking shape."""
    rows = []
    for lineno, line in enumerate(text.splitlines()):
        cells = line.split(",")
        if len(cells) < 3:
            raise ValueError(f"row {lineno}: too few cells")
        n, degree = int(cells[0]), int(cells[1])
        if n != lineno:
            raise ValueError(f"row {lineno} is labelled n = {n}")
        if degree != len(cells) - 3:
            raise ValueError(f"row {n}: degree {degree} but {len(cells) - 2} cells")
        rows.append([Fraction(c) for c in cells[2:]])
    return rows


def check_table(
    rc, text: str, n_max: int, ln_c: Fraction, digest: str | None
) -> list[str]:
    problems = []
    if rc != 0:
        problems.append(f"table exit code {rc!r}, expected 0")
    try:
        rows = parse_table(text)
    except ValueError as exc:
        return problems + [f"malformed table: {exc}"]
    if len(rows) != n_max + 1:
        problems.append(f"{len(rows)} rows, expected {n_max + 1}")
    numbers = [row[0] for row in rows]
    for n, row in enumerate(rows):
        if len(row) > n + 1:
            problems.append(f"row {n} has degree {len(row) - 1} > {n}")
            break
        # coefficient of x^d in P_n is C(n, d) ln(c)^d P_{n-d}(0)
        bad = next(
            (
                d
                for d in range(1, len(row))
                if row[d] != comb(n, d) * ln_c**d * numbers[n - d]
            ),
            None,
        )
        if bad is not None:
            problems.append(
                f"expansion-in-numbers fails at n = {n}, x-degree {bad}"
            )
            break
        if len(row) < n + 1 and any(
            comb(n, d) * ln_c**d * numbers[n - d] != 0
            for d in range(len(row), n + 1)
        ):
            problems.append(f"row {n} is missing nonzero coefficients")
            break
    if digest is not None and sha256(text.encode("utf-8")) != digest:
        problems.append("table digest differs from the reference")
    return problems
