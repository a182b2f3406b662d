"""Stirling numbers against their generating series, plus helpers."""

from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polygenocchi import Series, stirling1_signed, stirling2
from polygenocchi.families import stored_power

import oracles
from oracles import PartitionError


class TestFrozenValues:
    def test_second_kind_row(self):
        assert [stirling2(4, m) for m in range(5)] == [0, 1, 7, 6, 1]

    def test_first_kind_signed(self):
        assert stirling1_signed(3, 1) == 2
        assert stirling1_signed(3, 2) == -3
        assert stirling1_signed(4, 2) == 11
        assert stirling1_signed(5, 1) == 24

    def test_boundaries(self):
        assert stirling2(0, 0) == 1
        assert stirling2(3, 0) == 0
        assert stirling2(3, 5) == 0
        assert stirling1_signed(0, 0) == 1


class TestTablesMatchSeries:
    """Recurrence-built triangles vs the defining generating series, n <= 20."""

    ORDER = 20

    def _series_coeffs(self, base, m):
        power = stored_power(base, m, {})
        return [
            power.coefficient(n) * Fraction(factorial(n), factorial(m))
            for n in range(self.ORDER + 1)
        ]

    def test_second_kind_vs_exp_series(self):
        em1 = oracles.exp_coeffs(1, self.ORDER)
        em1[0] -= 1
        base = Series(self.ORDER, em1)
        for m in range(self.ORDER + 1):
            expected = self._series_coeffs(base, m)
            got = [stirling2(n, m) for n in range(self.ORDER + 1)]
            assert got == expected, f"second kind column m={m}"

    def test_first_kind_vs_log_series(self):
        logs = [Fraction(0)] + [
            Fraction((-1) ** (n + 1), n) for n in range(1, self.ORDER + 1)
        ]
        base = Series(self.ORDER, logs)
        for m in range(self.ORDER + 1):
            expected = self._series_coeffs(base, m)
            got = [stirling1_signed(n, m) for n in range(self.ORDER + 1)]
            assert got == expected, f"first kind column m={m}"

    def test_table_rejects_out_of_range(self):
        # Outside 0 <= m <= n both kinds read 0, at any n: there is no
        # table bound left to reject, since rows grow on demand.
        assert stirling2(3, 7) == 0
        for n, m in [(3, 7), (-1, 0), (4, -1), (-2, -3), (0, 1)]:
            assert stirling2(n, m) == 0
            assert stirling1_signed(n, m) == 0
        assert stirling2(9, 1) == 1
        assert stirling1_signed(9, 1) == factorial(8)

    def test_kinds_are_distinct(self):
        assert stirling1_signed(4, 2) == 11
        assert stirling2(4, 2) == 7


class TestPowerVsMultinomial:
    """``stored_power`` against a term-by-term multinomial expansion
    oracle."""

    @given(
        st.lists(
            st.fractions(max_denominator=4), min_size=9, max_size=9
        ),
        st.integers(min_value=0, max_value=3),
    )
    def test_ipow_matches_oracle(self, values, alpha):
        series = Series(8, [Fraction(v) for v in values])
        got = stored_power(series, alpha, {})
        expected = oracles.power_by_multinomial(
            [Fraction(v) for v in values], alpha, 8
        )
        assert [got.coefficient(n) for n in range(9)] == expected


class TestCounting:
    # multinomial and compositions live in tests/oracles.py: the oracles
    # of the Stirling relations' d_j and of ``stored_power`` rest on them
    def test_multinomial(self):
        assert oracles.multinomial(4, (2, 1, 1)) == 12
        assert oracles.multinomial(0, ()) == 1
        with pytest.raises(PartitionError):
            oracles.multinomial(4, (2, 1))
        with pytest.raises(PartitionError):
            oracles.multinomial(3, (2, -1, 2))

    def test_compositions_cover_simplex(self):
        combos = list(oracles.compositions(3, 2))
        assert combos == [(0, 3), (1, 2), (2, 1), (3, 0)]
        assert list(oracles.compositions(0, 0)) == [()]
        assert list(oracles.compositions(2, 0)) == []

    def test_compositions_count(self):
        assert len(list(oracles.compositions(6, 3))) == comb(8, 2)

    def test_multinomial_sums_to_power(self):
        total = sum(
            oracles.multinomial(5, parts) for parts in oracles.compositions(5, 3)
        )
        assert total == 3**5


class TestFactorialRows:
    @given(st.integers(min_value=0, max_value=8), st.fractions(max_denominator=5))
    def test_signed_first_kind_rows_are_the_factorials(self, m, x):
        # (x)_m = sum_d s(m,d) x^d and (x)^(m) = sum_d (-1)^(m-d) s(m,d) x^d,
        # the two bases of the verifier's factorial formulas
        for sign, value in (
            (1, oracles.falling_factorial_value),
            (-1, oracles.rising_factorial_value),
        ):
            row = [sign ** (m - d) * stirling1_signed(m, d) for d in range(m + 1)]
            assert sum(c * x**d for d, c in enumerate(row)) == value(x, m)
