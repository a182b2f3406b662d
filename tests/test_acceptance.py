"""Acceptance gate: nine zero-tolerance criteria, one printed line each.

Every criterion prints ``ACCEPTANCE <name>: PASS`` (or FAIL) directly to
the terminal so a suite run shows the gate at a glance.
"""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import polygenocchi
from polygenocchi import (
    CLASSICAL_POINT,
    FamilySpec,
    Poly,
    Series,
    default_config,
    default_samples,
    family_series,
    run_suite,
    stirling1_signed,
    stirling2,
)
from polygenocchi.families import stored_power
from polygenocchi.verifier import CHECKS, REGISTRY, CheckConfig, _run_parts

import oracles
from faults import injected

TYPE1 = "type1"
TYPE2 = "type2"


def _report(capsys, name, ok):
    with capsys.disabled():
        print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}", flush=True)


def _single_variant(result, expected_fragment):
    note = result.variant_note or ""
    return (
        result.status == "resolved-variant"
        and note.startswith("resolved to variant:")
        and expected_fragment in note
        and "multiple" not in note
    )


def test_criterion_1_classical_reduction(capsys):
    ok = False
    try:
        start = time.perf_counter()
        expected = oracles.genocchi_polynomials(12)
        got = family_series(FamilySpec(TYPE1, k=1, alpha=1), CLASSICAL_POINT, 12)
        for n in range(13):
            assert got.polys[n] == Poly(expected[n]), f"degree {n}"
        assert got.polys[1] == Poly((1,))
        assert got.polys[2] == Poly((-1, 2))
        nums = [p.evaluate(Fraction(0)) for p in got.polys[:7]]
        assert nums == [0, 1, -1, 0, 1, 0, -3]
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"
        ok = True
    finally:
        _report(capsys, "1 classical-reduction", ok)


def test_criterion_2_appell_suite(capsys):
    ok = False
    try:
        cfg = default_config(order=12)
        assert len(cfg.samples) >= 5
        assert any(pt.lam == 0 for pt in cfg.samples)
        assert any(pt.ln_c == 0 for pt in cfg.samples)
        assert set(cfg.k_range) == {-2, -1, 0, 1, 2, 3}
        assert set(cfg.alpha_range) == {0, 1, 2, 3}
        start = time.perf_counter()
        report = run_suite(cfg, "appell")
        elapsed = time.perf_counter() - start
        assert len(report.results) >= 4
        for result in report.results:
            assert result.status == "pass", result.check_id
        assert elapsed < 20.0, f"took {elapsed:.2f}s"
        ok = True
    finally:
        _report(capsys, "2 appell-suite", ok)


def test_criterion_3_bernoulli_relations(capsys):
    ok = False
    try:
        samples = tuple(
            pt for pt in default_samples(0) if pt.lam not in (1, -1)
        )
        assert len(samples) >= 3
        cfg = default_config(order=10)._replace(
            samples=samples, alpha_range=(1, 2, 3)
        )
        for which in (1, 2):
            result = REGISTRY[f"bernoulli-type{which}"](cfg)
            assert result.status == "pass", (which, result.first_mismatch)
        ok = True
    finally:
        _report(capsys, "3 bernoulli-relations", ok)


def test_criterion_4_stirling_relations(capsys):
    ok = False
    try:
        cfg = default_config(order=10)._replace(alpha_range=(1, 2, 3))
        t1 = REGISTRY["stirling-type1"](cfg)
        assert t1.status == "pass" or _single_variant(
            t1, "definition orientation"
        ), t1.variant_note
        t2 = REGISTRY["stirling-type2"](cfg)
        assert t2.status == "pass" or _single_variant(t2, "sign"), (
            t2.status,
            t2.variant_note,
        )
        # the check's d_j are the egf coefficients of D = C^alpha: for any
        # weights, not just family-derived ones, they are the printed sum
        # over compositions, and alpha = 1 collapses them to the weights
        probe = tuple(Fraction(3 * i - 7, i + 2) for i in range(11))
        weights = Series.from_egf(10, probe)
        assert stored_power(weights, 1, {}).egf == probe
        for alpha in (2, 3):
            d = stored_power(weights, alpha, {}).egf
            assert d == oracles.stirling_convolution(probe, alpha, 10)
        ok = True
    finally:
        _report(capsys, "4 stirling-relations", ok)


def test_criterion_5_explicit_formulas(capsys):
    ok = False
    try:
        cfg = default_config(order=10)
        parts = CHECKS["explicit-formulas"][1]
        subs = {r.check_id: r for r in _run_parts(parts, cfg)}
        assert subs["rising-factorial"].status == "pass"
        assert subs["falling-factorial"].status == "pass"
        assert _single_variant(
            subs["bernoulli-order-s"],
            "order-s Bernoulli factor taken at lam = 1",
        ), subs["bernoulli-order-s"].variant_note
        assert _single_variant(
            subs["frobenius-order-s"], "Frobenius argument x ln c"
        ), subs["frobenius-order-s"].variant_note
        # the composite entry carries both resolutions in its note
        composite = REGISTRY["explicit-formulas"](cfg)
        assert composite.status == "resolved-variant"
        assert "order-s Bernoulli factor taken at lam = 1" in composite.variant_note
        assert "Frobenius argument x ln c" in composite.variant_note
        ok = True
    finally:
        _report(capsys, "5 explicit-formulas", ok)


def test_criterion_6_symmetrized_gf(capsys):
    ok = False
    try:
        cfg = default_config(order=8)
        assert len(cfg.samples) >= 2
        start = time.perf_counter()
        result = REGISTRY["symmetrized-gf"](cfg)
        elapsed = time.perf_counter() - start
        assert _single_variant(result, "polylog sum started at m = 0"), (
            result.status,
            result.variant_note,
        )
        assert elapsed < 15.0, f"took {elapsed:.2f}s"
        ok = True
    finally:
        _report(capsys, "6 symmetrized-gf", ok)


def test_criterion_7_combinatorics_cross_checks(capsys):
    ok = False
    try:
        order = 20
        em1 = oracles.exp_coeffs(1, order)
        em1[0] -= 1
        exp_base = Series(order, em1)
        logs = [Fraction(0)] + [
            Fraction((-1) ** (n + 1), n) for n in range(1, order + 1)
        ]
        log_base = Series(order, logs)
        store: dict = {}
        for m in range(order + 1):
            exp_m = stored_power(exp_base, m, store)
            log_m = stored_power(log_base, m, store)
            for n in range(order + 1):
                scale = Fraction(
                    oracles.factorial(n), oracles.factorial(m)
                )
                assert stirling2(n, m) == exp_m.coefficient(n) * scale
                assert stirling1_signed(n, m) == log_m.coefficient(n) * scale
        # power operator against the explicit multinomial expansion
        probe = [Fraction(2 * i - 5, i + 1) for i in range(9)]
        series = Series(8, probe)
        for alpha in range(4):
            expected = oracles.power_by_multinomial(probe, alpha, 8)
            got = stored_power(series, alpha, {})
            assert [got.coefficient(n) for n in range(9)] == expected
        ok = True
    finally:
        _report(capsys, "7 combinatorics-cross-checks", ok)


def test_criterion_8_type2_remark(capsys):
    ok = False
    try:
        cfg = default_config(order=10)
        result = REGISTRY["remark-type2"](cfg)
        assert result.status in ("pass", "resolved-variant")
        note = result.variant_note or ""
        # the only permitted resolutions mirror the explicit-formula ones
        allowed = (
            "order-s Bernoulli factor taken at lam = 1",
            "Frobenius argument x ln c",
        )
        for chunk in filter(None, note.split("; ")):
            assert any(fragment in chunk for fragment in allowed), chunk
        ok = True
    finally:
        _report(capsys, "8 type2-remark", ok)


def test_criterion_9_engineering(capsys, tmp_path, monkeypatch):
    ok = False
    try:
        reports = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            start = time.perf_counter()
            proc = subprocess.run(
                [
                    sys.executable, "-m", "polygenocchi", "verify",
                    "--suite", "all", "--seed", "0", "--out", str(out),
                ],
                capture_output=True,
                text=True,
                env={
                    "SOURCE_DATE_EPOCH": "1700000000",
                    "PATH": "/usr/bin:/bin",
                    # the import root of the package this test imported, so
                    # an uninstalled checkout runs the same code
                    "PYTHONPATH": os.path.dirname(
                        os.path.dirname(polygenocchi.__file__)
                    ),
                },
            )
            elapsed = time.perf_counter() - start
            assert proc.returncode == 0, proc.stderr
            assert elapsed <= 60.0, f"took {elapsed:.1f}s"
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        payload = json.loads(reports[0])
        assert payload["overall"] == "pass"
        assert len(payload["results"]) == 12

        # every check must be able to fail: inject a fault and watch it
        small = CheckConfig(
            order=4,
            samples=default_samples(0)[:2],
            k_range=(1, 2),
            alpha_range=(1,),
        )
        with injected():
            faulty = run_suite(small, "all")
        assert all(r.status == "fail" for r in faulty.results)
        assert all(r.first_mismatch is not None for r in faulty.results)
        ok = True
    finally:
        _report(capsys, "9 engineering", ok)
