"""Tests of the benchmark's own code: tracing, self time, output checks.

Run from the root of a checkout:  python3 -m pytest -q bench
"""

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from polygenocchi import cli, families, series, verifier  # noqa: E402
from polygenocchi.kernels import CLASSICAL_POINT  # noqa: E402


def test_wrappers_catch_imported_names_and_registry_then_restore():
    originals = {
        "verifier.family_series": verifier.family_series,
        "families.family_series": families.family_series,
        "cli.main": cli.main,
    }
    registry = dict(verifier.REGISTRY)
    poly_mul = series.Poly.__mul__
    cfg = verifier.CheckConfig(
        order=3, samples=(CLASSICAL_POINT,), k_range=(1,), alpha_range=(1,)
    )
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        assert verifier.family_series is not originals["verifier.family_series"]
        # a call through verifier's own imported name ...
        verifier.family_series(
            families.FamilySpec("type1", k=1, alpha=1), CLASSICAL_POINT, 2
        )
        # ... and one through a REGISTRY closure, which holds the original
        # check function
        verifier.REGISTRY["shift-recurrence"](cfg, False)
    summary = tracer.summary()
    spans = summary["spans"]
    assert spans["verifier.shift-recurrence"]["calls"] == 1
    # one direct call plus the check's one (spec, point) case
    assert spans["families.family_series"]["calls"] == 2
    assert summary["family_series"] == {
        "distinct": 2, "instances": 1,
        "build_s": summary["family_series"]["build_s"],
    }
    assert summary["aggregates"]["series.Poly.__mul__"]["calls"] > 0
    assert verifier.family_series is originals["verifier.family_series"]
    assert families.family_series is originals["families.family_series"]
    assert cli.main is originals["cli.main"]
    assert verifier.REGISTRY == registry
    assert series.Poly.__mul__ is poly_mul


def test_self_time_on_synthetic_span_tree(tmp_path):
    tracer = tracing.Tracer()
    names = ["cli.main", "verifier.appell", "families.family_series"]
    for name in names:
        tracer.name_id(name)
    # cli [0,10] > verifier [1,6] > families [2,4]; cli > verifier [7,9]
    for nid, parent, start, end in [
        (0, -1, 0.0, 10.0),
        (1, 0, 1.0, 6.0),
        (2, 1, 2.0, 4.0),
        (1, 0, 7.0, 9.0),
    ]:
        tracer.span_name.append(nid)
        tracer.span_parent.append(parent)
        tracer.span_start.append(start)
        tracer.span_end.append(end)
    tracer.write_spans(tmp_path / "spans")
    loaded_names, spans = tracing.load_spans(tmp_path / "spans")
    assert loaded_names == names
    assert tracing.self_time_by_layer(loaded_names, spans) == {
        "cli": 3.0, "verifier": 5.0, "families": 2.0,
    }


def test_nested_calls_of_one_function_count_once_in_inclusive_time():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))

    def fact(n):
        return 1 if n == 0 else n * wrapped(n - 1)

    wrapped = tracer.span_wrapper("series.fact", fact)
    assert wrapped(2) == 2
    # three spans; the outermost runs from tick 0 to tick 5
    assert tracer.summary()["spans"]["series.fact"] == {"calls": 3, "s": 5.0}


def _table_text(**point) -> str:
    argv = ["table", "--family", "type1", "--k", "2", "--alpha", "2",
            "--n-max", "8"] + [f"--{k.replace('_', '-')}={v}" for k, v in point.items()]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


def _perturb(text: str, n: int, degree: int) -> str:
    """Add 1 to the x^degree coefficient of row n of a CSV table."""
    rows = text.splitlines()
    cells = rows[n].split(",")
    cells[2 + degree] = str(Fraction(cells[2 + degree]) + 1)
    rows[n] = ",".join(cells)
    return "\n".join(rows) + "\n"


def test_table_check_rejects_perturbed_coefficient():
    text = _table_text(ln_a="1/2", ln_b="1/3", ln_c="2/3")
    ln_c = Fraction(2, 3)
    digest = checks.sha256(text.encode())
    assert checks.check_table(0, text, 8, ln_c, None) == []
    assert checks.check_table(0, text, 8, ln_c, digest) == []
    assert checks.check_table(0, _perturb(text, 5, 1), 8, ln_c, None)
    # a changed constant term shows in every later row it feeds
    assert checks.check_table(0, _perturb(text, 2, 0), 8, ln_c, None)
    # the digest pins what the identity cannot: the last constant term
    last = _perturb(text, 8, 0)
    assert checks.check_table(0, last, 8, ln_c, None) == []
    assert checks.check_table(0, last, 8, ln_c, digest)
    # truncated output and a nonzero exit code
    truncated = "\n".join(text.splitlines()[:-1]) + "\n"
    assert checks.check_table(0, truncated, 8, ln_c, None)
    assert checks.check_table(2, text, 8, ln_c, None)


def test_verify_check_rejects_changed_verdict_line():
    expected = checks.reference_verdicts()
    stdout = "\n".join(expected) + "\n"
    report = b'{"overall": "pass"}\n'
    digest = checks.sha256(report)
    assert checks.check_verify(0, stdout, report, expected, digest) == []
    changed = list(expected)
    changed[0] = changed[0].replace(": pass", ": fail")
    assert changed != expected
    assert checks.check_verify(
        0, "\n".join(changed) + "\n", report, expected, None
    )
    assert checks.check_verify(
        0, "\n".join(expected[:-1]) + "\n", report, expected, None
    )
    assert checks.check_verify(1, stdout, report, expected, None)
    assert checks.check_verify(0, stdout, report + b" ", expected, digest)
    assert checks.check_verify(0, stdout, None, expected, digest)


def test_failed_iterations_count_and_add_no_timing():
    good = run.Outcome(wall_s=2.0, cpu_s=1.5, setup_s=0.1, peak_rss_mb=30.0)
    bad = run.Outcome(wall_s=99.0, cpu_s=99.0, setup_s=9.0, peak_rss_mb=99.0,
                      problems=["verdict lines differ"])
    metrics, failed = run.summarise([good, bad], probes=[0.2, 0.3])
    assert failed == 1
    assert metrics["wall_s"]["value"] == 2.0
    assert metrics["setup_s"]["value"] == 0.2
    assert run.summarise([bad], probes=[0.2]) == ({}, 1)


def test_verify_all_grid_is_the_default_grid_of_its_seed():
    for seed in range(4):
        points = WORKLOADS["verify-all"].points(seed)
        expected = verifier.default_samples(seed)
        assert points == [
            (p.lam, p.ln_a, p.ln_b, p.ln_c) for p in expected
        ]
    wide = WORKLOADS["verify-wide"].points(7)
    assert len(wide) == 12 and wide == WORKLOADS["verify-wide"].points(7)
    (lam, ln_a, ln_b, ln_c), = WORKLOADS["table-deep"].points(7)
    assert lam not in (-1, 0, 1) and 0 not in (ln_a, ln_b, ln_a + ln_b)
    assert ln_c not in (0, 1)


def test_benchmark_json_names_the_metrics_and_workloads_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _, _ in run.PER_LAYER
    ]
    assert sorted(run.CHECK_IDS) == sorted(verifier.REGISTRY)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_calls_are_well_formed(name, tmp_path):
    calls = WORKLOADS[name].calls(3, tmp_path)
    parser = cli.build_parser()
    for call in calls:
        parser.parse_args(list(call.argv))
