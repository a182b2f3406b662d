"""polygenocchi benchmark: end-to-end metrics, or per-layer metrics traced.

Usage (from the root of a checkout):

    python3 bench/run.py --workload verify-all --seed 0 --seconds 30 --trace 0

Closed loop, one client: each iteration is a fresh interpreter
(``worker.py``) that imports ``polygenocchi`` from this checkout's
``src/`` with cold caches, runs the workload's CLI calls and exits; the
next iteration starts when it has ended.  Iterations repeat while another
one fits in ``--seconds``.  Outputs are checked after each iteration, and
an iteration whose outputs are wrong counts as failed and adds no timing.

``--trace 0`` reports the end-to-end metrics (medians over the iterations
that passed).  ``--trace 1`` runs one untraced and one traced iteration
and reports the per-layer metrics of the traced one, with the tracing
overhead.  The last line of standard output is the JSON result; the lines
before it name every metric with its unit and record the environment.
``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from tracer import load_spans, self_time_by_layer  # noqa: E402
from workloads import TABLE_N_MAX, WORKLOADS, Workload  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
OUT_DIR = ROOT / ".bench_out"

# a run must end within 180 s; no iteration starts that would not fit here
RUN_BUDGET_S = 165.0
SETUP_PROBES = 7
WORKER_ENV = {
    # one hash seed for every worker, so set/dict order cannot vary the work
    "PYTHONHASHSEED": "0",
    # freezes the report's timestamp and elapsed-ms, so reports are bytes-equal
    "SOURCE_DATE_EPOCH": "0",
}

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

CHECK_IDS = (
    "appell",
    "base-reduction-type1",
    "base-reduction-type2",
    "bernoulli-type1",
    "bernoulli-type2",
    "expansion-in-numbers",
    "explicit-formulas",
    "remark-type2",
    "shift-recurrence",
    "stirling-type1",
    "stirling-type2",
    "symmetrized-gf",
)

# (metric, unit, kind, source): kind "calls"/"s" read a wrapped span,
# "agg_calls"/"agg_s" an aggregate counter, "self" a layer's self time
PER_LAYER = (
    [
        ("cli.main.s", "s", "s", "cli.main"),
        ("cli.self_s", "s", "self", "cli"),
    ]
    + [(f"verifier.{c}.s", "s", "s", f"verifier.{c}") for c in CHECK_IDS]
    + [
        ("verifier.self_s", "s", "self", "verifier"),
        ("families.family_series.calls", "count", "calls", "families.family_series"),
        ("families.family_series.s", "s", "s", "families.family_series"),
        ("families.family_series.distinct", "count", "family", "distinct"),
        ("families.family_series.instances", "count", "family", "instances"),
        ("families.build_s", "s", "family", "build_s"),
        ("families.hit_ratio", "ratio", "family", "hit_ratio"),
        ("families.reexpansion_ratio", "ratio", "family", "reexpansion_ratio"),
        ("families.appell_expand.calls", "count", "calls", "families.appell_expand"),
        ("families.polynomial_at.calls", "count", "calls", "families.polynomial_at"),
        ("families.symmetrized_S.s", "s", "s", "families.symmetrized_S"),
        ("families.double_gf_rhs.s", "s", "s", "families.double_gf_rhs"),
        ("families.self_s", "s", "self", "families"),
        ("kernels.kernel_type1.calls", "count", "calls", "kernels.kernel_type1"),
        ("kernels.kernel_type1.s", "s", "s", "kernels.kernel_type1"),
        ("kernels.kernel_type2.calls", "count", "calls", "kernels.kernel_type2"),
        ("kernels.kernel_type2.s", "s", "s", "kernels.kernel_type2"),
        ("kernels.polylog_series.s", "s", "s", "kernels.polylog_series"),
        ("kernels.polyexp_series.s", "s", "s", "kernels.polyexp_series"),
        ("kernels.self_s", "s", "self", "kernels"),
        ("series.ps_mul.calls", "count", "calls", "series.ps_mul"),
        ("series.ps_mul.s", "s", "s", "series.ps_mul"),
        ("series.ps_div.calls", "count", "calls", "series.ps_div"),
        ("series.ps_div.s", "s", "s", "series.ps_div"),
        ("series.ps_ipow.s", "s", "s", "series.ps_ipow"),
        ("series.bis_mul.s", "s", "s", "series.bis_mul"),
        ("series.bis_geom.s", "s", "s", "series.bis_geom"),
        ("series.Poly.substitute.calls", "count", "agg_calls", "series.Poly.substitute"),
        ("series.Poly.substitute.s", "s", "agg_s", "series.Poly.substitute"),
        ("series.Poly.__mul__.calls", "count", "agg_calls", "series.Poly.__mul__"),
        ("series.Poly.__add__.calls", "count", "agg_calls", "series.Poly.__add__"),
        ("series.Poly.__init__.calls", "count", "agg_calls", "series.Poly.__init__"),
        ("series.self_s", "s", "self", "series"),
        ("combinatorics.calls", "count", "agg_calls", "combinatorics"),
        ("combinatorics.s", "s", "agg_s", "combinatorics"),
        ("trace_overhead", "ratio", "overhead", ""),
    ]
)


class EnvironmentProblem(Exception):
    """The checkout cannot be benchmarked (no package, wrong import root)."""


@dataclass
class Outcome:
    """One iteration: its timings, environment guards and check result."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    setup_s: float = 0.0
    peak_rss_mb: float = 0.0
    calibration_ms: float = 0.0
    load_before: tuple = ()
    load_after: tuple = ()
    problems: list = field(default_factory=list)
    trace: dict | None = None
    seconds: float = 0.0  # the whole iteration, checks included

    @property
    def ok(self) -> bool:
        return not self.problems


def calibrate() -> float:
    """Milliseconds for a fixed amount of Fraction arithmetic.

    Timed next to every iteration, so a slowdown of the shared machine
    shows beside the sample it affected.
    """
    start = time.perf_counter()
    for _ in range(4):
        acc = Fraction(0)
        for i in range(1, 1500):
            acc += Fraction(1, i)
    return (time.perf_counter() - start) * 1000


def environment() -> dict:
    def cpu_model() -> str:
        try:
            with open("/proc/cpuinfo", encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or "unknown"

    sha = "unavailable: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode())
        src.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
    }


def spawn_worker(job: dict, workdir: Path, timeout: float) -> tuple[dict, float]:
    """Run worker.py on ``job``; returns its result and the set-up time."""
    job_path = workdir / "job.json"
    result_path = workdir / "result.json"
    job_path.write_text(json.dumps(job))
    result_path.unlink(missing_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(WORKER_ENV)
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(WORKER), str(job_path), str(result_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0 or not result_path.exists():
        raise EnvironmentProblem(
            f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    result = json.loads(result_path.read_text())
    package = Path(result["package_file"]).resolve()
    if not package.is_relative_to((ROOT / "src").resolve()):
        raise EnvironmentProblem(f"polygenocchi imported from {package}")
    return result, result["imported_at"] - spawned


def run_iteration(
    workload: Workload, seed: int, workdir: Path, timeout: float,
    spans: Path | None = None,
) -> Outcome:
    """One worker run and its output check; traced when ``spans`` is set."""
    calls = workload.calls(seed, workdir)
    for c in calls:
        c.stdout.unlink(missing_ok=True)
        if c.out is not None:
            c.out.unlink(missing_ok=True)
    job = {
        "calls": [{"argv": list(c.argv), "stdout": str(c.stdout)} for c in calls],
        "trace": spans is not None,
        "spans": str(spans),
    }
    started = time.monotonic()
    out = Outcome(calibration_ms=calibrate(), load_before=os.getloadavg())
    try:
        result, out.setup_s = spawn_worker(job, workdir, timeout)
    except subprocess.TimeoutExpired:
        out.problems.append(f"iteration exceeded {timeout:.0f} s")
    else:
        out.wall_s = result["wall_s"]
        out.cpu_s = result["cpu_s"]
        out.peak_rss_mb = result["peak_rss_mb"]
        out.trace = result.get("trace")
        out.problems = check_outputs(workload, seed, calls, result["calls"])
    out.load_after = os.getloadavg()
    out.seconds = time.monotonic() - started
    return out


def check_outputs(workload: Workload, seed: int, calls, results) -> list[str]:
    problems = []
    digests = checks.reference_digests().get(workload.name, {})
    pinned = seed == digests.get("seed")
    for call, res in zip(calls, results):
        if res["error"]:
            problems.append(f"{call.argv[0]} raised: {res['error'].strip()[-500:]}")
            continue
        text = call.stdout.read_text(encoding="utf-8")
        if workload.kind == "verify":
            report = call.out.read_bytes() if call.out.exists() else None
            problems += checks.check_verify(
                res["rc"], text, report, checks.reference_verdicts(),
                digests.get("report_sha256") if pinned else None,
            )
        else:
            ln_c = workload.points(seed)[0][3]
            problems += checks.check_table(
                res["rc"], text, TABLE_N_MAX, ln_c,
                digests.get(f"{call.family}_sha256") if pinned else None,
            )
    return problems


def setup_probe(workdir: Path) -> float:
    try:
        _, setup = spawn_worker({"probe": True}, workdir, 60)
    except subprocess.TimeoutExpired as exc:
        raise EnvironmentProblem("importing the package took over 60 s") from exc
    return setup


def layer_metrics(trace: dict, spans_path: Path, overhead: float) -> dict:
    names, spans = load_spans(spans_path)
    self_s = self_time_by_layer(names, spans)
    fam = trace["family_series"]
    calls = trace["spans"].get("families.family_series", {}).get("calls", 0)
    family = dict(fam)
    family["hit_ratio"] = 1 - fam["distinct"] / calls if calls else 0.0
    family["reexpansion_ratio"] = (
        fam["distinct"] / fam["instances"] if fam["instances"] else 0.0
    )
    metrics = {}
    for name, unit, kind, source in PER_LAYER:
        if kind in ("calls", "s"):
            value = trace["spans"].get(source, {}).get(kind, 0)
        elif kind == "agg_calls":
            value = trace["aggregates"].get(source, {}).get("calls", 0)
        elif kind == "agg_s":
            value = trace["aggregates"].get(source, {}).get("s", 0.0)
        elif kind == "self":
            value = self_s.get(source, 0.0)
        elif kind == "family":
            value = family[source]
        else:
            value = overhead
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def summarise(outcomes: list[Outcome], probes: list[float]) -> tuple[dict, int]:
    """Medians of the end-to-end metrics over passing iterations.

    Set-up time also takes the set-up-only probes, which are many more
    samples of the same interpreter-start-to-import interval.
    """
    failed = sum(not o.ok for o in outcomes)
    passed = [o for o in outcomes if o.ok]
    metrics = {}
    if passed:
        for name, unit in END_TO_END:
            values = [getattr(o, name) for o in passed]
            if name == "setup_s":
                values += probes
            metrics[name] = {"value": statistics.median(values), "unit": unit}
    return metrics, failed


def run_workload(workload: Workload, seed: int, seconds: int, trace: bool) -> int:
    started = time.monotonic()
    workdir = OUT_DIR / f"run-{os.getpid()}-{workload.name}"
    spans = OUT_DIR / f"{workload.name}-seed{seed}-spans"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = environment()
    print(f"# {workload.name} seed={seed} seconds={seconds} trace={int(trace)}",
          file=sys.stderr)
    outcomes: list[Outcome] = []
    traced = None
    try:
        probes = [setup_probe(workdir) for _ in range(SETUP_PROBES)]
        while True:
            timeout = RUN_BUDGET_S - (time.monotonic() - started)
            outcomes.append(run_iteration(workload, seed, workdir, timeout))
            log_iteration(len(outcomes), outcomes[-1])
            elapsed = time.monotonic() - started
            longest = max(o.seconds for o in outcomes)
            if trace or elapsed + longest > min(seconds, RUN_BUDGET_S):
                break
        if trace:
            timeout = RUN_BUDGET_S - (time.monotonic() - started)
            traced = run_iteration(workload, seed, workdir, timeout, spans)
            log_iteration(0, traced)
    except EnvironmentProblem as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempts = outcomes + ([traced] if traced else [])
    metrics, failed = summarise(attempts, probes)
    if trace:
        untraced = [o.wall_s for o in outcomes if o.ok]
        metrics = {}
        if traced.ok and untraced:
            overhead = traced.wall_s / statistics.median(untraced)
            metrics = layer_metrics(traced.trace, spans, overhead)
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "environment": env,
        "iterations": [
            {
                "ok": o.ok, "problems": o.problems, "wall_s": o.wall_s,
                "cpu_s": o.cpu_s, "setup_s": o.setup_s,
                "peak_rss_mb": o.peak_rss_mb,
                "calibration_ms": o.calibration_ms,
                "load_before": o.load_before, "load_after": o.load_after,
            }
            for o in attempts
        ],
        "setup_probes_s": probes,
        "metrics": metrics,
    }
    (OUT_DIR / f"{workload.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1)
    )
    print(f"{workload.name}: {len(attempts)} attempted, {failed} failed, "
          f"fail_ratio {failed / len(attempts):.4f} (failed/attempted)")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print("  environment: " + json.dumps(env))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(attempts), "failed": failed,
        "metrics": metrics,
    }))
    # a run with nothing measured is not a result
    return 0 if metrics else 1


def log_iteration(index: int, o: Outcome) -> None:
    label = f"iteration {index}" if index else "traced iteration"
    status = "ok" if o.ok else "FAILED: " + "; ".join(o.problems)
    print(
        f"  {label}: wall {o.wall_s:.3f} s, cpu {o.cpu_s:.3f} s, "
        f"setup {o.setup_s:.4f} s, rss {o.peak_rss_mb:.1f} MB, "
        f"calibration {o.calibration_ms:.1f} ms, load "
        f"{o.load_before[0]:.2f}->{o.load_after[0]:.2f}, {status}",
        file=sys.stderr,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "polygenocchi" / "__init__.py").is_file():
        print(f"error: no polygenocchi package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        status = max(status, run_workload(
            WORKLOADS[name], args.seed, args.seconds, bool(args.trace)
        ))
    return status


if __name__ == "__main__":
    sys.exit(main())
