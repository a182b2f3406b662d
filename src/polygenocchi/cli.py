"""Command line interface: coefficient tables, number sequences, verify runs.

Exit codes: 0 success, 1 verification found a failing identity, 2 bad
arguments or configuration, 3 singular parameter point, 4 output path not
writable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from fractions import Fraction
from typing import Optional, Sequence

from .errors import ConfigError, PolyGenocchiError, SingularDenominator
from .families import (
    ALL_TAGS,
    FamilyExpansion,
    FamilySpec,
    expansion_to_dict,
    family_series,
)
from .kernels import ParamPoint
from .series import Poly
from .verifier import (
    CheckConfig,
    Report,
    SUITES,
    default_config,
    run_suite,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_SINGULAR = 3
EXIT_OUTPUT = 4


def rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        # argparse only converts ValueError into a usage error
        raise ValueError(f"zero denominator in {text!r}")


class _Parser(argparse.ArgumentParser):
    # argparse already exits 2 on bad usage; keep that for our own errors
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="polygenocchi",
        description=(
            "Exact coefficient tables and identity verification for the "
            "poly-Genocchi polynomial families"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family_args(p):
        p.add_argument("--family", required=True, choices=sorted(ALL_TAGS))
        p.add_argument("--k", type=int, default=None,
                       help="polylog / polyexponential order")
        p.add_argument("--alpha", type=int, default=1, help="kernel power")
        p.add_argument("--mu", type=rational, default=None,
                       help="Frobenius parameter")
        p.add_argument("--lambda", dest="lam", type=rational,
                       default=Fraction(1))
        p.add_argument("--ln-a", type=rational, default=Fraction(0))
        p.add_argument("--ln-b", type=rational, default=Fraction(1))
        p.add_argument("--ln-c", type=rational, default=Fraction(1))
        p.add_argument("--n-max", type=int, default=8)
        p.add_argument("--format", choices=("csv", "json", "latex"),
                       default="csv")
        p.add_argument("--out", default=None,
                       help="write to this path instead of stdout")

    table = sub.add_parser("table", help="print polynomial coefficients")
    add_family_args(table)

    numbers = sub.add_parser("numbers", help="print the value sequence at 0")
    add_family_args(numbers)

    verify = sub.add_parser("verify", help="run identity checks")
    verify.add_argument("--suite", choices=sorted(SUITES), default="all")
    verify.add_argument("--order", type=int, default=None)
    verify.add_argument("--seed", type=int, default=None)
    verify.add_argument("--config", default=None,
                        help="JSON file overriding check configuration")
    verify.add_argument("--out", default=None,
                        help="write the JSON report to this path")
    return parser


def _build_expansion(args) -> FamilyExpansion:
    if args.n_max < 0:
        raise ConfigError("--n-max must be nonnegative")
    spec = FamilySpec(args.family, k=args.k, alpha=args.alpha, mu=args.mu)
    point = ParamPoint(args.lam, args.ln_a, args.ln_b, args.ln_c)
    return family_series(spec, point, args.n_max)


def _poly_csv_row(n: int, poly: Poly) -> str:
    # each cell is str() of its reduced Fraction, by one gcd
    nums, den = poly.ints
    cells = [str(n), str(max(poly.degree, 0))]
    for c in nums or (0,):
        g = math.gcd(c, den)
        cells.append(str(c // g) if g == den else f"{c // g}/{den // g}")
    return ",".join(cells)


def _frac_latex(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    sign = "-" if value < 0 else ""
    return f"{sign}\\frac{{{abs(value.numerator)}}}{{{value.denominator}}}"


def _poly_latex(poly: Poly) -> str:
    if poly.is_zero:
        return "0"
    terms = []
    for d in range(poly.degree + 1):
        c = poly.coefficient(d)
        if c == 0:
            continue
        if d == 0:
            terms.append(_frac_latex(c))
        else:
            xpow = "x" if d == 1 else f"x^{{{d}}}"
            if c == 1:
                terms.append(xpow)
            elif c == -1:
                terms.append(f"-{xpow}")
            else:
                terms.append(f"{_frac_latex(c)} {xpow}")
    out = terms[0]
    for term in terms[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


def _render_table(expansion: FamilyExpansion, fmt: str) -> str:
    if fmt == "csv":
        rows = [
            _poly_csv_row(n, p) for n, p in enumerate(expansion.polys)
        ]
        return "\n".join(rows) + "\n"
    if fmt == "json":
        return json.dumps(expansion_to_dict(expansion), indent=2) + "\n"
    lines = [
        f"P_{{{n}}}(x) &= {_poly_latex(p)} \\\\"
        for n, p in enumerate(expansion.polys)
    ]
    return "\n".join(lines) + "\n"


def _render_numbers(expansion: FamilyExpansion, fmt: str) -> str:
    nums = [p.evaluate(Fraction(0)) for p in expansion.polys]
    if fmt == "csv":
        return "\n".join(f"{n},{v}" for n, v in enumerate(nums)) + "\n"
    if fmt == "json":
        payload = expansion_to_dict(expansion)
        del payload["polynomials"]
        payload["numbers"] = [str(v) for v in nums]
        return json.dumps(payload, indent=2) + "\n"
    lines = [f"g_{{{n}}} &= {_frac_latex(v)} \\\\" for n, v in enumerate(nums)]
    return "\n".join(lines) + "\n"


def _write_output(text: str, out: Optional[str]) -> int:
    if out is None:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return EXIT_OUTPUT
    return EXIT_OK


def _point_to_json(pt: ParamPoint) -> list[str]:
    return [str(pt.lam), str(pt.ln_a), str(pt.ln_b), str(pt.ln_c)]


def _point_from_json(values) -> ParamPoint:
    if not isinstance(values, (list, tuple)) or len(values) != 4:
        raise ConfigError(
            "each sample must be [lam, ln_a, ln_b, ln_c] rational strings"
        )
    return ParamPoint(*(Fraction(str(v)) for v in values))


# each list field of a config file: its elements, and their parser
_LIST_FIELDS = {
    "samples": ("points", _point_from_json),
    "k_range": ("integers", lambda v: v),
    "alpha_range": ("integers", lambda v: v),
    "s_range": ("integers", lambda v: v),
    "mu_samples": ("rationals", lambda v: Fraction(str(v))),
    "x_samples": ("rationals", lambda v: Fraction(str(v))),
    "y_samples": ("rationals", lambda v: Fraction(str(v))),
}


def _list_from_json(values, key: str) -> tuple:
    kind, parse = _LIST_FIELDS[key]
    # a JSON string is iterable too: "12" must not load as (1, 2)
    if not isinstance(values, list):
        raise ConfigError(f"{key} must be a list of {kind}, got {values!r}")
    try:
        return tuple(parse(v) for v in values)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad rational in {key}: {exc}") from exc


def config_to_json(cfg: CheckConfig) -> dict:
    return {
        "order": cfg.order,
        "samples": [_point_to_json(pt) for pt in cfg.samples],
        "k_range": list(cfg.k_range),
        "alpha_range": list(cfg.alpha_range),
        "s_range": list(cfg.s_range),
        "mu_samples": [str(v) for v in cfg.mu_samples],
        "x_samples": [str(v) for v in cfg.x_samples],
        "y_samples": [str(v) for v in cfg.y_samples],
        "seed": cfg.seed,
    }


def load_config(
    path: Optional[str], order: Optional[int], seed: Optional[int]
) -> CheckConfig:
    """Defaults, then config file fields, then explicit CLI flags."""
    data = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                # a decimal literal loads as the text it was written as:
                # the rational parsers read it exactly, and an integer
                # field that rejects it names it as written
                data = json.load(fh, parse_float=str)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
    unknown = set(data) - {"order", "seed", *_LIST_FIELDS}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    # the file's order and seed are checked even where a flag overrides them
    cfg = default_config(data.get("order", 16), data.get("seed", 0))
    if order is not None or seed is not None:
        cfg = default_config(
            cfg.order if order is None else order,
            cfg.seed if seed is None else seed,
        )
    lists = {key: _list_from_json(data[key], key) for key in data
             if key in _LIST_FIELDS}
    return replace(cfg, **lists)


def report_to_json(report: Report) -> dict:
    frozen_time = "SOURCE_DATE_EPOCH" in os.environ
    results = []
    for r in report.results:
        mismatch = None
        if r.first_mismatch is not None:
            mismatch = {
                "n": r.first_mismatch.n,
                "x-degree": r.first_mismatch.x_degree,
                "lhs": r.first_mismatch.lhs,
                "rhs": r.first_mismatch.rhs,
            }
        results.append({
            "check-id": r.check_id,
            "statement": r.statement,
            "status": r.status,
            "variant-note": r.variant_note,
            "first-mismatch": mismatch,
            "elapsed-ms": 0 if frozen_time else int(round(r.elapsed_ms)),
        })
    return {
        "suite-version": report.suite_version,
        "suite": report.suite,
        "generated-at": report.generated_at,
        "overall": report.overall,
        "config": config_to_json(report.config),
        "results": results,
    }


def _cmd_verify(args) -> int:
    cfg = load_config(args.config, args.order, args.seed)
    report = run_suite(cfg, args.suite)
    for r in report.results:
        line = f"{r.check_id}: {r.status}"
        if r.variant_note:
            line += f" [{r.variant_note}]"
        print(line)
    print(f"overall: {report.overall}")
    if args.out is not None:
        text = json.dumps(report_to_json(report), indent=2) + "\n"
        status = _write_output(text, args.out)
        if status != EXIT_OK:
            return status
    return EXIT_OK if report.overall == "pass" else EXIT_VERIFY_FAIL


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        expansion = _build_expansion(args)
        if args.command == "table":
            text = _render_table(expansion, args.format)
        else:
            text = _render_numbers(expansion, args.format)
        return _write_output(text, args.out)
    except SingularDenominator as exc:
        print(f"error: singular parameters: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except (PolyGenocchiError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
