"""Command line interface: coefficient tables, number sequences, verify runs.

``table`` and ``numbers`` print the cells of ``families.appell_cells``,
each coefficient of P_n(x) a reduced fraction of its own, in every format.

``verify`` reads SOURCE_DATE_EPOCH, the one environment variable the
package reads, before any check runs.  Set to a decimal integer from 0
to 253402300799 (9999-12-31T23:59:59Z), it stamps the report's
``generated-at`` and zeroes every ``elapsed-ms``, so reports are
byte-identical across runs; unset or empty, the report carries the clock
and the measured times.

Exit codes: 0 success, 1 verification found a failing identity, 2 bad
arguments or configuration (a malformed SOURCE_DATE_EPOCH among them),
3 singular parameter point, 4 output path not writable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from typing import Optional, Sequence

from .errors import ConfigError, PolyGenocchiError, SingularDenominator
from .families import (
    ALL_TAGS,
    FamilySpec,
    appell_cells,
    expansion_header,
    family_rate,
    kernel_power,
)
from .kernels import ParamPoint
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
    """``text`` as a Fraction, read alike on every supported Python:
    ``Fraction`` takes ``_`` separators from 3.11 on and non-ASCII
    digits on all, so both are rejected here."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an ASCII rational without '_': {text!r}")
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


def _cell_rows(args) -> tuple[dict, tuple]:
    """The JSON header and the ``appell_cells`` rows of a table or numbers
    request.  ``numbers`` prints P_n(0) = g_n, cell (n, 0), which no rate
    changes: it reads the cells at rate 0, where each row is that cell
    alone."""
    if args.n_max < 0:
        raise ConfigError("--n-max must be nonnegative")
    spec = FamilySpec(args.family, k=args.k, alpha=args.alpha, mu=args.mu)
    point = ParamPoint(args.lam, args.ln_a, args.ln_b, args.ln_c)
    gf = kernel_power(spec, point, args.n_max, {})
    if args.command == "table":
        rate = family_rate(spec, point)
    else:
        rate = Fraction(0)
    header = expansion_header(spec, point, args.n_max)
    return header, appell_cells(gf, rate, args.n_max)


def _cell_text(num: int, den: int) -> str:
    # the text of str(Fraction(num, den)) for a reduced cell
    return str(num) if den == 1 else f"{num}/{den}"


def _csv_row(n: int, row: tuple) -> str:
    cells = [_cell_text(*c) for c in row] or ["0"]
    return ",".join([str(n), str(max(len(row) - 1, 0)), *cells])


def _frac_latex(num: int, den: int) -> str:
    if den == 1:
        return str(num)
    sign = "-" if num < 0 else ""
    return f"{sign}\\frac{{{abs(num)}}}{{{den}}}"


def _poly_latex(row: tuple) -> str:
    if not row:
        return "0"
    terms = []
    for d, (num, den) in enumerate(row):
        if not num:
            continue
        if d == 0:
            terms.append(_frac_latex(num, den))
        else:
            xpow = "x" if d == 1 else f"x^{{{d}}}"
            if (num, den) == (1, 1):
                terms.append(xpow)
            elif (num, den) == (-1, 1):
                terms.append(f"-{xpow}")
            else:
                terms.append(f"{_frac_latex(num, den)} {xpow}")
    out = terms[0]
    for term in terms[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


def _render_table(header: dict, rows: tuple, fmt: str) -> str:
    if fmt == "csv":
        lines = [_csv_row(n, row) for n, row in enumerate(rows)]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        polys = [[_cell_text(*c) for c in row] for row in rows]
        return json.dumps({**header, "polynomials": polys}, indent=2) + "\n"
    lines = [
        f"P_{{{n}}}(x) &= {_poly_latex(row)} \\\\"
        for n, row in enumerate(rows)
    ]
    return "\n".join(lines) + "\n"


def _render_numbers(header: dict, rows: tuple, fmt: str) -> str:
    nums = [row[0] if row else (0, 1) for row in rows]
    if fmt == "csv":
        lines = [f"{n},{_cell_text(*v)}" for n, v in enumerate(nums)]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        values = [_cell_text(*v) for v in nums]
        return json.dumps({**header, "numbers": values}, indent=2) + "\n"
    lines = [f"g_{{{n}}} &= {_frac_latex(*v)} \\\\" for n, v in enumerate(nums)]
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


def _point_from_json(values) -> ParamPoint:
    if not isinstance(values, (list, tuple)) or len(values) != 4:
        raise ConfigError(
            "each sample must be [lam, ln_a, ln_b, ln_c] rational strings"
        )
    return ParamPoint(*(rational(str(v)) for v in values))


# each list field of a config file: its elements, and their parser
_LIST_FIELDS = {
    "samples": ("points", _point_from_json),
    "k_range": ("integers", lambda v: v),
    "alpha_range": ("integers", lambda v: v),
    "s_range": ("integers", lambda v: v),
    "mu_samples": ("rationals", lambda v: rational(str(v))),
    "x_samples": ("rationals", lambda v: rational(str(v))),
    "y_samples": ("rationals", lambda v: rational(str(v))),
}


def _list_from_json(values, key: str) -> tuple:
    kind, parse = _LIST_FIELDS[key]
    # a JSON string is iterable too: "12" must not load as (1, 2)
    if not isinstance(values, list):
        raise ConfigError(f"{key} must be a list of {kind}, got {values!r}")
    try:
        return tuple(parse(v) for v in values)
    except ValueError as exc:
        raise ConfigError(f"bad rational in {key}: {exc}") from exc


def _to_json(value):
    """A config value as JSON: an int as itself, a rational as its string,
    and a point or a tuple as the list of its values."""
    if isinstance(value, ParamPoint):
        value = value._values()
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return value if isinstance(value, int) else str(value)


def config_to_json(cfg: CheckConfig) -> dict:
    """Every ``CheckConfig`` field, in the order of its ``_fields``."""
    return {name: _to_json(value) for name, value in cfg._asdict().items()}


def _unique_keys(pairs: list) -> dict:
    """A JSON object whose keys are all distinct: JSON keeps the last of a
    repeated key, which would silently drop the first value."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ConfigError(f"config key {key!r} is given more than once")
        data[key] = value
    return data


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
                data = json.load(
                    fh, parse_float=str, object_pairs_hook=_unique_keys
                )
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
    return cfg._replace(**lists)


# 9999-12-31T23:59:59Z: the last second a four-digit year can stamp
_LAST_EPOCH = 253402300799


def _source_date_epoch() -> Optional[int]:
    """SOURCE_DATE_EPOCH in seconds, or None where it is unset or empty.
    Anything but a decimal integer from 0 to ``_LAST_EPOCH`` is a
    ConfigError."""
    text = os.environ.get("SOURCE_DATE_EPOCH", "")
    if not text:
        return None
    try:
        if not (text.isascii() and text.isdigit()):
            raise ValueError
        epoch = int(text)
        if epoch > _LAST_EPOCH:
            raise ValueError
    except ValueError:
        raise ConfigError(
            "SOURCE_DATE_EPOCH must be a nonnegative decimal integer that a "
            f"UTC date can hold, not {text[:24]!r}"
        ) from None
    return epoch


def report_to_json(report: Report, epoch: Optional[int]) -> dict:
    """The JSON report.  With an ``epoch`` (``_source_date_epoch``) it is
    stamped with that time and every elapsed time reads 0; without one, it
    carries the clock and the measured times."""
    frozen_time = epoch is not None
    stamp = epoch if frozen_time else int(time.time())
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
        "generated-at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(stamp)),
        "overall": report.overall,
        "config": config_to_json(report.config),
        "results": results,
    }


def _cmd_verify(args) -> int:
    epoch = _source_date_epoch()
    cfg = load_config(args.config, args.order, args.seed)
    report = run_suite(cfg, args.suite)
    for r in report.results:
        line = f"{r.check_id}: {r.status}"
        if r.variant_note:
            line += f" [{r.variant_note}]"
        print(line)
    print(f"overall: {report.overall}")
    if args.out is not None:
        text = json.dumps(report_to_json(report, epoch), indent=2) + "\n"
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
        header, rows = _cell_rows(args)
        if args.command == "table":
            text = _render_table(header, rows, args.format)
        else:
            text = _render_numbers(header, rows, args.format)
        return _write_output(text, args.out)
    except SingularDenominator as exc:
        print(f"error: singular parameters: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except (PolyGenocchiError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
