"""Command line behavior: formats, exit codes, deterministic reports."""

import contextlib
import importlib.util
import io
import json
import re
import subprocess
import sys
import time
from fractions import Fraction
from hashlib import sha256
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from polygenocchi import (
    ALL_TAGS,
    FROBENIUS,
    SUITES,
    FamilyExpansion,
    FamilySpec,
    ParamPoint,
    Poly,
    family_series,
)
from polygenocchi import cli, verifier
from polygenocchi.errors import ConfigError
from polygenocchi.families import (
    ORDER_ONE_TAGS,
    POLY_ORDER_TAGS,
    expansion_header,
)
from polygenocchi.cli import (
    EXIT_OK,
    EXIT_OUTPUT,
    EXIT_SINGULAR,
    EXIT_USAGE,
    EXIT_VERIFY_FAIL,
    load_config,
    main,
)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- the reference renderer ---------------------------------------------------
# The CLI prints each cell from ``families.appell_cells``.  The reference
# prints the same outputs from ``family_series``' Poly rows: str() of each
# Fraction coefficient, a LaTeX walk over ``Poly.coefficient``, P_n(0) by
# ``Poly.evaluate``, and ``expansion_to_dict``.


def expansion_to_dict(exp: FamilyExpansion) -> dict:
    """JSON-ready dict of an expansion; rationals as exact 'p/q' strings."""
    return {
        **expansion_header(exp.spec, exp.params, exp.order),
        "polynomials": [[str(c) for c in p.coeffs] for p in exp.polys],
    }


def reference_frac_latex(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    sign = "-" if value < 0 else ""
    return f"{sign}\\frac{{{abs(value.numerator)}}}{{{value.denominator}}}"


def reference_poly_latex(poly: Poly) -> str:
    if poly.degree < 0:
        return "0"
    terms = []
    for d in range(poly.degree + 1):
        c = poly.coefficient(d)
        if c == 0:
            continue
        if d == 0:
            terms.append(reference_frac_latex(c))
        else:
            xpow = "x" if d == 1 else f"x^{{{d}}}"
            if c == 1:
                terms.append(xpow)
            elif c == -1:
                terms.append(f"-{xpow}")
            else:
                terms.append(f"{reference_frac_latex(c)} {xpow}")
    out = terms[0]
    for term in terms[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


def reference_output(
    command: str, fmt: str, spec: FamilySpec, point: ParamPoint, n_max: int
) -> str:
    """What ``polygenocchi command --format fmt`` prints, from Poly rows."""
    expansion = family_series(spec, point, n_max)
    polys = expansion.polys
    if command == "table":
        if fmt == "csv":
            lines = [
                f"{n},{max(p.degree, 0)},"
                + ",".join(str(c) for c in p.coeffs or (0,))
                for n, p in enumerate(polys)
            ]
        elif fmt == "json":
            return json.dumps(expansion_to_dict(expansion), indent=2) + "\n"
        else:
            lines = [
                f"P_{{{n}}}(x) &= {reference_poly_latex(p)} \\\\"
                for n, p in enumerate(polys)
            ]
        return "\n".join(lines) + "\n"
    nums = [p.evaluate(Fraction(0)) for p in polys]
    if fmt == "csv":
        lines = [f"{n},{v}" for n, v in enumerate(nums)]
    elif fmt == "json":
        payload = expansion_to_dict(expansion)
        del payload["polynomials"]
        payload["numbers"] = [str(v) for v in nums]
        return json.dumps(payload, indent=2) + "\n"
    else:
        lines = [
            f"g_{{{n}}} &= {reference_frac_latex(v)} \\\\"
            for n, v in enumerate(nums)
        ]
    return "\n".join(lines) + "\n"


# --- reading outputs back -----------------------------------------------------
# Each reader gives a table's rows as lists of coefficient texts, "p" or
# "p/q", with no trailing zeros (the zero row is []).  Every format prints
# reduced coefficients, so equal values are equal texts.

LATEX_TERM = re.compile(
    r"(?P<sign>[+-]?)\s*(?:(?P<int>\d+)|\\frac\{(?P<num>\d+)\}\{(?P<den>\d+)\})?"
    r"\s*(?P<var>x(\^\{(?P<pow>\d+)\})?)?"
)


def csv_coefficients(text: str) -> list[list[str]]:
    rows = []
    for n, line in enumerate(text.strip().splitlines()):
        cells = line.split(",")
        assert int(cells[0]) == n
        assert len(cells) == int(cells[1]) + 3
        rows.append([] if cells[2:] == ["0"] else cells[2:])
    return rows


def json_coefficients(text: str) -> list[list[str]]:
    return json.loads(text)["polynomials"]


def latex_coefficients(text: str) -> list[list[str]]:
    rows = []
    for line in text.strip().splitlines():
        body = line.split("&=")[1].replace("\\\\", "").strip()
        coeffs: dict[int, str] = {}
        if body != "0":
            for term in LATEX_TERM.finditer(body):
                if not term.group(0).strip():
                    continue
                sign = "-" if term.group("sign") == "-" else ""
                if term.group("int") is not None:
                    coef = term.group("int")
                elif term.group("num") is not None:
                    coef = f"{term.group('num')}/{term.group('den')}"
                else:
                    coef = "1"
                if term.group("var") is None:
                    power = 0
                elif term.group("pow") is None:
                    power = 1
                else:
                    power = int(term.group("pow"))
                assert power not in coeffs, body
                coeffs[power] = sign + coef
        degree = max(coeffs, default=-1)
        rows.append([coeffs.get(d, "0") for d in range(degree + 1)])
    return rows


class TestTable:
    def test_csv_classical_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--family", "classical-genocchi", "--n-max", "3"
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "0,0,0"
        assert lines[1] == "1,0,1"
        assert lines[2] == "2,1,-1,2"
        assert lines[3] == "3,2,0,-3,3"

    def test_type1_weight_one_matches_classical(self, capsys):
        code_a, out_a, _ = run_cli(
            capsys, "table", "--family", "classical-genocchi", "--n-max", "6"
        )
        code_b, out_b, _ = run_cli(
            capsys,
            "table",
            "--family",
            "type1",
            "--k",
            "1",
            "--n-max",
            "6",
        )
        assert code_a == code_b == EXIT_OK
        assert out_a == out_b

    def test_formats_carry_identical_values(self, capsys):
        args = [
            "table", "--family", "type1", "--k", "2", "--alpha", "1",
            "--lambda", "1", "--n-max", "4",
        ]
        _, csv_text, _ = run_cli(capsys, *args, "--format", "csv")
        _, json_text, _ = run_cli(capsys, *args, "--format", "json")
        _, latex_text, _ = run_cli(capsys, *args, "--format", "latex")

        # json stores the exact coefficient list, csv pads the zero poly;
        # latex lines parse back to the same polynomials
        from_json = json_coefficients(json_text)
        assert csv_coefficients(csv_text) == from_json
        assert latex_coefficients(latex_text) == from_json

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(
            capsys,
            "table", "--family", "classical-genocchi", "--n-max", "2",
            "--out", str(target),
        )
        assert code == EXIT_OK
        assert out == ""
        assert target.read_text().splitlines()[2] == "2,1,-1,2"


class TestNumbers:
    def test_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "numbers", "--family", "classical-genocchi", "--n-max", "6"
        )
        assert code == EXIT_OK
        assert out.strip().splitlines() == [
            "0,0", "1,1", "2,-1", "3,0", "4,1", "5,0", "6,-3",
        ]

    def test_json_shape(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "numbers", "--family", "apostol-bernoulli-higher",
            "--n-max", "4", "--format", "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["numbers"] == ["1", "-1/2", "1/6", "0", "-1/30"]
        assert "polynomials" not in payload


# lam, ln a, ln b, ln c
REFERENCE_POINTS = (
    ("2", "1/2", "1/3", "0"),
    ("3", "-1/2", "2/3", "-3/2"),
    ("1/2", "1/3", "5/2", "2/5"),
    # ln a + ln b = 0: the type1 and type2 kernels vanish, every row is zero
    ("2", "1/2", "-1/2", "2/5"),
    # ln c = -1: at alpha = 0 the rows print x^d with coefficient -1 and 1
    ("-1/2", "1", "1", "-1"),
)


class TestReferenceRenderer:
    """Every CLI output equals the reference renderer's, byte for byte."""

    @pytest.mark.parametrize("tag", ALL_TAGS)
    def test_outputs_equal_the_reference(self, capsys, tag):
        # (alpha, k): alpha = 0 makes every row a single power of ln c x
        variants = ((1, 2),) if tag in ORDER_ONE_TAGS else ((2, -2), (0, 3))
        for alpha, k in variants:
            spec = FamilySpec(
                tag,
                k=k if tag in POLY_ORDER_TAGS else None,
                alpha=alpha,
                mu=Fraction(1, 3) if tag == FROBENIUS else None,
            )
            spec_args = ["--family", tag, "--alpha", str(alpha)]
            if spec.k is not None:
                spec_args += ["--k", str(spec.k)]
            if spec.mu is not None:
                spec_args += ["--mu", str(spec.mu)]
            for values in REFERENCE_POINTS:
                point = ParamPoint(*(Fraction(v) for v in values))
                point_args = [
                    f"--{name}={v}"
                    for name, v in zip(("lambda", "ln-a", "ln-b", "ln-c"), values)
                ]
                for command in ("table", "numbers"):
                    for fmt in ("csv", "json", "latex"):
                        argv = [
                            command, *spec_args, *point_args,
                            "--n-max", "8", "--format", fmt,
                        ]
                        code, out, _ = run_cli(capsys, *argv)
                        assert code == EXIT_OK, argv
                        assert out == reference_output(
                            command, fmt, spec, point, 8
                        ), argv

    def test_zero_rows_and_alpha_zero_are_exercised(self, capsys):
        # the reference points reach the zero row and the single-power rows
        _, out, _ = run_cli(
            capsys, "table", "--family", "type2", "--k", "2",
            "--ln-a=1/2", "--ln-b=-1/2", "--n-max", "2",
        )
        assert out == "0,0,0\n1,0,0\n2,0,0\n"
        _, out, _ = run_cli(
            capsys, "table", "--family", "type1", "--k", "2", "--alpha", "0",
            "--ln-c=-3/2", "--n-max", "2", "--format", "latex",
        )
        assert out == (
            "P_{0}(x) &= 1 \\\\\n"
            "P_{1}(x) &= -\\frac{3}{2} x \\\\\n"
            "P_{2}(x) &= \\frac{9}{4} x^{2} \\\\\n"
        )


def load_bench_module(name: str):
    """A module of the benchmark, read from its file."""
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", BENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestTableDeep:
    def test_bench_table_matches_its_reference(self, capsys, tmp_path):
        """The bench's table-deep calls (k=3, alpha=3, n-max 120 at its
        reference seed) print the CSVs of its recorded digests, and the json
        and latex tables parse back to the same values."""
        digests = json.loads(
            (BENCH / "reference" / "digests.json").read_text(encoding="utf-8")
        )["table-deep"]
        workload = load_bench_module("workloads").WORKLOADS["table-deep"]
        calls = workload.calls(digests["seed"], tmp_path)
        assert [call.family for call in calls] == ["type1", "type2"]
        for call in calls:
            code, csv_text, _ = run_cli(capsys, *call.argv)
            assert code == EXIT_OK
            assert sha256(csv_text.encode()).hexdigest() == (
                digests[f"{call.family}_sha256"]
            )
            rows = csv_coefficients(csv_text)
            assert len(rows) == 121
            _, json_text, _ = run_cli(capsys, *call.argv, "--format", "json")
            assert json_coefficients(json_text) == rows
            _, latex_text, _ = run_cli(capsys, *call.argv, "--format", "latex")
            assert latex_coefficients(latex_text) == rows

    def test_outputs_at_a_rate_with_q_above_one_are_pinned(self, capsys):
        """sha256 of the tables at the bench's table-deep point of seed 3,
        where ln c = 1/3, as first written: the CSV at n-max 120, and the
        json, latex and numbers outputs at n-max 40."""
        point = (
            "--k", "3", "--alpha", "3", "--lambda=-2/3", "--ln-a", "1/3",
            "--ln-b", "1", "--ln-c", "1/3",
        )
        pins = {
            "type1": (
                "e0e328a1325694ce5b4a691fc6a42cfcabb351bb97fe9a50f37908700cc7a189",
                "6f56b5aff31d2fd918dc164bb6fedd6459ab67ddbce70b20600c37905aaa3418",
                "3b4e2f813e994c72f1dbec72a4ea1c0eecf18f2d4b562a6c74f405386a4ca768",
                "08524887ce708c9b4cbf5ee64cbd0f46cb39af07138f10cdc7320ad9976b9ef0",
            ),
            "type2": (
                "b1d5a4e59dbda8977a7a64adef450c170c86634b83a86b8fc0e5127f0a0884f5",
                "c090b48af278d093cf0a2f5e917f694eaecb0f6c9d6f7be42c18381545a52bc6",
                "2517c768f0be44fa86d4e8f0b33ec7a53068485c89685def929d949d87ff69aa",
                "cae5632104c1d71793d461f9092d351387efe5193f995bfdf56a95c290ae53ee",
            ),
        }
        for family, (csv_deep, json_40, latex_40, numbers_40) in pins.items():
            for argv, digest in (
                (("table", "--n-max", "120"), csv_deep),
                (("table", "--n-max", "40", "--format", "json"), json_40),
                (("table", "--n-max", "40", "--format", "latex"), latex_40),
                (("numbers", "--n-max", "40", "--format", "csv"), numbers_40),
            ):
                code, out, _ = run_cli(
                    capsys, argv[0], "--family", family, *point, *argv[1:]
                )
                assert code == EXIT_OK
                assert sha256(out.encode()).hexdigest() == digest, (family, argv)

    # the CSV tables at n-max 40, as first written, of the four polylog-type
    # tags at the ends and the middle of the k range, at a point where
    # r = 2 ln(ab) = 5/3, so rate denominators q > 1 reach the ladder
    LADDER_POINT = (
        "--lambda=2", "--ln-a=1/2", "--ln-b=1/3", "--ln-c=2/3", "--n-max", "40",
    )
    LADDER_PINS = {
        ("type1", -16): "49a0568f8976a7ef015d7e6361fd08633ca471e1cb03496be43c05435d9166e9",
        ("type1", -1): "576493eec6f25f15aadfd83453d1b447dbd336ad882dec8cef6c224c41f3fef0",
        ("type1", 0): "f16f47c68e844d60276abed650b4bd08d222771d212f1375d7f126f8b7288ae6",
        ("type1", 1): "120483d820d2383c2aba82caa15ac3275770157daa1323e702a71ae7e78841e1",
        ("type1", 16): "7b476f0d39d4231ac0c785282a996d10f14876f5c51d7be479102c2e48a856ae",
        ("type2", -16): "3dabc194055e44efb3a0f4191c723b92344f5c3f231b4edbd9cf163c7a9845b5",
        ("type2", -1): "cf714dd4e3f0d734da006c54eef12ed3eaffe8c1d90bc00c912fc092f678c5c0",
        ("type2", 0): "0d91455d70c7b30b81029cdf4565c38efc014b5a3b041c7e12da529055c74fde",
        ("type2", 1): "120483d820d2383c2aba82caa15ac3275770157daa1323e702a71ae7e78841e1",
        ("type2", 16): "cd7272eb6315d57d0ffc734b6dfd95a2055d457b0ff0dc1e9574794cd30970e5",
        ("apostol-poly-bernoulli-t1", -16): "9b963e5f3a51595a728dca4f637e8f405bf9c1be8488c3853cbd84472d695b8e",
        ("apostol-poly-bernoulli-t1", -1): "a59621121f174c604d19a0e0cdc27ef582ec988645c646d3ce9a2e15827482a5",
        ("apostol-poly-bernoulli-t1", 0): "a2ee66e423720c1ccc468740d8c9c6e33ebb37f949075cc0f5c7251908af42b0",
        ("apostol-poly-bernoulli-t1", 1): "cb847389bf821b0753e66426518f58cc34d32dcf1241570b3556d79659afe17c",
        ("apostol-poly-bernoulli-t1", 16): "4ba0234bc971b5bb3c49ccbf4adff92d9569121663314ea2f62829438a0d3ec2",
        ("apostol-poly-bernoulli-t2", -16): "e18428f05ab34924bc4452282433ace9a58d6b13d53a98df5f6ca113038017b0",
        ("apostol-poly-bernoulli-t2", -1): "8ba16d80db9d3a0dc148ec875a27c59a153584890afa4e5d0ee37f47ab722f00",
        ("apostol-poly-bernoulli-t2", 0): "94db7a5e54c392fa8c9c642b9db01cdd6928f8d212ce462ffe8484573196e323",
        ("apostol-poly-bernoulli-t2", 1): "cb847389bf821b0753e66426518f58cc34d32dcf1241570b3556d79659afe17c",
        ("apostol-poly-bernoulli-t2", 16): "1eab7074995236af093165cbb523d44be5117367cbce7ae8d72f5a3b62fb5a6f",
    }

    @pytest.mark.parametrize("family, k", sorted(LADDER_PINS))
    def test_ladder_extremes_are_pinned(self, capsys, family, k):
        code, out, _ = run_cli(
            capsys, "table", "--family", family, "--k", str(k), *self.LADDER_POINT
        )
        assert code == EXIT_OK
        assert sha256(out.encode()).hexdigest() == self.LADDER_PINS[family, k]

    @pytest.mark.parametrize("family", ["type1", "type2"])
    @pytest.mark.parametrize("k", [-16, 0, 3, 16])
    def test_zero_rate_table_is_pinned(self, capsys, family, k):
        # ln a + ln b = 0 makes r = 0: the numerator, hence every row, is 0
        code, out, _ = run_cli(
            capsys, "table", "--family", family, "--k", str(k),
            "--lambda=2", "--ln-a=1/2", "--ln-b=-1/2", "--ln-c=2/3",
            "--n-max", "40",
        )
        assert code == EXIT_OK
        assert out == "".join(f"{n},0,0\n" for n in range(41))
        assert sha256(out.encode()).hexdigest() == (
            "dc8a4710aeeb73b8aa080bdbfd1700c34e0bab947313f28dc7fb5dc46f594815"
        )


class TestExitCodes:
    def test_zero_denominator_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "table", "--family", "type1", "--k", "1",
            "--lambda", "1/0", "--n-max", "2",
        )
        assert code == EXIT_USAGE

    def test_singular_point(self, capsys):
        code, _, err = run_cli(
            capsys,
            "table", "--family", "apostol-genocchi",
            "--lambda", "-1", "--n-max", "2",
        )
        assert code == EXIT_SINGULAR
        assert "singular" in err

    def test_missing_weight(self, capsys):
        code, _, err = run_cli(
            capsys, "table", "--family", "type1", "--n-max", "2"
        )
        assert code == EXIT_USAGE

    def test_weight_on_fixed_family(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "table", "--family", "classical-genocchi", "--k", "2",
            "--n-max", "2",
        )
        assert code == EXIT_USAGE

    def test_verify_order_zero(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--order", "0")
        assert code == EXIT_USAGE

    def test_unwritable_out(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "numbers", "--family", "classical-genocchi", "--n-max", "2",
            "--out", str(tmp_path / "missing-dir" / "x.csv"),
        )
        assert code == EXIT_OUTPUT

    def test_bad_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"unknown-key": 1}')
        code, _, err = run_cli(capsys, "verify", "--config", str(cfg))
        assert code == EXIT_USAGE

    def test_config_keys_are_not_repeated(self, capsys, tmp_path):
        # JSON keeps the last of a repeated key: this file would run at
        # order 3 and seed 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"order": 99, "order": 3, "seed": 5, "seed": 0}')
        code, out, err = run_cli(capsys, "verify", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert out == ""
        assert "'order'" in err and "more than once" in err
        assert "Traceback" not in err
        # flags do not hide a repeated key, even one they override
        cfg.write_text('{"seed": 5, "k_range": [1], "seed": 0}')
        with pytest.raises(ConfigError, match="'seed'"):
            load_config(str(cfg), 3, 0)

    @pytest.mark.parametrize(
        "fields",
        [
            {"order": True},
            {"seed": False},
            {"k_range": [1.7]},
            {"k_range": "12"},
            {"alpha_range": ["2"]},
            {"alpha_range": [2.0]},
            {"s_range": [True]},
        ],
    )
    def test_config_integers_are_not_coerced(self, capsys, tmp_path, fields):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"order": 2, **fields}))
        code, out, err = run_cli(capsys, "verify", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert out == ""
        assert "integer" in err


    @pytest.mark.parametrize(
        "fields",
        [
            {"order": "twelve"},
            {"seed": [1]},
            {"order": "twelve", "seed": [1]},
            {"order": 2.0, "seed": True},
        ],
    )
    def test_config_order_and_seed_are_checked_under_flags(
        self, capsys, tmp_path, fields
    ):
        # flags override the file's order and seed, which must still be
        # integers; a list seed must not reach random.Random
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "k_range": [1],
            "alpha_range": [1],
            "samples": [["1", "0", "1", "1"]],
            **fields,
        }))
        code, out, err = run_cli(
            capsys,
            "verify", "--suite", "bernoulli", "--config", str(cfg),
            "--order", "3", "--seed", "0",
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "integer" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("samples", [5, None, True])
    def test_config_samples_must_be_a_list(self, capsys, tmp_path, samples):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"order": 2, "samples": samples}))
        code, out, err = run_cli(capsys, "verify", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert out == ""
        assert "samples" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key", ["mu_samples", "x_samples", "y_samples"])
    @pytest.mark.parametrize("value", ["12", "23", "1/2", 5])
    def test_config_rational_samples_must_be_a_list(
        self, capsys, tmp_path, key, value
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"order": 2, key: value}))
        code, out, err = run_cli(capsys, "verify", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert out == ""
        assert key in err and "list" in err
        assert "Traceback" not in err

    def test_config_decimal_literals_load_exactly(self, tmp_path):
        # read through a binary double, 0.1234567890123456789 would load as
        # 1543209862654321/12500000000000000
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            '{"x_samples": [0.1234567890123456789], "mu_samples": [1e-3]}'
        )
        loaded = load_config(str(cfg), None, None)
        assert loaded.x_samples == (Fraction(1234567890123456789, 10**19),)
        assert loaded.mu_samples == (Fraction(1, 1000),)

    def test_config_decimal_order_is_rejected(self, capsys, tmp_path):
        # the message names the literal as written, not Fraction(2, 1)
        cfg = tmp_path / "cfg.json"
        for text, name, literal in (
            ('{"order": 2.0}', "order", "2.0"),
            ('{"k_range": [1, 2.5]}', "k_range element", "2.5"),
        ):
            cfg.write_text(text)
            code, out, err = run_cli(capsys, "verify", "--config", str(cfg))
            assert code == EXIT_USAGE
            assert out == ""
            assert name in err and "integer" in err and literal in err
            assert "Fraction" not in err

    @pytest.mark.parametrize("value", ["1_000", "1_0/3", "١"])
    def test_rationals_read_alike_on_every_python(self, capsys, tmp_path, value):
        # Fraction reads "_" separators from Python 3.11 on, and non-ASCII
        # digits (here Arabic-Indic one) on every version
        code, out, err = run_cli(
            capsys,
            "table", "--family", "type1", "--k", "1",
            "--ln-c", value, "--n-max", "1",
        )
        assert code == EXIT_USAGE and out == ""
        assert repr(value) in err
        cfg = tmp_path / "cfg.json"
        for data in ({"samples": [[value, "0", "1", "1"]]}, {"x_samples": [value]}):
            cfg.write_text(json.dumps({"order": 2, **data}))
            code, out, err = run_cli(capsys, "verify", "--config", str(cfg))
            assert code == EXIT_USAGE and out == ""
            assert repr(value) in err and "Traceback" not in err


class TestVerify:
    def test_summary_lines_and_exit(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "order": 4,
            "samples": [["1", "0", "1", "1"], ["2", "1/2", "1/3", "1/5"]],
            "k_range": [1, 2],
            "alpha_range": [1, 2],
        }))
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            "verify", "--suite", "stirling", "--config", str(cfg),
            "--out", str(out_path),
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[-1] == "overall: pass"
        assert any(line.startswith("stirling-type1: ") for line in lines)
        assert any(line.startswith("stirling-type2: ") for line in lines)

        payload = json.loads(out_path.read_text())
        assert payload["suite-version"] == "1.0"
        assert payload["overall"] == "pass"
        assert payload["config"]["order"] == 4
        assert len(payload["results"]) == 2
        for entry in payload["results"]:
            assert set(entry) == {
                "check-id", "statement", "status", "variant-note",
                "first-mismatch", "elapsed-ms",
            }

    def test_variant_note_in_summary(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "order": 4,
            "samples": [["2", "1/2", "1/3", "1/5"]],
            "k_range": [2],
            "alpha_range": [1],
        }))
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "stirling", "--config", str(cfg)
        )
        assert code == EXIT_OK
        assert "definition orientation" in out

    def test_reports_are_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1600000000")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "order": 3,
            "samples": [["1", "0", "1", "1"]],
            "k_range": [1],
            "alpha_range": [1],
        }))
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code = main([
                "verify", "--suite", "bernoulli", "--config", str(cfg),
                "--out", str(path),
            ])
            assert code == EXIT_OK
        assert paths[0].read_bytes() == paths[1].read_bytes()
        payload = json.loads(paths[0].read_text())
        assert all(r["elapsed-ms"] == 0 for r in payload["results"])

    def test_reports_match_pinned_digests(self, capsys, tmp_path, monkeypatch):
        # sha256 of the outputs as first written; a change that claims to
        # keep every report byte-identical must keep these
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        report = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            "verify", "--suite", "all", "--order", "8", "--out", str(report),
        )
        assert code == EXIT_OK
        assert sha256(report.read_bytes()).hexdigest() == (
            "583eb87795cf664d7a7a9099878588b12e50cfc6b4a60bb517798c0c5a80eb05"
        )
        assert sha256(out.encode()).hexdigest() == (
            "c33f87f5495a7f639ed76a92d6c3c0cdc6186f6102210e75e9e5d080bdebc42f"
        )
        # deeper grids, where the linear identities are proved on the
        # kernel basis and shared between checks
        for order, seed, report_digest, out_digest in (
            (
                "12", "0",
                "507188defc08220def8ac819b688cb9e50978c36e311c384e1044976cf1fd88e",
                "c33f87f5495a7f639ed76a92d6c3c0cdc6186f6102210e75e9e5d080bdebc42f",
            ),
            (
                "16", "1",
                "489f42a690e63fa23359d46984a5155543111f036deb1f6fc1de4495858ff28f",
                "c33f87f5495a7f639ed76a92d6c3c0cdc6186f6102210e75e9e5d080bdebc42f",
            ),
            (
                "6", "0",
                "1c40bd94ae58e7341b344b69c3a40f442234b08b3bf6c5660a504982e6fdb9db",
                "c33f87f5495a7f639ed76a92d6c3c0cdc6186f6102210e75e9e5d080bdebc42f",
            ),
            (
                "6", "1",
                "cb49156a112c3f5819f840e9b5d11c4afd0865cc282f91efc55a6f1d07f83c32",
                "c33f87f5495a7f639ed76a92d6c3c0cdc6186f6102210e75e9e5d080bdebc42f",
            ),
            (
                "6", "2",
                "819f521ad722dc9abfa5240d6460700865f68cdade3476ac3c103073387133f1",
                "c33f87f5495a7f639ed76a92d6c3c0cdc6186f6102210e75e9e5d080bdebc42f",
            ),
            (
                "6", "3",
                "136192a483ab6d597f1982efc3d787ababe15fa30b8c8a75a3c02e8c35e97054",
                "c33f87f5495a7f639ed76a92d6c3c0cdc6186f6102210e75e9e5d080bdebc42f",
            ),
            (
                "24", "0",
                "0eb281a78e8f345961929fe220d34e1a7237fe51731eef8346f48fc76c453ad0",
                "c33f87f5495a7f639ed76a92d6c3c0cdc6186f6102210e75e9e5d080bdebc42f",
            ),
        ):
            code, out, _ = run_cli(
                capsys,
                "verify", "--suite", "all", "--order", order, "--seed", seed,
                "--out", str(report),
            )
            assert code == EXIT_OK
            assert sha256(report.read_bytes()).hexdigest() == report_digest
            assert sha256(out.encode()).hexdigest() == out_digest
        code, out, _ = run_cli(
            capsys,
            "table", "--family", "type1", "--k", "3", "--alpha", "3",
            "--n-max", "40",
        )
        assert code == EXIT_OK
        assert sha256(out.encode()).hexdigest() == (
            "c3d6bed6100aad8b18977d548892b984b6f5f17af4eefef2631d0978bedfcb6e"
        )
        # type2 at a point where ln a, ln b and ln c are all outside {0, 1}
        point = (
            "--k", "3", "--alpha", "3", "--n-max", "40", "--lambda", "2",
            "--ln-a=-1/2", "--ln-b", "2/3", "--ln-c=-3/2",
        )
        for argv, digest in (
            (
                ("table", "--format", "json"),
                "fe7003e669416d5a0cdc81e8768a2e472dc805c64de993e88aaec51ac806fc75",
            ),
            (
                ("table", "--format", "latex"),
                "48092a65dd94ab89428800f7b4ecdda0d7bcbd49e4d76a63df76248d0f64c433",
            ),
            (
                ("numbers", "--format", "csv"),
                "6e6a171874ee659458ec8851e1c6b5e1edcbb9ca2d6e78cc7d58c3f68a337b52",
            ),
        ):
            code, out, _ = run_cli(
                capsys, argv[0], "--family", "type2", *point, *argv[1:]
            )
            assert code == EXIT_OK
            assert sha256(out.encode()).hexdigest() == digest, argv

    def test_console_script_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "polygenocchi", "numbers",
             "--family", "classical-genocchi", "--n-max", "2"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip().splitlines() == ["0,0", "1,1", "2,-1"]

    def test_timestamp_honors_epoch(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1500000000")
        report = tmp_path / "report.json"
        argv = ["verify", "--suite", "symmetrized", "--order", "2"]
        assert main([*argv, "--out", str(report)]) == EXIT_OK
        payload = json.loads(report.read_text())
        assert payload["generated-at"] == "2017-07-14T02:40:00Z"


class TestSourceDateEpoch:
    # the CLI reads SOURCE_DATE_EPOCH once, before any check runs: a
    # malformed value is a usage error that names it, and an empty one is
    # the variable unset
    ARGV = ("verify", "--suite", "symmetrized", "--order", "3")

    @pytest.fixture
    def clocks(self, monkeypatch):
        # a wall clock at 1234567890.5 and a check timer that moves 1 s
        # per reading, so an elapsed time that is not zeroed reads 1000 ms
        ticks = iter(range(10**6))
        monkeypatch.setattr(
            cli,
            "time",
            SimpleNamespace(
                time=lambda: 1234567890.5,
                gmtime=time.gmtime,
                strftime=time.strftime,
            ),
        )
        monkeypatch.setattr(
            verifier, "time", SimpleNamespace(perf_counter=lambda: next(ticks))
        )

    def report(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, _, err = run_cli(capsys, *self.ARGV, "--out", str(path))
        assert code == EXIT_OK, err
        payload = json.loads(path.read_text())
        return payload["generated-at"], [r["elapsed-ms"] for r in payload["results"]]

    @pytest.mark.parametrize(
        "value", ["99999999999999999", "abc", "1.5", "-5", "1" * 5000]
    )
    def test_a_malformed_value_stops_the_run(self, value, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("a check ran")

        monkeypatch.setattr(cli, "run_suite", refuse)
        monkeypatch.setenv("SOURCE_DATE_EPOCH", value)
        code, out, err = run_cli(capsys, *self.ARGV)
        assert code == EXIT_USAGE
        assert out == ""
        assert "SOURCE_DATE_EPOCH" in err

    def test_the_last_second_of_year_9999_is_the_bound(
        self, capsys, tmp_path, monkeypatch
    ):
        # the last second a four-digit year holds stamps the report; one
        # second later is a usage error, before any check runs
        path = tmp_path / "report.json"
        argv = ["verify", "--suite", "symmetrized", "--order", "2"]
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "253402300799")
        code, _, err = run_cli(capsys, *argv, "--out", str(path))
        assert code == EXIT_OK, err
        stamp = json.loads(path.read_text())["generated-at"]
        assert stamp == "9999-12-31T23:59:59Z"
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "253402300800")
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == (
            "error: SOURCE_DATE_EPOCH must be a nonnegative decimal integer "
            "that a UTC date can hold, not '253402300800'\n"
        )

    def test_zero_is_the_epoch(self, capsys, tmp_path, monkeypatch, clocks):
        # 0 is falsy, and the bench runs under it
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        assert self.report(capsys, tmp_path) == ("1970-01-01T00:00:00Z", [0])

    def test_empty_is_unset(self, capsys, tmp_path, monkeypatch, clocks):
        monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
        unset = self.report(capsys, tmp_path)
        assert unset == ("2009-02-13T23:31:30Z", [1000])
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "")
        assert self.report(capsys, tmp_path) == unset


# --- fuzzing the exit-code contract ------------------------------------------
# Each value is valid four times in five and malformed otherwise, so that
# every exit code is reached.  Valid values stay small where they start real
# work (orders, n-max, alpha, s), so every example runs in milliseconds.

junk_st = st.one_of(
    st.sampled_from(
        ["", "x", "1/0", "-", "--", "1.5", "1e3", "nan", "-1/2", "0", "-3"]
    ),
    st.none(),
    st.booleans(),
    st.floats(-3, 3, allow_nan=False),
    st.lists(st.integers(-2, 2), max_size=2),
)
# -1, 0 and 1 make singular points (lam = -1, mu = 1, ln a + ln b = 0)
rational_st = st.one_of(
    st.sampled_from(["-1", "0", "1"]),
    st.fractions(-3, 3, max_denominator=4).map(str),
)


def mostly(valid):
    return st.integers(0, 4).flatmap(lambda i: valid if i else junk_st)


def text(strategy):
    """Command-line tokens: every value as text."""
    return strategy.map(
        lambda v: json.dumps(v) if isinstance(v, (list, bool)) or v is None
        else str(v)
    )


config_st = mostly(
    st.fixed_dictionaries(
        {},
        optional={
            "order": mostly(st.just(1)),
            "samples": mostly(
                st.lists(mostly(st.lists(rational_st, min_size=4, max_size=4)),
                         min_size=1, max_size=2)
            ),
            "k_range": mostly(st.lists(mostly(st.integers(-3, 3)), max_size=2)),
            "alpha_range": mostly(
                st.lists(mostly(st.integers(-1, 2)), max_size=2)
            ),
            "s_range": mostly(st.lists(mostly(st.integers(0, 2)), max_size=2)),
            "mu_samples": mostly(st.lists(rational_st, max_size=2)),
            "x_samples": mostly(st.lists(rational_st, max_size=2)),
            "y_samples": mostly(st.lists(rational_st, max_size=2)),
            "seed": mostly(st.integers(0, 5)),
            "bogus": st.integers(),
        },
    )
)


def option_st(name, values):
    return st.tuples(st.just(name), text(mostly(values)))


@st.composite
def table_options_st(draw):
    family = draw(st.sampled_from(sorted(ALL_TAGS)))
    options = [("--family", family)]
    # the options a family needs, mostly present, and the ones it refuses,
    # mostly absent
    if (family in POLY_ORDER_TAGS) == (draw(st.integers(0, 4)) > 0):
        options.append(draw(option_st("--k", st.integers(-17, 17))))
    if (family == "frobenius-higher") == (draw(st.integers(0, 4)) > 0):
        options.append(draw(option_st("--mu", rational_st)))
    options += draw(
        st.lists(
            st.one_of(
                option_st("--alpha", st.integers(-1, 3)),
                option_st("--lambda", rational_st),
                option_st("--ln-a", rational_st),
                option_st("--ln-b", rational_st),
                option_st("--ln-c", rational_st),
                option_st("--n-max", st.integers(-1, 5)),
                option_st("--format", st.sampled_from(["csv", "json", "latex"])),
                option_st("--out", st.sampled_from(["OUT", "MISSING"])),
            ),
            max_size=5,
        )
    )
    return options


verify_options_st = st.tuples(
    # an explicit small --order keeps the default order 16 out of reach
    option_st("--order", st.just(1)),
    st.lists(
        st.one_of(
            option_st("--suite", st.sampled_from(sorted(SUITES))),
            option_st("--seed", st.integers(-1, 3)),
            option_st("--config", st.sampled_from(["CONFIG", "MISSING"])),
            option_st("--out", st.sampled_from(["OUT", "MISSING"])),
        ),
        max_size=4,
    ),
).map(lambda parts: [parts[0]] + parts[1])


@st.composite
def argv_st(draw):
    command = draw(mostly(st.sampled_from(["table", "numbers", "verify"])))
    if command == "verify":
        options = draw(verify_options_st)
    else:
        options = draw(table_options_st())
    options = draw(st.permutations(options))
    argv = [str(command)] + [token for pair in options for token in pair]
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(text(junk_st)))
    return argv


class TestExitCodeFuzz:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(argv=argv_st(), config=config_st)
    def test_exit_code_is_in_contract(self, tmp_path, monkeypatch, argv, config):
        # a malformed --out value is a relative path: keep it in tmp_path
        monkeypatch.chdir(tmp_path)
        paths = {
            "CONFIG": tmp_path / "cfg.json",
            "OUT": tmp_path / "out.txt",
            "MISSING": tmp_path / "missing-dir" / "x",
        }
        paths["CONFIG"].write_text(json.dumps(config))
        argv = [str(paths.get(token, token)) for token in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        assert code in {
            EXIT_OK, EXIT_VERIFY_FAIL, EXIT_USAGE, EXIT_SINGULAR, EXIT_OUTPUT
        }
        assert "Traceback" not in stderr.getvalue()
