"""Command line behavior: formats, exit codes, deterministic reports."""

import contextlib
import io
import json
import subprocess
import sys
from fractions import Fraction
from hashlib import sha256

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from polygenocchi import ALL_TAGS, SUITES
from polygenocchi.families import POLY_ORDER_TAGS
from polygenocchi.cli import (
    EXIT_OK,
    EXIT_OUTPUT,
    EXIT_SINGULAR,
    EXIT_USAGE,
    EXIT_VERIFY_FAIL,
    load_config,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

        payload = json.loads(json_text)
        for n, line in enumerate(csv_text.strip().splitlines()):
            cells = line.split(",")
            assert int(cells[0]) == n
            deg = int(cells[1])
            coeffs = [Fraction(c) for c in cells[2:]]
            assert len(coeffs) == deg + 1
            from_json = [Fraction(c) for c in payload["polynomials"][n]]
            # json stores the exact coefficient list, csv pads the zero poly
            if from_json:
                assert coeffs == from_json
            else:
                assert coeffs == [Fraction(0)]

        # latex lines parse back to the same polynomials
        import re

        for n, line in enumerate(latex_text.strip().splitlines()):
            body = line.split("&=")[1].replace("\\\\", "").strip()
            got = [Fraction(0)] * 5
            if body != "0":
                for term in re.finditer(
                    r"(?P<sign>[+-]?)\s*(?P<coef>\\frac\{\d+\}\{\d+\}|\d+)?"
                    r"\s*(?P<var>x(\^\{(?P<pow>\d+)\})?)?",
                    body,
                ):
                    if not term.group(0).strip():
                        continue
                    sign = -1 if term.group("sign") == "-" else 1
                    coef_text = term.group("coef")
                    if coef_text is None:
                        coef = Fraction(1)
                    elif coef_text.startswith("\\frac"):
                        nums = re.findall(r"\d+", coef_text)
                        coef = Fraction(int(nums[0]), int(nums[1]))
                    else:
                        coef = Fraction(coef_text)
                    if term.group("var") is None:
                        power = 0
                    elif term.group("pow") is None:
                        power = 1
                    else:
                        power = int(term.group("pow"))
                    got[power] += sign * coef
            expected = [Fraction(c) for c in payload["polynomials"][n]]
            expected += [Fraction(0)] * (5 - len(expected))
            assert got == expected, f"latex row {n}: {body!r}"

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
