import hashlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from cartier import LeadingNotUnit, catalog, diffops
from cartier.cli import COMMANDS, _load_operator, main


# delta^2 - z (delta + 1/2)^2 with its z-degree 1 written as given
GAUSS_TERMS_AT = (
    '{"terms": [{"zdeg": 0, "deltapoly": ["0", "0", "1"]},'
    ' {"zdeg": %s, "deltapoly": ["-1/4", "-1", "-1"]}]}'
)
# the same operator with its z^1 constant coefficient -1/4 written as given
GAUSS_TERMS_WITH = (
    '{"terms": [{"zdeg": 0, "deltapoly": ["0", "0", "1"]},'
    ' {"zdeg": 1, "deltapoly": [%s, "-1", "-1"]}]}'
)

HERE = Path(__file__).resolve().parent


@pytest.fixture
def runner():
    return CliRunner()


def run_json(runner, args):
    result = runner.invoke(main, args)
    payload = json.loads(result.output) if result.output.startswith("{") else None
    return result, payload


class TestGen:
    def test_apery(self, runner):
        result, payload = run_json(
            runner, ["gen", "--series", "apery", "--prime", "5", "--order", "6"]
        )
        assert result.exit_code == 0
        assert payload["series"]["coeffs"] == [
            "1",
            "5",
            "73",
            "1445",
            "33001",
            "819005",
        ]
        assert payload["operator"] == {"order": 3, "mom": True}
        assert payload["frobenius_period"] == 1
        assert payload["request"]["command"] == "gen"

    def test_bessel_defaults_to_dwork(self, runner):
        result, payload = run_json(
            runner, ["gen", "--series", "bessel", "--prime", "3", "--order", "6"]
        )
        assert result.exit_code == 0
        assert payload["series"]["ramification"] == "dwork"

    def test_hypergeometric_warning_case(self, runner):
        result, payload = run_json(
            runner, ["gen", "--series", "hyp:1/3", "--prime", "3", "--order", "4"]
        )
        assert result.exit_code == 0
        assert payload["frobenius_period"] is None
        assert len(payload["warnings"]) == 1

    def test_unknown_series_is_a_usage_error(self, runner):
        result = runner.invoke(
            main, ["gen", "--series", "nope", "--prime", "5", "--order", "4"]
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "args",
        [
            # an abbreviation of --order is not --order
            ["gen", "--series", "apery", "--prime", "5", "--ord", "5"],
            ["nope", "--series", "apery"],
            ["gen", "--series", "apery", "--prime", "x"],
            ["gen", "--series", "apery", "--prime"],
            ["gen", "--series", "apery", "--prime", "5", "-h"],
            ["antecedent", "--operator-file", str(HERE / "missing.json"), "--prime", "5"],
            ["antecedent", "--operator-file", str(HERE), "--prime", "5"],
        ],
        ids=["abbreviation", "command", "not-an-int", "no-value", "short-help", "missing-file", "directory"],
    )
    def test_bad_arguments_are_usage_errors(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "Error" in result.output

    def test_no_arguments_is_a_usage_error(self, runner):
        result = runner.invoke(main, [])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "Usage:" in result.output

    @pytest.mark.parametrize("args", [["--help"], ["gen", "--help"], ["gen", "--series", "x", "--help"]])
    def test_help_exits_0(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        assert result.output.startswith("Usage:")

    def test_bad_context_is_a_reported_error(self, runner):
        # Bessel at p = 2 is rejected by the catalog, not by flag parsing
        result, payload = run_json(
            runner,
            ["gen", "--series", "bessel", "--prime", "2", "--order", "4", "--dwork"],
        )
        assert result.exit_code == 1
        assert payload["error"]["type"] == "BadParameters"

    def test_table_mode(self, runner):
        result = runner.invoke(
            main,
            ["gen", "--series", "apery", "--prime", "5", "--order", "4", "--table"],
        )
        assert result.exit_code == 0
        assert "frobenius_period: 1" in result.output
        assert not result.output.startswith("{")


HYP_WARNING = "p = 3 divides d_alpha = 3; integrality claims are off"


class TestCatalogWarnings:
    """Every command that builds a catalog entry reports the entry's
    warnings, on success and on error, and adds no key when there are none."""

    @pytest.mark.parametrize(
        "command",
        [
            ["check-integrality", "--level", "1"],
            ["check-lucas"],
            ["check-dwork", "--s", "1"],
            ["antecedent", "--levels", "1"],
            ["certify-ratio"],
            ["certify-logderiv"],
            ["scan", "--series", "hyp:1/2", "--exp-bound", "1", "--level", "1", "--deg-bound", "2"],
        ],
        ids=lambda c: c[0],
    )
    def test_every_command_carries_them(self, runner, command):
        args = command + ["--series", "hyp:1/3", "--prime", "3", "--order", "12"]
        result, payload = run_json(runner, args)
        assert result.exit_code in (0, 1)
        assert payload["warnings"] == [HYP_WARNING]
        clean = [a if a != "hyp:1/3" else "hyp:1/2" for a in args]
        result, payload = run_json(runner, clean)
        assert "warnings" not in payload

    def test_scan_reports_a_shared_warning_once(self, runner):
        args = ["scan", "--series", "hyp:1/3", "--series", "hyp:2/3", "--prime", "3"]
        args += ["--order", "12", "--exp-bound", "1", "--level", "1", "--deg-bound", "2"]
        result, payload = run_json(runner, args)
        assert payload["warnings"] == [HYP_WARNING]


class TestLazyOperator:
    """The catalog builds an entry's operator on first read: an error there
    reaches gen and antecedent as a report, and commands that never read
    the operator do not build it."""

    def failing_monicize(self, *args):
        raise LeadingNotUnit("leading delta coefficient vanishes at z = 0")

    @pytest.mark.parametrize("command", [["gen"], ["antecedent", "--levels", "1"]])
    def test_error_reaches_the_commands_that_read_it(self, runner, monkeypatch, command):
        monkeypatch.setattr(catalog, "monicize", self.failing_monicize)
        args = command + ["--series", "apery", "--prime", "5", "--order", "12"]
        result, payload = run_json(runner, args)
        assert result.exit_code == 1
        assert payload["error"] == {
            "type": "LeadingNotUnit",
            "message": "leading delta coefficient vanishes at z = 0",
        }

    def test_other_commands_do_not_build_it(self, runner, monkeypatch):
        monkeypatch.setattr(catalog, "monicize", self.failing_monicize)
        args = ["check-lucas", "--series", "apery", "--prime", "5", "--order", "12"]
        result, payload = run_json(runner, args)
        assert result.exit_code == 0
        assert payload["report"]["passed"]


class TestChecks:
    def test_lucas_pass(self, runner):
        result, payload = run_json(
            runner, ["check-lucas", "--series", "apery", "--prime", "5", "--order", "60"]
        )
        assert result.exit_code == 0
        assert payload["report"]["passed"] is True

    def test_integrality_failure_exits_1(self, runner):
        result, payload = run_json(
            runner,
            [
                "check-integrality",
                "--series",
                "hyp:1/2",
                "--prime",
                "2",
                "--order",
                "8",
            ],
        )
        assert result.exit_code == 1
        assert payload["report"]["passed"] is False
        assert payload["report"]["first_failure"] == 1

    def test_negative_integrality_level_is_a_reported_error(self, runner):
        result, payload = run_json(
            runner,
            ["check-integrality", "--series", "apery", "--prime", "5", "--level", "-1"],
        )
        assert result.exit_code == 1
        assert payload["error"]["type"] == "BadParameters"

    @pytest.mark.parametrize("level", ["0", "-1"])
    def test_scan_level_below_one_is_a_reported_error(self, runner, level):
        # hyp:1/7 at p = 7 gives no integral target, so no search reaches
        # the level: it is checked on entry
        for series in ("hyp:1/2", "hyp:1/7"):
            args = ["scan", "--series", series, "--prime", "7", "--order", "20"]
            result, payload = run_json(
                runner, args + ["--exp-bound", "2", "--level", level, "--deg-bound", "3"]
            )
            assert result.exit_code == 1
            assert payload["error"] == {"message": "level must be >= 1", "type": "BadParameters"}

    @pytest.mark.parametrize(
        "command, series, prime, level",
        [
            ("certify-ratio", "hyp:1/3", "3", "-2"),
            ("certify-logderiv", "hyp:1/3", "3", "-2"),
            ("certify-logderiv", "ffrak", "2", "0"),
            ("certify-logderiv", "ffrak", "2", "-1"),
        ],
    )
    def test_certify_level_below_one_is_a_reported_error(self, runner, command, series, prime, level):
        # non-integral series, where no canonical lift checks the level: the
        # certificate search checks it on entry, before any fallback route
        args = [command, "--series", series, "--prime", prime, "--order", "40", "--level", level]
        result, payload = run_json(runner, args + ["--deg-bound", "8"])
        assert result.exit_code == 1
        assert payload["error"] == {"message": "level must be >= 1", "type": "BadParameters"}

    @pytest.mark.parametrize(
        "bounds, message",
        [
            (["--exp-bound", "0", "--deg-bound", "3"], "exponent bound must be >= 1, got 0"),
            (["--exp-bound", "-1", "--deg-bound", "3"], "exponent bound must be >= 1, got -1"),
            (["--exp-bound", "2", "--deg-bound", "-1"], "degree bound must be >= 0, got -1"),
        ],
        ids=["exp-0", "exp-negative", "deg-negative"],
    )
    def test_scan_box_and_degree_are_checked(self, runner, bounds, message):
        # an empty box or a negative degree bound would otherwise report an
        # empty scan with exit 0
        args = ["scan", "--series", "hyp:1/2", "--prime", "7", "--order", "20", "--level", "2"]
        result, payload = run_json(runner, args + bounds)
        assert result.exit_code == 1
        assert payload["error"] == {"message": message, "type": "BadParameters"}

    @pytest.mark.parametrize("command", ["certify-ratio", "certify-logderiv"])
    def test_certify_negative_degree_is_a_reported_error(self, runner, command):
        args = [command, "--series", "apery", "--prime", "5", "--order", "20", "--level", "1"]
        result, payload = run_json(runner, args + ["--deg-bound", "-1"])
        assert result.exit_code == 1
        assert payload["error"] == {
            "message": "degree bound must be >= 0, got -1",
            "type": "BadParameters",
        }

    def test_integrality_pass(self, runner):
        result, payload = run_json(
            runner,
            [
                "check-integrality",
                "--series",
                "apery",
                "--prime",
                "7",
                "--order",
                "49",
                "--level",
                "2",
            ],
        )
        assert result.exit_code == 0
        assert payload["report"]["passed"] is True

    def test_dwork_congruence(self, runner):
        result, payload = run_json(
            runner,
            [
                "check-dwork",
                "--series",
                "hyp:1/2,1/2",
                "--prime",
                "5",
                "--s",
                "2",
                "--order",
                "60",
            ],
        )
        assert result.exit_code == 0
        assert payload["report"]["passed"] is True
        assert payload["report"]["level"] == 2

    def test_dwork_order_exhausted(self, runner):
        result, payload = run_json(
            runner,
            [
                "check-dwork",
                "--series",
                "hyp:1/2,1/2",
                "--prime",
                "5",
                "--s",
                "2",
                "--order",
                "20",
            ],
        )
        assert result.exit_code == 1
        assert payload["error"]["type"] == "OrderExhausted"


class TestAntecedent:
    def test_negative_levels_is_a_reported_error(self, runner):
        result, payload = run_json(
            runner, ["antecedent", "--series", "apery", "--prime", "5", "--levels", "-1"]
        )
        assert result.exit_code == 1
        assert payload["error"]["type"] == "BadParameters"

    def test_apery_one_level(self, runner):
        result, payload = run_json(
            runner,
            [
                "antecedent",
                "--series",
                "apery",
                "--prime",
                "5",
                "--levels",
                "1",
                "--order",
                "50",
            ],
        )
        assert result.exit_code == 0
        assert len(payload["levels"]) == 1
        level = payload["levels"][0]
        assert level["level"] == 1
        assert level["residual_min_valuation"] is None  # exact zero residual
        assert level["passage_min_valuation"] >= 0

    def test_operator_file(self, runner, tmp_path):
        op = {
            "terms": [
                {"zdeg": 0, "deltapoly": ["0", "0", "1"]},
                {"zdeg": 1, "deltapoly": ["-1/4", "-1", "-1"]},
            ]
        }
        path = tmp_path / "gauss.json"
        path.write_text(json.dumps(op))
        result, payload = run_json(
            runner,
            [
                "antecedent",
                "--operator-file",
                str(path),
                "--prime",
                "5",
                "--levels",
                "2",
                "--order",
                "60",
            ],
        )
        assert result.exit_code == 0
        assert [lv["level"] for lv in payload["levels"]] == [1, 2]

    def test_operator_file_with_cancelling_terms(self, runner, tmp_path):
        path = tmp_path / "op.json"
        args = ["antecedent", "--operator-file", str(path), "--prime", "5", "--levels", "2",
                "--order", "40"]
        path.write_text(GAUSS_TERMS_AT % "1")
        want = runner.invoke(main, args)
        terms = json.loads(GAUSS_TERMS_AT % "1")["terms"]
        # z^2 delta^3 and its negative: the operator is still of order 2
        terms += [{"zdeg": 2, "deltapoly": ["0", "0", "0", s]} for s in ("1", "-1")]
        path.write_text(json.dumps({"terms": terms}))
        got = runner.invoke(main, args)
        assert want.exit_code == got.exit_code == 0
        assert got.output == want.output

    def test_operator_file_is_normalized_once(self, tmp_path, monkeypatch):
        """raw_terms_from_json hands monicize the terms as written, and
        monicize normalizes them."""
        normalize, calls = diffops._normalize_raw_terms, []

        def counted(terms, ctx):
            calls.append(terms)
            return normalize(terms, ctx)

        monkeypatch.setattr(diffops, "_normalize_raw_terms", counted)
        path = tmp_path / "gauss.json"
        path.write_text(GAUSS_TERMS_AT % "1")
        op = _load_operator(str(path), 5, False, 20)
        assert len(calls) == 1
        assert [z for z, _ in op.raw_terms] == [0, 1]

    @pytest.mark.parametrize(
        "text",
        [
            "{bad",
            '{"x": 1}',
            '{"terms": [{"zdeg": 0, "deltapoly": ["1/0"]}]}',
            '{"terms": [{"zdeg": "a", "deltapoly": ["1"]}]}',
            "[1, 2]",
            # a valid Gauss operator but for a z-degree that is not an int
            GAUSS_TERMS_AT % "1.5",
            GAUSS_TERMS_AT % "true",
            GAUSS_TERMS_AT % '"1"',
            GAUSS_TERMS_AT % "-1",
            # coefficients that are not an int or a text: -0.25 is exact in
            # binary, so each of these read as a valid operator before
            GAUSS_TERMS_WITH % "-0.25",
            GAUSS_TERMS_WITH % "true",
            GAUSS_TERMS_WITH % "[-0.25]",
            GAUSS_TERMS_WITH % "[false]",
            # a deltapoly that is not a list: a text read character by
            # character was delta^2, an object read by its keys was NotMOM
            '{"terms": [{"zdeg": 0, "deltapoly": "001"}]}',
            '{"terms": [{"zdeg": 0, "deltapoly": {"0": 5, "1": 7, "2": 9}}]}',
        ],
        ids=["not-json", "no-terms", "zero-denominator", "bad-zdeg", "top-level-list",
             "float-zdeg", "bool-zdeg", "string-zdeg", "negative-zdeg", "float-coeff", "bool-coeff",
             "float-component", "bool-component", "text-deltapoly", "object-deltapoly"],
    )
    def test_malformed_operator_file_is_a_reported_error(self, runner, tmp_path, text):
        path = tmp_path / "op.json"
        path.write_text(text)
        args = ["antecedent", "--operator-file", str(path), "--prime", "5", "--order", "20"]
        result, payload = run_json(runner, args)
        assert result.exit_code == 1
        assert payload["error"]["type"] == "BadParameters"

    def test_series_and_file_together(self, runner, tmp_path):
        path = tmp_path / "op.json"
        path.write_text("{}")
        result = runner.invoke(
            main,
            [
                "antecedent",
                "--series",
                "apery",
                "--operator-file",
                str(path),
                "--prime",
                "5",
            ],
        )
        assert result.exit_code == 2

    def test_series_without_operator(self, runner):
        result, payload = run_json(
            runner,
            ["antecedent", "--series", "ffrak", "--prime", "5", "--order", "20"],
        )
        assert result.exit_code == 1
        assert payload["error"]["type"] == "BadParameters"


class TestCertify:
    def test_ratio_for_apery(self, runner):
        result, payload = run_json(
            runner,
            [
                "certify-ratio",
                "--series",
                "apery",
                "--prime",
                "5",
                "--order",
                "40",
                "--level",
                "1",
                "--deg-bound",
                "8",
            ],
        )
        assert result.exit_code == 0
        cert = payload["certificate"]
        assert cert["rational"] == {
            "num": ["1", "5", "73", "1445", "33001"],
            "den": ["1"],
        }

    def test_logderiv_for_exponential(self, runner):
        result, payload = run_json(
            runner,
            [
                "certify-logderiv",
                "--series",
                "exp",
                "--prime",
                "3",
                "--order",
                "20",
                "--level",
                "2",
                "--deg-bound",
                "4",
            ],
        )
        assert result.exit_code == 0
        assert payload["certificate"]["rational"] == {"num": ["pi"], "den": ["1"]}
        assert payload["period"] == 1

    def test_failed_reconstruction_exits_1(self, runner):
        result, payload = run_json(
            runner,
            [
                "certify-ratio",
                "--series",
                "apery",
                "--prime",
                "5",
                "--order",
                "40",
                "--deg-bound",
                "0",
            ],
        )
        assert result.exit_code == 1
        assert payload["error"]["type"] == "ReconstructionFailed"

    def test_failed_reconstruction_reports_deg_bound(self, runner):
        result, payload = run_json(
            runner,
            ["certify-ratio", "--series", "apery", "--prime", "5", "--order", "40", "--deg-bound", "2"],
        )
        assert result.exit_code == 1
        assert payload["error"]["type"] == "ReconstructionFailed"
        assert payload["error"]["deg_bound"] == 2

    LOGDERIV = ["certify-logderiv", "--series", "hyp:1/2", "--prime", "5", "--order", "10"]

    def test_zero_period_is_a_reported_error(self, runner):
        # the Frobenius fallback used to divide the level by the period
        args = self.LOGDERIV + ["--deg-bound", "0", "--period", "0"]
        result, payload = run_json(runner, args)
        assert result.exit_code == 1
        assert payload["error"]["type"] == "BadParameters"
        assert payload["request"]["period"] == 0

    def test_negative_period_is_a_reported_error(self, runner):
        result, payload = run_json(runner, self.LOGDERIV + ["--period", "-1"])
        assert result.exit_code == 1
        assert payload["error"]["type"] == "BadParameters"


class TestHugeExponents:
    """A level, period or s far beyond what the order can show is answered
    from the order, without forming p^level or a series of order p^level."""

    TIME_BOUND_S = 2  # each run formed p^level or its series: 8-9 s or more

    def run(self, runner, args):
        start = time.perf_counter()
        result, payload = run_json(runner, args)
        assert time.perf_counter() - start < self.TIME_BOUND_S
        return result, payload

    @pytest.mark.parametrize("bounds", [["--level", "40"], ["--level", "1", "--period", "40"]])
    def test_certify_logderiv_reports_its_failure(self, runner, bounds):
        args = ["certify-logderiv", "--series", "hyp:1/2", "--prime", "5", "--order", "48",
                "--deg-bound", "0"]
        result, payload = self.run(runner, args + bounds)
        assert result.exit_code == 1
        assert payload["error"]["type"] == "ReconstructionFailed"

    def test_check_integrality_reads_the_whole_order(self, runner):
        args = ["check-integrality", "--series", "apery", "--prime", "7", "--order", "20"]
        result, payload = self.run(runner, args + ["--level", "10000000"])
        assert result.exit_code == 0
        _, small = run_json(runner, args + ["--level", "2"])
        assert payload["report"] == {**small["report"], "level": 10000000}
        assert payload["report"]["checked_upto"] == 19

    def test_antecedent_reports_the_exhausted_order(self, runner):
        args = ["antecedent", "--series", "apery", "--prime", "7", "--order", "20"]
        result, payload = self.run(runner, args + ["--levels", "10000000"])
        assert result.exit_code == 1
        assert payload["error"] == {
            "message": "order 20 cannot support 10000000 levels at p = 7",
            "type": "OrderExhausted",
        }

    @pytest.mark.parametrize(
        "s, shown", [("3", "125"), ("6000", str(5**6000)), ("10000", "5^10000")]
    )
    def test_check_dwork_names_p_to_the_s(self, runner, s, shown):
        args = ["check-dwork", "--series", "apery", "--prime", "5", "--order", "40", "--s", s]
        result, payload = self.run(runner, args)
        assert result.exit_code == 1
        assert payload["error"] == {
            "message": f"need at least p^s = {shown} coefficients",
            "type": "OrderExhausted",
        }


class TestScan:
    def test_square_relation(self, runner):
        result, payload = run_json(
            runner,
            [
                "scan",
                "--series",
                "hyp:1/2",
                "--prime",
                "7",
                "--exp-bound",
                "2",
                "--level",
                "2",
                "--deg-bound",
                "8",
                "--order",
                "40",
            ],
        )
        assert result.exit_code == 0
        report = payload["report"]
        assert [f["exponents"] for f in report["findings"]] == [[2]]
        assert report["series"] == ["hyp:1/2"]

    def test_no_findings_still_exits_0(self, runner):
        result, payload = run_json(
            runner,
            [
                "scan",
                "--series",
                "apery",
                "--series",
                "hyp:1/2,1/2",
                "--prime",
                "5",
                "--exp-bound",
                "1",
                "--level",
                "2",
                "--deg-bound",
                "6",
                "--order",
                "24",
            ],
        )
        assert result.exit_code == 0
        assert payload["report"]["findings"] == []

    def test_derivative_count_mismatch(self, runner):
        result = runner.invoke(
            main,
            [
                "scan",
                "--series",
                "hyp:1/2",
                "--prime",
                "7",
                "--exp-bound",
                "2",
                "--level",
                "2",
                "--deg-bound",
                "8",
                "--derivative",
                "1",
                "--derivative",
                "0",
            ],
        )
        assert result.exit_code == 2

    def test_mixed_contexts_are_rejected(self, runner):
        result = runner.invoke(
            main,
            [
                "scan",
                "--series",
                "apery",
                "--series",
                "bessel",
                "--prime",
                "3",
                "--exp-bound",
                "1",
                "--level",
                "1",
                "--deg-bound",
                "4",
            ],
        )
        assert result.exit_code == 2

    SMALL = ["--exp-bound", "1", "--level", "1", "--deg-bound", "2", "--order", "8"]

    def test_composite_prime_is_a_reported_error(self, runner):
        args = ["scan", "--series", "apery", "--prime", "4"] + self.SMALL
        result, payload = run_json(runner, args)
        assert result.exit_code == 1
        assert payload["error"]["type"] == "BadParameters"
        assert payload["request"]["prime"] == 4

    def test_negative_derivative_is_a_reported_error(self, runner):
        args = ["scan", "--series", "hyp:1/2", "--prime", "7", "--derivative", "-1"] + self.SMALL
        result, payload = run_json(runner, args)
        assert result.exit_code == 1
        assert payload["error"]["type"] == "BadParameters"

    def test_vanishing_derivative_is_a_reported_error(self, runner):
        args = ["scan", "--series", "hyp:1/2", "--prime", "7", "--derivative", "1"]
        result, payload = run_json(runner, args + self.SMALL[:-1] + ["1"])
        assert result.exit_code == 1
        assert payload["error"]["type"] == "OrderExhausted"


class TestRamifiedScanRegression:
    # Apery + Bessel in Q_3(pi), pi^2 = -3, at the size of the reference
    # profile; the digest is of the report the exact Fraction Euclid path
    # produced, which took about 180 s on a 2-core VM
    ARGS = [
        "scan", "--series", "apery", "--series", "bessel", "--prime", "3", "--dwork",
        "--order", "32", "--exp-bound", "2", "--level", "3", "--deg-bound", "16",
    ]
    SHA256 = "c9ac5a997833a5a5a975c60d76d2019c1d68e99ce6966ca3792a08f02c730ce0"
    TIME_BOUND_S = 60

    def test_report_is_unchanged_and_in_time(self, runner):
        start = time.perf_counter()
        result = runner.invoke(main, self.ARGS)
        elapsed = time.perf_counter() - start
        assert result.exit_code == 0
        assert hashlib.sha256(result.output.encode()).hexdigest() == self.SHA256
        assert elapsed < self.TIME_BOUND_S


class TestSearchOutcomeDigests:
    # certificate searches that end without a certificate: NotInK0 (a pole
    # pair matched the congruence), ReconstructionFailed, and the unscreened
    # failing search on the non-integral ffrak log-derivative; the digests
    # are of the reports made when the screen still divided by t(0) and the
    # exact check still expanded every candidate with a series inverse
    @pytest.mark.parametrize(
        "args, sha256",
        [
            (
                "certify-logderiv --series apery --prime 5 --order 12 --level 2 --deg-bound 5",
                "56dca1d8581e16d49ee077a15a3ca032ca37d480c4a0ff2a442451b5dfc93cce",
            ),
            (
                "certify-ratio --series hyp:1/2,1/2 --prime 2 --order 12 --level 1 --deg-bound 8",
                "2cac055ff8f1eada5652a7b793d45c04270fbc0afa16c5b70f3d4604e435f38b",
            ),
            (
                "certify-ratio --series apery --prime 3 --order 12 --level 3 --deg-bound 2",
                "7a06efd74f788f3e8ef5e5af5a642b1a79698f3877edcc5eb89e844aa677b6d0",
            ),
            (
                "certify-logderiv --series ffrak --prime 2 --order 40 --level 2 --deg-bound 8",
                "fd861fc6fa9d641837695d6bb39c5c5d1a14a67bb705b416f42ddb6a6a4cef70",
            ),
        ],
        ids=["notink0-logderiv", "notink0-ratio", "failed-ratio", "failed-ffrak"],
    )
    def test_report_is_unchanged(self, runner, args, sha256):
        result = runner.invoke(main, args.split())
        assert result.exit_code == 1
        assert hashlib.sha256(result.output.encode()).hexdigest() == sha256


class TestDegreeBoundAtOrAboveOrder:
    # scans whose degree bound is at or above the order, so that the least
    # window's walk over the numerator degree starts below the bound; the
    # digests are of the reports made when every search swept from window 1
    @pytest.mark.parametrize(
        "args, sha256",
        [
            (
                "scan --series hyp:1/2 --prime 5 --order 6 --exp-bound 2 --level 2 --deg-bound 9",
                "723bf3eaf75c4a9f011bee7b45db172476f85056df7c2b1e242d90b114b915d0",
            ),
            (
                "scan --series hyp:1/2 --prime 3 --dwork --order 6 --exp-bound 2 --level 3 "
                "--deg-bound 9",
                "85800fd08a72cfe3f481fe0430102cf1adf6d2a7e1afcc984d865a07ef84589a",
            ),
        ],
        ids=["e1", "e2"],
    )
    def test_report_is_unchanged(self, runner, args, sha256):
        result = runner.invoke(main, args.split())
        assert result.exit_code == 0
        assert hashlib.sha256(result.output.encode()).hexdigest() == sha256


class TestAntecedentRegression:
    # the size of the operators benchmark's Apery antecedent job; the digest
    # is of the report the Coefficient-loop series and matrix arithmetic
    # produced, which took about 1 s on a 2-core VM (about 0.2 s on the
    # integer kernel), so the bound catches a blow-up, not that gain
    ARGS = ["antecedent", "--series", "apery", "--prime", "5", "--order", "40", "--levels", "2"]
    SHA256 = "ef297a02db27841fd5a1a327e4b6ceb88d3ba3042e5be88fd7ea22a796442fdf"
    TIME_BOUND_S = 10

    def test_report_is_unchanged_and_in_time(self, runner):
        start = time.perf_counter()
        result = runner.invoke(main, self.ARGS)
        elapsed = time.perf_counter() - start
        assert result.exit_code == 0
        assert hashlib.sha256(result.output.encode()).hexdigest() == self.SHA256
        assert elapsed < self.TIME_BOUND_S


class TestRamifiedAntecedentRegression:
    # the Dwork-context 2F1 job of the operators benchmark, a chain in
    # Q_3(pi) with e = 2; the digest is of the report produced when series
    # were still read out of Coefficients for every kernel call (about
    # 0.1 s in-process on a 2-core VM), so the bound catches a blow-up only
    ARGS = [
        "antecedent", "--series", "hyp:1/2,1/2", "--prime", "3", "--dwork",
        "--order", "40", "--levels", "2",
    ]
    SHA256 = "f170743f0143d6f3f224b79d37f85c9f25a123004d28741ee2900b15958060e2"
    TIME_BOUND_S = 10

    def test_report_is_unchanged_and_in_time(self, runner):
        start = time.perf_counter()
        result = runner.invoke(main, self.ARGS)
        elapsed = time.perf_counter() - start
        assert result.exit_code == 0
        assert hashlib.sha256(result.output.encode()).hexdigest() == self.SHA256
        assert elapsed < self.TIME_BOUND_S


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ["gen", "--series", "apery", "--prime", "5", "--order", "12"],
            [
                "check-dwork",
                "--series",
                "hyp:1/2,1/2",
                "--prime",
                "5",
                "--s",
                "1",
                "--order",
                "30",
            ],
            [
                "antecedent",
                "--series",
                "apery",
                "--prime",
                "5",
                "--levels",
                "1",
                "--order",
                "40",
            ],
            [
                "scan",
                "--series",
                "hyp:1/2",
                "--prime",
                "7",
                "--exp-bound",
                "2",
                "--level",
                "2",
                "--deg-bound",
                "8",
                "--order",
                "36",
            ],
        ],
        ids=["gen", "check-dwork", "antecedent", "scan"],
    )
    def test_byte_identical_reruns(self, runner, args):
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == 0
        assert first.output == second.output


def _request_keys(table_output):
    """The keys of the request block of a --table report, in print order."""
    lines = table_output.splitlines()
    assert lines[0] == "request:"
    keys = []
    for line in lines[1:]:
        if not line.startswith("  "):
            break
        if not line.startswith("    "):
            keys.append(line.split(":")[0].strip())
    return keys


# what check-dwork and scan require besides --series and --prime; with the
# composite prime 4, every command reports BadParameters at once, and the
# report still carries its request block
REQUIRED = {
    "check-dwork": ["--s", "1"],
    "scan": ["--exp-bound", "1", "--level", "1", "--deg-bound", "1"],
}


class TestRequestBlock:
    """A report's request block is the command followed by its declared
    parameters, in declaration order whatever the order of the arguments;
    --table is the runner's, declared by no command."""

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_keys_are_the_declared_parameters(self, runner, command):
        args = [command, "--series", "apery", "--prime", "4", *REQUIRED.get(command, [])]
        options = COMMANDS[command][1]
        assert "--table" not in [flag for _, flag, _ in options]
        declared = [dest for dest, _, _ in options]
        result, payload = run_json(runner, args)
        assert result.exit_code == 1
        assert payload["error"]["type"] == "BadParameters"
        assert payload["request"]["command"] == command
        assert sorted(payload["request"]) == sorted(["command"] + declared)
        table = runner.invoke(main, args + ["--table"])
        assert _request_keys(table.output) == ["command"] + declared

    @pytest.mark.parametrize(
        "groups",
        [
            [["gen"], ["--series", "apery"], ["--prime", "5"], ["--order", "4"], ["--dwork"]],
            [
                ["scan"],
                # repeated options keep their relative order: it orders the series
                ["--series", "apery", "--series", "hyp:1/2,1/2"],
                ["--prime", "5"],
                ["--exp-bound", "1"],
                ["--level", "2"],
                ["--deg-bound", "2"],
                ["--order", "12"],
            ],
        ],
        ids=["gen", "scan"],
    )
    def test_table_does_not_depend_on_argument_order(self, runner, groups):
        command, *options = groups
        forward = runner.invoke(main, command + sum(options, []) + ["--table"])
        backward = runner.invoke(main, command + ["--table"] + sum(reversed(options), []))
        assert forward.exit_code == 0
        assert backward.output == forward.output


REFERENCES = Path(__file__).resolve().parents[1] / "bench" / "references.json"


def _reference_jobs():
    return sorted(json.loads(REFERENCES.read_text(encoding="utf-8")).items())


class TestBenchReferences:
    """Every job of bench/references.json, run in-process the way
    bench/run.py runs it, prints the recorded bytes and exit code, with
    every arithmetic operation of Coefficient and the Coefficient view of
    series and polynomials made to raise: no command does Coefficient
    arithmetic, and every report is rendered from integer rows."""

    @pytest.mark.parametrize("key,ref", _reference_jobs(), ids=lambda v: v if isinstance(v, str) else "")
    def test_job_is_byte_identical(self, key, ref, no_coefficient_arithmetic, no_coefficient_view):
        buf = io.StringIO()
        code = 0
        try:
            with redirect_stdout(buf):
                main.main(args=key.split(" "), prog_name="cartier")
        except SystemExit as exc:
            code = exc.code
        data = buf.getvalue().encode("utf-8")
        assert code == ref["exit"]
        assert len(data) == ref["bytes"]
        assert hashlib.sha256(data).hexdigest() == ref["sha256"]


# one ramified scan with repeated options and one antecedent chain
PROCESS_JOBS = [
    "scan --series apery --series bessel --prime 3 --dwork --order 17 --exp-bound 1 --level 3 --deg-bound 9",
    "antecedent --series apery --prime 5 --order 40 --levels 2",
]
# the console script: sys.argv as the shell hands it over, then main()
CONSOLE_SCRIPT = "import sys; sys.argv = ['cartier', *sys.argv[1:]]; import cartier.cli; cartier.cli.main()"


class TestProcessEntry:
    """A fresh process parses sys.argv itself and prints the recorded bytes,
    through `python -m cartier.cli` and through the console-script entry."""

    @pytest.mark.parametrize("entry", [["-m", "cartier.cli"], ["-c", CONSOLE_SCRIPT]], ids=["module", "script"])
    @pytest.mark.parametrize("key", PROCESS_JOBS)
    def test_job_is_byte_identical(self, entry, key):
        ref = json.loads(REFERENCES.read_text(encoding="utf-8"))[key]
        env = {**os.environ, "PYTHONPATH": str(HERE.parent / "src")}
        done = subprocess.run(
            [sys.executable, *entry, *key.split(" ")], env=env, capture_output=True, timeout=120
        )
        assert done.returncode == ref["exit"], done.stderr
        assert hashlib.sha256(done.stdout).hexdigest() == ref["sha256"]


# -- fuzzing: every invocation is a JSON report (exit 0 or 1) or a usage
# error (exit 2), never a traceback

SERIES = ["apery", "bessel", "exp", "ffrak", "hyp:1/2", "hyp:1/2,1/2", "hyp:1/3,2/3", "hyp:1/4", "nope", "hyp:1/0"]
SMALL = st.integers(-1, 3)


def _opt(flag, values):
    return values.map(lambda v: [flag, str(v)])


def _maybe(flag, values):
    """The option with a drawn value, or left out."""
    return st.one_of(st.just([]), _opt(flag, values))


def _command(name, required=(), optional=(), series=1, dwork=True):
    parts = [_opt("--series", st.sampled_from(SERIES))] * series + [
        _opt("--prime", st.integers(2, 7)),
        _opt("--order", st.integers(1, 12)),
        st.sampled_from([[], ["--dwork"]] if dwork else [[]]),
        *(_opt(flag, values) for flag, values in required),
        *(_maybe(flag, SMALL) for flag in optional),
    ]
    return st.tuples(*parts).map(lambda xs: [name] + sum(xs, []))


def _scan(k):
    derivatives = st.lists(SMALL, min_size=k, max_size=k).map(
        lambda ds: [x for d in ds for x in ("--derivative", str(d))]
    )
    required = [("--exp-bound", st.integers(-1, 2)), ("--level", SMALL), ("--deg-bound", SMALL)]
    head = _command("scan", required, series=k)
    return st.tuples(head, st.one_of(st.just([]), derivatives)).map(lambda xs: xs[0] + xs[1])


# one strategy per subcommand, so that each of them is fuzzed on every run
INVOCATIONS = {
    "gen": _command("gen"),
    "check-lucas": _command("check-lucas"),
    "check-integrality": _command("check-integrality", optional=["--level"]),
    "check-dwork": _command("check-dwork", [("--s", SMALL)], dwork=False),
    "antecedent": _command("antecedent", optional=["--levels"]),
    "certify-ratio": _command("certify-ratio", optional=["--level", "--deg-bound"]),
    "certify-logderiv": _command("certify-logderiv", optional=["--level", "--deg-bound", "--period"]),
    "scan": st.integers(1, 2).flatmap(_scan),
}


class TestFuzz:
    @pytest.mark.parametrize("command", sorted(INVOCATIONS))
    @given(data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_every_invocation_is_a_report_or_a_usage_error(self, command, data):
        args = data.draw(INVOCATIONS[command])
        result = CliRunner().invoke(main, args)
        assert result.exception is None or isinstance(result.exception, SystemExit), args
        assert result.exit_code in (0, 1, 2), args
        if result.exit_code == 2:
            assert "Error" in result.output, args
        else:
            payload = json.loads(result.stdout)
            assert payload["request"]["command"] == command
            failed = "error" in payload or payload.get("report", {}).get("passed") is False
            assert failed == (result.exit_code == 1), args


class TestRuntimeDependencies:
    def test_cli_imports_only_the_standard_library(self):
        # a fresh interpreter, so that no module another test imported counts
        src = Path(__file__).resolve().parents[1] / "src"
        probe = (
            "import json, sys\n"
            "before = set(sys.modules)\n"
            "import cartier.cli\n"
            "print(json.dumps(sorted({m.split('.')[0] for m in set(sys.modules) - before})))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        ).stdout
        loaded = set(json.loads(out))
        assert "cartier" in loaded
        assert "click" not in loaded
        assert loaded - set(sys.stdlib_module_names) - {"cartier"} == set()
