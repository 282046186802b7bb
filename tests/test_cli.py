"""CLI tests, run in-process through tests/cli_run.py."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from modforms.brackets import rankin_cohen
from cli_run import run_cli
from modforms.cli import _MAX_PREC, _series_text, main
from modforms.forms import catalog_form, cusp_delta, eisenstein, eval_generator_poly
from modforms.hecke import hecke
from modforms.qseries import GradedSeries, QSeries
from modforms.verify import VerificationReport


class TestSeriesJson:
    """The --json text of a series is written directly, byte for byte what
    json.dumps(form.to_json_dict(), indent=2) gives."""

    @pytest.mark.parametrize(
        "form",
        [
            lambda: eisenstein(4, 12),
            lambda: eisenstein(12, 12),
            lambda: eval_generator_poly("(E2^2 - E4)/12", 12),
            lambda: eisenstein(6, 12),
            lambda: eisenstein(4, 0),
            lambda: GradedSeries(QSeries.zero(5), 12),
            lambda: hecke(eisenstein(12, 12), 7),
        ],
        ids=["E4", "E12", "D(E2)", "E6", "prec-0", "zero", "hecke-n-above-half"],
    )
    def test_equals_the_json_encoder(self, form):
        form = form()
        assert _series_text(form, True) == json.dumps(form.to_json_dict(), indent=2)

    @pytest.mark.parametrize(
        "argv, form",
        [
            (("eis", "--weight", "12"), lambda p: eisenstein(12, p)),
            (("delta", "--weight", "16"), lambda p: cusp_delta(16, p)),
            (("hecke", "--input", "E4^3 - E6^2", "--n", "3"),
             lambda p: hecke(eval_generator_poly("E4^3 - E6^2", p), 3)),
            (("bracket", "--g", "E4", "--h", "Delta12", "--m", "2"),
             lambda p: rankin_cohen(catalog_form("E4", p), catalog_form("Delta12", p), 2)),
        ],
        ids=["eis", "delta", "hecke", "bracket"],
    )
    def test_command_output_loads_to_the_json_dict(self, argv, form):
        result = run_cli(*argv, "--prec", "30", "--json")
        assert result.exit_code == 0
        assert json.loads(result.output) == form(30).to_json_dict()


class TestEis:
    def test_text_output(self):
        result = run_cli("eis", "--weight", "4", "--prec", "4")
        assert result.exit_code == 0
        assert "240*q" in result.output

    def test_json_output(self):
        result = run_cli("eis", "--weight", "2", "--prec", "3", "--json")
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["weight"] == 2
        assert data["series"]["coeffs"] == ["1/1", "-24/1", "-72/1", "-96/1"]

    def test_odd_weight_fails(self):
        result = run_cli("eis", "--weight", "3", "--prec", "4")
        assert result.exit_code != 0
        assert "even" in result.output


class TestDelta:
    def test_delta12(self):
        result = run_cli("delta", "--weight", "12", "--prec", "5", "--json")
        data = json.loads(result.output)
        assert data["series"]["coeffs"][:4] == ["0/1", "1/1", "-24/1", "252/1"]

    def test_unsupported_weight(self):
        result = run_cli("delta", "--weight", "14", "--prec", "5")
        assert result.exit_code != 0


class TestHecke:
    def test_catalog_input(self):
        result = run_cli("hecke", "--input", "Delta12", "--n", "2", "--prec", "64", "--json")
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["series"]["prec"] == 32
        assert data["series"]["coeffs"][1] == "-24/1"

    def test_expression_input(self):
        result = run_cli("hecke", "--input", "E4^2", "--n", "2", "--prec", "32", "--json")
        assert result.exit_code == 0
        assert json.loads(result.output)["weight"] == 8

    def test_unknown_name(self):
        result = run_cli("hecke", "--input", "Delta13", "--n", "2")
        assert result.exit_code != 0
        assert "unknown form name" in result.output

    def test_catalog_input_bad_precision(self):
        result = run_cli("hecke", "--input", "Delta12", "--n", "2", "--prec", "0")
        assert result.exit_code != 0
        assert result.output.splitlines() == [
            "Error: cusp form construction needs prec >= 1"
        ]

    # An Eisenstein name at prec 0 builds no cusp form: hecke answers and
    # eigen gives its own precision error.
    @pytest.mark.parametrize(
        "argv, code, stdout, stderr",
        [
            (
                ("hecke", "--input", "E4", "--n", "2"), 0, ["[weight 4] 9 + O(q^1)"],
                ["Warning: T_2 on a series of precision 0 certifies only the constant term"],
            ),
            (
                ("eigen", "--input", "E4"), 1, [],
                ["Error: eigenform test with bound 10 and window 12 needs precision >= 120, have 0"],
            ),
        ],
        ids=["hecke", "eigen"],
    )
    def test_eisenstein_input_at_precision_zero(self, argv, code, stdout, stderr):
        result = run_cli(*argv, "--prec", "0")
        assert result.exit_code == code
        assert result.stdout.splitlines() == stdout
        assert result.stderr.splitlines() == stderr

    def test_deep_nesting_is_one_error_line(self):
        text = "(" * 3000 + "E4" + ")" * 3000
        result = run_cli("hecke", "--input", text, "--n", "2", "--prec", "8")
        assert result.exit_code != 0
        assert result.output.splitlines() == [
            "Error: generator polynomial nests parentheses deeper than 100"
        ]

    def test_generator_power_above_the_weight_cap(self):
        result = run_cli("hecke", "--input", "E4^2001", "--n", "2", "--prec", "8")
        assert result.exit_code == 1
        assert result.output.splitlines() == [
            "Error: polynomial weight 8004 exceeds the cap 8000"
        ]

    def test_large_generator_power(self):
        result = run_cli("hecke", "--input", "E4^2000", "--n", "2", "--prec", "8", "--json")
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["weight"] == 8000
        assert data["series"]["prec"] == 4

    def test_constant_power_folds_at_once(self):
        start = time.perf_counter()
        result = run_cli("hecke", "--input", "1^100000000", "--n", "2", "--prec", "4")
        assert time.perf_counter() - start < 1
        assert result.exit_code == 0
        assert result.output == run_cli("hecke", "--input", "1", "--n", "2", "--prec", "4").output
        assert result.output.startswith("[weight 0]")

    def test_constant_power_above_the_bit_cap(self):
        start = time.perf_counter()
        result = run_cli("hecke", "--input", "(2^8000)^8000*E4", "--n", "2", "--prec", "4")
        assert time.perf_counter() - start < 1
        assert result.exit_code == 1
        assert result.output.splitlines() == [
            "Error: constant power exceeds the cap of 65536 bits"
        ]


class TestEigen:
    def test_eigenform(self):
        result = run_cli("eigen", "--input", "Delta12", "--json")
        data = json.loads(result.output)
        assert data["is_eigen_up_to_bound"] is True
        assert data["eigenvalues"][1] == [2, "-24/1"]

    def test_non_eigenform_reports_violation(self):
        result = run_cli("eigen", "--input", "E2*E4")
        assert result.exit_code == 0
        assert "not an eigenform" in result.output

    def test_inhomogeneous_input_rejected(self):
        result = run_cli("eigen", "--input", "E2+E4")
        assert result.exit_code != 0
        assert "weight" in result.output

    def test_catalog_input_negative_precision(self):
        result = run_cli("eigen", "--input", "E4", "--prec", "-5")
        assert result.exit_code != 0
        assert result.output.splitlines() == ["Error: prec must be >= 0"]

    def test_window_zero_rejected(self):
        result = run_cli("eigen", "--input", "Delta12", "--window", "0")
        assert result.exit_code != 0
        assert result.output.splitlines() == ["Error: the test needs a window >= 1"]


class TestBracket:
    def test_e4_e6_order_one(self):
        result = run_cli("bracket", "--g", "E4", "--h", "E6", "--m", "1",
                        "--prec", "8", "--json")
        data = json.loads(result.output)
        assert data["weight"] == 12
        assert data["series"]["coeffs"][1] == "-3456/1"

    def test_e2_rejected(self):
        for args in (("--g", "E2", "--h", "E4"), ("--g", "E4", "--h", "E2")):
            result = run_cli("bracket", *args, "--m", "1", "--prec", "8")
            assert result.exit_code != 0
            assert len(result.output.splitlines()) == 1
            assert result.output.startswith("Error:")
            assert "quasimodular" in result.output


class TestDecompose:
    def test_e2_e4(self):
        result = run_cli("decompose", "--expr", "E2*E4", "--weight", "6",
                        "--depth", "1", "--json")
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["decomposable"] is True
        assert data["components"][0]["coordinates"] == ["1/1"]
        assert data["components"][1]["coordinates"] == ["3/1"]

    def test_not_decomposable(self):
        result = run_cli("decompose", "--expr", "(E2^2-E4)/12", "--weight", "4",
                        "--depth", "1")
        assert result.exit_code == 1
        assert "not decomposable" in result.output

    def test_weight_mismatch(self):
        result = run_cli("decompose", "--expr", "E2*E4", "--weight", "8", "--depth", "1")
        assert result.exit_code != 0
        assert "weight 6" in result.output

    def test_depth_bound_guard(self):
        result = run_cli("decompose", "--expr", "E2*E4", "--weight", "6", "--depth", "3")
        assert result.exit_code != 0


class TestVerify:
    def test_ghitza_suite_passes(self):
        result = run_cli("verify", "--suite", "ghitza", "--json")
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["suite"] == "ghitza"
        assert data["failed"] == 0
        assert data["passed"] == 5

    def test_text_summary(self):
        result = run_cli("verify", "--suite", "diophantine")
        assert result.exit_code == 0
        assert "[PASS]" in result.output
        assert "0 failed" in result.output

    def test_out_file(self, tmp_path):
        target = tmp_path / "report.json"
        result = run_cli("verify", "--suite", "ghitza", "--out", str(target))
        assert result.exit_code == 0
        data = json.loads(target.read_text())
        assert data["passed"] == 5
        for check in data["checks"]:
            assert set(check) == {"id", "anchor", "pass", "witness"}

    # The file is opened before the run: a run that fails leaves an earlier
    # report whole, and one that passes replaces a longer earlier file.
    def test_out_file_replaced_only_by_a_finished_run(self, tmp_path):
        target = tmp_path / "report.json"
        target.write_text("earlier report\n" * 10000)
        result = run_cli("verify", "--suite", "identities", "--prec", "32", "--out", str(target))
        assert result.exit_code != 0
        assert target.read_text() == "earlier report\n" * 10000
        result = run_cli("verify", "--suite", "ghitza", "--out", str(target))
        assert result.exit_code == 0
        assert json.loads(target.read_text())["passed"] == 5

    # A run that fails leaves no file behind where there was none.
    def test_out_file_not_left_by_a_failed_run(self, tmp_path):
        target = tmp_path / "new.json"
        result = run_cli("verify", "--suite", "identities", "--prec", "64", "--out", str(target))
        assert result.exit_code == 1
        assert "Error: the identity suite is specified for prec >= 128" in result.output
        assert not target.exists()

    # A missing directory fails when the file is opened, and a directory
    # fails the --out value check; both before the suite runs, and neither
    # is a traceback (run_cli lets any exception but SystemExit through).
    UNWRITABLE_OUT = pytest.mark.parametrize(
        "name, message",
        [("missing/report.json", "No such file or directory"), (".", "is a directory")],
        ids=["missing-directory", "directory"],
    )

    @UNWRITABLE_OUT
    def test_out_path_that_cannot_be_written(self, tmp_path, name, message):
        result = run_cli("verify", "--suite", "ghitza", "--out", str(tmp_path / name))
        assert result.exit_code != 0
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert len(errors) == 1 and message in errors[0]

    @UNWRITABLE_OUT
    def test_out_path_fails_before_the_suite_runs(self, tmp_path, monkeypatch, name, message):
        def run_suite(*args):
            raise AssertionError("the suite ran before --out was checked")

        monkeypatch.setattr("modforms.cli.run_suite", run_suite)
        result = run_cli("verify", "--suite", "all", "--out", str(tmp_path / name))
        assert result.exit_code != 0
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert len(errors) == 1 and message in errors[0]

    # Text mode builds no JSON report; --out writes the one --json prints.
    def test_text_mode_builds_no_json_report(self, monkeypatch):
        def refuse(report):
            raise AssertionError("the JSON report was built in text mode")

        monkeypatch.setattr(VerificationReport, "to_json_dict", refuse)
        result = run_cli("verify", "--suite", "ghitza")
        assert result.exit_code == 0
        assert "suite ghitza: 5 passed, 0 failed (" in result.output.splitlines()[-1]

    def test_out_file_holds_the_json_report(self, tmp_path):
        target = tmp_path / "report.json"
        text = run_cli("verify", "--suite", "ghitza", "--out", str(target)).output
        printed = run_cli("verify", "--suite", "ghitza", "--json").output
        assert text.startswith("[PASS]")
        written, shown = json.loads(target.read_text()), json.loads(printed)
        for data in (written, shown):
            del data["runtime_seconds"]
        assert written == shown

    def test_identity_precision_guard(self):
        result = run_cli("verify", "--suite", "identities", "--prec", "32")
        assert result.exit_code != 0

    # Every suite refuses a negative precision, the two that read none too.
    @pytest.mark.parametrize("suite", ["ghitza", "diophantine"])
    def test_negative_precision_is_one_error_line(self, suite):
        result = run_cli("verify", "--suite", suite, "--prec", "-5")
        assert result.exit_code == 1
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert errors == ["Error: prec must be >= 0"]
        assert "[PASS]" not in result.output


@pytest.mark.parametrize(
    "command",
    [
        ("eis", "--weight", "4"),
        ("delta", "--weight", "12"),
        ("hecke", "--input", "E4", "--n", "2"),
        ("eigen", "--input", "E4"),
        ("bracket", "--g", "E4", "--h", "E6", "--m", "1"),
        ("verify", "--suite", "ghitza"),
    ],
    ids=lambda command: command[0],
)
def test_precision_above_the_maximum_is_one_error_line(command):
    result = run_cli(*command, "--prec", str(_MAX_PREC + 1))
    assert result.exit_code == 1
    assert result.output.splitlines() == [
        f"Error: --prec {_MAX_PREC + 1} exceeds the maximum {_MAX_PREC}"
    ]


@pytest.mark.parametrize(
    "command",
    [
        ("hecke", "--input", "2^20000*E4", "--n", "2", "--prec", "4"),
        ("hecke", "--input", "2^20000*E4", "--n", "2", "--prec", "4", "--json"),
        ("eigen", "--input", "2^20000*E2*E4", "--prec", "130"),
        ("decompose", "--expr", "2^20000*E2*E4", "--weight", "6", "--depth", "1"),
    ],
    ids=["hecke", "hecke-json", "eigen", "decompose"],
)
def test_coefficients_too_long_to_print_are_one_error_line(command):
    result = run_cli(*command)
    assert result.exit_code == 1
    (line,) = result.output.splitlines()
    assert line.startswith("Error: Exceeds the limit (4300 digits) for integer string conversion")


@pytest.mark.parametrize(
    "command, error",
    [
        (
            ("hecke", "--input", "E4", "--n", "1000000000000000000", "--prec", "8"),
            f"--n 1000000000000000000 exceeds the maximum {_MAX_PREC}",
        ),
        (
            ("eis", "--weight", "1000", "--prec", "1"),
            "Eisenstein series requires even 2 <= k <= 256, got 1000",
        ),
        (
            ("decompose", "--expr", "E4", "--weight", "200000000", "--depth", "0"),
            "expression has weight 4, not the requested 200000000",
        ),
        (
            ("decompose", "--expr", "E4", "--weight", "4", "--depth", "300000000"),
            "--depth 300000000 must satisfy 0 <= depth < weight/2",
        ),
        (
            ("decompose", "--expr", "E4^100", "--weight", "400", "--depth", "199"),
            "decomposition needs precision 3444, above the maximum 100",
        ),
        (
            ("bracket", "--g", "E4", "--h", "E6", "--m", "124"),
            "bracket weight 258 exceeds the cap 256",
        ),
        (
            ("hecke", "--input", "(E2+E4+E6)^200", "--n", "2", "--prec", "8"),
            "polynomial product may build 2109 terms, above the cap 2048",
        ),
    ],
    ids=[
        "hecke-n", "eis-weight", "decompose-weight", "decompose-depth", "decompose-prec",
        "bracket-weight", "poly-terms",
    ],
)
def test_oversized_input_is_one_error_line_at_once(command, error):
    start = time.perf_counter()
    result = run_cli(*command)
    assert time.perf_counter() - start < 1
    assert result.exit_code == 1
    assert result.output.splitlines() == [f"Error: {error}"]


def test_mixed_weight_error_is_short():
    result = run_cli("hecke", "--input", "(E2+E4+E6)^36", "--n", "2", "--prec", "8")
    assert result.exit_code == 1
    [line] = result.output.splitlines()
    assert line.startswith("Error: polynomial is not weight-homogeneous: E2^36 (weight 72)")
    assert len(line) < 300


def _python(*args: str) -> subprocess.CompletedProcess:
    """A new interpreter with the engine's source on its path."""
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=60,
    )


def test_import_loads_no_dataclasses():
    # The report records are NamedTuples and a plain class: the CLI's import
    # execs no generated dataclass code.
    proc = _python("-c", "import sys; import modforms.cli; print('dataclasses' in sys.modules)")
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def test_import_loads_only_the_standard_library():
    # The parser is the standard library's argparse: the engine has no
    # runtime dependency, so importing the CLI loads no third-party module.
    script = (
        "import sys; before = set(sys.modules); import modforms.cli; "
        "loaded = {name.split('.')[0] for name in set(sys.modules) - before}; "
        "print(sorted(loaded - set(sys.stdlib_module_names) - {'modforms'}))"
    )
    proc = _python("-c", script)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


class TestUsage:
    """A command line the parser refuses is one Error: line on stderr and
    exit 2; an input the engine refuses stays exit 1."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            ((), "the following arguments are required: COMMAND"),
            (("eigenform",), "argument COMMAND: invalid choice: 'eigenform'"),
            (("eis", "--weight", "4"), "the following arguments are required: --prec"),
            (("eis", "--weight", "4", "--prec", "6", "--depth", "1"),
             "unrecognized arguments: --depth 1"),
            (("eis", "--wei", "4", "--prec", "6"), "the following arguments are required: --weight"),
            (("eis", "--weight", "four", "--prec", "6"), "argument --weight: invalid int value: 'four'"),
            (("eis", "--weight", "4", "--prec", "six"), "argument --prec: invalid int value: 'six'"),
            (("eis", "--weight", "4", "--prec", "6", "7"), "unrecognized arguments: 7"),
            (("eis", "--weight"), "argument --weight: expected one argument"),
            (("verify", "--suite", "everything"), "argument --suite: invalid choice: 'everything'"),
        ],
        ids=[
            "no-command", "unknown-command", "missing-option", "unknown-option", "abbreviation",
            "bad-integer", "bad-prec", "extra-argument", "missing-value", "bad-choice",
        ],
    )
    def test_usage_error_is_one_error_line(self, argv, message):
        result = run_cli(*argv)
        assert result.exit_code == 2
        assert result.stdout == ""
        [line] = result.stderr.splitlines()
        assert line.startswith(f"Error: {message}")

    @pytest.mark.parametrize("argv", [(), ("eis",), ("verify",)], ids=["modforms", "eis", "verify"])
    def test_help_exits_zero(self, argv):
        result = run_cli(*argv, "--help")
        assert result.exit_code == 0
        assert result.stdout.startswith("usage: modforms") and result.stderr == ""

    def test_an_option_takes_the_next_token_whatever_it_is(self):
        # A polynomial may begin with a minus sign, so "-E4" after --input is
        # its value, not an option; the token after --weight is its value too.
        negated = run_cli("hecke", "--input", "-E4", "--n", "2", "--prec", "3")
        assert negated.exit_code == 0
        assert negated.stdout == run_cli("hecke", "--input=-E4", "--n", "2", "--prec", "3").stdout
        assert negated.stdout.startswith("[weight 4] -9 - 2160*q")
        result = run_cli("eis", "--weight", "--prec", "6")
        assert result.exit_code == 2
        assert result.stderr == "Error: argument --weight: invalid int value: '--prec'\n"

    def test_a_rebound_callback_is_called(self, monkeypatch):
        # Dispatch reads each command's callback at call time, with keyword
        # arguments; perfbench/tracer.py wraps them in spans that way.
        calls = []
        command = main.commands["eis"]
        monkeypatch.setattr(command, "callback", lambda **kwargs: calls.append(kwargs) or 3)
        assert run_cli("eis", "--weight", "4", "--prec", "6").exit_code == 3
        assert calls == [{"weight": 4, "prec": 6, "as_json": False}]

    def test_module_run_prints_the_in_process_bytes(self):
        argv = ("eis", "--weight", "4", "--prec", "6", "--json")
        proc = _python("-m", "modforms.cli", *argv)
        result = run_cli(*argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, result.stdout, "")

    def test_entry_point_with_no_arguments(self):
        # What the modforms console script runs: main() reads sys.argv[1:].
        proc = _python("-c", "import sys; from modforms.cli import main; sys.exit(main())")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "Error: the following arguments are required: COMMAND\n"


def test_caps_admit_their_bounds():
    # The shallow-precision warning is one Warning: line on stderr.
    result = run_cli("hecke", "--input", "E4", "--n", str(_MAX_PREC), "--prec", "8")
    assert result.exit_code == 0
    assert result.stderr.splitlines() == [
        f"Warning: T_{_MAX_PREC} on a series of precision 8 certifies only the constant term"
    ]
    assert result.stdout.startswith("[weight 4] ") and result.stdout.count("\n") == 1
    assert run_cli("eis", "--weight", "256", "--prec", "1").exit_code == 0
    assert run_cli("bracket", "--g", "E4", "--h", "E6", "--m", "123", "--prec", "16").exit_code == 0
