"""CLI tests, run in-process through tests/cli_run.py."""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from modforms.brackets import rankin_cohen
from cli_run import run_cli
from modforms.cli import _MAX_PREC, CLIError, _json_text, _series_text, main
from modforms.forms import catalog_form, cusp_delta, eisenstein, eval_generator_poly, monomial_exponents
from modforms.hecke import eigenform_test, hecke
from modforms.nearly import e2_star, quasimodular_decompose
from modforms.qseries import GradedSeries, QSeries
from modforms.verify import SUITE_NAMES, run_suite
from reference import json_form


class TestSeriesJson:
    """The --json text of a series is written directly, byte for byte what
    json.dumps(json_form(form), indent=2) gives."""

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
            lambda: eisenstein(2, 6),
            lambda: GradedSeries(QSeries([0, -3, Fraction(1, 2), 0, Fraction(-7, 6)]), 4),
            lambda: GradedSeries(QSeries([Fraction(-5, 3)], prec=0), 2),
            lambda: cusp_delta(12, 10),
            lambda: GradedSeries(QSeries([1, Fraction(-24, 7), 0]), 2),
            lambda: GradedSeries(QSeries([0, 1, -24]), 12),
        ],
        ids=[
            "E4", "E12", "D(E2)", "E6", "prec-0", "zero", "hecke-n-above-half",
            "negative-denominator-1", "signed-denominator-6", "prec-0-denominator-3", "Delta12",
            "denominator-7-with-zero", "leading-zero-weight-12",
        ],
    )
    def test_equals_the_json_encoder(self, form):
        form = form()
        assert _series_text(form, True) == json.dumps(json_form(form), indent=2)

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
        assert json.loads(result.output) == json_form(form(30))


# Report values: str-keyed dicts and lists of the leaves json.dumps writes,
# with strings that need escaping (quotes, backslashes, control and non-ASCII
# characters) drawn often.
_json_strings = st.one_of(
    st.text(),
    st.text(alphabet=st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é€\U0001f600ab')),
)
_json_values = st.recursive(
    st.one_of(_json_strings, st.integers(), st.integers(-(2**200), 2**200),
              st.floats(allow_nan=False, allow_infinity=False),
              st.booleans(), st.none()),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(_json_strings, inner, max_size=4)),
    max_leaves=20,
)


class TestReportJson:
    """The JSON reports of eigen, decompose and verify are written by
    _json_text, byte for byte what json.dumps(value, indent=2) gives."""

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(_json_values)
    def test_equals_the_json_encoder(self, value):
        assert _json_text(value) == json.dumps(value, indent=2)

    def test_empty_containers_and_tuples(self):
        value = {"a": [], "b": {}, "c": ({}, [[]], (1, "x")), "": None}
        assert _json_text(value) == json.dumps(value, indent=2)

    def test_a_value_json_cannot_write_is_refused(self):
        with pytest.raises(TypeError):
            _json_text({"coefficient": 1j})


# Every suite at every precision it takes from 0..5, 64, 128 and 256 (the
# identities from 128): the products and brackets below 120 fail, with
# witnesses.
_SUITE_RUNS = [
    (suite, prec)
    for suite in SUITE_NAMES
    for prec in (0, 1, 2, 3, 4, 5, 64, 128, 256)
    if not (prec < 128 and suite in ("identities", "all"))
]


class TestReportWriter:
    """_json_text writes a report value as it is, with no dict made first:
    byte for byte what json.dumps gives on its json_form, the oracle."""

    @pytest.mark.parametrize("suite, prec", _SUITE_RUNS, ids=[f"{s}-{p}" for s, p in _SUITE_RUNS])
    def test_suite_reports(self, suite, prec):
        report = run_suite(suite, prec)
        if suite in ("products", "brackets"):
            assert report.all_passed() == (prec >= 120)
        assert _json_text(report) == json.dumps(json_form(report), indent=2)

    @pytest.mark.parametrize(
        "form, violated, y_power",
        [
            (lambda: eisenstein(4, 128), False, None),
            (lambda: e2_star(128), False, None),
            (lambda: eval_generator_poly("E2*E4", 128), True, None),
            (lambda: e2_star(128) * eisenstein(4, 128), True, 1),
        ],
        ids=["E4", "E2star", "E2*E4", "E2star*E4"],
    )
    def test_eigen_reports(self, form, violated, y_power):
        report = eigenform_test(form())
        violation = report.first_violation
        assert (violation is not None, violation and violation.y_power) == (violated, y_power)
        assert _json_text(report) == json.dumps(json_form(report), indent=2)

    @pytest.mark.parametrize(
        "expr, weight, depth",
        [("(E2*E4 + E6)/7", 6, 1), ("E2^2*E4", 8, 2), ("E2*E4*E6", 12, 1)],
    )
    def test_decompose_payload(self, expr, weight, depth):
        # The payload built apart from the command: "num/den" coordinates
        # and each component's series in its dict form.
        parts = quasimodular_decompose(eval_generator_poly(expr, 32), depth)
        payload = {
            "weight": weight,
            "depth_bound": depth,
            "decomposable": True,
            "components": [
                {
                    "r": r,
                    "weight": part.weight,
                    "basis": [f"E4^{a}*E6^{b}" for a, b in monomial_exponents(part.weight)],
                    "coordinates": json_form(coords),
                    "series": json_form(part.series),
                }
                for r, part, coords in parts
            ],
        }
        result = run_cli("decompose", "--expr", expr, "--weight", str(weight), "--depth", str(depth), "--json")
        assert result.exit_code == 0
        assert result.stdout == json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize("suite, prec", [("ghitza", 128), ("products", 64), ("all", 128)])
    def test_out_file_is_stdout(self, tmp_path, suite, prec):
        target = tmp_path / "report.json"
        result = run_cli("verify", "--suite", suite, "--prec", str(prec), "--json", "--out", str(target))
        assert result.exit_code == (0 if prec >= 120 else 1)
        assert target.read_text(encoding="utf-8") == result.stdout
        assert json.loads(result.stdout)["suite"] == suite


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

    # A literal longer than int() reads by default is the parser's own
    # error, as a constant and as an exponent; one at the cap is read.
    @pytest.mark.parametrize("template", ["{}", "E4^{}"], ids=["constant", "exponent"])
    def test_integer_literal_above_the_digit_cap(self, template):
        result = run_cli("hecke", "--input", template.format("9" * 5000), "--n", "1", "--prec", "2")
        assert result.exit_code == 1
        assert result.output.splitlines() == [
            "Error: integer literal of 5000 digits exceeds the cap of 4300"
        ]
        result = run_cli("hecke", "--input", "9" * 4300, "--n", "1", "--prec", "2")
        assert result.exit_code == 0 and result.output.startswith("[weight 0] 999")


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

        monkeypatch.setattr("modforms.cli._json_text", refuse)
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

    # At prec 0 the scans read their cusp forms truncated from prec 1: a
    # report whose records fail, as at prec 1..5, not an error line.
    @pytest.mark.parametrize("suite", ["products", "brackets"])
    def test_scans_at_precision_zero_report_failures(self, suite):
        result = run_cli("verify", "--suite", suite, "--prec", "0")
        assert result.exit_code == 1
        assert re.fullmatch(rf"suite {suite}: \d+ passed, [1-9]\d* failed \(.*\)", result.output.splitlines()[-1])
        assert not [line for line in result.output.splitlines() if line.startswith("Error:")]

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
    assert line.startswith(
        "Error: the answer has a coefficient of more than 4300 digits, the cap on integers the engine prints"
    )


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
            f"--weight 200000000 exceeds the maximum {_MAX_PREC}",
        ),
        (
            ("decompose", "--expr", "E4", "--weight", "4", "--depth", "300000000"),
            f"--depth 300000000 exceeds the maximum {_MAX_PREC}",
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


# One command line per integer option, with the option's value last.
_INTEGER_OPTIONS = {
    "--n": ("hecke", "--input", "E4", "--prec", "2", "--n"),
    "--prec": ("eis", "--weight", "4", "--prec"),
    "--weight": ("eis", "--prec", "2", "--weight"),
    "--m": ("bracket", "--g", "E4", "--h", "E6", "--m"),
    "--depth": ("decompose", "--expr", "E4", "--weight", "4", "--depth"),
    "--bound": ("eigen", "--input", "E4", "--bound"),
    "--window": ("eigen", "--input", "E4", "--window"),
}


@pytest.mark.parametrize("flag", list(_INTEGER_OPTIONS))
def test_an_overlong_integer_option_is_one_short_error_line(flag):
    # A value int() refuses is one Error: line, which quotes a long value by
    # its first 40 characters and its length and a short one whole; the
    # command never runs. A malformed value is a usage error (exit 2); a
    # well-formed one with more digits than int() reads is an input error
    # (exit 1), as is every integer outside -4096..4096.
    argv = _INTEGER_OPTIONS[flag]
    long_values = [
        ("9" * 5000, 1, "{flag} {!r}... of 5000 digits exceeds the cap of 4300"),
        ("-" + "1_2" * 2200, 1, "{flag} {!r}... of 4400 digits exceeds the cap of 4300"),
        ("x" * 5000, 2, "argument {flag}: invalid int value: {!r}... (5000 characters)"),
        ("9" * 4299 + "x", 2, "argument {flag}: invalid int value: {!r}... (4300 characters)"),
    ]
    cases = [(value, code, message.format(value[:40], flag=flag)) for value, code, message in long_values]
    cases += [("four", 2, f"argument {flag}: invalid int value: 'four'"),
              ("x" * 40, 2, f"argument {flag}: invalid int value: '{'x' * 40}'")]
    for value, code, message in cases:
        result = run_cli(*argv, value)
        assert (result.exit_code, result.stdout) == (code, ""), value[:50]
        assert result.stderr == f"Error: {message}\n"
        assert len(result.stderr) <= 120


def test_an_integer_option_at_the_digit_cap_is_read():
    # 4300 digits is what int() reads: the value reaches the command, which
    # refuses it as an input (exit 1).
    result = run_cli(*_INTEGER_OPTIONS["--n"], "9" * 4300)
    assert result.exit_code == 1
    assert result.stderr.startswith("Error: --n 999") and result.stderr.endswith(" exceeds the maximum 4096\n")


@pytest.mark.parametrize("flag", list(_INTEGER_OPTIONS))
def test_an_integer_option_outside_the_bound_is_one_short_error_line(flag):
    # Every integer option is read through one reader: a value outside
    # -4096..4096 is an input error (exit 1) before the command runs, and a
    # value of more than 40 characters is quoted by its first 40 and its
    # digit count.
    nines = "9" * 4300
    cases = [
        (nines, f"{nines[:40]}... of 4300 digits exceeds the maximum {_MAX_PREC}"),
        ("-" + nines, f"-{nines[:39]}... of 4300 digits is below the minimum -{_MAX_PREC}"),
        (str(_MAX_PREC + 1), f"{_MAX_PREC + 1} exceeds the maximum {_MAX_PREC}"),
        (str(-_MAX_PREC - 1), f"{-_MAX_PREC - 1} is below the minimum -{_MAX_PREC}"),
    ]
    for value, message in cases:
        result = run_cli(*_INTEGER_OPTIONS[flag], value)
        assert (result.exit_code, result.stdout) == (1, ""), value[:50]
        assert result.stderr == f"Error: {flag} {message}\n"
        assert len(result.stderr) <= 120


# Each command with small valid values of its options.
_SMALL_COMMAND_LINES = {
    "eis": {"--weight": "4", "--prec": "6"},
    "delta": {"--weight": "12", "--prec": "6"},
    "hecke": {"--input": "E4", "--n": "2", "--prec": "6"},
    "eigen": {"--input": "E4", "--bound": "2", "--window": "2", "--prec": "12"},
    "bracket": {"--g": "E4", "--h": "E6", "--m": "1", "--prec": "6"},
    "decompose": {"--expr": "E4", "--weight": "4", "--depth": "0"},
    "verify": {"--suite": "ghitza", "--prec": "16"},
}
_OPTION_CHOICES = [
    (command, flag) for command, options in _SMALL_COMMAND_LINES.items() for flag in options
    if flag in _INTEGER_OPTIONS
]
_DIGIT_SCRIPTS = ("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669",
                  "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19")
_SIGNS = st.sampled_from(["", "+", "-", "--", "+-", " -", "- "])


def _in_script(script: str, number: int) -> str:
    return "".join(script[int(d)] for d in str(number))


# Integer option values by class: signs, underscores, non-ASCII digits,
# the +-4096 boundary (with leading zeros), and values of about 4300 digits,
# the most that int() reads, with and without underscores.
_INTEGER_TEXTS = st.one_of(
    st.tuples(_SIGNS, st.integers(0, 99).map(str)).map("".join),
    st.lists(st.sampled_from(["0", "1", "9", "_", "__"]), min_size=1, max_size=6).map("".join),
    st.builds(_in_script, st.sampled_from(_DIGIT_SCRIPTS), st.integers(0, 5000)),
    st.tuples(st.sampled_from(["", "+", "-"]), st.sampled_from(["", "0", "00"]),
              st.sampled_from([_MAX_PREC - 1, _MAX_PREC, _MAX_PREC + 1]).map(str)).map("".join),
    st.builds(lambda sign, digit, n, sep: sign + sep.join(digit * n), st.sampled_from(["", "-"]),
              st.sampled_from(["0", "1", "9"]), st.integers(4299, 4301), st.sampled_from(["", "_"])),
)


def _int_or_none(text: str):
    try:
        return int(text)
    except ValueError:
        return None


@given(st.sampled_from(_OPTION_CHOICES), _INTEGER_TEXTS)
@settings(derandomize=True, database=None, max_examples=300, deadline=None)
def test_every_integer_option_value_gets_a_result_or_one_short_error_line(choice, text):
    # One drawn integer option of one command takes the drawn value, every
    # other option a small valid one. verify stays at prec <= 64.
    command, flag = choice
    value = _int_or_none(text)
    assume(not (command == "verify" and value is not None and 64 < value <= _MAX_PREC))
    argv = [command]
    for option, default in _SMALL_COMMAND_LINES[command].items():
        argv += [option, text if option == flag else default]
    result = run_cli(*argv)
    assert "set_int_max_str_digits" not in result.output and "Traceback" not in result.output
    if result.exit_code == 0:
        assert result.stdout.strip() and "Error:" not in result.stderr
    else:
        assert result.exit_code in (1, 2) and result.stdout == ""
        errors = [line for line in result.stderr.splitlines() if not line.startswith("Warning: ")]
        assert len(errors) == 1 and errors[0].startswith("Error: ") and len(errors[0]) <= 120, errors


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


def _stable(text: str) -> str:
    """text with the run time of a verify report zeroed."""
    text = re.sub(r'"runtime_seconds": [0-9.e-]+', '"runtime_seconds": 0', text)
    return re.sub(r"\([0-9.]+s\)", "(0s)", text)


def _top_level_run(*argv: str) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of a line read whole by the top-level
    parser, main.parser, and run by the command's callback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            kwargs = vars(main.parser.parse_args(main._glued(argv)))
            code = main.commands[kwargs.pop("command")].callback(**kwargs)
        except CLIError as exc:
            print(f"Error: {exc}", file=sys.stderr)
            code = exc.exit_code
        except SystemExit as exc:
            code = exc.code
    return code or 0, _stable(out.getvalue()), err.getvalue()


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

    @pytest.mark.parametrize(
        "argv",
        [
            ("eis", "--weight", "4", "--prec", "6"),
            ("delta", "--weight", "16", "--prec", "6", "--json"),
            ("hecke", "--input", "E4*E6 - E2*E8", "--n", "3", "--prec", "12"),
            ("eigen", "--input", "Delta12", "--bound", "3", "--window", "4", "--prec", "12", "--json"),
            ("bracket", "--g", "E4", "--h", "E6", "--m", "1", "--prec", "8"),
            ("decompose", "--expr", "E2*E4 - E6", "--weight", "6", "--depth", "2", "--json"),
            ("verify", "--suite", "ghitza", "--prec", "64", "--json"),
            ("verify", "--suite", "ghitza", "--prec", "64"),
            ("--help",), ("eis", "--help"), ("hecke", "--n", "2", "--help"),
            (), ("eigenform", "--input", "E4"), ("--json", "eis"), ("--", "eis"), ("",),
            ("eis", "--weight", "4"), ("eis",), ("eis", "--weight"),
            ("eis", "--weight", "4", "--prec", "6", "--depth", "1"),
            ("eis", "--wei", "4", "--prec", "6"),
            ("eis", "--weight", "4", "--weight", "6", "--prec", "6"),
            ("eis", "--weight=4", "--prec=6", "--json"),
            ("hecke", "--input=-E4", "--n=2", "--prec", "6"),
            ("hecke", "--input", "-E4", "--n", "-2", "--prec", "6"),
            ("eis", "--weight", "-4", "--prec", "6"),
            ("eis", "--weight", "--prec", "6"),
            ("eis", "--weight", "4", "--prec", "6", "7"),
            ("eis", "--weight", "4", "--prec", "6", "--", "7"),
            ("verify", "--suite", "everything"),
            ("hecke", "--input", "Foo", "--n", "2"),
        ],
    )
    def test_dispatch_reads_a_line_as_the_top_level_parser_did(self, argv):
        # main.main hands a line that begins with a command name to that
        # command's subparser; the top-level parser reading the whole line
        # gives the same stdout, stderr and exit code.
        result = run_cli(*argv)
        assert (result.exit_code, _stable(result.stdout), result.stderr) == _top_level_run(*argv)

    @pytest.mark.parametrize(
        "argv",
        [("eis", "--weight", "12", "--prec", "3000", "--json"), ("verify", "--suite", "products", "--prec", "64")],
        ids=["eis", "verify"],
    )
    def test_a_closed_stdout_is_exit_1_without_a_traceback(self, argv):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        err = io.StringIO()
        with contextlib.redirect_stdout(ClosedPipe()), contextlib.redirect_stderr(err):
            with pytest.raises(SystemExit) as exit_:
                main.main(args=list(argv), prog_name="modforms")
        assert (exit_.value.code, err.getvalue()) == (1, "")

    def test_a_reader_that_exits_early_leaves_no_traceback(self):
        # As `modforms eis ... | head -c 10` does: the reader closes the pipe
        # after 10 bytes, and the text (over 200 kB) cannot all be written.
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.Popen(
            [sys.executable, "-m", "modforms.cli", "eis", "--weight", "12", "--prec", "4096", "--json"],
            env=dict(os.environ, PYTHONPATH=str(src)), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        head = proc.stdout.read(10)
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), head, stderr) == (1, b'{\n  "weigh', b"")

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
