"""CLI tests driven through click's runner."""

from __future__ import annotations

import json

from click.testing import CliRunner

from modforms.cli import main


def invoke(*args):
    return CliRunner().invoke(main, list(args))


class TestEis:
    def test_text_output(self):
        result = invoke("eis", "--weight", "4", "--prec", "4")
        assert result.exit_code == 0
        assert "240*q" in result.output

    def test_json_output(self):
        result = invoke("eis", "--weight", "2", "--prec", "3", "--json")
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["weight"] == 2
        assert data["series"]["coeffs"] == ["1/1", "-24/1", "-72/1", "-96/1"]

    def test_odd_weight_fails(self):
        result = invoke("eis", "--weight", "3", "--prec", "4")
        assert result.exit_code != 0
        assert "even" in result.output


class TestDelta:
    def test_delta12(self):
        result = invoke("delta", "--weight", "12", "--prec", "5", "--json")
        data = json.loads(result.output)
        assert data["series"]["coeffs"][:4] == ["0/1", "1/1", "-24/1", "252/1"]

    def test_unsupported_weight(self):
        result = invoke("delta", "--weight", "14", "--prec", "5")
        assert result.exit_code != 0


class TestHecke:
    def test_catalog_input(self):
        result = invoke("hecke", "--input", "Delta12", "--n", "2", "--prec", "64", "--json")
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["series"]["prec"] == 32
        assert data["series"]["coeffs"][1] == "-24/1"

    def test_expression_input(self):
        result = invoke("hecke", "--input", "E4^2", "--n", "2", "--prec", "32", "--json")
        assert result.exit_code == 0
        assert json.loads(result.output)["weight"] == 8

    def test_unknown_name(self):
        result = invoke("hecke", "--input", "Delta13", "--n", "2")
        assert result.exit_code != 0
        assert "unknown form name" in result.output

    def test_catalog_input_bad_precision(self):
        result = invoke("hecke", "--input", "Delta12", "--n", "2", "--prec", "0")
        assert result.exit_code != 0
        assert result.output.splitlines() == [
            "Error: cusp form construction needs prec >= 1"
        ]

    def test_deep_nesting_is_one_error_line(self):
        text = "(" * 3000 + "E4" + ")" * 3000
        result = invoke("hecke", "--input", text, "--n", "2", "--prec", "8")
        assert result.exit_code != 0
        assert result.output.splitlines() == [
            "Error: generator polynomial nests parentheses deeper than 100"
        ]

    def test_large_generator_power(self):
        result = invoke("hecke", "--input", "E4^2000", "--n", "2", "--prec", "8", "--json")
        assert result.exception is None and result.exit_code == 0
        data = json.loads(result.output)
        assert data["weight"] == 8000
        assert data["series"]["prec"] == 4


class TestEigen:
    def test_eigenform(self):
        result = invoke("eigen", "--input", "Delta12", "--json")
        data = json.loads(result.output)
        assert data["is_eigen_up_to_bound"] is True
        assert data["eigenvalues"][1] == [2, "-24/1"]

    def test_non_eigenform_reports_violation(self):
        result = invoke("eigen", "--input", "E2*E4")
        assert result.exit_code == 0
        assert "not an eigenform" in result.output

    def test_inhomogeneous_input_rejected(self):
        result = invoke("eigen", "--input", "E2+E4")
        assert result.exit_code != 0
        assert "weight" in result.output

    def test_catalog_input_negative_precision(self):
        result = invoke("eigen", "--input", "E4", "--prec", "-5")
        assert result.exit_code != 0
        assert result.output.splitlines() == ["Error: prec must be >= 0"]

    def test_window_zero_rejected(self):
        result = invoke("eigen", "--input", "Delta12", "--window", "0")
        assert result.exit_code != 0
        assert result.output.splitlines() == ["Error: the test needs a window >= 1"]


class TestBracket:
    def test_e4_e6_order_one(self):
        result = invoke("bracket", "--g", "E4", "--h", "E6", "--m", "1",
                        "--prec", "8", "--json")
        data = json.loads(result.output)
        assert data["weight"] == 12
        assert data["series"]["coeffs"][1] == "-3456/1"

    def test_e2_rejected(self):
        for args in (("--g", "E2", "--h", "E4"), ("--g", "E4", "--h", "E2")):
            result = invoke("bracket", *args, "--m", "1", "--prec", "8")
            assert result.exit_code != 0
            assert len(result.output.splitlines()) == 1
            assert result.output.startswith("Error:")
            assert "quasimodular" in result.output


class TestDecompose:
    def test_e2_e4(self):
        result = invoke("decompose", "--expr", "E2*E4", "--weight", "6",
                        "--depth", "1", "--json")
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["decomposable"] is True
        assert data["components"][0]["coordinates"] == ["1/1"]
        assert data["components"][1]["coordinates"] == ["3/1"]

    def test_not_decomposable(self):
        result = invoke("decompose", "--expr", "(E2^2-E4)/12", "--weight", "4",
                        "--depth", "1")
        assert result.exit_code == 1
        assert "not decomposable" in result.output

    def test_weight_mismatch(self):
        result = invoke("decompose", "--expr", "E2*E4", "--weight", "8", "--depth", "1")
        assert result.exit_code != 0
        assert "weight 6" in result.output

    def test_depth_bound_guard(self):
        result = invoke("decompose", "--expr", "E2*E4", "--weight", "6", "--depth", "3")
        assert result.exit_code != 0


class TestVerify:
    def test_ghitza_suite_passes(self):
        result = invoke("verify", "--suite", "ghitza", "--json")
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["suite"] == "ghitza"
        assert data["failed"] == 0
        assert data["passed"] == 5

    def test_text_summary(self):
        result = invoke("verify", "--suite", "diophantine")
        assert result.exit_code == 0
        assert "[PASS]" in result.output
        assert "0 failed" in result.output

    def test_out_file(self, tmp_path):
        target = tmp_path / "report.json"
        result = invoke("verify", "--suite", "ghitza", "--out", str(target))
        assert result.exit_code == 0
        data = json.loads(target.read_text())
        assert data["passed"] == 5
        for check in data["checks"]:
            assert set(check) == {"id", "anchor", "pass", "witness"}

    def test_identity_precision_guard(self):
        result = invoke("verify", "--suite", "identities", "--prec", "32")
        assert result.exit_code != 0
