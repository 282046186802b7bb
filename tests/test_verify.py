"""Tests for the verification suites and report machinery."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from modforms.verify import (
    EXPECTED_EIGEN_PRODUCTS,
    bracket_search,
    diophantine_check,
    ghitza_check,
    jsonable,
    product_search,
    run_suite,
    verify_diophantine_suite,
    verify_identity_suite,
)


class TestIdentitySuite:
    def test_all_checks_pass(self):
        report = verify_identity_suite(128)
        assert report.all_passed()
        assert report.failed == 0
        assert len(report.checks) == 41

    def test_requires_full_precision(self):
        with pytest.raises(ValueError):
            verify_identity_suite(64)

    def test_reports_are_deterministic(self):
        first = verify_identity_suite(128).to_json_dict()
        second = verify_identity_suite(128).to_json_dict()
        first.pop("runtime_seconds")
        second.pop("runtime_seconds")
        assert json.dumps(first) == json.dumps(second)

    def test_every_record_carries_anchor(self):
        report = verify_identity_suite(128)
        for check in report.checks:
            assert check.anchor


@pytest.fixture(scope="module")
def products():
    return product_search()


@pytest.fixture(scope="module")
def brackets():
    return bracket_search()


class TestProductSearch:
    def test_scan_finds_exact_set(self, products):
        hits, report = products
        assert {hit.key for hit in hits} == set(EXPECTED_EIGEN_PRODUCTS)
        assert report.all_passed()

    def test_hit_serialization(self, products):
        hits, _ = products
        data = jsonable(hits)
        keys = {(d["left"], d["left_deriv"], d["right"], d["right_deriv"]) for d in data}
        assert keys == set(EXPECTED_EIGEN_PRODUCTS)
        assert all(isinstance(lam, str) for d in data for _, lam in d["eigenvalues"])


class TestBracketSearch:
    def test_scan(self, brackets):
        hits, report = brackets
        keys = {hit.key for hit in hits}
        assert ("E4", "E6", 1) in keys
        assert ("E4", "E4", 1) not in keys  # zero by antisymmetry
        assert report.all_passed()

    def test_hits_classified(self, brackets):
        hits, _ = brackets
        for hit in hits:
            assert hit.classification in ("eisenstein-line", "cusp")
            assert hit.coordinates


class TestDiophantine:
    def test_eq3_empty_and_sample_point(self):
        assert diophantine_check("eq3") == []
        # spot value at (k=4, s=1): LHS 114, RHS -12
        lhs = 3 * (1 + 27) + 2 + 28
        rhs = 2 ** (4 + 1 - 4) * (2 - 8)
        assert (lhs, rhs) == (114, -12)

    def test_eq4_empty(self):
        assert diophantine_check("eq4") == []

    def test_eq7_empty_and_exact_rational_at_small_r(self):
        assert diophantine_check("eq7") == []
        value = Fraction(2) ** (2 * 1 - 3) + 4 * 3 + 21 * 2 - 212
        assert value == Fraction(-315, 2)

    def test_quadratic_no_admissible(self):
        records = diophantine_check("quadratic")
        assert [r for r in records if r["admissible"]] == []

    def test_unknown_equation(self):
        with pytest.raises(ValueError):
            diophantine_check("eq99")

    def test_suite_passes(self):
        report = verify_diophantine_suite()
        assert report.all_passed()
        assert len(report.checks) == 4


class TestGhitza:
    def test_all_pairs_separated_by_n_at_most_4(self):
        report = ghitza_check()
        assert report.all_passed()
        assert len(report.checks) == 5
        witnesses = {c.check_id: c.witness for c in report.checks}
        assert witnesses["ghitza.Delta16"]["n"] == 2
        assert witnesses["ghitza.Delta16"]["Delta16"] == 216
        assert witnesses["ghitza.Delta16"]["Delta12"] == -24


class TestSuiteDispatch:
    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("nonsense")

    def test_all_merges_every_suite(self):
        report = run_suite("all", 128)
        assert report.suite == "all"
        assert report.all_passed()
        prefixes = {check.check_id.split(".")[0] for check in report.checks}
        assert prefixes == {"identities", "products", "brackets", "diophantine", "ghitza"}

    def test_json_schema(self):
        report = run_suite("ghitza")
        data = report.to_json_dict()
        assert set(data) == {"suite", "checks", "passed", "failed", "runtime_seconds"}
        for check in data["checks"]:
            assert set(check) == {"id", "anchor", "pass", "witness"}
        json.dumps(data)  # must be serializable as-is


class TestJsonable:
    def test_rationals_become_strings(self):
        assert jsonable(Fraction(-24)) == "-24/1"
        assert jsonable({"x": (Fraction(1, 3), 2)}) == {"x": ["1/3", 2]}

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            jsonable(0.5)

    def test_expected_products_cover_both_lists(self):
        assert len(EXPECTED_EIGEN_PRODUCTS) == 18
        derivative_keys = [k for k in EXPECTED_EIGEN_PRODUCTS if k[1] or k[3]]
        assert derivative_keys == [("E4", 0, "E4", 1)]
