"""Tests for the verification suites and report machinery."""

from __future__ import annotations

import gc
import importlib
import json
from collections import Counter
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st

from modforms import brackets as brackets_module, qseries, verify
from modforms.exactmath import sigma
from modforms.forms import DELTA_WEIGHTS, catalog_form, cusp_delta, eisenstein
from modforms.hecke import EigenReport, Violation, eigenform_test
from modforms.qseries import GradedSeries, PrecisionError, QSeries
from modforms.verify import (
    _FULL_TEST_PREC,
    _SIEVE_PREC,
    EXPECTED_EIGEN_PRODUCTS,
    SUITE_NAMES,
    BracketHit,
    CheckRecord,
    ProductHit,
    VerificationReport,
    _bracket_candidates,
    _eigen_scan,
    _product_candidates,
    _product_label,
    _sieve_passes,
    bracket_search,
    diophantine_check,
    ghitza_check,
    product_search,
    run_suite,
    verify_diophantine_suite,
    verify_identity_suite,
)
from reference import json_form


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
        first = json_form(verify_identity_suite(128))
        second = json_form(verify_identity_suite(128))
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
        # A hit serializes to the witness its report check carries.
        hits, report = products
        data = {d["product"]: d for d in json_form(hits)}
        witnesses = {
            c.check_id.removeprefix("products.hit."): json_form(c.witness)
            for c in report.checks
            if c.check_id.startswith("products.hit.")
        }
        assert data == witnesses
        assert set(data) == {_product_label(*key) for key in EXPECTED_EIGEN_PRODUCTS}
        assert all(isinstance(lam, str) for d in data.values() for _, lam in d["eigenvalues"])


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


class TestPrefixSieve:
    @pytest.mark.parametrize(
        "candidates, off_line",
        [(_product_candidates, 2), (_bracket_candidates, 0)],
        ids=["products", "brackets"],
    )
    def test_sieve_agrees_with_the_full_test(self, candidates, off_line):
        # Every candidate at prec 128: a zero prefix means a zero form, a
        # sieve miss is a full-test miss with the same first violation,
        # and exactly the sieve passes off a line (D(E4)*E4 and E2*Delta12,
        # which are not modular) are built at full precision, in order,
        # each with the report of its own full test.
        prec = 128
        full_builds = []
        for key, label, prefix, build, modular in candidates(prec):
            form = build(prec)
            assert prefix.is_zero() == form.is_zero(), label
            if form.is_zero():
                continue
            sieved = eigenform_test(prefix, 2, _SIEVE_PREC // 2)
            if not sieved.is_eigen_up_to_bound:
                full = eigenform_test(form)
                assert not full.is_eigen_up_to_bound, label
                assert full.first_violation == sieved.first_violation, label
            elif not (modular and form == _line_multiple(form)):
                full_builds.append(key)
        assert len(full_builds) == off_line

        built = []

        def watched():
            for key, label, head, build, modular in candidates(prec):
                def logged(p, key=key, build=build):
                    if p == prec:
                        built.append(key)
                    return build(p)

                yield key, label, head, logged, modular

        skipped = {}
        for key, form, report, _ in _eigen_scan(watched(), prec, skipped, {}):
            if form is not None and form.prec == prec:
                assert report == eigenform_test(form), key
        assert built == full_builds
        assert not skipped

    @pytest.mark.parametrize(
        "candidates, count",
        [(_product_candidates, 18), (_bracket_candidates, 64)],
        ids=["products", "brackets"],
    )
    def test_five_coefficients_pass_what_seventeen_passed(self, candidates, count):
        # T_2 on exponents 0..2 (a_0..a_4) passes the same candidates as
        # on exponents 0..8 (a_0..a_16): five coefficients lose nothing.
        assert _SIEVE_PREC == 4
        passes = []
        for key, label, short, build, _ in candidates(128):
            long = build(16)
            assert short.is_zero() == long.is_zero(), label
            if long.is_zero():
                continue
            passed = eigenform_test(short, 2, _SIEVE_PREC // 2).is_eigen_up_to_bound
            assert passed == eigenform_test(long, 2, 8).is_eigen_up_to_bound, label
            if passed:
                passes.append(key)
        assert len(passes) == count

    @pytest.mark.parametrize(
        "search, count",
        [(product_search, 300), (bracket_search, 92)],
        ids=["products", "brackets"],
    )
    def test_low_precision_records_every_candidate(self, search, count, monkeypatch):
        # Each line is the full test's PrecisionError, recorded unbuilt.
        def unbuilt(*args):
            raise AssertionError("a candidate was built below _FULL_TEST_PREC")

        monkeypatch.setattr(verify, "_truncated_product", unbuilt)
        monkeypatch.setattr(verify, "_truncated_bracket", unbuilt)
        _, report = search(64)
        (check,) = [c for c in report.checks if c.check_id.endswith(".scan_complete")]
        assert not check.passed
        assert len(check.witness) == count
        assert all(line.endswith("needs precision >= 120, have 64") for line in check.witness)

    @pytest.mark.parametrize("suite", ["products", "brackets"])
    def test_every_failed_record_at_low_precision_has_a_witness(self, suite):
        # A missed product hit carries the line the scan skipped it with.
        report = json_form(run_suite(suite, 64))
        failed = [c for c in report["checks"] if not c["pass"]]
        assert failed and all(c["witness"] is not None for c in failed)
        skipped = [c["witness"] for c in failed if c["id"].endswith(".scan_complete")]
        for check in failed:
            if ".hit." in check["id"]:
                label = check["id"].split(".hit.", 1)[1]
                assert check["witness"].startswith(f"{label}: ") and check["witness"] in skipped[0]

    def test_a_missed_hit_the_scan_did_not_skip_has_its_key_as_witness(self, monkeypatch):
        monkeypatch.setattr(verify, "_eigen_scan", lambda *scan_args: iter(()))
        _, report = product_search(_FULL_TEST_PREC)
        hits = [c for c in json_form(report)["checks"] if ".hit." in c["id"]]
        assert not any(c["pass"] for c in hits)
        assert [c["witness"] for c in hits] == [list(key) for key in EXPECTED_EIGEN_PRODUCTS]

    def test_full_test_precision_is_the_default_need(self):
        form = catalog_form("E4", _FULL_TEST_PREC)
        assert eigenform_test(form).is_eigen_up_to_bound
        with pytest.raises(PrecisionError):
            eigenform_test(form.truncate(_FULL_TEST_PREC - 1))


_signed = st.one_of(st.integers(-50, 50), st.integers(-(2**80), 2**80))


@st.composite
def _prefixes(draw):
    """Nonzero prefixes a_0..a_4 of even weight 2..60: up to four leading
    zeros, signed numerators over a denominator up to 10^6, and, when
    asked, a_2 and a_4 set so that T_2 holds on exponents 0..2."""
    k = draw(st.integers(1, 30)) * 2
    zeros = draw(st.integers(0, 4))
    nums = [0] * zeros + draw(st.lists(_signed, min_size=5 - zeros, max_size=5 - zeros))
    nums[zeros] = nums[zeros] or 1
    if draw(st.booleans()):
        # b_0 = (1 + 2^(k-1)) a_0, b_1 = a_2, b_2 = a_4 + 2^(k-1) a_1.
        a0, a1 = nums[0], nums[1]
        if a0:
            lam = 1 + 2 ** (k - 1)
            nums[2] = lam * a1
            nums[4] = lam * nums[2] - 2 ** (k - 1) * a1
        elif a1:
            nums[2] = a1 * draw(_signed)
            nums[4] = nums[2] ** 2 // a1 - 2 ** (k - 1) * a1
    return GradedSeries(QSeries.from_numerators(nums, draw(st.integers(1, 10**6))), k)


class TestSieveVerdicts:
    """The sieve reads T_2 on exponents 0..2 off a prefix's numerators;
    eigenform_test(prefix, 2, 2) is its oracle."""

    @pytest.mark.parametrize("prec", [120, 128, 256])
    @pytest.mark.parametrize("candidates", [_product_candidates, _bracket_candidates])
    def test_every_scan_candidate(self, candidates, prec):
        verdicts = []
        for key, label, prefix, build, _ in candidates(prec):
            # The prefix from the operands' heads is the prefix of the
            # candidate built from the full operands.
            assert prefix == build(16).truncate(_SIEVE_PREC), label
            if prefix.is_zero():
                continue
            passed = _sieve_passes(prefix)
            assert passed == eigenform_test(prefix, 2, _SIEVE_PREC // 2).is_eigen_up_to_bound
            verdicts.append(passed)
        assert 0 < sum(verdicts) < len(verdicts)

    @given(_prefixes())
    @settings(max_examples=300, deadline=None)
    @example(GradedSeries(QSeries.from_numerators([0, 0, 0, 0, -7], 3), 60))
    @example(GradedSeries(QSeries.from_numerators([0, 0, 5, 1, 0], 999983), 2))
    @example(eisenstein(58, _SIEVE_PREC))
    @example(cusp_delta(26, _SIEVE_PREC) * Fraction(-11, 10**6))
    def test_prefixes(self, prefix):
        expected = eigenform_test(prefix, 2, _SIEVE_PREC // 2).is_eigen_up_to_bound
        assert _sieve_passes(prefix) == expected

    def test_the_sieve_and_the_full_test_share_one_comparison(self, monkeypatch):
        # Both reach their T_2 verdicts through hecke._first_miss: the
        # sieve on 3 exponents, the full test on floor(prec/2) + 1.
        hecke = importlib.import_module("modforms.hecke")
        counts = []
        original = hecke._first_miss

        def spy(nums, k, n, count, first):
            if n == 2:
                counts.append(count)
            return original(nums, k, n, count, first)

        monkeypatch.setattr(hecke, "_first_miss", spy)
        monkeypatch.setattr(verify, "_first_miss", spy)
        _, report = product_search(128)
        assert report.all_passed()
        assert set(counts) == {_SIEVE_PREC // 2 + 1, 128 // 2 + 1}


def _line_multiple(form):
    """c*L for the Eisenstein or one-dimensional cusp line L of form's
    weight that form would be on (c from a_0 or a_1), or None off both."""
    k, prec = form.weight, form.prec
    if form[0] != 0:
        return eisenstein(k, prec) * form[0]
    return cusp_delta(k, prec) * form[1] if k in DELTA_WEIGHTS else None


class TestSturmConditions:
    # A candidate is decided from its prefix only where Sturm's bound
    # applies: it is modular, and its weight k has k // 12 <= _SIEVE_PREC.
    PREC = 128

    def scan(self, build, modular):
        built = []

        def logged(p):
            if p == self.PREC:
                built.append(p)
            return build(p)

        skipped = {}
        candidate = ("x", "x", build(_SIEVE_PREC), logged, modular)
        (yielded,) = _eigen_scan([candidate], self.PREC, skipped, {})
        assert not skipped
        return bool(built), yielded

    def test_a_candidate_not_known_modular_is_built_in_full(self):
        # E4 + q^5 has E4's prefix, so it passes the sieve, but it is not
        # c*E4 and not an eigenform: taking E4's report would be wrong.
        def build(p):
            return eisenstein(4, p) + GradedSeries(QSeries([0] * 5 + [1], p), 4)

        assert build(_SIEVE_PREC) == eisenstein(4, _SIEVE_PREC)
        built, (_, form, report, scale) = self.scan(build, modular=False)
        assert built and form == build(self.PREC) and scale is None
        assert report == eigenform_test(form)
        assert not report.is_eigen_up_to_bound
        assert report.first_violation.exponent <= 5

    @pytest.mark.parametrize("k, decided", [(58, True), (60, False)])
    def test_weights_beyond_the_prefix_are_built_in_full(self, k, decided):
        # E_k is c*E_k with c = 1; from weight 60 on, a_0..a_4 no longer
        # certify that, so the candidate is built and tested itself.
        assert (k // 12 <= _SIEVE_PREC) == decided
        built, (_, form, report, scale) = self.scan(partial(eisenstein, k), modular=True)
        assert built != decided
        assert form.prec == (_SIEVE_PREC if decided else self.PREC)
        assert scale == (1 if decided else None)
        assert report == eigenform_test(eisenstein(k, self.PREC))
        assert report.is_eigen_up_to_bound


def _full_products(monkeypatch, run, prec):
    """The products of two non-constant series at precision prec that run()
    makes, as unordered pairs of operand numerators: one per term of each
    call of the product kernel, so a bracket's products count one by one.
    run() first runs once unwatched, so that the catalog, basis and
    Eisenstein caches are filled."""
    run()
    kernel = qseries._product_sum
    products = []

    def spy(terms):
        for _, a, b in terms:
            if len(a) == prec + 1 and any(a[1:]) and any(b[1:]):
                products.append(frozenset([tuple(a), tuple(b)]))
        return kernel(terms)

    for module in (qseries, brackets_module):
        monkeypatch.setattr(module, "_product_sum", spy)
    run()
    return products


class TestSharedProducts:
    def test_bracket_suite(self, monkeypatch):
        # The scan decides every hit from its prefix, so only the closing
        # [E4,E6]_1 check builds full products, in one kernel call:
        # E4*D(E6) and D(E4)*E6.
        products = _full_products(monkeypatch, lambda: bracket_search(256), 256)
        assert len(products) == 2
        assert len(set(products)) == 2

    def test_identity_suite(self, monkeypatch):
        # E2*f is read off E2star*f, and E4*E4 is kept from the product
        # identities; building each on its own makes 41, 12 of them repeats.
        products = _full_products(monkeypatch, lambda: verify_identity_suite(128), 128)
        assert len(products) == 29
        assert len(set(products)) == 29

    def test_all_suites(self, monkeypatch):
        # The identity suite's 29 products, D(E4)*E4 and E2*Delta12 from the
        # product scan, and E4*D(E6) and D(E4)*E6 from the bracket suite:
        # the scans build no modular candidate in full, and the suites share
        # no series, so D(E4)*E4 and E2*Delta12 are each built twice.
        # The identity suite runs 8 full eigen tests, the product scan 2 of
        # its own and 8 of lines, and the bracket scan 1 of a line, Delta12:
        # its other 8 lines' reports are the product scan's.
        tested = []

        def spy(form, *args):
            tested.append(form.prec == 256)
            return eigenform_test(form, *args)

        monkeypatch.setattr(verify, "eigenform_test", spy)

        def run():
            tested.clear()
            run_suite("all", 256)

        products = _full_products(monkeypatch, run, 256)
        assert len(products) == 33
        assert len(set(products)) == 31
        assert sum(tested) == 19


class TestPrefixCalls:
    def test_prefixes_are_made_by_series_products_and_brackets(self, monkeypatch):
        # The scans make each candidate's prefix with the engine's own
        # series product and rankin_cohen, the calls the benchmark's tracer
        # counts: 300 products at _SIEVE_PREC in the product scan and 103
        # brackets in the bracket scan, beside the full builds of D(E4)*E4,
        # E2*Delta12 and the closing [E4,E6]_1. The sieve's
        # hecke._first_miss calls are not among them.
        for search in (product_search, bracket_search):
            search(256)
        calls = []
        mul, bracket = QSeries.__mul__, brackets_module.rankin_cohen

        def mul_spy(self, other):
            product = mul(self, other)
            if isinstance(other, QSeries):  # a scaling is not a product
                calls.append(("mul", product.prec))
            return product

        def bracket_spy(g, h, m):
            result = bracket(g, h, m)
            calls.append(("rankin_cohen", result.prec))
            return result

        monkeypatch.setattr(QSeries, "__mul__", mul_spy)
        for module in (brackets_module, verify):
            monkeypatch.setattr(module, "rankin_cohen", bracket_spy)
        counts = {}
        for search in (product_search, bracket_search):
            calls.clear()
            search(256)
            counts[search.__name__] = Counter(calls)
        assert counts == {
            "product_search": {("mul", _SIEVE_PREC): 300, ("mul", 256): 2},
            "bracket_search": {("rankin_cohen", _SIEVE_PREC): 103, ("rankin_cohen", 256): 1},
        }


def _records(report):
    return json_form(report)["checks"]


class TestLineVerdicts:
    @pytest.mark.parametrize("prec", [128, 256])
    def test_reports_are_the_forms_own(self, prec, monkeypatch):
        # Every candidate the product and bracket scans decide from its
        # prefix, built in full, is c*L for the line L of its weight, and its
        # own test gives the report the scan yielded. Every other form the
        # scans yield is built in full and carries its own test's report.
        scan = verify._eigen_scan
        decided, forms = [], []

        def checked(candidates, p, skipped, line_reports):
            builds = {}

            def kept():
                for key, label, head, build, modular in candidates:
                    builds[key] = build
                    yield key, label, head, build, modular

            for key, form, report, scale in scan(kept(), p, skipped, line_reports):
                if form is not None:
                    full = builds[key](p)
                    if form.prec < p:
                        assert form.prec == _SIEVE_PREC and full == _line_multiple(full), key
                        assert full[0] == scale if full[0] else full[1] == scale, key
                        decided.append(key)
                    assert form == full.truncate(form.prec), key
                    assert report == eigenform_test(full), key
                    forms.append(key)
                yield key, form, report, scale

        monkeypatch.setattr(verify, "_eigen_scan", checked)
        assert run_suite("all", prec).all_passed()
        # 18 product and 64 bracket forms; all but D(E4)*E4 and E2*Delta12
        # are decided from their prefix.
        assert (len(decided), len(forms)) == (80, 82)

    def test_a_failing_line_sends_its_forms_to_their_own_test(self, monkeypatch):
        # While Delta16's own test passes, no form on its line is tested
        # itself. Once it fails, those forms are built in full and tested,
        # and the report is the same.
        prec = 128
        expected = _records(run_suite("all", prec))
        line_of, lines, own, failing = verify._line, [], [], []

        def line_spy(weight, a0, p):
            kind, line = line_of(weight, a0, p)
            if (kind, weight) == ("cusp", 16):
                lines.append(line)
            return kind, line

        def test_spy(form, *args):
            report = eigenform_test(form, *args)
            if any(form is line for line in lines):
                return report._replace(is_eigen_up_to_bound=not failing)
            if form.prec == prec and form.weight == 16 and form[0] == 0:
                own.append(form)
            return report

        monkeypatch.setattr(verify, "_line", line_spy)
        monkeypatch.setattr(verify, "eigenform_test", test_spy)
        run_suite("all", prec)
        assert lines and not own
        failing.append(True)
        assert _records(run_suite("all", prec)) == expected
        # E4*Delta12, and the seven brackets on the line: [E4,Delta12]_0 and
        # six with m >= 1.
        assert len(own) == 8


    def test_one_run_tests_each_line_once(self, monkeypatch):
        # One run_suite("all") hands the product and bracket scans one table
        # of line reports: each line the scans reach is tested once, eight by
        # the product scan and Delta12, which only [g,h]_m with m >= 1 reach,
        # by the bracket scan.
        line_of, lines, tested = verify._line, [], []

        def line_spy(weight, a0, p):
            kind, line = line_of(weight, a0, p)
            lines.append(line)
            return kind, line

        def test_spy(form, *args):
            if any(form is line for line in lines):
                tested.append(("eisenstein" if form[0] else "cusp", form.weight))
            return eigenform_test(form, *args)

        monkeypatch.setattr(verify, "_line", line_spy)
        monkeypatch.setattr(verify, "eigenform_test", test_spy)
        assert run_suite("all", 256).all_passed()
        assert sorted(tested) == sorted(
            [("eisenstein", k) for k in (8, 10, 14)] + [("cusp", k) for k in (12, 16, 18, 20, 22, 26)]
        )
        # Run alone, each scan makes its own table.
        for search, count in ((product_search, 8), (bracket_search, 9)):
            tested.clear()
            search(256)
            assert len(tested) == len(set(tested)) == count


class TestRunTable:
    # run_suite("all") runs the five suites in turn and shares no series
    # between them: it reports what the suites report alone, and leaves
    # them and the live series as they were.
    @pytest.mark.parametrize("prec", [128, 256])
    def test_all_reports_the_suites_alone(self, prec):
        alone = [_records(run_suite(name, prec)) for name in SUITE_NAMES[:-1]]
        merged = _records(run_suite("all", prec))
        assert merged == [record for records in alone for record in records]
        assert [_records(run_suite(name, prec)) for name in SUITE_NAMES[:-1]] == alone

    def test_no_series_outlives_the_call(self):
        def live_series():
            gc.collect()
            return sum(isinstance(obj, QSeries) for obj in gc.get_objects())

        # At a precision no other test runs "all" at, so that series kept
        # from an earlier call could not hide ones kept from this call.
        prec = 136
        for name in SUITE_NAMES[:-1]:  # fills the form stores
            run_suite(name, prec)
        before = live_series()
        run_suite("all", prec)
        assert live_series() == before


class TestTruncation:
    def test_reports_are_those_of_copying_truncations(self, monkeypatch):
        # A truncation to a series' own precision returns the series itself;
        # the reports are the ones a fresh copy at every truncation gives.
        expected = [_records(run_suite("all", 128)), _records(run_suite("identities", 768))]
        copies = []

        def copying(self, prec):
            if prec > self.prec:
                raise PrecisionError(f"cannot extend precision {self.prec} to {prec}")
            copies.append(prec == self.prec)
            series = QSeries.from_numerators(self.numerators[: prec + 1], self.denominator)
            return GradedSeries(series, self.weight) if isinstance(self, GradedSeries) else series

        monkeypatch.setattr(QSeries, "truncate", copying)
        monkeypatch.setattr(GradedSeries, "truncate", copying)
        assert [_records(run_suite("all", 128)), _records(run_suite("identities", 768))] == expected
        assert any(copies)


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

    def test_stepped_scans_match_their_closed_forms(self):
        # Each power is stepped by one multiplication; the closed forms take
        # pow, and eq7 its rational left side, doubled.
        ks, ss = range(4, 41, 2), range(1, 41)
        eq3 = [
            ((k, s), pow(3, s) * (1 + pow(3, k - 1)) + pow(2, s) + 28 - pow(2, k + s - 4) * (pow(2, s) - 8))
            for k in ks
            for s in ss
        ]
        eq4 = [
            (
                (k, s),
                pow(5, s) * sigma(k - 1, 5)
                + pow(3, s + 1) * sigma(k - 1, 3)
                + pow(2, 2 * s + 1) * sigma(k - 1, 2) ** 2
                + 7 * pow(2, s + 2) * sigma(k - 1, 2)
                - 3 * pow(2, k + 2 * s - 1)
                + 78,
            )
            for k in ks
            for s in ss
        ]
        eq7 = [
            ((r,), 2 * (Fraction(2) ** (2 * r - 3) + 4 * pow(3, r) + 21 * pow(2, r) - 212))
            for r in range(1, 65)
        ]
        for values, closed in ((verify._eq3_values, eq3), (verify._eq4_values, eq4), (verify._eq7_values, eq7)):
            stepped = list(values())
            assert stepped == closed
            assert all(type(value) is int for _, value in stepped)

    def test_suite_passes(self):
        report = verify_diophantine_suite()
        assert report.all_passed()
        assert len(report.checks) == 4

    @pytest.mark.parametrize("planted", ["eq3", "eq4", "eq7"])
    def test_a_found_solution_fails_its_check_with_that_witness(self, monkeypatch, planted):
        # A solution planted in one scan, and an admissible record in the
        # quadratic one, each fail their check with exactly what was found.
        anchor, _ = verify._EQUATIONS[planted]
        monkeypatch.setitem(verify._EQUATIONS, planted, (anchor, lambda: [(4, 1)]))
        admissible = {
            "k": 4, "r": 1, "perfect_square": True, "roots": [Fraction(-240), Fraction(7)],
            "target": Fraction(-240), "admissible": True,
        }
        other = dict(admissible, k=6, target=Fraction(504), admissible=False)
        records = [other, admissible]
        anchor, _ = verify._EQUATIONS["quadratic"]
        monkeypatch.setitem(verify._EQUATIONS, "quadratic", (anchor, lambda: records))
        assert diophantine_check(planted) == [(4, 1)]
        report = verify_diophantine_suite()
        assert [c.check_id for c in report.checks] == [f"diophantine.{e}" for e in verify.EQUATION_IDS]
        checks = {c.check_id.removeprefix("diophantine."): c for c in report.checks}
        assert (checks[planted].passed, checks[planted].witness) == (False, [(4, 1)])
        quadratic = checks["quadratic"]
        assert not quadratic.passed
        assert quadratic.witness == {"perfect_squares": records, "admissible": [admissible]}
        assert [e for e, c in checks.items() if c.passed] == [
            e for e in ("eq3", "eq4", "eq7") if e != planted
        ]
        json_checks = {c["id"]: c for c in json_form(report)["checks"]}
        assert json_checks[f"diophantine.{planted}"]["witness"] == [[4, 1]]


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
        data = json_form(report)
        assert set(data) == {"suite", "checks", "passed", "failed", "runtime_seconds"}
        for check in data["checks"]:
            assert set(check) == {"id", "anchor", "pass", "witness"}
        json.dumps(data)  # must be serializable as-is


class TestJsonable:
    def test_expected_products_cover_both_lists(self):
        assert len(EXPECTED_EIGEN_PRODUCTS) == 18
        derivative_keys = [k for k in EXPECTED_EIGEN_PRODUCTS if k[1] or k[3]]
        assert derivative_keys == [("E4", 0, "E4", 1)]


class TestRecords:
    """The report records are NamedTuples with the fields, order, defaults
    and repr the dataclasses they replaced had; the report is a plain class
    with the same repr."""

    def test_fields_and_defaults(self):
        assert Violation._fields == ("n", "exponent", "expected", "actual", "y_power")
        assert Violation._field_defaults == {"y_power": None}
        assert EigenReport._fields == (
            "is_eigen_up_to_bound", "tested_bound", "eigenvalues", "first_violation",
            "precision_used", "min_comparison_prec",
        )
        assert CheckRecord._fields == ("check_id", "anchor", "passed", "witness")
        assert CheckRecord._field_defaults == {"witness": None}
        assert ProductHit._fields == (
            "left", "left_deriv", "right", "right_deriv", "weight", "eigenvalues",
        )
        assert BracketHit._fields == (
            "g", "h", "m", "weight", "eigenvalues", "classification", "coordinates",
        )

    def test_repr(self):
        v = Violation(2, 3, Fraction(1, 2), Fraction(-1))
        assert repr(v) == (
            "Violation(n=2, exponent=3, expected=Fraction(1, 2), "
            "actual=Fraction(-1, 1), y_power=None)"
        )
        with pytest.raises(AttributeError):
            v.n = 5

    def test_report_repr(self):
        report = VerificationReport("ghitza")
        report.add("x", "a = a", True)
        assert repr(report) == (
            "VerificationReport(suite='ghitza', checks=[CheckRecord(check_id='x', "
            "anchor='a = a', passed=True, witness=None)], runtime_seconds=0.0)"
        )
