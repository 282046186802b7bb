"""Tests for Hecke operators and the eigenform tester.

The independent oracles for the coefficient formula are multiplicativity
on coprime indices and the prime-power recursion, both exercised on the
whole catalog, and the textbook sum over Fractions of
``reference.hecke_reference`` on random series. The eigenform test is
held to misses planted at a known (n, m, Y-power) in formal eigenforms.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from modforms.exactmath import sigma
from modforms.forms import CATALOG_NAMES, catalog_form, cusp_delta, eisenstein
from modforms.hecke import Violation, _first_miss, eigenform_test, hecke, hecke_nearly
from modforms.nearly import YPolyForm, e2_star, maass_shimura
from modforms.qseries import GradedSeries, PrecisionError, QSeries
from reference import hecke_reference, json_form

PREC = 128

TAU = {1: 1, 2: -24, 3: 252, 4: -1472, 5: 4830, 6: -6048,
       7: -16744, 8: 84480, 9: -113643, 10: -115920}


def _q_power(m: int) -> QSeries:
    return QSeries([0] * m + [1], prec=PREC)


class TestHeckeOperator:
    def test_t1_is_identity(self):
        for name in ("E4", "Delta12"):
            f = catalog_form(name, 24)
            assert hecke(f, 1) == f

    def test_t2_on_delta12(self):
        d12 = cusp_delta(12, PREC)
        t2 = hecke(d12, 2)
        assert t2[1] == -24
        assert t2 == (d12 * -24).truncate(t2.prec)

    def test_t2_on_e4_coefficients(self):
        t2 = hecke(eisenstein(4, 32), 2)
        assert t2[0] == 9  # sigma_3(2) * 1
        assert t2[1] == 2160
        assert t2 == (eisenstein(4, 32) * 9).truncate(16)

    def test_precision_shrinks_by_floor(self):
        f = eisenstein(4, 100)
        assert hecke(f, 3).prec == 33
        assert hecke(f, 7).prec == 14

    def test_weight_preserved(self):
        assert hecke(cusp_delta(16, 32), 2).weight == 16

    def test_index_zero_rejected(self):
        with pytest.raises(ValueError):
            hecke(eisenstein(4, 16), 0)

    def test_shallow_precision_warns(self):
        with pytest.warns(UserWarning, match="constant term"):
            result = hecke(eisenstein(4, 3), 5)
        assert result.prec == 0

    def test_multiplicativity_on_coprime_indices(self):
        for name in CATALOG_NAMES:
            f = catalog_form(name, PREC)
            for m in range(1, 7):
                for n in range(m + 1, 7):
                    if math.gcd(m, n) != 1:
                        continue
                    composed = hecke(hecke(f, m), n)
                    direct = hecke(f, m * n)
                    assert composed == direct, (name, m, n)

    def test_prime_power_recursion(self):
        # T_p T_{p^r} = T_{p^{r+1}} + p^(k-1) T_{p^{r-1}}
        for name in CATALOG_NAMES:
            f = catalog_form(name, PREC)
            k = f.weight
            for p in (2, 3):
                for r in (1, 2):
                    lhs = hecke(hecke(f, p**r), p)
                    rhs = hecke(f, p ** (r + 1)) + hecke(f, p ** (r - 1)).truncate(
                        lhs.prec
                    ) * (p ** (k - 1))
                    assert lhs == rhs, (name, p, r)

    def test_commutes_with_derivative_up_to_scaling(self):
        # D^m(T_n f) = n^-m T_n(D^m f)
        for name in ("E2", "E4", "Delta12"):
            f = catalog_form(name, PREC)
            for m in range(1, 4):
                df = f
                for _ in range(m):
                    df = df.derivative()
                for n in range(2, 7):
                    lhs = hecke(f, n)
                    for _ in range(m):
                        lhs = lhs.derivative()
                    rhs = hecke(df, n) * Fraction(1, n**m)
                    assert lhs.series == rhs.series, (name, m, n)


class TestEigenformTest:
    def test_delta12(self):
        report = eigenform_test(cusp_delta(12, PREC))
        assert report.is_eigen_up_to_bound
        assert report.tested_bound == 10
        for n, lam in report.eigenvalues:
            assert lam == TAU[n]
        assert report.precision_used == PREC
        assert report.min_comparison_prec == 12

    def test_eisenstein_eigenvalues(self):
        for k in (4, 6, 8, 10, 14):
            report = eigenform_test(eisenstein(k, PREC))
            assert report.is_eigen_up_to_bound, k
            for n, lam in report.eigenvalues:
                assert lam == sigma(k - 1, n), (k, n)

    def test_e2_eigen(self):
        report = eigenform_test(eisenstein(2, PREC))
        assert report.is_eigen_up_to_bound
        for n, lam in report.eigenvalues:
            assert lam == sigma(1, n)

    def test_derivative_shifts_eigenvalues(self):
        d12 = cusp_delta(12, PREC)
        base = eigenform_test(d12)
        for m in (1, 2):
            df = d12
            for _ in range(m):
                df = df.derivative()
            shifted = eigenform_test(df)
            assert shifted.is_eigen_up_to_bound
            for n, lam in shifted.eigenvalues:
                assert lam == n**m * base.eigenvalue(n), (m, n)

    def test_e2_squared_fails_with_witness(self):
        e2 = eisenstein(2, PREC)
        report = eigenform_test(e2 * e2)
        assert not report.is_eigen_up_to_bound
        assert report.first_violation is not None

    @pytest.mark.parametrize(
        "make, witness",
        [
            (lambda: eisenstein(2, PREC) * eisenstein(4, PREC), (2, 1, None)),
            (lambda: cusp_delta(12, PREC) * cusp_delta(12, PREC), (2, 1, None)),
            (lambda: e2_star(PREC) * eisenstein(4, PREC), (2, 0, 1)),
            # Witness order: smallest m first, then smallest Y-power. On Y^0,
            # E4 + q^10 first fails T_2 at m = 5 (b_5 reads a_10); on Y^1
            # (effective weight 2), q^5 fails there too, Delta12 at m = 1.
            (lambda: YPolyForm([eisenstein(4, PREC) + _q_power(10), _q_power(5)], 4),
             (2, 5, 0)),
            (lambda: YPolyForm([eisenstein(4, PREC) + _q_power(10), cusp_delta(12, PREC)], 4),
             (2, 1, 1)),
        ],
        ids=["e2_e4", "delta12_squared", "e4_e2star", "same-m-smaller-r", "r1-at-smaller-m"],
    )
    def test_violation_revalidates_from_raw_series(self, make, witness):
        # A miss computes T_n f in full and reports the first witness;
        # recompute the cited coefficient relation, and every comparison
        # before it in (m, Y-power) order, from the public T_n f.
        candidate = make()
        report = eigenform_test(candidate)
        violation = report.first_violation
        assert violation is not None
        assert (violation.n, violation.exponent, violation.y_power) == witness
        ypoly = isinstance(candidate, YPolyForm)
        comps = candidate.components if ypoly else (candidate.series,)
        m0, r0 = next(
            (m, r) for m in range(PREC + 1) for r in range(len(comps)) if comps[r][m]
        )
        r_v = violation.y_power or 0
        for n in range(1, violation.n + 1):
            if ypoly:
                transformed = hecke_nearly(candidate, n).components
            else:
                transformed = (hecke(candidate, n).series,)
            assert len(transformed) == len(comps)
            lam = transformed[r0][m0] / comps[r0][m0]
            pairs = [
                (m, r)
                for m in range(transformed[0].prec + 1)
                for r in range(len(comps))
            ]
            if n < violation.n:
                assert report.eigenvalue(n) == lam
            else:
                pairs = pairs[: pairs.index((violation.exponent, r_v))]
            for m, r in pairs:
                assert transformed[r][m] == lam * comps[r][m], (n, m, r)
        assert transformed[r_v][violation.exponent] == violation.actual
        assert lam * comps[r_v][violation.exponent] == violation.expected
        assert violation.expected != violation.actual

    def test_deep_valuation_product_rejected(self):
        d12 = cusp_delta(12, PREC)
        report = eigenform_test(d12 * d12)
        assert not report.is_eigen_up_to_bound
        v = report.first_violation
        assert (v.n, v.exponent) == (2, 1)

    def test_zero_form_rejected(self):
        with pytest.raises(ValueError):
            eigenform_test(GradedSeries(QSeries.zero(PREC), 4))

    def test_precision_guard(self):
        with pytest.raises(PrecisionError):
            eigenform_test(eisenstein(4, 100), bound=10, window=12)

    @pytest.mark.parametrize("bound, window", [(0, 12), (10, 0), (10, -1)])
    def test_bound_and_window_must_be_positive(self, bound, window):
        with pytest.raises(ValueError, match="bound|window"):
            eigenform_test(eisenstein(4, PREC), bound=bound, window=window)

    def test_report_serialization(self):
        report = eigenform_test(cusp_delta(12, PREC))
        data = json_form(report)
        assert data["is_eigen_up_to_bound"] is True
        assert data["eigenvalues"][1] == [2, "-24/1"]
        assert data["first_violation"] is None

        failing = eigenform_test(eisenstein(2, PREC) * eisenstein(2, PREC))
        fdata = json_form(failing)
        assert fdata["first_violation"]["n"] == failing.first_violation.n
        assert "/" in fdata["first_violation"]["expected"]


class TestHeckeNearly:
    def test_e2_star_is_eigen(self):
        report = eigenform_test(e2_star(PREC))
        assert report.is_eigen_up_to_bound
        for n, lam in report.eigenvalues:
            assert lam == sigma(1, n)

    def test_both_components_scale(self):
        estar = e2_star(PREC)
        for n in range(1, 11):
            transformed = hecke_nearly(estar, n)
            scaled = estar * sigma(1, n)
            assert transformed.component(0) == scaled.component(0).truncate(PREC // n)
            assert transformed.component(1) == scaled.component(1).truncate(PREC // n)

    def test_y_component_constant_action(self):
        # T_2 on the Y-part of E2 - 3Y: 2 * sigma_{-1}(2) * (-3) = -9
        transformed = hecke_nearly(e2_star(16), 2)
        assert transformed.component(1)[0] == -9

    def test_depth_zero_matches_plain_hecke(self):
        for name in ("E4", "Delta12"):
            form = catalog_form(name, 64)
            wrapped = YPolyForm.from_graded(form)
            for n in (2, 3, 5):
                assert hecke_nearly(wrapped, n).component(0) == hecke(form, n).series

    def test_index_zero_rejected(self):
        with pytest.raises(ValueError):
            hecke_nearly(e2_star(16), 0)


class TestHeckeNearlyOracles:
    """Hecke-algebra relations on the Y^1 component of a depth-1 form.

    F = E2star * E4 has weight 6 and Y-part -3 E4, so each relation
    exercises the n^r and d^(k-2r-1) factors of the kernel at r = 1.
    Differences of Y-polynomials are taken on the common precision.
    """

    @pytest.fixture(scope="class")
    def form(self):
        f = e2_star(PREC) * eisenstein(4, PREC)
        assert (f.weight, f.depth) == (6, 1)
        return f

    @staticmethod
    def assert_equal(lhs, rhs):
        assert lhs.weight == rhs.weight
        assert min(lhs.prec, rhs.prec) > 0
        assert (lhs - rhs).is_zero()

    def test_multiplicativity(self, form):
        composed = hecke_nearly(hecke_nearly(form, 3), 2)
        self.assert_equal(composed, hecke_nearly(form, 6))

    def test_prime_power_recursion(self, form):
        k = form.weight
        lhs = hecke_nearly(hecke_nearly(form, 2), 2)
        self.assert_equal(lhs, hecke_nearly(form, 4) + form * 2 ** (k - 1))

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_commutes_with_raising_up_to_scaling(self, form, n):
        lhs = hecke_nearly(maass_shimura(form), n)
        self.assert_equal(lhs, maass_shimura(hecke_nearly(form, n)) * n)


# Signed coefficients over denominators up to 60, so that each component
# carries a common denominator through the kernel.
_COEFFS = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=60)


@st.composite
def _components(draw, most: int) -> list[list[Fraction]]:
    """1..most components a_0..a_prec of one precision, prec 0..40."""
    prec = draw(st.integers(0, 40))
    count = draw(st.integers(1, most))
    return [draw(st.lists(_COEFFS, min_size=prec + 1, max_size=prec + 1)) for _ in range(count)]


def _stripped(images: list[list[Fraction]]) -> list[list[Fraction]]:
    """images without trailing zero components, as a YPolyForm stores them."""
    while len(images) > 1 and not any(images[-1]):
        images.pop()
    return images


class TestFractionOracle:
    """hecke and hecke_nearly against the textbook sum over Fractions, on
    random signed series with denominators, weights 1..30, Y-degree 0..2
    (so 2r + 1 > k, and with it a denominator n^(2r+1-k), occurs at low
    weight) and n 1..12."""

    @settings(max_examples=100, deadline=None)
    @given(comps=_components(1), k=st.integers(1, 30), n=st.integers(1, 12))
    def test_hecke_equals_the_reference(self, comps, k, n):
        (coeffs,) = comps
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # T_n with n > prec certifies only a_0
            image = hecke(GradedSeries(QSeries(coeffs), k), n)
        assert image.weight == k
        assert list(image.coeffs) == hecke_reference(coeffs, k, 0, n)

    @settings(max_examples=100, deadline=None)
    @given(comps=_components(3), k=st.integers(1, 30), n=st.integers(1, 12))
    @example(comps=[[Fraction(j, 7) for j in range(-6, 31)]] * 3, k=1, n=12)
    @example(comps=[[Fraction(-j, j + 2) for j in range(37)]] * 2, k=2, n=9)
    def test_hecke_nearly_equals_the_reference(self, comps, k, n):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # depth above k/2; n > prec
            form = YPolyForm([QSeries(c) for c in comps], k)
            image = hecke_nearly(form, n)
        assert image.weight == k
        expected = [hecke_reference(list(c.coeffs), k, r, n) for r, c in enumerate(form.components)]
        assert [list(c.coeffs) for c in image.components] == _stripped(expected)


def _prime_factors(m: int) -> list[int]:
    return [p for p in range(2, m + 1) if m % p == 0 and all(p % d for d in range(2, p))]


def _formal_eigenform(k: int, lam, prec: int) -> list[Fraction]:
    """a_0..a_prec of the normalized formal weight-k eigenform with prime
    eigenvalues lam(p): a_0 = 0, a_1 = 1, a_(p^(e+1)) = a_p a_(p^e) -
    p^(k-1) a_(p^(e-1)), multiplicative on coprime indices. Every T_n
    maps it to a_n times itself, coefficient by coefficient."""
    a = [Fraction(0), Fraction(1)]
    for m in range(2, prec + 1):
        p = _prime_factors(m)[0]
        e, rest = 0, m
        while rest % p == 0:
            e, rest = e + 1, rest // p
        powers = [Fraction(1), lam(p)]
        for _ in range(e - 1):
            powers.append(lam(p) * powers[-1] - Fraction(p) ** (k - 1) * powers[-2])
        a.append(powers[e] * a[rest])
    return a[: prec + 1]


def _planted(k, scales, lam, prec, n, plants):
    """A weight-k form that is a T_j eigenform for every j, with a_(mn) of
    its Y^r component moved by eps for each (m, r, eps) of plants, and the
    Violation that the smallest (m, r) makes.

    Component s is scales[s] a_j / j^s for the formal eigenform a_j above:
    the weight-(k - 2s) eigenform with eigenvalues lam_j / j^s, which the
    factor n^s of the kernel turns back into lam_j. For n the smallest prime
    factor of J = mn and J <= prec < 2J, no T_j with j < n reads a_J (j does
    not divide J, and a_J is neither a compared coefficient nor the term of
    a divisor d > 1), and T_n reads it first at (m, r), by its d = 1 term."""
    a = _formal_eigenform(k, lam, prec)
    comps = [[c * a[j] / j**s if j else a[j] for j in range(prec + 1)] for s, c in enumerate(scales)]
    m, r, eps = min(plants)
    expected = a[n] * comps[r][m]
    for j, s, e in plants:
        assert _prime_factors(n * j)[0] == n and n * j <= prec < 2 * n * j and (j, s) != (1, 0)
        comps[s][n * j] += e
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # depth above k/2
        form = (
            GradedSeries(QSeries(comps[0]), k) if len(comps) == 1
            else YPolyForm([QSeries(c) for c in comps], k)
        )
    y_power = r if len(comps) > 1 else None
    return form, Violation(n, m, expected, expected + n**r * eps, y_power)


def _lam(n: int, lam_n: Fraction):
    """Prime eigenvalues: lam_n at n, and (p + 2)/3 at every other prime."""
    return lambda p: lam_n if p == n else Fraction(p + 2, 3)


class TestPlantedMiss:
    """A miss planted at (n, m, r) is the first violation eigenform_test
    reports, whichever factor the comparison p a D == q b skips."""

    @pytest.mark.parametrize(
        "k, scales, n, m, r, lam_n, branch",
        [
            (12, (1, Fraction(-3, 2), 5), 2, 3, 1, Fraction(1, 3), "pD = 1"),
            (7, (1, 4), 3, 5, 0, Fraction(-4), "q = 1"),
            (2, (1, -3, Fraction(7, 2)), 5, 5, 2, Fraction(-2, 3), "general"),
            (3, (1, Fraction(1, 9)), 7, 1, 1, Fraction(5, 2), "general"),
            (30, (1,), 11, 11, 0, Fraction(7, 5), "general"),
        ],
        ids=["pD-is-1", "q-is-1", "D-above-1", "m-is-1", "depth-0"],
    )
    @pytest.mark.parametrize("top", [False, True], ids=["prec-J", "prec-2J-1"])
    def test_the_planted_miss_is_the_first_violation(self, k, scales, n, m, r, lam_n, branch, top):
        prec = 2 * n * m - 1 if top else n * m
        form, violation = _planted(k, scales, _lam(n, lam_n), prec, n, [(m, r, Fraction(1, 2))])
        report = eigenform_test(form, bound=n, window=1)
        assert report.first_violation == violation
        assert not report.is_eigen_up_to_bound
        a = _formal_eigenform(k, _lam(n, lam_n), n)
        assert report.eigenvalues == tuple((j, a[j]) for j in range(1, n))
        # The branch each case is for: lambda_n = p/q, and the factor p D of
        # component r.
        comps = form.components if isinstance(form, YPolyForm) else (form,)
        p, q, images, miss = _first_miss([c.numerators for c in comps], k, n, prec // n + 1, (1, 0))
        assert (miss, Fraction(p, q)) == ((m, r), lam_n)
        pd = p * images[r][1]
        assert {"pD = 1": pd == 1, "q = 1": q == 1, "general": pd != 1 and q != 1}[branch]

    @pytest.mark.parametrize(
        "plants",
        [[(5, 1, 3), (6, 0, 1)], [(5, 2, 3), (6, 1, 1), (7, 0, 2)], [(5, 1, 3), (5, 2, -1)]],
        ids=["lower-component-later", "each-component-later", "higher-component-same-m"],
    )
    def test_the_smallest_miss_over_the_components_is_reported(self, plants):
        # T_2 misses in several components; the first is the smallest m,
        # then the smallest Y-power, wherever each component's own first
        # miss lies.
        form, violation = _planted(4, (1, -3, 2), _lam(2, Fraction(9)), 19, 2, plants)
        assert eigenform_test(form, bound=2, window=1).first_violation == violation
        assert violation[:2] == (2, 5) and violation.y_power == plants[0][1]

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(1, 30),
        scales=st.lists(_COEFFS.filter(bool), min_size=1, max_size=3),
        n=st.sampled_from([2, 3, 5, 7, 11]),
        m=st.integers(1, 12),
        r=st.integers(0, 2),
        lam_n=_COEFFS,
        eps=_COEFFS.filter(bool),
        data=st.data(),
    )
    def test_a_random_plant_is_the_first_violation(self, k, scales, n, m, r, lam_n, eps, data):
        r = min(r, len(scales) - 1)
        if (m, r) == (1, 0) or any(p < n for p in _prime_factors(m)):
            m = n  # J = n^2, whose one prime factor is n
        prec = data.draw(st.integers(n * m, 2 * n * m - 1), label="prec")
        scales = [Fraction(1), *scales[1:]]
        form, violation = _planted(k, scales, _lam(n, lam_n), prec, n, [(m, r, eps)])
        assert eigenform_test(form, bound=n, window=1).first_violation == violation
