"""Independent oracles: each expectation is computed here, sharing no code
path with the engine. Delta12 is checked in plain integers against the
cusp-form solve, the integer Hecke kernel against its formula summed in
Fractions straight from the coefficients, the eigenvalues of every
product and bracket hit against closed forms that use no Hecke code, and
the coordinates of every bracket hit, which the search reads off its
line, against a membership solve on the bracket itself."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from modforms.brackets import rankin_cohen
from modforms.forms import catalog_form, cusp_delta, is_modular_member
from modforms.hecke import hecke, hecke_nearly
from modforms.nearly import e2_star
from modforms.verify import bracket_search, product_search

PREC = 128


def _eta_product(prec: int) -> list[int]:
    """Coefficients of q * prod_{n>=1} (1 - q^n)^24 up to q^prec."""
    coeffs = [0] * (prec + 1)
    coeffs[1] = 1
    for n in range(1, prec):
        for _ in range(24):
            for i in range(prec, n, -1):
                coeffs[i] -= coeffs[i - n]
    return coeffs


def _tau() -> list[int]:
    series = cusp_delta(12, PREC)
    assert all(c.denominator == 1 for c in series.coeffs)
    return [c.numerator for c in series.coeffs]


def _sigma(j: int, n: int) -> int:
    return sum(d**j for d in range(1, n + 1) if n % d == 0)


def _sigma11(n: int) -> int:
    return _sigma(11, n)


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_delta12_is_the_eta_product():
    assert _tau() == _eta_product(PREC)


def test_ramanujan_congruence():
    tau = _tau()
    for n in range(1, PREC + 1):
        assert (tau[n] - _sigma11(n)) % 691 == 0, n


def test_deligne_bound_at_primes():
    tau = _tau()
    primes = [p for p in range(2, PREC + 1) if _is_prime(p)]
    assert len(primes) == 31
    for p in primes:
        assert tau[p] ** 2 <= 4 * p**11


def _hecke_formula(series, k: int, r: int, n: int) -> list[Fraction]:
    """b_m = n^r sum_{d | (m, n)} d^(k-2r-1) a_{mn/d^2}, in Fractions."""
    return [
        n**r
        * sum(
            Fraction(d) ** (k - 2 * r - 1) * series[m * n // (d * d)]
            for d in range(1, n + 1)
            if n % d == 0 and m % d == 0
        )
        for m in range(series.prec // n + 1)
    ]


@pytest.mark.parametrize("n", range(1, 11))
def test_hecke_nearly_matches_the_formula_on_e2star_squared(n):
    # Weight 4, depth 2: the Y^2 component has the negative exponent -1.
    form = e2_star(60) * e2_star(60)
    assert (form.weight, form.depth) == (4, 2)
    image = hecke_nearly(form, n)
    for r in range(3):
        expected = _hecke_formula(form.component(r), 4, r, n)
        assert list(image.component(r).coeffs) == expected, r


@pytest.mark.parametrize("n", range(1, 11))
def test_hecke_matches_the_formula_on_delta12(n):
    delta = catalog_form("Delta12", 60)
    assert list(hecke(delta, n).coeffs) == _hecke_formula(delta, 12, 0, n)


def _eigenvalue_formula(weight: int, eisenstein_line: bool):
    """lambda_n of the normalized eigenform of the given weight: sigma_{k-1}(n)
    on the Eisenstein line, a_n(Delta_k) for a cusp form."""
    if eisenstein_line:
        return lambda n: _sigma(weight - 1, n)
    return cusp_delta(weight, PREC).__getitem__


def _product_formula(hit):
    if hit.key == ("E4", 0, "E4", 1):  # D(E4)*E4 = (1/2) D(E8)
        return lambda n: n * _sigma(7, n)
    if hit.key == ("E2", 0, "Delta12", 0):  # E2*Delta12 = D(Delta12)
        return lambda n: n * cusp_delta(12, PREC)[n]
    return _eigenvalue_formula(hit.weight, "Delta" not in hit.left + hit.right)


def _bracket_formula(hit):
    # A bracket of order m >= 1 has no constant term, so it is a cusp form.
    return _eigenvalue_formula(hit.weight, hit.m == 0 and "Delta" not in hit.g + hit.h)


@pytest.mark.parametrize(
    "search, formula, count",
    [(product_search, _product_formula, 18), (bracket_search, _bracket_formula, 64)],
    ids=["products", "brackets"],
)
def test_hit_eigenvalues_match_closed_forms(search, formula, count):
    hits, _ = search(PREC)
    assert len(hits) == count
    for hit in hits:
        expected = formula(hit)
        assert [n for n, _ in hit.eigenvalues] == list(range(1, 11)), hit.key
        for n, eigenvalue in hit.eigenvalues:
            assert eigenvalue == expected(n), (hit.key, n)


def test_bracket_hit_coordinates_match_a_direct_solve():
    hits, _ = bracket_search(PREC)
    assert len(hits) == 64
    for hit in hits:
        form = rankin_cohen(catalog_form(hit.g, PREC), catalog_form(hit.h, PREC), hit.m)
        assert hit.coordinates == tuple(is_modular_member(form, hit.weight)), hit.key
