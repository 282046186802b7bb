"""Independent oracles: each expectation is computed here, sharing no code
path with the engine. Delta12 is checked in plain integers against the
product formula of eta^24 and against (E4^3 - E6^2)/1728,
every cusp form, and from test_forms.py every element of the membership
bases where dim S_k >= 2, against a solve over the monomial basis, the
membership
coordinates of the identity suite's reductions against a solve over the
monomial basis at full precision, the integer Hecke kernel against its formula summed in
Fractions straight from the coefficients, the eigenform test against a
scan in Fractions on every catalog form, derivative, pairwise product and
bracket of order <= 2, the eigenvalues of every product and bracket hit
against closed forms that use no Hecke code, and the coordinates of every
bracket hit, which the search reads off its line, against a membership
solve on the bracket itself."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from modforms.brackets import rankin_cohen
from modforms.exactmath import solve_linear
from modforms.forms import (
    CATALOG_NAMES,
    DELTA_WEIGHTS,
    catalog_form,
    cusp_delta,
    dim_modular,
    eisenstein,
    is_modular_member,
    monomial_basis,
    span_coordinates,
)
from modforms.hecke import eigenform_test, hecke, hecke_nearly
from modforms.nearly import YPolyForm, constant_term, e2_star, maass_shimura
from modforms.qseries import GradedSeries, QSeries
from modforms.verify import bracket_search, product_search
from reference import hecke_reference, json_form

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


def _schoolbook(a: list[int], b: list[int]) -> list[int]:
    return [sum(a[i] * b[m - i] for i in range(m + 1)) for m in range(len(a))]


@pytest.mark.parametrize("prec", [1, 2, 16, 300])
def test_delta12_is_the_discriminant(prec):
    # E4^3 - E6^2 = 1728 Delta12, in plain integers.
    e4, e6 = (list(eisenstein.__wrapped__(k, prec).numerators) for k in (4, 6))
    discriminant = [x - y for x, y in zip(_schoolbook(_schoolbook(e4, e4), e4), _schoolbook(e6, e6))]
    delta = cusp_delta.__wrapped__(12, prec)
    assert delta.denominator == 1 and discriminant == [1728 * a for a in delta.numerators]


def monomial_solve(k: int, head, prec: int) -> tuple[list[Fraction], QSeries]:
    """The coordinates over the monomial basis of M_k of the form whose
    first len(head) coefficients are head, solved on those coefficients
    alone, and that form to prec, summed in Fractions."""
    basis = monomial_basis(k, prec)
    coords = solve_linear([[b[m] for b in basis] for m in range(len(head))], list(head))
    total = QSeries.zero(prec)
    for c, b in zip(coords, basis):
        total = total + b.series * c
    return coords, total


def _monomial_delta(k: int, prec: int) -> GradedSeries:
    """Delta_k solved from a_0 = 0 and a_1 = 1 over the monomial basis of M_k."""
    return GradedSeries(monomial_solve(k, [0, 1], prec)[1], k)


@pytest.mark.parametrize("prec", [1, 2, 16, 200])
def test_cusp_forms_match_the_monomial_solve(prec):
    for k in DELTA_WEIGHTS:
        assert cusp_delta.__wrapped__(k, prec) == _monomial_delta(k, prec), k


def test_reduction_coordinates_match_the_monomial_solve():
    # The coordinates the identity suite reports for each reduction of a
    # raised catalog form, against a span solve over the monomial basis
    # that reads every coefficient.
    estar = e2_star(PREC)
    for name in CATALOG_NAMES[1:]:
        form = catalog_form(name, PREC)
        k = form.weight
        reduced = constant_term(maass_shimura(form) - (estar * form) * Fraction(k, 12))
        expected = span_coordinates(monomial_basis(k + 2, PREC), reduced, dim_modular(k + 2) + 10)
        assert expected is not None, name
        assert is_modular_member(reduced, k + 2) == expected, name


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


# 12, 16, 18, 25 and 36 have square divisors d^2 | n, whose terms come
# from several strided slices of the coefficients.
HECKE_INDICES = [*range(1, 11), 12, 16, 18, 25, 36]


@pytest.mark.parametrize("n", HECKE_INDICES)
def test_hecke_nearly_matches_the_formula_on_e2star_squared(n):
    # Weight 4, depth 2: the Y^2 component has the negative exponent -1.
    form = e2_star(60) * e2_star(60)
    assert (form.weight, form.depth) == (4, 2)
    image = hecke_nearly(form, n)
    for r in range(3):
        expected = hecke_reference(list(form.component(r).coeffs), 4, r, n)
        assert list(image.component(r).coeffs) == expected, r


@pytest.mark.parametrize("n", HECKE_INDICES)
def test_hecke_matches_the_formula_on_delta12(n):
    delta = catalog_form("Delta12", 240)
    assert list(hecke(delta, n).coeffs) == hecke_reference(list(delta.coeffs), 12, 0, n)


@pytest.mark.parametrize("n", HECKE_INDICES)
def test_hecke_matches_the_formula_on_the_weight_0_constant(n):
    # The exponent k - 2r - 1 is -1 already at depth 0.
    one = GradedSeries(QSeries.one(240), 0)
    assert list(hecke(one, n).coeffs) == hecke_reference(list(one.coeffs), 0, 0, n)


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


# -- differential oracle for the eigenform test ---------------------------------

ORACLE_PREC = 130
ORACLE_HECKE_INDICES = (1, 2, 3, 4, 6, 9, 12)


def _reference_eigen_report(comps: list[list[Fraction]], k: int, ypoly: bool,
                            bound: int = 10) -> dict:
    """The JSON form of the eigenform report, from a scan in Fractions that
    stops at the first violation: n in order, then m, then the Y-power."""
    prec = len(comps[0]) - 1

    def text(x: Fraction) -> str:
        return f"{x.numerator}/{x.denominator}"

    m0, r0 = next((m, r) for m in range(prec + 1) for r in range(len(comps)) if comps[r][m])
    eigenvalues = [[1, "1/1"]]
    violation = None
    for n in range(2, bound + 1):
        if m0 > prec // n:
            continue
        images = [hecke_reference(c, k, r, n) for r, c in enumerate(comps)]
        lam = images[r0][m0] / comps[r0][m0]
        violation = next(
            (
                {"n": n, "exponent": m, "expected": text(lam * comps[r][m]),
                 "actual": text(images[r][m]), **({"y_power": r} if ypoly else {})}
                for m in range(prec // n + 1)
                for r in range(len(comps))
                if images[r][m] != lam * comps[r][m]
            ),
            None,
        )
        if violation:
            break
        eigenvalues.append([n, text(lam)])
    return {
        "is_eigen_up_to_bound": violation is None,
        "tested_bound": bound,
        "eigenvalues": eigenvalues,
        "first_violation": violation,
        "precision_used": prec,
        "min_comparison_prec": prec // bound,
    }


def _oracle_forms(family: str):
    """(label, form) pairs of one input family, all at ORACLE_PREC."""
    forms = {name: catalog_form(name, ORACLE_PREC) for name in CATALOG_NAMES}
    pairs = [(a, b) for i, a in enumerate(CATALOG_NAMES) for b in CATALOG_NAMES[i:]]
    if family == "catalog":
        return list(forms.items())
    if family == "derivatives":
        return [(f"D({a})", f.derivative()) for a, f in forms.items()]
    if family == "products":
        return [(f"{a}*{b}", forms[a] * forms[b]) for a, b in pairs]
    if family == "brackets":
        return [
            (f"[{a},{b}]_{m}", rankin_cohen(forms[a], forms[b], m))
            for a, b in pairs
            for m in range(3)
        ]
    e2s = e2_star(ORACLE_PREC)
    return [
        ("E2*", e2s),
        ("E2*^2", e2s * e2s),
        ("E2*E4", e2s * forms["E4"]),
        ("E2*Delta12", e2s * forms["Delta12"]),
        ("E2*^2E6", e2s * e2s * forms["E6"]),
        ("d(E4)", maass_shimura(forms["E4"])),
    ]


# Odd self-brackets and the brackets that vanish in weights with no cusp
# form are zero, which the eigenform test refuses; only their Hecke images
# are compared.
@pytest.mark.parametrize(
    "family, count, zeros",
    [("catalog", 12, 0), ("derivatives", 12, 0), ("products", 78, 0),
     ("brackets", 234, 14), ("e2star", 6, 0)],
)
def test_eigenform_test_and_hecke_match_a_fraction_scan(family, count, zeros):
    forms = _oracle_forms(family)
    assert len(forms) == count
    zero_forms = 0
    for label, form in forms:
        ypoly = isinstance(form, YPolyForm)
        comps = [list(c.coeffs) for c in (form.components if ypoly else (form,))]
        for n in ORACLE_HECKE_INDICES:
            image = hecke_nearly(form, n).components if ypoly else (hecke(form, n),)
            expected = [hecke_reference(c, form.weight, r, n) for r, c in enumerate(comps)]
            assert [list(c.coeffs) for c in image] == expected, (label, n)
        if not any(any(c) for c in comps):
            zero_forms += 1
            continue
        report = json_form(eigenform_test(form))
        assert report == _reference_eigen_report(comps, form.weight, ypoly), label
    assert zero_forms == zeros
