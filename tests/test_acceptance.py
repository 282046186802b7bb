"""Acceptance suite: every exit criterion, exact (tolerance zero), one
pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v` to see the per-criterion
verdict lines; `-s` additionally shows the printed summaries.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from modforms.brackets import rankin_cohen
from modforms.exactmath import sigma
from modforms.forms import (
    CATALOG_NAMES,
    GeneratorPoly,
    catalog,
    catalog_form,
    cusp_delta,
    eisenstein,
    is_modular_member,
    monomial_exponents,
)
from modforms.hecke import eigenform_test, hecke
from modforms.nearly import e2_star, maass_shimura, quasimodular_decompose
from modforms.qseries import QSeries
from modforms.verify import diophantine_check, ghitza_check, product_search

PREC = 128
BOUND = 10
WINDOW = 12


def _verdict(number: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number:>2} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"criterion {number}: {description}"


def _forms():
    return {name: catalog_form(name, PREC) for name in CATALOG_NAMES}


def test_criterion_01_identity_suite():
    forms = _forms()
    ok = True
    from modforms.verify import PRODUCT_IDENTITIES

    for left, right, result in PRODUCT_IDENTITIES:
        ok = ok and (forms[left] * forms[right] == forms[result])
    lhs = forms["E4"].derivative() * forms["E4"]
    rhs = forms["E8"].derivative() * Fraction(1, 2)
    ok = ok and (lhs - rhs).is_zero()
    _verdict(1, "all modular product identities and D(E4)*E4 = (1/2)D(E8), "
                f"exact to {PREC} coefficients", ok)


def test_criterion_02_eigenform_classification():
    forms = _forms()
    estar = e2_star(PREC)
    passing = {name: forms[name] for name in CATALOG_NAMES}
    passing["E2star"] = estar
    passing["E2*Delta12"] = forms["E2"] * forms["Delta12"]
    passing["raised Delta12"] = maass_shimura(forms["Delta12"])

    failing = {
        "E2^2": forms["E2"] * forms["E2"],
        "E2*E4": forms["E2"] * forms["E4"],
        "E2*E6": forms["E2"] * forms["E6"],
        "E2*E8": forms["E2"] * forms["E8"],
        "E2*E10": forms["E2"] * forms["E10"],
        "E2*E14": forms["E2"] * forms["E14"],
        "E4*E8": forms["E4"] * forms["E8"],
        "Delta12^2": forms["Delta12"] * forms["Delta12"],
        "E4*Delta20": forms["E4"] * forms["Delta20"],
    }

    ok = True
    for name, candidate in passing.items():
        report = eigenform_test(candidate, bound=BOUND, window=WINDOW)
        ok = ok and report.is_eigen_up_to_bound
    for name, candidate in failing.items():
        report = eigenform_test(candidate, bound=BOUND, window=WINDOW)
        ok = ok and not report.is_eigen_up_to_bound
        ok = ok and report.first_violation is not None

    _verdict(2, f"eigenform test (B={BOUND}, M={WINDOW}) passes on the 15 "
                "expected forms and fails with witnesses on the 9 others", ok)


def test_criterion_03_hecke_eigenvalues():
    d12 = cusp_delta(12, PREC)
    report = eigenform_test(d12, bound=BOUND, window=WINDOW)
    ok = (
        report.eigenvalue(2) == -24
        and report.eigenvalue(3) == 252
        and report.eigenvalue(4) == -1472
    )
    for k in (4, 6, 8, 10, 14):
        eis_report = eigenform_test(eisenstein(k, PREC), bound=BOUND, window=WINDOW)
        for n in range(1, 11):
            ok = ok and eis_report.eigenvalue(n) == sigma(k - 1, n)
    _verdict(3, "lambda(Delta12) = -24, 252, -1472 and lambda_n(E_k) = "
                "sigma_{k-1}(n) for k in {4,6,8,10,14}, n <= 10", ok)


def test_criterion_04_derivative_shift():
    d12 = cusp_delta(12, PREC)
    base = eigenform_test(d12, bound=BOUND, window=WINDOW)
    ok = True
    for m in (1, 2):
        derived = d12
        for _ in range(m):
            derived = derived.derivative()
        shifted = eigenform_test(derived, bound=BOUND, window=WINDOW)
        ok = ok and shifted.is_eigen_up_to_bound
        for n in range(1, 11):
            ok = ok and shifted.eigenvalue(n) == n**m * base.eigenvalue(n)
    _verdict(4, "eigenvalues of D^m(Delta12) are n^m * lambda_n for m in {1,2}", ok)


# The complete classified list of eigenform products over the catalog at
# derivative order <= 1 (written out independently of the package
# constant): the sixteen modular pairs, D(E4)*E4, and E2*Delta12.
CLASSIFIED_PRODUCTS = {
    ("E4", 0, "E4", 0),
    ("E4", 0, "E6", 0),
    ("E6", 0, "E8", 0),
    ("E4", 0, "E10", 0),
    ("E4", 0, "Delta12", 0),
    ("E6", 0, "Delta12", 0),
    ("E4", 0, "Delta16", 0),
    ("E8", 0, "Delta12", 0),
    ("E4", 0, "Delta18", 0),
    ("E6", 0, "Delta16", 0),
    ("E10", 0, "Delta12", 0),
    ("E4", 0, "Delta22", 0),
    ("E6", 0, "Delta20", 0),
    ("E8", 0, "Delta18", 0),
    ("E10", 0, "Delta16", 0),
    ("E14", 0, "Delta12", 0),
    ("E4", 0, "E4", 1),
    ("E2", 0, "Delta12", 0),
}


def test_criterion_05_product_search():
    hits, report = product_search()
    found = {hit.key for hit in hits}
    ok = found == CLASSIFIED_PRODUCTS and report.all_passed()

    # the slice with both factors modular is the sixteen products plus
    # D(E4)*E4 and nothing else
    modular_only = {key for key in found if key[0] != "E2" and key[2] != "E2"}
    ok = ok and len(modular_only) == 17
    ok = ok and sum(1 for key in modular_only if key[1] == 0 and key[3] == 0) == 16

    _verdict(5, "product search at K=26, R=1, B=10 returns exactly the "
                "classified hits (16 modular pairs + D(E4)*E4 + E2*Delta12) "
                "and nothing else", ok)


def test_criterion_06_diophantine_scans():
    ok = (
        diophantine_check("eq3") == []
        and diophantine_check("eq4") == []
        and diophantine_check("eq7") == []
        and [r for r in diophantine_check("quadratic") if r["admissible"]] == []
    )
    _verdict(6, "obstruction equations have no solutions: eq3/eq4 over even "
                "k <= 40, s <= 40; eq7 over r <= 64; no admissible quadratic "
                "root for k in {4,6,8,10,14}, r <= 40", ok)


def test_criterion_07_ghitza_separation():
    report = ghitza_check()
    ok = report.all_passed() and len(report.checks) == 5
    for check in report.checks:
        ok = ok and check.witness["n"] <= 4
    _verdict(7, "every Delta_k (k in {16,18,20,22,26}) differs from Delta12 "
                "at some n <= 4", ok)


def test_criterion_08_decomposition_roundtrip():
    rng = random.Random(0xD12)
    ok = True
    count = 0
    while count < 20:
        k = rng.choice(range(4, 21, 2))
        max_depth = (k - 2) // 2
        depth = rng.randint(0, max_depth)
        terms = {}
        for _ in range(rng.randint(1, 4)):
            i = rng.randint(0, depth)
            rest = k - 2 * i
            if rest >= 4:
                choices = [(i, a, b) for a, b in monomial_exponents(rest)]
            elif rest == 0:
                choices = [(i, 0, 0)]
            else:
                continue
            e = rng.choice(choices)
            terms[e] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        poly = GeneratorPoly(terms)
        if poly.is_zero():
            continue
        count += 1
        form = poly.evaluate(PREC)
        parts = quasimodular_decompose(form, depth)
        if parts is None:
            ok = False
            continue
        total = QSeries.zero(PREC)
        for r, part in parts:
            series = part.series
            for _ in range(r):
                series = series.derivative()
            total = total + series
        ok = ok and total == form.series
    _verdict(8, "20 random homogeneous polynomials in E2,E4,E6 (weight <= 20, "
                "depth < k/2) decompose and reassemble exactly", ok)


def test_criterion_09_bracket_properties():
    entries = [e for e in catalog(PREC) if e.name != "E2"]
    ok = True
    for i, (g_name, g) in enumerate(entries):
        for h_name, h in entries[i:]:
            for m in range(5):
                weight = g.weight + h.weight + 2 * m
                if weight > 26:
                    continue
                bracket = rankin_cohen(g, h, m)
                if m == 0:
                    ok = ok and bracket == g * h
                else:
                    ok = ok and bracket[0] == 0
                ok = ok and rankin_cohen(h, g, m) == bracket * ((-1) ** m)
                ok = ok and is_modular_member(bracket, weight) is not None
    e4e6 = rankin_cohen(catalog_form("E4", PREC), catalog_form("E6", PREC), 1)
    ok = ok and e4e6 == catalog_form("Delta12", PREC) * -3456
    _verdict(9, "bracket properties: [g,h]_0 = gh, sign symmetry (m <= 4), "
                "zero constant term for m >= 1, modular membership up to "
                "weight 26, and [E4,E6]_1 = -3456*Delta12", ok)


def test_criterion_10_hecke_oracles():
    ok = True
    for name in CATALOG_NAMES:
        form = catalog_form(name, PREC)
        k = form.weight
        for m in range(1, 7):
            for n in range(m + 1, 7):
                if math.gcd(m, n) != 1:
                    continue
                ok = ok and hecke(hecke(form, m), n) == hecke(form, m * n)
        for p in (2, 3):
            for r in (1, 2):
                lhs = hecke(hecke(form, p**r), p)
                rhs = hecke(form, p ** (r + 1)) + hecke(form, p ** (r - 1)).truncate(
                    lhs.prec
                ) * (p ** (k - 1))
                ok = ok and lhs == rhs
    _verdict(10, "Hecke multiplicativity (coprime m,n <= 6) and the "
                 "prime-power recursion (p in {2,3}, r in {1,2}) hold on "
                 "every catalog form", ok)
