"""Verification suites: identity checks, eigenform product and bracket
searches, Diophantine scans, and the coefficient-separation check, with
deterministic JSON reporting.

Every check record carries an ``anchor``: the mathematical claim being
verified, stated as a formula, so a failing record can be re-derived
from raw series without consulting anything else. Failing records always
include a concrete witness (a coefficient index or a parameter tuple).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, is_dataclass, asdict
from fractions import Fraction

from .brackets import rankin_cohen
from .exactmath import bernoulli, rational_str, sigma
from .forms import (
    CATALOG_NAMES,
    DELTA_WEIGHTS,
    catalog_form,
    cusp_delta,
    eisenstein,
    is_modular_member,
)
from .hecke import EigenReport, Violation, eigenform_test
from .nearly import YPolyForm, constant_term, e2_star, maass_shimura
from .qseries import GradedSeries, PrecisionError, QSeries, first_difference

__all__ = [
    "DEFAULT_PREC",
    "CheckRecord",
    "VerificationReport",
    "PRODUCT_IDENTITIES",
    "EXPECTED_EIGEN_PRODUCTS",
    "verify_identity_suite",
    "ProductHit",
    "product_search",
    "BracketHit",
    "bracket_search",
    "diophantine_check",
    "verify_diophantine_suite",
    "ghitza_check",
    "SUITE_NAMES",
    "run_suite",
    "jsonable",
]

DEFAULT_PREC = 128


def jsonable(value):
    """Recursively convert report data to JSON-safe values.

    Rationals become "num/den" strings; series, forms and reports use
    their own dict serializations.
    """
    if isinstance(value, Fraction):
        return rational_str(value)
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, (QSeries, YPolyForm, EigenReport, Violation)):
        return value.to_json_dict()
    if is_dataclass(value) and not isinstance(value, type):
        return {k: jsonable(v) for k, v in asdict(value).items()}
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    raise TypeError(f"cannot serialize {type(value).__name__} into a report")


@dataclass(frozen=True)
class CheckRecord:
    check_id: str
    anchor: str
    passed: bool
    witness: object = None


@dataclass
class VerificationReport:
    """One suite's outcome: named checks, totals and runtime."""

    suite: str
    checks: list[CheckRecord] = field(default_factory=list)
    runtime_seconds: float = 0.0

    def add(self, check_id: str, anchor: str, passed: bool, witness=None) -> None:
        self.checks.append(CheckRecord(check_id, anchor, bool(passed), witness))

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.passed)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.checks if not c.passed)

    def all_passed(self) -> bool:
        return self.failed == 0

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "checks": [
                {
                    "id": c.check_id,
                    "anchor": c.anchor,
                    "pass": c.passed,
                    "witness": jsonable(c.witness),
                }
                for c in self.checks
            ],
            "passed": self.passed,
            "failed": self.failed,
            "runtime_seconds": self.runtime_seconds,
        }

    def summary_lines(self) -> list[str]:
        lines = [
            f"[{'PASS' if c.passed else 'FAIL'}] {c.check_id} :: {c.anchor}"
            for c in self.checks
        ]
        lines.append(
            f"suite {self.suite}: {self.passed} passed, {self.failed} failed "
            f"({self.runtime_seconds:.2f}s)"
        )
        return lines

    def merge(self, other: "VerificationReport") -> None:
        self.checks.extend(other.checks)
        self.runtime_seconds += other.runtime_seconds


def _difference_witness(left: GradedSeries, right: GradedSeries):
    index = first_difference(left, right)
    if index is None:
        return None
    return {
        "first_difference_at": index,
        "left": left[index],
        "right": right[index],
    }


def _eigen_witness(report: EigenReport, head: int = 5):
    return {
        "eigenvalues": list(report.eigenvalues[:head]),
        "first_violation": report.first_violation,
    }


# ---------------------------------------------------------------------------
# Identity suite
# ---------------------------------------------------------------------------

# Modular eigenform products: each pair multiplies to the named catalog form.
PRODUCT_IDENTITIES = (
    ("E4", "E4", "E8"),
    ("E4", "E6", "E10"),
    ("E6", "E8", "E14"),
    ("E4", "E10", "E14"),
    ("E4", "Delta12", "Delta16"),
    ("E6", "Delta12", "Delta18"),
    ("E4", "Delta16", "Delta20"),
    ("E8", "Delta12", "Delta20"),
    ("E4", "Delta18", "Delta22"),
    ("E6", "Delta16", "Delta22"),
    ("E10", "Delta12", "Delta22"),
    ("E4", "Delta22", "Delta26"),
    ("E6", "Delta20", "Delta26"),
    ("E8", "Delta18", "Delta26"),
    ("E10", "Delta16", "Delta26"),
    ("E14", "Delta12", "Delta26"),
)


def verify_identity_suite(prec: int = DEFAULT_PREC) -> VerificationReport:
    """Every coefficientwise identity plus the eigen/not-eigen classifications."""
    if prec < 128:
        raise ValueError("the identity suite is specified for prec >= 128")
    start = time.perf_counter()
    report = VerificationReport("identities")
    forms = {name: catalog_form(name, prec) for name in CATALOG_NAMES}
    e2, e4, e6, e8 = forms["E2"], forms["E4"], forms["E6"], forms["E8"]
    delta12 = forms["Delta12"]

    for left, right, result in PRODUCT_IDENTITIES:
        product = forms[left] * forms[right]
        report.add(
            f"identities.product.{left}*{right}",
            f"{left}*{right} = {result}",
            product == forms[result],
            _difference_witness(product, forms[result]),
        )

    derivative_system = (
        ("D(E2) = (E2^2 - E4)/12", e2.derivative(), (e2 * e2 - e4) * Fraction(1, 12)),
        ("D(E4) = (E2*E4 - E6)/3", e4.derivative(), (e2 * e4 - e6) * Fraction(1, 3)),
        (
            "D(E6) = (E2*E6 - E4^2)/2",
            e6.derivative(),
            (e2 * e6 - e4 * e4) * Fraction(1, 2),
        ),
    )
    for anchor, left_form, right_form in derivative_system:
        slug = anchor.split(" =")[0].replace("D(", "D").rstrip(")")
        report.add(
            f"identities.derivative.{slug}",
            anchor,
            left_form == right_form,
            _difference_witness(left_form, right_form),
        )

    d_delta = delta12.derivative()
    e2_delta = e2 * delta12
    report.add(
        "identities.derivative.DDelta12",
        "D(Delta12) = E2*Delta12",
        d_delta == e2_delta,
        _difference_witness(d_delta, e2_delta),
    )

    lhs = e4.derivative() * e4
    rhs = e8.derivative() * Fraction(1, 2)
    report.add(
        "identities.derivative.DE4*E4",
        "D(E4)*E4 = (1/2) D(E8)",
        lhs == rhs,
        _difference_witness(lhs, rhs),
    )

    estar = e2_star(prec)
    raised = maass_shimura(delta12)
    star_product = estar * delta12
    report.add(
        "identities.nearly.delta12",
        "raising Delta12 by one weight step gives E2star*Delta12",
        raised == star_product,
        None if raised == star_product else {"note": "Y-components differ"},
    )

    for name in CATALOG_NAMES:
        if name == "E2":
            continue
        form = forms[name]
        k = form.weight
        reduced = maass_shimura(form) - (estar * form) * Fraction(k, 12)
        ok_depth = reduced.depth == 0
        coords = None
        if ok_depth:
            coords = is_modular_member(constant_term(reduced), k + 2)
        passed = ok_depth and coords is not None
        report.add(
            f"identities.nearly.reduction.{name}",
            f"raised {name} minus ({k}/12)*E2star*{name} is holomorphic of weight {k + 2}",
            passed,
            {"depth": reduced.depth, "coordinates": coords},
        )

    eigen_expected = (
        ("E2*Delta12", e2 * delta12, True),
        ("E2star", estar, True),
        ("E2^2", e2 * e2, False),
        ("E2*E4", e2 * e4, False),
        ("E2*E6", e2 * e6, False),
        ("E2*E8", e2 * e8, False),
        ("E2*E10", e2 * forms["E10"], False),
        ("E2*E14", e2 * forms["E14"], False),
    )
    for label, candidate, should_pass in eigen_expected:
        result = eigenform_test(candidate)
        verdict = "an" if should_pass else "not an"
        report.add(
            f"identities.eigen.{label}",
            f"{label} is {verdict} eigenform up to T_{result.tested_bound}",
            result.is_eigen_up_to_bound == should_pass,
            _eigen_witness(result),
        )

    report.runtime_seconds = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# Product search
# ---------------------------------------------------------------------------


def _eigen_scan(candidates, skipped: list[str]):
    """Run the eigenform test on each (key, label, form) candidate.

    Yields the passes as (key, form, report) triples, in candidate order,
    and appends to ``skipped`` one line per candidate whose precision is
    too low. Yielding lets the caller drop each form before the next one
    is built, so a scan holds one candidate at a time.
    """
    for key, label, form in candidates:
        try:
            result = eigenform_test(form)
        except PrecisionError as exc:
            skipped.append(f"{label}: {exc}")
            continue
        if result.is_eigen_up_to_bound:
            yield key, form, result


def _deriv_label(name: str, order: int) -> str:
    return f"D({name})" if order else name


def _product_label(left: str, left_deriv: int, right: str, right_deriv: int) -> str:
    return f"{_deriv_label(left, left_deriv)}*{_deriv_label(right, right_deriv)}"


@dataclass(frozen=True)
class ProductHit:
    left: str
    left_deriv: int
    right: str
    right_deriv: int
    weight: int
    eigenvalues: tuple[tuple[int, Fraction], ...]

    @property
    def key(self) -> tuple[str, int, str, int]:
        return (self.left, self.left_deriv, self.right, self.right_deriv)

    @property
    def description(self) -> str:
        return _product_label(*self.key)

    def to_json_dict(self) -> dict:
        return {
            "product": self.description,
            "weight": self.weight,
            "eigenvalues": [[n, rational_str(lam)] for n, lam in self.eigenvalues],
        }


# Every catalog product (D^r f)(D^s g) that is an eigenform, keyed
# (f, r, g, s), with the identity that makes it one: the sixteen pairs
# of PRODUCT_IDENTITIES in their order, then the two products involving
# a derivative.
_EXPECTED_PRODUCT_RESULTS: dict[tuple[str, int, str, int], str] = {
    **{
        (left, 0, right, 0): f"{left}*{right} = {result}"
        for left, right, result in PRODUCT_IDENTITIES
    },
    ("E4", 0, "E4", 1): "D(E4)*E4 = (1/2) D(E8)",
    ("E2", 0, "Delta12", 0): "E2*Delta12 = D(Delta12)",
}
EXPECTED_EIGEN_PRODUCTS = tuple(_EXPECTED_PRODUCT_RESULTS)


def product_search(prec: int = DEFAULT_PREC) -> tuple[list[ProductHit], VerificationReport]:
    """Test every unordered catalog product (D^r f)(D^s g), r, s <= 1,
    for eigenform-ness.

    Returns the passing candidates and a report comparing them against
    the classified list: each expected hit must be found and nothing else
    may pass.
    """
    start = time.perf_counter()
    report = VerificationReport("products")

    items: list[tuple[str, int, GradedSeries]] = []
    for name in CATALOG_NAMES:
        form = catalog_form(name, prec)
        items += [(name, 0, form), (name, 1, form.derivative())]

    def candidates():
        for i, (left_name, left_order, left_form) in enumerate(items):
            for right_name, right_order, right_form in items[i:]:
                key = (left_name, left_order, right_name, right_order)
                yield key, _product_label(*key), left_form * right_form

    skipped: list[str] = []
    hits = [
        ProductHit(*key, form.weight, result.eigenvalues)
        for key, form, result in _eigen_scan(candidates(), skipped)
    ]

    found = {hit.key: hit for hit in hits}
    for key, anchor in _EXPECTED_PRODUCT_RESULTS.items():
        hit = found.get(key)
        report.add(
            f"products.hit.{_product_label(*key)}",
            anchor,
            hit is not None,
            hit.to_json_dict() if hit else None,
        )
    unexpected = [hit for hit in hits if hit.key not in _EXPECTED_PRODUCT_RESULTS]
    report.add(
        "products.no_unexpected",
        "no catalog product is an eigenform outside the classified list",
        not unexpected,
        [hit.to_json_dict() for hit in unexpected],
    )
    report.add(
        "products.scan_complete",
        "every candidate was tested at full precision",
        not skipped,
        skipped,
    )

    report.runtime_seconds = time.perf_counter() - start
    return hits, report


# ---------------------------------------------------------------------------
# Bracket search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BracketHit:
    g: str
    h: str
    m: int
    weight: int
    eigenvalues: tuple[tuple[int, Fraction], ...]
    classification: str
    coordinates: tuple[Fraction, ...]

    @property
    def key(self) -> tuple[str, str, int]:
        return (self.g, self.h, self.m)

    @property
    def description(self) -> str:
        return f"[{self.g},{self.h}]_{self.m}"

    def to_json_dict(self) -> dict:
        return {
            "bracket": self.description,
            "weight": self.weight,
            "classification": self.classification,
            "coordinates": [rational_str(c) for c in self.coordinates],
            "eigenvalues": [[n, rational_str(lam)] for n, lam in self.eigenvalues],
        }


def bracket_search(prec: int = DEFAULT_PREC) -> tuple[list[BracketHit], VerificationReport]:
    """Eigenform scan over [g, h]_m, m <= 4, for modular catalog pairs up
    to the top catalog weight.

    Every hit must land on the Eisenstein line of its weight or in a
    one-dimensional cusp space; the m = 0 slice must reproduce exactly
    the modular product hits.
    """
    start = time.perf_counter()
    report = VerificationReport("brackets")

    entries = [(name, catalog_form(name, prec)) for name in CATALOG_NAMES if name != "E2"]
    top_weight = max(form.weight for _, form in entries)

    def candidates():
        for i, (g_name, g_form) in enumerate(entries):
            for h_name, h_form in entries[i:]:
                for m in range(5):
                    if g_form.weight + h_form.weight + 2 * m > top_weight:
                        continue
                    bracket = rankin_cohen(g_form, h_form, m)
                    if not bracket.is_zero():
                        yield (g_name, h_name, m), f"[{g_name},{h_name}]_{m}", bracket

    skipped: list[str] = []
    hits: list[BracketHit] = []
    for key, bracket, result in _eigen_scan(candidates(), skipped):
        weight = bracket.weight
        coords = is_modular_member(bracket, weight)
        if bracket[0] != 0:
            classification = "eisenstein-line"
            matches = bracket == eisenstein(weight, prec) * bracket[0]
        else:
            classification = "cusp"
            matches = (
                weight in DELTA_WEIGHTS
                and bracket == cusp_delta(weight, prec) * bracket[1]
            )
        hit = BracketHit(
            *key,
            weight,
            result.eigenvalues,
            classification,
            tuple(coords) if coords else (),
        )
        hits.append(hit)
        report.add(
            f"brackets.hit.{hit.description}",
            f"{hit.description} lies on the Eisenstein line or in a "
            f"one-dimensional cusp space of weight {weight}",
            matches and coords is not None,
            hit.to_json_dict(),
        )

    slice_m0 = {(hit.g, hit.h) for hit in hits if hit.m == 0}
    expected_m0 = {
        (key[0], key[2])
        for key in EXPECTED_EIGEN_PRODUCTS
        if key[1] == 0 and key[3] == 0 and key[0] != "E2"
    }
    report.add(
        "brackets.m0_matches_products",
        "the m = 0 bracket hits are exactly the modular eigenform products",
        slice_m0 == expected_m0,
        {
            "missing": sorted(map(str, expected_m0 - slice_m0)),
            "extra": sorted(map(str, slice_m0 - expected_m0)),
        },
    )

    e4e6_1 = rankin_cohen(
        catalog_form("E4", prec), catalog_form("E6", prec), 1
    )
    target = catalog_form("Delta12", prec) * (-3456)
    report.add(
        "brackets.e4_e6_1",
        "[E4,E6]_1 = -3456 * Delta12",
        e4e6_1 == target,
        _difference_witness(e4e6_1, target),
    )
    report.add(
        "brackets.scan_complete",
        "every bracket candidate was tested at full precision",
        not skipped,
        skipped,
    )

    report.runtime_seconds = time.perf_counter() - start
    return hits, report


# ---------------------------------------------------------------------------
# Diophantine scans
# ---------------------------------------------------------------------------

EQUATION_IDS = ("eq3", "eq4", "eq7", "quadratic")


def diophantine_check(equation: str) -> list:
    """Exact brute-force scan of one obstruction equation.

    eq3:  3^s (1 + 3^(k-1)) + 2^s + 28 = 2^(k+s-4) (2^s - 8)
    eq4:  5^s s_5 + 3^(s+1) s_3 + 2^(2s+1) s_2^2 + 7*2^(s+2) s_2
          - 3*2^(k+2s-1) + 78 = 0        (s_j = sigma_{k-1}(j))
    eq7:  2^(2r-3) + 4*3^r + 21*2^r - 212 = 0   (rational at r = 1)
    quadratic: records (k, r) where b^2 + 2^(2r+3)(2^k - 1) is a perfect
          square, with b = 4*3^r + 3*2^r(2^(k-1) - 1) + 1 + 3^(k-1), and
          flags as admissible those where a root (-b +- sqrt)/2 actually
          equals 2k/B_k.

    Returns the solutions found; the classification theorems predict all
    four scans come back empty of (admissible) solutions.
    """
    if equation == "eq3":
        return [
            (k, s)
            for k in range(4, 41, 2)
            for s in range(1, 41)
            if 3**s * (1 + 3 ** (k - 1)) + 2**s + 28
            == 2 ** (k + s - 4) * (2**s - 8)
        ]
    if equation == "eq4":
        out = []
        for k in range(4, 41, 2):
            s2, s3, s5 = sigma(k - 1, 2), sigma(k - 1, 3), sigma(k - 1, 5)
            for s in range(1, 41):
                value = (
                    5**s * s5
                    + 3 ** (s + 1) * s3
                    + 2 ** (2 * s + 1) * s2 * s2
                    + 7 * 2 ** (s + 2) * s2
                    - 3 * 2 ** (k + 2 * s - 1)
                    + 78
                )
                if value == 0:
                    out.append((k, s))
        return out
    if equation == "eq7":
        out = []
        for r in range(1, 65):
            value = (
                Fraction(2) ** (2 * r - 3) + 4 * 3**r + 21 * 2**r - 212
            )
            if value == 0:
                out.append((r,))
        return out
    if equation == "quadratic":
        records = []
        for k in (4, 6, 8, 10, 14):
            target = Fraction(2 * k) / bernoulli(k)
            for r in range(1, 41):
                b = 4 * 3**r + 3 * 2**r * (2 ** (k - 1) - 1) + 1 + 3 ** (k - 1)
                disc = b * b + 2 ** (2 * r + 3) * (2**k - 1)
                root = math.isqrt(disc)
                if root * root != disc:
                    continue
                plus = Fraction(-b + root, 2)
                minus = Fraction(-b - root, 2)
                records.append(
                    {
                        "k": k,
                        "r": r,
                        "perfect_square": True,
                        "roots": [plus, minus],
                        "target": target,
                        "admissible": target in (plus, minus),
                    }
                )
        return records
    raise ValueError(f"unknown equation id {equation!r}; expected one of {EQUATION_IDS}")


def verify_diophantine_suite() -> VerificationReport:
    start = time.perf_counter()
    report = VerificationReport("diophantine")
    eq3 = diophantine_check("eq3")
    report.add(
        "diophantine.eq3",
        "3^s(1+3^(k-1)) + 2^s + 28 = 2^(k+s-4)(2^s-8) has no solutions "
        "(even 4 <= k <= 40, 1 <= s <= 40)",
        not eq3,
        eq3,
    )
    eq4 = diophantine_check("eq4")
    report.add(
        "diophantine.eq4",
        "5^s*sigma_{k-1}(5) + 3^(s+1)*sigma_{k-1}(3) + 2^(2s+1)*sigma_{k-1}(2)^2 "
        "+ 7*2^(s+2)*sigma_{k-1}(2) - 3*2^(k+2s-1) + 78 = 0 has no solutions "
        "(even 4 <= k <= 40, 1 <= s <= 40)",
        not eq4,
        eq4,
    )
    eq7 = diophantine_check("eq7")
    report.add(
        "diophantine.eq7",
        "2^(2r-3) + 4*3^r + 21*2^r - 212 = 0 has no solutions (1 <= r <= 64)",
        not eq7,
        eq7,
    )
    quadratic = diophantine_check("quadratic")
    admissible = [rec for rec in quadratic if rec["admissible"]]
    report.add(
        "diophantine.quadratic",
        "no r makes b^2 + 2^(2r+3)(2^k-1) a perfect square with a root equal "
        "to 2k/B_k (k in {4,6,8,10,14}, 1 <= r <= 40)",
        not admissible,
        {"perfect_squares": quadratic, "admissible": admissible},
    )
    report.runtime_seconds = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# Coefficient separation of the catalog cusp forms
# ---------------------------------------------------------------------------


def ghitza_check() -> VerificationReport:
    """Distinct-weight normalized cusp eigenforms differ within n <= 4.

    At level one the separation bound 4*(log N + 1)^2 evaluates to 4, so
    each Delta_k (k != 12) must differ from Delta12 at some n <= 4.
    """
    start = time.perf_counter()
    report = VerificationReport("ghitza")
    bound = 4
    prec = 16
    delta12 = cusp_delta(12, prec)
    for k in DELTA_WEIGHTS:
        if k == 12:
            continue
        delta_k = cusp_delta(k, prec)
        witness = next(
            (n for n in range(1, prec + 1) if delta_k[n] != delta12[n]), None
        )
        report.add(
            f"ghitza.Delta{k}",
            f"Delta{k} and Delta12 differ at some n <= {bound}",
            witness is not None and witness <= bound,
            None
            if witness is None
            else {
                "n": witness,
                f"Delta{k}": delta_k[witness],
                "Delta12": delta12[witness],
            },
        )
    report.runtime_seconds = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# Suite dispatch
# ---------------------------------------------------------------------------

SUITE_NAMES = ("identities", "products", "brackets", "diophantine", "ghitza", "all")


def run_suite(suite: str, prec: int = DEFAULT_PREC) -> VerificationReport:
    """Run one named suite (or all of them) and return its report."""
    if suite == "identities":
        return verify_identity_suite(prec)
    if suite == "products":
        return product_search(prec=prec)[1]
    if suite == "brackets":
        return bracket_search(prec=prec)[1]
    if suite == "diophantine":
        return verify_diophantine_suite()
    if suite == "ghitza":
        return ghitza_check()
    if suite == "all":
        merged = VerificationReport("all")
        for name in SUITE_NAMES[:-1]:
            merged.merge(run_suite(name, prec))
        return merged
    raise ValueError(f"unknown suite {suite!r}; expected one of {SUITE_NAMES}")
