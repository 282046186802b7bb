"""Verification suites: identity checks, eigenform product and bracket
searches, Diophantine scans, and the coefficient-separation check, with
deterministic JSON reporting.

Every check record carries an ``anchor``: the mathematical claim being
verified, stated as a formula, so a failing record can be re-derived
from raw series without consulting anything else. Failing records always
include a concrete witness (a coefficient index or a parameter tuple).

The product and bracket scans decide each candidate from the integer
numerators of its first five coefficients, computed from the operands'
own by the product kernel or by rankin_cohen's integer core, and make a
series only for a candidate they yield (see _eigen_scan). A line's eigen
report goes into a table that run_suite makes per call and hands to both
scans, so each line is tested once per run; it holds reports, not series.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from functools import partial
from typing import NamedTuple, Sequence

from .brackets import _bracket_numerators, rankin_cohen
from .exactmath import bernoulli, sigma
from .forms import (
    CATALOG_NAMES,
    DELTA_WEIGHTS,
    catalog_form,
    cusp_delta,
    eisenstein,
    is_modular_member,
)
from .hecke import EigenReport, _first_miss, eigenform_test
from .nearly import constant_term, e2_star, maass_shimura
from .qseries import GradedSeries, PrecisionError, QSeries, _product, first_difference

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
]

DEFAULT_PREC = 128


class CheckRecord(NamedTuple):
    check_id: str
    anchor: str
    passed: bool
    witness: object = None


class VerificationReport:
    """One suite's outcome: named checks, totals and runtime."""

    def __init__(
        self, suite: str, checks: list[CheckRecord] | None = None, runtime_seconds: float = 0.0
    ):
        self.suite = suite
        self.checks = [] if checks is None else checks
        self.runtime_seconds = runtime_seconds

    def __repr__(self) -> str:
        return (
            f"VerificationReport(suite={self.suite!r}, checks={self.checks!r}, "
            f"runtime_seconds={self.runtime_seconds!r})"
        )

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
        "eigenvalues": report.eigenvalues[:head],
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


# The derivative identities D(f) = (E2*f - g)/c of the generators f, as
# (anchor, g, c); E4^2 is the product kept from PRODUCT_IDENTITIES.
_DERIVATIVE_SYSTEM = {
    "E2": ("D(E2) = (E2^2 - E4)/12", "E4", 12),
    "E4": ("D(E4) = (E2*E4 - E6)/3", "E6", 3),
    "E6": ("D(E6) = (E2*E6 - E4^2)/2", "E4^2", 2),
}

# The eigenform verdicts the suite reports, in order: label -> expected.
_EIGEN_EXPECTED = {
    "E2*Delta12": True,
    "E2star": True,
    "E2^2": False,
    **{f"E2*{name}": False for name in ("E4", "E6", "E8", "E10", "E14")},
}


def _equality(check_id: str, anchor: str, left: GradedSeries, right: GradedSeries):
    return check_id, anchor, left == right, _difference_witness(left, right)


def verify_identity_suite(prec: int = DEFAULT_PREC) -> VerificationReport:
    """Every coefficientwise identity plus the eigen/not-eigen classifications.

    E2star*f is built once per catalog form f, and its Y^0 component is
    E2*f. Each check keeps only its record, so no product outlives the
    form it belongs to; records come in a fixed order.
    """
    if prec < 128:
        raise ValueError("the identity suite is specified for prec >= 128")
    start = time.perf_counter()
    report = VerificationReport("identities")
    forms = {name: catalog_form(name, prec) for name in CATALOG_NAMES}

    for left, right, result in PRODUCT_IDENTITIES:
        product = forms[left] * forms[right]
        if left == right == "E4":
            forms["E4^2"] = product
        anchor = f"{left}*{right} = {result}"
        report.add(*_equality(f"identities.product.{left}*{right}", anchor, product, forms[result]))

    estar = e2_star(prec)
    derivatives, nearly, reductions = [], [], []
    eigen = {"E2star": eigenform_test(estar)}
    for name in CATALOG_NAMES:
        form = forms[name]
        k = form.weight
        star = estar * form
        e2_form = constant_term(star)
        if name in _DERIVATIVE_SYSTEM:
            anchor, subtrahend, divisor = _DERIVATIVE_SYSTEM[name]
            right_form = (e2_form - forms[subtrahend]) * Fraction(1, divisor)
            check_id = f"identities.derivative.D{name}"
            derivatives.append(_equality(check_id, anchor, form.derivative(), right_form))
        label = "E2^2" if name == "E2" else f"E2*{name}"
        if label in _EIGEN_EXPECTED:
            eigen[label] = eigenform_test(e2_form)
        if name == "E2":
            continue
        raised = maass_shimura(form)
        if name == "Delta12":
            anchor = "D(Delta12) = E2*Delta12"
            derivatives.append(
                _equality("identities.derivative.DDelta12", anchor, form.derivative(), e2_form)
            )
            nearly.append((
                "identities.nearly.delta12",
                "raising Delta12 by one weight step gives E2star*Delta12",
                raised == star,
                None if raised == star else {"note": "Y-components differ"},
            ))
        reduced = raised - star * Fraction(k, 12)
        coords = None
        if reduced.depth == 0:
            coords = is_modular_member(constant_term(reduced), k + 2)
        reductions.append((
            f"identities.nearly.reduction.{name}",
            f"raised {name} minus ({k}/12)*E2star*{name} is holomorphic of weight {k + 2}",
            coords is not None,
            {"depth": reduced.depth, "coordinates": coords},
        ))

    e4 = forms["E4"]
    lhs = e4.derivative() * e4
    rhs = forms["E8"].derivative() * Fraction(1, 2)
    anchor = "D(E4)*E4 = (1/2) D(E8)"
    derivatives.append(_equality("identities.derivative.DE4*E4", anchor, lhs, rhs))
    for record in derivatives + nearly + reductions:
        report.add(*record)

    for label, should_pass in _EIGEN_EXPECTED.items():
        result = eigen[label]
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


# The prefix precision of the eigen scans' sieve, and the precision the
# full eigenform test needs at its default bound 10 and window 12.
_SIEVE_PREC = 4
_FULL_TEST_PREC = 120


class _Prefix(NamedTuple):
    """A scan candidate's weight and first _SIEVE_PREC + 1 coefficients, as
    integer numerators over one denominator, not in lowest terms: what the
    sieve and the line comparison read, in place of a series."""

    weight: int
    numerators: Sequence[int]
    denominator: int


def _line(weight: int, a0, prec: int) -> tuple[str, GradedSeries | None]:
    """(classification, L): the line L of weight at prec that a form of that
    weight with constant term a0 would be on: E_k if a0 != 0, else Delta_k
    (None unless dim S_k = 1)."""
    if a0:
        return "eisenstein-line", eisenstein(weight, prec)
    return "cusp", cusp_delta(weight, prec) if weight in DELTA_WEIGHTS else None


def _line_verdict(prefix: _Prefix, prec: int, line_reports: dict):
    """(c, the eigen report of L) if prefix is c*L on a_0.._SIEVE_PREC for
    the line L of its weight at prec (see _line), else (None, None): with c
    = a_j/L_j for j = 0 on the Eisenstein line and j = 1 on a cusp line,
    that is a_i L_j = L_i a_j for each i, in numerators. L's report comes
    from line_reports, keyed (classification, weight, prec), and is made
    there by L's own test the first time it is asked for."""
    nums, weight = prefix.numerators, prefix.weight
    kind, line = _line(weight, nums[0], prec)
    if line is None:
        return None, None
    j, ell = (0 if nums[0] else 1), line.numerators
    if any(a * ell[j] != b * nums[j] for a, b in zip(nums, ell)):
        return None, None
    key = (kind, weight, prec)
    if key not in line_reports:
        line_reports[key] = eigenform_test(line)
    return Fraction(nums[j], prefix.denominator), line_reports[key]


def _eigen_scan(candidates, prec: int, skipped: dict, line_reports: dict | None):
    """Decide each (key, label, prefix, build, modular) candidate: prefix is
    its _Prefix, build(p) builds it at precision p, and ``modular`` marks a
    modular form (see the scans).

    A zero prefix drops a candidate: a product of nonzero catalog forms has
    order at most 2, and a bracket has weight at most 26, so by Sturm's
    bound it is zero once a_0..a_2 vanish. A prefix that fails T_2 on
    exponents 0..2 (reading a_0..a_4; see _sieve_passes) drops it too, with
    the first violation the full test would find; every catalog candidate
    whose prefix passes is an eigenform. Both read the prefix's integers.

    A modular candidate of weight k, k // 12 <= _SIEVE_PREC, whose prefix is
    c*L on a_0..a_4 is c*L by Sturm's bound (see _line_verdict). It takes
    L's report unbuilt, as T_n(cL) = c T_n(L), and counts as tested at full
    precision in scan_complete, since L is tested in full, once for all the
    scans that share line_reports (a new table if None). Every other pass,
    and one on a line whose own test fails, is built in full and tested
    itself. Below _FULL_TEST_PREC the sieve and line verdicts are off: each
    nonzero candidate records its PrecisionError.

    Yields (key, form, report, c) for each candidate in order: form is the
    prefix as a series for a line verdict and the full build otherwise, c
    as in _line_verdict or None off a line, and all None for a dropped one.
    A candidate whose precision is too low maps its key to a line in
    ``skipped`` instead. No series is made for a dropped candidate, and the
    caller drops each form before the next.
    """
    sieve = prec >= _FULL_TEST_PREC
    line_reports = {} if line_reports is None else line_reports
    for key, label, prefix, build, modular in candidates:
        if not any(prefix.numerators) or (sieve and not _sieve_passes(prefix)):
            yield key, None, None, None
            continue
        scale = result = None
        if sieve and modular and prefix.weight // 12 <= _SIEVE_PREC:
            scale, result = _line_verdict(prefix, prec, line_reports)
        if result is not None and result.is_eigen_up_to_bound:
            series = QSeries.from_numerators(prefix.numerators, prefix.denominator)
            yield key, GradedSeries(series, prefix.weight), result, scale
            continue
        form = build(prec)
        try:
            result = eigenform_test(form)
        except PrecisionError as exc:
            skipped[key] = f"{label}: {exc}"
            continue
        yield key, form, result, scale


def _sieve_passes(prefix) -> bool:
    """eigenform_test(prefix, 2, _SIEVE_PREC // 2).is_eigen_up_to_bound for a
    nonzero prefix of _SIEVE_PREC + 1 coefficients (a _Prefix, or a series
    of that precision), read off its numerators by the test's own T_2
    comparison on exponents 0.._SIEVE_PREC // 2, which a common factor of
    the numerators does not change."""
    nums = prefix.numerators
    m0 = next(m for m, a in enumerate(nums) if a)
    count = _SIEVE_PREC // 2 + 1
    return m0 >= count or _first_miss((nums,), prefix.weight, 2, count, (m0, 0))[3] is None


def _truncated_product(
    left: GradedSeries, left_deriv: int, right: GradedSeries, right_deriv: int, prec: int
) -> GradedSeries:
    """(D^left_deriv left)(D^right_deriv right) to prec, each D taken on the
    truncated operand."""
    left, right = left.truncate(prec), right.truncate(prec)
    return (left.derivative() if left_deriv else left) * (right.derivative() if right_deriv else right)


def _truncated_bracket(g: GradedSeries, h: GradedSeries, m: int, prec: int) -> GradedSeries:
    return rankin_cohen(g.truncate(prec), h.truncate(prec), m)


def _deriv_label(name: str, order: int) -> str:
    return f"D({name})" if order else name


def _product_label(left: str, left_deriv: int, right: str, right_deriv: int) -> str:
    return f"{_deriv_label(left, left_deriv)}*{_deriv_label(right, right_deriv)}"


class ProductHit(NamedTuple):
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


def _product_candidates(prec: int):
    """The (key, label, prefix, build, modular) candidates of the product
    scan: a prefix is the kernel's product of the operands' first
    numerators, those of D f being j*a_j, and a product is modular when
    neither operand has a D or is E2. Only build takes a full derivative."""
    items: list[tuple[str, int, GradedSeries, Sequence[int]]] = []
    for name in CATALOG_NAMES:
        form = catalog_form(name, prec)
        head = form.numerators[: _SIEVE_PREC + 1]
        items.append((name, 0, form, head))
        items.append((name, 1, form, [j * a for j, a in enumerate(head)]))
    for i, (left_name, left_order, left, left_head) in enumerate(items):
        for right_name, right_order, right, right_head in items[i:]:
            key = (left_name, left_order, right_name, right_order)
            modular = not (left_order or right_order) and "E2" not in key
            prefix = _Prefix(
                left.weight + right.weight + 2 * (left_order + right_order),
                _product(left_head, right_head),
                left.denominator * right.denominator,
            )
            build = partial(_truncated_product, left, left_order, right, right_order)
            yield key, _product_label(*key), prefix, build, modular


def product_search(
    prec: int = DEFAULT_PREC, line_reports: dict | None = None
) -> tuple[list[ProductHit], VerificationReport]:
    """Test every unordered catalog product (D^r f)(D^s g), r, s <= 1,
    for eigenform-ness.

    Returns the passing candidates and a report comparing them against
    the classified list: each expected hit must be found and nothing else
    may pass (``scan_complete``: see _eigen_scan). line_reports is the
    table of line reports the scan reads and fills (see _line_verdict);
    without one, the scan makes its own.
    """
    start = time.perf_counter()
    report = VerificationReport("products")

    skipped: dict[tuple, str] = {}
    hits = []
    for key, form, result, _ in _eigen_scan(_product_candidates(prec), prec, skipped, line_reports):
        if result is not None and result.is_eigen_up_to_bound:
            hits.append(ProductHit(*key, form.weight, result.eigenvalues))

    # A missed hit's witness is the line the scan skipped it with, or else its key.
    found = {hit.key: hit for hit in hits}
    for key, anchor in _EXPECTED_PRODUCT_RESULTS.items():
        hit = found.get(key)
        report.add(
            f"products.hit.{_product_label(*key)}",
            anchor,
            hit is not None,
            hit or skipped.get(key, key),
        )
    unexpected = [hit for hit in hits if hit.key not in _EXPECTED_PRODUCT_RESULTS]
    report.add(
        "products.no_unexpected",
        "no catalog product is an eigenform outside the classified list",
        not unexpected,
        unexpected,
    )
    report.add(
        "products.scan_complete",
        "every candidate was tested at full precision",
        not skipped,
        list(skipped.values()),
    )

    report.runtime_seconds = time.perf_counter() - start
    return hits, report


# ---------------------------------------------------------------------------
# Bracket search
# ---------------------------------------------------------------------------


class BracketHit(NamedTuple):
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


def _bracket_candidates(prec: int):
    """The (key, label, prefix, build, modular) candidates of the bracket
    scan: [g, h]_m, m <= 4, for modular catalog pairs up to the top catalog
    weight. A prefix is rankin_cohen's integer core on the operands' first
    numerators. Each is modular: a bracket of modular forms is one."""
    entries = []
    for name in CATALOG_NAMES:
        if name != "E2":
            form = catalog_form(name, prec)
            entries.append((name, form, form.numerators[: _SIEVE_PREC + 1]))
    top_weight = max(g.weight for _, g, _ in entries)
    for i, (g_name, g, g_head) in enumerate(entries):
        for h_name, h, h_head in entries[i:]:
            for m in range(5):
                weight = g.weight + h.weight + 2 * m
                if weight <= top_weight:
                    nums = _bracket_numerators(g_head, h_head, g.weight, h.weight, m)
                    prefix = _Prefix(weight, nums, g.denominator * h.denominator)
                    build = partial(_truncated_bracket, g, h, m)
                    yield (g_name, h_name, m), f"[{g_name},{h_name}]_{m}", prefix, build, True


def bracket_search(
    prec: int = DEFAULT_PREC, line_reports: dict | None = None
) -> tuple[list[BracketHit], VerificationReport]:
    """Eigenform scan over [g, h]_m, m <= 4, for modular catalog pairs up
    to the top catalog weight.

    Every hit must land on the Eisenstein line of its weight or in a
    one-dimensional cusp space, and a hit c*f on such a line f (c from the
    scan's comparison) takes c times the coordinates of f, solved once per
    line; the m = 0 slice must be exactly the modular product hits
    (``scan_complete``: see _eigen_scan). line_reports is as in
    product_search.
    """
    start = time.perf_counter()
    report = VerificationReport("brackets")

    skipped: dict[tuple, str] = {}
    hits: list[BracketHit] = []
    lines: dict[tuple[int, str], list[Fraction] | None] = {}  # coordinates of each line
    scan = _eigen_scan(_bracket_candidates(prec), prec, skipped, line_reports)
    for key, bracket, result, scale in scan:
        if result is None or not result.is_eigen_up_to_bound:
            continue
        weight = bracket.weight
        classification, line = _line(weight, bracket[0], prec)
        if scale is not None:
            if (weight, classification) not in lines:
                lines[weight, classification] = is_modular_member(line, weight)
            line_coords = lines[weight, classification]
            coords = None if line_coords is None else [c * scale for c in line_coords]
        else:
            coords = is_modular_member(bracket, weight)
        hit = BracketHit(*key, weight, result.eigenvalues, classification, tuple(coords or ()))
        hits.append(hit)
        report.add(
            f"brackets.hit.{hit.description}",
            f"{hit.description} lies on the Eisenstein line or in a "
            f"one-dimensional cusp space of weight {weight}",
            scale is not None and coords is not None,
            hit,
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

    e4e6_1 = rankin_cohen(catalog_form("E4", prec), catalog_form("E6", prec), 1)
    target = catalog_form("Delta12", prec) * (-3456)
    report.add(*_equality("brackets.e4_e6_1", "[E4,E6]_1 = -3456 * Delta12", e4e6_1, target))
    report.add(
        "brackets.scan_complete",
        "every bracket candidate was tested at full precision",
        not skipped,
        list(skipped.values()),
    )

    report.runtime_seconds = time.perf_counter() - start
    return hits, report


# ---------------------------------------------------------------------------
# Diophantine scans
# ---------------------------------------------------------------------------


# The scans of eq3, eq4 and eq7 yield each parameter tuple with the integer
# value there of the equation's one side minus the other. Each power of s
# or r is the previous one times its base.


def _eq3_values():
    """((k, s), lhs - rhs) of eq3, as 3^s c + 2^s + 28 - 2^(k-4) 2^s (2^s - 8)
    with c = 1 + 3^(k-1)."""
    for k in range(4, 41, 2):
        c, top = 1 + 3 ** (k - 1), 2 ** (k - 4)
        two = three = 1
        for s in range(1, 41):
            two *= 2
            three *= 3
            yield (k, s), three * c + two + 28 - top * two * (two - 8)


def _eq4_values():
    """((k, s), the left side of eq4), with 2^(2s+1) = 2 (2^s)^2, 2^(s+2) =
    4 2^s and 2^(k+2s-1) = 2^(k-1) (2^s)^2."""
    for k in range(4, 41, 2):
        s2, s3, s5 = sigma(k - 1, 2), sigma(k - 1, 3), sigma(k - 1, 5)
        square, linear = 2 * s2 * s2 - 3 * 2 ** (k - 1), 28 * s2
        two = three = five = 1
        for s in range(1, 41):
            two *= 2
            three *= 3
            five *= 5
            yield (k, s), five * s5 + 3 * three * s3 + two * (two * square + linear) + 78


def _eq7_values():
    """((r,), twice the left side of eq7): 2^(2r-2) + 8*3^r + 42*2^r - 424,
    an integer from r = 1 on."""
    four, three, two = 1, 3, 2
    for r in range(1, 65):
        yield (r,), four + 8 * three + 42 * two - 424
        four *= 4
        three *= 3
        two *= 2


def _solutions(values) -> list:
    """The parameters at which the scan values() reads 0."""
    return [params for params, value in values() if value == 0]


def _quadratic() -> list:
    records = []
    for k in (4, 6, 8, 10, 14):
        target = Fraction(2 * k) / bernoulli(k)
        for r in range(1, 41):
            b = 4 * 3**r + 3 * 2**r * (2 ** (k - 1) - 1) + 1 + 3 ** (k - 1)
            disc = b * b + 2 ** (2 * r + 3) * (2**k - 1)
            root = math.isqrt(disc)
            if root * root != disc:
                continue
            roots = [Fraction(-b + root, 2), Fraction(-b - root, 2)]
            records.append({
                "k": k, "r": r, "perfect_square": True, "roots": roots,
                "target": target, "admissible": target in roots,
            })
    return records


# Each obstruction equation by id: the anchor its check reports, and its scan.
_EQUATIONS = {
    "eq3": (
        "3^s(1+3^(k-1)) + 2^s + 28 = 2^(k+s-4)(2^s-8) has no solutions "
        "(even 4 <= k <= 40, 1 <= s <= 40)",
        partial(_solutions, _eq3_values),
    ),
    "eq4": (
        "5^s*sigma_{k-1}(5) + 3^(s+1)*sigma_{k-1}(3) + 2^(2s+1)*sigma_{k-1}(2)^2 "
        "+ 7*2^(s+2)*sigma_{k-1}(2) - 3*2^(k+2s-1) + 78 = 0 has no solutions "
        "(even 4 <= k <= 40, 1 <= s <= 40)",
        partial(_solutions, _eq4_values),
    ),
    "eq7": (
        "2^(2r-3) + 4*3^r + 21*2^r - 212 = 0 has no solutions (1 <= r <= 64)",
        partial(_solutions, _eq7_values),
    ),
    "quadratic": (
        "no r makes b^2 + 2^(2r+3)(2^k-1) a perfect square with a root equal "
        "to 2k/B_k (k in {4,6,8,10,14}, 1 <= r <= 40)",
        _quadratic,
    ),
}
EQUATION_IDS = tuple(_EQUATIONS)


def diophantine_check(equation: str) -> list:
    """Exact brute-force scan of one obstruction equation.

    eq3:  3^s (1 + 3^(k-1)) + 2^s + 28 = 2^(k+s-4) (2^s - 8)
    eq4:  5^s s_5 + 3^(s+1) s_3 + 2^(2s+1) s_2^2 + 7*2^(s+2) s_2
          - 3*2^(k+2s-1) + 78 = 0        (s_j = sigma_{k-1}(j))
    eq7:  2^(2r-3) + 4*3^r + 21*2^r - 212 = 0   (rational at r = 1, so
          scanned doubled: 2^(2r-2) + 8*3^r + 42*2^r - 424 = 0)
    quadratic: records (k, r) where b^2 + 2^(2r+3)(2^k - 1) is a perfect
          square, with b = 4*3^r + 3*2^r(2^(k-1) - 1) + 1 + 3^(k-1), and
          flags as admissible those where a root (-b +- sqrt)/2 actually
          equals 2k/B_k.

    Returns the solutions found; the classification theorems predict all
    four scans come back empty of (admissible) solutions.
    """
    if equation not in _EQUATIONS:
        raise ValueError(f"unknown equation id {equation!r}; expected one of {EQUATION_IDS}")
    return _EQUATIONS[equation][1]()


def verify_diophantine_suite() -> VerificationReport:
    """One check per equation of _EQUATIONS, in its order: it passes when
    the scan finds nothing (for quadratic, no admissible record), and its
    witness is what was found."""
    start = time.perf_counter()
    report = VerificationReport("diophantine")
    for equation, (anchor, scan) in _EQUATIONS.items():
        found = witness = scan()
        if equation == "quadratic":
            found = [rec for rec in witness if rec["admissible"]]
            witness = {"perfect_squares": witness, "admissible": found}
        report.add(f"diophantine.{equation}", anchor, not found, witness)
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
        witness = first_difference(delta_k, delta12)  # both a_0 are 0
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
    """Run one named suite, or all of them in order, and return its report.
    The product and bracket scans share one table of line reports, made
    for this call and dropped with it, so each line is tested once."""
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITE_NAMES}")
    if prec < 0:
        raise ValueError("prec must be >= 0")
    line_reports: dict = {}  # the scans' line reports, kept for this call only
    runs = {
        "identities": lambda: verify_identity_suite(prec),
        "products": lambda: product_search(prec, line_reports)[1],
        "brackets": lambda: bracket_search(prec, line_reports)[1],
        "diophantine": verify_diophantine_suite,
        "ghitza": ghitza_check,
    }
    if suite != "all":
        return runs[suite]()
    merged = VerificationReport("all")
    for run in runs.values():
        merged.merge(run())
    return merged
