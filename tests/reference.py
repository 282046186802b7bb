"""Reference implementations the tests hold the engine to. Each shares no
code with the engine path it checks."""

from __future__ import annotations

import math
from fractions import Fraction

from modforms.hecke import EigenReport, Violation
from modforms.qseries import GradedSeries, QSeries
from modforms.verify import BracketHit, CheckRecord, ProductHit, VerificationReport


def mul_reference(f: QSeries, g: QSeries) -> QSeries:
    """Schoolbook Cauchy product over Fractions, to the common precision:
    the oracle for both product paths of QSeries.__mul__, which must agree
    with it bit for bit."""
    prec = min(f.prec, g.prec)
    out = []
    for m in range(prec + 1):
        out.append(sum((f[i] * g[m - i] for i in range(m + 1)), Fraction(0)))
    return QSeries(out, prec=prec)


def convolve_reference(a, b) -> list[int]:
    """The first len(a) coefficients of the product of two integer
    polynomials of equal length, by the schoolbook double loop: the oracle
    for the long product paths, where mul_reference's Fractions are slow."""
    out = [0] * len(a)
    for i, x in enumerate(a):
        for j in range(len(a) - i):
            out[i + j] += x * b[j]
    return out


def hecke_reference(coeffs, k: int, r: int, n: int) -> list[Fraction]:
    """b_0..b_{floor(prec/n)} of T_n on the Y^r component a_0..a_prec of a
    weight-k form, by the textbook sum

        b_m = n^r sum_{d | gcd(m, n)} d^(k-2r-1) a_{mn/d^2}

    over Fractions, one term at a time: the oracle for the integer Hecke
    kernel, where k - 2r - 1 may be negative."""
    return [
        n**r
        * sum(
            (Fraction(d) ** (k - 2 * r - 1) * coeffs[m * n // (d * d)]
             for d in range(1, n + 1) if n % d == 0 and m % d == 0),
            Fraction(0),
        )
        for m in range((len(coeffs) - 1) // n + 1)
    ]


def bernoulli_reference(k: int) -> Fraction:
    """B_k from the recurrence sum_{j<=m} C(m+1, j) B_j = 0 (m >= 1) over
    Fractions, B_1 = -1/2: the oracle for the tangent-number path of
    ``exactmath.bernoulli``."""
    values = [Fraction(1)]
    for m in range(1, k + 1):
        acc = sum(math.comb(m + 1, j) * values[j] for j in range(m) if values[j])
        values.append(Fraction(-acc, m + 1))
    return values[k]


def format_terms_reference(coeffs, max_terms: int | None = None) -> str:
    """The display text of a coefficient sequence, one Fraction at a time:
    the oracle for ``qseries._format_terms``."""
    parts: list[str] = []
    for m, c in enumerate(coeffs):
        if c == 0:
            continue
        if len(parts) == max_terms:
            parts.append("+ ...")
            break
        mag = abs(c)
        coeff_txt = str(mag) if mag.denominator == 1 else f"({mag})"
        power = "q" if m == 1 else f"q^{m}"
        body = coeff_txt if m == 0 else power if mag == 1 else f"{coeff_txt}*{power}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"{'-' if c < 0 else '+'} {body}")
    return " ".join(parts) if parts else "0"


def _rational_text(c: Fraction) -> str:
    return f"{c.numerator}/{c.denominator}"


def _series_form(s: QSeries) -> dict:
    return {"prec": s.prec, "coeffs": [_rational_text(s[i]) for i in range(s.prec + 1)]}


def json_form(value):
    """The dict form of a report value, which json.dumps(..., indent=2) turns
    into the CLI's --json text: a Fraction as "num/den", a series'
    coefficients from its Fractions, and each record under its keys in their
    order. The oracle for ``cli._json_text`` and ``cli._series_text``."""
    if isinstance(value, Fraction):
        return _rational_text(value)
    if isinstance(value, GradedSeries):
        return {"weight": value.weight, "series": _series_form(value)}
    if isinstance(value, QSeries):
        return _series_form(value)
    if isinstance(value, VerificationReport):
        return {
            "suite": value.suite,
            "checks": json_form(value.checks),
            "passed": value.passed,
            "failed": value.failed,
            "runtime_seconds": value.runtime_seconds,
        }
    if isinstance(value, CheckRecord):
        return {"id": value.check_id, "anchor": value.anchor, "pass": value.passed,
                "witness": json_form(value.witness)}
    if isinstance(value, ProductHit):
        return {"product": value.description, "weight": value.weight,
                "eigenvalues": json_form(value.eigenvalues)}
    if isinstance(value, BracketHit):
        return {
            "bracket": value.description,
            "weight": value.weight,
            "classification": value.classification,
            "coordinates": json_form(value.coordinates),
            "eigenvalues": json_form(value.eigenvalues),
        }
    if isinstance(value, Violation):
        fields = value._asdict()
        if value.y_power is None:
            del fields["y_power"]
        return {key: json_form(item) for key, item in fields.items()}
    if isinstance(value, EigenReport):
        return {key: json_form(item) for key, item in value._asdict().items()}
    if isinstance(value, dict):
        return {key: json_form(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_form(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"no JSON form for {type(value).__name__}")
