"""The level-one catalog: Eisenstein series, monomial bases of C[E4,E6],
normalized cusp forms, exact membership tests against M_k, and evaluation
of polynomials in the quasimodular generators E2, E4, E6.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence, Union

from .exactmath import as_rational, bernoulli, sigma, solve_linear
from .qseries import GradedSeries, PrecisionError, QSeries

__all__ = [
    "eisenstein",
    "dim_modular",
    "monomial_exponents",
    "monomial_basis",
    "weight_basis",
    "DELTA_WEIGHTS",
    "cusp_delta",
    "span_coordinates",
    "is_modular_member",
    "GeneratorPoly",
    "eval_generator_poly",
    "FormCatalogEntry",
    "CATALOG_NAMES",
    "catalog",
    "catalog_form",
]


@lru_cache(maxsize=None)
def eisenstein(k: int, prec: int) -> GradedSeries:
    """Weight-k Eisenstein series 1 - (2k/B_k) sum sigma_{k-1}(m) q^m.

    k = 2 gives the quasimodular E2; k >= 4 the modular series.
    """
    if k < 2 or k % 2 != 0:
        raise ValueError(f"Eisenstein series requires even k >= 2, got {k}")
    factor = -Fraction(2 * k) / bernoulli(k)
    coeffs = [Fraction(1)]
    coeffs.extend(factor * sigma(k - 1, m) for m in range(1, prec + 1))
    return GradedSeries(QSeries(coeffs, prec=prec), k)


def monomial_exponents(k: int) -> list[tuple[int, int]]:
    """All (a, b) with 4a + 6b = k, ordered by descending a."""
    out = []
    for a in range(k // 4, -1, -1):
        rest = k - 4 * a
        if rest % 6 == 0:
            out.append((a, rest // 6))
    return out


def dim_modular(k: int) -> int:
    """dim M_k at level one, counted directly from the monomial basis."""
    if k < 0 or k % 2 != 0:
        return 0
    if k == 0:
        return 1
    return len(monomial_exponents(k))


@lru_cache(maxsize=None)
def _e4_power(a: int, prec: int) -> GradedSeries:
    if a == 0:
        return GradedSeries(QSeries.one(prec), 0)
    return _e4_power(a - 1, prec) * eisenstein(4, prec)


@lru_cache(maxsize=None)
def _e6_power(b: int, prec: int) -> GradedSeries:
    if b == 0:
        return GradedSeries(QSeries.one(prec), 0)
    return _e6_power(b - 1, prec) * eisenstein(6, prec)


@lru_cache(maxsize=None)
def monomial_basis(k: int, prec: int) -> tuple[GradedSeries, ...]:
    """The basis E4^a E6^b (4a + 6b = k, a descending) of M_k, k >= 4 even."""
    if k < 4 or k % 2 != 0:
        raise ValueError(f"monomial basis requires even k >= 4, got {k}")
    return tuple(
        _e4_power(a, prec) * _e6_power(b, prec) for a, b in monomial_exponents(k)
    )


def weight_basis(k: int, prec: int) -> tuple[GradedSeries, ...]:
    """Basis of M_k for any even k >= 0; empty for k = 2 (and odd k)."""
    if k == 0:
        return (GradedSeries(QSeries.one(prec), 0),)
    if k < 0 or k % 2 != 0 or k == 2:
        return ()
    return monomial_basis(k, prec)


# Weights whose cusp space is one dimensional, carrying a unique
# normalized cusp form.
DELTA_WEIGHTS = (12, 16, 18, 20, 22, 26)


@lru_cache(maxsize=None)
def cusp_delta(k: int, prec: int) -> GradedSeries:
    """The unique normalized cusp form of weight k in {12,16,18,20,22,26}.

    Constructed by solving a_0 = 0, a_1 = 1 over the monomial basis, not
    from the product identities it is later used to verify.
    """
    if k not in DELTA_WEIGHTS:
        raise ValueError(f"no one-dimensional cusp space catalogued at weight {k}")
    if prec < 1:
        raise ValueError("cusp form construction needs prec >= 1")
    basis = monomial_basis(k, prec)
    rows = [[b[0] for b in basis], [b[1] for b in basis]]
    coords = solve_linear(rows, [0, 1])
    if coords is None:
        raise RuntimeError(f"normalization system for weight {k} is inconsistent")
    return GradedSeries(_combination([b.series for b in basis], coords, prec), k)


def _combination(columns: Sequence[QSeries], coords, prec: int) -> QSeries:
    total = QSeries.zero(prec)
    for c, column in zip(coords, columns):
        total = total + column * c
    return total


def span_coordinates(
    columns: Sequence[QSeries], target: QSeries, window: int
) -> Optional[list[Fraction]]:
    """Exact coordinates of target in the span of columns, or None.

    The system is solved on coefficients 0..window only; the combination
    is then re-checked against every certified coefficient of target, so
    a pseudo-solution that fails beyond the window is reported as None
    rather than accepted. When the columns are independent on the window
    the coordinates are unique, and None means target is outside the span.
    """
    rows = [[column[m] for column in columns] for m in range(window + 1)]
    coords = solve_linear(rows, [target[m] for m in range(window + 1)])
    if coords is None or _combination(columns, coords, target.prec) != target:
        return None
    return coords


def is_modular_member(
    f: Union[QSeries, GradedSeries], k: int, margin: int = 10
) -> Optional[list[Fraction]]:
    """Exact coordinates of f in the monomial basis of M_k, or None.

    The coordinates are solved on the first dim M_k + margin + 1
    coefficients, which determine a form in M_k, and then re-checked
    against every certified coefficient of f (see span_coordinates).
    """
    series = f.series if isinstance(f, GradedSeries) else f
    if k < 0 or k % 2 != 0:
        raise ValueError(f"membership is tested against even weights, got {k}")
    basis = weight_basis(k, series.prec)
    if not basis:
        if series.is_zero():
            return []
        raise ValueError(
            f"M_{k} is zero-dimensional; a nonzero series cannot belong to it"
        )
    window = len(basis) + margin
    if series.prec < window:
        raise PrecisionError(
            f"membership test in M_{k} needs precision >= {window}, "
            f"have {series.prec}"
        )
    return span_coordinates([b.series for b in basis], series, window)


# ---------------------------------------------------------------------------
# Polynomials in the generators E2, E4, E6
# ---------------------------------------------------------------------------

_GENERATOR_WEIGHTS = (2, 4, 6)
_GENERATOR_NAMES = ("E2", "E4", "E6")


class GeneratorPoly:
    """Polynomial in E2, E4, E6 with rational coefficients.

    Terms map exponent triples (i, j, l) for E2^i E4^j E6^l to nonzero
    coefficients. The weight of a monomial is 2i + 4j + 6l and its depth
    is the E2-degree i.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict):
        self._terms = {
            exps: as_rational(c) for exps, c in terms.items() if c != 0
        }

    @classmethod
    def constant(cls, value) -> "GeneratorPoly":
        return cls({(0, 0, 0): as_rational(value)})

    @classmethod
    def generator(cls, name: str) -> "GeneratorPoly":
        if name not in _GENERATOR_NAMES:
            raise ValueError(f"unknown generator {name!r}")
        exps = [0, 0, 0]
        exps[_GENERATOR_NAMES.index(name)] = 1
        return cls({tuple(exps): Fraction(1)})

    @property
    def terms(self) -> dict:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(e == (0, 0, 0) for e in self._terms)

    def monomials(self) -> list[tuple[tuple[int, int, int], Fraction]]:
        return sorted(self._terms.items(), reverse=True)

    def __add__(self, other: "GeneratorPoly") -> "GeneratorPoly":
        terms = dict(self._terms)
        for e, c in other._terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return GeneratorPoly(terms)

    def __sub__(self, other: "GeneratorPoly") -> "GeneratorPoly":
        return self + (-other)

    def __neg__(self) -> "GeneratorPoly":
        return GeneratorPoly({e: -c for e, c in self._terms.items()})

    def __mul__(self, other: "GeneratorPoly") -> "GeneratorPoly":
        terms: dict = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
        return GeneratorPoly(terms)

    def __pow__(self, exponent: int) -> "GeneratorPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers require a nonnegative integer")
        result = GeneratorPoly.constant(1)
        for _ in range(exponent):
            result = result * self
        return result

    def __truediv__(self, other: "GeneratorPoly") -> "GeneratorPoly":
        if not other.is_constant() or other.is_zero():
            raise ValueError("division is only defined by a nonzero constant")
        inv = Fraction(1) / other._terms[(0, 0, 0)]
        return GeneratorPoly({e: c * inv for e, c in self._terms.items()})

    def monomial_weights(self) -> dict[tuple[int, int, int], int]:
        return {
            e: sum(x * w for x, w in zip(e, _GENERATOR_WEIGHTS))
            for e in self._terms
        }

    def is_homogeneous(self) -> bool:
        return len(set(self.monomial_weights().values())) <= 1

    def weight(self) -> Optional[int]:
        """Homogeneous weight; None when monomials mix weights. Zero poly: 0."""
        weights = set(self.monomial_weights().values())
        if not weights:
            return 0
        if len(weights) > 1:
            return None
        return weights.pop()

    def depth(self) -> int:
        """Maximal E2-degree across monomials."""
        return max((e[0] for e in self._terms), default=0)

    def evaluate(self, prec: int) -> Union[GradedSeries, QSeries]:
        """q-expansion of the polynomial; graded when weight-homogeneous."""
        total = QSeries.zero(prec)
        for (i, j, l), c in self.monomials():
            term = QSeries.constant(c, prec)
            if i:
                term = term * (eisenstein(2, prec).series ** i)
            if j:
                term = term * _e4_power(j, prec).series
            if l:
                term = term * _e6_power(l, prec).series
            total = total + term
        w = self.weight()
        if w is None:
            return total
        return GradedSeries(total, w)

    @classmethod
    def parse(cls, text: str) -> "GeneratorPoly":
        return _PolyParser(text).parse()

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for e, c in self.monomials():
            factors = [
                name if x == 1 else f"{name}^{x}"
                for name, x in zip(_GENERATOR_NAMES, e)
                if x
            ]
            body = "*".join(factors) if factors else "1"
            if c == 1 and factors:
                parts.append(body)
            elif c == -1 and factors:
                parts.append(f"-{body}")
            else:
                coeff = (
                    str(c) if c.denominator == 1 else f"({c.numerator}/{c.denominator})"
                )
                parts.append(coeff if not factors else f"{coeff}*{body}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"GeneratorPoly({self})"


_TOKEN_RE = re.compile(r"\s*(?:(?P<int>\d+)|(?P<sym>E[246])|(?P<op>\*\*|[()^*/+\-]))")


class _PolyParser:
    """Recursive-descent parser for the tiny generator-polynomial grammar.

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*        -- '/' needs a constant divisor
    unary  := ('+'|'-')* power
    power  := atom (('^'|'**') INT)?
    atom   := INT | 'E2' | 'E4' | 'E6' | '(' expr ')'
    """

    def __init__(self, text: str):
        self._text = text
        self._tokens = self._tokenize(text)
        self._pos = 0

    @staticmethod
    def _tokenize(text: str) -> list[str]:
        tokens = []
        pos = 0
        while pos < len(text):
            match = _TOKEN_RE.match(text, pos)
            if match is None:
                remainder = text[pos:].strip()
                if not remainder:
                    break
                raise ValueError(
                    f"unexpected input at {remainder[:12]!r} in generator polynomial"
                )
            tokens.append(match.group(match.lastgroup))
            pos = match.end()
        return tokens

    def _peek(self) -> Optional[str]:
        return self._tokens[self._pos] if self._pos < len(self._tokens) else None

    def _next(self) -> str:
        token = self._peek()
        if token is None:
            raise ValueError("unexpected end of generator polynomial")
        self._pos += 1
        return token

    def parse(self) -> GeneratorPoly:
        result = self._expr()
        if self._peek() is not None:
            raise ValueError(f"trailing input {self._peek()!r} in generator polynomial")
        return result

    def _expr(self) -> GeneratorPoly:
        value = self._term()
        while self._peek() in ("+", "-"):
            if self._next() == "+":
                value = value + self._term()
            else:
                value = value - self._term()
        return value

    def _term(self) -> GeneratorPoly:
        value = self._unary()
        while self._peek() in ("*", "/"):
            if self._next() == "*":
                value = value * self._unary()
            else:
                value = value / self._unary()
        return value

    def _unary(self) -> GeneratorPoly:
        negate = False
        while self._peek() in ("+", "-"):
            if self._next() == "-":
                negate = not negate
        value = self._power()
        return -value if negate else value

    def _power(self) -> GeneratorPoly:
        value = self._atom()
        if self._peek() in ("^", "**"):
            self._next()
            token = self._next()
            if not token.isdigit():
                raise ValueError("exponent must be a nonnegative integer literal")
            value = value ** int(token)
        return value

    def _atom(self) -> GeneratorPoly:
        token = self._next()
        if token == "(":
            value = self._expr()
            if self._next() != ")":
                raise ValueError("unbalanced parentheses in generator polynomial")
            return value
        if token.isdigit():
            return GeneratorPoly.constant(int(token))
        if token in _GENERATOR_NAMES:
            return GeneratorPoly.generator(token)
        raise ValueError(f"unexpected token {token!r} in generator polynomial")


def eval_generator_poly(
    poly: Union[str, GeneratorPoly],
    prec: int,
    require_homogeneous: bool = False,
) -> Union[GradedSeries, QSeries]:
    """Evaluate a polynomial in E2, E4, E6 to its q-expansion.

    Returns a GradedSeries when the polynomial is weight-homogeneous and
    a bare QSeries otherwise; with require_homogeneous, a mixed-weight
    polynomial is an error naming the offending monomials.
    """
    if isinstance(poly, str):
        poly = GeneratorPoly.parse(poly)
    if require_homogeneous and not poly.is_homogeneous():
        weights = poly.monomial_weights()
        detail = ", ".join(
            f"{GeneratorPoly({e: c})} (weight {weights[e]})"
            for e, c in poly.monomials()
        )
        raise ValueError(f"polynomial is not weight-homogeneous: {detail}")
    return poly.evaluate(prec)


# ---------------------------------------------------------------------------
# The catalog
# ---------------------------------------------------------------------------


class FormCatalogEntry(NamedTuple):
    name: str
    form: GradedSeries


CATALOG_NAMES = (
    "E2",
    "E4",
    "E6",
    "E8",
    "E10",
    "E14",
    "Delta12",
    "Delta16",
    "Delta18",
    "Delta20",
    "Delta22",
    "Delta26",
)


@lru_cache(maxsize=None)
def catalog(prec: int) -> tuple[FormCatalogEntry, ...]:
    """All catalog forms at the given precision, in fixed display order."""
    entries = [
        FormCatalogEntry(f"E{k}", eisenstein(k, prec)) for k in (2, 4, 6, 8, 10, 14)
    ]
    entries.extend(
        FormCatalogEntry(f"Delta{k}", cusp_delta(k, prec)) for k in DELTA_WEIGHTS
    )
    for name, form in entries:
        if form.weight % 2 != 0:
            raise RuntimeError(f"catalog form {name} has odd weight")
        if name.startswith("E") and form[0] != 1:
            raise RuntimeError(f"{name} must have constant term 1")
        if name.startswith("Delta") and (form[0] != 0 or form[1] != 1):
            raise RuntimeError(f"{name} must start q + O(q^2)")
    return tuple(entries)


def catalog_form(name: str, prec: int) -> GradedSeries:
    for entry in catalog(prec):
        if entry.name == name:
            return entry.form
    raise ValueError(f"unknown catalog form {name!r}")


def catalog_index(name: str) -> int:
    return CATALOG_NAMES.index(name)
