"""The level-one catalog: Eisenstein series, monomial bases of C[E4,E6],
normalized cusp forms, exact membership tests against M_k, and evaluation
of polynomials in the quasimodular generators E2, E4, E6.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from functools import lru_cache, reduce
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


# E_k^0, E_k^1, ... per (k, prec), extended on demand.
_POWERS: dict[tuple[int, int], list[GradedSeries]] = {}


def _eisenstein_power(k: int, a: int, prec: int) -> GradedSeries:
    """E_k^a, multiplying the cached list of lower powers up to a in a loop."""
    powers = _POWERS.get((k, prec))
    if powers is None:
        one = GradedSeries(QSeries.one(prec), 0)
        powers = _POWERS[(k, prec)] = [one, eisenstein(k, prec)]
    while len(powers) <= a:
        powers.append(powers[-1] * powers[1])
    return powers[a]


def _monomial(exponents: Sequence[int], weights: Sequence[int], prec: int) -> QSeries:
    """The product of E_k^a over the (k, a) pairs; 1 when every a is 0."""
    factors = [_eisenstein_power(k, a, prec) for k, a in zip(weights, exponents) if a]
    return reduce(operator.mul, factors) if factors else QSeries.one(prec)


@lru_cache(maxsize=None)
def monomial_basis(k: int, prec: int) -> tuple[GradedSeries, ...]:
    """The basis E4^a E6^b (4a + 6b = k, a descending) of M_k, k >= 4 even."""
    if k < 4 or k % 2 != 0:
        raise ValueError(f"monomial basis requires even k >= 4, got {k}")
    return tuple(_monomial(e, (4, 6), prec) for e in monomial_exponents(k))


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
    return GradedSeries(_combination(basis, coords, prec), k)


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
    The re-check compares coefficients only, so target may be a form of
    any weight.
    """
    rows = [[column[m] for column in columns] for m in range(window + 1)]
    coords = solve_linear(rows, [target[m] for m in range(window + 1)])
    if coords is None:
        return None
    if _combination(columns, coords, target.prec).coeffs != target.coeffs:
        return None
    return coords


# Coefficients solved beyond the column count in a span solve.
_WINDOW_MARGIN = 10


def is_modular_member(f: QSeries, k: int) -> Optional[list[Fraction]]:
    """Exact coordinates of f in the monomial basis of M_k, or None.

    The coordinates are solved on the first dim M_k + _WINDOW_MARGIN + 1
    coefficients, which determine a form in M_k, and then re-checked
    against every certified coefficient of f (see span_coordinates).
    """
    if k < 0 or k % 2 != 0:
        raise ValueError(f"membership is tested against even weights, got {k}")
    basis = weight_basis(k, f.prec)
    if not basis:
        if f.is_zero():
            return []
        raise ValueError(
            f"M_{k} is zero-dimensional; a nonzero series cannot belong to it"
        )
    window = len(basis) + _WINDOW_MARGIN
    if f.prec < window:
        raise PrecisionError(
            f"membership test in M_{k} needs precision >= {window}, "
            f"have {f.prec}"
        )
    return span_coordinates(basis, f, window)


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

    def evaluate(self, prec: int) -> QSeries:
        """q-expansion of the polynomial; graded when weight-homogeneous."""
        total = QSeries.zero(prec)
        for exponents, c in self.monomials():
            total = total + _monomial(exponents, _GENERATOR_WEIGHTS, prec) * c
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
# Each parenthesis level costs five Python frames, so this keeps the
# descent far below the interpreter's recursion limit.
_MAX_NESTING = 100


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
        self._depth = 0

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
            self._depth += 1
            if self._depth > _MAX_NESTING:
                raise ValueError(
                    f"generator polynomial nests parentheses deeper than {_MAX_NESTING}"
                )
            value = self._expr()
            if self._next() != ")":
                raise ValueError("unbalanced parentheses in generator polynomial")
            self._depth -= 1
            return value
        if token.isdigit():
            return GeneratorPoly.constant(int(token))
        if token in _GENERATOR_NAMES:
            return GeneratorPoly.generator(token)
        raise ValueError(f"unexpected token {token!r} in generator polynomial")


def eval_generator_poly(poly: Union[str, GeneratorPoly], prec: int) -> GradedSeries:
    """Evaluate a weight-homogeneous polynomial in E2, E4, E6 to its form.

    A mixed-weight polynomial is an error naming the offending monomials;
    GeneratorPoly.evaluate gives its untagged q-expansion.
    """
    if isinstance(poly, str):
        poly = GeneratorPoly.parse(poly)
    if not poly.is_homogeneous():
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
