"""The level-one catalog: Eisenstein series, monomial bases of C[E4,E6],
normalized cusp forms, exact membership tests against M_k, and evaluation
of polynomials in the quasimodular generators E2, E4, E6.

The cusp forms come from small numbers and from no identity the suites
check: Delta12 from Jacobi's eta^3 series by three squarings, and each
other Delta_k from one product of Eisenstein series, the squares E8^2 and
E10^2 at weights 16 and 20 and E4*E_{k-4} at 18, 22 and 26. Membership
in M_k is certified in ``membership_basis``, E_k and then cusp forms: it
costs no product where dim S_k <= 1 and dim S_k products elsewhere (two
at weights 24 and 28: Delta20*E4 and Delta12^2, Delta22*E6 and
Delta12*Delta16). That basis is triangular, so ``span_coordinates``
solves it on a_0..a_(dim M_k - 1) and re-checks every certified
coefficient; it then solves the monomial coordinates on a prefix of
dim M_k + 10 coefficients, which fixes a form of M_k (Sturm's bound).

The builders ``eisenstein``, ``monomial``, ``monomial_basis``,
``membership_basis`` and ``cusp_delta`` each keep one store: one value
per form (per weight or per monomial), built at the largest precision
asked for so far. ``catalog`` is a stored view whose forms are the
``eisenstein`` and ``cusp_delta`` objects themselves, in
``CATALOG_NAMES`` order; ``catalog_form`` reads a name from its own
builder only. A request at a smaller precision is answered by truncating
the stored value, which equals a fresh build because a series is kept in
lowest terms; a larger one rebuilds and replaces it. Memory is
therefore bounded by the number of forms a process asks for, each held
once at its largest precision, and not by the number of precisions it
asks at. Each builder has ``cache_info()`` with its hits (requests
answered from the store), misses (builds) and currsize (forms held), and
``__wrapped__``, the unstored builder; ``cache_stats()`` maps every
builder's name, and the parse memo's (``_parse``, the 64 texts read
last), to its ``cache_info()``.
Bases and polynomials read each monomial in E2, E4, E6 from one
``monomial`` entry, keyed by its (k, a) pairs: a polynomial is one
integer linear combination of them.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from functools import lru_cache, reduce, wraps
from math import isqrt, lcm
from typing import Callable, NamedTuple, Optional, Sequence, Union

from .exactmath import as_rational, bernoulli, solve_linear
from .qseries import GradedSeries, PrecisionError, QSeries, first_difference

__all__ = [
    "eisenstein",
    "monomial",
    "dim_modular",
    "monomial_exponents",
    "monomial_basis",
    "DELTA_WEIGHTS",
    "cusp_delta",
    "membership_basis",
    "span_coordinates",
    "is_modular_member",
    "GeneratorPoly",
    "eval_generator_poly",
    "CATALOG_NAMES",
    "catalog",
    "catalog_form",
    "cache_stats",
]


class CacheInfo(NamedTuple):
    """The counts of one stored builder."""

    hits: int
    misses: int
    currsize: int


def _truncated(value, prec: int):
    """A stored value cut down to prec: a series or a tuple of series."""
    if isinstance(value, QSeries):
        return value.truncate(prec)
    return tuple(item.truncate(prec) for item in value)


_STORES: dict[str, Callable] = {}  # every stored builder, by name


def cache_stats() -> dict[str, CacheInfo]:
    """The ``cache_info()`` of every stored builder, by builder name."""
    return {name: stored.cache_info() for name, stored in _STORES.items()}


def _stored(check: Optional[Callable[..., None]] = None):
    """The store of the module docstring; the arguments before prec name
    the form. A negative prec, and whatever ``check(*args)`` raises, are
    refused before the store is read, so a precision too small for a form
    is an error even while a larger value is held."""

    def decorate(build):
        held: dict = {}  # form key -> (prec, value)
        counts = [0, 0]  # hits, misses

        @wraps(build)
        def stored(*args):
            *key, prec = args
            if prec < 0:
                raise ValueError("prec must be >= 0")
            if check is not None:
                check(*args)
            key = tuple(key)
            have, value = held.get(key, (-1, None))
            if have >= prec:
                counts[0] += 1
                return value if have == prec else _truncated(value, prec)
            counts[1] += 1
            value = build(*args)
            held[key] = (prec, value)
            return value

        stored.cache_info = lambda: CacheInfo(counts[0], counts[1], len(held))
        _STORES[build.__name__] = stored
        return stored

    return decorate


# Far above every suite (28) and query (16); B_k grows as the square of k.
_MAX_EISENSTEIN_WEIGHT = 256


def _check_eisenstein(k: int, prec: int) -> None:
    if k < 2 or k % 2 != 0 or k > _MAX_EISENSTEIN_WEIGHT:
        raise ValueError(
            f"Eisenstein series requires even 2 <= k <= {_MAX_EISENSTEIN_WEIGHT}, got {k}"
        )


# Per n < len: (p, q), the smallest prime p dividing n and the power q = p^e
# exactly dividing it; (1, 1) at n = 1. Neither depends on a weight or a
# precision, so one table per process serves every build, grown like
# exactmath's Bernoulli table to at least twice its length.
_FACTORS: list[tuple[int, int]] = [(0, 0), (1, 1)]


def _prime_power_parts(limit: int) -> list[tuple[int, int]]:
    """The factor table, grown to cover every n <= limit."""
    if limit >= len(_FACTORS):
        size = max(limit + 1, 2 * len(_FACTORS))
        smallest = list(range(size))
        # Descending, so the smallest prime factor of each n writes last.
        for d in range(isqrt(size - 1), 1, -1):
            smallest[d * d :: d] = [d] * len(range(d * d, size, d))
        table = [(0, 0), (1, 1)]
        for n in range(2, size):
            p = smallest[n]
            m = n // p
            table.append((p, table[m][1] * p if smallest[m] == p else p))
        _FACTORS[:] = table
    return _FACTORS


@_stored(_check_eisenstein)
def eisenstein(k: int, prec: int) -> GradedSeries:
    """Weight-k Eisenstein series 1 - (2k/B_k) sum sigma_{k-1}(m) q^m.

    k = 2 gives the quasimodular E2; k >= 4 the modular series. The
    divisor sums are multiplicative: with p^e the power of the smallest
    prime exactly dividing m, sigma(p^e) = sigma(p^(e-1)) + (p^e)^(k-1) and
    otherwise sigma(m) = sigma(p^e) sigma(m/p^e), so each m costs one power
    or one product.
    """
    factor = -Fraction(2 * k) / bernoulli(k)
    factors = _prime_power_parts(prec)
    sums = [0, 1] + [0] * (prec - 1)
    for m in range(2, prec + 1):
        p, q = factors[m]
        sums[m] = sums[m // p] + m ** (k - 1) if q == m else sums[q] * sums[m // q]
    num, den = factor.numerator, factor.denominator  # Fraction properties are calls
    nums = [den] + [num * s for s in sums[1 : prec + 1]]
    form = GradedSeries(QSeries.from_numerators(nums, den), k)
    if form[0] != 1:
        raise RuntimeError(f"E{k} must have constant term 1")
    return form


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
    return len(monomial_exponents(k))


def _check_monomial(pairs: tuple[tuple[int, int], ...], prec: int) -> None:
    for k, a in pairs:
        _check_eisenstein(k, prec)
        if a < 1:
            raise ValueError(f"monomial exponents require a >= 1, got {a}")


@_stored(_check_monomial)
def monomial(pairs: tuple[tuple[int, int], ...], prec: int) -> GradedSeries:
    """The product of E_k^a over its (k, a) pairs, k ascending: the
    constant 1 for no pair, and E_k for (k, 1). E_k^a, a >= 2, is the
    product of its stored halves E_k^ceil(a/2) and E_k^floor(a/2), one
    product per power when the powers below it are held and about
    2 log2(a) for a lone high power; several pairs multiply their stored
    single-generator entries from left to right."""
    if not pairs:
        return GradedSeries(QSeries.one(prec), 0)
    if len(pairs) > 1:
        return reduce(operator.mul, (monomial((pair,), prec) for pair in pairs))
    [(k, a)] = pairs
    if a == 1:
        return eisenstein(k, prec)
    return monomial(((k, (a + 1) // 2),), prec) * monomial(((k, a // 2),), prec)


def _monomials(
    rows: Sequence[Sequence[int]], weights: Sequence[int], prec: int
) -> list[GradedSeries]:
    """Per row of exponents, the stored product of E_k^a over its (k, a) pairs."""
    return [monomial(tuple((k, a) for k, a in zip(weights, row) if a), prec) for row in rows]


@_stored()
def monomial_basis(k: int, prec: int) -> tuple[GradedSeries, ...]:
    """The basis E4^a E6^b (4a + 6b = k, a descending) of M_k: the constant
    1 at k = 0, and empty at k = 2, at odd k and at negative k."""
    return tuple(_monomials(monomial_exponents(k), (4, 6), prec))


# Weights whose cusp space is one dimensional, carrying a unique
# normalized cusp form.
DELTA_WEIGHTS = (12, 16, 18, 20, 22, 26)


def _check_cusp_prec(prec: int) -> None:
    if prec < 1:
        raise ValueError("cusp form construction needs prec >= 1")


def _check_cusp(k: int, prec: int) -> None:
    if k not in DELTA_WEIGHTS:
        raise ValueError(f"no one-dimensional cusp space catalogued at weight {k}")
    _check_cusp_prec(prec)


# (a, b) for each Delta_k built from E_a*E_b (see cusp_delta).
_CUSP_FACTORS = {16: (8, 8), 18: (4, 14), 20: (10, 10), 22: (4, 18), 26: (4, 22)}


@_stored(_check_cusp)
def cusp_delta(k: int, prec: int) -> GradedSeries:
    """The unique normalized cusp form of weight k in {12,16,18,20,22,26}.

    Delta12 is q times the eighth power of sum_n (-1)^n (2n+1) q^(n(n+1)/2),
    by Jacobi's identity eta^3 = sum_n (-1)^n (2n+1) q^((2n+1)^2/8): three
    squarings of a series of small integers. Every other Delta_k is
    (E_a*E_b - E_k)/a_1, the difference of two forms of constant term 1 in
    the one-dimensional S_k, from one product:

    - Delta16 from E8*E8 and Delta20 from E10*E10, squarings;
    - Delta18 from E4*E14, Delta22 from E4*E18 and Delta26 from E4*E22.

    None of these is a product that PRODUCT_IDENTITIES checks, and no
    solve is involved, so the identities the forms are used to verify are
    not assumed in building them.
    """
    if k == 12:
        nums = [0] * prec  # exponents 0..prec-1 of the eta^3 quotient
        n = 0
        while n * (n + 1) // 2 < prec:
            nums[n * (n + 1) // 2] = (-1) ** n * (2 * n + 1)
            n += 1
        series = QSeries.from_numerators(nums, 1)
        for _ in range(3):
            series = series * series
        form = GradedSeries(QSeries.from_numerators((0, *series.numerators), 1), k)
    else:
        a, b = _CUSP_FACTORS[k]
        form = eisenstein(a, prec) * eisenstein(b, prec) - eisenstein(k, prec)
        form = form * (1 / form[1])
    if form[0] != 0 or form[1] != 1:
        raise RuntimeError(f"Delta{k} must start q + O(q^2)")
    return form


def _any_eisenstein(k: int, prec: int) -> GradedSeries:
    """E_k, from the store up to the cap, which bounds the weights a query
    may ask for; above it a basis builds the one E_k it needs itself."""
    return eisenstein(k, prec) if k <= _MAX_EISENSTEIN_WEIGHT else eisenstein.__wrapped__(k, prec)


@_stored()
def membership_basis(k: int, prec: int) -> tuple[GradedSeries, ...]:
    """The basis of M_k that membership is certified in, each element
    q^j + O(q^(j+1)): E_k, then cusp_delta(k) when dim S_k = 1 and
    otherwise Delta_c*E_(k-c) and Delta12 times the cusp elements of
    membership_basis(k - 12). Delta_c is the heaviest catalog cusp form
    with c <= k - 4, so that E_(k-c) is modular (k - c is never 2) and
    its numerators are as short as the catalog allows: at weight 24 and
    prec 768, Delta20*E4 needs 144-bit slots where Delta12*E12 needs
    192. The constant 1 at k = 0, and empty where monomial_basis is."""
    dim = dim_modular(k)
    if k == 0 or dim == 0:
        return monomial_basis(k, prec)
    head = _any_eisenstein(k, prec)
    if dim == 1:
        return (head,)
    if k in DELTA_WEIGHTS:
        return head, cusp_delta(k, prec)
    c = max(w for w in DELTA_WEIGHTS if w <= k - 4)
    delta = cusp_delta(12, prec)
    return (
        head,
        cusp_delta(c, prec) * _any_eisenstein(k - c, prec),
        *(delta * form for form in membership_basis(k - 12, prec)[1:]),
    )


def _combination(columns: Sequence[QSeries], coords, prec: int) -> QSeries:
    """sum c_i column_i to the least of prec and every column's precision, as
    one integer pass per column over L = lcm(c_i.den * column_i.den)."""
    pairs = [(as_rational(c), column) for c, column in zip(coords, columns)]
    prec = min([prec, *(column.prec for _, column in pairs)])
    den = lcm(*(c.denominator * column.denominator for c, column in pairs))
    total = [0] * (prec + 1)
    for c, column in pairs:
        if c:
            factor = c.numerator * (den // (c.denominator * column.denominator))
            total = [t + factor * a for t, a in zip(total, column.numerators)]
    return QSeries.from_numerators(total, den)


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
    any weight. A window beyond the least precision of the inputs is a
    PrecisionError.
    """
    shortest = min(series.prec for series in (*columns, target))
    if window > shortest:
        raise PrecisionError(
            f"a span solve on coefficients 0..{window} needs inputs of precision "
            f">= {window}, the shortest has {shortest}"
        )
    # In numerators, target = sum x_j column_j reads t = sum y_j n_j with
    # y_j = x_j * den_target / den_j: an integer system, whatever the
    # denominators.
    *heads, rhs = [series.numerators[: window + 1] for series in (*columns, target)]
    rows = [[head[m] for head in heads] for m in range(window + 1)]
    solution = solve_linear(rows, rhs)
    if solution is None:
        return None
    coords = [y * Fraction(c.denominator, target.denominator) for y, c in zip(solution, columns)]
    if first_difference(_combination(columns, coords, target.prec), target) is not None:
        return None
    return coords


# Coefficients solved beyond the column count in a span solve.
_WINDOW_MARGIN = 10


def is_modular_member(f: QSeries, k: int) -> Optional[list[Fraction]]:
    """Exact coordinates of f in the monomial basis of M_k, or None.

    f is first certified by span_coordinates in membership_basis(k): that
    basis is triangular (element j is q^j + O(q^(j+1))), so the square
    window a_0..a_(dim M_k - 1) fixes its coordinates, and the solve
    re-checks them against every certified coefficient of f. A form of
    M_k is fixed by a_0..a_(k//12) (Sturm's bound), so the monomial
    coordinates, solved over monomial_basis(k, window) on the first
    window = dim M_k + _WINDOW_MARGIN coefficients alone, are exact.
    """
    if k < 0 or k % 2 != 0:
        raise ValueError(f"membership is tested against even weights, got {k}")
    dim = dim_modular(k)
    if not dim:
        if f.is_zero():
            return []
        raise ValueError(
            f"M_{k} is zero-dimensional; a nonzero series cannot belong to it"
        )
    window = dim + _WINDOW_MARGIN
    if f.prec < window:
        raise PrecisionError(
            f"membership test in M_{k} needs precision >= {window}, "
            f"have {f.prec}"
        )
    if span_coordinates(membership_basis(k, f.prec), f, dim - 1) is None:
        return None
    return span_coordinates(monomial_basis(k, window), f.truncate(window), window)


# ---------------------------------------------------------------------------
# Polynomials in the generators E2, E4, E6
# ---------------------------------------------------------------------------

_GENERATOR_WEIGHTS = (2, 4, 6)
_GENERATOR_NAMES = ("E2", "E4", "E6")
# The heaviest monomial a product may build: the weight of E4^2000.
_MAX_POLY_WEIGHT = 8000
# The most terms a product may build, counted as the product of its
# factors' term counts, which its work grows with: (E2+E4+E6)^36, with
# 703 terms, is the largest power of that sum.
_MAX_POLY_TERMS = 2048
# The longest numerator or denominator, in bits, a constant power may build.
_MAX_CONSTANT_BITS = 2**16


def _constant_power(base: Fraction, exponent: int) -> Fraction:
    """base ** exponent, refused when a part of the result would be longer
    than _MAX_CONSTANT_BITS.

    An integer n has more than e * (bit_length(n) - 1) bits in n^e, so the
    first check refuses only powers over the cap, before computing them;
    the powers it lets through have at most twice the cap.
    """
    parts = (base.numerator, base.denominator)
    if any(exponent * (abs(n).bit_length() - 1) >= _MAX_CONSTANT_BITS for n in parts):
        raise ValueError(f"constant power exceeds the cap of {_MAX_CONSTANT_BITS} bits")
    value = base**exponent
    if max(abs(value.numerator).bit_length(), value.denominator.bit_length()) > _MAX_CONSTANT_BITS:
        raise ValueError(f"constant power exceeds the cap of {_MAX_CONSTANT_BITS} bits")
    return value


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
        heaviest = sum(max(p.monomial_weights().values(), default=0) for p in (self, other))
        if heaviest > _MAX_POLY_WEIGHT:
            raise ValueError(f"polynomial weight {heaviest} exceeds the cap {_MAX_POLY_WEIGHT}")
        pairs = len(self._terms) * len(other._terms)
        if pairs > _MAX_POLY_TERMS:
            raise ValueError(
                f"polynomial product may build {pairs} terms, above the cap {_MAX_POLY_TERMS}"
            )
        terms: dict = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
        return GeneratorPoly(terms)

    def __pow__(self, exponent: int) -> "GeneratorPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers require a nonnegative integer")
        if self.is_constant():
            base = self._terms.get((0, 0, 0), Fraction(0))
            return GeneratorPoly.constant(_constant_power(base, exponent))
        # Binary powering squares many-term polynomials, which costs more
        # than this loop: (E2+E4+E6)^80 took 3.65 s against 1.65 s.
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

    def weight(self) -> int:
        """The homogeneous weight, 0 for the zero polynomial.

        A mixed weight is an error naming the first monomial, without its
        coefficient, of the first two weights met, and the number of
        weights, so the message stays short for any polynomial.
        """
        weights = self.monomial_weights()
        if len(set(weights.values())) > 1:
            first: dict[int, tuple] = {}
            for e, _ in self.monomials():
                first.setdefault(weights[e], e)
            named = [f"{GeneratorPoly({e: 1})} (weight {w})" for w, e in list(first.items())[:2]]
            more = f", ... ({len(first)} weights)" if len(first) > 2 else ""
            raise ValueError(f"polynomial is not weight-homogeneous: {', '.join(named)}{more}")
        return next(iter(weights.values()), 0)

    def evaluate(self, prec: int) -> GradedSeries:
        """The q-expansion of the polynomial, tagged with its weight."""
        weight = self.weight()
        monomials = self.monomials()
        columns = _monomials([e for e, _ in monomials], _GENERATOR_WEIGHTS, prec)
        return GradedSeries(_combination(columns, [c for _, c in monomials], prec), weight)

    @classmethod
    def parse(cls, text: str) -> "GeneratorPoly":
        return _parse(text)

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
                coeff = str(c) if c.denominator == 1 else f"({c})"
                parts.append(coeff if not factors else f"{coeff}*{body}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"GeneratorPoly({self})"


_TOKEN_RE = re.compile(r"\s*(?:(?P<int>\d+)|(?P<sym>E[246])|(?P<op>\*\*|[()^*/+\-]))")
# Each parenthesis level costs five Python frames, so this keeps the
# descent far below the interpreter's recursion limit.
_MAX_NESTING = 100
_MAX_DIGITS = 4300  # the longest integer literal int() reads by default


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
                raise ValueError(f"unexpected input at {remainder[:12]!r} in generator polynomial")
            token = match.group(match.lastgroup)
            if len(token) > _MAX_DIGITS:
                raise ValueError(f"integer literal of {len(token)} digits exceeds the cap of {_MAX_DIGITS}")
            tokens.append(token)
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


@lru_cache(maxsize=64)
def _parse(text: str) -> GeneratorPoly:
    """The memo of parse; its polynomials are shared, so nothing mutates them."""
    return _PolyParser(text).parse()


_STORES["_parse"] = _parse


def eval_generator_poly(poly: Union[str, GeneratorPoly], prec: int) -> GradedSeries:
    """Evaluate a weight-homogeneous polynomial in E2, E4, E6 to its form;
    a mixed weight is an error naming two monomials of different weights."""
    if isinstance(poly, str):
        poly = GeneratorPoly.parse(poly)
    return poly.evaluate(prec)


# ---------------------------------------------------------------------------
# The catalog
# ---------------------------------------------------------------------------


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


@_stored(_check_cusp_prec)
def catalog(prec: int) -> tuple[GradedSeries, ...]:
    """The catalog forms in CATALOG_NAMES order, as their builders' objects."""
    return tuple(catalog_form(name, prec) for name in CATALOG_NAMES)


def catalog_form(name: str, prec: int) -> GradedSeries:
    """The catalog form of that name, read from its own builder only."""
    if name not in CATALOG_NAMES:
        raise ValueError(f"unknown catalog form {name!r}")
    if name.startswith("Delta"):
        return cusp_delta(int(name.removeprefix("Delta")), prec)
    return eisenstein(int(name.removeprefix("E")), prec)
