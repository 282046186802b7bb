"""Truncated q-expansions with exact rational coefficients.

A series carries an explicit precision: coefficients are certified for
exponents 0..prec and nothing beyond. All arithmetic returns the
tightest provable precision (the min of the inputs), so a wrong tail
coefficient can never be claimed silently.

A GradedSeries is a QSeries tagged with its weight, and every QSeries
operation applies to it. The tag follows three rules:

- tagging: between two forms, + and - need equal weights (else
  ValueError) and * adds them; a rational scalar, -f and truncate keep
  the weight, and the derivative adds 2;
- equality: a form equals only a form of the same weight and
  coefficients, so it never equals an untagged QSeries, in either order;
- mixing: a form combined with an untagged QSeries by +, - or * gives an
  untagged QSeries, in either order.

Every series product goes through one kernel, ``_product_sum``: the
weighted sum c = sum_r c_r a_r b_r of products of integer polynomials of
one length n, a plain product being the one term (1, a, b). Up to 28
coefficients it is the direct sum c_k = sum_r c_r sum_{i<=k} a_i b_{k-i}.
Longer sums take four-point Kronecker substitution (after D. Harvey, JSC
2009), which overtook the direct sum at about 31 coefficients on catalog
operands, 33 on random 16-bit numerators, 26 on 64-bit ones and 27 on a
three-term E4, E6 bracket sum. Each operand is split by index mod 4 and
each part A_j packed into one big integer, one coefficient per w-bit
slot, so that a(x) = sum_j x^j A_j(Y) with Y = 2^w and x = 2^(w/4). A
slot is written and read as its coefficient plus 2^(w-1): packing is one
``to_bytes`` pass and one subtraction, and unpacking one addition, one
``struct.iter_unpack`` pass and one subtraction per slot. Every
coefficient of the whole product c, to degree 2n-2, sums at most n
products a_i b_j per term, so it is at most n sum_r |c_r| max|a_r|
max|b_r| in size; one width w for all terms holds that bound and a sign
bit. Adding 2^(w-1) to each slot read then puts every digit in [0, 2^w),
so no carry crosses a slot, and the coefficients above the truncation
fill only higher slots, which a mask drops.

Shifts and sums give a(+-x) = (A_0 + x^2 A_2) +- (x A_1 + x^3 A_3) and
a(ix) = (A_0 - x^2 A_2) + i (x A_1 - x^3 A_3); a(-ix) is the conjugate.
A term needs c(x), c(-x) and c(ix) = (p + iq)(r + is), whose parts
Gauss's three products give as pr - qs and (p + q)(r + s) - pr - qs:
five quarter-length products (a square takes two squarings and two
products), scaled by c_r unless c_r = 1. The terms are summed at each
point and read back once: class j of c mod 4, C_j(Y) = sum_t c_(4t+j)
Y^t, is 4 x^j C_j(Y) = sum over zeta in {1, -1, i, -i} of zeta^-j c(zeta
x), by exact shifts, read off its low slots. Harvey's reciprocal points
would need a carry across slots, a Python loop step per slot. A factor
that is constant within the common precision scales the other instead.
The tests hold every path to a schoolbook product sharing no code with it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from itertools import chain, compress, count, repeat
from struct import iter_unpack
from operator import add, mul, ne, sub
from typing import Iterable, Optional, Sequence

from .exactmath import as_rational

__all__ = [
    "PrecisionError",
    "QSeries",
    "GradedSeries",
    "first_difference",
]


class PrecisionError(ValueError):
    """An operation was asked to certify more coefficients than it can."""


class QSeries:
    """The truncated expansion sum_{m<=prec} a_m q^m over exact rationals.

    Stored as integer numerators over one positive common denominator in
    lowest terms (no prime divides the denominator and every numerator),
    so equal series have equal storage and every operation runs on ints.
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, coeffs: Iterable, prec: int | None = None):
        cs = [as_rational(c) for c in coeffs]
        if prec is None:
            if not cs:
                raise ValueError("empty coefficient list needs an explicit prec")
            prec = len(cs) - 1
        if prec < 0:
            raise ValueError("prec must be >= 0")
        cs = cs[: prec + 1]
        # The lcm of reduced denominators is already in lowest terms.
        den = lcm(*(c.denominator for c in cs))
        nums = [c.numerator * (den // c.denominator) for c in cs]
        nums.extend([0] * (prec + 1 - len(nums)))
        self._nums = tuple(nums)
        self._den = den

    @staticmethod
    def from_numerators(nums: Sequence[int], den: int) -> "QSeries":
        """The series with coefficients nums[m]/den, for ints and den > 0."""
        g = gcd(den, *nums)
        series = object.__new__(QSeries)
        series._nums = tuple(nums) if g == 1 else tuple(a // g for a in nums)
        series._den = den // g
        return series

    @classmethod
    def zero(cls, prec: int) -> "QSeries":
        return cls([0], prec=prec)

    @classmethod
    def one(cls, prec: int) -> "QSeries":
        return cls([1], prec=prec)

    @classmethod
    def constant(cls, value, prec: int) -> "QSeries":
        return cls([value], prec=prec)

    @property
    def prec(self) -> int:
        return len(self._nums) - 1

    @property
    def numerators(self) -> tuple[int, ...]:
        return self._nums

    @property
    def denominator(self) -> int:
        return self._den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(a, self._den) for a in self._nums)

    def __getitem__(self, m: int) -> Fraction:
        if not 0 <= m <= self.prec:
            raise IndexError(
                f"coefficient of q^{m} is outside the certified precision {self.prec}"
            )
        return Fraction(self._nums[m], self._den)

    def is_zero(self) -> bool:
        return not any(self._nums)

    def truncate(self, prec: int) -> "QSeries":
        """The series to prec; at its own precision, the series itself."""
        if prec > self.prec:
            raise PrecisionError(
                f"cannot extend precision {self.prec} to {prec} without new data"
            )
        if prec == self.prec:
            return self
        return QSeries.from_numerators(self._nums[: prec + 1], self._den)

    # -- ring operations ------------------------------------------------

    def _linear(self, other: "QSeries", sign: int) -> "QSeries":
        # self + sign * other over the lcm of the two denominators; over
        # one denominator, the numerators add or subtract as they are.
        if self._den == other._den:
            nums = list(map(add if sign > 0 else sub, self._nums, other._nums))
            return QSeries.from_numerators(nums, self._den)
        den = lcm(self._den, other._den)
        s, t = den // self._den, sign * (den // other._den)
        nums = [a * s + b * t for a, b in zip(self._nums, other._nums)]
        return QSeries.from_numerators(nums, den)

    def __add__(self, other):
        return self._linear(other, 1) if isinstance(other, QSeries) else NotImplemented

    def __sub__(self, other):
        return self._linear(other, -1) if isinstance(other, QSeries) else NotImplemented

    def __neg__(self) -> "QSeries":
        return QSeries.from_numerators([-a for a in self._nums], self._den)

    def __mul__(self, other):
        """The product to the common precision, with a series (by ``_product``,
        or a scaling when one factor is constant there) or with a rational
        scalar."""
        if isinstance(other, QSeries):
            prec = min(self.prec, other.prec)
            a, b = self._nums[: prec + 1], other._nums[: prec + 1]
            if not any(a[1:]):
                a, b = b, a
            if any(b[1:]):
                out = _product(a, b)
            else:  # a constant factor: scale instead of multiplying
                out = [x * b[0] for x in a]
            return QSeries.from_numerators(out, self._den * other._den)
        scalar = as_rational(other)
        num, den = scalar.numerator, scalar.denominator  # Fraction properties are calls
        return QSeries.from_numerators([a * num for a in self._nums], self._den * den)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    __hash__ = None

    # -- calculus ----------------------------------------------------------

    def derivative(self) -> "QSeries":
        """Apply q d/dq: the coefficient of q^m becomes m*a_m."""
        return QSeries.from_numerators([m * a for m, a in enumerate(self._nums)], self._den)

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        return f"{_format_terms(self)} + O(q^{self.prec + 1})"

    def __repr__(self) -> str:
        return f"QSeries(prec={self.prec}, {_format_terms(self, max_terms=6)})"


def _offset(count: int, width: int) -> int:
    """2^(w-1) in each of count slots of w = 8*width bits."""
    return int.from_bytes((1 << (8 * width - 1)).to_bytes(width, "little") * count, "little")


def _pack(nums: Sequence[int], width: int) -> int:
    """sum nums[i] * 2^(8*width*i), for |nums[i]| < 2^(8*width-1). Each
    slot is written as nums[i] + 2^(w-1), which is nonnegative, in one
    ``to_bytes`` pass, and the offset is subtracted once."""
    half = 1 << (8 * width - 1)
    data = b"".join([(x + half).to_bytes(width, "little") for x in nums])
    return int.from_bytes(data, "little") - _offset(len(nums), width)


def _unpack(value: int, count: int, width: int) -> list[int]:
    """The digits c_0..c_{count-1} of value = sum_j c_j * 2^(8*width*j),
    for |c_j| < 2^(8*width-1). Adding the offset 2^(w-1) to each of the
    count low slots makes every digit nonnegative, and masking to count
    slots drops the higher terms; what is left are the digits c_j +
    2^(w-1), each read as an unsigned w-bit slot in one pass before the
    offset is subtracted again."""
    half = 1 << (8 * width - 1)
    digits = (value + _offset(count, width)) & ((1 << (8 * width * count)) - 1)
    slots = chain.from_iterable(iter_unpack(f"{width}s", digits.to_bytes(width * count, "little")))
    return [x - half for x in map(int.from_bytes, slots, repeat("little"))]


def _slot_width(terms) -> int:
    """Bytes per slot, w/8: n sum max(1, |c|) max|a| max|b| is below 2^(w-1)."""
    bound = len(terms[0][1]) * sum(
        max(1, abs(c)) * max(1, max(a), -min(a)) * max(1, max(b), -min(b)) for c, a, b in terms
    )
    return (bound.bit_length() + 8) // 8


def _point_sums(terms, values, products) -> list[int]:
    """sum c * products(values(a), values(b)) over the terms (c, a, b), point by
    point. Equal operands are packed once, so products can square them."""
    sums = None
    for c, a, b in terms:
        at_a = values(a)
        point = products(at_a, at_a if a == b else values(b))
        if c != 1:
            point = [c * x for x in point]
        sums = point if sums is None else list(map(add, sums, point))
    return sums


def _four_point_product(terms, width: int) -> list[int]:
    """The first n coefficients of sum c a b over the terms (c, a, b),
    integer polynomials of length n, from their values at x = 2^(w/4)
    times 1, -1, i and -i, for the slot width w (see the module
    docstring): the class j of the product c mod 4 is read off
    4 x^j C_j(2^w) = sum over zeta of zeta^-j c(zeta x)."""
    n, shift = len(terms[0][1]), 2 * width  # w/4 bits

    def values(nums):
        f0, f1, f2, f3 = (_pack(nums[j::4], width) << (j * shift) for j in range(4))
        even, odd = f0 + f2, f1 + f3
        return even + odd, even - odd, f0 - f2, f1 - f3

    def products(a, b):
        a_plus, a_minus, a_re, a_im = a
        if a is b:  # two squarings and two products
            return a_plus * a_plus, a_minus * a_minus, (a_re + a_im) * (a_re - a_im), (a_re * a_im) << 1
        # c(ix) = a(ix) b(ix) by Gauss's three products
        b_plus, b_minus, b_re, b_im = b
        t_re, t_im = a_re * b_re, a_im * b_im
        return a_plus * b_plus, a_minus * b_minus, t_re - t_im, (a_re + a_im) * (b_re + b_im) - t_re - t_im

    plus, minus, re, im = _point_sums(terms, values, products)
    even, odd = (plus + minus) >> 1, (plus - minus) >> 1
    out = [0] * n
    out[0::4] = _unpack((even + re) >> 1, (n + 3) // 4, width)
    out[1::4] = _unpack((odd + im) >> (shift + 1), (n + 2) // 4, width)
    out[2::4] = _unpack((even - re) >> (2 * shift + 1), (n + 1) // 4, width)
    out[3::4] = _unpack((odd - im) >> (3 * shift + 1), n // 4, width)
    return out


# The longest operands multiplied by the direct sum (see the module
# docstring).
_DIRECT_MAX = 28


def _product_sum(terms) -> list[int]:
    """The first n coefficients of sum c a b over the terms (c, a, b), for
    integer weights c and integer polynomials a, b of length n: the direct
    sum up to _DIRECT_MAX coefficients, else the four-point substitution
    on one slot width for all terms (see the module docstring)."""
    n = len(terms[0][1])
    if n <= _DIRECT_MAX:  # the direct sum, whose point values are the coefficients
        convolve = lambda a, b: [sum(map(mul, a[: k + 1], b[k::-1])) for k in range(n)]
        return _point_sums(terms, lambda nums: nums, convolve)
    return _four_point_product(terms, _slot_width(terms))


def _product(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The first len(a) coefficients of a b: the one term (1, a, b)."""
    return _product_sum(((1, a, b),))


def first_difference(f: QSeries, g: QSeries) -> Optional[int]:
    """Smallest exponent where f and g disagree on their common precision."""
    a, b = f._nums, g._nums
    if f._den != g._den:
        # a/f_den == b/g_den, cross-multiplied lazily.
        a, b = map(mul, a, repeat(g._den)), map(mul, b, repeat(f._den))
    elif a == b:
        return None
    # map stops at the shorter series.
    return next(compress(count(), map(ne, a, b)), None)


def _format_terms(series: QSeries, max_terms: int | None = None) -> str:
    """The nonzero terms of series as text, "a_m*q^m" signed and joined,
    the first max_terms of them followed by "+ ..." when more remain. Each
    coefficient is its numerator over the denominator, reduced by their
    gcd."""
    den = series._den
    parts: list[str] = []
    for m, a in enumerate(series._nums):
        if not a:
            continue
        if len(parts) == max_terms:
            parts.append("+ ...")
            break
        mag = abs(a)
        g = gcd(mag, den)
        coeff_txt = str(mag // g) if g == den else f"({mag // g}/{den // g})"
        power = "q" if m == 1 else f"q^{m}"
        body = coeff_txt if m == 0 else power if mag == den else f"{coeff_txt}*{power}"
        if not parts:
            parts.append(body if a > 0 else f"-{body}")
        else:
            parts.append(f"{'-' if a < 0 else '+'} {body}")
    return " ".join(parts) if parts else "0"


class GradedSeries(QSeries):
    """A QSeries tagged with its weight, by the rules in the module
    docstring. ``series`` is the untagged view."""

    __slots__ = ("_weight",)

    def __init__(self, series: QSeries, weight: int):
        if not isinstance(series, QSeries):
            raise TypeError("GradedSeries wraps a QSeries")
        if not isinstance(weight, int) or weight < 0:
            raise ValueError(f"weight must be a nonnegative integer, got {weight}")
        self._nums = series._nums
        self._den = series._den
        self._weight = weight

    @property
    def series(self) -> QSeries:
        """The untagged series, sharing this one's numerators, which are
        already in lowest terms."""
        series = object.__new__(QSeries)
        series._nums, series._den = self._nums, self._den
        return series

    @property
    def weight(self) -> int:
        return self._weight

    def truncate(self, prec: int) -> "GradedSeries":
        series = super().truncate(prec)
        return self if series is self else GradedSeries(series, self._weight)

    def _linear(self, other: QSeries, sign: int) -> QSeries:
        if not isinstance(other, GradedSeries):
            return super()._linear(other, sign)
        if self._weight != other._weight:
            verb = "add" if sign > 0 else "subtract"
            raise ValueError(f"cannot {verb} forms of weights {self._weight} and {other._weight}")
        return GradedSeries(super()._linear(other, sign), self._weight)

    def __neg__(self) -> "GradedSeries":
        return GradedSeries(super().__neg__(), self._weight)

    def __mul__(self, other):
        product = super().__mul__(other)
        if isinstance(other, GradedSeries):
            return GradedSeries(product, self._weight + other._weight)
        if isinstance(other, QSeries):
            return product
        return GradedSeries(product, self._weight)

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        same_weight = isinstance(other, GradedSeries) and self._weight == other._weight
        return same_weight and super().__eq__(other)

    def derivative(self) -> "GradedSeries":
        """q d/dq, which sends weight k to weight k+2."""
        return GradedSeries(super().derivative(), self._weight + 2)

    def __str__(self) -> str:
        return f"[weight {self._weight}] {super().__str__()}"

    def __repr__(self) -> str:
        return (
            f"GradedSeries(weight={self._weight}, prec={self.prec}, "
            f"{_format_terms(self, max_terms=6)})"
        )
