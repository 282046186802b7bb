"""Hecke operators on weight-tagged q-expansions and Y-polynomial forms,
and the finite eigenform test.

One coefficient formula serves both: on the Y^r component of a weight-k
form,

    b_m = n^r sum_{d | gcd(m, n)} d^(k-2r-1) a_{m n / d^2},

which comes from Im((nz + bd)/d^2) = n Im(z) / d^2: averaging a Y^r
term rescales it by (d^2/n)^r, shifting the effective weight of that
component to k - 2r and contributing the n^r prefactor. Depth 0 is the
q-expansion form of the weight-k averaging operator. The kernel builds
b_0..b_{floor(prec/n)} in integers, one strided slice of the coefficients
per divisor of n, scaled and added by map, so that no bytecode runs per
coefficient. The eigenform test compares T_n f with lambda_n f the same
way: one lazy pass per Y-component that stops at its first unequal
coefficient. Its independent correctness oracles are
multiplicativity T_m T_n = T_{mn} for coprime m, n and the prime-power
recursion T_p T_{p^r} = T_{p^{r+1}} + p^(k-1) T_{p^(r-1)}, both
exercised by the test suite at depths 0 and 1.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from functools import lru_cache
from itertools import compress, count as indices, repeat
from math import gcd
from operator import add, mul, ne
from typing import NamedTuple, Optional, Sequence, Union

from .exactmath import divisors
from .nearly import YPolyForm
from .qseries import GradedSeries, PrecisionError, QSeries

__all__ = [
    "hecke",
    "hecke_nearly",
    "Violation",
    "EigenReport",
    "eigenform_test",
]


@lru_cache(maxsize=64)
def _divisors(n: int) -> tuple[int, ...]:
    """divisors(n), kept for the last 64 n: the eigenform test applies the
    same few T_n to every candidate it tests."""
    return tuple(divisors(n))


def _kernel(nums: Sequence[int], k: int, r: int, n: int, count: int) -> tuple[list[int], int]:
    """T_n on the Y^r component of a weight-k form, in integers.

    Returns (b, D): b[m] sums c_d * nums[mn/d^2] over d | gcd(m, n) for m <
    count, where n^r d^(k-2r-1) = c_d / D; a negative exponent (2r+1 > k)
    is written as (n/d)^(2r+1-k) over D = n^(2r+1-k). So every c_d is an
    integer and b_m of T_n is b[m] / (D * series denominator). The terms of
    d sit at m = d j and read nums[j n/d], one strided slice per divisor:
    the slice of d = 1 is copied as b (unscaled when c_1 = 1), and each later
    one is added onto b[::d] by map, so no bytecode runs per coefficient.
    """
    e = k - 2 * r - 1
    b: list[int] = []
    for d in _divisors(n):
        c = n**r * (d**e if e >= 0 else (n // d) ** -e)
        terms = nums[: (count - 1) // d * (n // d) + 1 : n // d]
        if d == 1:
            b = list(terms) if c == 1 else list(map(mul, terms, repeat(c)))
        else:
            b[::d] = map(add, b[::d], map(mul, terms, repeat(c)))
    return b, n ** max(-e, 0)


def _act(components: Sequence[QSeries], k: int, n: int) -> list[QSeries]:
    """T_n on every Y-component; the result certifies floor(prec/n) terms."""
    if n < 1:
        raise ValueError(f"Hecke operators are indexed by n >= 1, got {n}")
    prec = components[0].prec
    if prec < n:
        warnings.warn(
            f"T_{n} on a series of precision {prec} certifies only the constant term",
            stacklevel=3,
        )
    out = []
    for r, c in enumerate(components):
        nums, den = _kernel(c.numerators, k, r, n, prec // n + 1)
        out.append(QSeries.from_numerators(nums, c.denominator * den))
    return out


def hecke(f: GradedSeries, n: int) -> GradedSeries:
    """Apply the n-th Hecke operator to a weight-tagged series.

    The result certifies floor(prec/n) coefficients and keeps the weight.
    """
    (series,) = _act((f,), f.weight, n)
    return GradedSeries(series, f.weight)


def hecke_nearly(form: YPolyForm, n: int) -> YPolyForm:
    """Apply T_n to a Y-polynomial form of weight k, component by component."""
    return YPolyForm(_act(form.components, form.weight, n), form.weight)


class Violation(NamedTuple):
    """First coefficient at which T_n f fails to be lambda_n * f."""

    n: int
    exponent: int
    expected: Fraction
    actual: Fraction
    y_power: Optional[int] = None


class EigenReport(NamedTuple):
    """Outcome of the finite eigenform test.

    A passing verdict certifies T_n f = lambda_n f on every comparable
    coefficient for all n up to the bound; it is a necessary condition,
    never a proof for all n.
    """

    is_eigen_up_to_bound: bool
    tested_bound: int
    eigenvalues: tuple[tuple[int, Fraction], ...]
    first_violation: Optional[Violation]
    precision_used: int
    min_comparison_prec: int

    def eigenvalue(self, n: int) -> Fraction:
        for m, lam in self.eigenvalues:
            if m == n:
                return lam
        raise KeyError(f"no eigenvalue recorded for n = {n}")


def _first_miss(
    nums: Sequence[Sequence[int]], k: int, n: int, count: int, first: tuple[int, int]
) -> tuple[int, int, list[tuple[list[int], int]], Optional[tuple[int, int]]]:
    """Compare T_n f with lambda_n f on exponents 0..count-1, in integers.

    nums[r] holds the numerators of the Y^r component of a weight-k form f,
    and first = (m0, r0) is its first nonzero coefficient, m0 < count, where
    lambda_n = p/q (lowest terms) is read off. Returns (p, q, images,
    miss): images[r] is _kernel's (b, D) for component r, and miss is the
    smallest (m, r) with lambda_n a_m != b_m, or None. With a_m = a/s and
    b_m = b/(s D), that reads p a D != q b (s cancels). Each component is
    one lazy pass that stops at its first unequal pair, and a factor p D or
    q of 1 is not multiplied in.
    """
    m0, r0 = first
    images = [_kernel(a, k, r, n, count) for r, a in enumerate(nums)]
    b0, den0 = images[r0]
    p, q = b0[m0], den0 * nums[r0][m0]
    g = gcd(p, q)
    p, q = p // g, q // g
    misses = []
    for r, (row, (b, den)) in enumerate(zip(nums, images)):
        pd = p * den
        left = map(mul, b, repeat(q)) if q != 1 else b
        right = map(mul, row, repeat(pd)) if pd != 1 else row
        m = next(compress(indices(), map(ne, left, right)), None)
        if m is not None:
            misses.append((m, r))
    return p, q, images, min(misses, default=None)


def eigenform_test(
    f: Union[GradedSeries, YPolyForm], bound: int = 10, window: int = 12
) -> EigenReport:
    """Check whether f is a simultaneous T_n eigenvector for n <= bound.

    lambda_n is read off at the first nonzero coefficient of f, then
    T_n f = lambda_n f is compared on every coefficient the shrunk
    precision floor(prec/n) certifies (all Y-components for Y-polynomial
    inputs, so a form with both a_0 and a_1 nonzero has the consistency of
    the two candidate ratios checked automatically). Each T_n f is
    computed in full, one list per Y-component, and compared with
    lambda_n f in one lazy pass per component that stops at that
    component's first miss; a miss reports its first witness, smallest m
    and then smallest Y-power, and stops the test. The
    input must carry at least bound*window coefficients so that even
    T_bound leaves a window of length >= window.
    """
    if bound < 1:
        raise ValueError("the test needs a bound >= 1")
    if window < 1:
        raise ValueError("the test needs a window >= 1")
    is_ypoly = isinstance(f, YPolyForm)
    comps = f.components if is_ypoly else (f,)
    k = f.weight
    prec = comps[0].prec
    if prec < bound * window:
        raise PrecisionError(
            f"eigenform test with bound {bound} and window {window} needs "
            f"precision >= {bound * window}, have {prec}"
        )

    nums = [c.numerators for c in comps]
    first = next(
        ((m, r) for m in range(prec + 1) for r in range(len(comps)) if nums[r][m]),
        None,
    )
    if first is None:
        raise ValueError("the zero form is not an eigenform candidate")
    m0, r0 = first

    # T_1 is the identity, so lambda_1 = 1 needs no scan.
    eigenvalues: list[tuple[int, Fraction]] = [(1, Fraction(1))]
    for n in range(2, bound + 1):
        count = prec // n + 1
        if m0 >= count:
            continue
        p, q, images, miss = _first_miss(nums, k, n, count, first)
        if miss is not None:
            m, r = miss
            b, den = images[r]
            s = comps[r].denominator
            violation = Violation(
                n=n,
                exponent=m,
                expected=Fraction(p * nums[r][m], q * s),
                actual=Fraction(b[m], s * den),
                y_power=r if is_ypoly else None,
            )
            return EigenReport(False, bound, tuple(eigenvalues), violation, prec, prec // bound)
        eigenvalues.append((n, Fraction(p, q)))
    return EigenReport(True, bound, tuple(eigenvalues), None, prec, prec // bound)
