"""Exact arithmetic foundation: rationals, Bernoulli numbers, divisor
power sums, binomial coefficients, and dense linear solving over Q by
Gauss-Jordan elimination in integers.

Everything in this module is pure and exact; floats are rejected on
input and never produced.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

__all__ = [
    "as_rational",
    "rational_str",
    "bernoulli",
    "sigma",
    "binomial",
    "divisors",
    "solve_linear",
]

_ZERO = Fraction(0)


def as_rational(value) -> Fraction:
    """Coerce an int or Fraction to Fraction; refuse floats outright."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(
            f"exact rational expected (int or Fraction), got {type(value).__name__}"
        )
    return Fraction(value)


def rational_str(value: Fraction) -> str:
    """The "num/den" string of a rational, in lowest terms, as the JSON
    reports write one."""
    value = as_rational(value)
    return f"{value.numerator}/{value.denominator}"


# B_2, B_4, ..., B_2n for the largest n any call has needed: _BERNOULLI[i]
# is B_(2i+2). One table per process; a weight beyond it rebuilds it to at
# least twice its length, so ascending weights rebuild it O(log k) times.
_BERNOULLI: list[Fraction] = []
_BERNOULLI_MIN = 16  # B_2..B_32: every suite weight in one build


def _tangent_numbers(n: int) -> list[int]:
    """T_1..T_n, tan x = sum T_j x^(2j-1)/(2j-1)!, by the integer recurrence
    of Brent and Harvey ("Fast computation of Bernoulli, Tangent and Secant
    numbers", 2011, algorithm TangentNumbers): O(n^2) small-by-big
    products and no division."""
    t = [0] * (n + 1)
    t[1] = 1
    for j in range(2, n + 1):
        t[j] = (j - 1) * t[j - 1]
    for i in range(2, n + 1):
        for j in range(i, n + 1):
            t[j] = (j - i) * t[j - 1] + (j - i + 2) * t[j]
    return t[1:]


def bernoulli(k: int) -> Fraction:
    """Bernoulli number B_k for even k >= 2.

    The sign convention is the one under which -2k/B_k gives the familiar
    Eisenstein coefficients, e.g. -8/B_4 = 240. B_2n is read off the n-th
    tangent number, B_2n = (-1)^(n-1) 2n T_n / (4^n (4^n - 1)).
    """
    if k < 2 or k % 2 != 0:
        raise ValueError(f"bernoulli is defined here for even k >= 2, got {k}")
    n = k // 2
    if n > len(_BERNOULLI):
        size = max(n, 2 * len(_BERNOULLI), _BERNOULLI_MIN)
        _BERNOULLI[:] = [
            Fraction((-1) ** (j - 1) * 2 * j * t, 4**j * (4**j - 1))
            for j, t in enumerate(_tangent_numbers(size), 1)
        ]
    return _BERNOULLI[n - 1]


def divisors(n: int) -> list[int]:
    """Positive divisors of n >= 1 in increasing order."""
    if n < 1:
        raise ValueError(f"divisors requires n >= 1, got {n}")
    small, large = [], []
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
    return small + large[::-1]


def sigma(j: int, n: int) -> int:
    """Sum of the j-th powers of the positive divisors of n."""
    if n < 1:
        raise ValueError(f"sigma requires n >= 1, got {n}")
    return sum(d**j for d in divisors(n))


def binomial(n: int, r: int) -> int:
    """Binomial coefficient with the out-of-range-zero convention."""
    if r < 0 or r > n:
        return 0
    return math.comb(n, r)


def _integer_row(values: Sequence[Fraction | int]) -> list[int]:
    """values times the lcm of their denominators, as ints; floats and
    bools raise TypeError."""
    for x in values:
        if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
            as_rational(x)
    den = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values]


def solve_linear(
    matrix: Sequence[Sequence[Fraction | int]],
    rhs: Sequence[Fraction | int],
) -> Optional[list[Fraction]]:
    """Solve A x = b exactly over the rationals.

    Returns one exact solution with every free variable set to zero, or
    None when the system is inconsistent. Pivots are the first nonzero
    entry in each column: exact arithmetic needs no size heuristics and
    this keeps the output deterministic.

    Elimination runs in integers: each equation is scaled by the lcm of
    its denominators, a row is cleared as p * row - f * pivot_row (over
    gcd(p, f)) and then divided by its content. Each row stays a nonzero
    multiple of the row that Gauss-Jordan over Q would hold, so the pivots
    and the solution are the same; x at the pivot of row i is b_i / p_i.
    """
    n_rows = len(matrix)
    if n_rows < 1:
        raise ValueError("matrix must have at least one row")
    n_cols = len(matrix[0])
    for row in matrix:
        if len(row) != n_cols:
            raise ValueError("matrix rows have inconsistent lengths")
    if len(rhs) != n_rows:
        raise ValueError(
            f"rhs has length {len(rhs)}, expected {n_rows} (one per matrix row)"
        )
    rows = [_integer_row([*row, b]) for row, b in zip(matrix, rhs)]

    pivot_cols: list[int] = []
    rank = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, n_rows) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        p = top[col]
        for r in range(n_rows):
            f = rows[r][col]
            if r != rank and f:
                g = math.gcd(p, f)
                s, t = p // g, f // g
                row = [s * x - t * y for x, y in zip(rows[r], top)]
                content = math.gcd(*row)
                rows[r] = [x // content for x in row] if content > 1 else row
        pivot_cols.append(col)
        rank += 1
        if rank == n_rows:
            break

    if any(rows[r][-1] for r in range(rank, n_rows)):
        return None
    solution = [_ZERO] * n_cols
    for i, col in enumerate(pivot_cols):
        solution[col] = Fraction(rows[i][-1], rows[i][col])
    return solution
