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
_ONE = Fraction(1)


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
    """Canonical "num/den" string used in all JSON output."""
    value = as_rational(value)
    return f"{value.numerator}/{value.denominator}"


# B_0, B_1, ... as far as any call has needed, grown by the recurrence
# sum_{j<=m} C(m+1, j) B_j = 0 (m >= 1), which fixes B_1 = -1/2 and hence
# B_2 = 1/6, B_4 = -1/30. One table per process: a new weight extends it.
_BERNOULLI = [_ONE]


def bernoulli(k: int) -> Fraction:
    """Bernoulli number B_k for even k >= 2.

    The sign convention is the one under which -2k/B_k gives the familiar
    Eisenstein coefficients, e.g. -8/B_4 = 240.
    """
    if k < 2 or k % 2 != 0:
        raise ValueError(f"bernoulli is defined here for even k >= 2, got {k}")
    values = _BERNOULLI
    for m in range(len(values), k + 1):
        acc = sum(math.comb(m + 1, j) * values[j] for j in range(m) if values[j])
        values.append(Fraction(-acc, m + 1))
    return values[k]


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
