"""Tests for the exact arithmetic layer."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from modforms import exactmath
from modforms.exactmath import (
    bernoulli,
    binomial,
    divisors,
    rational_str,
    sigma,
    solve_linear,
)
from reference import bernoulli_reference

# Independent table of Bernoulli numbers (even index), frozen from the
# classical values; the implementation must reproduce them exactly.
BERNOULLI_TABLE = {
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
    14: Fraction(7, 6),
    16: Fraction(-3617, 510),
    18: Fraction(43867, 798),
    20: Fraction(-174611, 330),
}


class TestBernoulli:
    @pytest.mark.parametrize("k,expected", sorted(BERNOULLI_TABLE.items()))
    def test_table(self, k, expected):
        assert bernoulli(k) == expected

    def test_sign_convention_matches_eisenstein_normalization(self):
        # -2k/B_k at k = 4 must be the familiar 240.
        assert -Fraction(8) / bernoulli(4) == 240

    @pytest.mark.parametrize("k", [0, -2, 3, 7, 1])
    def test_domain_errors(self, k):
        with pytest.raises(ValueError):
            bernoulli(k)

    def test_von_staudt_clausen_denominators(self):
        # denominator of B_k is the product of primes p with (p-1) | k
        def primes_upto(n):
            out = []
            for p in range(2, n + 1):
                if all(p % q for q in out):
                    out.append(p)
            return out

        for k in range(2, 31, 2):
            expected = 1
            for p in primes_upto(k + 1):
                if k % (p - 1) == 0:
                    expected *= p
            assert bernoulli(k).denominator == expected, k

    # The tangent-number path against the Fraction recurrence, which shares
    # no code with it, up to and beyond the Eisenstein weight cap.
    @pytest.mark.parametrize("k", [*range(2, 129, 2), 256, 264])
    def test_matches_the_fraction_recurrence(self, k):
        assert bernoulli(k) == bernoulli_reference(k)

    def test_ascending_weights_grow_the_table_by_doubling(self, monkeypatch):
        builds = []
        tangent = exactmath._tangent_numbers

        def spy(n):
            builds.append(n)
            return tangent(n)

        monkeypatch.setattr(exactmath, "_BERNOULLI", [])
        monkeypatch.setattr(exactmath, "_tangent_numbers", spy)
        values = {k: bernoulli(k) for k in range(2, 265, 2)}
        assert builds == [16, 32, 64, 128, 256]
        assert all(bernoulli(k) == v for k, v in values.items()) and len(builds) == 5


class TestSigma:
    def test_known_values(self):
        assert sigma(1, 6) == 12
        assert sigma(3, 2) == 9
        assert sigma(7, 2) == 129
        assert sigma(0, 12) == 6
        assert sigma(5, 1) == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            sigma(1, 0)
        with pytest.raises(ValueError):
            sigma(2, -3)

    def test_multiplicative_on_coprime_arguments(self):
        from math import gcd

        for j in (1, 3):
            for m in range(1, 51):
                for n in range(1, 51):
                    if gcd(m, n) == 1:
                        assert sigma(j, m * n) == sigma(j, m) * sigma(j, n)

    def test_divisors_ordering(self):
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(1) == [1]
        with pytest.raises(ValueError):
            divisors(0)

    def test_divisors_returns_a_fresh_list(self):
        # The Hecke kernel memoizes divisors as tuples of its own; each caller
        # of divisors gets a list it may change.
        first, second = divisors(6), divisors(6)
        assert first == second == [1, 2, 3, 6] and first is not second
        first.append(12)
        assert divisors(6) == [1, 2, 3, 6]


class TestBinomial:
    def test_known_values(self):
        assert binomial(5, 2) == 10
        assert binomial(4, 0) == 1
        assert binomial(10, 10) == 1

    def test_out_of_range_is_zero(self):
        assert binomial(3, 5) == 0
        assert binomial(3, -1) == 0
        assert binomial(0, 1) == 0


def solve_reference(matrix, rhs):
    """Gauss-Jordan elimination over Fractions, the first nonzero pivot per
    column and free variables zero: the oracle for the integer elimination
    of solve_linear, sharing none of its code."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    b = [Fraction(x) for x in rhs]
    n_rows, n_cols = len(rows), len(rows[0])
    pivot_cols, rank = [], 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, n_rows) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        b[rank], b[pivot] = b[pivot], b[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        b[rank] *= inv
        for r in range(n_rows):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
                b[r] -= factor * b[rank]
        pivot_cols.append(col)
        rank += 1
    if any(b[r] != 0 for r in range(rank, n_rows)):
        return None
    solution = [Fraction(0)] * n_cols
    for i, col in enumerate(pivot_cols):
        solution[col] = b[i]
    return solution


# Zero half the time, else a signed rational with denominator up to 10^6.
entries = st.one_of(
    st.just(0),
    st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**6)),
)


@st.composite
def linear_systems(draw):
    """A system of 1-8 rows and columns: random, or of a chosen rank (each
    row a combination of a few base rows), with some rows and columns
    zeroed, and a right-hand side inside the column span or drawn at
    random (then mostly inconsistent when the rank is short)."""
    n_rows, n_cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    if draw(st.booleans()):
        matrix = [[draw(entries) for _ in range(n_cols)] for _ in range(n_rows)]
    else:
        rank = draw(st.integers(1, min(n_rows, n_cols)))
        base = [[draw(entries) for _ in range(n_cols)] for _ in range(rank)]
        mix = [[draw(st.integers(-3, 3)) for _ in range(rank)] for _ in range(n_rows)]
        matrix = [
            [sum(m * row[j] for m, row in zip(weights, base)) for j in range(n_cols)]
            for weights in mix
        ]
    for r in draw(st.sets(st.integers(0, n_rows - 1), max_size=2)):
        matrix[r] = [0] * n_cols
    for c in draw(st.sets(st.integers(0, n_cols - 1), max_size=2)):
        for row in matrix:
            row[c] = 0
    if draw(st.booleans()):
        x = [draw(entries) for _ in range(n_cols)]
        rhs = [sum(a * b for a, b in zip(row, x)) for row in matrix]
    else:
        rhs = [draw(entries) for _ in range(n_rows)]
    return matrix, rhs


class TestSolveLinear:
    @given(linear_systems())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_fraction_oracle(self, system):
        matrix, rhs = system
        assert solve_linear(matrix, rhs) == solve_reference(matrix, rhs)

    def test_identity_system(self):
        assert solve_linear([[1, 0], [0, 1]], [3, 4]) == [3, 4]

    def test_free_variable_zeroed(self):
        assert solve_linear([[1, 1]], [2]) == [2, 0]

    def test_inconsistent(self):
        assert solve_linear([[1], [1]], [1, 2]) is None

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_linear([[1, 2]], [1, 2])
        with pytest.raises(ValueError):
            solve_linear([[1, 2], [1]], [1, 2])
        with pytest.raises(ValueError):
            solve_linear([], [])

    def test_rectangular_overdetermined(self):
        # consistent overdetermined system
        matrix = [[1, 1], [1, -1], [2, 0]]
        assert solve_linear(matrix, [3, 1, 4]) == [2, 1]

    def test_rational_entries(self):
        sol = solve_linear([[Fraction(1, 2), 0], [0, 3]], [1, Fraction(1, 3)])
        assert sol == [2, Fraction(1, 9)]

    def test_random_roundtrip(self):
        rng = random.Random(20240811)
        for _ in range(25):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            matrix = [
                [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(cols)]
                for _ in range(rows)
            ]
            x = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(cols)]
            rhs = [sum(a * b for a, b in zip(row, x)) for row in matrix]
            solved = solve_linear(matrix, rhs)
            assert solved is not None
            for row, target in zip(matrix, rhs):
                assert sum(a * b for a, b in zip(row, solved)) == target

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            solve_linear([[0.5]], [1])

    @pytest.mark.parametrize("matrix, rhs", [([[1]], [0.5]), ([[True]], [1]), ([[1]], [False])])
    def test_rejects_floats_and_bools_on_either_side(self, matrix, rhs):
        with pytest.raises(TypeError):
            solve_linear(matrix, rhs)


def test_rational_string_roundtrip():
    assert rational_str(Fraction(-24)) == "-24/1"
    assert Fraction("-24/1") == -24
    assert Fraction("5") == 5
    assert Fraction(rational_str(Fraction(22, 7))) == Fraction(22, 7)
