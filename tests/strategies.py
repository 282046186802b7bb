"""Hypothesis strategies that more than one test module draws from."""

from fractions import Fraction

from hypothesis import strategies as st


def rational_from(u: int, d: int, max_den: int) -> Fraction:
    """u * d // max_den over d: for u in [lo * max_den, hi * max_den], every
    numerator m in [lo * d, hi * d], from any u in [m, m + 1) * max_den / d."""
    return Fraction(u * d // max_den, d)


def rationals(lo: int, hi: int, max_den: int):
    """Every rational in [lo, hi] of denominator at most max_den, the value
    space of st.fractions(lo, hi, max_denominator=max_den), from integer
    strategies built once: st.fractions builds one afresh on every draw."""
    return st.builds(rational_from, st.integers(lo * max_den, hi * max_den), st.integers(1, max_den),
                     st.just(max_den))
