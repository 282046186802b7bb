"""Tests for Rankin-Cohen brackets."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from modforms.brackets import rankin_cohen
from modforms.exactmath import binomial
from modforms.forms import catalog, cusp_delta, eisenstein, is_modular_member
from modforms.qseries import GradedSeries, QSeries
from reference import mul_reference

PREC = 64


def test_order_zero_is_the_product():
    e4, e6 = eisenstein(4, PREC), eisenstein(6, PREC)
    assert rankin_cohen(e4, e6, 0) == e4 * e6


def test_e4_e6_order_one():
    e4, e6 = eisenstein(4, PREC), eisenstein(6, PREC)
    bracket = rankin_cohen(e4, e6, 1)
    assert bracket.weight == 12
    assert bracket[1] == -3456
    assert bracket == cusp_delta(12, PREC) * -3456


def test_weight_tag():
    e4 = eisenstein(4, PREC)
    assert rankin_cohen(e4, e4, 3).weight == 14


def test_self_bracket_vanishes_for_odd_order():
    e4 = eisenstein(4, PREC)
    d12 = cusp_delta(12, PREC)
    for m in (1, 3):
        assert rankin_cohen(e4, e4, m).is_zero()
        assert rankin_cohen(d12, d12, m).is_zero()


def test_sign_symmetry():
    forms = [eisenstein(4, 32), eisenstein(6, 32), cusp_delta(12, 32)]
    for g in forms:
        for h in forms:
            for m in range(5):
                left = rankin_cohen(g, h, m)
                right = rankin_cohen(h, g, m)
                assert left == right * ((-1) ** m), (g.weight, h.weight, m)


def test_constant_term_vanishes_for_positive_order():
    e4, e6 = eisenstein(4, 32), eisenstein(6, 32)
    for m in range(1, 5):
        assert rankin_cohen(e4, e6, m)[0] == 0


def test_brackets_are_modular_members():
    entries = [e for e in catalog(PREC) if e.name != "E2"]
    for i, (g_name, g) in enumerate(entries):
        for h_name, h in entries[i:]:
            for m in range(5):
                weight = g.weight + h.weight + 2 * m
                if weight > 26:
                    continue
                bracket = rankin_cohen(g, h, m)
                coords = is_modular_member(bracket, weight)
                assert coords is not None, (g_name, h_name, m)


def test_weight_14_cusp_brackets_vanish():
    # a nonzero order >= 1 bracket would be a cusp form of weight 14,
    # but that space is zero
    e4, e6, e8, e10 = (eisenstein(k, 32) for k in (4, 6, 8, 10))
    assert rankin_cohen(e4, e6, 2).is_zero()
    assert rankin_cohen(e4, e8, 1).is_zero()


def test_precision_is_min_of_inputs():
    bracket = rankin_cohen(eisenstein(4, 20), eisenstein(6, 32), 2)
    assert bracket.prec == 20


def test_domain_errors():
    e4 = eisenstein(4, 8)
    with pytest.raises(ValueError):
        rankin_cohen(e4, e4, -1)
    weight_zero = GradedSeries(QSeries.one(8), 0)
    with pytest.raises(ValueError):
        rankin_cohen(e4, weight_zero, 1)


def _textbook_bracket(g, h, m):
    """sum_r (-1)^r C(m+k1-1, m-r) C(m+k2-1, r) D^r(g) D^(m-r)(h), with
    every product taken by the Fraction schoolbook oracle."""
    g_derivs, h_derivs = [g], [h]
    for _ in range(m):
        g_derivs.append(g_derivs[-1].derivative())
        h_derivs.append(h_derivs[-1].derivative())
    total = QSeries.zero(min(g.prec, h.prec))
    for r in range(m + 1):
        coeff = (-1) ** r * binomial(m + g.weight - 1, m - r) * binomial(m + h.weight - 1, r)
        total = total + mul_reference(g_derivs[r], h_derivs[m - r]) * coeff
    return GradedSeries(total, g.weight + h.weight + 2 * m)


MODULAR_32 = [(e.name, e.form) for e in catalog(32) if e.name != "E2"]


@pytest.mark.parametrize("i", range(len(MODULAR_32)), ids=[name for name, _ in MODULAR_32])
def test_matches_the_textbook_sum(i):
    # Every unordered modular catalog pair and m <= 4 (test_sign_symmetry
    # covers the swapped order).
    g_name, g = MODULAR_32[i]
    for h_name, h in MODULAR_32[i:]:
        for m in range(5):
            assert rankin_cohen(g, h, m) == _textbook_bracket(g, h, m), (g_name, h_name, m)


# The products D^i(g)*h carry different denominators; the Horner sum runs
# over their lcm. Scaled operands give each factor its own denominator.
@pytest.mark.parametrize(
    "g_scale, h_scale",
    [(Fraction(1, 3), Fraction(5, 7)), (Fraction(-2, 9), Fraction(1, 4)),
     (Fraction(3, 8), Fraction(1, 5))],
)
@pytest.mark.parametrize("m", range(5))
def test_mixed_denominators_match_the_textbook_sum(g_scale, h_scale, m):
    g, h = eisenstein(4, PREC) * g_scale, eisenstein(6, PREC) * h_scale
    pairs = [(g, h), (g, cusp_delta(12, PREC) * h_scale), (h, g)]
    for left, right in pairs:
        assert rankin_cohen(left, right, m) == _textbook_bracket(left, right, m)
        derivs = [left]
        for _ in range(m):
            derivs.append(derivs[-1].derivative())
        assert m == 0 or len({(d * right).denominator for d in derivs}) > 1


# Arbitrary series with small denominators: here the products' denominators
# need not divide the first one's, so a sum over the largest of them fails.
# In the examples (1/2 + q/3)(1 - 2q/3) = 1/2 + O(q^2) while D(g) h = q/3,
# and D^i(g) h has denominator 5 for i >= 1 against 2 for g h.
_small_rational = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 5, 7]))
_tagged = st.lists(_small_rational, min_size=1, max_size=9).map(QSeries)


@example(QSeries([Fraction(1, 2), Fraction(1, 3)]), QSeries([1, Fraction(-2, 3)]), 1)
@example(
    QSeries([3, -2, 5, 0, -1, 2, Fraction(6, 5), 2]),
    QSeries([3, Fraction(1, 2), -1, Fraction(-5, 2), 3, Fraction(1, 2), Fraction(-6, 5), 2]),
    3,
)
@given(_tagged, _tagged, st.integers(0, 4))
@settings(max_examples=80, deadline=None)
def test_mixed_denominators_of_arbitrary_series(g, h, m):
    g, h = GradedSeries(g, 4), GradedSeries(h, 6)
    assert rankin_cohen(g, h, m) == _textbook_bracket(g, h, m)
