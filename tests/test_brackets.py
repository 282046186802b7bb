"""Tests for Rankin-Cohen brackets."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from modforms import brackets
from modforms.brackets import rankin_cohen
from modforms.exactmath import binomial
from modforms.forms import CATALOG_NAMES, catalog_form, cusp_delta, eisenstein, is_modular_member
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
    entries = [(name, catalog_form(name, PREC)) for name in CATALOG_NAMES if name != "E2"]
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


MODULAR_32 = [(name, catalog_form(name, 32)) for name in CATALOG_NAMES if name != "E2"]


@pytest.mark.parametrize("i", range(len(MODULAR_32)), ids=[name for name, _ in MODULAR_32])
def test_matches_the_textbook_sum(i):
    # Every unordered modular catalog pair and m <= 4 (test_sign_symmetry
    # covers the swapped order).
    g_name, g = MODULAR_32[i]
    for h_name, h in MODULAR_32[i:]:
        for m in range(5):
            assert rankin_cohen(g, h, m) == _textbook_bracket(g, h, m), (g_name, h_name, m)


# Scaled operands give each factor its own denominator, and the products
# D^i(g)*h reduce to different ones. rankin_cohen sums over the product of
# g's and h's denominators and reduces once; it must equal the textbook
# sum of the reduced products.
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


# The four-point path, from 160 coefficients, which the tests at prec 32
# and 64 never reach.
@pytest.mark.parametrize("prec", [160, 240])
class TestFourPointBrackets:
    def test_equal_operands(self, prec):
        # Odd m gives zero, and even m merges the terms r and m - r.
        d12 = catalog_form("Delta12", prec)
        twin = GradedSeries(QSeries.from_numerators(list(d12.numerators), d12.denominator), 12)
        for m in (1, 2):
            assert rankin_cohen(d12, twin, m) == _textbook_bracket(d12, d12, m), m

    def test_unequal_precision(self, prec):
        # E6 at two precisions is one operand to the common precision.
        e4, e6 = catalog_form("E4", prec + 8), catalog_form("E6", prec)
        for g, h in ((e4, e6), (e6, catalog_form("E6", prec + 5))):
            bracket = rankin_cohen(g, h, 1)
            assert bracket.prec == prec and bracket == _textbook_bracket(g, h, 1)

    def test_equal_coefficients_of_other_weights_are_not_merged(self, prec):
        # Merged, the odd order would give zero.
        e4 = catalog_form("E4", prec)
        as_six = GradedSeries(e4.series, 6)
        bracket = rankin_cohen(e4, as_six, 1)
        assert not bracket.is_zero() and bracket == _textbook_bracket(e4, as_six, 1)


def _kernel_terms(monkeypatch, g, h, m):
    """The terms (c, a, b) rankin_cohen hands the product kernel, or None
    when it makes no product."""
    seen, kernel = [None], brackets._product_sum

    def spy(terms):
        seen[0] = terms
        return kernel(terms)

    monkeypatch.setattr(brackets, "_product_sum", spy)
    bracket = rankin_cohen(g, h, m)
    assert bracket == _textbook_bracket(g, h, m)
    return seen[0]


@pytest.mark.parametrize("m", range(7))
def test_equal_operands_merge_their_terms(monkeypatch, m):
    # m/2 + 1 products for even m, the middle one a square of one list,
    # and none for odd m; equal coefficients of two weights are not merged.
    e4 = eisenstein(4, 32)
    twin = GradedSeries(QSeries.from_numerators(list(e4.numerators), e4.denominator), 4)
    terms = _kernel_terms(monkeypatch, e4, twin, m)
    if m % 2:
        assert terms is None
    else:
        assert len(terms) == m // 2 + 1 and terms[-1][1] is terms[-1][2]
    assert len(_kernel_terms(monkeypatch, e4, GradedSeries(e4.series, 6), m)) == m + 1
