"""Tests for Y-polynomial forms, the weight-raising operator, and the
quasimodular decomposition."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from modforms.forms import (
    GeneratorPoly,
    catalog_form,
    cusp_delta,
    eisenstein,
    is_modular_member,
    monomial_exponents,
)
from modforms.nearly import (
    YPolyForm,
    constant_term,
    e2_star,
    maass_shimura,
    quasimodular_decompose,
)
from modforms.qseries import PrecisionError, QSeries

PREC = 64


class TestYPolyForm:
    def test_trailing_zero_components_stripped(self):
        form = YPolyForm([QSeries([1], prec=4), QSeries.zero(4)], weight=4)
        assert form.depth == 0

    def test_component_beyond_depth_is_zero(self):
        form = YPolyForm([QSeries([1], prec=4)], weight=4)
        assert form.component(3).is_zero()

    def test_depth_beyond_half_weight_warns(self):
        with pytest.warns(UserWarning, match="weight/2"):
            YPolyForm([QSeries([1], 2), QSeries([1], 2), QSeries([1], 2)], weight=2)

    def test_addition_and_scalar(self):
        estar = e2_star(8)
        doubled = estar + estar
        assert doubled == estar * 2
        assert (doubled - estar) == estar

    def test_weight_mismatch_rejected(self):
        with pytest.raises(ValueError):
            e2_star(8) + YPolyForm([QSeries([1], 8)], weight=4)
        with pytest.raises(ValueError, match="cannot subtract forms of weights 2 and 4"):
            e2_star(8) - YPolyForm([QSeries([1], 8)], weight=4)
        with pytest.raises(ValueError, match="cannot subtract forms of weights 2 and 4"):
            e2_star(8) - eisenstein(4, 8)

    def test_difference_with_graded_promotes(self):
        # A GradedSeries operand is the Y^0 component; the difference runs
        # to the lesser precision and keeps the Y-components of the other.
        estar, e2 = e2_star(12), eisenstein(2, 8)
        difference = estar - e2
        assert difference.weight == 2 and difference.prec == 8
        assert difference.component(0).is_zero()
        assert difference.component(1) == QSeries.constant(-3, 8)
        assert difference + e2 == YPolyForm([c.truncate(8) for c in estar.components], 2)

    def test_product_with_graded_promotes(self):
        e4 = eisenstein(4, 8)
        product = e2_star(8) * e4
        assert product.weight == 6
        assert product.depth == 1
        assert product.component(1) == e4.series * -3

    def test_y_convolution(self):
        estar = e2_star(16)
        square = estar * estar
        assert square.depth == 2
        assert square.component(2) == QSeries.constant(9, 16)
        e2 = eisenstein(2, 16).series
        assert square.component(1) == e2 * -6

    def test_constant_term_of_product_depends_only_on_constant_terms(self):
        rng = random.Random(7)
        for _ in range(10):
            comps_a = [
                QSeries([rng.randint(-5, 5) for _ in range(9)])
                for _ in range(rng.randint(1, 3))
            ]
            comps_b = [
                QSeries([rng.randint(-5, 5) for _ in range(9)])
                for _ in range(rng.randint(1, 3))
            ]
            a = YPolyForm(comps_a, weight=8)
            b = YPolyForm(comps_b, weight=8)
            product = a * b
            assert product.component(0) == comps_a[0] * comps_b[0]


class TestE2Star:
    def test_structure(self):
        estar = e2_star(8)
        assert estar.weight == 2 and estar.depth == 1
        assert estar.component(0) == eisenstein(2, 8).series
        assert estar.component(1) == QSeries.constant(-3, 8)

    def test_constant_term_is_e2(self):
        assert constant_term(e2_star(8)) == eisenstein(2, 8)


class TestMaassShimura:
    def test_weight_4_example(self):
        e4 = eisenstein(4, 16)
        raised = maass_shimura(e4)
        assert raised.weight == 6 and raised.depth == 1
        assert raised.component(0) == e4.series.derivative()
        assert raised.component(1) == -e4.series

    def test_delta12_identity(self):
        d12 = cusp_delta(12, PREC)
        assert maass_shimura(d12) == e2_star(PREC) * d12

    def test_zero_form(self):
        zero = YPolyForm([QSeries.zero(8)], weight=4)
        assert maass_shimura(zero).is_zero()

    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_components_follow_the_raising_formula(self, depth):
        # Component t of the raised form is D(c_t) + ((t - 1 - k)/4) c_(t-1),
        # with c_(-1) = c_(depth+1) = 0, computed here on Fractions.
        k, prec = 12, 20
        comps = [
            eisenstein(12, prec).series,
            cusp_delta(12, prec).series * 3,
            QSeries.constant(Fraction(-5, 7), prec),
        ][: depth + 1]
        padded = [QSeries.zero(prec), *comps, QSeries.zero(prec)]
        expected = []
        for t in range(depth + 2):
            scale = Fraction(t - 1 - k, 4)
            top, below = padded[t + 1].coeffs, padded[t].coeffs
            expected.append(QSeries([m * a + scale * b for m, (a, b) in enumerate(zip(top, below))]))
        raised = maass_shimura(YPolyForm(comps, k))
        assert raised.weight == k + 2 and raised.components == tuple(expected)
        if depth == 0:
            assert maass_shimura(eisenstein(12, prec)) == raised

    def test_constant_term_of_raised_e4(self):
        raised = maass_shimura(eisenstein(4, 16))
        assert constant_term(raised) == eisenstein(4, 16).derivative()

    def test_reduction_is_holomorphic_for_catalog_forms(self):
        estar = e2_star(PREC)
        for name in ("E4", "E6", "E8", "Delta12", "Delta16"):
            form = catalog_form(name, PREC)
            k = form.weight
            reduced = maass_shimura(form) - (estar * form) * Fraction(k, 12)
            assert reduced.depth == 0, name
            coords = is_modular_member(constant_term(reduced), k + 2)
            assert coords is not None, name


class TestQuasimodularDecompose:
    def test_e2_e4(self):
        form = GeneratorPoly.parse("E2*E4").evaluate(PREC)
        parts = quasimodular_decompose(form, 1)
        assert parts is not None
        assert parts[0] == (0, eisenstein(6, PREC), [1])
        assert parts[1] == (1, eisenstein(4, PREC) * 3, [3])

    def test_identity_case(self):
        e4 = eisenstein(4, PREC)
        parts = quasimodular_decompose(e4, 0)
        assert parts == [(0, e4, [1])]

    def test_d_delta12(self):
        d12 = cusp_delta(12, PREC)
        parts = quasimodular_decompose(d12.derivative(), 1)
        assert parts is not None
        (_, zero_part, zero_coords), delta_part = parts
        assert zero_part.is_zero() and zero_coords == [0]
        assert delta_part == (1, d12, list(is_modular_member(d12, 12)))

    def test_depth_bound_at_weight_over_two_rejected(self):
        with pytest.raises(ValueError, match="depth bound"):
            quasimodular_decompose(eisenstein(6, PREC), 3)
        with pytest.raises(ValueError):
            quasimodular_decompose(eisenstein(2, PREC), 1)

    def test_depth_equal_half_weight_is_not_decomposable(self):
        # D(E2) has depth exactly weight/2; it lies outside the direct sum
        de2 = eisenstein(2, PREC).derivative()
        assert quasimodular_decompose(de2, 1) is None

    def test_precision_guard(self):
        form = GeneratorPoly.parse("E2*E4").evaluate(8)
        with pytest.raises(PrecisionError):
            quasimodular_decompose(form, 1)

    def test_roundtrip_random_polynomials(self):
        rng = random.Random(1234)
        for _ in range(8):
            k = rng.choice([8, 10, 12, 14, 16])
            max_depth = (k - 2) // 2
            p = rng.randint(0, min(2, max_depth))
            terms = {}
            for _ in range(rng.randint(1, 3)):
                i = rng.randint(0, p)
                rest = k - 2 * i
                choices = [
                    (i, a, b)
                    for a, b in monomial_exponents(rest)
                ] if rest >= 4 else ([(i, 0, 0)] if rest == 0 else [])
                if not choices:
                    continue
                e = rng.choice(choices)
                terms[e] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            poly = GeneratorPoly(terms)
            if poly.is_zero():
                continue
            form = poly.evaluate(PREC)
            parts = quasimodular_decompose(form, p)
            assert parts is not None, poly
            total = QSeries.zero(PREC)
            for r, part, coords in parts:
                assert coords == is_modular_member(part, part.weight), poly
                series = part.series
                for _ in range(r):
                    series = series.derivative()
                total = total + series
            assert total == form.series, poly
