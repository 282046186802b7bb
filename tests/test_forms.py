"""Tests for the level-one catalog: Eisenstein series, cusp forms,
membership testing, and generator polynomials."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from modforms.forms import (
    CATALOG_NAMES,
    DELTA_WEIGHTS,
    GeneratorPoly,
    catalog,
    catalog_form,
    cusp_delta,
    dim_modular,
    eisenstein,
    eval_generator_poly,
    is_modular_member,
    monomial_basis,
    monomial_exponents,
    weight_basis,
)
from modforms.exactmath import solve_linear
from modforms.qseries import GradedSeries, PrecisionError, QSeries, mul_reference

PREC = 64

# Ramanujan tau values, the classical table; cusp_delta must reproduce
# them without having been built from them.
TAU = {
    1: 1,
    2: -24,
    3: 252,
    4: -1472,
    5: 4830,
    6: -6048,
    7: -16744,
    8: 84480,
    9: -113643,
    10: -115920,
}


class TestEisenstein:
    def test_e2_head(self):
        e2 = eisenstein(2, 5)
        assert e2.coeffs == (1, -24, -72, -96, -168, -144)
        assert e2.weight == 2

    def test_e4_head(self):
        assert eisenstein(4, 4).coeffs == (1, 240, 2160, 6720, 17520)

    def test_e6_head(self):
        assert eisenstein(6, 3).coeffs == (1, -504, -16632, -122976)

    def test_higher_weights(self):
        assert eisenstein(8, 2).coeffs == (1, 480, 61920)
        assert eisenstein(10, 2).coeffs == (1, -264, -135432)
        assert eisenstein(14, 2).coeffs == (1, -24, -196632)

    @pytest.mark.parametrize("k", [0, 1, 3, -4])
    def test_domain_errors(self, k):
        with pytest.raises(ValueError):
            eisenstein(k, 4)


class TestMonomialBasis:
    def test_weight_12(self):
        basis = monomial_basis(12, 8)
        assert len(basis) == 2
        assert monomial_exponents(12) == [(3, 0), (0, 2)]
        assert basis[0] == eisenstein(4, 8) ** 3
        assert basis[1] == eisenstein(6, 8) ** 2

    def test_weight_14_and_26(self):
        assert monomial_exponents(14) == [(2, 1)]
        assert monomial_exponents(26) == [(5, 1), (2, 3)]

    def test_dimensions_match_classical_formula(self):
        for k in range(4, 41, 2):
            expected = k // 12 + (0 if k % 12 == 2 else 1)
            assert dim_modular(k) == expected, k

    def test_weight_basis_handles_low_weights(self):
        assert weight_basis(2, 8) == ()
        assert len(weight_basis(0, 8)) == 1
        with pytest.raises(ValueError):
            monomial_basis(2, 8)


class TestCuspDelta:
    def test_delta12_matches_tau(self):
        d12 = cusp_delta(12, 10)
        for n, value in TAU.items():
            assert d12[n] == value

    def test_normalization(self):
        for k in DELTA_WEIGHTS:
            dk = cusp_delta(k, 4)
            assert dk[0] == 0 and dk[1] == 1
            assert dk.weight == k

    def test_delta12_polynomial_coordinates(self):
        coords = is_modular_member(cusp_delta(12, 32), 12)
        assert coords == [Fraction(1, 1728), Fraction(-1, 1728)]

    def test_second_coefficients(self):
        # classical q^2 coefficients of the normalized cusp forms
        expected = {12: -24, 16: 216, 18: -528, 20: 456, 22: -288, 26: -48}
        for k, a2 in expected.items():
            assert cusp_delta(k, 4)[2] == a2

    def test_independent_of_basis_order(self):
        # solving with the basis reversed gives the same series
        for k in DELTA_WEIGHTS:
            basis = list(monomial_basis(k, 16))[::-1]
            rows = [[b[0] for b in basis], [b[1] for b in basis]]
            coords = solve_linear(rows, [0, 1])
            total = QSeries.zero(16)
            for c, b in zip(coords, basis):
                total = total + b.series * c
            assert total == cusp_delta(k, 16).series

    def test_domain_error(self):
        with pytest.raises(ValueError):
            cusp_delta(14, 8)


class TestMembership:
    def test_e8_is_e4_squared(self):
        assert is_modular_member(eisenstein(8, PREC), 8) == [1]

    def test_ramanujan_difference_is_zero_member(self):
        e2, e4, e6 = (eisenstein(k, PREC) for k in (2, 4, 6))
        difference = e4.derivative() - (e2 * e4 - e6) * Fraction(1, 3)
        assert is_modular_member(difference, 6) == [0]
        assert difference.is_zero()

    def test_nonmember_detected(self):
        perturbed = eisenstein(4, PREC).series + QSeries(
            [0] * 40 + [1], prec=PREC
        )
        assert is_modular_member(perturbed, 4) is None

    def test_e2_is_not_modular_of_weight_two(self):
        with pytest.raises(ValueError):
            is_modular_member(eisenstein(2, PREC), 2)

    def test_zero_series_is_member_of_empty_space(self):
        assert is_modular_member(QSeries.zero(PREC), 2) == []

    def test_precision_guard(self):
        with pytest.raises(PrecisionError):
            is_modular_member(eisenstein(4, 5), 4)

    def test_odd_weight_rejected(self):
        with pytest.raises(ValueError):
            is_modular_member(eisenstein(4, PREC), 5)


class TestGeneratorPoly:
    def test_parse_ramanujan_identity(self):
        poly = GeneratorPoly.parse("(E2^2 - E4)/12")
        assert poly.weight() == 4
        assert poly.depth() == 2
        assert poly.evaluate(PREC) == eisenstein(2, PREC).derivative()

    def test_single_generator(self):
        assert eval_generator_poly("E4", 16) == eisenstein(4, 16)

    def test_product_weight_and_depth(self):
        poly = GeneratorPoly.parse("E2*E4")
        assert poly.weight() == 6
        assert poly.depth() == 1
        form = poly.evaluate(16)
        assert isinstance(form, GradedSeries) and form.weight == 6

    def test_rational_literal(self):
        poly = GeneratorPoly.parse("3/2*E4^3")
        assert poly.evaluate(8) == eisenstein(4, 8) ** 3 * Fraction(3, 2)

    def test_whitespace_insensitive(self):
        a = GeneratorPoly.parse("( E2 ^ 2 - E4 ) / 12").evaluate(8)
        b = GeneratorPoly.parse("(E2^2-E4)/12").evaluate(8)
        assert a == b

    def test_double_star_power(self):
        assert GeneratorPoly.parse("E4**2").evaluate(8) == eisenstein(4, 8) ** 2

    def test_inhomogeneous_returns_plain_series(self):
        result = GeneratorPoly.parse("E2 + E4").evaluate(8)
        assert type(result) is QSeries
        assert result == eisenstein(2, 8).series + eisenstein(4, 8).series

    def test_inhomogeneous_rejected_when_weight_required(self):
        with pytest.raises(ValueError, match="weight"):
            eval_generator_poly("E2 + E4", 8)

    def test_error_lists_offending_monomials(self):
        with pytest.raises(ValueError, match=r"E2 \(weight 2\)"):
            eval_generator_poly("E2 + E4", 8)

    def test_mixed_monomial_matches_reference_product(self):
        e2, e4, e6 = (eisenstein(k, 24) for k in (2, 4, 6))
        expected = e2.series
        for factor in (e2, e2, e4, e4, e6):
            expected = mul_reference(expected, factor)
        result = GeneratorPoly.parse("E2^3*E4^2*E6").evaluate(24)
        assert result.weight == 20
        assert result.coeffs == expected.coeffs

    def test_parse_errors(self):
        for bad in ("E3", "(E4", "E4)", "E4 +", "E4 / E2", "E4 ^ E2", "4q"):
            with pytest.raises(ValueError):
                GeneratorPoly.parse(bad)

    def test_division_by_zero_constant(self):
        with pytest.raises(ValueError):
            GeneratorPoly.parse("E4 / 0")

    def test_unary_minus(self):
        assert GeneratorPoly.parse("-E4 + E4").is_zero()

    def test_nesting_limit(self):
        assert GeneratorPoly.parse("(" * 100 + "E4" + ")" * 100).weight() == 4
        with pytest.raises(ValueError, match="deeper than 100"):
            GeneratorPoly.parse("(" * 101 + "E4" + ")" * 101)

    @given(
        st.dictionaries(
            st.tuples(*[st.integers(0, 3)] * 3),
            st.fractions(min_value=-50, max_value=50, max_denominator=20),
            max_size=5,
        )
    )
    def test_str_parse_round_trip(self, terms):
        poly = GeneratorPoly(terms)
        assert GeneratorPoly.parse(str(poly)).monomials() == poly.monomials()


class TestCatalog:
    def test_names_and_weights(self):
        entries = catalog(8)
        assert tuple(e.name for e in entries) == CATALOG_NAMES
        weights = {e.name: e.form.weight for e in entries}
        assert weights["E2"] == 2
        assert weights["Delta26"] == 26

    def test_catalog_form_lookup(self):
        assert catalog_form("E4", 8) == eisenstein(4, 8)
        with pytest.raises(ValueError):
            catalog_form("E12", 8)


class TestProductIdentities:
    # the sixteen modular product identities, verified coefficientwise
    def test_all_products(self):
        from modforms.verify import PRODUCT_IDENTITIES

        assert len(PRODUCT_IDENTITIES) == 16
        forms = {name: catalog_form(name, PREC) for name in CATALOG_NAMES}
        for left, right, result in PRODUCT_IDENTITIES:
            assert forms[left] * forms[right] == forms[result], (left, right)

    def test_ramanujan_system(self):
        e2, e4, e6 = (eisenstein(k, PREC) for k in (2, 4, 6))
        assert e2.derivative() == (e2 * e2 - e4) * Fraction(1, 12)
        assert e4.derivative() == (e2 * e4 - e6) * Fraction(1, 3)
        assert e6.derivative() == (e2 * e6 - e4 * e4) * Fraction(1, 2)

    def test_delta12_derivative(self):
        d12 = cusp_delta(12, PREC)
        assert d12.derivative() == eisenstein(2, PREC) * d12
