"""Tests for the level-one catalog: Eisenstein series, cusp forms,
membership testing, and generator polynomials."""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from modforms import forms
from modforms.forms import (
    CATALOG_NAMES,
    DELTA_WEIGHTS,
    GeneratorPoly,
    _combination,
    _parse,
    catalog,
    catalog_form,
    cusp_delta,
    dim_modular,
    eisenstein,
    eval_generator_poly,
    is_modular_member,
    membership_basis,
    monomial,
    monomial_basis,
    monomial_exponents,
    span_coordinates,
)
from modforms.exactmath import bernoulli, sigma, solve_linear
from modforms.qseries import GradedSeries, PrecisionError, QSeries
from reference import mul_reference
from test_oracles import monomial_solve

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

    # The builder sieves the divisor sums; the oracle takes each one from
    # trial division.
    @pytest.mark.parametrize("k", range(2, 31, 2))
    def test_sieve_matches_trial_division(self, k):
        factor = -Fraction(2 * k) / bernoulli(k)
        expected = QSeries([1] + [factor * sigma(k - 1, m) for m in range(1, 201)])
        assert eisenstein.__wrapped__(k, 200) == GradedSeries(expected, k)

    # Far enough for the prime powers 512, 729 and 1024, and for n with
    # two higher prime powers, such as 1000 = 2^3 * 5^3.
    @pytest.mark.parametrize("k", [4, 12, 26])
    def test_prime_powers_match_trial_division(self, k):
        prec = 1100
        factor = -Fraction(2 * k) / bernoulli(k)
        expected = QSeries([1] + [factor * sigma(k - 1, m) for m in range(1, prec + 1)])
        assert eisenstein.__wrapped__(k, prec) == GradedSeries(expected, k)

    @pytest.mark.parametrize("k", [250, 252, 254, 256])
    def test_weights_near_the_cap_match_trial_division(self, k):
        factor = -Fraction(2 * k) / bernoulli(k)
        expected = QSeries([1] + [factor * sigma(k - 1, m) for m in range(1, 41)])
        assert eisenstein.__wrapped__(k, 40) == GradedSeries(expected, k)

    def test_the_factor_table_grows_to_the_table_built_at_once(self, monkeypatch):
        # Each entry is (smallest prime p of n, the power of p exactly
        # dividing n), read here by trial division.
        def parts(n):
            p = next(d for d in range(2, n + 1) if n % d == 0)
            q = p
            while n % (q * p) == 0:
                q *= p
            return p, q

        monkeypatch.setattr(forms, "_FACTORS", [(0, 0), (1, 1)])
        for prec in (1, 2, 3, 9, 10, 300, 1100):
            eisenstein.__wrapped__(4, prec)
            table = forms._FACTORS
            assert len(table) > prec
            assert table[2:] == [parts(n) for n in range(2, len(table))]

    @pytest.mark.parametrize("k", [0, 1, 3, -4])
    def test_domain_errors(self, k):
        with pytest.raises(ValueError):
            eisenstein(k, 4)


class TestMonomialBasis:
    def test_weight_12(self):
        basis = monomial_basis(12, 8)
        assert len(basis) == 2
        assert monomial_exponents(12) == [(3, 0), (0, 2)]
        e4, e6 = eisenstein(4, 8), eisenstein(6, 8)
        assert basis[0] == e4 * e4 * e4
        assert basis[1] == e6 * e6

    def test_weight_14_and_26(self):
        assert monomial_exponents(14) == [(2, 1)]
        assert monomial_exponents(26) == [(5, 1), (2, 3)]

    def test_dimensions_match_classical_formula(self):
        for k in range(4, 41, 2):
            expected = k // 12 + (0 if k % 12 == 2 else 1)
            assert dim_modular(k) == expected, k

    def test_weight_basis_handles_low_weights(self):
        assert monomial_basis(0, 8) == (GradedSeries(QSeries.one(8), 0),)
        for k in (2, 5, -4):
            assert monomial_basis(k, 8) == () and dim_modular(k) == 0


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

    # Delta16 and Delta20 come from the squarings E8^2 and E10^2; E4*E12 and
    # E4*E16 span the same lines, on both product paths.
    @pytest.mark.parametrize("prec", [12, 300])
    @pytest.mark.parametrize("k", [16, 20])
    def test_squarings_give_the_e4_product(self, k, prec):
        form = eisenstein(4, prec) * eisenstein(k - 4, prec) - eisenstein(k, prec)
        assert cusp_delta.__wrapped__(k, prec) == form * (1 / form[1])

    def test_domain_error(self):
        with pytest.raises(ValueError):
            cusp_delta(14, 8)

    def test_a_wrong_normalization_is_refused(self, monkeypatch):
        # E_k twice over leaves E_a*E_b - 2*E_k with a_0 = -1 (E8*E8 at 16,
        # E10*E10 at 20, E4*E_{k-4} otherwise), which every build checks.
        for k in DELTA_WEIGHTS[1:]:
            def doubled(weight, prec, k=k):
                form = eisenstein.__wrapped__(weight, prec)
                return form * 2 if weight == k else form

            monkeypatch.setattr("modforms.forms.eisenstein", doubled)
            with pytest.raises(RuntimeError, match=f"Delta{k}"):
                cusp_delta.__wrapped__(k, 8)


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

    def test_a_quasimodular_form_is_not_modular(self):
        assert is_modular_member(eval_generator_poly("E2*E4", PREC), 6) is None

    @pytest.mark.parametrize("k", [12, 24, 28])
    def test_a_target_that_differs_beyond_the_window_is_refused(self, k):
        # f agrees with a form of M_k on the solve window and differs at
        # PREC, so only the re-check of every coefficient can refuse it.
        form = eval_generator_poly(f"E4^{k // 4 - 3}*E6^2", PREC)
        window = dim_modular(k) + 10
        assert is_modular_member(form.truncate(window), k) == is_modular_member(form, k)
        changed = form.series + QSeries([0] * PREC + [1], prec=PREC)
        assert is_modular_member(changed, k) is None

    def test_answers_above_the_eisenstein_cap(self):
        # Weight 264 is above eisenstein's cap of 256; M_264 has dimension 23.
        form = eval_generator_poly("E4^63*E6^2 - 2*E6^44", 40)
        coords = is_modular_member(form, 264)
        assert coords == [0, 1] + [0] * 20 + [-2] and len(coords) == dim_modular(264)
        changed = form.series + QSeries([0] * 40 + [1], prec=40)
        assert is_modular_member(changed, 264) is None

    @pytest.mark.parametrize("k", [*range(4, 61, 2), 264])
    def test_the_square_window_answers_as_the_wide_one(self, k):
        # membership_basis(k) is triangular, so a_0..a_(dim-1) fix its
        # coordinates. Members, a target off the span, and targets that
        # differ from a member only beyond the square window, beyond the
        # dim + 10 window or at the last coefficient get the answer of a
        # solve on dim + 10 coefficients.
        prec = 40
        dim = dim_modular(k)
        wide = dim + 10

        def wide_member(f):
            if span_coordinates(membership_basis(k, prec), f, wide) is None:
                return None
            return span_coordinates(monomial_basis(k, wide), f.truncate(wide), wide)

        basis = monomial_basis(k, prec)
        member = _combination(basis, [Fraction(j + 1, j + 2) for j in range(dim)], prec)
        off_span = member + eisenstein(2, prec).series
        changed = [member + QSeries([0] * j + [1], prec=prec) for j in (dim, wide, wide + 1, prec)]
        for target in (member, off_span, *changed):
            expected = wide_member(target)
            assert (expected is not None) == (target is member), k
            assert is_modular_member(target, k) == expected, k

    def test_the_basis_is_triangular(self):
        # Each element of membership_basis(k) is q^j + O(q^(j+1)).
        for k in (0, *range(4, 61, 2)):
            basis = membership_basis(k, 12)
            assert len(basis) == dim_modular(k), k
            for j, form in enumerate(basis):
                assert form.weight == k and form.coeffs[: j + 1] == (0,) * j + (1,), (k, j)

    # Where dim S_k >= 2 the basis holds Delta_c*E_(k-c), c the heaviest
    # catalog weight up to k - 4, and Delta12 times the cusp elements of
    # M_(k-12). Each element, and the coordinates of a member, against the
    # form of M_k a monomial solve gives from a_0..a_(dim-1).
    @pytest.mark.parametrize("k", [24, 28, 30, 32, 36, 40, 52, 60])
    def test_the_basis_matches_the_monomial_solve(self, k):
        prec = 120
        basis = membership_basis(k, prec)
        dim = dim_modular(k)
        assert len(basis) == dim > 2
        for j, form in enumerate(basis):
            assert form.weight == k and form.coeffs[: j + 1] == (0,) * j + (1,), (k, j)
            assert monomial_solve(k, form.coeffs[:dim], prec)[1] == form.series, (k, j)
        member = _combination(basis, [Fraction(-1) ** j * (j + 2) / (j + 3) for j in range(dim)], prec)
        coords, solved = monomial_solve(k, member.coeffs[:dim], prec)
        assert solved == member and is_modular_member(member, k) == coords

    # The basis is triangular, so forward substitution on a_0..a_(dim-1),
    # written here in Fractions as the reference, gives the coordinates
    # that the elimination of span_coordinates gives on that window, for a
    # member, a target off the span and a target changed at q^dim.
    @pytest.mark.parametrize("k", [*range(4, 61, 2), 264])
    def test_forward_substitution_matches_the_elimination(self, k):
        prec = 40
        basis = membership_basis(k, prec)
        dim = len(basis)
        columns = [form.coeffs for form in basis]

        def forward_substitution(target):
            values, coords = target.coeffs, []
            for m in range(dim):
                coords.append(values[m] - sum(c * column[m] for c, column in zip(coords, columns)))
            combination = [sum(c * column[i] for c, column in zip(coords, columns)) for i in range(prec + 1)]
            return coords if combination == list(values) else None

        member = _combination(basis, [Fraction(j + 1, j + 2) for j in range(dim)], prec)
        off_span = member + eisenstein(2, prec).series
        changed = member + QSeries([0] * dim + [1], prec=prec)
        for target in (member, off_span, changed):
            expected = forward_substitution(target)
            assert (expected is not None) == (target is member), k
            assert span_coordinates(basis, target, dim - 1) == expected, k

    def test_one_elimination_per_membership_test(self, monkeypatch):
        # A member is solved twice by elimination: in membership_basis on the
        # square window of dim rows, then in the monomial basis on the
        # dim + 10 window of dim + 11 rows. A target the basis refuses makes
        # only the first.
        rows = []

        def spy(matrix, rhs):
            rows.append(len(matrix))
            return solve_linear(matrix, rhs)

        monkeypatch.setattr(forms, "solve_linear", spy)
        targets = [(eval_generator_poly(f"E4^{k // 4 - 3}*E6^2", PREC), k) for k in (12, 24, 28)]
        targets.append((eval_generator_poly("E4^63*E6^2 - 2*E6^44", 40), 264))
        for form, k in targets:
            rows.clear()
            assert is_modular_member(form, k) is not None
            assert rows == [dim_modular(k), dim_modular(k) + 11], k
            rows.clear()
            assert is_modular_member(form + QSeries([0] * form.prec + [1]), k) is None
            assert rows == [dim_modular(k)], k


class TestSpanCoordinates:
    """Columns over denominators 240, 3 and 691, solved in integers."""

    @staticmethod
    def columns():
        return [
            eisenstein(4, 40) * Fraction(1, 240),
            eval_generator_poly("(E2^2 - E4)/12", 40) * Fraction(1, 36),
            cusp_delta(12, 40) * Fraction(5, 691),
        ]

    def test_recovers_rational_coordinates(self):
        columns = self.columns()
        assert [column.denominator for column in columns] == [240, 3, 691]
        coords = [Fraction(3, 5), Fraction(-7, 11), Fraction(13, 3)]
        target = _combination(columns, coords, 40)
        assert span_coordinates(columns, target, 13) == coords
        assert span_coordinates(columns, columns[1], 13) == [0, 1, 0]

    @pytest.mark.parametrize(
        "target",
        [
            lambda: eisenstein(12, 40),
            lambda: eisenstein(6, 40),
            # in the span on the window, outside it beyond
            lambda: eisenstein(4, 40) + QSeries([0] * 30 + [Fraction(1, 7)], prec=40),
        ],
        ids=["E12", "E6", "beyond-the-window"],
    )
    def test_a_target_outside_the_span_gives_none(self, target):
        assert span_coordinates(self.columns(), target(), 13) is None

    # E12 = (441 E4^3 + 250 E6^2)/691, solved wherever the window is within
    # the least precision of the columns and the target.
    @pytest.mark.parametrize(
        "column_prec, target_prec, window",
        [(8, 20, 15), (20, 5, 8), (8, 20, 8), (20, 5, 5)],
        ids=["short-columns", "short-target", "columns-at-the-window", "target-at-the-window"],
    )
    def test_the_window_is_checked_against_the_least_precision(
        self, column_prec, target_prec, window
    ):
        columns, target = monomial_basis(12, column_prec), eisenstein(12, target_prec)
        shortest = min(column_prec, target_prec)
        if window > shortest:
            message = rf"coefficients 0\.\.{window} needs .* >= {window}, the shortest has {shortest}"
            with pytest.raises(PrecisionError, match=message):
                span_coordinates(columns, target, window)
        else:
            assert span_coordinates(columns, target, window) == [Fraction(441, 691), Fraction(250, 691)]


_PARSE_ERRORS = ("E3", "(E4", "E4)", "E4 +", "E4 / E2", "E4 ^ E2", "4q")


class TestGeneratorPoly:
    def test_parse_ramanujan_identity(self):
        poly = GeneratorPoly.parse("(E2^2 - E4)/12")
        assert poly.weight() == 4
        assert max(e2 for (e2, _, _), _ in poly.monomials()) == 2
        assert poly.evaluate(PREC) == eisenstein(2, PREC).derivative()

    def test_single_generator(self):
        assert eval_generator_poly("E4", 16) == eisenstein(4, 16)

    def test_product_weight_and_depth(self):
        poly = GeneratorPoly.parse("E2*E4")
        assert poly.weight() == 6
        assert [e for e, _ in poly.monomials()] == [(1, 1, 0)]
        form = poly.evaluate(16)
        assert isinstance(form, GradedSeries) and form.weight == 6

    def test_rational_literal(self):
        poly = GeneratorPoly.parse("3/2*E4^3")
        e4 = eisenstein(4, 8)
        assert poly.evaluate(8) == e4 * e4 * e4 * Fraction(3, 2)

    def test_whitespace_insensitive(self):
        a = GeneratorPoly.parse("( E2 ^ 2 - E4 ) / 12").evaluate(8)
        b = GeneratorPoly.parse("(E2^2-E4)/12").evaluate(8)
        assert a == b

    def test_double_star_power(self):
        e4 = eisenstein(4, 8)
        assert GeneratorPoly.parse("E4**2").evaluate(8) == e4 * e4

    def test_inhomogeneous_rejected_when_weight_required(self):
        with pytest.raises(ValueError, match="weight"):
            eval_generator_poly("E2 + E4", 8)
        with pytest.raises(ValueError, match="not weight-homogeneous"):
            GeneratorPoly.parse("E2 + E4").evaluate(8)

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
        assert result == monomial(((2, 3), (4, 2), (6, 1)), 24)

    def test_parse_errors(self):
        for bad in _PARSE_ERRORS:
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

    @pytest.mark.parametrize(
        "text, value",
        [
            ("1^100000000", Fraction(1)),
            ("(-1)^100000001", Fraction(-1)),
            ("0^0", Fraction(1)),
            ("(2/3)^3", Fraction(8, 27)),
        ],
    )
    def test_constant_power_folds(self, text, value):
        assert GeneratorPoly.parse(text).monomials() == [((0, 0, 0), value)]

    def test_product_term_cap(self):
        # The last step of ^37 would multiply 703 terms by 3.
        assert len(GeneratorPoly.parse("(E2+E4+E6)^36").monomials()) == 703
        with pytest.raises(ValueError, match="may build 2109 terms, above the cap 2048"):
            GeneratorPoly.parse("(E2+E4+E6)^37")

    def test_constant_power_bit_cap(self):
        # 2^65535 has 65536 bits, the cap; 2^65536 is refused before it is
        # computed, and 3^41400 (65617 bits) after it.
        half = GeneratorPoly.parse("(1/2)^65535")
        assert half.monomials() == [((0, 0, 0), Fraction(1, 2**65535))]
        for text in ("2^65536", "(1/2)^65536", "3^41400", "(2^8000)^8000"):
            with pytest.raises(ValueError, match="constant power exceeds the cap"):
                GeneratorPoly.parse(text)

    def test_a_text_is_parsed_once(self):
        text = "E2^2*E6 + E4*E6/2 - E2*E4^2"
        poly = GeneratorPoly.parse(text)
        terms = poly.monomials()
        poly.evaluate(40)
        again = GeneratorPoly.parse(text)
        assert again is poly and again.monomials() == terms

    @pytest.mark.parametrize(
        "text",
        [
            *_PARSE_ERRORS, "E4 / 0", "(" * 101 + "E4" + ")" * 101, "E4^2001",
            "(E2+E4+E6)^37", "2^65536", "(1/2)^65536", "3^41400", "(2^8000)^8000",
        ],
    )
    def test_a_text_that_raises_is_not_memoized(self, text):
        for _ in range(2):
            before = _parse.cache_info()
            with pytest.raises(ValueError):
                GeneratorPoly.parse(text)
            after = _parse.cache_info()
            assert (after.misses, after.currsize) == (before.misses + 1, before.currsize)

    def test_the_parse_memo_is_bounded(self):
        bound = _parse.cache_info().maxsize
        for i in range(bound + 10):
            GeneratorPoly.parse(f"{i}*E4 - E2^2")
        assert bound >= 64 and _parse.cache_info().currsize == bound

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


# Columns with denominators 1 and 691 (E12), negative coefficients (E6,
# D(E2) = (E2^2 - E4)/12) and zero ones (Delta12's a_0), at prec 40.
_COLUMNS = {
    "E4": lambda: eisenstein(4, 40),
    "E6": lambda: eisenstein(6, 40),
    "E12": lambda: eisenstein(12, 40),
    "D(E2)": lambda: eval_generator_poly("(E2^2 - E4)/12", 40),
    "Delta12": lambda: cusp_delta(12, 40),
}


def _fraction_fold(columns, coords, prec):
    """sum c * column[m] over Fractions, one coefficient at a time."""
    prec = min([prec] + [column.prec for column in columns])
    return [
        sum((Fraction(c) * column[m] for c, column in zip(coords, columns)), Fraction(0))
        for m in range(prec + 1)
    ]


class TestCombination:
    """The integer linear combination against a Fraction fold."""

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(sorted(_COLUMNS)),
                st.integers(0, 40),
                st.one_of(
                    st.just(0),
                    st.integers(-(10**9), 10**9),
                    st.fractions(min_value=-100, max_value=100, max_denominator=10**4),
                ),
            ),
            max_size=6,
        ),
        st.integers(0, 40),
    )
    def test_equals_the_fraction_fold(self, terms, prec):
        columns = [_COLUMNS[name]().truncate(p) for name, p, _ in terms]
        coords = [c for _, _, c in terms]
        expected = _fraction_fold(columns, coords, prec)
        result = _combination(columns, coords, prec)
        assert result.prec == len(expected) - 1
        assert result.coeffs == tuple(expected)
        fresh = QSeries(expected)
        assert (result.numerators, result.denominator) == (fresh.numerators, fresh.denominator)

    def test_a_zero_coordinate_still_bounds_the_precision(self):
        e12, d = _COLUMNS["E12"]().truncate(30), _COLUMNS["D(E2)"]().truncate(9)
        result = _combination([e12, d], [Fraction(691, 2), 0], 20)
        assert result.prec == 9
        assert result.coeffs == tuple(Fraction(691, 2) * e12[m] for m in range(10))

    def test_no_columns_give_zero(self):
        assert _combination([], [], 7) == QSeries.zero(7)


class TestCatalog:
    def test_names_and_weights(self):
        # The catalog is its forms in CATALOG_NAMES order.
        weights = [form.weight for form in catalog(8)]
        assert weights == [2, 4, 6, 8, 10, 14, 12, 16, 18, 20, 22, 26]
        assert [catalog_form(name, 8).weight for name in CATALOG_NAMES] == weights

    def test_catalog_form_lookup(self):
        assert catalog_form("E4", 8) == eisenstein(4, 8)
        with pytest.raises(ValueError, match="unknown catalog form"):
            catalog_form("E12", 8)
        # Each name is its builder's object, and so is each catalog form,
        # at every precision of an ascending sequence.
        assert tuple(_BUILDERS) == CATALOG_NAMES
        assert _fresh(_ONE_BUILDER_LOOKUP, 8, 120, 240) == ()
        catalog(240)
        for name, (builder, k) in _BUILDERS.items():
            stored, fresh = catalog_form(name, 120), builder.__wrapped__(k, 120)
            assert (stored.numerators, stored.denominator) == (fresh.numerators, fresh.denominator)
            assert (stored.prec, stored.weight) == (120, k), name


_BUILDERS = {f"E{k}": (eisenstein, k) for k in (2, 4, 6, 8, 10, 14)}
_BUILDERS.update({f"Delta{k}": (cusp_delta, k) for k in DELTA_WEIGHTS})

# Each script runs in its own process, so the stores start empty.
# The indices of the catalog names, at each precision given in ascending
# order, whose catalog form or catalog_form is not the very object its
# builder returns; -1 when the catalog does not hold one form per name.
_ONE_BUILDER_LOOKUP = """
import sys
from modforms.forms import DELTA_WEIGHTS, CATALOG_NAMES, catalog, catalog_form, cusp_delta, eisenstein
builders = [(eisenstein, k) for k in (2, 4, 6, 8, 10, 14)] + [(cusp_delta, k) for k in DELTA_WEIGHTS]
wrong = set()
for prec in map(int, sys.argv[1:]):
    forms = catalog(prec)
    if len(forms) != len(CATALOG_NAMES):
        wrong.add(-1)
    for index, (name, (builder, k)) in enumerate(zip(CATALOG_NAMES, builders)):
        form = builder(k, prec)
        if forms[index] is not form or catalog_form(name, prec) is not form:
            wrong.add(index)
print(*sorted(wrong))
"""

_CATALOG_COUNTS = """
import sys
from modforms.forms import catalog
for prec in sys.argv[1:]:
    catalog(int(prec))
info = catalog.cache_info()
print(info.hits, info.misses, info.currsize)
"""

# Series products made by catalog(768), then the full-precision products
# made by the identity suite after it, and how many of those are distinct.
_PRODUCT_COUNTS = """
from modforms import qseries
from modforms.forms import catalog
from modforms.verify import verify_identity_suite
operands = []
product = qseries._product
def spy(a, b):
    operands.append(frozenset([tuple(a), tuple(b)]))
    return product(a, b)
qseries._product = spy
catalog(768)
made = len(operands)
verify_identity_suite(768)
full = [pair for pair in operands[made:] if len(next(iter(pair))) == 769]
print(made, len(full), len(set(full)))
"""

# The series products, and the Eisenstein and cusp-form builds, that the
# membership bases of the cusp weights make after a catalog.
_CUSP_BASES = """
from modforms import qseries
from modforms.forms import DELTA_WEIGHTS, catalog, cusp_delta, eisenstein, membership_basis
calls = [0]
product = qseries._product
def spy(a, b):
    calls[0] += 1
    return product(a, b)
qseries._product = spy
catalog(200)
before = calls[0], eisenstein.cache_info().misses, cusp_delta.cache_info().misses
for k in DELTA_WEIGHTS:
    membership_basis(k, 200)
after = calls[0], eisenstein.cache_info().misses, cusp_delta.cache_info().misses
print(*(b - a for a, b in zip(before, after)))
"""

_POWER_COUNTS = """
import sys
from modforms.forms import monomial
for prec in sys.argv[1:]:
    monomial(((4, 3),), int(prec))
info = monomial.cache_info()
print(info.hits, info.misses, info.currsize)
"""

# The number of series products a polynomial makes after a catalog, and
# the largest precision any of them is made at.
_PRODUCTS_AFTER_A_CATALOG = """
import sys
from modforms import qseries
from modforms.forms import catalog, eval_generator_poly
precs = []
product = qseries._product
def spy(a, b):
    precs.append(len(a) - 1)
    return product(a, b)
qseries._product = spy
catalog(int(sys.argv[1]))
del precs[:]
eval_generator_poly(sys.argv[2], int(sys.argv[3]))
print(len(precs), max(precs, default=0))
"""

# The exponents a, of 0..9 and 37 asked in the order given, whose E_k^a at
# prec 24 differs from a chain of schoolbook products of E_k.
_POWERS_AGAINST_THE_ORACLE = """
import sys
from modforms.forms import eisenstein, monomial
from modforms.qseries import QSeries
from reference import mul_reference
k, order = int(sys.argv[1]), sys.argv[2]
e = eisenstein.__wrapped__(k, 24)
chain = [QSeries.one(24)]
for _ in range(37):
    chain.append(mul_reference(chain[-1], e))
exponents = [*range(10), 37]
wrong = []
for a in exponents if order == "ascending" else exponents[::-1]:
    power = monomial(((k, a),) if a else (), 24)
    same = (power.numerators, power.denominator) == (chain[a].numerators, chain[a].denominator)
    if not (same and power.prec == 24 and power.weight == k * a):
        wrong.append(a)
print(*wrong)
"""

# The series products made by evaluating a polynomial again, at the
# precision of its first evaluation and then below it.
_PRODUCTS_OF_A_SECOND_EVALUATION = """
import sys
from modforms import qseries
from modforms.forms import eval_generator_poly
calls = [0]
product = qseries._product
def spy(a, b):
    calls[0] += 1
    return product(a, b)
qseries._product = spy
poly, prec = sys.argv[1], int(sys.argv[2])
eval_generator_poly(poly, prec)
first = calls[0]
eval_generator_poly(poly, prec)
eval_generator_poly(poly, prec // 2)
print(int(first > 0), calls[0] - first)
"""

_SHARED_MIXED_MONOMIAL = """
from modforms.forms import eval_generator_poly, monomial, monomial_basis
monomial_basis(10, 200)
eval_generator_poly("3*E4*E6", 200)
info = monomial.cache_info()
print(info.hits, info.misses, info.currsize)
"""

# The mixed monomials, asked for at prec 24 (after each was first built at
# the precision given, when it is not 24), that differ from a chain of
# schoolbook products of E2, E4 and E6.
_MIXED_MONOMIALS_AGAINST_THE_ORACLE = """
import sys
from modforms.forms import eisenstein, monomial
from modforms.qseries import QSeries
from reference import mul_reference
first = int(sys.argv[1])
monomials = [
    ((4, 1), (6, 1)), ((4, 2), (6, 1)), ((4, 3), (6, 2)), ((2, 1), (4, 1)),
    ((2, 2), (6, 1)), ((2, 1), (4, 2), (6, 1)), ((2, 3), (4, 1), (6, 3)),
]
for pairs in monomials:
    monomial(pairs, first)
wrong = []
for index, pairs in enumerate(monomials):
    chain = QSeries.one(24)
    for k, a in pairs:
        for _ in range(a):
            chain = mul_reference(chain, eisenstein.__wrapped__(k, 24))
    stored = monomial(pairs, 24)
    weight = sum(k * a for k, a in pairs)
    same = (stored.numerators, stored.denominator) == (chain.numerators, chain.denominator)
    if not (same and stored.prec == 24 and stored.weight == weight):
        wrong.append(index)
print(*wrong)
"""


def _fresh(script: str, *args) -> tuple[int, ...]:
    """The integers a script prints, run in a new interpreter that imports
    the engine and the tests' reference helpers."""
    tests = Path(__file__).resolve().parent
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)])),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return tuple(map(int, proc.stdout.split()))


class TestStore:
    """Each builder keeps one value per form at the largest precision asked
    for, and answers a smaller request by truncating it."""

    @pytest.mark.parametrize(
        "builder, k",
        [
            (eisenstein, 2),
            (eisenstein, 12),
            (cusp_delta, 12),
            (cusp_delta, 26),
            (monomial_basis, 24),
        ],
    )
    def test_truncation_equals_a_fresh_build(self, builder, k):
        builder(k, 300)
        stored, fresh = builder(k, 120), builder.__wrapped__(k, 120)
        pairs = zip(stored, fresh) if builder is monomial_basis else [(stored, fresh)]
        for a, b in pairs:
            assert a.prec == 120 and a.weight == b.weight
            assert (a.numerators, a.denominator) == (b.numerators, b.denominator)

    @pytest.mark.parametrize(
        "precs, counts",
        [((120, 160, 200, 240), (0, 4, 1)), ((240, 120), (1, 1, 1))],
        ids=["ascending", "descending"],
    )
    def test_catalog_is_built_once_per_larger_precision(self, precs, counts):
        assert _fresh(_CATALOG_COUNTS, *precs) == counts

    def test_powers_are_multiplied_once(self):
        # The catalog makes three squarings for Delta12 and one product for
        # each other Delta_k. The identity suite then makes its 29 checked
        # products and the four of the membership bases of weights 24 and
        # 28, each once; its window solves multiply short prefixes only.
        assert _fresh(_PRODUCT_COUNTS) == (8, 33, 33)

    def test_catalog_leaves_the_cusp_bases_stored(self):
        # The basis of each cusp weight is its E_k and Delta_k. The catalog
        # built every Delta_k and every E_k but E12, which no cusp form is
        # read from: one Eisenstein build, and no product.
        assert _fresh(_CUSP_BASES) == (0, 1, 0)

    @pytest.mark.parametrize(
        "precs, counts",
        [((120, 300, 200), (5, 6, 3)), ((300, 120, 300), (4, 3, 3))],
        ids=["ascending", "descending"],
    )
    def test_a_larger_precision_replaces_each_power(self, precs, counts):
        # E4^3 is built from E4^2 and E4^1, each stored once per larger
        # precision; the 200 and the second 300 are answered from the store.
        assert _fresh(_POWER_COUNTS, *precs) == counts

    @pytest.mark.parametrize(
        "catalog_prec, poly, prec, count",
        [(512, "E4^500", 8, 14), (2048, "E4^9*E6^3", 16, 8)],
        ids=["E4^500", "E4^9*E6^3"],
    )
    def test_powers_are_multiplied_at_the_precision_asked(self, catalog_prec, poly, prec, count):
        # A new power costs about 2 log2(a) products at the precision asked,
        # whatever larger precision its halves are stored at: E4^500 makes
        # one for each power on its halving chain, 500, 250, 125, 63, 62,
        # 32, 31, 16, 15, 8, 7, 4, 3 and 2. The catalog stores no power, so
        # E4^9*E6^3 makes E4^2..E4^5, E4^9, E6^2, E6^3 and their product.
        products, highest = _fresh(_PRODUCTS_AFTER_A_CATALOG, catalog_prec, poly, prec)
        assert products == count and highest <= prec

    @pytest.mark.parametrize("pairs", [((4, 1), (6, 1)), ((2, 3), (4, 2), (6, 1))])
    def test_a_mixed_monomial_truncates_to_a_fresh_build(self, pairs):
        monomial(pairs, 300)
        stored, fresh = monomial(pairs, 120), monomial.__wrapped__(pairs, 120)
        assert stored.prec == 120 and stored.weight == fresh.weight
        assert (stored.numerators, stored.denominator) == (fresh.numerators, fresh.denominator)

    @pytest.mark.parametrize("first", [24, 200], ids=["at-24", "after-200"])
    def test_mixed_monomials_equal_the_oracle(self, first):
        assert _fresh(_MIXED_MONOMIALS_AGAINST_THE_ORACLE, first) == ()

    def test_bases_and_polynomials_share_one_mixed_monomial(self):
        # E4*E6 of the weight-10 basis and of 3*E4*E6 is one store entry:
        # built once, then read. Building it stored its factors E4 and E6
        # as two more entries of the same store, one miss each.
        [basis_e4e6] = monomial_basis(10, 200)
        assert eval_generator_poly("3*E4*E6", 200) == basis_e4e6 * 3
        assert _fresh(_SHARED_MIXED_MONOMIAL) == (1, 3, 3)

    def test_a_monomial_refuses_a_bad_weight_before_the_store(self):
        monomial(((4, 1), (6, 1)), 300)
        for pairs in (((4, 1), (5, 1)), ((4, 1), (258, 1)), ((0, 1),)):
            with pytest.raises(ValueError, match="Eisenstein series requires even"):
                monomial(pairs, 6)

    @pytest.mark.parametrize(
        "poly", ["3*E4*E6", "E2*E4^2 - 3*E4*E6", "E4^3*E6 - 5*E6^3/7", "E2^3*E4*E6 + E2*E4^2*E6"]
    )
    def test_a_second_evaluation_makes_no_products(self, poly):
        assert _fresh(_PRODUCTS_OF_A_SECOND_EVALUATION, poly, 240) == (1, 0)

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_powers_below_the_ladder_equal_a_fresh_build(self, k):
        monomial(((k, 5),), 300)
        fresh = eisenstein.__wrapped__(k, 120)
        for a in range(1, 6):
            stored = monomial(((k, a),), 120)
            assert stored.prec == 120 and stored.weight == k * a
            assert (stored.numerators, stored.denominator) == (fresh.numerators, fresh.denominator)
            fresh = fresh * eisenstein.__wrapped__(k, 120)
        for order in ("ascending", "descending"):
            assert _fresh(_POWERS_AGAINST_THE_ORACLE, k, order) == (), order

    @pytest.mark.parametrize(
        "call, low, error",
        [
            (lambda p: cusp_delta(12, p), 0, "cusp form construction needs prec >= 1"),
            (catalog, 0, "cusp form construction needs prec >= 1"),
            (catalog, -1, "prec must be >= 0"),
            (lambda p: eisenstein(4, p), -1, "prec must be >= 0"),
            (lambda p: monomial_basis(12, p), -1, "prec must be >= 0"),
            (lambda p: monomial(((4, 2),), p), -1, "prec must be >= 0"),
            (lambda p: monomial(((4, 1), (6, 1)), p), -1, "prec must be >= 0"),
            (lambda a: monomial(((4, a),), 6), 0, "monomial exponents require a >= 1"),
            (lambda a: monomial(((4, 1), (6, a)), 6), 0, "monomial exponents require a >= 1"),
        ],
        ids=[
            "cusp_delta", "catalog", "catalog-negative", "eisenstein", "monomial_basis",
            "monomial-power", "monomial-mixed", "monomial-exponent", "monomial-mixed-exponent",
        ],
    )
    def test_domain_checks_run_before_the_store(self, call, low, error):
        call(300)
        with pytest.raises(ValueError, match=error):
            call(low)


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
