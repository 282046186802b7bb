"""Tests for truncated q-expansions: precision semantics, ring axioms,
the differential operator, and serialization."""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from modforms import qseries
from modforms.forms import catalog_form
from modforms.qseries import (
    _DIRECT_MAX,
    GradedSeries,
    PrecisionError,
    QSeries,
    _format_terms,
    _four_point_product,
    _pack,
    _product_sum,
    _slot_width,
    _unpack,
    first_difference,
)
from reference import convolve_reference, format_terms_reference, json_form, mul_reference


def four_point(a, b):
    """The four-point substitution as the product of two operands: the one
    term (1, a, b) at the slot width the dispatcher gives it, whatever the
    length."""
    terms = [(1, a, b)]
    return _four_point_product(terms, _slot_width(terms))

small_fractions = st.fractions(
    min_value=-6, max_value=6, max_denominator=6
)


def series_strategy(max_prec=8):
    return st.lists(small_fractions, min_size=1, max_size=max_prec + 1).map(QSeries)


class TestConstruction:
    def test_prec_defaults_to_length(self):
        f = QSeries([1, 2, 3])
        assert f.prec == 2
        assert f.coeffs == (1, 2, 3)

    def test_explicit_prec_pads_and_truncates(self):
        assert QSeries([1], prec=3).coeffs == (1, 0, 0, 0)
        assert QSeries([1, 2, 3], prec=1).coeffs == (1, 2)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            QSeries([0.5])

    def test_rejects_empty_without_prec(self):
        with pytest.raises(ValueError):
            QSeries([])

    def test_index_outside_precision(self):
        f = QSeries([1, 2])
        with pytest.raises(IndexError):
            f[2]
        with pytest.raises(IndexError):
            f[-1]


class TestArithmetic:
    def test_add(self):
        f = QSeries([1, 2])
        g = QSeries([3, 4])
        assert (f + g).coeffs == (4, 6)

    def test_add_identity(self):
        f = QSeries([1, 2, 3])
        assert f + QSeries.zero(2) == f

    def test_precision_is_min(self):
        f = QSeries([1], prec=5)
        g = QSeries([1], prec=3)
        assert (f + g).prec == 3
        assert (f * g).prec == 3
        assert (f - g).prec == 3

    def test_mul_identity(self):
        f = QSeries([5, 7, 11])
        assert f * QSeries.one(2) == f

    def test_q_times_q(self):
        q = QSeries([0, 1], prec=3)
        assert (q * q).coeffs == (0, 0, 1, 0)

    def test_e4_square_coefficient(self):
        # 240^2 + 2*2160 at q^2 from the weight-4 Eisenstein expansion
        e4_head = QSeries([1, 240, 2160])
        assert (e4_head * e4_head)[2] == 61920

    def test_scalar_multiplication(self):
        f = QSeries([1, 2])
        assert (f * 3).coeffs == (3, 6)
        assert (Fraction(1, 2) * f).coeffs == (Fraction(1, 2), 1)

    def test_truncate(self):
        f = QSeries([1, 2, 3])
        assert f.truncate(1).coeffs == (1, 2)
        with pytest.raises(PrecisionError):
            f.truncate(5)

    def test_truncate_to_its_own_precision_is_the_series_itself(self):
        f = QSeries([1, 2, 3])
        assert f.truncate(2) is f and f.truncate(1) is not f
        form = catalog_form("E4", 16)
        assert form.truncate(16) is form
        shorter = form.truncate(15)
        assert type(shorter) is GradedSeries and shorter.weight == 4 and shorter.prec == 15
        # The untagged view shares the numerators, already in lowest terms.
        series = form.series
        assert type(series) is QSeries and series.numerators is form.numerators
        assert series == QSeries(form.coeffs)


class TestDerivative:
    def test_scales_by_exponent(self):
        f = QSeries([7, 240, 5, 1])
        assert f.derivative().coeffs == (0, 240, 10, 3)

    def test_constant_dies(self):
        assert QSeries([9], prec=4).derivative().is_zero()

    def test_double_derivative_squares(self):
        f = QSeries([0, 0, 0, 5])
        assert f.derivative().derivative()[3] == 45


class TestProperties:
    @given(series_strategy(), series_strategy(), series_strategy())
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, f, g, h):
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert f * g == g * f
        prec = min(f.prec, g.prec, h.prec)
        assert ((f * g) * h).truncate(prec) == (f * (g * h)).truncate(prec)
        assert (f * (g + h)).truncate(prec) == (f * g + f * h).truncate(prec)

    @given(series_strategy(), series_strategy())
    @settings(max_examples=60, deadline=None)
    def test_leibniz_rule(self, f, g):
        product_rule = f.derivative() * g + f * g.derivative()
        assert (f * g).derivative() == product_rule

    @given(series_strategy(), series_strategy())
    @settings(max_examples=60, deadline=None)
    def test_derivative_is_linear(self, f, g):
        prec = min(f.prec, g.prec)
        assert (f + g).derivative() == f.derivative().truncate(prec) + g.derivative()
        assert (f * 7).derivative() == f.derivative() * 7

    @given(series_strategy(), series_strategy())
    @settings(max_examples=60, deadline=None)
    def test_fast_product_matches_schoolbook(self, f, g):
        assert f * g == mul_reference(f, g)

    @given(series_strategy(), small_fractions.filter(lambda c: c != 0))
    @settings(max_examples=60, deadline=None)
    def test_storage_is_canonical(self, f, c):
        assert math.gcd(f.denominator, *f.numerators) == 1
        assert QSeries(f.coeffs) == f
        assert (f * c) * (1 / c) == f

    @given(series_strategy(), series_strategy(), st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_first_difference_is_first_differing_coefficient(self, f, g, shift):
        # f + g*q^shift agrees with f below shift, so late differences occur too.
        late = f + g * QSeries([0] * shift + [1], prec=g.prec)
        for other in (g, late):
            expected = next(
                (m for m, (a, b) in enumerate(zip(f.coeffs, other.coeffs)) if a != b),
                None,
            )
            assert first_difference(f, other) == expected


# Small and large numerators of both signs, over unrelated denominators.
numerators = st.one_of(
    st.integers(-6, 6),
    st.integers(2**100, 2**140).flatmap(lambda n: st.sampled_from([n, -n])),
)
numerator_series = st.builds(
    QSeries.from_numerators,
    st.lists(numerators, min_size=1, max_size=12),
    st.integers(1, 10**6),
)


@st.composite
def series_pairs(draw):
    """(nums, den) of two series: over one denominator or two, of equal or
    unequal lengths, the second often the first changed at one index."""
    den = draw(st.integers(1, 10**6))
    other_den = draw(st.sampled_from([den, draw(st.integers(1, 10**6))]))
    nums = draw(st.lists(numerators, min_size=1, max_size=12))
    if draw(st.booleans()):
        other = draw(st.lists(numerators, min_size=1, max_size=12))
    else:
        other = (nums + draw(st.lists(numerators, max_size=3)))[: draw(st.integers(1, 15))]
        if draw(st.booleans()):
            i = draw(st.integers(0, len(other) - 1))
            other[i] += draw(numerators.filter(bool))
    return (nums, den), (other, other_den)


class TestLinearOracle:
    """+, - and first_difference against Fractions built from the raw
    numerators, on the equal- and the unequal-denominator path."""

    @given(series_pairs())
    @settings(max_examples=200, deadline=None)
    @example((([3, 0, -6], 9), ([3, 0, -6, 1], 9)))
    @example((([2, 4], 6), ([1, 2], 3)))
    def test_matches_fractions(self, pair):
        (a, d), (b, e) = pair
        f, g = QSeries.from_numerators(a, d), QSeries.from_numerators(b, e)
        x, y = [Fraction(n, d) for n in a], [Fraction(n, e) for n in b]
        n = min(len(x), len(y))
        assert first_difference(f, g) == next((m for m in range(n) if x[m] != y[m]), None)
        assert (f + g).coeffs == tuple(u + v for u, v in zip(x, y))
        assert (f - g).coeffs == tuple(u - v for u, v in zip(x, y))
        assert f + g == QSeries([u + v for u, v in zip(x, y)])
        assert f - g == QSeries([u - v for u, v in zip(x, y)])

    def test_both_paths(self):
        f = QSeries.from_numerators([1, 0, -2, 5], 3)
        g = QSeries.from_numerators([1, 0, -2, 4], 3)
        h = QSeries.from_numerators([3, 0, -6, 1], 9)
        assert (f.denominator, g.denominator, h.denominator) == (3, 3, 9)
        assert first_difference(f, g) == 3 and first_difference(f, g.truncate(2)) is None
        assert first_difference(f, h) == 3 and first_difference(h, f.truncate(2)) is None
        assert f - g == QSeries.from_numerators([0, 0, 0, 1], 3)
        assert f + h == QSeries([Fraction(2, 3), 0, Fraction(-4, 3), Fraction(16, 9)])


def series_of_length(n):
    """Series of n signed, often multi-word numerators over a denominator
    other than 1. Above 40 coefficients, a random.Random of a drawn seed
    picks them from a drawn pool of up to 16: hypothesis draws list
    elements one at a time, which took seconds per test at the four-point
    lengths."""
    if n <= 40:
        nums = st.lists(numerators, min_size=n, max_size=n)
    else:
        pools = st.lists(numerators, min_size=1, max_size=16)
        nums = st.builds(lambda pool, seed: random.Random(seed).choices(pool, k=n), pools, st.integers(0, 2**32))
    return st.builds(QSeries.from_numerators, nums, st.integers(2, 10**6))


# Signs of two operands by index: equal (a square), opposite and
# alternating, and with zeros.
SIGN_PATTERNS = {
    "plus": (lambda i: 1, lambda i: 1),
    "alternating": (lambda i: (-1) ** i, lambda i: (-1) ** (i + 1)),
    "zeros": (lambda i: (i % 3 > 0) * (-1) ** (i // 2), lambda i: -1),
}


@functools.lru_cache(maxsize=None)
def sign_product(n, pattern):
    """The sign numerators of length n of both operands, and their product
    by convolve_reference."""
    a, b = (tuple(sign(i) for i in range(n)) for sign in SIGN_PATTERNS[pattern])
    return a, b, tuple(convolve_reference(a, b))


class TestKroneckerProduct:
    """Series products through the one kernel: QSeries.__mul__ takes the
    direct sum up to _DIRECT_MAX coefficients and the four-point
    substitution from there, which packs each operand into big integers
    and reads the product off fixed-width slots. mul_reference and
    convolve_reference share no code with either path and must agree bit
    for bit. (The class keeps the name it had when two Kronecker
    substitutions were tested here, so that its test IDs stay.)"""

    @staticmethod
    def assert_matches_reference(f, g):
        product, expected = f * g, mul_reference(f, g)
        assert product.numerators == expected.numerators
        assert product.denominator == expected.denominator

    @staticmethod
    def assert_matches_convolution(f, g):
        # Two series of one length, against the integer schoolbook product
        # of their numerators over the product of their denominators.
        expected = convolve_reference(f.numerators, g.numerators)
        den = f.denominator * g.denominator
        assert (f * g).coeffs == tuple(Fraction(c, den) for c in expected)

    # A coefficient of the product reaches n * max|a| * max|b|, the slot
    # bound, and its bit length is a whole number of bytes: the sign bit
    # must be extra. a_1 = +-2^127 (an odd slot) at length 2, as a square
    # and not; a_2 = 3 * 2^126 (an even slot) at length 3.
    @example(QSeries.from_numerators([2**63, 2**63], 1), QSeries.from_numerators([2**63, 2**63], 1))
    @example(QSeries.from_numerators([2**63, 2**63], 1), QSeries.from_numerators([-(2**63)] * 2, 1))
    @example(
        QSeries.from_numerators([2**63, -(2**63), 2**63], 1),
        QSeries.from_numerators([2**63, -(2**63), 2**63], 1),
    )
    @given(numerator_series, numerator_series)
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, f, g):
        self.assert_matches_reference(f, g)

    # Short lengths on the direct sum, both sides of the crossover from the
    # direct sum to the four-point path, and four-point lengths up to
    # 160-163, one in each class mod 4.
    FOUR_POINT_LENGTHS = [160, 161, 162, 163]
    CROSSOVER_LENGTHS = [1, 2, 15, 16, _DIRECT_MAX, _DIRECT_MAX + 1, 40, *FOUR_POINT_LENGTHS]

    @pytest.mark.parametrize("n", CROSSOVER_LENGTHS)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_across_the_crossover(self, n, data):
        f, g = data.draw(series_of_length(n)), data.draw(series_of_length(n))
        twin = QSeries.from_numerators(list(f.numerators), f.denominator)
        assert twin.numerators == f.numerators and twin.numerators is not f.numerators
        self.assert_matches_convolution(f, g)
        self.assert_matches_convolution(f, f)
        self.assert_matches_convolution(f, twin)

    def test_the_length_alone_picks_the_path(self, monkeypatch):
        assert {_DIRECT_MAX, _DIRECT_MAX + 1} <= set(self.CROSSOVER_LENGTHS)
        packed = []

        def product(terms, width):
            n = len(terms[0][1])
            packed.append(n)
            return [0] * n

        monkeypatch.setattr(qseries, "_four_point_product", product)
        for n in self.CROSSOVER_LENGTHS:
            f, g = QSeries.from_numerators(range(1, n + 1), 1), QSeries.from_numerators(range(-n, 0), 1)
            if n <= _DIRECT_MAX:  # the direct sum, untouched by the stub
                self.assert_matches_convolution(f, g)
            else:
                f * g
        assert packed == [n for n in self.CROSSOVER_LENGTHS if n > _DIRECT_MAX]

    # The four-point path against the schoolbook product at every short
    # length, where some classes mod 4 are empty, and at long ones,
    # squares included.
    @given(st.sampled_from([*range(1, 40), 64, 65, 66, 67, 100, 257]), st.data())
    @settings(max_examples=80, deadline=None)
    def test_four_point_equals_the_convolution(self, n, data):
        a, b = (data.draw(series_of_length(n)).numerators for _ in range(2))
        assert four_point(a, b) == convolve_reference(a, b)[:n]
        assert four_point(a, a) == convolve_reference(a, a)[:n]

    # The even and odd classes are read off the values at x = 2^(w/4) and
    # -x: even and odd parts of opposite signs make the two differ in sign.
    @pytest.mark.parametrize("n", range(1, 7))
    def test_even_and_odd_parts_of_opposite_signs(self, n):
        a = tuple((-1) ** i * (i + 2) for i in range(n))
        b = tuple((-1) ** (i + 1) * (2**70 + i) for i in range(n))
        expected = mul_reference(QSeries.from_numerators(a, 1), QSeries.from_numerators(b, 1))
        assert four_point(a, b) == list(expected.numerators)

    # The four-point path also reads the real and imaginary parts of c(ix)
    # at x = 2^(w/4), for the slot width w: with positive a and b of
    # widely different sizes, c's two top terms set their signs, which
    # are opposite, either way round (b or -b).
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("n", range(2, 10))
    def test_gaussian_parts_of_opposite_signs(self, n, sign):
        a = [i + 2 for i in range(n)]
        b = [sign * (2**70 + i) for i in range(n)]
        x = 1 << (2 * ((n * max(a) * abs(b[-1])).bit_length() // 8 + 1))
        full = convolve_reference(a + [0] * (n - 1), b + [0] * (n - 1))
        re = sum(c * x**k * (1, 0, -1, 0)[k % 4] for k, c in enumerate(full))
        im = sum(c * x**k * (0, 1, 0, -1)[k % 4] for k, c in enumerate(full))
        assert re * im < 0
        assert four_point(a, b) == full[:n]

    # Equal operands are packed once and squared, whether they are one
    # tuple or two equal ones.
    @given(numerator_series)
    @settings(max_examples=60, deadline=None)
    def test_square(self, f):
        twin = QSeries.from_numerators(list(f.numerators), f.denominator)
        assert twin.numerators == f.numerators and twin.numerators is not f.numerators
        self.assert_matches_reference(f, f)
        self.assert_matches_reference(f, twin)

    @given(numerator_series, st.integers(0, 11))
    @settings(max_examples=60, deadline=None)
    def test_zero_operand(self, f, prec):
        zero = QSeries.zero(prec)
        self.assert_matches_reference(f, zero)
        self.assert_matches_reference(zero, f)

    @given(numerator_series, numerator_series)
    @settings(max_examples=60, deadline=None)
    def test_prec_zero(self, f, g):
        self.assert_matches_reference(f.truncate(0), g)

    @given(numerator_series, numerator_series, st.integers(0, 20), st.integers(0, 20))
    @settings(max_examples=60, deadline=None)
    def test_weight_tag(self, f, g, k, l):
        product = GradedSeries(f, k) * GradedSeries(g, l)
        assert type(product) is GradedSeries and product.weight == k + l
        self.assert_matches_reference(GradedSeries(f, k), GradedSeries(g, l))

    # Each slot is packed and read as its value plus 2^(w-1): check the
    # extremes +-(2^(w-1) - 1), all zeros and alternating signs, at
    # lengths 1 and 2 and longer, for one- and several-byte slots.
    @pytest.mark.parametrize("width", [1, 2, 3, 9])
    def test_pack_round_trips_extreme_slots(self, width):
        top = (1 << (8 * width - 1)) - 1
        cases = [[top], [-top], [0], [top, -top], [-top, top], [0, 0], [0] * 7,
                 [(-1) ** i * top for i in range(7)], [(-1) ** i * (i + 1) for i in range(8)]]
        for nums in cases:
            value = _pack(nums, width)
            assert value == sum(x << (8 * width * i) for i, x in enumerate(nums)), nums
            assert _unpack(value, len(nums), width) == nums, nums

    # Products whose coefficients fill their slots up to the bound, the
    # zero product, and alternating signs, through the packing itself.
    @pytest.mark.parametrize(
        "a, b",
        [
            ([11], [11]), ([-11], [11]), ([2**60 - 1], [-(2**63 + 5)]),
            ([7, 7], [7, 7]), ([-7, -7], [7, 7]), ([7, -7], [-7, 7]),
            ([0] * 5, [0] * 5), ([0], [0]), ([0, 0], [3, -3]),
            ([(-1) ** i * 2**40 for i in range(9)], [2**40] * 9),
            ([(-1) ** i * 2**40 for i in range(8)], [(-1) ** i * 2**40 for i in range(8)]),
        ],
    )
    def test_slot_edge_cases_match_reference(self, a, b):
        expected = mul_reference(QSeries.from_numerators(a, 1), QSeries.from_numerators(b, 1))
        assert four_point(a, b) == list(expected.numerators)

    # Every coefficient +-M or 0, so that a product coefficient reaches the
    # slot bound n * M^2 itself when its terms share one sign. M puts
    # bound.bit_length() + 8, which the slot width in bytes is rounded down
    # from, on a multiple of 8, one below it and one above it. By
    # bilinearity the product is M^2 times that of the signs. The
    # four-point path at short lengths (classes 1 and 2 mod 4), at long
    # lengths in each class mod 4, and at prec 768.
    @pytest.mark.parametrize("residue", [0, 7, 1])
    @pytest.mark.parametrize("pattern", SIGN_PATTERNS)
    @pytest.mark.parametrize("n", [17, 18, *FOUR_POINT_LENGTHS, 769])
    def test_four_point_coefficients_at_the_slot_bound(self, n, pattern, residue):
        self.check_slot_bound(four_point, n, pattern, residue)

    # The same check through QSeries.__mul__, which takes the direct sum at
    # 17 and 18 coefficients and the four-point path at 769.
    @pytest.mark.parametrize("residue", [0, 7, 1])
    @pytest.mark.parametrize("pattern", SIGN_PATTERNS)
    @pytest.mark.parametrize("n", [17, 18, 769])
    def test_coefficients_at_the_slot_bound(self, n, pattern, residue):
        def product_of(a, b):
            return list((QSeries.from_numerators(a, 1) * QSeries.from_numerators(b, 1)).numerators)

        self.check_slot_bound(product_of, n, pattern, residue)

    @staticmethod
    def check_slot_bound(product_of, n, pattern, residue):
        signs_a, signs_b, expected = sign_product(n, pattern)
        big = next(m for t in itertools.count(120) for m in [math.isqrt((1 << t) // n) + 1]
                   if ((n * m * m).bit_length() + 8) % 8 == residue)
        product = product_of([big * s for s in signs_a], [big * s for s in signs_b])
        assert product == [big * big * c for c in expected]
        if pattern != "zeros":
            assert abs(product[n - 1]) == n * big * big

    def test_catalog_product_at_prec_512(self):
        left = catalog_form("Delta12", 512) * catalog_form("E2", 512)
        right = catalog_form("E14", 512).derivative()
        self.assert_matches_reference(left, right)

    # 302 coefficients, an even count; prec 512 above has an odd one.
    def test_catalog_product_at_prec_301(self):
        left = catalog_form("E4", 301) * catalog_form("E6", 301)
        right = catalog_form("Delta16", 301).derivative()
        self.assert_matches_reference(left, right)


def sum_reference(terms):
    """sum c * convolve_reference(a, b) over the terms (c, a, b)."""
    out = [0] * len(terms[0][1])
    for c, a, b in terms:
        out = [t + c * x for t, x in zip(out, convolve_reference(a, b))]
    return out


class TestProductSum:
    """_product_sum(terms) is the one multiply kernel: sum c * a * b over
    the terms (c, a, b), summed at the evaluation points of each path and
    read back once, on one slot width for all terms. convolve_reference
    is its oracle, term by term."""

    # Short direct-sum lengths, both sides of the crossover at _DIRECT_MAX,
    # and long lengths in classes 3, 0 and 1 mod 4.
    LENGTHS = [1, 16, _DIRECT_MAX, _DIRECT_MAX + 1, 159, 160, 241]

    @pytest.mark.parametrize("n", LENGTHS)
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_matches_the_convolution_sum(self, n, data):
        # Signed and zero weights; b is a itself, an equal copy of it, or
        # another operand.
        terms = []
        for _ in range(data.draw(st.integers(1, 4))):
            c = data.draw(st.one_of(st.sampled_from([0, 1, -1]), st.integers(-(10**40), 10**40)))
            a = data.draw(series_of_length(n)).numerators
            b = data.draw(st.sampled_from(["same", "copy", "other"]))
            b = a if b == "same" else list(a) if b == "copy" else data.draw(series_of_length(n)).numerators
            terms.append((c, a, b))
        assert _product_sum(terms) == sum_reference(terms)

    # c a b - c b a, and a b + a (-b), cancel; so do the halves of a
    # square, and a term of weight 0.
    @pytest.mark.parametrize("n", LENGTHS)
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_sums_that_cancel_to_zero(self, n, data):
        a, b = (data.draw(series_of_length(n)).numerators for _ in range(2))
        c = data.draw(st.integers(-(10**20), 10**20))
        minus_b = [-x for x in b]
        for terms in ([(c, a, b), (-c, b, a)], [(c, a, b), (c, a, minus_b)],
                      [(c, a, a), (-2 * c, a, a), (c, a, list(a))], [(0, a, b)]):
            assert _product_sum(terms) == [0] * n

    # The sum of three terms of one sign pattern, with weights 1, 2 and 5,
    # puts coefficient n - 1 on the bound n * (1 + 2 + 5) * M^2 itself
    # when every sign is +; M sets the slot width's rounding as in
    # TestKroneckerProduct.check_slot_bound. At 17 and _DIRECT_MAX
    # coefficients the sum is the direct one, from _DIRECT_MAX + 1 the
    # four-point one.
    @pytest.mark.parametrize("residue", [0, 7, 1])
    @pytest.mark.parametrize("pattern", SIGN_PATTERNS)
    @pytest.mark.parametrize("n", [17, _DIRECT_MAX, _DIRECT_MAX + 1, 160, 769])
    def test_sum_coefficients_at_the_slot_bound(self, n, pattern, residue):
        signs_a, signs_b, expected = sign_product(n, pattern)
        weights = (1, 2, 5)
        big = next(m for t in itertools.count(120) for m in [math.isqrt((1 << t) // (8 * n)) + 1]
                   if ((8 * n * m * m).bit_length() + 8) % 8 == residue)
        a, b = [big * s for s in signs_a], [big * s for s in signs_b]
        product = _product_sum([(c, a, b) for c in weights])
        assert product == [8 * big * big * c for c in expected]
        if pattern == "plus":
            assert product[n - 1] == 8 * n * big * big


class TestSerialization:
    def test_json_roundtrip(self):
        f = QSeries([1, Fraction(-24, 7), 0])
        data = json_form(f)
        assert data == {"prec": 2, "coeffs": ["1/1", "-24/7", "0/1"]}

    def test_str_contains_terms(self):
        text = str(QSeries([1, -24, 0, 5]))
        assert "1 - 24*q + 5*q^3" in text
        assert "O(q^4)" in text

    def test_first_difference(self):
        f = QSeries([1, 2, 3])
        g = QSeries([1, 2, 4])
        assert first_difference(f, g) == 2
        assert first_difference(f, f) is None


# Coefficients that exercise every branch of the display: zeros, units,
# signs, integers and proper fractions over a shared denominator.
display_coefficients = st.one_of(
    st.sampled_from([0, 0, 1, -1]),
    st.integers(-10**6, 10**6),
    st.fractions(min_value=-10**4, max_value=10**4, max_denominator=60),
)


class TestDisplayOracle:
    """str and repr read numerators over the denominator; the oracle formats
    one Fraction per coefficient."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(display_coefficients, min_size=1, max_size=12),
        st.one_of(st.none(), st.integers(0, 8)),
        st.integers(0, 3),
    )
    @example([0, 0, 0], None, 0)
    @example([Fraction(1, 6), Fraction(-1, 6), Fraction(5, 6), 1, -1], 2, 0)
    def test_matches_the_fraction_formatter(self, coeffs, max_terms, scale):
        f = QSeries(coeffs) * Fraction(1, 6**scale)
        expected = format_terms_reference(f.coeffs, max_terms)
        assert _format_terms(f, max_terms) == expected
        assert str(f) == f"{format_terms_reference(f.coeffs)} + O(q^{f.prec + 1})"
        six = format_terms_reference(f.coeffs, 6)
        assert repr(f) == f"QSeries(prec={f.prec}, {six})"
        form = GradedSeries(f, 4)
        assert repr(form) == f"GradedSeries(weight=4, prec={f.prec}, {six})"
        assert str(form) == f"[weight 4] {str(f)}"


class TestGradedSeries:
    def test_weight_tracking(self):
        e4 = GradedSeries(QSeries([1, 240]), 4)
        e6 = GradedSeries(QSeries([1, -504]), 6)
        assert (e4 * e6).weight == 10
        assert (e4 * 3).weight == 4
        assert (e4 * e4 * e4).weight == 12
        assert e4.derivative().weight == 6

    def test_addition_requires_equal_weights(self):
        e4 = GradedSeries(QSeries([1, 240]), 4)
        e6 = GradedSeries(QSeries([1, -504]), 6)
        with pytest.raises(ValueError):
            e4 + e6
        assert (e4 + e4).coeffs == (2, 480)

    def test_equality_includes_weight(self):
        f = GradedSeries(QSeries([1, 1]), 4)
        g = GradedSeries(QSeries([1, 1]), 6)
        assert f != g

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            GradedSeries(QSeries([1]), -2)

    def test_json_roundtrip(self):
        f = GradedSeries(QSeries([0, 1, -24]), 12)
        assert json_form(f) == {
            "weight": 12,
            "series": {"prec": 2, "coeffs": ["0/1", "1/1", "-24/1"]},
        }


# One form of weight 4 and one of weight 6, with their untagged series.
E4 = GradedSeries(QSeries([1, 240, 2160]), 4)
E6 = GradedSeries(QSeries([1, -504, -16632]), 6)


class TestTaggingRule:
    def test_subclass_without_forwarding_members(self):
        assert issubclass(GradedSeries, QSeries)
        for name in ("prec", "coeffs", "__getitem__", "is_zero"):
            assert name not in vars(GradedSeries)

    @pytest.mark.parametrize(
        "op, weight",
        [
            (lambda f, g: -f, 4),
            (lambda f, g: f.truncate(1), 4),
            (lambda f, g: f * Fraction(1, 2), 4),
            (lambda f, g: 3 * g, 6),
            (lambda f, g: g.derivative(), 8),
            (lambda f, g: f * g, 10),
            (lambda f, g: f + f, 4),
            (lambda f, g: g - g, 6),
        ],
        ids=[
            "neg", "truncate", "scalar", "rscalar",
            "derivative", "form_mul", "add", "sub",
        ],
    )
    def test_result_carries_weight(self, op, weight):
        tagged = op(E4, E6)
        plain = op(E4.series, E6.series)
        assert type(tagged) is GradedSeries and tagged.weight == weight
        assert type(plain) is QSeries and tagged.coeffs == plain.coeffs

    @pytest.mark.parametrize(
        "op, verb", [(operator.add, "add"), (operator.sub, "subtract")], ids=["add", "sub"]
    )
    def test_mixed_weights_rejected(self, op, verb):
        for left, right, weights in ((E4, E6, "4 and 6"), (E6, E4, "6 and 4")):
            with pytest.raises(ValueError, match=f"^cannot {verb} forms of weights {weights}$"):
                op(left, right)

    def test_form_never_equals_untagged_series(self):
        assert E4 != E4.series and E4.series != E4
        assert not (E4 == E4.series) and not (E4.series == E4)
        assert E4 == GradedSeries(E4.series, 4)

    @pytest.mark.parametrize(
        "op", [operator.add, operator.sub, operator.mul], ids=["add", "sub", "mul"]
    )
    @pytest.mark.parametrize("form_first", [True, False], ids=["form_left", "form_right"])
    def test_form_with_untagged_gives_untagged(self, op, form_first):
        other = QSeries([2, 3, 5])
        operands = (E4, other) if form_first else (other, E4)
        untagged = (E4.series, other) if form_first else (other, E4.series)
        result = op(*operands)
        assert type(result) is QSeries and result == op(*untagged)


class TestConstantFactor:
    """A factor whose only nonzero coefficient (up to the common precision)
    is a_0 is applied as a scaling; the product must not change."""

    @pytest.mark.parametrize(
        "constant",
        [
            QSeries.constant(0, 5),
            QSeries.constant(Fraction(-3, 2), 5),
            QSeries([7, 0, 0, 11]),  # constant only within E4's precision 2
        ],
        ids=["zero", "minus_three_halves", "constant_within_precision"],
    )
    @pytest.mark.parametrize("tag", [None, 0], ids=["untagged", "weight_0"])
    @pytest.mark.parametrize("form", [E4, E4.series], ids=["form", "series"])
    def test_matches_schoolbook_in_both_orders(self, constant, tag, form):
        if tag is not None:
            constant = GradedSeries(constant, tag)
        both_tagged = isinstance(constant, GradedSeries) and isinstance(form, GradedSeries)
        for left, right in ((constant, form), (form, constant)):
            product = left * right
            assert product.coeffs == mul_reference(left, right).coeffs
            if both_tagged:
                assert type(product) is GradedSeries and product.weight == 4
            else:
                assert type(product) is QSeries

    @given(series_strategy(), small_fractions, st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_constant_series_equals_scalar(self, f, c, prec):
        constant = QSeries.constant(c, prec)
        expected = (f * c).truncate(min(prec, f.prec))
        assert constant * f == expected == f * constant
        assert constant * f == mul_reference(constant, f)
