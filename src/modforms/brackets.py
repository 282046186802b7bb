"""Rankin-Cohen brackets at level one.

``rankin_cohen`` builds a bracket of two forms as a series; its integer
core, ``_bracket_numerators``, works on bare numerator lists, so that the
eigen scans of ``verify`` read a bracket's first five numerators off the
operands' prefixes without making a series.
"""

from __future__ import annotations

from .exactmath import binomial
from .forms import _MAX_EISENSTEIN_WEIGHT
from .qseries import GradedSeries, QSeries, _product_sum

__all__ = ["rankin_cohen"]


def rankin_cohen(g: GradedSeries, h: GradedSeries, m: int) -> GradedSeries:
    """The m-th Rankin-Cohen bracket of forms of weights k1 and k2,

        [g, h]_m = sum_{r+s=m} c_r D^r(g) D^s(h),  c_r = (-1)^r C(m+k1-1, s) C(m+k2-1, r),

    a form of weight k1 + k2 + 2m (m = 0 is the plain product); weights
    above the Eisenstein cap are refused. The sum is one call of the
    product kernel on the integer numerators of D^r(g) and D^s(h), over
    the product of the two denominators: its m + 1 products are summed at
    the evaluation points and read back once (see _bracket_numerators).
    When g and h have the same weight and numerators to the common
    precision, terms r and m - r are one product whose weights differ by
    (-1)^m: odd m gives zero with no product, and even m takes m/2 + 1, the
    middle one a square. The sum shares one slot width, set by n sum_r |c_r|
    max|D^r g| max|D^s h| for n coefficients, so at high m or precision
    its multiplies are wider than m + 1 separate products would be.
    """
    if m < 0:
        raise ValueError(f"bracket order must be nonnegative, got {m}")
    k1, k2 = g.weight, h.weight
    if k1 < 1 or k2 < 1:
        raise ValueError("Rankin-Cohen brackets need weights >= 1")
    weight = k1 + k2 + 2 * m
    if weight > _MAX_EISENSTEIN_WEIGHT:
        raise ValueError(f"bracket weight {weight} exceeds the cap {_MAX_EISENSTEIN_WEIGHT}")

    prec = min(g.prec, h.prec)
    a, b = g.numerators[: prec + 1], h.numerators[: prec + 1]
    nums = _bracket_numerators(a, b, k1, k2, m)
    return GradedSeries(QSeries.from_numerators(nums, g.denominator * h.denominator), weight)


def _bracket_numerators(a, b, k1: int, k2: int, m: int) -> list[int]:
    """The numerators of [g, h]_m over the product of the two denominators,
    for the numerator lists a and b of g and h, of one length, and their
    weights k1 and k2: one call of the product kernel, or none (see
    rankin_cohen). Equal lists of equal weights merge terms r and m - r
    whatever the denominators, which only scale the whole sum."""
    same = k1 == k2 and a == b
    if same and m % 2:
        return [0] * len(a)

    def derivatives(nums):  # D^0 .. D^m
        out = [nums]
        for _ in range(m):
            out.append([j * x for j, x in enumerate(out[-1])])
        return out

    g_derivs = derivatives(a)
    h_derivs = g_derivs if same else derivatives(b)
    terms = [
        ((-1) ** r * binomial(m + k1 - 1, m - r) * binomial(m + k2 - 1, r), g_derivs[r], h_derivs[m - r])
        for r in range(m + 1)
    ]
    if same:  # term m - r repeats term r's product and weight (m is even)
        terms = [(c * (1 + (2 * r < m)), x, y) for r, (c, x, y) in enumerate(terms[: m // 2 + 1])]
    return _product_sum(terms)
