"""Rankin-Cohen brackets at level one."""

from __future__ import annotations

from math import lcm

from .exactmath import binomial
from .forms import _MAX_EISENSTEIN_WEIGHT
from .qseries import GradedSeries, QSeries

__all__ = ["rankin_cohen"]


def rankin_cohen(g: GradedSeries, h: GradedSeries, m: int) -> GradedSeries:
    """The m-th Rankin-Cohen bracket of forms of weights k1 and k2,

        [g, h]_m = sum_{r+s=m} (-1)^r C(m+k1-1, s) C(m+k2-1, r) D^r(g) D^s(h),

    a form of weight k1 + k2 + 2m; m = 0 is the plain product and odd m
    with g = h gives zero by antisymmetry. Weights above the Eisenstein
    cap are refused: the beta_i below cost O(m^2) big-integer products.

    It is built from the products Q_i = D^i(g) h, i <= m:

        [g, h]_m = sum_i beta_i D^(m-i)(Q_i),
        beta_i = (-1)^i sum_{r<=i} C(m+k1-1, m-r) C(m+k2-1, r) C(m-r, i-r).

    On a product, D = D_g + D_h, where D_g and D_h differentiate one factor
    (D(D^r g D^s h) = D^(r+1) g D^s h + D^r g D^(s+1) h). So D^r(g) D^s(h)
    = (D - D_g)^s (D^r(g) h) = sum_t (-1)^t C(s, t) D^(s-t)(Q_(r+t)), and
    the terms with r + t = i sum to beta_i D^(m-i)(Q_i).

    A bracket costs m + 1 products, like the textbook sum.
    """
    if m < 0:
        raise ValueError(f"bracket order must be nonnegative, got {m}")
    k1, k2 = g.weight, h.weight
    if k1 < 1 or k2 < 1:
        raise ValueError("Rankin-Cohen brackets need weights >= 1")
    if k1 + k2 + 2 * m > _MAX_EISENSTEIN_WEIGHT:
        raise ValueError(
            f"bracket weight {k1 + k2 + 2 * m} exceeds the cap {_MAX_EISENSTEIN_WEIGHT}"
        )

    products = [g * h]
    for _ in range(m):
        g = g.derivative()
        products.append(g * h)

    def beta(i: int) -> int:
        return (-1) ** i * sum(
            binomial(m + k1 - 1, m - r) * binomial(m + k2 - 1, r) * binomial(m - r, i - r)
            for r in range(i + 1)
        )

    # Horner's rule in D, (((beta_0 Q_0)' + beta_1 Q_1)' + ...)' + beta_m Q_m,
    # on integer numerators over the lcm L of the denominators of Q_i.
    den = lcm(*(q.denominator for q in products))
    total = [0] * (products[0].prec + 1)
    for i in range(m + 1):
        c = beta(i) * (den // products[i].denominator)
        total = [j * t + c * a for j, (t, a) in enumerate(zip(total, products[i].numerators))]
    return GradedSeries(QSeries.from_numerators(total, den), k1 + k2 + 2 * m)
