"""Rankin-Cohen brackets at level one."""

from __future__ import annotations

from .exactmath import binomial
from .qseries import GradedSeries, QSeries

__all__ = ["rankin_cohen"]


def rankin_cohen(g: GradedSeries, h: GradedSeries, m: int) -> GradedSeries:
    """The m-th Rankin-Cohen bracket of forms of weights k1 and k2:

        [g, h]_m = sum_{r+s=m} (-1)^r C(m+k1-1, s) C(m+k2-1, r) D^r(g) D^s(h),

    a form of weight k1 + k2 + 2m. The out-of-range-zero binomial
    convention lets the sum run without edge cases; m = 0 is the plain
    product and odd m with g = h gives zero by antisymmetry.
    """
    if m < 0:
        raise ValueError(f"bracket order must be nonnegative, got {m}")
    k1, k2 = g.weight, h.weight
    if k1 < 1 or k2 < 1:
        raise ValueError("Rankin-Cohen brackets need weights >= 1")

    g_derivs = [g]
    h_derivs = [h]
    for _ in range(m):
        g_derivs.append(g_derivs[-1].derivative())
        h_derivs.append(h_derivs[-1].derivative())

    prec = min(g.prec, h.prec)
    total = QSeries.zero(prec)
    for r in range(m + 1):
        s = m - r
        coeff = binomial(m + k1 - 1, s) * binomial(m + k2 - 1, r)
        if r % 2:
            coeff = -coeff
        if coeff == 0:
            continue
        total = total + (g_derivs[r] * h_derivs[s]) * coeff
    return GradedSeries(total, k1 + k2 + 2 * m)
