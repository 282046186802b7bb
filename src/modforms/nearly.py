"""Nearly holomorphic forms as polynomials in Y := 1/(pi * Im z).

That scaling is the minimal one keeping every coefficient rational: the
weight-2 nearly holomorphic Eisenstein series is E2 - 3Y, the raising
operator acts as F -> DF - (k/4) Y F, and D(Y) = Y^2 / 4. Any other
scaling of 1/Im z drags powers of pi into the data.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from typing import Iterable, Optional, Union

from .exactmath import as_rational
from .qseries import GradedSeries, PrecisionError, QSeries
from .forms import (
    _WINDOW_MARGIN,
    _combination,
    eisenstein,
    monomial_basis,
    span_coordinates,
)

__all__ = [
    "YPolyForm",
    "e2_star",
    "constant_term",
    "maass_shimura",
    "quasimodular_decompose",
]


class YPolyForm:
    """Polynomial in Y whose coefficients are exact q-expansions.

    Component r is the series multiplying Y^r; the depth is the degree in
    Y after trailing zero components are stripped. Depths above weight/2
    cannot come from an actual nearly holomorphic form, so construction
    warns (but does not fail) when that bound is exceeded.
    """

    __slots__ = ("_components", "_weight")

    def __init__(self, components: Iterable, weight: int):
        comps = []
        for c in components:
            if isinstance(c, GradedSeries):
                c = c.series
            if not isinstance(c, QSeries):
                raise TypeError("Y-components must be QSeries (or GradedSeries)")
            comps.append(c)
        if not comps:
            raise ValueError("a Y-polynomial needs at least one component")
        if not isinstance(weight, int) or weight < 0:
            raise ValueError(f"weight must be a nonnegative integer, got {weight}")
        prec = min(c.prec for c in comps)
        comps = [c.truncate(prec) for c in comps]
        while len(comps) > 1 and comps[-1].is_zero():
            comps.pop()
        self._components = tuple(comps)
        self._weight = weight
        if 2 * self.depth > weight:
            warnings.warn(
                f"Y-degree {self.depth} exceeds weight/2 = {weight}/2; "
                "no nearly holomorphic form has this shape",
                stacklevel=2,
            )

    @classmethod
    def from_graded(cls, form: GradedSeries) -> "YPolyForm":
        return cls([form], form.weight)

    @property
    def components(self) -> tuple[QSeries, ...]:
        return self._components

    @property
    def weight(self) -> int:
        return self._weight

    @property
    def depth(self) -> int:
        return len(self._components) - 1

    @property
    def prec(self) -> int:
        return self._components[0].prec

    def component(self, r: int) -> QSeries:
        """Series multiplying Y^r; zero beyond the depth."""
        if r < 0:
            raise IndexError("Y-power must be nonnegative")
        if r <= self.depth:
            return self._components[r]
        return QSeries.zero(self.prec)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self._components)

    def _linear(self, other, sign: int):
        # self + sign * other, component by component to the common precision.
        if isinstance(other, GradedSeries):
            other = YPolyForm.from_graded(other)
        if not isinstance(other, YPolyForm):
            return NotImplemented
        if self._weight != other._weight:
            verb = "add" if sign > 0 else "subtract"
            raise ValueError(
                f"cannot {verb} forms of weights {self._weight} and {other._weight}"
            )
        prec = min(self.prec, other.prec)
        comps = [
            self.component(r).truncate(prec)._linear(other.component(r).truncate(prec), sign)
            for r in range(max(self.depth, other.depth) + 1)
        ]
        return YPolyForm(comps, self._weight)

    def __add__(self, other):
        return self._linear(other, 1)

    def __sub__(self, other):
        return self._linear(other, -1)

    def __neg__(self) -> "YPolyForm":
        return YPolyForm([-c for c in self._components], self._weight)

    def __mul__(self, other):
        if isinstance(other, GradedSeries):
            other = YPolyForm.from_graded(other)
        if isinstance(other, YPolyForm):
            comps = []
            for t in range(self.depth + other.depth + 1):
                first, *rest = [
                    self._components[r] * other._components[t - r]
                    for r in range(max(0, t - other.depth), min(self.depth, t) + 1)
                ]
                comps.append(sum(rest, first))
            return YPolyForm(comps, self._weight + other._weight)
        scalar = as_rational(other)
        return YPolyForm([c * scalar for c in self._components], self._weight)

    def __eq__(self, other):
        if not isinstance(other, YPolyForm):
            return NotImplemented
        return (
            self._weight == other._weight and self._components == other._components
        )

    __hash__ = None


def e2_star(prec: int) -> YPolyForm:
    """The weight-2 nearly holomorphic eigenform E2 - 3Y."""
    return YPolyForm(
        [eisenstein(2, prec), QSeries.constant(-3, prec)], weight=2
    )


def constant_term(form: YPolyForm) -> GradedSeries:
    """The Y^0 component with the weight tag kept (a quasimodular form)."""
    return GradedSeries(form.component(0), form.weight)


def maass_shimura(form: Union[YPolyForm, GradedSeries]) -> YPolyForm:
    """Weight-raising operator F -> DF - (k/4) Y F on Y-polynomials.

    D differentiates components by q d/dq and acts on Y through the
    product rule with D(Y) = Y^2/4; the result has weight k + 2 and depth
    at most one more than the input.
    """
    if isinstance(form, GradedSeries):
        form = YPolyForm.from_graded(form)
    k = form.weight
    # Component t is D(c_t) + ((t - 1 - k)/4) c_(t-1), with c_(depth+1) = 0.
    comps = [form.component(0).derivative()]
    for t in range(1, form.depth + 2):
        raised = form.component(t - 1) * Fraction(t - 1 - k, 4)
        comps.append(form.component(t).derivative() + raised)
    return YPolyForm(comps, k + 2)


def quasimodular_decompose(
    f: GradedSeries, depth_bound: int
) -> Optional[list[tuple[int, GradedSeries, list[Fraction]]]]:
    """Write f = sum_r D^r(f_r) with f_r in M_{k-2r}, 0 <= r <= depth_bound.

    Requires depth_bound < k/2, the regime where the direct sum
    decomposition of quasimodular forms holds. Returns the list of
    (r, f_r, coordinates of f_r in monomial_basis(k - 2r)) triples, or
    None when f is not in the span (the input was not quasimodular of the
    claimed depth). The solved window is the column count plus
    _WINDOW_MARGIN; the reconstruction is then re-checked against every
    certified coefficient of f before the result is returned.
    """
    k = f.weight
    if depth_bound < 0:
        raise ValueError("depth bound must be nonnegative")
    if 2 * depth_bound >= k:
        raise ValueError(
            f"decomposition needs depth bound < weight/2; got {depth_bound} >= {k}/2"
        )
    bases = [monomial_basis(k - 2 * r, f.prec) for r in range(depth_bound + 1)]
    columns = []
    for r, basis in enumerate(bases):
        for element in basis:
            for _ in range(r):
                element = element.derivative()
            columns.append(element)
    window = len(columns) + _WINDOW_MARGIN
    if f.prec < window:
        raise PrecisionError(
            f"decomposition at weight {k} needs precision >= {window}, have {f.prec}"
        )
    solution = span_coordinates(columns, f, window)
    if solution is None:
        return None

    parts = []
    index = 0
    for r, basis in enumerate(bases):
        coords = solution[index : index + len(basis)]
        index += len(basis)
        component = _combination(basis, coords, f.prec)
        parts.append((r, GradedSeries(component, k - 2 * r), coords))
    return parts
