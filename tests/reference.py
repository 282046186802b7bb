"""Reference implementations the tests hold the engine to. Each shares no
code with the engine path it checks."""

from __future__ import annotations

from fractions import Fraction

from modforms.qseries import QSeries


def mul_reference(f: QSeries, g: QSeries) -> QSeries:
    """Schoolbook Cauchy product over Fractions, to the common precision:
    the oracle for both product paths of QSeries.__mul__, which must agree
    with it bit for bit."""
    prec = min(f.prec, g.prec)
    out = []
    for m in range(prec + 1):
        out.append(sum((f[i] * g[m - i] for i in range(m + 1)), Fraction(0)))
    return QSeries(out, prec=prec)
