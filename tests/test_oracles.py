"""Independent oracles for Delta12: each expectation is computed here in
plain integers, sharing no code path with the engine's cusp-form solve."""

from __future__ import annotations

import math

from modforms.forms import cusp_delta

PREC = 128


def _eta_product(prec: int) -> list[int]:
    """Coefficients of q * prod_{n>=1} (1 - q^n)^24 up to q^prec."""
    coeffs = [0] * (prec + 1)
    coeffs[1] = 1
    for n in range(1, prec):
        for _ in range(24):
            for i in range(prec, n, -1):
                coeffs[i] -= coeffs[i - n]
    return coeffs


def _tau() -> list[int]:
    series = cusp_delta(12, PREC)
    assert all(c.denominator == 1 for c in series.coeffs)
    return [c.numerator for c in series.coeffs]


def _sigma11(n: int) -> int:
    return sum(d**11 for d in range(1, n + 1) if n % d == 0)


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_delta12_is_the_eta_product():
    assert _tau() == _eta_product(PREC)


def test_ramanujan_congruence():
    tau = _tau()
    for n in range(1, PREC + 1):
        assert (tau[n] - _sigma11(n)) % 691 == 0, n


def test_deligne_bound_at_primes():
    tau = _tau()
    primes = [p for p in range(2, PREC + 1) if _is_prime(p)]
    assert len(primes) == 31
    for p in primes:
        assert tau[p] ** 2 <= 4 * p**11
