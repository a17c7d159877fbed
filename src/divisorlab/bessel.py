"""Bessel Y1 and K1 for the large arguments the Voronoi expansion needs.

Above the crossover the standard large-argument asymptotic expansions are used
(10 terms; relative accuracy far below 1e-10 for z > 20).  Below it the values
come from mpmath at 30 digits, rounded once to float64.  Those small arguments
arise only when n*x < 2.53, so their cost (milliseconds a call) stays off the
bulk paths.
"""

from __future__ import annotations

import math

import mpmath

ASYMPTOTIC_CROSSOVER = 20.0
_TERMS = 10

# a_k(nu=1) = prod_{j<=k} (4 - (2j-1)^2) / (k! * 8^k)
_A = [1.0]
for _k in range(1, _TERMS + 1):
    _A.append(_A[-1] * (4.0 - (2 * _k - 1) ** 2) / (_k * 8.0))


def y1_large(z: float) -> float:
    """Y1(z) by the asymptotic expansion, valid for z > crossover."""
    p = 0.0
    q = 0.0
    zk = 1.0
    for k in range(_TERMS + 1):
        term = _A[k] * zk
        if k % 2 == 0:
            p += term if k % 4 == 0 else -term
        else:
            q += term if k % 4 == 1 else -term
        zk /= z
    omega = z - 0.75 * math.pi
    return math.sqrt(2.0 / (math.pi * z)) * (math.sin(omega) * p + math.cos(omega) * q)


def k1_large(z: float) -> float:
    """K1(z) by the asymptotic expansion, valid for z > crossover."""
    s = 0.0
    zk = 1.0
    for k in range(_TERMS + 1):
        s += _A[k] * zk
        zk /= z
    return math.sqrt(math.pi / (2.0 * z)) * math.exp(-z) * s


def _check(z: float) -> None:
    if not math.isfinite(z):
        raise ValueError(f"argument must be finite, got {z}")
    if z <= 0:
        raise ValueError("argument must be positive")


def y1(z: float) -> float:
    _check(z)
    if z > ASYMPTOTIC_CROSSOVER:
        return y1_large(z)
    with mpmath.workdps(30):
        return float(mpmath.bessely(1, z))


def k1(z: float) -> float:
    _check(z)
    if z > ASYMPTOTIC_CROSSOVER:
        return k1_large(z)
    with mpmath.workdps(30):
        return float(mpmath.besselk(1, z))
