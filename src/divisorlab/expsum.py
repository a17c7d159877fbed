"""The exponential sum S(x, N, k) = sum_{N < n <= 2N} e(x * n**(1/k)) and a
numerical estimate of its eighth moment over dyadic x ranges, which the theory
bounds by (U N**4 + N**(8 - 1/k)) up to N**epsilon factors.

On a uniform grid xs = np.linspace(a, b, M), `abs_S_grid` evaluates S as one
blocked matrix product.  With B = ceil(sqrt(M)), grid index i = j*B + t and
step h = (b - a)/(M - 1), the points are taken as xs[j*B] + t*h, so

    e(x_i r_n) = e(xs[j*B] r_n) * e(t h r_n),   S(x_i) = (E @ C)[j, t]

with E (bases x terms) and C (terms x steps).  That needs N*(M/B + B)
exponentials instead of M*N.  The points xs[j*B] + t*h differ from the
linspace values xs[i] by a few units in the last place of b, which moves
each phase by about as much as rounding x*r_n does in the direct sum.

Error bound, against S at the linspace values xs[i] (u = 2**-53):

    |abs_S_grid(xs)[i] - |S(xs[i])|| <= 16 * pi * u * N * x_max * (2N)**(1/k)

where x_max = max |xs|.  The roundings of the base, the step, the product
with r_n and of xs[i] itself move each phase by at most 8 u x_max (2N)**(1/k),
each e(.) by 2 pi times that, and the N terms add up; the exponentials and
the product add about N**2 u more, far below.  The bound is absolute: near a
zero of S the relative error is large (7.7e-7 has been seen).
tests/test_expsum.py checks it against 30-digit mpmath at 64 grid points,
the 32 of smallest |S| among them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import BudgetExceededError, check_integer

# sampling density: at least this many quadrature points per unit change of the
# fastest phase x * (2N)**(1/k); |S|**8 oscillates on exactly that scale
POINTS_PER_PHASE_UNIT = 4

_MAX_QUAD_POINTS = 1 << 24
# complex values of one output block of the grid product; bounds the working set
_BLOCK_ELEMENTS = 1 << 20
# Most elements of one term array: the N roots, or the N x B steps of
# abs_S_grid, 64 MiB as complex (a block of bases x N terms is never larger,
# as there are at most B bases).  Criterion 11's largest, N = 256 at
# U = N**2, holds 6.2e5.
MAX_TERM_ELEMENTS = 1 << 22


@dataclass(frozen=True)
class ExpSumSample:
    x: float
    N: int
    root_exponent: int
    value: complex


def _check_terms(N: int, k: int, M: int = 1) -> None:
    """Refuse N and k unless they are integers >= 2 (ValueError), and N
    terms at M grid points (M = 1: one point) when the N x B steps of
    abs_S_grid, or the N roots, would pass MAX_TERM_ELEMENTS
    (BudgetExceededError), before any term array is allocated."""
    check_integer("N", N)
    check_integer("k", k)
    if N < 2 or k < 2:
        raise ValueError("need N >= 2 and k >= 2")
    largest = N * (math.isqrt(M - 1) + 1)
    if largest > MAX_TERM_ELEMENTS:
        raise BudgetExceededError(f"term array of {largest} values for N={N} exceeds budget "
                                  f"{MAX_TERM_ELEMENTS}")


@lru_cache(maxsize=32, typed=True)  # typed: 64.0 and True miss the entries of 64 and 1
def _roots(N: int, k: int) -> np.ndarray:
    """n**(1/k) for n in (N, 2N], refined by one Newton step from the float
    power so the fractional part fed to the phase is accurate to ~1 ulp."""
    _check_terms(N, k)
    n = np.arange(N + 1, 2 * N + 1, dtype=np.float64)
    r = n ** (1.0 / k)
    # Newton step on r**k = n sharpens the last bits of the root
    r = r - (r ** k - n) / (k * r ** (k - 1))
    return r


def _e(phase: np.ndarray) -> np.ndarray:
    """e(phase) = exp(2 pi i phase), the phase reduced mod 1 first to keep
    accuracy at large x."""
    return np.exp(2j * math.pi * np.mod(phase, 1.0))


def eval_S(x: float, N: int, k: int) -> ExpSumSample:
    """Direct summation of S(x, N, k) at one point."""
    val = complex(np.sum(_e(x * _roots(N, k))))
    return ExpSumSample(x=float(x), N=N, root_exponent=k, value=val)


def abs_S_grid(xs: np.ndarray, N: int, k: int) -> np.ndarray:
    """|S(x, N, k)| at every point of a uniform grid xs (as np.linspace makes
    it), by the blocked product of the module docstring."""
    M = len(xs)
    _check_terms(N, k, M)
    r = _roots(N, k)
    B = math.isqrt(M - 1) + 1
    h = (xs[-1] - xs[0]) / max(M - 1, 1)
    steps = _e(np.multiply.outer(r, np.arange(B) * h))
    bases = xs[::B]
    rows = max(1, _BLOCK_ELEMENTS // B)
    out = np.empty((len(bases), B))
    for j in range(0, len(bases), rows):
        np.abs(_e(np.multiply.outer(bases[j : j + rows], r)) @ steps, out=out[j : j + rows])
    return out.ravel()[:M]


def moment8_S(U: float, N: int, k: int, samples: int = 16) -> tuple[float, float]:
    """Composite-trapezoid estimate of the eighth moment of S over [U, 2U].

    The grid is np.linspace(U, 2U, points) with at least POINTS_PER_PHASE_UNIT
    points per unit change of the fastest phase and at least `samples`
    points overall; |S| comes from abs_S_grid.  Returns (integral, ratio)
    where ratio = integral / (U * N**4 + N**(8 - 1/k)).
    """
    check_integer("samples", samples)
    if samples < 16:
        raise ValueError("samples must be >= 16")
    if not (math.isfinite(U) and U > 0):
        raise ValueError(f"U must be finite and > 0, got {U}")
    _check_terms(N, k)  # before N and k size the grid
    points = max(int(samples), int(POINTS_PER_PHASE_UNIT * U * (2 * N) ** (1.0 / k)) + 1)
    if points > _MAX_QUAD_POINTS:
        raise BudgetExceededError(
            f"quadrature grid of {points} points exceeds budget {_MAX_QUAD_POINTS}")
    _check_terms(N, k, points)
    xs = np.linspace(U, 2 * U, points)
    vals = abs_S_grid(xs, N, k)
    vals **= 8
    # panels in blocks, so no temporary grows with the grid
    step = _BLOCK_ELEMENTS
    integral = math.fsum(np.trapezoid(vals[i : i + step + 1], xs[i : i + step + 1])
                         for i in range(0, points - 1, step))
    bound = U * N ** 4 + N ** (8.0 - 1.0 / k)
    return integral, integral / bound
