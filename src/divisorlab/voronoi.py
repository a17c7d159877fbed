"""Truncated Voronoi expansion of the divisor error term.

The cosine form is

    Sigma_Y(x) = x**(1/4) * sum_{n<=Y} d(n) n**(-3/4) cos(4 pi sqrt(n x) - pi/4)

and (pi*sqrt(2))**(-1) * Sigma_Y(x) approximates Delta(x); the full expansion
replaces each cosine by the Bessel combination K1 + (pi/2) Y1.  The residual
R(x) = Delta(x) - (pi sqrt 2)**(-1) Sigma_Y(x) has mean square shrinking like
Y**(-1/2) over dyadic windows.

Error bound.  With W_Y = sum_{n<=Y} d(n) n**(-3/4) and u = 2**-53, a computed
Sigma_Y(x) differs from the exactly rounded sum of the same float terms (the
math.fsum oracle in tests/test_voronoi.py) by at most

    (22 + log2 Y) * u * x**(1/4) * W_Y,

the bound of numpy's pairwise row sum, and from the exact Sigma_Y(x) by at most

    x**(1/4) * W_Y * (phi + (30 + log2 Y) * u),

where phi = 2 pi u (3 + 2**-21 sqrt(x Y)) bounds one phase's error.  Over 2 pi
the phase is t - rint(t) - 1/8, exact for every x, with t = 2 head_x head_n
(26-bit heads of sqrt(x), sqrt(n): _split_sqrt), plus cross terms of at most
c = 2**-25 * 2 sqrt(n x), so np.cos sees arguments within 2 pi (5/8 + c) of 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import bessel
from .arith import check_integer
from .divisor import build_divisor_table, check_point, delta_of, hyperbola_D, hyperbola_D_many

INV_PI_SQRT2 = 1.0 / (math.pi * math.sqrt(2.0))

# (point, term) pairs per chunk of truncated_sum_many, at most max(this, Y) in
# each of its two arrays; 2^15 keeps the kernel's passes over them in cache
_CHUNK_ELEMENTS = 1 << 15


@dataclass(frozen=True)
class TruncatedSum:
    x: float
    Y: int
    value: float


@dataclass(frozen=True)
class ResidualSample:
    x: float
    Y: int
    value: float
    truncated_sum: float  # the Sigma_Y(x) that value subtracts


def _split_sqrt(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(root, head, rest): sqrt(a) rounded, its Veltkamp head of at most 26
    bits, and rest = (a - head**2) / (root + head), a - head**2 exact."""
    root = np.sqrt(a)
    c = root * 134217729.0  # 2^27 + 1
    head = c - (c - root)
    return root, head, (a - head * head) / (root + head)


@lru_cache(maxsize=8)
def _weights(Y: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(_split_sqrt(n), d(n) * n**(-3/4)) for n = 1..Y, flattened.  The sieve
    comes first, so a Y past its window budget is refused before n is built."""
    d = build_divisor_table(1, Y).astype(np.float64)
    n = np.arange(1, Y + 1, dtype=np.float64)
    return (*_split_sqrt(n), d * n ** -0.75)


def _cosine_sums(xs: np.ndarray, Y: int) -> np.ndarray:
    """x**(1/4) sum_n w_n cos(2 pi (2 sqrt(n x) - 1/8)) for each x in xs, over
    one (points x terms) phase array and one scratch array."""
    root, head, rest, w = _weights(Y)
    _, head_x, rest_x = _split_sqrt(4.0 * xs)  # twice the parts of sqrt(x), exactly
    ph = np.multiply.outer(head_x, head)  # t, exact
    tmp = np.rint(ph)
    ph -= tmp
    ph -= 0.125  # exact: t - rint(t) - 1/8
    np.multiply.outer(head_x, rest, out=tmp)
    ph += tmp
    np.multiply.outer(rest_x, root, out=tmp)
    ph += tmp
    ph *= 2.0 * math.pi
    np.cos(ph, out=ph)
    ph *= w
    return xs ** 0.25 * ph.sum(axis=1)


def truncated_sum_many(xs: np.ndarray, Y: int) -> np.ndarray:
    """Sigma_Y at many points, _CHUNK_ELEMENTS (point, term) pairs at a time.

    Each row of weighted cosines is reduced by numpy's pairwise sum, in an
    order that depends only on Y, not on the other points or the chunking.
    Every point is refused as divisor.check_point refuses it, and Y must be
    an integer >= 0.
    """
    check_integer("Y", Y)
    xs = np.asarray(xs, dtype=np.float64)
    if xs.size:  # a nan propagates to both extremes
        check_point(xs.min())
        check_point(xs.max())
    if Y < 0:
        raise ValueError("Y must be >= 0")
    out = np.zeros(len(xs))
    if Y == 0:
        return out
    rows = max(1, _CHUNK_ELEMENTS // Y)
    for i in range(0, len(xs), rows):
        out[i : i + rows] = _cosine_sums(xs[i : i + rows], Y)
    return out


def truncated_sum(x: float, Y: int) -> TruncatedSum:
    """The cosine-form partial sum Sigma_Y(x): the one-point case of
    truncated_sum_many, with the error bound of the module docstring."""
    value = float(truncated_sum_many(np.array([x], dtype=np.float64), Y)[0])
    return TruncatedSum(x=float(x), Y=Y, value=value)


def _bessel_term(x: float, n: int, d: int) -> float:
    z = 4.0 * math.pi * math.sqrt(n * x)
    return -(2.0 * math.sqrt(x) / math.pi) * d / math.sqrt(n) * (
        bessel.k1(z) + 0.5 * math.pi * bessel.y1(z)
    )


def bessel_tail_term(x: float, n: int) -> float:
    """One term of the Bessel-form expansion of Delta(x):

        -(2 sqrt(x) / pi) * d(n) / sqrt(n) * (K1(z) + (pi/2) Y1(z)),

    z = 4 pi sqrt(n x).  Its large-z limit reproduces the cosine-form summand
    divided by pi*sqrt(2).  x must be finite and >= 1, and n an integer >= 1."""
    check_integer("n", n)
    if not (math.isfinite(x) and x >= 1 and n >= 1):
        raise ValueError(f"need finite x >= 1 and n >= 1; got x={x}, n={n}")
    return _bessel_term(x, n, int(build_divisor_table(n, n)[0]))


def bessel_partial_sum(x: float, Y: int) -> float:
    """Partial Bessel-form sum over n <= Y, the exactly rounded sum of the
    bessel_tail_term values; cross-check for the cosine form."""
    check_integer("Y", Y)
    if not (math.isfinite(x) and x >= 1 and Y >= 0):
        raise ValueError(f"need finite x >= 1 and Y >= 0; got x={x}, Y={Y}")
    if Y == 0:
        return 0.0
    table = build_divisor_table(1, Y)
    return math.fsum(_bessel_term(x, n, int(table[n - 1])) for n in range(1, Y + 1))


def residual_at(x: float, Y: int) -> ResidualSample:
    """Delta(x) - (pi sqrt 2)**(-1) Sigma_Y(x) at one point x, with the
    Sigma_Y(x) it subtracts; x is refused as divisor.check_point refuses it."""
    check_point(x)
    delta = delta_of(float(x), hyperbola_D(math.floor(x)))
    sigma = truncated_sum(x, Y).value
    return ResidualSample(x=float(x), Y=Y, value=delta - INV_PI_SQRT2 * sigma,
                          truncated_sum=sigma)


def stratified_midpoints(X: float, H: float, count: int) -> np.ndarray:
    """count deterministic sample points in [X, X+H): one unit-interval
    midpoint per stratum.  Midpoints avoid the jumps of D at integers."""
    check_integer("the sample count", count)
    if count < 1:
        raise ValueError("sample count must be >= 1")
    strata = X + (np.arange(count) + 0.5) * (H / count)
    return np.floor(strata) + 0.5


def residual_mean_square(X: float, H: float, Y: int, sample_count: int) -> float:
    """Sampled estimate of (1/H) * integral over [X, X+H] of R**2.

    Sampling is stratified and deterministic, so repeated runs agree exactly.
    """
    check_integer("Y", Y)
    if not (math.isfinite(X) and math.isfinite(H) and X >= 2 and H > 0 and Y >= 1):
        raise ValueError(f"need finite X >= 2 and H > 0, and Y >= 1; got X={X}, H={H}, Y={Y}")
    xs = stratified_midpoints(X, H, sample_count)
    D = hyperbola_D_many(np.floor(xs).astype(np.int64))
    deltas = np.array([delta_of(float(x), int(d)) for x, d in zip(xs, D)])
    sigma = truncated_sum_many(xs, Y)
    r = deltas - INV_PI_SQRT2 * sigma
    return float(np.mean(r * r))
