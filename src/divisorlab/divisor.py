"""Exact divisor counts d(n), the summatory function D(x), and the error term
Delta(x) = D(x) - x*log(x) - (2*gamma - 1)*x.

All integer quantities here are exact.  D(x) for real x means D(floor(x)),
which makes Delta right-continuous with a jump of d(m) at each integer m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Euler-Mascheroni constant, 30 significant digits, rounded to double.
EULER_GAMMA = 0.577215664901532860606512090082

# Coefficient of the linear term in the main-term approximation of D(x).
TWO_GAMMA_MINUS_ONE = 2.0 * EULER_GAMMA - 1.0

# The same to 40 digits for the long double path of delta_unit: the float64
# value is 9.9e-18 off, which alone moves Delta(2e12) by 2e-5.
_TWO_GAMMA_MINUS_ONE_LD = np.longdouble("0.1544313298030657212130241801648048620844")

# Default segmented-sieve block of the moment stream.  Its int32 d(n) and
# int64 D(m) arrays, 6 MiB per thread, set the stream's peak memory: on 2
# threads the profile [1,2,3,4,8], [35/4, 267/27] to 4.02e6 peaked at 111 MB
# RSS with 2**22, 57-59 MB with 2**19 and 52-53 MB with 2**18.  But 2**18
# took 70k-143k minor page faults against 10k-14k with 2**19 (2 vCPUs): next
# to the smaller block arrays, glibc's heap gives the moment kernel's fresh
# 1 MiB chunk arrays new pages chunk after chunk.  Each block also runs an
# O(sqrt(x)) Python loop in the sieve.
DEFAULT_BLOCK = 1 << 19

# Largest argument accepted anywhere; beyond this int64 intermediates in the
# sieve could overflow and memory budgets are unrealistic anyway.
MAX_SIEVE_ARGUMENT = 1 << 52

# Vectorized passes over the divisors take at most _SCATTER_CHUNK divisors
# (or hyperbola terms) and about max(_SCATTER_HITS, block length) sieve hits
# at once, so their temporaries stay a few MB for short windows at any x.
_SCATTER_CHUNK = 1 << 16
_SCATTER_HITS = 1 << 18

# hyperbola_D_many takes its sorted arguments in runs of this many
_MANY_ROWS = 1 << 9


class RangeOverflowError(ValueError):
    """Requested range exceeds the supported integer width or block budget."""


@dataclass(frozen=True)
class DeltaSample:
    """One evaluation point: x, the exact D(floor(x)), and Delta(x)."""

    x: float
    D: int
    delta: float


def build_divisor_table(lo: int, hi: int) -> np.ndarray:
    """Exact d(n) for all n in [lo, hi], both endpoints inclusive, as an
    int32 array indexed n - lo.

    For every divisor d <= sqrt(hi), each multiple n = d*q with q >= d gets
    +2 (the pair d, q) or +1 when q == d.  Divisors up to
    max(64, (hi-lo+1)/128), whose multiples are dense in the range, are added
    as strided slices, one Python iteration each.  All larger d, up to
    sqrt(hi), are scattered with one numpy bincount per chunk of divisors
    (see _SCATTER_CHUNK).  Cost is O((hi-lo) * log(sqrt(hi))) element
    operations plus O(sqrt(hi)) vectorized per-divisor steps; a 2**16 window
    at 1e12 takes a few hundredths of a second.
    """
    if not 1 <= lo <= hi:
        raise ValueError(f"need 1 <= lo <= hi, got lo={lo}, hi={hi}")
    if hi > MAX_SIEVE_ARGUMENT:
        raise RangeOverflowError(f"hi={hi} exceeds supported range {MAX_SIEVE_ARGUMENT}")
    n = hi - lo + 1
    values = np.zeros(n, dtype=np.int32)
    root = math.isqrt(hi)
    split = min(root, max(64, n // 128))
    for d in range(1, split + 1):
        # first multiple of d in [max(lo, d*d), hi]
        start = max(lo, d * d)
        first = ((start + d - 1) // d) * d
        if first > hi:
            continue
        values[first - lo :: d] += 2
        sq = d * d
        if lo <= sq <= hi:
            values[sq - lo] -= 1
    a = split + 1
    while a <= root:
        # each d >= a has at most n // a + 1 multiples in the range
        width = max(1, max(n, _SCATTER_HITS) // (n // a + 1))
        b = min(root + 1, a + min(_SCATTER_CHUNK, width))
        _add_divisor_pairs(values, lo, np.arange(a, b, dtype=np.int64))
        a = b
    # squares d*d in [lo, hi] with d above the split were counted twice
    squares = np.arange(max(split + 1, math.isqrt(lo - 1) + 1), root + 1, dtype=np.int64) ** 2
    values[squares - lo] -= 1
    return values


def _add_divisor_pairs(values: np.ndarray, lo: int, d: np.ndarray) -> None:
    """Add 2 to values[n - lo] for every multiple n = d*q, q >= d, of each
    divisor in the int64 array d that lies in [lo, lo + len(values)), as one
    numpy scatter."""
    n = len(values)
    first = np.maximum(-(-lo // d), d) * d - lo  # offset of the first multiple
    count = (n - 1 - first) // d + 1
    hit = count > 0
    d, first, count = d[hit], first[hit], count[hit]
    # hit offsets as one cumulative sum: steps of d within each run, and a
    # jump from the previous run's last offset to each run's first
    step = np.repeat(d, count)
    last = first + (count - 1) * d
    step[np.cumsum(count) - count] = first - np.concatenate(([0], last[:-1]))
    hits = np.bincount(np.cumsum(step, out=step), minlength=n)
    hits *= 2
    values += hits


def hyperbola_D(x: int) -> int:
    """Exact D(x) = sum_{n<=x} d(n) by the hyperbola identity

        D(x) = 2 * sum_{n <= sqrt(x)} floor(x/n) - floor(sqrt(x))**2,

    evaluated by hyperbola_D_many at the one point.  x beyond
    MAX_SIEVE_ARGUMENT is refused before it is converted to int64.
    """
    if x < 1:
        raise ValueError("x must be >= 1")
    if x > MAX_SIEVE_ARGUMENT:
        raise RangeOverflowError(f"x={x} exceeds supported range {MAX_SIEVE_ARGUMENT}")
    return int(hyperbola_D_many(np.array([x], dtype=np.int64))[0])


def hyperbola_D_many(xs: np.ndarray) -> np.ndarray:
    """hyperbola_D at every x of an int64 array, exact.

    The arguments are sorted and taken in runs of _MANY_ROWS; a run adds
    floor(x/n) in (run x divisor) int64 blocks of at most _SCATTER_CHUNK
    elements, over the divisors up to its largest root and only for the
    x >= n*n.  The sum for one x is below x*(log(sqrt(x)) + 1) < 2**63 for
    every x <= MAX_SIEVE_ARGUMENT; larger x are refused.
    """
    xs = np.asarray(xs, dtype=np.int64)
    if xs.size and xs.min() < 1:
        raise ValueError("all arguments must be >= 1")
    if xs.size and xs.max() > MAX_SIEVE_ARGUMENT:
        raise RangeOverflowError(f"x={xs.max()} exceeds supported range {MAX_SIEVE_ARGUMENT}")
    order = np.argsort(xs, kind="stable")
    xs = xs[order]
    roots = np.sqrt(xs.astype(np.float64)).astype(np.int64)
    # guard against floating roundoff on the integer square root
    roots = np.where((roots + 1) * (roots + 1) <= xs, roots + 1, roots)
    roots = np.where(roots * roots > xs, roots - 1, roots)
    sums = np.zeros(len(xs), dtype=np.int64)
    for i in range(0, len(xs), _MANY_ROWS):
        x, r = xs[i : i + _MANY_ROWS, None], roots[i : i + _MANY_ROWS, None]
        top = int(r[-1, 0])
        width = _SCATTER_CHUNK // len(x)
        for a in range(1, top + 1, width):
            j = int(np.searchsorted(r[:, 0], a))  # the x >= a*a
            n = np.arange(a, min(a + width, top + 1), dtype=np.int64)
            q = x[j:] // n
            if n[-1] > r[j, 0]:
                q[n > r[j:]] = 0
            sums[i + j : i + len(x)] += q.sum(axis=1)
    out = np.empty_like(sums)
    out[order] = 2 * sums - roots * roots
    return out


def delta_unit(m, D, u) -> np.ndarray:
    """Delta(m + u) on the smooth branch D - x*log(x) - (2*gamma - 1)*x of
    one unit interval, as a float64 array; m, D and u broadcast, and m or u
    is an array.

    D = D(floor(m)) and m + u stays in that interval, so for an integer m,
    u = 1 gives the left limit at m + 1; m need not be an integer.  x = m + u
    is built here and overwritten, so beside the result the call holds one
    array of their shape.

    When max(m) + max(u) exceeds 2**40 the whole evaluation is in long
    double, with D exact from its integer value and 2*gamma - 1 to 40
    digits: in float64 Delta ~ x**(1/4) would drown in the cancellation of
    x*log(x) against D.  Rounding is monotone, so when m and u broadcast as
    an outer sum (every m with every u) that is exactly when some x exceeds
    2**40; elementwise it may also happen when none does.
    """
    if np.max(m, initial=0.0) + np.max(u, initial=0.0) > 2.0 ** 40:
        x, c = np.add(m, u, dtype=np.longdouble), _TWO_GAMMA_MINUS_ONE_LD
    else:
        x, c = np.add(m, u), TWO_GAMMA_MINUS_ONE
    delta = np.log(x)
    delta *= x
    np.subtract(D, delta, out=delta)  # D is cast exactly, a buffer at a time
    x *= c
    delta -= x
    return delta.astype(np.float64, copy=False)


def delta_of(x: float, D: int) -> float:
    """Delta(x) given the exact D(floor(x)): delta_unit at one point."""
    return float(delta_unit(np.array([x]), D, 0.0)[0])


def delta_at(x: float) -> DeltaSample:
    """Delta(x) with exact D(floor(x)) computed by the hyperbola identity."""
    if not (math.isfinite(x) and x >= 1):
        raise ValueError(f"x must be finite and >= 1, got {x}")
    D = hyperbola_D(math.floor(x))
    return DeltaSample(x=float(x), D=D, delta=delta_of(float(x), D))


def prefix_block(start: int, stop: int) -> np.ndarray:
    """Exact D(m) for m in [start, stop) as an int64 array."""
    out = np.cumsum(build_divisor_table(start, stop - 1), dtype=np.int64)
    out += hyperbola_D(start - 1) if start > 1 else 0
    return out
