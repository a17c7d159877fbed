"""Exact divisor counts d(n), the summatory function D(x), and the error term
Delta(x) = D(x) - x*log(x) - (2*gamma - 1)*x.

All integer quantities here are exact.  D(x) for real x means D(floor(x)),
which makes Delta right-continuous with a jump of d(m) at each integer m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from mpmath import libmp

from .arith import BudgetExceededError, check_integer

# Euler-Mascheroni constant, 30 significant digits, rounded to double.
EULER_GAMMA = 0.577215664901532860606512090082

# The anchors of Delta and delta_of form f(x) = x*log(x) + (2*gamma - 1)*x
# with mpmath's low-level functions, which take their precision as an
# argument and so are safe in threads, at _PREC bits: f stays below 2**58 up
# to MAX_SIEVE_ARGUMENT, so its fraction keeps 78 bits.
_PREC = 136
_TWO_GAMMA_MINUS_ONE = libmp.from_str("0.154431329803065721213024180164804862084318672", _PREC)

# One anchor m0 serves at most min(m0, ANCHOR_SPAN) unit intervals from m0
# (see anchor_grid and unit_branch), and a chunk of the moment kernel is the
# run of one anchor: each of its (node x interval) float64 arrays is 1 MiB
# and its arrays stay cache-sized; 2**13..2**15 timed best of 2**12..2**16 on
# 2 vCPUs.
ANCHOR_SPAN = 1 << 14

# Most anchors every ANCHOR_SPAN that anchor_grid lays out.  Each starts a
# chunk that moment_profile plans in about 130 bytes before any is
# integrated; 2**20 is above the 6.1e5 chunks of a profile to 1e10.
MAX_ANCHORS = 1 << 20

# Largest argument accepted anywhere.  The floor quotients of the sieve and
# of hyperbola_D_many are truncated float64 quotients x/d, exact while
# x + d < 2**53 (x = lo - 1 in the sieve; d <= 2**26 at this bound).
MAX_SIEVE_ARGUMENT = 1 << 52

# Longest window build_divisor_table accepts: 2**24 values, 64 MiB of int32
# d(n), above every caller in the package (2**18-value moment blocks,
# criterion 1's 1e6, constant tables up to 2**20) and the 1e7-value table
# timed in bench/baseline.md.
MAX_SIEVE_WINDOW = 1 << 24

# Vectorized passes over the divisors take at most _SCATTER_CHUNK divisors
# (or hyperbola terms) and about max(_SCATTER_CHUNK, block length) sieve hits
# at once, so their temporaries stay a few MB for short windows at any x.
# Against chunks of 2**14..2**18, 2**16 sieved a 2**16 window at 1e10 and a
# 2**17 window at 1e11 within 3% of the fastest (4.5 and 10.1 ms on 2 shared
# vCPUs); 2**18 took a 2**16 window at 1e12 in 10.3 ms against 12.0, but its
# temporaries peak at 3.7 MiB instead of 1.5 (10 MiB at 2**20).
_SCATTER_CHUNK = 1 << 16

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
    int32 array indexed n - lo, from _divisor_sieve.

    Cost is O((hi-lo) * log(sqrt(hi))) element operations plus O(sqrt(hi))
    vectorized per-divisor steps.  A window longer than MAX_SIEVE_WINDOW is
    refused with BudgetExceededError before anything is allocated.
    """
    return _divisor_sieve(lo, hi)[0]


def _divisor_sieve(lo: int, hi: int) -> tuple[np.ndarray, int]:
    """d(n) for n in [lo, hi] as an int32 array indexed n - lo, and the exact
    D(lo - 1), from one quotient q = floor((lo - 1)/d) for every divisor
    d <= isqrt(hi).

    q is the float64 quotient truncated, exact because lo - 1 + d < 2**53
    (the argument of hyperbola_D_many).  The first multiple of d at or past
    lo is (q + 1)*d, and D(lo - 1) = 2 * (sum of q over d <= isqrt(lo - 1))
    - isqrt(lo - 1)**2.  Each multiple n = d*m with m >= d gets +2 (the pair
    d, m) or +1 when m == d.  The divisors fall in two bands:

    - d up to max(64, (hi-lo+1)/128), each with many multiples in the range:
      a loop over the divisors, their first offsets from one int64 pass,
      then one strided np.add each;
    - the larger d, each with few multiples, in chunks (see _SCATTER_CHUNK)
      of int32 divisors: q truncated straight into an int64 array and turned
      into the offsets there, then a loop over the passes, each keeping the
      offsets inside the window and then advancing every one by its d, and
      one numpy bincount per chunk.
    """
    check_integer("lo", lo)
    check_integer("hi", hi)
    if not 1 <= lo <= hi:
        raise ValueError(f"need 1 <= lo <= hi, got lo={lo}, hi={hi}")
    if hi > MAX_SIEVE_ARGUMENT:
        raise RangeOverflowError(f"hi={hi} exceeds supported range {MAX_SIEVE_ARGUMENT}")
    n = hi - lo + 1
    if n > MAX_SIEVE_WINDOW:
        raise BudgetExceededError(f"window of {n} values exceeds the sieve budget "
                                  f"of {MAX_SIEVE_WINDOW}")
    values = np.zeros(n, dtype=np.int32)
    root, below = math.isqrt(hi), math.isqrt(lo - 1)
    x = float(lo - 1)  # exact
    split = min(root, max(64, n // 128))
    # offset of the first multiple of each d at or past max(lo, d*d); past hi
    # the slice is empty.  np.add into the strided view skips the copy back
    # that `+=` on a slice makes.
    ds = np.arange(1, split + 1, dtype=np.int64)
    q = (x / ds).astype(np.int64)
    quotient_sum = int(q[:below].sum())
    firsts = (np.maximum((q + 1) * ds, ds * ds) - lo).tolist()
    two = np.int32(2)
    for d, first in enumerate(firsts, 1):
        band = values[first::d]
        np.add(band, two, out=band)
    a = split + 1
    while a <= root:
        # each d >= a has at most n // a + 1 multiples in the range
        passes = n // a + 1
        width = max(1, max(n, _SCATTER_CHUNK) // passes)
        b = min(root + 1, a + min(_SCATTER_CHUNK, width))
        d = np.arange(a, b, dtype=np.int32)
        at = np.divide(x, d, out=np.empty(b - a, dtype=np.int64), casting="unsafe")
        if a <= below:
            quotient_sum += int(at[: below + 1 - a].sum())
        at += 1
        at *= d
        at -= lo
        # only where d*d > lo (the divisors near sqrt(hi)) does m >= d move
        # the first multiple up to d*d
        if (b - 1) ** 2 > lo:
            np.maximum(at, np.multiply(d, d, dtype=np.int64) - lo, out=at)
        kept = [at[at < n]]
        for _ in range(passes - 1):
            at += d
            kept.append(at[at < n])
        # freed before the bincount's two n-long temporaries, so that a chunk
        # holds less of the heap at once and the heap keeps it for the next
        del d, at
        values += np.bincount(np.concatenate(kept), minlength=n) * 2
        a = b
    # every square d*d in [lo, hi] was counted twice
    squares = np.arange(below + 1, root + 1, dtype=np.int64) ** 2
    values[squares - lo] -= 1
    return values, 2 * quotient_sum - below * below


def hyperbola_D(x: int) -> int:
    """Exact D(x) = sum_{n<=x} d(n) by the hyperbola identity

        D(x) = 2 * sum_{n <= sqrt(x)} floor(x/n) - floor(sqrt(x))**2,

    evaluated by hyperbola_D_many at the one point.  x beyond
    MAX_SIEVE_ARGUMENT is refused before it is converted to int64.
    """
    check_integer("x", x)
    if x > MAX_SIEVE_ARGUMENT:
        raise RangeOverflowError(f"x={x} exceeds supported range {MAX_SIEVE_ARGUMENT}")
    return int(hyperbola_D_many(np.array([x], dtype=np.int64))[0])


def isqrt_many(xs: np.ndarray) -> np.ndarray:
    """math.isqrt at every 0 <= x <= 2**52 of an int64 array: the float64
    square root, truncated.

    Exact: x is exact in float64.  With k = isqrt(x), sqrt(k*k) = k exactly
    and rounding is monotone, so fl(sqrt(x)) >= k.  Since x <= (k + 1)**2 - 1,
    k + 1 - sqrt(x) > 1/(2(k + 1)) >= 2**-27 (k + 1 <= 2**26 for x < 2**52),
    more than half the float64 spacing below k + 1, so fl(sqrt(x)) < k + 1.
    x = 2**52 is the square of 2**26.
    """
    return np.sqrt(np.asarray(xs, dtype=np.float64)).astype(np.int64)


def hyperbola_D_many(xs: np.ndarray) -> np.ndarray:
    """hyperbola_D at every x of an integer array, exact; an array of
    another dtype is refused.

    The arguments are sorted and taken in runs of _MANY_ROWS; a run adds
    floor(x/n) in (run x divisor) float64 blocks of at most _SCATTER_CHUNK
    quotients, over the divisors up to its largest root and only for the
    x >= n*n.  Every block is written into one divisor and one quotient
    buffer made per call.  Each block's row sums are taken with dtype int64,
    which truncates every quotient to int64 before it is added, so no
    fraction reaches the sum.  The sum for one x is below
    x*(log(sqrt(x)) + 1) < 2**63 for every x <= MAX_SIEVE_ARGUMENT; larger x
    are refused.

    floor(x/n) is the float64 quotient fl(x/n) truncated, which is exact for
    integers x >= 0 and n >= 1 with x + n < 2**53: here x <= 2**52 and
    n <= sqrt(x) <= 2**26.  x and n are exact in float64.  Write x = q*n + r
    with 0 <= r < n.  Rounding is monotone and q is a float64, so
    fl(x/n) >= q.  For fl(x/n) to reach q + 1, x/n would have to lie within
    half a spacing of it, at most (q + 1) * 2**-53; but q + 1 - x/n =
    (n - r)/n >= 1/n, and 1/n > (q + 1) * 2**-53 since
    n*(q + 1) <= x + n < 2**53.  So q <= fl(x/n) < q + 1.
    """
    xs = np.asarray(xs)
    if not np.issubdtype(xs.dtype, np.integer):
        raise ValueError(f"xs must be an integer array, got dtype {xs.dtype}")
    xs = xs.astype(np.int64, copy=False)
    if xs.size and xs.min() < 1:
        raise ValueError("all arguments must be >= 1")
    if xs.size and xs.max() > MAX_SIEVE_ARGUMENT:
        raise RangeOverflowError(f"x={xs.max()} exceeds supported range {MAX_SIEVE_ARGUMENT}")
    order = np.argsort(xs, kind="stable")
    xs = xs[order]
    roots = isqrt_many(xs)
    sums = np.zeros(len(xs), dtype=np.int64)
    # a block of a run holds at most min(_SCATTER_CHUNK, rows * root) quotients
    # of at most min(_SCATTER_CHUNK, root) divisors, for the largest root
    most = int(roots[-1]) if len(xs) else 0
    steps = np.arange(min(_SCATTER_CHUNK, most), dtype=np.float64)
    divisors = np.empty_like(steps)
    quotients = np.empty(min(_SCATTER_CHUNK, min(len(xs), _MANY_ROWS) * most))
    for i in range(0, len(xs), _MANY_ROWS):
        x, r = xs[i : i + _MANY_ROWS, None].astype(np.float64), roots[i : i + _MANY_ROWS, None]
        top = int(r[-1, 0])
        width = _SCATTER_CHUNK // len(x)
        for a in range(1, top + 1, width):
            j = int(np.searchsorted(r[:, 0], a))  # the x >= a*a
            m = min(width, top + 1 - a)
            n = np.add(steps[:m], a, out=divisors[:m])
            q = np.divide(x[j:], n, out=quotients[: (len(x) - j) * m].reshape(-1, m))
            if n[-1] > r[j, 0]:
                q[n > r[j:]] = 0
            sums[i + j : i + len(x)] += q.sum(axis=1, dtype=np.int64)
    out = np.empty_like(sums)
    out[order] = 2 * sums - roots * roots
    return out


def _log_term(x) -> tuple:
    """(K, f) for the exact mpmath value x >= 1: K = log(x) + 2*gamma - 1 and
    f(x) = x*K, to _PREC bits."""
    K = libmp.mpf_add(libmp.mpf_log(x, _PREC), _TWO_GAMMA_MINUS_ONE, _PREC)
    return K, libmp.mpf_mul(x, K, _PREC)


def _to_float(x) -> float:
    return libmp.to_float(x, rnd=libmp.round_nearest)


def _degree(c: float) -> int:
    """Smallest degree K >= 2 of the Taylor polynomial of Delta about c whose
    first dropped term, 2**-(K+1) / ((K+1) K c**K) at |x - c| = 1/2, is below
    2**-56 * max(1, c**(1/4)), a sixteenth of an ulp of Delta ~ x**(1/4):
    29 at c = 1.5, 5 at 1e3, 3 at 1e6 and 2 from 6e6 on."""
    tol = 2.0 ** -56 * max(1.0, c ** 0.25)
    K = 2
    while 0.5 ** (K + 1) / ((K + 1) * K * c ** K) >= tol:
        K += 1
    return K


def anchor_grid(lo: int, hi: int) -> list[int]:
    """The anchors of the unit intervals [lo, hi), for integers 1 <= lo < hi:
    lo, 2*lo, 4*lo, ... below lo + ANCHOR_SPAN, then every ANCHOR_SPAN from
    lo.  Each anchor m0 serves the intervals up to the next one, at most
    min(m0, ANCHOR_SPAN) of them, as unit_branch asks.  The grid depends on
    lo alone, so no value depends on where a caller cuts its range.  Before
    any anchor is laid out, hi above MAX_SIEVE_ARGUMENT raises
    RangeOverflowError and hi - lo above MAX_ANCHORS * ANCHOR_SPAN
    BudgetExceededError."""
    if hi > MAX_SIEVE_ARGUMENT:
        raise RangeOverflowError(f"hi={hi} exceeds supported range {MAX_SIEVE_ARGUMENT}")
    if hi - lo > MAX_ANCHORS * ANCHOR_SPAN:
        raise BudgetExceededError(f"{hi - lo} unit intervals exceed the plan budget of "
                                  f"{MAX_ANCHORS} anchors every {ANCHOR_SPAN}")
    first = min(hi, lo + ANCHOR_SPAN)
    return [lo << k for k in range(((first - 1) // lo).bit_length())] + list(
        range(lo + ANCHOR_SPAN, hi, ANCHOR_SPAN))


def unit_branch(m0: int, j: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Taylor coefficients of the smooth branch D - f(x) of Delta about the
    midpoint c = m0 + j + 1/2 of each unit interval [m0 + j, m0 + j + 1),
    for the integer m0 >= 1, an integer array j in [0, min(m0, ANCHOR_SPAN))
    and D = D(m0 + j): a (K + 1, len(j)) float64 array whose row k
    multiplies (x - c)**k, of the degree K = _degree(m0 + 1/2).  delta_unit
    evaluates it.

    With f(x) = x*log(x) + (2*gamma - 1)*x and h = j + 1/2,

        f(c) = f(m0) + h*K0 + c*L,   K0 = log(m0) + 2*gamma - 1,   L = log1p(h/m0),

    where f(m0) = N0 + r0 (N0 an integer) and K0 = K_head + K_tail come from
    one anchor to _PREC bits.  K_head has 26 bits (Dekker's split), so
    (D - N0) - h*K_head is exact.  What is left of the cancellation of D
    against f(c) is the rounding of c*L ~ h: with h < 2**14 and L < log(2),
    about h * 2**-53 from log1p and half an ulp of c*L, 5.5e-12 at most.
    Row 1 is -(log(c) + 2*gamma) and row k >= 2 is
    (-1)**(k+1) / (k (k-1) c**(k-1)).
    """
    K0, f0 = _log_term(libmp.from_int(int(m0)))
    N0 = libmp.to_int(f0, libmp.round_floor)
    k0 = _to_float(K0)
    mant, exp = math.frexp(k0)
    k_head = math.ldexp(math.floor(mant * 2 ** 26), exp - 26)
    k_tail = _to_float(libmp.mpf_sub(K0, libmp.from_float(k_head), _PREC))
    r0 = _to_float(libmp.mpf_sub(f0, libmp.from_int(N0), _PREC))
    K = _degree(m0 + 0.5)
    h = j + 0.5
    c = h + m0  # exact: a half-integer below 2**52
    coef = np.empty((K + 1, len(j)))
    L = np.log1p(np.divide(h, m0, out=coef[1]), out=coef[1])  # log(c / m0)
    g = np.subtract(D, N0, out=coef[0], casting="unsafe")  # exact, far below 2**53
    lin = np.multiply.outer((k_head, k_tail), h)
    g -= lin[0]  # exact
    g -= np.multiply(c, L, out=lin[0])
    lin[1] += r0
    g -= lin[1]
    np.subtract(-k0 - 1.0, L, out=coef[1])
    ic = np.divide(1.0, c, out=c)
    np.multiply(ic, -0.5, out=coef[2])
    for k in range(3, K + 1):  # row k is row k-1 times -(k-2)/(k c)
        np.multiply(coef[k - 1], ic, out=coef[k])
        coef[k] *= -(k - 2) / k
    return coef


def delta_unit(coef: np.ndarray, u, out: np.ndarray | None = None) -> np.ndarray:
    """Delta(m + u) on the smooth branch of each unit interval [m, m+1) of the
    coefficients coef of unit_branch (its last axis), for u in [0, 1] that
    broadcasts against that axis; u = 1 gives the left limit at m + 1.

    Horner's rule in v = u - 1/2 takes no log and writes into out, or into
    one new array of the result's shape.  The rows of any polynomial in v
    may stand for coef: for k * coef[k], k >= 1, it gives the slope.
    """
    v = np.subtract(u, 0.5)
    p = np.multiply(v, coef[-1], out=out)
    for row in coef[-2:0:-1]:
        p += row
        p *= v
    p += coef[0]
    return p


def check_point(x: float) -> None:
    """Refuse a point x at which Delta is not evaluated: by a ValueError when
    x is not finite or below 1, by a RangeOverflowError above
    MAX_SIEVE_ARGUMENT."""
    if not (math.isfinite(x) and x >= 1):
        raise ValueError(f"x must be finite and >= 1, got {x}")
    if x > MAX_SIEVE_ARGUMENT:
        raise RangeOverflowError(f"x={x} exceeds supported range {MAX_SIEVE_ARGUMENT}")


def delta_of(x: float, D: int) -> float:
    """Delta(x) given the exact D(floor(x)), from f(x) to _PREC bits: the
    float64 nearest Delta(x) up to the rounding of that f.  x is refused as
    check_point refuses it."""
    check_point(x)
    f = _log_term(libmp.from_float(float(x)))[1]
    return _to_float(libmp.mpf_sub(libmp.from_int(int(D)), f, _PREC))


def delta_at(x: float) -> DeltaSample:
    """Delta(x) with exact D(floor(x)) computed by the hyperbola identity."""
    check_point(x)
    D = hyperbola_D(math.floor(x))
    return DeltaSample(x=float(x), D=D, delta=delta_of(float(x), D))


def prefix_block(start: int, stop: int) -> np.ndarray:
    """Exact D(m) for m in [start, stop) as an int64 array: the sieve's d(n)
    copied to int64 and summed in place from its own D(start - 1) (see
    _divisor_sieve)."""
    table, seed = _divisor_sieve(start, stop - 1)
    out = table.astype(np.int64)
    out[0] += seed
    return np.cumsum(out, out=out)
