"""Partial sums of the singular-series constants attached to the moment
asymptotics of the divisor error term, and the closed-form moment coefficients.

The four constants are sums of q = prod d(v_i) * prod v_i**(-3/4) over exact
integer solutions of a square-root relation:

    C2: sqrt(n)+sqrt(m) = sqrt(k)+sqrt(l)                       (4 variables)
    C4: sqrt(n)+...+sqrt(s) = sqrt(t)+sqrt(j)                   (6 + 2)
    C7: sqrt(n)+sqrt(m)+sqrt(k)+sqrt(l) = sqrt(r)+...+sqrt(j)   (4 + 4)

and C1 is a direct triple sum over (alpha, beta, h) with h squarefree.

Solutions are never enumerated tuple by tuple here.  Writing v = a**2 * h with
h squarefree, a relation holds exactly when the integer coefficient sums agree
for every kernel h, so the weighted solution count factors over kernels into a
product of one polynomial 1 + f_h(x, y) per kernel; direct 8-fold loops would
be infeasible beyond cutoffs of about 30.  Kernels with the same a-range
isqrt(Y/h) are handled together: their side sums are (kernels x length)
arrays, and their polynomials are multiplied as a pairwise tree, so no Python
loop runs per kernel and the rounding of the product grows with log2 of the
number of kernels, not with the number itself (see _relation_product).
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .arith import BudgetExceededError, factor_table, factorize
from .divisor import build_divisor_table

MAX_CONSTANT_CUTOFF = 1 << 20


@dataclass(frozen=True)
class ConstantEstimate:
    name: str  # one of C1, C2, C4, C7
    Y: int
    partial_sum: float
    tail_indicator: float  # |partial(Y) - partial(Y // 2)|
    estimate: float  # >= partial_sum; see estimate_constant
    estimate_tail: float  # |estimate(Y) - estimate(Y // 2)|


# cutoffs of the constant estimates when none is given
DEFAULT_CUTOFFS = {"C1": 512, "C2": 4096, "C4": 256, "C7": 256}


@lru_cache(maxsize=16)
def _divisor_counts(bound: int) -> np.ndarray:
    """d(1..bound) as float64, index n-1."""
    return build_divisor_table(1, bound).astype(np.float64)


def _side_sums(w: np.ndarray, max_count: int) -> list[np.ndarray]:
    """G[i][k, s] = sum of w[k, a_1] ... w[k, a_i] over a_1 + ... + a_i = s: the
    i-fold self-convolutions of each row of w, i = 0..max_count."""
    n_rows, width = w.shape
    w_rev = w[:, ::-1]
    G = [np.ones((n_rows, 1))]
    for _ in range(max_count):
        prev = G[-1]
        padded = np.zeros((n_rows, prev.shape[1] + 2 * (width - 1)))
        padded[:, width - 1 : width - 1 + prev.shape[1]] = prev
        windows = sliding_window_view(padded, width, axis=1)
        G.append(np.einsum("ksa,ka->ks", windows, w_rev))
    return G


# most kernels whose polynomials are built and multiplied as one batch
_KERNEL_BLOCK = 4096


def _kernel_polynomials(p: int, q: int, Y: int) -> Iterator[np.ndarray]:
    """Batches P of 1 + f_h(x, y), P[k] the (p+1, q+1) coefficients of one
    squarefree kernel h <= Y; every kernel lies in one batch.

    [x^i y^j] f_h = G_i . G_j / (i! j!) for i, j >= 1, where G_i[s] is the
    weighted count of ordered i-tuples (a_1..a_i), a <= isqrt(Y/h), with sum
    a = s, each a weighted by d(a^2 h) (a^2 h)^(-3/4).  Kernels with the same
    isqrt(Y/h) have tuples of the same length, so a batch of them is one set
    of (kernels x length) arrays.  There are at most isqrt(Y) such groups
    (34 at Y = 1e4), and a group of more than _KERNEL_BLOCK kernels is split.
    """
    d = _divisor_counts(Y)
    h = np.flatnonzero(factor_table(Y)[1] == np.arange(1, Y + 1)) + 1
    lengths = np.sqrt(Y // h).astype(np.int64)  # isqrt(Y // h): exact below 2^52
    inv_fact = [1.0 / math.factorial(i) for i in range(max(p, q) + 1)]
    # h ascends, so the lengths descend and each group is one run
    ends = [*(np.flatnonzero(np.diff(lengths)) + 1).tolist(), len(h)]
    for start, end in zip([0, *ends[:-1]], ends):
        A = int(lengths[start])
        for lo in range(start, end, _KERNEL_BLOCK):
            hs = h[lo : min(end, lo + _KERNEL_BLOCK), None]
            v = np.arange(1, A + 1) ** 2 * hs
            w = np.zeros((len(hs), A + 1))
            w[:, 1:] = d[v - 1] * v.astype(np.float64) ** -0.75
            G = _side_sums(w, max(p, q))
            P = np.zeros((len(hs), p + 1, q + 1))
            P[:, 0, 0] = 1.0
            for i in range(1, p + 1):
                for j in range(1, q + 1):
                    n = min(i, j) * A + 1  # the shorter of G_i, G_j
                    e = np.einsum("ks,ks->k", G[i][:, :n], G[j][:, :n])
                    P[:, i, j] = e * inv_fact[i] * inv_fact[j]
            yield P


def _tree_product(F: np.ndarray) -> np.ndarray:
    """The product of the polynomials F[k] = 1 + (terms in x^i y^j, i, j >= 1),
    truncated to F's (p+1, q+1) shape, as a pairwise tree: each level
    multiplies the first half of the remaining polynomials by the second
    half, all at once, with one array operation per shift (i, j)."""
    p, q = F.shape[1] - 1, F.shape[2] - 1
    while len(F) > 1:
        half = len(F) // 2
        left, right = F[:half], F[half : 2 * half]
        prod = right.copy()  # the shift (0, 0): left's constant term is 1
        for i in range(1, p + 1):
            for j in range(1, q + 1):
                prod[:, i:, j:] += left[:, i : i + 1, j : j + 1] * right[:, : p + 1 - i, : q + 1 - j]
        F = np.concatenate([prod, F[2 * half :]])
    return F[0]


def _relation_product(p: int, q: int, Y: int) -> np.ndarray:
    """F[i, j] = coefficient of x^i y^j in prod_h (1 + f_h(x, y)), i <= p,
    j <= q, over squarefree kernels h <= Y, where f_h collects the per-kernel
    weighted pairings with i >= 1 left and j >= 1 right slots.

    Each batch of _kernel_polynomials is multiplied out by a pairwise tree
    (_tree_product), and the batch products by one more.  Every coefficient
    is a sum of positive terms, so each grows with Y, and its relative error
    is at most that of its terms.  A term passes at most
    L = ceil(log2 _KERNEL_BLOCK) + ceil(log2 batches) levels (18 at Y = 1e4,
    with 35 batches), and each level rounds it at most 1 + p q times, so the
    product adds at most (1 + p q) L units of 2^-53 to the error of the f_h
    coefficients it multiplies; a sequential fold over the K kernels rounds
    an early term up to K times (K = 6083 at Y = 1e4).  Against 30-digit
    mpmath every entry was within 4e-16 relative at cutoffs 32 to 1e4.

    F[1, 1] is the first cumulant sum_h [xy] f_h = sum_{n<=Y} d(n)^2 n^{-3/2}.
    """
    return _tree_product(np.stack([_tree_product(P) for P in _kernel_polynomials(p, q, Y)]))


_SIGNATURES = {"C2": (2, 2), "C4": (6, 2), "C7": (4, 4)}


def partial_C1(Y: int) -> ConstantEstimate:
    """Truncated C1: alpha, beta, h <= Y."""
    return estimate_constant("C1", Y)


def partial_C2(Y: int) -> ConstantEstimate:
    """Truncated C2: signature (2, 2), all variables <= Y."""
    return estimate_constant("C2", Y)


def partial_C4(Y: int) -> ConstantEstimate:
    """Truncated C4: signature (6, 2), all variables <= Y."""
    return estimate_constant("C4", Y)


def partial_C7(Y: int) -> ConstantEstimate:
    """Truncated C7: signature (4, 4), all variables <= Y."""
    return estimate_constant("C7", Y)


# --------------------------------------------------------------------------
# estimates of the limits
# --------------------------------------------------------------------------


def first_cumulant_limit() -> float:
    """sum_{n>=1} d(n)^2 n^{-3/2} = zeta(3/2)^4 / zeta(3) (Ramanujan), from
    30-digit mpmath rounded to double."""
    return 38.74514414390132


def _completed_sum(p: int, q: int, F: np.ndarray) -> float:
    """p! q! [x^p y^q] F(x, y) exp(delta x y), delta = first_cumulant_limit() - F[1, 1].

    This is exp(log F) with the xy coefficient of log F (the first cumulant,
    F[1, 1]) replaced by its limit and every other cumulant kept.
    """
    delta = max(first_cumulant_limit() - float(F[1, 1]), 0.0)
    total = sum(F[p - m, q - m] * delta ** m / math.factorial(m) for m in range(min(p, q) + 1))
    return float(total) * math.factorial(p) * math.factorial(q)


def estimate_constant(name: str, Y: int | None = None) -> ConstantEstimate:
    """Partial sum of C1, C2, C4 or C7 up to cutoff Y, and an estimate of its
    limit; Y=None takes DEFAULT_CUTOFFS[name].  This is the one place that
    computes a constant: partial_<name> and the moment main terms call it.

    Both are memoized per (name, cutoff) (_sums), so asking again, or at
    twice a cutoff already asked for, costs one new sum at most.  Every term
    of these sums is positive, so each partial sum is a lower bound of the
    limit.

    C2, C4 and C7 converge slowly, mostly through one term: the first cumulant
    sum_{n<=Y} d(n)^2 n^{-3/2} of the kernel product (see _relation_product),
    whose tail is of order Y^{-1/2} log^3 Y (21.65 at Y=256 against the limit
    38.745).  Their estimate puts the closed-form limit in place of that
    cumulant and keeps every higher cumulant at its value at Y.  Raising the
    cumulant multiplies the product by exp(delta x y), whose coefficients are
    non-negative, so the estimate is never below the partial sum.  Its
    remaining error comes from the higher cumulants, whose truncation is
    shown by estimate_tail; it has no proven sign.  For C4 that part is
    still large at moderate cutoffs: 2.2e5 at Y=256, 1.8e6 at Y=4096 and
    2.4e6 at Y=1e4, with estimate_tail 1.5e5, 4.9e5 and 4.7e5.

    C1 has no such dominant term and converges fast (49.10 at Y=1024, 49.34 at
    Y=1e4); its estimate is the partial sum.
    """
    if name not in DEFAULT_CUTOFFS:
        raise ValueError(f"unknown constant {name!r}; choose from {', '.join(DEFAULT_CUTOFFS)}")
    if Y is None:
        Y = DEFAULT_CUTOFFS[name]
    if not isinstance(Y, numbers.Integral) or isinstance(Y, bool):
        raise ValueError(f"cutoff must be an integer, got {Y!r}")
    if Y < 1:
        raise ValueError("cutoff must be >= 1")
    if Y > MAX_CONSTANT_CUTOFF:
        raise BudgetExceededError(f"cutoff {Y} exceeds enumeration budget {MAX_CONSTANT_CUTOFF}")
    (full, full_est), (half, half_est) = _sums(name, Y), _sums(name, Y // 2)
    return ConstantEstimate(name, Y, full, abs(full - half), full_est, abs(full_est - half_est))


@lru_cache(maxsize=64)
def _sums(name: str, y: int) -> tuple[float, float]:
    """(partial sum, estimate) of constant name at cutoff y; (0, 0) below 1.

    For C2, C4 and C7 the partial sum is p! q! [x^p y^q] of the kernel
    product (_relation_product): every kernel used must appear on both sides
    with equal coefficient sums, since a kernel on one side only would force
    a positive sum to vanish.
    """
    if y < 1:
        return 0.0, 0.0
    if name == "C1":
        c1 = _c1_sum(y)
        return c1, c1
    p, q = _SIGNATURES[name]
    F = _relation_product(p, q, y)
    return float(F[p, q]) * math.factorial(p) * math.factorial(q), _completed_sum(p, q, F)


# --------------------------------------------------------------------------
# C1: direct triple sum over (alpha, beta, h)
# --------------------------------------------------------------------------


def _next_5_smooth(n: int) -> int:
    """The least 2**a * 3**b * 5**c >= n: a length pocketfft transforms fast,
    and the one scipy.fft.next_fast_len(n, real=True) returns."""
    best = 1 << (n - 1).bit_length()  # the least power of two >= n
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least power of two times p35 that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


# kernels per batched transform in _c1_sum
_C1_BLOCK = 16


def _c1_sum(Y: int) -> float:
    """sum over alpha, beta, h <= Y, h squarefree, of
    (alpha*beta*(alpha+beta))**(-3/2) * h**(-9/4) * d(alpha^2 h) d(beta^2 h) d((alpha+beta)^2 h).

    Per squarefree h the alpha/beta sum is a correlation of one vector with
    itself against the shifted d((alpha+beta)^2 h) weights, evaluated by FFT
    convolution; the full triple loop would cost Y**2 per h.  The square is
    read only at 2..2Y, which a transform of length 2Y + 1 holds unwrapped.
    The kernels are transformed _C1_BLOCK rows at a time; each row of a block
    transform is bit-identical to its own one-row transform.
    """
    n2 = 2 * Y
    _, kernels, d_sq = factor_table(n2)
    d_sq = d_sq.astype(np.float64)  # d(s^2), s = 1..2Y
    s_pows = np.arange(1, n2 + 1, dtype=np.float64) ** -1.5

    size = _next_5_smooth(n2 + 1)
    squarefree = (np.flatnonzero(kernels[:Y] == np.arange(1, Y + 1)) + 1).tolist()
    total = 0.0
    for lo in range(0, len(squarefree), _C1_BLOCK):
        block = squarefree[lo : lo + _C1_BLOCK]
        # dvec[k, s-1] = d(s^2 h_k): relative to d(s^2), a prime p | h turns
        # the local factor (2e+1) into (2e+2); applied incrementally per power.
        dvec = np.tile(d_sq, (len(block), 1))
        for row, h in zip(dvec, block):
            for p, _ in factorize(h):  # h squarefree: each exponent is 1
                prev = 2.0
                row *= 2.0
                e, pe = 1, p
                while pe <= n2:
                    ratio = (2 * e + 2) / (2 * e + 1)
                    row[pe - 1 :: pe] *= ratio / prev
                    prev = ratio
                    e += 1
                    pe *= p
        a_vec = np.zeros((len(block), size))
        a_vec[:, 1 : Y + 1] = s_pows[:Y] * dvec[:, :Y]
        conv = np.fft.irfft(np.fft.rfft(a_vec, axis=1) ** 2, size, axis=1)
        for row, h, c in zip(dvec, block, conv):
            inner = float(np.dot(c[2 : n2 + 1], s_pows[1:] * row[1:]))  # s = 2..2Y
            total += h ** -2.25 * inner
    return total


# --------------------------------------------------------------------------
# moment coefficients
# --------------------------------------------------------------------------


def extrapolate_sqrt(points: list[tuple[int, float]]) -> float:
    """Least-squares fit of value ~ a + b * Y**(-1/2); returns a.

    The fit leaves out the log^3 Y factor that the tails of C2, C4 and C7
    carry (see estimate_constant), so for those partial sums the intercept
    is not their limit: over Y in {64, 128, 256} it gives C7 = 1.6e7, below
    partial_C7(16384) = 5.7e7.  The constant estimates use estimate_constant.
    """
    if len(points) < 2:
        raise ValueError("need at least two cutoffs to extrapolate")
    ys = np.array([v for _, v in points])
    basis = np.column_stack([np.ones(len(points)), [y ** -0.5 for y, _ in points]])
    coef, *_ = np.linalg.lstsq(basis, ys, rcond=None)
    return float(coef[0])


def main_term_coefficient(k: int, constants_Y: int | None = None) -> float:
    """Leading coefficient of the k-th moment main term.

    k=1: X/4.  k=2: zeta(3/2)^4 / (6 pi^2 zeta(3)) * X^(3/2).
    k=3: 3 C1 / (28 pi^3) * X^(7/4).  k=4: 3 C2 / (64 pi^4) * X^2.
    k=8: (35 C7 - 28 C4) / (2048 pi^8) * integral of x^2.
    Only the constants of k are estimated, at cutoff constants_Y (None: the
    DEFAULT_CUTOFFS of each).
    """
    if k not in (1, 2, 3, 4, 8):
        raise ValueError(f"no closed-form main term for k={k}")
    if k == 1:
        return 0.25
    if k == 2:
        return first_cumulant_limit() / (6 * math.pi ** 2)

    def c(name: str) -> float:
        return estimate_constant(name, constants_Y).estimate

    if k == 3:
        return 3 * c("C1") / (28 * math.pi ** 3)
    if k == 4:
        return 3 * c("C2") / (64 * math.pi ** 4)
    return (35 * c("C7") - 28 * c("C4")) / (2048 * math.pi ** 8)
