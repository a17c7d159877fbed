"""Partial sums and estimates of the singular-series constants attached to the
moment asymptotics of the divisor error term, and the closed-form moment
coefficients.

The four constants are sums of q = prod d(v_i) * prod v_i**(-3/4) over exact
integer solutions of a square-root relation of signature (p, q):

    C1: sqrt(n)+sqrt(m) = sqrt(k)                               (2 + 1)
    C2: sqrt(n)+sqrt(m) = sqrt(k)+sqrt(l)                       (2 + 2)
    C4: sqrt(n)+...+sqrt(s) = sqrt(t)+sqrt(j)                   (6 + 2)
    C7: sqrt(n)+sqrt(m)+sqrt(k)+sqrt(l) = sqrt(r)+...+sqrt(j)   (4 + 4)

Solutions are never enumerated tuple by tuple here.  Writing v = a**2 * h with
h squarefree, a relation holds exactly when the integer coefficient sums agree
for every kernel h, so the weighted solution count factors over kernels into a
product of one polynomial 1 + f_h(x, y) per kernel; direct 8-fold loops would
be infeasible beyond cutoffs of about 30.  (For C1 the three variables share
one kernel: n, m, k = alpha^2 h, beta^2 h, (alpha + beta)^2 h.)  Kernels with
the same a-range are handled together as a batch: their side sums are
(kernels x length) arrays.  Consecutive batches take their weights from one
flat pass, and their polynomials are multiplied by one segmented pairwise
tree, a tree per batch, all levels at once; the batch products by one more.
So no Python loop runs per kernel, and the rounding of the product grows
with log2 of the number of kernels, not with the number itself (see
_relation_product).
A partial sum and an estimate are one product over different a-ranges
(estimate_constant).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .arith import BudgetExceededError, check_integer, factor_table
from .divisor import build_divisor_table, isqrt_many

MAX_CONSTANT_CUTOFF = 1 << 20
# the most values a^2 h a completed product may hold (1.2e6 at cutoff 1e4)
MAX_COMPLETED_VALUES = 1 << 25

# the cutoff of every constant estimate when none is given
DEFAULT_CUTOFF = 1024

# constant -> the signature (p, q) of its relation
SIGNATURES = {"C1": (2, 1), "C2": (2, 2), "C4": (6, 2), "C7": (4, 4)}


@dataclass(frozen=True)
class PartialSum:
    name: str  # one of C1, C2, C4, C7
    Y: int
    partial_sum: float
    tail_indicator: float  # |partial(Y) - partial(Y // 2)|


@dataclass(frozen=True)
class ConstantEstimate(PartialSum):
    estimate: float  # >= partial_sum; see estimate_constant
    estimate_tail: float  # |estimate(Y) - estimate(Y // 2)|


@lru_cache(maxsize=16)
def _divisor_counts(bound: int) -> np.ndarray:
    """d(1..bound) as float64, index n-1."""
    return build_divisor_table(1, bound).astype(np.float64)


def _weights(h: np.ndarray, lengths: np.ndarray, Y: int) -> np.ndarray:
    """d(a^2 h_k) (a^2 h_k)^(-3/4) for a = 1..lengths[k], kernel after kernel,
    as one flat array, for squarefree h_k <= Y and lengths at most Y, from
    tables up to Y only: with c = gcd(a, h^inf) and b = a / c, b^2 and c^2 h
    are coprime and each p | h has exponent 2 e_p(c) + 1 in c^2 h, so
    d(a^2 h) = d(b^2) d(c^2 h) = d(b^2) d(c) d(h)."""
    d, d_sq = _divisor_counts(Y), factor_table(Y)[2]
    hs = np.repeat(h, lengths)
    a = np.arange(1, len(hs) + 1) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    # c = gcd(a, h^(2^k) mod a), as 2^k > A.bit_length() exceeds every
    # exponent in a <= A; each squaring mod a stays below a^2 <= Y^2
    c = hs % a
    for _ in range(int(lengths.max()).bit_length().bit_length()):
        c = c * c % a
    c = np.gcd(a, c)
    counts = d_sq[a // c - 1] * d[c - 1] * d[hs - 1]
    return counts * (a ** 2 * hs).astype(np.float64) ** -0.75


# rows of fewer entries are convolved directly in _side_sums, longer ones by
# rfft; the rfft is faster from about 48, but below 128 every partial sum up
# to cutoff 16128 keeps its direct sums, and so its value, bit for bit
_DIRECT_WIDTH = 128


def _side_sums(w: np.ndarray, max_count: int) -> list[np.ndarray]:
    """G[i][k, s] = sum of w[k, a_1] ... w[k, a_i] over a_1 + ... + a_i = s: the
    i-fold self-convolutions of each row of w, i = 0..max_count.  Rows of
    fewer than _DIRECT_WIDTH entries are convolved directly, one sliding
    window per step; longer ones by one rfft power chain at the power of two
    above max_count (width - 1), whose rounding is a few units of 2^-53 of
    each G_i's largest entry, far below the dot products that read it.  Each
    G_i is copied out of its transform, which would otherwise stay alive."""
    n_rows, width = w.shape
    G = [np.ones((n_rows, 1)), w]
    if width >= _DIRECT_WIDTH:
        size = 1 << (max_count * (width - 1)).bit_length()
        W = np.fft.rfft(w, size, axis=1)
        power = W
        for i in range(2, max_count + 1):
            power = power * W
            G.append(np.fft.irfft(power, size, axis=1)[:, : i * (width - 1) + 1].copy())
        return G
    w_rev = w[:, ::-1]
    for _ in range(1, max_count):
        prev = G[-1]
        padded = np.zeros((n_rows, prev.shape[1] + 2 * (width - 1)))
        padded[:, width - 1 : width - 1 + prev.shape[1]] = prev
        windows = sliding_window_view(padded, width, axis=1)
        G.append(np.einsum("ksa,ka->ks", windows, w_rev))
    return G


# most kernels, and most side-sum elements (kernels x max(p, q) x row
# width), in one batch of _kernel_polynomials; most weights and polynomial
# coefficients together in one of its groups of batches, few enough that the
# temporaries of a group's weights pass stay below a batch's side sums
_KERNEL_BLOCK = 4096
_BATCH_ELEMENTS = 1 << 18
_GROUP_ELEMENTS = 1 << 14


def _kernel_polynomials(p: int, q: int, Y: int, reach: int) -> Iterator[tuple[np.ndarray, list[int]]]:
    """Groups (P, sizes) of consecutive batches: P[k] the (p+1, q+1)
    coefficients of 1 + f_h(x, y) for one squarefree kernel h <= Y, sizes
    the kernel counts of the group's batches in order; every kernel lies in
    one batch.

    [x^i y^j] f_h = G_i . G_j / (i! j!) for i, j >= 1, where G_i[s] is the
    weighted count of ordered i-tuples (a_1..a_i), a <= A_h = isqrt(reach // h),
    with sum a = s, each a weighted by d(a^2 h) (a^2 h)^(-3/4).  A batch is
    one set of (kernels x length) arrays: among rows shorter than
    _DIRECT_WIDTH a run of equal A_h, among longer ones a run of equal FFT
    length, each row zero past its own A_h.  At reach = Y there are at most
    isqrt(Y) runs (34 at Y = 1e4).  A run of more than _KERNEL_BLOCK kernels,
    or of more than _BATCH_ELEMENTS side-sum elements, is split.  A group
    takes batches while its weights and coefficients number at most
    _GROUP_ELEMENTS (a batch that holds more is a group alone), and its
    batches fill their rows from one flat pass of _weights.
    """
    h = np.flatnonzero(factor_table(Y)[1] == np.arange(1, Y + 1)) + 1
    lengths = isqrt_many(reach // h)
    offsets = np.concatenate(([0], np.cumsum(lengths)))  # kernel -> its first weight
    count = max(p, q)
    inv_fact = [1.0 / math.factorial(i) for i in range(count + 1)]
    # h ascends, so the lengths, and with them the keys, descend
    fft_bits = np.frexp((count * lengths).astype(np.float64))[1]  # log2 of the FFT length
    keys = np.where(lengths + 1 < _DIRECT_WIDTH, lengths, _DIRECT_WIDTH + fft_bits)
    ends = [*(np.flatnonzero(np.diff(keys)) + 1).tolist(), len(h)]
    groups, size = [[]], 0  # of batches (first kernel, end, A)
    for start, end in zip([0, *ends[:-1]], ends):
        A = int(lengths[start])
        block = min(_KERNEL_BLOCK, max(1, _BATCH_ELEMENTS // (count * (A + 1))))
        for lo in range(start, end, block):
            hi = min(end, lo + block)
            elements = offsets[hi] - offsets[lo] + (hi - lo) * (p + 1) * (q + 1)
            if groups[-1] and size + elements > _GROUP_ELEMENTS:
                groups.append([])
                size = 0
            groups[-1].append((lo, hi, A))
            size += elements
    for group in groups:
        first, last = group[0][0], group[-1][1]
        weights = _weights(h[first:last], lengths[first:last], Y)
        P = np.zeros((last - first, p + 1, q + 1))
        P[:, 0, 0] = 1.0
        for lo, hi, A in group:
            w = np.zeros((hi - lo, A + 1))
            own = np.arange(1, A + 1) <= lengths[lo:hi, None]  # a row's own A_h
            w[:, 1:][own] = weights[offsets[lo] - offsets[first] : offsets[hi] - offsets[first]]
            G = _side_sums(w, count)
            for i in range(1, p + 1):
                for j in range(1, q + 1):
                    n = min(i, j) * A + 1  # the shorter of G_i, G_j
                    e = np.einsum("ks,ks->k", G[i][:, :n], G[j][:, :n])
                    P[lo - first : hi - first, i, j] = e * inv_fact[i] * inv_fact[j]
            del G  # freed before the next batch builds its own
        yield P, [hi - lo for lo, hi, _ in group]


def _tree_products(F: np.ndarray, sizes: list[int]) -> np.ndarray:
    """The products of the polynomials F[k] = 1 + (terms in x^i y^j, i, j >= 1)
    over consecutive segments, the s-th of sizes[s] polynomials, truncated to
    F's (p+1, q+1) shape: one pairwise tree for every segment at once.  Each
    level multiplies, in every segment, the first half of its remaining
    polynomials by the second half and carries an odd one last, with one
    array operation per shift (i, j) over all segments."""
    p, q = F.shape[1] - 1, F.shape[2] - 1
    sizes = np.asarray(sizes)
    while sizes.max() > 1:
        half = sizes // 2
        before = np.cumsum(half) - half  # the pairs of the segments before
        segment = np.repeat(np.arange(len(sizes)), half)
        pair = np.arange(len(segment)) - np.repeat(before, half)
        first = (np.cumsum(sizes) - sizes)[segment] + pair  # in the first half
        left, right = F[first], F[first + half[segment]]
        prod = right.copy()  # the shift (0, 0): left's constant term is 1
        for i in range(1, p + 1):
            for j in range(1, q + 1):
                prod[:, i:, j:] += left[:, i : i + 1, j : j + 1] * right[:, : p + 1 - i, : q + 1 - j]
        # without its second half a segment holds its first half, then an odd one
        F = np.delete(F, first + half[segment], axis=0)
        F[first - before[segment]] = prod
        sizes = sizes - half
    return F


def _relation_product(p: int, q: int, Y: int, reach: int | None = None) -> np.ndarray:
    """F[i, j] = coefficient of x^i y^j in prod_h (1 + f_h(x, y)), i <= p,
    j <= q, over squarefree kernels h <= Y, where f_h collects the per-kernel
    weighted pairings with i >= 1 left and j >= 1 right slots, each variable
    a^2 h <= reach (None: Y, the partial sums' ranges).

    Each batch of _kernel_polynomials is multiplied out by its own pairwise
    tree (_tree_products, one segment per batch), and the batch products by
    one more.  Every coefficient is a sum of positive terms, so each grows
    with Y and with reach, and its relative error is at most that of its
    terms.  A term passes at most L = ceil(log2 _KERNEL_BLOCK) +
    ceil(log2 batches) levels (18 at Y = 1e4, with 35 batches), and each
    level rounds it at most 1 + p q times, so the product adds at most
    (1 + p q) L units of 2^-53 to the error of the f_h coefficients it
    multiplies; a sequential fold over the K kernels rounds an early term up
    to K times (K = 6083 at Y = 1e4).  Against 30-digit mpmath every entry
    was within 4e-16 relative at cutoffs 32 to 1e4.

    F[1, 1] is the first cumulant sum_h [xy] f_h = sum d(n)^2 n^{-3/2} over
    n = a^2 h <= reach with h <= Y.
    """
    groups = _kernel_polynomials(p, q, Y, Y if reach is None else reach)
    products = np.concatenate([_tree_products(P, sizes) for P, sizes in groups])
    return _tree_products(products, [len(products)])[0]


def _cutoff(name: str, Y, completed: bool) -> int:
    """The cutoff Y of a constant, DEFAULT_CUTOFF for None, once checked; with
    completed, refused if its completed product would hold more than
    MAX_COMPLETED_VALUES values (about 12/pi^2 Y^(3/2), the sum of Y/sqrt(h))."""
    if name not in SIGNATURES:
        raise ValueError(f"unknown constant {name!r}; choose from {', '.join(SIGNATURES)}")
    if Y is None:
        return DEFAULT_CUTOFF
    check_integer("cutoff", Y)
    if Y < 1:
        raise ValueError("cutoff must be >= 1")
    if Y > MAX_CONSTANT_CUTOFF:
        raise BudgetExceededError(f"cutoff {Y} exceeds enumeration budget {MAX_CONSTANT_CUTOFF}")
    if completed and 12 / math.pi ** 2 * Y ** 1.5 > MAX_COMPLETED_VALUES:
        raise BudgetExceededError(f"cutoff {Y}: its completed product exceeds the budget of "
                                  f"{MAX_COMPLETED_VALUES} values")
    return Y


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


# constant -> the product it is read from: a corner of a product is the product
# up to that corner, term for term, so C1 and C2 share one, and C4 and C7 one
_PRODUCTS = {"C1": (2, 2), "C2": (2, 2), "C4": (6, 4), "C7": (6, 4)}


@lru_cache(maxsize=256)  # (p+1) x (q+1) floats per entry
def _product(pq: tuple[int, int], y: int, reach: int) -> np.ndarray:
    F = _relation_product(*pq, y, reach)
    F.flags.writeable = False  # shared by every caller of the memo
    return F


def _sums(name: str, y: int, reach: int) -> tuple[float, float]:
    """(raw, completed) p! q! [x^p y^q] of the kernel product of constant
    name at cutoff y, each variable <= reach (y: the partial sum, y^2: the
    estimate), and of it completed (_completed_sum); (0, 0) below 1."""
    if y < 1:
        return 0.0, 0.0
    p, q = SIGNATURES[name]
    F = _product(_PRODUCTS[name], y, reach)[: p + 1, : q + 1]
    return float(F[p, q]) * math.factorial(p) * math.factorial(q), _completed_sum(p, q, F)


def _partial(name: str, Y) -> PartialSum:
    Y = _cutoff(name, Y, completed=False)
    full, half = _sums(name, Y, Y)[0], _sums(name, Y // 2, Y // 2)[0]
    return PartialSum(name, Y, full, abs(full - half))


def partial_C1(Y: int) -> PartialSum:
    """Truncated C1: signature (2, 1), all variables <= Y."""
    return _partial("C1", Y)


def partial_C2(Y: int) -> PartialSum:
    """Truncated C2: signature (2, 2), all variables <= Y."""
    return _partial("C2", Y)


def partial_C4(Y: int) -> PartialSum:
    """Truncated C4: signature (6, 2), all variables <= Y."""
    return _partial("C4", Y)


def partial_C7(Y: int) -> PartialSum:
    """Truncated C7: signature (4, 4), all variables <= Y."""
    return _partial("C7", Y)


def estimate_constant(name: str, Y: int | None = None) -> ConstantEstimate:
    """Partial sum of C1, C2, C4 or C7 up to cutoff Y (memoized, and a lower
    bound of the limit), and an estimate of the limit; Y=None takes
    DEFAULT_CUTOFF.

    The estimate is the same kernel product over longer ranges, a <= Y/sqrt(h)
    for every squarefree h <= Y, where the higher cumulants converge fast,
    with the first cumulant put at its limit (_completed_sum).  That
    multiplies the product by exp(delta x y), whose coefficients are
    non-negative, so the estimate is at least the raw longer product, itself
    at least partial_sum (for C1, signature (2, 1), it is the raw product).
    Its error has no proven sign; estimate_tail shows it.
    """
    Y = _cutoff(name, Y, completed=True)
    part = _partial(name, Y)
    full, half = _sums(name, Y, Y * Y)[1], _sums(name, Y // 2, (Y // 2) ** 2)[1]
    return ConstantEstimate(name, Y, part.partial_sum, part.tail_indicator, full, abs(full - half))


# --------------------------------------------------------------------------
# moment coefficients
# --------------------------------------------------------------------------


def extrapolate_sqrt(points: list[tuple[int, float]]) -> float:
    """Least-squares fit of value ~ a + b * Y**(-1/2); returns a.

    The fit leaves out the log^3 Y factor that the tails of C2, C4 and C7
    carry, so for those partial sums the intercept is not their limit: over
    Y in {64, 128, 256} it gives C7 = 1.6e7, below partial_C7(16384) = 5.7e7.
    The constant estimates use estimate_constant.
    """
    if len(points) < 2:
        raise ValueError("need at least two cutoffs to extrapolate")
    ys = np.array([v for _, v in points])
    basis = np.column_stack([np.ones(len(points)), [y ** -0.5 for y, _ in points]])
    coef, *_ = np.linalg.lstsq(basis, ys, rcond=None)
    return float(coef[0])


# (constant, cutoff) -> estimate_constant(constant, cutoff).estimate, to the
# bit, at DEFAULT_CUTOFF: the main terms read these instead of building the
# completed product; the tests check them against the live estimates
_PINNED_ESTIMATES = {
    ("C1", 1024): float.fromhex("0x1.878364ed55e31p+5"),
    ("C2", 1024): float.fromhex("0x1.9096f0673548dp+11"),
    ("C4", 1024): float.fromhex("0x1.e08e0ff6c274ap+21"),
    ("C7", 1024): float.fromhex("0x1.6a93a604c28c2p+26"),
}


def main_term_coefficient(k: int, constants_Y: int | None = None) -> float:
    """Leading coefficient of the k-th moment main term.

    k=1: X/4.  k=2: zeta(3/2)^4 / (6 pi^2 zeta(3)) * X^(3/2).
    k=3: 3 C1 / (28 pi^3) * X^(7/4).  k=4: 3 C2 / (64 pi^4) * X^2.
    k=8: (35 C7 - 28 C4) / (2048 pi^8) * integral of x^2.
    Only the constants of k are estimated, at cutoff constants_Y alone
    (None: DEFAULT_CUTOFF); see estimate_constant.  At DEFAULT_CUTOFF they
    are read from _PINNED_ESTIMATES.
    """
    check_integer("k", k)
    if k not in (1, 2, 3, 4, 8):
        raise ValueError(f"no closed-form main term for k={k}")
    if k == 1:
        return 0.25
    if k == 2:
        return first_cumulant_limit() / (6 * math.pi ** 2)

    def c(name: str) -> float:
        Y = _cutoff(name, constants_Y, completed=True)
        if (name, Y) in _PINNED_ESTIMATES:
            return _PINNED_ESTIMATES[name, Y]
        return _sums(name, Y, Y * Y)[1]

    if k == 3:
        return 3 * c("C1") / (28 * math.pi ** 3)
    if k == 4:
        return 3 * c("C2") / (64 * math.pi ** 4)
    return (35 * c("C7") - 28 * c("C4")) / (2048 * math.pi ** 8)
