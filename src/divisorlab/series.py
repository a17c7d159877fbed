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
for every kernel h, so the weighted solution count factors over kernels.  For
each kernel we build the generating polynomial of per-side coefficient sums and
multiply the per-kernel polynomials; direct 8-fold loops would be infeasible
beyond cutoffs of about 30.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .divisor import build_divisor_table
from .relations import BudgetExceededError, spf_table

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
    return build_divisor_table(1, bound).values.astype(np.float64)


@lru_cache(maxsize=16)
def _squarefree_flags(bound: int) -> np.ndarray:
    flags = np.ones(bound + 1, dtype=bool)
    flags[0] = False
    for p in range(2, math.isqrt(bound) + 1):
        flags[p * p :: p * p] = False
    return flags


def _kernel_side_sums(h: int, Y: int, max_count: int, d: np.ndarray) -> list[np.ndarray]:
    """G[i][s] = weighted count of ordered i-tuples (a_1..a_i), a_j <= isqrt(Y/h),
    with sum a_j = s; weight prod d(a**2 h) * (a**2 h)**(-3/4)."""
    A = math.isqrt(Y // h)
    a = np.arange(1, A + 1, dtype=np.float64)
    vals = (a * a * h).astype(np.int64)
    w = d[vals - 1] * (a * a * h) ** -0.75
    G: list[np.ndarray] = [np.array([1.0])]
    for _ in range(max_count):
        nxt = np.zeros(len(G[-1]) + A, dtype=np.float64)
        for ai in range(1, A + 1):
            nxt[ai:ai + len(G[-1])] += w[ai - 1] * G[-1]
        G.append(nxt)
    return G


def _relation_product(p: int, q: int, Y: int) -> np.ndarray:
    """F[i, j] = coefficient of x^i y^j in prod_h (1 + f_h(x, y)), i <= p,
    j <= q, over squarefree kernels h <= Y, where f_h collects the per-kernel
    weighted pairings with i >= 1 left and j >= 1 right slots.

    Every coefficient is a sum of positive terms, so each grows with Y.
    F[1, 1] is the first cumulant sum_h [xy] f_h = sum_{n<=Y} d(n)^2 n^{-3/2}.
    """
    d = _divisor_counts(Y)
    sf = _squarefree_flags(Y)
    # F[i, j]: coefficient of x^i y^j in the running product
    F = np.zeros((p + 1, q + 1))
    F[0, 0] = 1.0
    inv_fact = [1.0 / math.factorial(i) for i in range(max(p, q) + 1)]
    for h in range(1, Y + 1):
        if not sf[h]:
            continue
        G = _kernel_side_sums(h, Y, max(p, q), d)
        P = np.zeros((p + 1, q + 1))
        for i in range(1, p + 1):
            for j in range(1, q + 1):
                n = min(len(G[i]), len(G[j]))
                e = float(np.dot(G[i][:n], G[j][:n]))
                P[i, j] = e * inv_fact[i] * inv_fact[j]
        if not P.any():
            continue
        add = np.zeros_like(F)
        for i in range(1, p + 1):
            for j in range(1, q + 1):
                if P[i, j]:
                    add[i:, j:] += P[i, j] * F[: p + 1 - i, : q + 1 - j]
        F += add
    return F


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
    """sum_{n>=1} d(n)^2 n^{-3/2} = zeta(3/2)^4 / zeta(3) = 38.745... (Ramanujan)."""
    return zeta_em(1.5) ** 4 / zeta_em(3.0)


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


@lru_cache(maxsize=8)
def _d_of_squares(bound: int) -> np.ndarray:
    """d(s**2) for s = 1..bound (index s-1), via factorization."""
    spf = spf_table(bound)
    out = np.ones(bound + 1, dtype=np.float64)
    for s in range(2, bound + 1):
        m, acc = s, 1
        while m > 1:
            pp = int(spf[m])
            e = 0
            while m % pp == 0:
                m //= pp
                e += 1
            acc *= 2 * e + 1
        out[s] = acc
    return out[1:]


def _c1_sum(Y: int) -> float:
    """sum over alpha, beta, h <= Y, h squarefree, of
    (alpha*beta*(alpha+beta))**(-3/2) * h**(-9/4) * d(alpha^2 h) d(beta^2 h) d((alpha+beta)^2 h).

    Per squarefree h the alpha/beta sum is a correlation of one vector with
    itself against the shifted d((alpha+beta)^2 h) weights, evaluated by FFT
    convolution; the full triple loop would cost Y**2 per h.
    """
    n2 = 2 * Y
    d_sq = _d_of_squares(n2)  # d(s^2), s = 1..2Y
    sf = _squarefree_flags(Y)
    spf = spf_table(Y)  # factors the kernels h <= Y
    s_pows = np.arange(1, n2 + 1, dtype=np.float64) ** -1.5

    size = 1
    while size < 2 * n2 + 1:
        size *= 2
    total = 0.0
    for h in range(1, Y + 1):
        if not sf[h]:
            continue
        # dvec[s-1] = d(s^2 h): relative to d(s^2), a prime p | h turns the
        # local factor (2e+1) into (2e+2); applied incrementally per power.
        dvec = d_sq.copy()
        m = h
        while m > 1:
            p = int(spf[m])
            m //= p  # h squarefree: exponent of p is 1
            prev = 2.0
            dvec *= 2.0
            e, pe = 1, p
            while pe <= n2:
                ratio = (2 * e + 2) / (2 * e + 1)
                dvec[pe - 1 :: pe] *= ratio / prev
                prev = ratio
                e += 1
                pe *= p
        a_vec = np.zeros(size)
        a_vec[1 : Y + 1] = s_pows[:Y] * dvec[:Y]
        conv = np.fft.irfft(np.fft.rfft(a_vec) ** 2, size)
        s_idx = np.arange(2, n2 + 1)
        inner = float(np.dot(conv[s_idx], s_pows[s_idx - 1] * dvec[s_idx - 1]))
        total += h ** -2.25 * inner
    return total


# --------------------------------------------------------------------------
# zeta values and moment coefficients
# --------------------------------------------------------------------------

# B_2, B_4, ..., B_16
_BERNOULLI_EVEN = [
    1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30,
    5.0 / 66, -691.0 / 2730, 7.0 / 6, -3617.0 / 510,
]

_ZETA_SPLIT = 50


def zeta_em(s: float) -> float:
    """Riemann zeta for real s > 1 by Euler-Maclaurin, 8 correction terms,
    split point 50; accurate well beyond 12 digits for the s used here."""
    if s <= 1:
        raise ValueError("need s > 1")
    M = _ZETA_SPLIT
    total = sum(n ** -s for n in range(1, M))
    total += M ** (1 - s) / (s - 1) + 0.5 * M ** -s
    factor = s
    power = M ** (-s - 1)
    for j, b in enumerate(_BERNOULLI_EVEN, start=1):
        total += b / math.factorial(2 * j) * factor * power
        # extend the rising product s (s+1) ... (s + 2j) and shift the power
        factor *= (s + 2 * j - 1) * (s + 2 * j)
        power /= M * M
    return total


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
        return zeta_em(1.5) ** 4 / (6 * math.pi ** 2 * zeta_em(3.0))

    def c(name: str) -> float:
        return estimate_constant(name, constants_Y).estimate

    if k == 3:
        return 3 * c("C1") / (28 * math.pi ** 3)
    if k == 4:
        return 3 * c("C2") / (64 * math.pi ** 4)
    return (35 * c("C7") - 28 * c("C4")) / (2048 * math.pi ** 8)
