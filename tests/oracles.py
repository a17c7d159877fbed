"""Independent oracles shared by several test modules."""

import math
from fractions import Fraction

import mpmath
import numpy as np

from divisorlab.arith import factor_table, kernel_decompose
from divisorlab.divisor import build_divisor_table, delta_unit
from divisorlab.moments import (
    _ENDS,
    GL8_NODES,
    GL8_WEIGHTS,
    _int_powers,
    _newton_roots,
)


def d_trial_division(n: int) -> int:
    """Divisor count by trial division; the independent cross-check."""
    if n < 1:
        raise ValueError("n must be positive")
    count = 0
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            count += 1 if d * d == n else 2
    return count


def enumerate_side_dict(ranges) -> tuple[np.ndarray, np.ndarray, list[tuple]]:
    """relations._enumerate_side with one Python dict per (class, value) pair:
    the float64 sums, the class id of each tuple (numbered in order of first
    appearance) and the canonical ((kernel, coefficient), ...) vector of each
    class id.  The reference for the engine's class rows."""
    sums = np.zeros(1, dtype=np.float64)
    classes = np.zeros(1, dtype=np.int64)
    vectors: list[tuple] = [()]
    for lo, hi in ranges:
        roots = np.sqrt(np.arange(lo, hi + 1, dtype=np.float64))
        sums = (sums[:, None] + roots[None, :]).ravel()
        forms = [kernel_decompose(v) for v in range(lo, hi + 1)]
        index: dict[tuple, int] = {}
        table = np.empty((len(vectors), len(forms)), dtype=np.int64)
        for c, vector in enumerate(vectors):
            for k, kf in enumerate(forms):
                acc = dict(vector)
                acc[kf.h] = acc.get(kf.h, 0) + kf.a
                table[c, k] = index.setdefault(tuple(sorted(acc.items())), len(index))
        classes = table[classes].ravel()
        vectors = list(index)
    return sums, classes, vectors


def relation_product_fold(p: int, q: int, Y: int) -> np.ndarray:
    """series._relation_product as one kernel at a time: per squarefree h, the
    side sums G_i by np.convolve, then F <- F * (1 + f_h), truncated at
    (p, q).  The reference for the batched, pairwise product."""
    d = build_divisor_table(1, Y).astype(np.float64)
    kernels = factor_table(Y)[1]
    F = np.zeros((p + 1, q + 1))
    F[0, 0] = 1.0
    inv_fact = [1.0 / math.factorial(i) for i in range(max(p, q) + 1)]
    for h in range(1, Y + 1):
        if kernels[h - 1] != h:  # h not squarefree
            continue
        a = np.arange(1, math.isqrt(Y // h) + 1, dtype=np.float64)
        w = np.zeros(len(a) + 1)
        w[1:] = d[(a * a * h).astype(np.int64) - 1] * (a * a * h) ** -0.75
        G = [np.array([1.0])]
        for _ in range(max(p, q)):
            G.append(np.convolve(G[-1], w))
        add = np.zeros_like(F)
        for i in range(1, p + 1):
            for j in range(1, q + 1):
                n = min(len(G[i]), len(G[j]))
                e = float(np.dot(G[i][:n], G[j][:n])) * inv_fact[i] * inv_fact[j]
                add[i:, j:] += e * F[: p + 1 - i, : q + 1 - j]
        F += add
    return F


def exact_zero_count_fold(p: int, q: int, Y: int) -> int:
    """The number of exact solutions of sum_{i<=p} sqrt(a_i) = sum_{j<=q}
    sqrt(b_j) over [1, Y]^(p+q): relation_product_fold with unit weights and
    Fraction coefficients.  Per squarefree h, G_i[s] counts the i-tuples of
    a with a^2 h <= Y and sum s; the count is p! q! [x^p y^q] F.  The
    reference for the engine's exact zeros at sizes brute force cannot reach."""
    kernels = factor_table(Y)[1]
    F = [[Fraction(0)] * (q + 1) for _ in range(p + 1)]
    F[0][0] = Fraction(1)
    for h in range(1, Y + 1):
        if kernels[h - 1] != h:  # h not squarefree
            continue
        w = np.ones(math.isqrt(Y // h) + 1, dtype=np.int64)
        w[0] = 0
        G = [np.array([1], dtype=np.int64)]
        for _ in range(max(p, q)):
            G.append(np.convolve(G[-1], w))
        new = [row[:] for row in F]
        for i in range(1, p + 1):
            for j in range(1, q + 1):
                n = min(len(G[i]), len(G[j]))
                e = Fraction(int(np.dot(G[i][:n], G[j][:n])), math.factorial(i) * math.factorial(j))
                for a in range(p + 1 - i):
                    for b in range(q + 1 - j):
                        new[a + i][b + j] += e * F[a][b]
        F = new
    count = F[p][q] * math.factorial(p) * math.factorial(q)
    assert count.denominator == 1
    return int(count)


def relation_product_mpmath(p: int, q: int, Y: int, dps: int = 30) -> list[list]:
    """The same kernel product in mpmath at dps digits, with exact divisor
    counts from trial division and the weights (a^2 h)^(-3/4) taken at dps
    digits: F[i][j] as mpf."""
    with mpmath.workdps(dps):
        kernels = factor_table(Y)[1]
        zero, one = mpmath.mpf(0), mpmath.mpf(1)
        F = [[zero] * (q + 1) for _ in range(p + 1)]
        F[0][0] = one
        for h in range(1, Y + 1):
            if kernels[h - 1] != h:
                continue
            A = math.isqrt(Y // h)
            w = [zero] + [d_trial_division(a * a * h) * mpmath.power(a * a * h, mpmath.mpf(-0.75))
                          for a in range(1, A + 1)]
            G = [[one]]
            for _ in range(max(p, q)):
                nxt = [zero] * (len(G[-1]) + A)
                for s, g in enumerate(G[-1]):
                    for a in range(1, A + 1):
                        nxt[s + a] += g * w[a]
                G.append(nxt)
            new = [row[:] for row in F]
            for i in range(1, p + 1):
                for j in range(1, q + 1):
                    n = min(i, j) * A + 1
                    e = mpmath.fsum(x * y for x, y in zip(G[i][:n], G[j][:n]))
                    e /= math.factorial(i) * math.factorial(j)
                    for a in range(p + 1 - i):
                        for b in range(q + 1 - j):
                            new[a + i][b + j] += e * F[a][b]
            F = new
        return F


def delta_mp(m: int, D: int, u) -> mpmath.mpf:
    """The smooth branch D - x log x - (2 gamma - 1) x of Delta at x = m + u,
    at 50 digits, for the float u."""
    with mpmath.workdps(50):
        x = mpmath.mpf(int(m)) + mpmath.mpf(float(u))
        return int(D) - x * mpmath.log(x) - (2 * mpmath.euler - 1) * x


def chunk_integrals_interval_major(coef, powers, abs_powers) -> dict:
    """moments._chunk_integrals with node values laid out (interval, node)
    and the same evaluator and power chain: the reference its node values
    and integrals are compared against."""
    delta = delta_unit(coef[:, :, None], GL8_NODES)
    out = {("pow", k): float((pw @ GL8_WEIGHTS).sum()) for k, pw in _int_powers(delta, powers)}
    if not abs_powers:
        return out
    absd = np.abs(delta)
    ends = delta_unit(coef, _ENDS)
    idx = np.nonzero((ends[0] > 0.0) & (ends[1] < 0.0))[0]
    if idx.size:
        crossing = coef[:, idx, None]
        left_w = _newton_roots(coef[:, idx])
        d_l = np.abs(delta_unit(crossing, left_w[:, None] * GL8_NODES))
        d_r = np.abs(delta_unit(crossing, left_w[:, None] + (1.0 - left_w)[:, None] * GL8_NODES))
    for a in abs_powers:
        per_interval = absd ** a @ GL8_WEIGHTS
        total = float(per_interval.sum())
        if idx.size:
            naive = float(per_interval[idx].sum())
            split = float((left_w * (d_l ** a @ GL8_WEIGHTS)).sum()) + float(
                ((1.0 - left_w) * (d_r ** a @ GL8_WEIGHTS)).sum()
            )
            total += split - naive
        out[("abs", a)] = total
    return out
