"""Independent oracles shared by several test modules."""

import itertools
import math
from collections import Counter
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
from divisorlab.relations import NEAR_ZERO_RECHECK, form_value_hp


def d_trial_division(n: int) -> int:
    """Divisor count by trial division; the independent cross-check."""
    if n < 1:
        raise ValueError("n must be positive")
    count = 0
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            count += 1 if d * d == n else 2
    return count


def kernel_by_squares(n: int) -> tuple[int, int]:
    """(a, h) with n = a**2 * h and h squarefree, without primes: a is the
    largest d <= isqrt(n) with d**2 | n, and h = n // a**2."""
    a = next(d for d in range(math.isqrt(n), 0, -1) if n % (d * d) == 0)
    return a, n // (a * a)


def d_of_square(n: int) -> int:
    """d(n**2) without primes: the number of ordered pairs (u, v) of coprime
    divisors of n.  For each exact prime power p**e of n such a pair takes
    p**i into u or into v, never both, with 0 <= i <= e: 2e + 1 ways, the
    exponents 0..2e of p in a divisor of n**2."""
    divisors = {f for d in range(1, math.isqrt(n) + 1) if n % d == 0 for f in (d, n // d)}
    return sum(math.gcd(u, v) == 1 for u in divisors for v in divisors)


def _side_tuples(ranges) -> list[tuple[tuple[int, ...], float, tuple]]:
    """Every tuple of the product of ranges in ravel order, with the float64
    sum of its square roots added left to right and its canonical
    ((kernel, coefficient), ...) vector, built one Python dict per tuple."""
    forms = {v: kernel_decompose(v) for lo, hi in set(ranges) for v in range(lo, hi + 1)}
    out = []
    for t in itertools.product(*(range(lo, hi + 1) for lo, hi in ranges)):
        total, acc = 0.0, {}
        for v in t:
            total += math.sqrt(v)
            acc[forms[v].h] = acc.get(forms[v].h, 0) + forms[v].a
        out.append((t, total, tuple(sorted(acc.items()))))
    return out


def enumerate_multisets_dict(ranges) -> list[tuple[tuple[int, ...], float, int, int, tuple]]:
    """relations._enumerate_side by brute force over the product of ranges:
    the tuples whose values ascend within every group of equal ranges, in
    ravel order, each with its float64 sum, its flat index in the product,
    its number of orderings g!/prod m_v! per group and its kernel vector.
    The reference for the engine's multisets and class rows."""
    groups = [[i for i, s in enumerate(ranges) if s == r] for r in dict.fromkeys(ranges)]
    out = []
    for flat, (t, total, vector) in enumerate(_side_tuples(ranges)):
        parts = [[t[i] for i in g] for g in groups]
        if all(part == sorted(part) for part in parts):
            weight = math.prod(math.factorial(len(part))
                               // math.prod(map(math.factorial, Counter(part).values()))
                               for part in parts)
            out.append((t, total, flat, weight, vector))
    return out


class OrderedBox:
    """The relation engine over ordered tuples: every tuple of the product of
    each side's ranges, classed by its _side_tuples kernel vector, with the
    float64 window counts and the min-gap walk of relations._Box.  The
    reference that the multiset engine's counts and gaps are checked against.
    """

    def __init__(self, query):
        p = query.signature.plus
        plus, minus = _side_tuples(query.ranges[:p]), _side_tuples(query.ranges[p:])
        index: dict[tuple, int] = {}
        plus_ids = np.array([index.setdefault(v, len(index)) for _, _, v in plus], dtype=np.int64)
        self.minus_ids = np.array([index.setdefault(v, len(index)) for _, _, v in minus], dtype=np.int64)
        self.plus_tuples = [t for t, _, _ in plus]
        self.minus_tuples = [t for t, _, _ in minus]
        self.minus_sums = np.array([s for _, s, _ in minus])
        sums = np.array([s for _, s, _ in plus])
        self.order = np.argsort(sums)
        self.sorted_sums = sums[self.order]
        self.sorted_ids = plus_ids[self.order]
        starts = np.flatnonzero(np.diff(self.sorted_ids, prepend=-1))
        lengths = np.diff(starts, append=self.sorted_ids.size)
        self.run_first = np.repeat(starts, lengths)
        self.run_last = np.repeat(starts + lengths - 1, lengths)

    def count(self, delta: float) -> int:
        size = self.sorted_sums.size
        m = self.minus_sums
        if delta == 0:
            lo, hi = np.zeros(m.size, dtype=np.int64), np.full(m.size, size)
        else:
            lo = np.searchsorted(self.sorted_sums, m - delta, side="right")
            hi = np.searchsorted(self.sorted_sums, m + delta, side="left")
        keys = np.sort(self.sorted_ids * size + np.arange(size))
        base = self.minus_ids * size
        zeros = np.searchsorted(keys, base + hi) - np.searchsorted(keys, base + lo)
        zeros = int(np.maximum(zeros, 0).sum())
        if delta == 0:
            return zeros
        return int(np.maximum(hi - lo, 0).sum()) - zeros

    def _walk(self, pos, step):
        at = np.clip(pos, 0, self.sorted_sums.size - 1)
        zero = (pos == at) & (self.sorted_ids[at] == self.minus_ids)
        end = self.run_last if step > 0 else self.run_first
        return np.where(zero, end[at] + step, pos)

    def min_gap(self):
        m = self.minus_sums
        i0 = np.searchsorted(self.sorted_sums, m)
        pos = np.concatenate([self._walk(i0 - 1, -1), self._walk(i0, 1)])
        mi = np.tile(np.arange(m.size), 2)
        inside = (pos >= 0) & (pos < self.sorted_sums.size)
        pos, mi = pos[inside], mi[inside]
        gaps = np.abs(self.sorted_sums[pos] - m[mi])
        pi = self.order[pos]
        best, witness = math.inf, None
        for k in np.lexsort((mi, pi, gaps)):
            gap = float(gaps[k])
            if gap >= best:
                break
            pair = (self.plus_tuples[pi[k]], self.minus_tuples[mi[k]])
            if gap < NEAR_ZERO_RECHECK:
                gap = float(abs(form_value_hp(*pair)))
            if 0 < gap < best:
                best, witness = gap, pair
        return best, witness


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


def tree_product(F: np.ndarray) -> np.ndarray:
    """The product of the polynomials F[k] = 1 + (terms in x^i y^j, i, j >= 1),
    truncated to F's (p+1, q+1) shape, as a pairwise tree: each level
    multiplies the first half of the remaining polynomials by the second
    half, all at once, with one array operation per shift (i, j).  The
    reference, one segment at a time, for series._tree_products."""
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
