"""Linear forms in square roots of integers.

A form with signature (p, q) is sum_{i<=p} sqrt(a_i) - sum_{j<=q} sqrt(b_j).
Writing each value as n = a**2 * h with h squarefree gives sqrt(n) = a*sqrt(h),
and since the sqrt(h) for distinct squarefree h are linearly independent over
the rationals, a form vanishes exactly when the integer coefficient sums agree
kernel by kernel.  That makes exact-zero testing decidable without any floating
comparison.

Counts and gaps over a box come from one engine.  Each side of the form is
enumerated once over the product of its ranges, giving every tuple the float64
sum P (plus side) or M (minus side) of its square roots and the id of its
kernel class; a plus and a minus tuple form an exact zero exactly when their
classes agree.  A pair lies in the delta window when the float64 predicate

    fl(M - delta) < P < fl(M + delta)

holds, and the near-solution count is the number of pairs in the window minus
the exact zeros in that same window, so it is never negative.  Minimal gaps
are found in floats, skipping exact zeros by class, and candidates below
NEAR_ZERO_RECHECK are re-verified in 50-digit arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import mpmath
import numpy as np

# Sides of the enumeration may not exceed this many tuples; larger requests
# must be split by the caller.
DEFAULT_SIDE_BUDGET = 1 << 22

# Below this float magnitude a candidate gap is re-verified in 50-digit
# arithmetic before being trusted as nonzero.
NEAR_ZERO_RECHECK = 1e-8

VERIFY_DPS = 50


class BudgetExceededError(RuntimeError):
    """Enumeration would exceed the configured budget; names the limit hit."""


class NoNonzeroFormError(ValueError):
    """Every form over the box is an exact zero, so there is no minimal gap."""


@dataclass(frozen=True)
class KernelForm:
    """Unique decomposition n = a**2 * h with h squarefree."""

    n: int
    a: int
    h: int


@dataclass(frozen=True)
class RelationSignature:
    """p plus-signs and q minus-signs of a square-root linear form."""

    plus: int
    minus: int

    def __post_init__(self):
        if self.plus < 1 or self.minus < 0:
            raise ValueError("need plus >= 1 and minus >= 0")
        if not 2 <= self.plus + self.minus <= 8:
            raise ValueError("total arity must be between 2 and 8")

    @property
    def arity(self) -> int:
        return self.plus + self.minus

    @property
    def gap_exponent(self) -> float:
        """Exponent e with min nonzero |form| >> Y**(-e) over [1, Y]^arity."""
        return (2 ** (self.arity - 1) - 1) / 2


@dataclass(frozen=True)
class RelationQuery:
    signature: RelationSignature
    ranges: tuple[tuple[int, int], ...]  # inclusive (lo, hi) per variable
    delta: float

    def __post_init__(self):
        if len(self.ranges) != self.signature.arity:
            raise ValueError("one range per variable required")
        for lo, hi in self.ranges:
            if not 1 <= lo <= hi:
                raise ValueError(f"bad range ({lo}, {hi})")
        if not self.delta >= 0:
            raise ValueError(f"delta must be >= 0 (inf allowed), got {self.delta}")


@dataclass(frozen=True)
class RelationCount:
    query: RelationQuery
    count: int
    min_nonzero_gap: float


# --------------------------------------------------------------------------
# squarefree-kernel decomposition
# --------------------------------------------------------------------------

DEFAULT_SPF_BOUND = 1 << 20


def spf_table(bound: int) -> np.ndarray:
    """Smallest-prime-factor table for 0..bound (built afresh on each call)."""
    spf = np.arange(bound + 1, dtype=np.int64)
    for p in range(2, math.isqrt(bound) + 1):
        if spf[p] == p:
            sl = spf[p * p :: p]
            np.minimum(sl, p, out=sl)
    return spf


# kernel_decompose's table: grown to the next power of two that covers the
# value asked for (at least 2^10, at most DEFAULT_SPF_BOUND)
_spf = np.zeros(0, dtype=np.int64)


def _spf_covering(n: int) -> np.ndarray:
    """A smallest-prime-factor table covering n.  The table returned is the
    one checked or built here, so a concurrent caller swapping in another
    table cannot hand back one too short for n."""
    global _spf
    spf = _spf
    if n >= len(spf):
        spf = _spf = spf_table(max(1 << 10, 1 << (n - 1).bit_length()))
    return spf


def kernel_decompose(n: int) -> KernelForm:
    """Factor out the largest square: n = a**2 * h with h squarefree.

    Uses the smallest-prime-factor sieve up to DEFAULT_SPF_BOUND and 64-bit
    trial division above it.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    a, h = 1, 1
    m = n
    if m <= DEFAULT_SPF_BOUND:
        spf = _spf_covering(m)
        while m > 1:
            p = int(spf[m])
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            a *= p ** (e // 2)
            if e % 2:
                h *= p
    else:
        if n > (1 << 62):
            raise BudgetExceededError(f"n={n} beyond 64-bit trial-division budget")
        p = 2
        while p * p <= m:
            if m % p == 0:
                e = 0
                while m % p == 0:
                    m //= p
                    e += 1
                a *= p ** (e // 2)
                if e % 2:
                    h *= p
            p += 1 if p == 2 else 2
        if m > 1:
            h *= m
    return KernelForm(n=n, a=a, h=h)


def _kernel_vector(values: Sequence[int], signs: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """Canonical kernel coefficient vector of sum_i signs[i] * sqrt(values[i])."""
    acc: dict[int, int] = {}
    for v, s in zip(values, signs):
        kf = kernel_decompose(v)
        acc[kf.h] = acc.get(kf.h, 0) + s * kf.a
    return tuple(sorted((h, c) for h, c in acc.items() if c))


def form_is_zero(plus_values: Sequence[int], minus_values: Sequence[int]) -> bool:
    """Exact test of sum sqrt(plus) == sum sqrt(minus) via kernel grouping."""
    signs = [1] * len(plus_values) + [-1] * len(minus_values)
    return not _kernel_vector(list(plus_values) + list(minus_values), signs)


def form_value_hp(plus_values: Sequence[int], minus_values: Sequence[int], dps: int = VERIFY_DPS):
    """The form evaluated at high precision (mpmath)."""
    with mpmath.workdps(dps):
        total = mpmath.mpf(0)
        for v in plus_values:
            total += mpmath.sqrt(v)
        for v in minus_values:
            total -= mpmath.sqrt(v)
        return total


# --------------------------------------------------------------------------
# the kernel-class engine: near-solution counts and minimal gaps
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class _Side:
    """One side of a form over the product of its ranges, in ravel order."""

    ranges: tuple[tuple[int, int], ...]
    sums: np.ndarray  # float64 sum of the square roots of each tuple
    classes: np.ndarray  # kernel-class id of each tuple
    vectors: list[tuple]  # canonical kernel vector of each class id

    def tuple_at(self, flat: int) -> tuple[int, ...]:
        dims = tuple(hi - lo + 1 for lo, hi in self.ranges)
        return tuple(lo + int(i) for (lo, _), i in zip(self.ranges, np.unravel_index(flat, dims)))


def _enumerate_side(ranges: Sequence[tuple[int, int]]) -> _Side:
    """Sums and kernel classes of every tuple in the product of ranges.

    Appending a value v = a**2 * h to a tuple adds a to the tuple's
    coefficient of kernel h, so the new class depends only on the old class
    and v: one small table per range maps (old class, value) to the new class.
    """
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
    return _Side(tuple(ranges), sums, classes, vectors)


class _Box:
    """Both sides of a query box, each enumerated once.

    A plus and a minus tuple form an exact zero exactly when their kernel
    vectors agree, so every minus tuple gets the plus class of its zero
    partners (-1 for none) and zeros are found by comparing class ids.
    """

    def __init__(self, query: RelationQuery, side_budget: int):
        p = query.signature.plus
        sides = (query.ranges[:p], query.ranges[p:])
        for ranges in sides:
            size = math.prod(hi - lo + 1 for lo, hi in ranges)
            if size > side_budget:
                raise BudgetExceededError(
                    f"side of {size} tuples exceeds budget {side_budget}; "
                    f"split the meet-in-the-middle ranges"
                )
        self.plus, self.minus = (_enumerate_side(ranges) for ranges in sides)
        index = {vector: c for c, vector in enumerate(self.plus.vectors)}
        partner = [index.get(vector, -1) for vector in self.minus.vectors]
        self.partner = np.array(partner, dtype=np.int64)[self.minus.classes]
        self.order = np.argsort(self.plus.sums)
        self.sorted_sums = self.plus.sums[self.order]
        self.sorted_classes = self.plus.classes[self.order]

    def count(self, delta: float) -> int:
        """Pairs in the window fl(M - delta) < P < fl(M + delta) that are not
        exact zeros; at delta == 0, the exact zeros."""
        size = self.sorted_sums.size
        m = self.minus.sums
        if delta == 0:
            lo, hi = np.zeros(m.size, dtype=np.int64), np.full(m.size, size)
        else:
            lo = np.searchsorted(self.sorted_sums, m - delta, side="right")
            hi = np.searchsorted(self.sorted_sums, m + delta, side="left")
        # zeros in a window: the partner class's tuples at sorted positions
        # [lo, hi), found in the plus tuples ordered by (class, position)
        keys = np.sort(self.sorted_classes * size + np.arange(size))
        has = self.partner >= 0
        base = self.partner[has] * size
        zeros = np.searchsorted(keys, base + hi[has]) - np.searchsorted(keys, base + lo[has])
        zeros = int(np.maximum(zeros, 0).sum())
        if delta == 0:
            return zeros
        return int(np.maximum(hi - lo, 0).sum()) - zeros

    def _walk(self, pos: np.ndarray, step: int) -> np.ndarray:
        """Step each minus tuple's sorted position past its zero partners."""
        pos = pos.copy()
        active = np.arange(pos.size)
        while active.size:
            active = active[(pos[active] >= 0) & (pos[active] < self.sorted_sums.size)]
            active = active[self.sorted_classes[pos[active]] == self.partner[active]]
            pos[active] += step
        return pos

    def min_gap(self) -> tuple[float, tuple[tuple[int, ...], tuple[int, ...]] | None]:
        """Smallest nonzero |form| over the box, with a witness.

        Each minus sum is paired with the nearest plus sums below and above
        it that are not its exact zeros.  Candidates are taken in the order
        (gap, plus flat index, minus flat index), so ties pick the same
        witness every time; gaps below NEAR_ZERO_RECHECK are re-verified in
        50 digits before they are trusted.
        """
        m = self.minus.sums
        i0 = np.searchsorted(self.sorted_sums, m)
        pos = np.concatenate([self._walk(i0 - 1, -1), self._walk(i0, 1)])
        mi = np.tile(np.arange(m.size), 2)
        inside = (pos >= 0) & (pos < self.sorted_sums.size)
        pos, mi = pos[inside], mi[inside]
        gaps = np.abs(self.sorted_sums[pos] - m[mi])
        pi = self.order[pos]

        best = math.inf
        witness = None
        for k in np.lexsort((mi, pi, gaps)):
            gap = float(gaps[k])
            if gap >= best:
                break
            pair = (self.plus.tuple_at(pi[k]), self.minus.tuple_at(mi[k]))
            if gap < NEAR_ZERO_RECHECK:
                gap = float(abs(form_value_hp(*pair)))
            if 0 < gap < best:
                best, witness = gap, pair
        return best, witness


def near_solution_count(
    query: RelationQuery, side_budget: int = DEFAULT_SIDE_BUDGET
) -> RelationCount:
    """Count of tuples with 0 < |form| < delta, with the minimal nonzero gap
    over the box: the pairs in the float64 window of the module docstring
    that are not exact zeros, which makes the count never negative.

    delta == 0 counts the exact solutions instead.  delta == inf counts
    everything that is not an exact solution.
    """
    box = _Box(query, side_budget)
    return RelationCount(query=query, count=box.count(query.delta),
                         min_nonzero_gap=box.min_gap()[0])


def min_gap(
    signature: RelationSignature, Y: int, side_budget: int = DEFAULT_SIDE_BUDGET
) -> tuple[float, tuple[tuple[int, ...], tuple[int, ...]], float]:
    """Minimal nonzero |form| over [1, Y]^arity, its witness, and gap * Y**e.

    e is the signature's gap exponent (7/2 for (2,2)-type forms, 127/2 for the
    8-variable ones).  The empirical constant is reported, not asserted.
    """
    query = RelationQuery(
        signature=signature,
        ranges=tuple((1, Y) for _ in range(signature.arity)),
        delta=0.0,
    )
    gap, witness = _Box(query, side_budget).min_gap()
    if witness is None:
        raise NoNonzeroFormError("no nonzero form in range")
    return gap, witness, gap * Y ** signature.gap_exponent
