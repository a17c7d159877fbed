"""Linear forms in square roots of integers.

A form with signature (p, q) is sum_{i<=p} sqrt(a_i) - sum_{j<=q} sqrt(b_j).
Writing each value as n = a**2 * h with h squarefree gives sqrt(n) = a*sqrt(h),
and since the sqrt(h) for distinct squarefree h are linearly independent over
the rationals, a form vanishes exactly when the integer coefficient sums agree
kernel by kernel.  That makes exact-zero testing decidable without any floating
comparison.

Counts and gaps over a box come from one engine of array operations.  Each
side of the form is enumerated once over the product of its ranges, giving
every tuple the float64 sum P (plus side) or M (minus side) of its square
roots and the id of its kernel class.  A side's classes are the rows of one
int64 array, a row holding the class's (kernel, coefficient) slots in kernel
order; each range extends every (class, value) pair at once, and one lexsort
numbers the distinct rows.  A slot ranks its kernel among the kernels of the
whole box, so one more lexsort numbers both sides' rows together, and a plus
and a minus tuple form an exact zero exactly when their ids agree.  A pair
lies in the delta window when the float64 predicate

    fl(M - delta) < P < fl(M + delta)

holds, and the near-solution count is the number of pairs in the window minus
the exact zeros in that same window, so it is never negative.  Minimal gaps
are found in floats: each minus sum steps past the runs of its exact zeros
among the sorted plus sums by one run-length lookup, and candidates below
NEAR_ZERO_RECHECK are re-verified in 50-digit arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import mpmath
import numpy as np

# the factoring lives in arith; its names stay importable from here
from .arith import DEFAULT_SPF_BOUND, BudgetExceededError, KernelForm, kernel_decompose  # noqa: F401

# Sides of the enumeration may not exceed this many tuples; larger requests
# must be split by the caller.
DEFAULT_SIDE_BUDGET = 1 << 22

# Below this float magnitude a candidate gap is re-verified in 50-digit
# arithmetic before being trusted as nonzero.
NEAR_ZERO_RECHECK = 1e-8

VERIFY_DPS = 50


class NoNonzeroFormError(ValueError):
    """Every form over the box is an exact zero, so there is no minimal gap."""


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
# exact zero test
# --------------------------------------------------------------------------


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


def form_value_hp(plus_values: Sequence[int], minus_values: Sequence[int]):
    """The form evaluated at VERIFY_DPS digits (mpmath)."""
    with mpmath.workdps(VERIFY_DPS):
        total = mpmath.mpf(0)
        for v in plus_values:
            total += mpmath.sqrt(v)
        for v in minus_values:
            total -= mpmath.sqrt(v)
        return total


# --------------------------------------------------------------------------
# the kernel-class engine: near-solution counts and minimal gaps
# --------------------------------------------------------------------------


# A class row has one int64 slot per kernel of the class: the kernel's rank,
# its first position among the sorted kernels of the box's values, shifted
# by _SHIFT, or-ed with its coefficient.  Values are at most 2^62, so a
# coefficient (at most 8 parts a <= 2^31) is below 2^35, and a box within
# budget has at most 8 * 2^22 values, so every slot is below 2^60.  Empty
# slots hold _PAD, which sorts last.
_SHIFT = 35
_PAD = np.iinfo(np.int64).max


@dataclass(frozen=True)
class _Side:
    """One side of a form over the product of its ranges, in ravel order."""

    ranges: tuple[tuple[int, int], ...]
    sums: np.ndarray  # float64 sum of the square roots of each tuple
    classes: np.ndarray  # kernel-class id of each tuple
    rows: np.ndarray  # the slots of each class id, ascending, _PAD-padded

    def tuple_at(self, flat: int) -> tuple[int, ...]:
        dims = tuple(hi - lo + 1 for lo, hi in self.ranges)
        return tuple(lo + int(i) for (lo, _), i in zip(self.ranges, np.unravel_index(flat, dims)))


def _number_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The id of each row of a 2-d array, ids numbering the distinct rows in
    lexicographic order, and the distinct rows: one lexsort and a row
    difference."""
    order = np.lexsort(rows.T)
    rows = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    ids = np.empty(len(rows), dtype=np.int64)
    ids[order] = np.cumsum(first) - 1
    return ids, rows[first]


def _enumerate_side(ranges: Sequence[tuple[int, int]], forms: Sequence[Sequence[KernelForm]],
                    kernels: np.ndarray) -> _Side:
    """Sums and kernel classes of every tuple in the product of ranges, given
    the kernel form of each value of each range and the sorted kernels that
    the slots rank over.

    A class is one row of slots (kernel, coefficient), kernels ascending and
    padded to one slot per range so far.  Appending a value v = a**2 * h to a
    tuple adds a to the coefficient of kernel h in its row, or inserts the
    slot (h, a), so the new class depends only on the old class and v.  Per
    range, the rows of every (old class, value) pair are formed at once and
    numbered by _number_rows, which gives the table (old class, value) ->
    new class.
    """
    sums = np.zeros(1, dtype=np.float64)
    classes = np.zeros(1, dtype=np.int64)
    rows = np.zeros((1, 0), dtype=np.int64)
    for (lo, hi), f in zip(ranges, forms):
        roots = np.sqrt(np.arange(lo, hi + 1, dtype=np.float64))
        sums = (sums[:, None] + roots[None, :]).ravel()
        rank = np.searchsorted(kernels, np.array([kf.h for kf in f], dtype=np.int64))
        a = np.array([kf.a for kf in f], dtype=np.int64)
        n, width = rows.shape
        pairs = np.empty((n, len(f), width + 1), dtype=np.int64)
        pairs[:, :, :width] = rows[:, None]
        same = (pairs[:, :, :width] >> _SHIFT) == rank[:, None]  # at most one slot
        pairs[:, :, :width] += same * a[:, None]
        pairs[:, :, width] = np.where(same.any(axis=2), _PAD, rank << _SHIFT | a)
        pairs.sort(axis=2)
        table, rows = _number_rows(pairs.reshape(-1, width + 1))
        classes = table.reshape(n, len(f))[classes].ravel()
    return _Side(tuple(ranges), sums, classes, rows)


class _Box:
    """Both sides of a query box, each enumerated once.

    Every slot ranks its kernel among the kernels of the whole box, so the
    rows of both sides are numbered together by one _number_rows pass, and a
    plus and a minus tuple form an exact zero exactly when their ids agree.
    """

    def __init__(self, query: RelationQuery):
        p = query.signature.plus
        sides = (query.ranges[:p], query.ranges[p:])
        for ranges in sides:
            size = math.prod(hi - lo + 1 for lo, hi in ranges)
            if size > DEFAULT_SIDE_BUDGET:
                raise BudgetExceededError(
                    f"side of {size} tuples exceeds budget {DEFAULT_SIDE_BUDGET}; "
                    f"split the meet-in-the-middle ranges"
                )
        forms = [[kernel_decompose(v) for v in range(lo, hi + 1)] for lo, hi in query.ranges]
        # sorted, not made distinct: a kernel's first position ranks it as
        # well, and np.unique would import numpy.ma into every process
        kernels = np.sort(np.array([kf.h for f in forms for kf in f], dtype=np.int64))
        self.plus = _enumerate_side(sides[0], forms[:p], kernels)
        self.minus = _enumerate_side(sides[1], forms[p:], kernels)
        # one numbering of both sides' rows, padded to a common width
        n = len(self.plus.rows)
        width = max(self.plus.rows.shape[1], self.minus.rows.shape[1])
        rows = np.full((n + len(self.minus.rows), width), _PAD, dtype=np.int64)
        rows[:n, : self.plus.rows.shape[1]] = self.plus.rows
        rows[n:, : self.minus.rows.shape[1]] = self.minus.rows
        ids = _number_rows(rows)[0]
        self.minus_ids = ids[n:][self.minus.classes]
        self.order = np.argsort(self.plus.sums)
        self.sorted_sums = self.plus.sums[self.order]
        self.sorted_ids = ids[:n][self.plus.classes[self.order]]
        # the first and the last sorted position of the run of equal ids
        # through each sorted position
        starts = np.flatnonzero(np.diff(self.sorted_ids, prepend=-1))
        lengths = np.diff(starts, append=self.sorted_ids.size)
        self.run_first = np.repeat(starts, lengths)
        self.run_last = np.repeat(starts + lengths - 1, lengths)

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
        # zeros in a window: the plus tuples of the minus tuple's own id at
        # sorted positions [lo, hi), found in the keys (id, position)
        keys = np.sort(self.sorted_ids * size + np.arange(size))
        base = self.minus_ids * size
        zeros = np.searchsorted(keys, base + hi) - np.searchsorted(keys, base + lo)
        zeros = int(np.maximum(zeros, 0).sum())
        if delta == 0:
            return zeros
        return int(np.maximum(hi - lo, 0).sum()) - zeros

    def _walk(self, pos: np.ndarray, step: int) -> np.ndarray:
        """Move each minus tuple's sorted position past its exact zeros.

        The exact zeros met from pos in the direction of step are the run of
        equal ids through pos when that id is the minus tuple's own, so one
        lookup of the run's end moves past all of them.
        """
        at = np.clip(pos, 0, self.sorted_sums.size - 1)
        zero = (pos == at) & (self.sorted_ids[at] == self.minus_ids)
        end = self.run_last if step > 0 else self.run_first
        return np.where(zero, end[at] + step, pos)

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
        # the loop below stops at the latest at the smallest gap that needs
        # no recheck, so only the candidates up to it are sorted
        cut = np.min(gaps, where=gaps >= NEAR_ZERO_RECHECK, initial=math.inf)
        keep = np.flatnonzero(gaps <= cut)
        gaps, pi, mi = gaps[keep], self.order[pos[keep]], mi[keep]

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


def near_solution_count(query: RelationQuery) -> RelationCount:
    """Count of tuples with 0 < |form| < delta, with the minimal nonzero gap
    over the box: the pairs in the float64 window of the module docstring
    that are not exact zeros, which makes the count never negative.

    delta == 0 counts the exact solutions instead.  delta == inf counts
    everything that is not an exact solution.
    """
    box = _Box(query)
    return RelationCount(query=query, count=box.count(query.delta),
                         min_nonzero_gap=box.min_gap()[0])


def min_gap(
    signature: RelationSignature, Y: int
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
    gap, witness = _Box(query).min_gap()
    if witness is None:
        raise NoNonzeroFormError("no nonzero form in range")
    return gap, witness, gap * Y ** signature.gap_exponent
