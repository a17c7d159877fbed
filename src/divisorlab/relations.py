"""Linear forms in square roots of integers.

A form with signature (p, q) is sum_{i<=p} sqrt(a_i) - sum_{j<=q} sqrt(b_j).
Writing each value as n = a**2 * h with h squarefree gives sqrt(n) = a*sqrt(h),
and since the sqrt(h) for distinct squarefree h are linearly independent over
the rationals, a form vanishes exactly when the integer coefficient sums agree
kernel by kernel.  That makes exact-zero testing decidable without any floating
comparison.

Counts and gaps over a box come from one engine of array operations.  Each
side of the form is enumerated once over the multisets of its ranges: a range
that repeats an earlier range of the same side takes only the values from the
one at that earlier position up, so each tuple is the smallest ordering of its
multiset and stands for its number of orderings, prod g!/prod m_v! over the
groups of g equal ranges (m_v the multiplicity of value v).  Every tuple gets
the float64 sum P (plus side) or M (minus side) of its square roots, added
left to right, and a row of one int64 array holding its (kernel, coefficient)
slots in kernel order; each range extends the row of every kept (tuple,
value) pair at once.  A slot ranks its kernel among the kernels of the whole
box.  A box enumerates each distinct side once, so a box with equal sides
enumerates one, and one sort of the rows of its distinct sides, packed
several slots to an int64 word, numbers the kernel classes: a plus and a
minus tuple form an exact zero exactly when their ids agree.  A pair lies in
the delta window when the float64 predicate

    fl(M - delta) < P < fl(M + delta)

holds, and the near-solution count is the number of ordered pairs in the
window minus the exact zeros in that same window, each pair of tuples
weighted by the product of their orderings, so it is never negative.  Minimal
gaps are found in floats: each minus sum steps past the runs of its exact
zeros among the sorted plus sums by one run-length lookup, and candidates
below NEAR_ZERO_RECHECK are re-verified in 50-digit arithmetic.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import mpmath
import numpy as np

# the factoring lives in arith; BudgetExceededError and kernel_decompose stay
# importable from here
from .arith import BudgetExceededError, check_integer, kernel_decompose

# Sides of the enumeration may not exceed this many multisets; larger requests
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
        check_integer("plus", self.plus)
        check_integer("minus", self.minus)
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
            check_integer("each range end", lo)
            check_integer("each range end", hi)
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


# A tuple's row has one int64 slot per kernel of its class: the kernel's rank,
# its first position among the sorted kernels of the box's values, shifted
# left by the box's coefficient width, or-ed with its coefficient.  Empty
# slots hold the pad, all ones over the slot's bits, which sorts last; no
# kernel has the all-ones rank.  A box within budget has at most 8 ranges of
# at most 2^22 values, so a rank takes at most 26 bits, and a coefficient (at
# most 8 parts a <= 2^31) at most 35: a slot fits in 61 bits.


@dataclass(frozen=True)
class _Side:
    """One side of a form, one tuple per multiset, in ascending order of sum.

    Each tuple is the smallest ordering of its multiset: within every group
    of equal ranges its values ascend.  Its weight is the number of orderings
    it stands for, prod g!/prod m_v! over the groups (g the group's size, m_v
    the multiplicity of value v in it)."""

    ranges: tuple[tuple[int, int], ...]
    sums: np.ndarray  # float64 sum of the square roots, added left to right
    rows: np.ndarray  # the slots of each tuple's kernel class, ascending, padded
    flat: np.ndarray  # flat index of each tuple in the product of the ranges
    weights: np.ndarray  # int64 number of orderings of each tuple

    def tuple_at(self, flat: int) -> tuple[int, ...]:
        dims = tuple(hi - lo + 1 for lo, hi in self.ranges)
        return tuple(lo + int(i) for (lo, _), i in zip(self.ranges, np.unravel_index(flat, dims)))


def _number_rows(rows: np.ndarray, bits: int) -> np.ndarray:
    """The id of each row of a 2-d array of slots below 2^bits, ids
    numbering the distinct rows.  63 // bits slots pack into one int64 word,
    so one sort of the words (a lexsort when a row takes more than one word)
    brings equal rows together."""
    per = 63 // bits
    words = np.zeros((-(-rows.shape[1] // per), len(rows)), dtype=np.int64)
    for j in range(rows.shape[1]):
        words[j // per] |= rows[:, j] << (bits * (j % per))
    order = np.argsort(words[0]) if len(words) == 1 else np.lexsort(words)
    words = words[:, order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (words[:, 1:] != words[:, :-1]).any(axis=0)
    ids = np.empty(len(rows), dtype=np.int64)
    ids[order] = np.cumsum(first) - 1
    return ids


def _enumerate_side(ranges: Sequence[tuple[int, int]],
                    values: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, np.ndarray]],
                    shift: int, bits: int, width: int) -> _Side:
    """Sums and kernel-class rows of the smallest ordering of every multiset of
    the product of ranges, given for each value v = a**2 * h of each distinct
    range the rank of its kernel h, a and sqrt(v), the slots' coefficient
    width and total width, and the slots per row, at least one per range.

    The ranges are walked in order, every kept (tuple, value) pair extending
    a tuple.  A range met before on this side keeps only the values from the
    one at its latest position up, so the values ascend within every group
    of equal ranges; a range met first keeps every value, as in the product
    of the ranges.  Each tuple's sum is the left-to-right sum of that
    ordering.

    A tuple's class is its row of slots (kernel, coefficient), kernels
    ascending and padded to width slots.  Appending a value v = a**2 * h to a
    tuple adds a to the coefficient of kernel h in its row, or puts the slot
    (h, a) in a pad.  Per range, the rows of every kept pair are formed at
    once; the rows are numbered only by the box.

    A tuple's weight, its number of orderings, is counted in the same walk:
    beside the latest value offset of each recurring range, each tuple keeps
    the length of the run of equal values that ends there.
    """
    pad = (1 << bits) - 1
    sums = np.zeros(1, dtype=np.float64)
    flat = np.zeros(1, dtype=np.int64)
    weights = np.ones(1, dtype=np.int64)
    rows = np.full((1, width), pad, dtype=np.int64)
    # per range that recurs: each tuple's value offset at the range's latest
    # position so far, and the length of the run of equal values ending there
    last: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
    for i, r in enumerate(ranges):
        rank, a, roots = values[r]
        zero = np.zeros(sums.size, dtype=np.int64)
        floor, run = last.pop(r, (zero, zero))
        counts = len(a) - floor
        parent = np.repeat(np.arange(sums.size), counts)
        first = np.cumsum(counts) - counts  # each tuple's pair that takes the value at floor
        k = np.arange(parent.size) - np.repeat(first - floor, counts)
        rank, a = rank[k], a[k]
        rows = rows[parent]
        same = (rows >> shift) == rank[:, None]  # at most one slot
        np.add(rows, a[:, None], out=rows, where=same)
        # column i is a pad: at most i slots are filled, and they sort first
        rows[:, i] = np.where(same.any(axis=1), pad, rank << shift | a)
        rows.sort(axis=1)
        sums = sums[parent] + roots[k]
        flat = flat[parent] * len(roots) + k
        # the t-th value of a group multiplies the orderings by t and divides
        # them by the run it ends; each partial product is a multinomial
        # coefficient, so the division is exact
        weights = weights[parent] * ranges[: i + 1].count(r)
        weights[first] //= run + 1
        last = {g: (x[parent], n[parent]) for g, (x, n) in last.items()}
        if r in ranges[i + 1:]:
            ends = np.ones(parent.size, dtype=np.int64)
            ends[first] = run + 1
            last[r] = (k, ends)
    # the last step's temporaries go before the sort gathers four new arrays
    parent = k = rank = a = same = first = counts = None
    order = np.argsort(sums)
    return _Side(tuple(ranges), sums[order], rows[order], flat[order], weights[order])


class _Box:
    """The sides of a query box, each distinct side enumerated once over its
    multisets, so a box with equal sides enumerates one.  Every slot ranks its
    kernel among the kernels of the whole box, so one _number_rows pass over
    the distinct sides' rows numbers the box's kernel classes, and a plus and
    a minus tuple form an exact zero exactly when their ids agree.
    """

    def __init__(self, query: RelationQuery):
        p = query.signature.plus
        plus, minus = query.ranges[:p], query.ranges[p:]
        sides = dict.fromkeys((plus, minus))
        for ranges in sides:
            # C(n + g - 1, g) multisets per group of g equal ranges of n values
            size = math.prod(math.comb(hi - lo + g, g) for (lo, hi), g in Counter(ranges).items())
            if size > DEFAULT_SIDE_BUDGET:
                raise BudgetExceededError(
                    f"side of {size} multisets exceeds budget {DEFAULT_SIDE_BUDGET}; "
                    f"split the meet-in-the-middle ranges"
                )
        # each distinct range factored once: the kernel form of every value
        forms = {r: [kernel_decompose(v) for v in range(r[0], r[1] + 1)]
                 for r in dict.fromkeys(query.ranges)}
        # sorted, not made distinct: a kernel's first position ranks it as
        # well, and np.unique would import numpy.ma into every process
        kernels = np.sort(np.array([kf.h for f in forms.values() for kf in f], dtype=np.int64))
        values = {r: (np.searchsorted(kernels, np.array([kf.h for kf in f], dtype=np.int64)),
                      np.array([kf.a for kf in f], dtype=np.int64),
                      np.sqrt(np.arange(r[0], r[1] + 1, dtype=np.float64)))
                  for r, f in forms.items()}
        # a class's coefficient is at most the sum of the largest a of each
        # range, and the ranks stay below the all-ones rank of the pad
        self.shift = int(sum(values[r][1].max() for r in query.ranges)).bit_length()
        self.bits = self.shift + len(kernels).bit_length()
        # the rows of both sides take the slots of the wider one
        width = max(len(plus), len(minus))
        sides = {r: _enumerate_side(r, values, self.shift, self.bits, width) for r in sides}
        self.plus, self.minus = sides[plus], sides[minus]
        # one numbering of the distinct sides' rows, the plus side's first and
        # the minus side's last
        ids = _number_rows(np.concatenate([side.rows for side in sides.values()]), self.bits)
        self.plus_ids, self.minus_ids = ids[: self.plus.sums.size], ids[-self.minus.sums.size :]
        # the first and the last position of the run of equal ids through
        # each plus position
        starts = np.flatnonzero(np.diff(self.plus_ids, prepend=-1))
        lengths = np.diff(starts, append=self.plus_ids.size)
        self.run_first = np.repeat(starts, lengths)
        self.run_last = np.repeat(starts + lengths - 1, lengths)

    def count(self, delta: float) -> int:
        """Ordered pairs in the window fl(M - delta) < P < fl(M + delta) that
        are not exact zeros; at delta == 0, the exact zeros.

        A pair of multisets stands for w_plus * w_minus ordered pairs, so the
        plus weights are summed over each window, in sum order and in key
        order, by prefix sums.  No sum overflows int64: a side of at most
        2^22 multisets holds at most 2^22 * p! orderings, and p + q <= 8
        bounds every total by 2^44 * 8! < 2^60.
        """
        size = self.plus.sums.size
        m = self.minus.sums
        if delta == 0:
            lo, hi = np.zeros(m.size, dtype=np.int64), np.full(m.size, size)
        else:  # m ascends, so the binary searches stay local
            lo = np.searchsorted(self.plus.sums, m - delta, side="right")
            hi = np.searchsorted(self.plus.sums, m + delta, side="left")
        # zeros in a window: the plus tuples of the minus tuple's own id at
        # positions [lo, hi), found in the keys (id, position)
        keys = self.plus_ids * size + np.arange(size)
        by_key = np.argsort(keys)
        keys = keys[by_key]
        cum = np.zeros(size + 1, dtype=np.int64)
        np.cumsum(self.plus.weights[by_key], out=cum[1:])
        base = self.minus_ids * size
        zeros = cum[np.searchsorted(keys, base + hi)] - cum[np.searchsorted(keys, base + lo)]
        found = np.maximum(zeros, 0)
        if delta != 0:
            np.cumsum(self.plus.weights, out=cum[1:])
            found = np.maximum(cum[hi] - cum[lo], 0) - found
        return int(found @ self.minus.weights)

    def _walk(self, pos: np.ndarray, step: int) -> np.ndarray:
        """Move each minus tuple's plus position past its exact zeros.

        The exact zeros met from pos in the direction of step are the run of
        equal ids through pos when that id is the minus tuple's own, so one
        lookup of the run's end moves past all of them.
        """
        at = np.clip(pos, 0, self.plus.sums.size - 1)
        zero = (pos == at) & (self.plus_ids[at] == self.minus_ids)
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
        i0 = np.searchsorted(self.plus.sums, m)
        pos = np.concatenate([self._walk(i0 - 1, -1), self._walk(i0, 1)])
        mi = np.tile(np.arange(m.size), 2)
        inside = (pos >= 0) & (pos < self.plus.sums.size)
        pos, mi = pos[inside], mi[inside]
        gaps = np.abs(self.plus.sums[pos] - m[mi])
        # the loop below stops at the latest at the smallest gap that needs
        # no recheck, so only the candidates up to it are sorted
        cut = np.min(gaps, where=gaps >= NEAR_ZERO_RECHECK, initial=math.inf)
        keep = np.flatnonzero(gaps <= cut)
        gaps, pi, mi = gaps[keep], self.plus.flat[pos[keep]], self.minus.flat[mi[keep]]

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
    check_integer("Y", Y)
    query = RelationQuery(
        signature=signature,
        ranges=tuple((1, Y) for _ in range(signature.arity)),
        delta=0.0,
    )
    gap, witness = _Box(query).min_gap()
    if witness is None:
        raise NoNonzeroFormError("no nonzero form in range")
    return gap, witness, gap * Y ** signature.gap_exponent
