"""Moment integrals of the divisor error term.

On each unit interval [m, m+1) the integrand Delta(x) = D(m) - x*log(x)
- (2*gamma - 1)*x is analytic (the only non-smoothness of Delta is the jump at
integers), so fixed-order Gauss-Legendre per interval is essentially exact.
Integration runs on one grid of chunks, divisor.anchor_grid from lo (every
ANCHOR_SPAN unit intervals, doubling below lo + ANCHOR_SPAN), split only at
the checkpoints and abs_limit; each chunk evaluates Delta from the anchor at
or below it.  The plan is one int64 array, a row (start, stop, anchor) a
chunk.  Sieve blocks of adjacent chunks, each with its own divisor sieve, are
the tasks run in parallel, each returning one float64 row of partials a
chunk; each checkpoint's value is one math.fsum over a column's rows before
it.  So the values are bit-identical at every block size and thread count.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .arith import check_integer
from .divisor import anchor_grid, delta_unit, prefix_block, unit_branch
from .parallel import ordered_map
from .series import main_term_coefficient

_nodes, _weights = np.polynomial.legendre.leggauss(8)
GL8_NODES = 0.5 * (_nodes + 1.0)  # on [0, 1]
GL8_WEIGHTS = 0.5 * _weights

WINDOW_EXPONENT_MARGIN = 0.01

# Sieve block of the moment stream, in unit intervals.  Its int32 d(n) and
# int64 D(m) arrays, 3 MiB per thread, set the stream's peak memory, and each
# block runs an O(sqrt(x)) Python loop in the sieve's dense band; the
# measurements behind 2**18 are in CHANGES.md.
DEFAULT_BLOCK = 1 << 18

# u at the two ends of every unit interval, for the sign-crossing test
_ENDS = np.array([[0.0], [1.0]])


@dataclass(frozen=True)
class MomentResult:
    exponent: float
    lo: float
    hi: float
    integral: float
    main_term: float
    relative_deviation: float


@dataclass(frozen=True)
class WindowSpec:
    """Short interval [X, X+H]; flag asserts H >= X**(7/32 + WINDOW_EXPONENT_MARGIN)."""

    X: float
    H: float

    def __post_init__(self):
        if not (math.isfinite(self.X) and math.isfinite(self.H) and self.H > 0):
            raise ValueError(f"need finite X and H > 0, got X={self.X}, H={self.H}")

    @property
    def admissible(self) -> bool:
        return self.X ** (7.0 / 32.0 + WINDOW_EXPONENT_MARGIN) <= self.H <= self.X


def _newton_roots(coef: np.ndarray) -> np.ndarray:
    """u in [0, 1] of the zero of the smooth branch of Delta on each unit
    interval of the unit_branch coefficients coef; the branch is strictly
    decreasing there, so at most one zero exists, and Newton on its Taylor
    polynomial from the midpoint converges quadratically: once every step
    is below 2**-26 the next would be below 2**-52, and it stops (after 2
    steps past 1e3, at most 6).  The polynomial and its slope are evaluated
    side by side, as one (2, intervals) delta_unit call per step."""
    both = np.zeros((len(coef), 2, coef.shape[1]))
    both[:, 0] = coef
    both[:-1, 1] = coef[1:] * np.arange(1, len(coef))[:, None]
    u = np.full(coef.shape[1], 0.5)
    for _ in range(6):
        value, slope = delta_unit(both, u)
        step = np.divide(value, slope, out=value)
        u -= step
        np.clip(u, 0.0, 1.0, out=u)
        if np.abs(step).max(initial=0.0) < 2.0 ** -26:
            break
    return u


def _power_plan(ks: Sequence[int], keep: bool) -> list[tuple[int, int, int, int]]:
    """Steps (k, i, j, slot), in ascending k, each forming d**k = d**i * d**j
    for one power past d that the binary-powering chain of the k >= 1 in ks
    reaches: i = j = k/2 for a power of two, else j is the top bit of k and
    i = k - j, so each d**k is the product of the squares of its binary
    digits, lowest first.  d is in slot 0; a step writes its power over an
    operand read for the last time where there is one, else into a free
    slot, or a new one.  keep never frees d's slot."""
    operands, todo = {}, [int(k) for k in ks]
    while todo:
        k = todo.pop()
        if k > 1 and k not in operands:
            top = 1 << k.bit_length() - 1
            operands[k] = (k // 2, k // 2) if k == top else (k - top, top)
            todo += operands[k]
    steps = sorted((k, i, j) for k, (i, j) in operands.items())
    last = {o: n for n, (_, i, j) in enumerate(steps) for o in (i, j)}  # its last read
    if keep:
        last[1] = len(steps)
    slot, free, plan = {1: 0}, [], []
    for n, (k, i, j) in enumerate(steps):
        free += [slot[o] for o in {i, j} if last[o] == n]
        slot[k] = free.pop() if free else 1 + max(slot.values())
        plan.append((k, i, j, slot[k]))
        if k not in last:  # read by no later step: free once the caller has it
            free.append(slot[k])
    return plan


def _int_powers(
    d: np.ndarray,
    ks: Sequence[int],
    work: Sequence[np.ndarray] | None = None,
    keep: bool = True,
) -> Iterator[tuple[int, np.ndarray]]:
    """(k, d**k) for each distinct integer k >= 1 in ks, ascending, by the
    steps of _power_plan.  Without work every power is a new array.  With
    work, the arrays of the plan's slots with d as work[0], each power is
    written into its slot, so a later one may overwrite it, and d as well
    unless keep."""
    power = {1: d}
    if 1 in ks:
        yield 1, d
    for k, i, j, s in _power_plan(ks, keep):
        power[k] = np.multiply(power[i], power[j], out=None if work is None else work[s])
        if k in ks:
            yield k, power[k]


def _workspace(intervals: int, powers: Sequence[int], abs_powers: Sequence[float]) -> list[np.ndarray]:
    """The flat node arrays _chunk_integrals writes for chunks of up to
    intervals unit intervals: Delta and the slots of its powers
    (_power_plan), at least two with abs_powers, for |Delta| and |Delta|**A."""
    slots = 1 + max((s for *_, s in _power_plan(powers, bool(abs_powers))), default=0)
    if abs_powers:
        slots = max(slots, 2)
    return [np.empty(len(GL8_NODES) * intervals) for _ in range(slots)]


def _chunk_integrals(
    coef: np.ndarray,
    powers: Sequence[int],
    abs_powers: Sequence[float],
    work: Sequence[np.ndarray],
) -> dict:
    """Integrals of Delta**k and |Delta|**A over the unit intervals of the
    unit_branch coefficients coef, with every node array written into the
    arrays work of _workspace(coef.shape[1], powers, abs_powers) or longer.

    Node values are laid out (node, interval): each of the 8 nodes is one
    contiguous row of coef.shape[1] intervals, so every ufunc runs an inner
    loop that long, not 8 long as in an (interval, node) layout.
    """
    shape = (len(GL8_NODES), coef.shape[1])
    work = [w[: shape[0] * shape[1]].reshape(shape) for w in work]
    delta = delta_unit(coef, GL8_NODES[:, None], out=work[0])
    out = {("pow", k): _node_sum(pw)
           for k, pw in _int_powers(delta, powers, work, keep=bool(abs_powers))}
    if not abs_powers:
        return out
    absd = np.abs(delta, out=delta)
    # intervals where the smooth branch crosses zero: endpoint signs differ
    ends = delta_unit(coef, _ENDS)
    idx = np.nonzero((ends[0] > 0.0) & (ends[1] < 0.0))[0]
    if idx.size:
        crossing = coef[:, idx]
        left_w = _newton_roots(crossing)
        right_w = 1.0 - left_w
        # |Delta| at the nodes of each split half, written over those nodes
        d_l = np.multiply(left_w, GL8_NODES[:, None])
        d_r = np.multiply(right_w, GL8_NODES[:, None])
        d_r += left_w
        for d in (d_l, d_r):
            np.abs(delta_unit(crossing, d, out=d), out=d)
        part = np.empty_like(d_l)  # each half's weighted powers, then the gather
        # pw[:, idx] as numpy lays it out, crossing-major, so that its node
        # sum takes the same BLAS path
        gather = part.reshape(idx.size, -1).T
    for a in abs_powers:
        pw = np.power(absd, a, out=work[1])
        total = _node_sum(pw)
        if idx.size:
            halves = []
            for d, w in ((d_l, left_w), (d_r, right_w)):
                np.copyto(part, d)
                part **= a  # as d ** a forms it: numpy takes sqrt or square for some a
                halves.append(_node_sum(np.multiply(part, w, out=part)))
            for node, row in zip(gather, pw):  # one node row at a time
                node[:] = row[idx]
            total += (halves[0] + halves[1]) - _node_sum(gather)
        out[("abs", a)] = total
    return out


def _node_sum(pw: np.ndarray) -> float:
    """Gauss-Legendre sum of a (node, interval) array over all its intervals:
    the weighted node sum of each interval, then the pairwise sum of those."""
    return float((GL8_WEIGHTS @ pw).sum())


def _block_integrals(
    plan: np.ndarray,
    powers: Sequence[int],
    abs_powers: Sequence[float],
    abs_limit: int | None,
) -> np.ndarray:
    """Integrals of Delta**k and |Delta|**A over each chunk [a, b) of a run
    of adjacent chunks, the rows (a, b, anchor) of plan, from one sieve over
    the run and one _workspace for the node arrays of all its chunks: a row a
    chunk, a column a key of moment_profile, 0.0 for |Delta|**A from abs_limit
    on.  The anchor is the grid's point at or below a, so no node value
    depends on where blocks, checkpoints or abs_limit cut it.

    Integer powers come from _int_powers, so no libm pow sees the signed
    values of Delta (glibc pow is an order of magnitude slower on a negative
    base).  Every product of that chain rounds once and the exponents of
    those roundings add up to k - 1, so at each node, with u = 2**-53,

        |chain(d, k) - d**k| <= gamma_{k-1} * |d|**k,
        gamma_n = n*u / (1 - n*u),

    for the float64 value d of Delta there (d**1 is d itself).  The absolute
    powers keep pow on np.abs(Delta): pow on a non-negative base is fast.
    """
    start, stop = int(plan[0, 0]), int(plan[-1, 1])
    D = prefix_block(start, stop)
    work = _workspace(int((plan[:, 1] - plan[:, 0]).max()), powers,
                      abs_powers if abs_limit is None or start < abs_limit else ())
    keys = list(dict.fromkeys([("pow", k) for k in powers] + [("abs", a) for a in abs_powers]))
    out = np.zeros((len(plan), len(keys)))
    for row, (a, b, m0) in zip(out, plan.tolist()):
        coef = unit_branch(m0, np.arange(a - m0, b - m0), D[a - start : b - start])
        part = _chunk_integrals(coef, powers,
                                abs_powers if abs_limit is None or a < abs_limit else (), work)
        row[:] = [part.get(key, 0.0) for key in keys]
    return out


def moment_profile(
    powers: Sequence[int],
    abs_powers: Sequence[float],
    checkpoints: Sequence[int],
    lo: int = 2,
    threads: int = 1,
    abs_limit: int | None = None,
) -> dict[int, dict]:
    """Integrals of Delta**k and |Delta|**A from lo to each checkpoint.

    One streaming pass covers all checkpoints; abs_limit, when set, stops the
    accumulation of the |Delta|**A integrals at that integer, a checkpoint or
    not (they are only needed at smaller scales and fractional powers are the
    expensive part).  A sieve and a task cover DEFAULT_BLOCK unit intervals,
    in whole chunks; neither that nor threads changes a value.

    Returns {checkpoint: {("pow", k) | ("abs", A): integral}}.  Each k must
    be an integer >= 1, each A finite and > 0, and lo >= 1, the checkpoints,
    abs_limit and threads integers, threads >= 1.  A plan past the range or
    the budget of divisor.anchor_grid is refused before it is laid out.
    """
    check_integer("threads", threads)
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads!r}")
    for k in powers:
        check_integer("each power", k)
        if k < 1:
            raise ValueError(f"each power must be >= 1, got {k!r}")
    for a in abs_powers:
        if not (math.isfinite(a) and a > 0):
            raise ValueError(f"abs_powers must be finite and > 0, got {a!r}")
    if abs_limit is not None:
        check_integer("abs_limit", abs_limit)
    check_integer("lo and the checkpoints", lo, *checkpoints)
    if lo < 1:
        raise ValueError(f"lo must be >= 1, got {lo!r}")
    checkpoints = sorted(set(int(c) for c in checkpoints))
    if not checkpoints or checkpoints[0] <= lo:
        raise ValueError("checkpoints must exceed lo")
    hi = checkpoints[-1]
    cuts = [abs_limit] if abs_limit is not None and lo < abs_limit < hi else []
    grid = anchor_grid(lo, hi)
    points = sorted(checkpoints + cuts)
    bounds = np.insert(grid, np.searchsorted(grid, points), points)
    bounds = bounds[np.diff(bounds, prepend=0) > 0]  # a point on the grid once
    # a row (start, stop, anchor) a chunk, its anchor the grid's point at or below its start
    plan = np.stack([bounds[:-1], bounds[1:],
                     grid[np.searchsorted(grid, bounds[:-1], "right") - 1]], axis=1)
    del grid, bounds  # only the plan is held while the blocks run
    # block j, one sieve, runs over the chunks edges[j] to edges[j + 1] - 1: those starting in it
    edges = np.append(np.flatnonzero(np.diff((plan[:, 0] - lo) // DEFAULT_BLOCK, prepend=-1)),
                      len(plan))
    keys = list(dict.fromkeys([("pow", k) for k in powers] + [("abs", a) for a in abs_powers]))
    partials = np.empty((len(plan), len(keys)))

    def block(j):
        rows = slice(edges[j], edges[j + 1])
        partials[rows] = _block_integrals(plan[rows], powers, abs_powers, abs_limit)

    ordered_map(block, range(len(edges) - 1), threads=threads)
    # each checkpoint adds each column's partials up to it by one math.fsum
    return {c: {key: math.fsum(partials[:n, i]) for i, key in enumerate(keys)}
            for c, n in zip(checkpoints, (np.searchsorted(plan[:, 1], checkpoints) + 1).tolist())}


# k -> the exponent a of the k-th moment main term c * X**a, for k <= 4
_MAIN_EXPONENTS = {1: 1, 2: 1.5, 3: 1.75, 4: 2}


def moment_main_term(k: int, X: float, constants_Y: int | None = None) -> float:
    """Main term of the k-th moment over [2, X]; 0 where the theory gives none.
    constants_Y is the cutoff of the constant estimates it uses (None:
    series.DEFAULT_CUTOFF)."""
    if k in (5, 6, 7):
        return 0.0
    c = main_term_coefficient(k, constants_Y)
    if k == 8:
        return c * (X ** 3 - 8.0) / 3.0  # matches the stated integral of x^2 from 2
    return c * X ** _MAIN_EXPONENTS[k]


def window_main_term(k: int, lo: int, hi: int, constants_Y: int | None = None) -> float:
    """moment_main_term(k, hi) - moment_main_term(k, lo) for integers
    1 <= lo < hi, formed without that subtraction, which cancels all but a
    fraction (hi - lo)/lo of c * lo**a: c * lo**a * expm1(a * log1p(H/lo))
    for k <= 4, and c * H * (hi**2 + hi*lo + lo**2) / 3 for k = 8."""
    if k in (5, 6, 7):
        return 0.0
    c = main_term_coefficient(k, constants_Y)
    H = hi - lo
    if k == 8:
        return c * H * (hi * hi + hi * lo + lo * lo) / 3.0
    a = _MAIN_EXPONENTS[k]
    return c * lo ** a * math.expm1(a * math.log1p(H / lo))


def _moment_result(k: int, lo: int, hi: int, main_term, threads: int) -> MomentResult:
    """Integral of Delta**k over [lo, hi] against main_term(), formed once k is
    checked, so a bad k or constants_Y is refused before the integral runs."""
    check_integer("k", k)
    if not 1 <= k <= 8:
        raise ValueError("k must be in 1..8")
    main = main_term()
    integral = moment_profile([k], [], [hi], lo=lo, threads=threads)[hi][("pow", k)]
    rel = (integral - main) / main if main != 0.0 else math.nan
    return MomentResult(exponent=float(k), lo=float(lo), hi=float(hi), integral=integral,
                        main_term=main, relative_deviation=rel)


def moment(
    k: int,
    X: float,
    constants_Y: int | None = None,
    threads: int = 1,
) -> MomentResult:
    """Integral of Delta**k over [2, int(X)] with its predicted main term there."""
    if not (math.isfinite(X) and X >= 3):  # whole unit intervals from 2 to int(X)
        raise ValueError(f"X must be finite and >= 3, got {X}")
    # the main term at int(X), kept in X's type: an integer X keeps its exact
    # powers (float(X)**3 and X**3 can round apart above 2**53)
    return _moment_result(k, 2, int(X), lambda: moment_main_term(k, X - X % 1, constants_Y),
                          threads)


def window_moment(
    spec: WindowSpec,
    k: int,
    constants_Y: int | None = None,
    threads: int = 1,
) -> MomentResult:
    """Integral of Delta**k over [X, X+H] against the short-interval main term.

    Window endpoints are taken at integers (the stream works in unit
    intervals).  An inadmissible window (flag violated) only warns: exploration
    outside the proved range is allowed.
    """
    lo, hi = int(spec.X), int(spec.X + spec.H)
    if lo < 1:
        raise ValueError(f"window must start at X >= 1, got X={spec.X}")
    if hi <= lo:
        raise ValueError(f"window holds no whole unit interval: need int(X+H) > int(X), "
                         f"got X={spec.X}, H={spec.H}")
    if not spec.admissible:
        warnings.warn(
            f"window H={spec.H} outside [X^(7/32+{WINDOW_EXPONENT_MARGIN}), X]; proceeding",
            stacklevel=2,
        )
    return _moment_result(k, lo, hi, lambda: window_main_term(k, lo, hi, constants_Y), threads)
