"""Moment integrals of the divisor error term.

On each unit interval [m, m+1) the integrand Delta(x) = D(m) - x*log(x)
- (2*gamma - 1)*x is analytic (the only non-smoothness of Delta is the jump at
integers), so fixed-order Gauss-Legendre per interval is essentially exact.
Integration streams over sieve blocks; blocks are independent (each seeds its
divisor prefix from an O(sqrt x) hyperbola evaluation) and partial sums are
combined in block order for bit-reproducibility at any thread count.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .divisor import DEFAULT_BLOCK, TWO_GAMMA_MINUS_ONE, EULER_GAMMA, prefix_block
from .parallel import CompensatedSum, ordered_map

_nodes, _weights = np.polynomial.legendre.leggauss(8)
GL8_NODES = 0.5 * (_nodes + 1.0)  # on [0, 1]
GL8_WEIGHTS = 0.5 * _weights

_CHUNK = 1 << 18


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
    """Short interval [X, X+H]; flag asserts H >= X**(7/32 + delta)."""

    X: float
    H: float
    delta: float = 0.01

    @property
    def admissible(self) -> bool:
        return self.X ** (7.0 / 32.0 + self.delta) <= self.H <= self.X


def _newton_roots(D: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Zeros of D - x*log(x) - (2g-1)*x inside [m, m+1); the branch is strictly
    decreasing there, so at most one zero exists and Newton from the midpoint
    converges in a handful of steps."""
    x = m + 0.5
    for _ in range(6):
        g = D - x * np.log(x) - TWO_GAMMA_MINUS_ONE * x
        x = x + g / (np.log(x) + 2.0 * EULER_GAMMA)
        np.clip(x, m, m + 1.0, out=x)
    return x


def _block_integrals(
    start: int,
    stop: int,
    powers: Sequence[int],
    abs_powers: Sequence[float],
) -> dict:
    """Partial integrals of Delta**k and |Delta|**A over [start, stop)."""
    D = prefix_block(start, stop).astype(np.float64)
    out = {("pow", k): 0.0 for k in powers}
    out.update({("abs", a): 0.0 for a in abs_powers})
    for off in range(0, stop - start, _CHUNK):
        m = np.arange(start + off, start + min(off + _CHUNK, stop - start), dtype=np.float64)
        Dm = D[off : off + m.size]
        xs = m[:, None] + GL8_NODES[None, :]
        delta = Dm[:, None] - xs * np.log(xs) - TWO_GAMMA_MINUS_ONE * xs
        if powers:
            pw = delta
            last = 1
            for k in sorted(powers):
                pw = pw * delta ** (k - last) if k - last else pw
                last = k
                out[("pow", k)] += float((pw @ GL8_WEIGHTS).sum())
        if abs_powers:
            absd = np.abs(delta)
            # intervals where the smooth branch crosses zero: endpoint signs differ
            g_lo = Dm - m * np.log(m) - TWO_GAMMA_MINUS_ONE * m
            m1 = m + 1.0
            g_hi = Dm - m1 * np.log(m1) - TWO_GAMMA_MINUS_ONE * m1
            cross = (g_lo > 0.0) & (g_hi < 0.0)
            idx = np.nonzero(cross)[0]
            if idx.size:
                roots = _newton_roots(Dm[idx], m[idx])
                left_w = roots - m[idx]
                xs_l = m[idx][:, None] + left_w[:, None] * GL8_NODES[None, :]
                xs_r = roots[:, None] + (1.0 - left_w)[:, None] * GL8_NODES[None, :]
                d_l = np.abs(Dm[idx][:, None] - xs_l * np.log(xs_l) - TWO_GAMMA_MINUS_ONE * xs_l)
                d_r = np.abs(Dm[idx][:, None] - xs_r * np.log(xs_r) - TWO_GAMMA_MINUS_ONE * xs_r)
            for a in abs_powers:
                per_interval = absd ** a @ GL8_WEIGHTS
                total = float(per_interval.sum())
                if idx.size:
                    naive = float(per_interval[idx].sum())
                    split = float((left_w * (d_l ** a @ GL8_WEIGHTS)).sum()) + float(
                        ((1.0 - left_w) * (d_r ** a @ GL8_WEIGHTS)).sum()
                    )
                    total += split - naive
                out[("abs", a)] += total
    return out


def moment_profile(
    powers: Sequence[int],
    abs_powers: Sequence[float],
    checkpoints: Sequence[int],
    lo: int = 2,
    threads: int = 1,
    block: int = DEFAULT_BLOCK,
    abs_limit: int | None = None,
) -> dict[int, dict]:
    """Integrals of Delta**k and |Delta|**A from lo to each checkpoint.

    One streaming pass covers all checkpoints; abs_limit, when set, stops the
    accumulation of the |Delta|**A integrals at that checkpoint (they are only
    needed at smaller scales and fractional powers are the expensive part).

    Returns {checkpoint: {("pow", k) | ("abs", A): integral}}.
    """
    checkpoints = sorted(set(int(c) for c in checkpoints))
    if not checkpoints or checkpoints[0] <= lo:
        raise ValueError("checkpoints must exceed lo")
    hi = checkpoints[-1]
    bounds = sorted(set(list(range(lo, hi, block)) + checkpoints + [hi]))
    spans = [(a, b) for a, b in zip(bounds, bounds[1:])]

    def task(span):
        a, b = span
        use_abs = abs_powers if (abs_limit is None or a < abs_limit) else ()
        return _block_integrals(a, b, powers, use_abs)

    partials = ordered_map(task, spans, threads=threads)

    keys = [("pow", k) for k in powers] + [("abs", a) for a in abs_powers]
    acc = {key: CompensatedSum() for key in keys}
    result: dict[int, dict] = {}
    cp = set(checkpoints)
    for (a, b), part in zip(spans, partials):
        for key in keys:
            acc[key].add(part.get(key, 0.0))
        if b in cp:
            result[b] = {key: acc[key].value for key in keys}
    return result


def moment_main_term(k: int, X: float, constants_Y: int | None = None) -> float:
    """Main term of the k-th moment over [2, X]; 0 where the theory gives none.
    constants_Y is the cutoff of the constant estimates it uses (None: the
    defaults of series.DEFAULT_CUTOFFS)."""
    from .series import main_term_coefficient

    if k in (5, 6, 7):
        return 0.0
    c = main_term_coefficient(k, constants_Y)
    if k == 1:
        return c * X
    if k == 2:
        return c * X ** 1.5
    if k == 3:
        return c * X ** 1.75
    if k == 4:
        return c * X ** 2
    return c * (X ** 3 - 8.0) / 3.0  # matches the stated integral of x^2 from 2


def moment(
    k: int,
    X: float,
    constants_Y: int | None = None,
    threads: int = 1,
) -> MomentResult:
    """Integral of Delta**k over [2, X] with its predicted main term."""
    if not 1 <= k <= 8:
        raise ValueError("k must be in 1..8")
    if X < 2:
        raise ValueError("X must be >= 2")
    prof = moment_profile([k], [], [int(X)], threads=threads)
    integral = prof[int(X)][("pow", k)]
    main = moment_main_term(k, X, constants_Y)
    rel = (integral - main) / main if main != 0.0 else math.nan
    return MomentResult(exponent=float(k), lo=2.0, hi=float(X), integral=integral,
                        main_term=main, relative_deviation=rel)


def abs_moment(A: float, X: float, threads: int = 1) -> MomentResult:
    """Integral of |Delta|**A over [2, X].  The theory provides an upper bound
    of order X**(1 + A/4) but no asymptotic constant, so main_term is 0."""
    if A <= 0:
        raise ValueError("A must be > 0")
    if A == int(A) and int(A) % 2 == 0:
        r = moment(int(A), X, threads=threads)
        return MomentResult(exponent=A, lo=r.lo, hi=r.hi, integral=r.integral,
                            main_term=0.0, relative_deviation=math.nan)
    prof = moment_profile([], [A], [int(X)], threads=threads)
    return MomentResult(exponent=A, lo=2.0, hi=float(X),
                        integral=prof[int(X)][("abs", A)],
                        main_term=0.0, relative_deviation=math.nan)


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
    if not spec.admissible:
        warnings.warn(
            f"window H={spec.H} outside [X^(7/32+{spec.delta}), X]; proceeding",
            stacklevel=2,
        )
    lo, hi = int(spec.X), int(spec.X + spec.H)
    prof = moment_profile([k], [], [hi], lo=lo, threads=threads)
    integral = prof[hi][("pow", k)]
    main = moment_main_term(k, hi, constants_Y) - moment_main_term(k, lo, constants_Y)
    rel = (integral - main) / main if main != 0.0 else math.nan
    return MomentResult(exponent=float(k), lo=float(lo), hi=float(hi),
                        integral=integral, main_term=main, relative_deviation=rel)
