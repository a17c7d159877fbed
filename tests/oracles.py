"""Independent oracles shared by several test modules."""

import math

import numpy as np

from divisorlab.divisor import delta_unit
from divisorlab.moments import GL8_NODES, GL8_WEIGHTS, _int_powers, _newton_roots


def d_trial_division(n: int) -> int:
    """Divisor count by trial division; the independent cross-check."""
    if n < 1:
        raise ValueError("n must be positive")
    count = 0
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            count += 1 if d * d == n else 2
    return count


def chunk_integrals_interval_major(Dm, m, powers, abs_powers) -> dict:
    """moments._chunk_integrals with node values laid out (interval, node):
    the reference its node values and integrals are compared against."""
    delta = delta_unit(m[:, None], Dm[:, None], GL8_NODES)
    out = {("pow", k): float((pw @ GL8_WEIGHTS).sum())
           for k, pw in _int_powers(delta, powers).items()}
    if not abs_powers:
        return out
    absd = np.abs(delta)
    ends = delta_unit(m, Dm, np.array([[0.0], [1.0]]))
    idx = np.nonzero((ends[0] > 0.0) & (ends[1] < 0.0))[0]
    if idx.size:
        roots = _newton_roots(Dm[idx], m[idx])
        left_w = roots - m[idx]
        d_l = np.abs(delta_unit(m[idx, None], Dm[idx, None], left_w[:, None] * GL8_NODES))
        d_r = np.abs(delta_unit(roots[:, None], Dm[idx, None],
                                (1.0 - left_w)[:, None] * GL8_NODES))
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
