"""Independent oracles shared by several test modules."""

import math


def d_trial_division(n: int) -> int:
    """Divisor count by trial division; the independent cross-check."""
    if n < 1:
        raise ValueError("n must be positive")
    count = 0
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            count += 1 if d * d == n else 2
    return count
