"""Integer factoring: one integer at a time by trial division
(kernel_decompose: n = a**2 * h with h squarefree) for the relations, and a
whole range at once from a smallest-prime-factor sieve (factor_table) for the
constant sums.  factor_table keeps the tables of its 16 latest bounds, whose
arrays are shared between callers and read-only.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class BudgetExceededError(RuntimeError):
    """Enumeration would exceed the configured budget; names the limit hit."""


def check_integer(name: str, *values) -> None:
    """Refuse, by a ValueError naming them as name, values that are not each
    an int or a numpy integer: a bool or a float never is one."""
    for value in values:
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            noun = "an integer" if len(values) == 1 else "integers"
            raise ValueError(f"{name} must be {noun}, got {value!r}")


@dataclass(frozen=True)
class KernelForm:
    """Unique decomposition n = a**2 * h with h squarefree."""

    n: int
    a: int
    h: int


def kernel_decompose(n: int) -> KernelForm:
    """Factor out the largest square: n = a**2 * h with h squarefree, by
    trial division by 2, then by odd p while p**3 <= what is left.  What is
    left then has no prime factor below p, so it is 1, a prime q, q1*q2 or
    q**2, and only q**2 is a square.  The cost grows as the cube root of n:
    a prime near 2**48 takes milliseconds."""
    check_integer("n", n)
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > (1 << 62):
        raise BudgetExceededError(f"n={n} beyond 64-bit trial-division budget")
    a, h, m, p = 1, 1, n, 2
    while p * p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            a *= p ** (e // 2)
            h *= p ** (e % 2)
        p += 1 if p == 2 else 2
    q = math.isqrt(m)
    return KernelForm(n=n, a=a * q, h=h) if q * q == m else KernelForm(n=n, a=a, h=h * m)


# typed, so that 10.0 or True never reaches the entry of 10 past the check
@lru_cache(maxsize=16, typed=True)
def factor_table(bound: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, h, d2) for n = 1..bound (index n-1): n = a**2 * h with h squarefree,
    and d2 = d(n**2) = prod (2e + 1) over the prime powers p**e of n.

    A smallest-prime-factor sieve up to bound is built on the first call
    with that bound; the 16 latest bounds' tables are kept.  Each
    pass strips the smallest remaining prime of every unfinished n, so the
    passes number the most distinct primes of any n <= bound.  The arrays
    are shared between callers and read-only.
    """
    check_integer("bound", bound)
    spf = np.arange(bound + 1, dtype=np.int32)
    for p in range(2, math.isqrt(bound) + 1):
        if spf[p] == p:
            sl = spf[p * p :: p]
            np.minimum(sl, p, out=sl)
    m = np.arange(1, bound + 1, dtype=np.int32)
    a, h, d2 = (np.ones(bound, dtype=np.int32) for _ in range(3))
    live = np.flatnonzero(m > 1)
    while live.size:
        p = spf[m[live]]
        r = m[live] // p
        e = np.ones(live.size, dtype=np.int32)
        more = np.flatnonzero(r % p == 0)
        while more.size:
            r[more] //= p[more]
            e[more] += 1
            more = more[r[more] % p[more] == 0]
        a[live] *= p ** (e // 2)
        h[live] *= p ** (e % 2)
        d2[live] *= 2 * e + 1
        m[live] = r
        live = live[r > 1]
    for arr in (a, h, d2):
        arr.flags.writeable = False
    return a, h, d2
