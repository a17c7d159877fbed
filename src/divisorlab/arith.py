"""Integer factoring, from one cached smallest-prime-factor table: one integer
at a time (factorize, kernel_decompose: n = a**2 * h with h squarefree) for
the relations, and a whole range at once (factor_table) for the constant sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# factorize reads the table up to here and uses 64-bit trial division above
DEFAULT_SPF_BOUND = 1 << 20


class BudgetExceededError(RuntimeError):
    """Enumeration would exceed the configured budget; names the limit hit."""


@dataclass(frozen=True)
class KernelForm:
    """Unique decomposition n = a**2 * h with h squarefree."""

    n: int
    a: int
    h: int


# the table: grown to the next power of two that covers the value asked for,
# at least 2^10
_spf = np.zeros(0, dtype=np.int32)


def _spf_covering(n: int) -> np.ndarray:
    """A smallest-prime-factor table covering n.  The table returned is the
    one checked or built here, so a concurrent caller swapping in another
    table cannot hand back one too short for n."""
    global _spf
    spf = _spf
    if n >= len(spf):
        bound = max(1 << 10, 1 << (n - 1).bit_length())
        spf = np.arange(bound + 1, dtype=np.int32)
        for p in range(2, math.isqrt(bound) + 1):
            if spf[p] == p:
                sl = spf[p * p :: p]
                np.minimum(sl, p, out=sl)
        _spf = spf
    return spf


def factorize(n: int) -> list[tuple[int, int]]:
    """The prime factorization of n >= 1 as (prime, exponent) pairs, primes
    ascending."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > (1 << 62):
        raise BudgetExceededError(f"n={n} beyond 64-bit trial-division budget")
    spf = _spf_covering(n) if n <= DEFAULT_SPF_BOUND else None
    out = []
    m, p = n, 2
    while m > 1:
        if spf is not None:
            p = int(spf[m])
        else:  # the next trial divisor that divides m, or m itself when prime
            while p * p <= m and m % p:
                p += 1 if p == 2 else 2
            if p * p > m:
                p = m
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        out.append((p, e))
    return out


def kernel_decompose(n: int) -> KernelForm:
    """Factor out the largest square: n = a**2 * h with h squarefree."""
    a, h = 1, 1
    for p, e in factorize(n):
        a *= p ** (e // 2)
        h *= p ** (e % 2)
    return KernelForm(n=n, a=a, h=h)


@lru_cache(maxsize=16)
def factor_table(bound: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, h, d2) for n = 1..bound (index n-1): n = a**2 * h with h squarefree,
    and d2 = d(n**2) = prod (2e + 1) over the prime powers p**e of n.

    Each pass strips the smallest remaining prime of every unfinished n, so
    the passes number the most distinct primes of any n <= bound.  The arrays
    are shared between callers and read-only.
    """
    spf = _spf_covering(bound)
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
