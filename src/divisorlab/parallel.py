"""Deterministic block parallelism.

Work is split into a fixed list of independent tasks; results are combined in
task-index order regardless of the thread count, so outputs are bitwise
reproducible across 1..N threads.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def ordered_map(fn: Callable[[T], R], tasks: Sequence[T], threads: int = 1) -> list[R]:
    """Apply fn to every task, returning results in task order."""
    if threads <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, tasks))

