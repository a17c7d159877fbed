import math

import divisorlab
import pytest
from hypothesis import given, settings, strategies as st

from divisorlab import arith, relations
from divisorlab.arith import factor_table, factorize, kernel_decompose
from oracles import d_trial_division


def _by_trial_division(n):
    """(a, h, d(n**2)) with n = a**2 h and h squarefree, by trial division."""
    a, h, d2, p = 1, 1, 1, 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        a *= p ** (e // 2)
        h *= p ** (e % 2)
        d2 *= 2 * e + 1
        p += 1
    if n > 1:
        h *= n
        d2 *= 3
    return a, h, d2


def test_factor_table_matches_trial_division():
    a, h, d2 = factor_table(5000)
    assert len(a) == len(h) == len(d2) == 5000
    for n in range(1, 5001):
        assert (a[n - 1], h[n - 1], d2[n - 1]) == _by_trial_division(n), n
        assert d2[n - 1] == d_trial_division(n * n), n


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 1 << 21))
def test_factor_table_and_kernels_match_trial_division(n):
    a, h, d2 = factor_table(1 << 21)
    expected = _by_trial_division(n)
    assert (a[n - 1], h[n - 1], d2[n - 1]) == expected
    kf = kernel_decompose(n)
    assert (kf.a, kf.h) == expected[:2]
    pairs = factorize(n)
    assert math.prod(p ** e for p, e in pairs) == n
    assert [p for p, _ in pairs] == sorted({p for p, _ in pairs})


def test_factor_table_is_read_only():
    a, _, _ = factor_table(16)
    with pytest.raises(ValueError):
        a[0] = 2


def test_relations_reexports_the_same_objects():
    assert relations.BudgetExceededError is arith.BudgetExceededError
    assert relations.kernel_decompose is arith.kernel_decompose
    assert divisorlab.kernel_decompose is arith.kernel_decompose
    assert divisorlab.BudgetExceededError is arith.BudgetExceededError
