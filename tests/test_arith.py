import divisorlab
import pytest
from hypothesis import given, settings, strategies as st

from divisorlab import arith, relations
from divisorlab.arith import factor_table, kernel_decompose
from oracles import d_of_square, d_trial_division, kernel_by_squares


def test_factor_table_matches_trial_division():
    # each call sieves up to its own bound, and a bound p**2 needs the prime p
    want = [(*kernel_by_squares(n), d_trial_division(n * n)) for n in range(1, 5001)]
    for bound in [*range(1, 200), 5000]:
        got = list(zip(*(arr.tolist() for arr in factor_table(bound))))
        assert got == want[:bound], bound


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 1 << 21))
def test_factor_table_and_kernels_match_trial_division(n):
    a, h, d2 = factor_table(1 << 21)
    expected = kernel_by_squares(n)
    assert (a[n - 1], h[n - 1]) == expected
    assert d2[n - 1] == d_of_square(n)
    kf = kernel_decompose(n)
    assert (kf.a, kf.h) == expected


Q31, Q31_BELOW = 2 ** 31 - 1, 2 ** 31 - 19  # the two largest primes below 2^31


@pytest.mark.parametrize("n, want", [
    (Q31 ** 2, kernel_by_squares(Q31 ** 2)),  # q**2
    (Q31 * Q31_BELOW, (1, Q31 * Q31_BELOW)),  # q1*q2 near 2^62
    (2 ** 48 + 21, (1, 2 ** 48 + 21)),  # the prime after 2^48
])
def test_kernel_decompose_large_cofactors(n, want):
    # trial division stops at the cube root, and the cofactor left, 1, q,
    # q1*q2 or q**2, is told apart by its integer square root
    kf = kernel_decompose(n)
    assert (kf.a, kf.h) == want
    assert kf.a ** 2 * kf.h == n


def test_factor_table_is_read_only():
    a, _, _ = factor_table(16)
    with pytest.raises(ValueError):
        a[0] = 2


def test_relations_reexports_the_same_objects():
    assert relations.BudgetExceededError is arith.BudgetExceededError
    assert relations.kernel_decompose is arith.kernel_decompose
    assert divisorlab.kernel_decompose is arith.kernel_decompose
    assert divisorlab.BudgetExceededError is arith.BudgetExceededError
