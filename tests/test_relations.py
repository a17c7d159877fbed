import itertools
import math
import random
import tracemalloc
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from divisorlab import relations
from divisorlab.relations import (
    DEFAULT_SPF_BOUND,
    NEAR_ZERO_RECHECK,
    BudgetExceededError,
    NoNonzeroFormError,
    RelationQuery,
    RelationSignature,
    form_is_zero,
    form_value_hp,
    kernel_decompose,
    min_gap,
    near_solution_count,
)


@pytest.mark.parametrize("n,a,h", [
    (1, 1, 1), (2, 1, 2), (4, 2, 1), (12, 2, 3), (72, 6, 2),
    (97, 1, 97), (360, 6, 10), (10 ** 6, 1000, 1),
])
def test_kernel_decompose(n, a, h):
    kf = kernel_decompose(n)
    assert (kf.a, kf.h) == (a, h)
    assert kf.a ** 2 * kf.h == n


def test_kernel_decompose_large_uses_trial_division():
    n = (1 << 21) * 9  # above the sieve bound
    kf = kernel_decompose(n)
    assert kf.a ** 2 * kf.h == n
    assert kf.h == 2  # n = 2 * (3 * 2**10)**2


def test_kernel_decompose_rejects_huge():
    with pytest.raises(BudgetExceededError):
        kernel_decompose((1 << 62) + 3)


def _kernel_by_trial_division(n):
    a, h, p = 1, 1, 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        a *= p ** (e // 2)
        h *= p ** (e % 2)
        p += 1
    return a, h * n


def test_kernel_decompose_across_table_sizes(monkeypatch):
    # the table grows by powers of two from 2^10 up to DEFAULT_SPF_BOUND
    monkeypatch.setattr(relations, "_spf", relations._spf[:0])
    values = [1, 5, 1023, 1024, 1025]
    values += [(1 << e) + d for e in range(11, 21) for d in (-1, 0, 1)]
    values += [DEFAULT_SPF_BOUND + 1, 2 ** 20 * 9 - 1, 3 ** 12 * 2]
    values += [2, 4095, 4096 * 9]  # smaller values read the grown table
    for n in values:
        kf = kernel_decompose(n)
        assert (kf.a, kf.h) == _kernel_by_trial_division(n), n
    assert len(relations._spf) == DEFAULT_SPF_BOUND + 1


def test_kernel_decompose_table_sized_to_value(monkeypatch):
    monkeypatch.setattr(relations, "_spf", relations._spf[:0])
    tracemalloc.start()
    try:
        kernel_decompose(5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert len(relations._spf) == (1 << 10) + 1


def test_form_is_zero_examples():
    assert form_is_zero([8, 2], [18])          # 2*sqrt2 + sqrt2 = 3*sqrt2
    assert form_is_zero([1, 9], [4, 4])        # 1 + 3 = 2 + 2
    assert not form_is_zero([2, 3], [5])
    assert not form_is_zero([1, 1], [3])


def test_form_value_hp_matches_float():
    v = form_value_hp([2, 3], [5])
    assert float(v) == pytest.approx(math.sqrt(2) + math.sqrt(3) - math.sqrt(5), abs=1e-15)


def test_signature_validation():
    with pytest.raises(ValueError):
        RelationSignature(0, 2)
    with pytest.raises(ValueError):
        RelationSignature(8, 1)
    assert RelationSignature(2, 2).gap_exponent == 3.5
    assert RelationSignature(4, 4).gap_exponent == 63.5


def test_query_rejects_nan_delta_and_accepts_inf():
    sig = RelationSignature(1, 1)
    with pytest.raises(ValueError):
        RelationQuery(sig, ((1, 3), (1, 3)), math.nan)
    with pytest.raises(ValueError):
        RelationQuery(sig, ((1, 3), (1, 3)), -0.5)
    assert RelationQuery(sig, ((1, 3), (1, 3)), math.inf).delta == math.inf


@lru_cache(maxsize=None)
def _is_zero(pt, mt):
    return form_is_zero(pt, mt)


def _oracle(sig, box, delta):
    """(count, min nonzero gap) by brute force over the full product.

    Zeros are decided by form_is_zero; a nonzero pair counts when its float64
    side sums (added left to right, as the engine adds them) satisfy
    M - delta < P < M + delta.  The min gap is the 50-digit |form| of the
    pairs whose float gap is within 1e-12 of the smallest float gap.
    """
    sides = []
    for ranges in (box[: sig.plus], box[sig.plus:]):
        tuples = list(itertools.product(*(range(lo, hi + 1) for lo, hi in ranges)))
        sides.append([(t, sum(math.sqrt(v) for v in t)) for t in tuples])
    count, gaps = 0, []
    for pt, P in sides[0]:
        for mt, M in sides[1]:
            if _is_zero(pt, mt):
                count += delta == 0
                continue
            count += delta > 0 and M - delta < P < M + delta
            gaps.append((abs(P - M), pt, mt))
    if not gaps:
        return count, math.inf
    floor = min(g for g, _, _ in gaps)
    best = min(abs(form_value_hp(pt, mt)) for g, pt, mt in gaps if g <= floor + 1e-12)
    return count, float(best)


def _assert_gap(got, want, box):
    """Equal within 1e-9 relative, plus the float error of the side sums
    for gaps found in float (at or above NEAR_ZERO_RECHECK)."""
    if want == math.inf:
        assert got == math.inf
        return
    largest = sum(math.sqrt(hi) for _, hi in box)
    assert abs(got - want) <= 1e-9 * want + 8 * math.ulp(largest), (got, want)


def test_exact_solutions_11():
    # sqrt(n) = sqrt(r) only for n = r
    sig, box = RelationSignature(1, 1), ((1, 6), (1, 6))
    rc = near_solution_count(RelationQuery(sig, box, 0.0))
    assert rc.count == 6 == _oracle(sig, box, 0.0)[0]


def test_exact_solutions_22_y4_count():
    # 28 exact solutions over 4**4 tuples, all multiset-diagonal
    sig, box = RelationSignature(2, 2), tuple((1, 4) for _ in range(4))
    assert near_solution_count(RelationQuery(sig, box, 0.0)).count == 28
    assert _oracle(sig, box, 0.0)[0] == 28


def test_exact_solutions_include_nondiagonal():
    sig = RelationSignature(2, 2)
    # 1 + 3 = 2 + 2 in both orders of the plus side
    for box in (((1, 1), (9, 9), (4, 4), (4, 4)), ((9, 9), (1, 1), (4, 4), (4, 4))):
        assert near_solution_count(RelationQuery(sig, box, 0.0)).count == 1
    box = tuple((1, 9) for _ in range(4))
    rc = near_solution_count(RelationQuery(sig, box, 0.0))
    assert rc.count == _oracle(sig, box, 0.0)[0]
    diagonal = sum(1 for t in itertools.product(range(1, 10), repeat=4)
                   if sorted(t[:2]) == sorted(t[2:]))
    assert rc.count > diagonal


def test_exact_solutions_80_empty():
    # a nonempty sum of positive square roots never vanishes
    sig = RelationSignature(8, 0)
    assert near_solution_count(RelationQuery(sig, tuple((1, 5) for _ in range(8)), 0.0)).count == 0
    box = tuple((1, 2) for _ in range(8))
    assert near_solution_count(RelationQuery(sig, box, 0.0)).count == _oracle(sig, box, 0.0)[0] == 0


def test_exact_solutions_budget():
    sig = RelationSignature(4, 4)
    box = tuple((1, 10 ** 9) for _ in range(8))
    with pytest.raises(BudgetExceededError):
        near_solution_count(RelationQuery(sig, box, 0.0))
    with pytest.raises(BudgetExceededError):
        min_gap(sig, 10 ** 9)


@pytest.mark.parametrize("delta", [0.005, 0.05, 0.5])
def test_near_solution_count_matches_brute_force(delta):
    sig = RelationSignature(2, 2)
    box = ((1, 15), (1, 15), (1, 15), (1, 15))
    rc = near_solution_count(RelationQuery(sig, box, delta))
    assert rc.count == _oracle(sig, box, delta)[0]


def test_near_solution_count_delta_zero_is_exact_count():
    sig = RelationSignature(2, 2)
    box = tuple((1, 9) for _ in range(4))
    rc = near_solution_count(RelationQuery(sig, box, 0.0))
    assert rc.count == _oracle(sig, box, 0.0)[0]


def test_near_solution_count_never_negative_below_float_resolution():
    # fl(M - delta) == fl(M + delta) == M here, so the window is empty
    sig = RelationSignature(2, 2)
    for K in (16, 32, 64):
        box = tuple((1, K) for _ in range(4))
        for delta in (1e-16, 1e-18, 5e-324):
            assert near_solution_count(RelationQuery(sig, box, delta)).count == 0


def test_near_solution_count_monotone_in_delta():
    sig = RelationSignature(2, 2)
    box = tuple((1, 20) for _ in range(4))
    counts = [near_solution_count(RelationQuery(sig, box, d)).count
              for d in (0.001, 0.01, 0.1, 1.0)]
    assert counts == sorted(counts)


def test_near_solution_count_budget():
    sig = RelationSignature(2, 2)
    box = tuple((1, 10 ** 5) for _ in range(4))
    with pytest.raises(BudgetExceededError):
        near_solution_count(RelationQuery(sig, box, 0.1))


def test_min_gap_matches_exhaustive():
    sig = RelationSignature(2, 2)
    Y = 10
    gap, witness, const = min_gap(sig, Y)
    best = math.inf
    for t in itertools.product(range(1, Y + 1), repeat=4):
        if form_is_zero(t[:2], t[2:]):
            continue
        v = abs(float(form_value_hp(t[:2], t[2:])))
        best = min(best, v)
    assert gap == pytest.approx(best, rel=1e-12)
    assert const == pytest.approx(best * Y ** 3.5, rel=1e-12)
    pt, mt = witness
    assert not form_is_zero(pt, mt)
    assert abs(float(form_value_hp(pt, mt))) == pytest.approx(gap, rel=1e-12)


def test_min_gap_witness_ties_take_smallest_plus_index():
    # ((13,30),(9,37)) and ((37,9),(13,30)) have the same float gap; candidates
    # are ordered by (gap, plus flat index, minus flat index), 629 < 1808
    gap, witness, _ = min_gap(RelationSignature(2, 2), 50)
    assert witness == ((13, 30), (9, 37))
    assert gap == abs((math.sqrt(13) + math.sqrt(30)) - (math.sqrt(9) + math.sqrt(37)))


def test_min_gap_below_recheck_threshold_is_50_digit():
    # the minimal gap of (3,3) over [1,64]^6, 1.55e-9, sits at this pair
    box = ((17, 17), (12, 12), (50, 56), (1, 1), (40, 40), (60, 60))
    rc = near_solution_count(RelationQuery(RelationSignature(3, 3), box, 0.0))
    assert rc.min_nonzero_gap < NEAR_ZERO_RECHECK
    assert rc.min_nonzero_gap == float(abs(form_value_hp((17, 12, 56), (1, 40, 60))))


def test_min_gap_positive_for_8_variables():
    gap, witness, const = min_gap(RelationSignature(4, 4), 6)
    assert gap > 0
    assert const > 0
    assert len(witness[0]) == 4 and len(witness[1]) == 4


def test_min_gap_without_nonzero_form_raises():
    # over [1,1]^2 the only (1,1) form is sqrt(1) - sqrt(1) = 0
    with pytest.raises(NoNonzeroFormError):
        min_gap(RelationSignature(1, 1), 1)
    assert min_gap(RelationSignature(2, 0), 1)[0] == 2.0


def test_min_gap_walks_past_exact_zero_ties():
    # sqrt(9) - sqrt(9) = 0 sits where the nearest nonzero pair sqrt(10) - 3
    # would be looked for; sqrt(9) - sqrt(8) is farther
    box = ((1, 10), (1, 9))
    rc = near_solution_count(RelationQuery(RelationSignature(1, 1), box, 0.0))
    assert rc.min_nonzero_gap == pytest.approx(math.sqrt(10) - 3, rel=1e-9)


def test_min_gap_matches_oracle_on_random_22_boxes():
    rng = random.Random(1)
    sig = RelationSignature(2, 2)
    for _ in range(200):
        box = []
        for _ in range(4):
            lo = rng.randint(1, 12)
            box.append((lo, lo + rng.randint(0, 8)))
        box = tuple(box)
        rc = near_solution_count(RelationQuery(sig, box, 0.0))
        count, gap = _oracle(sig, box, 0.0)
        assert rc.count == count, box
        _assert_gap(rc.min_nonzero_gap, gap, box)


_SIGNATURES = [RelationSignature(1, 1), RelationSignature(2, 2),
               RelationSignature(3, 1), RelationSignature(2, 3)]
_DELTAS = [0.0, 5e-324, 1e-16, 1e-8, 0.1, math.inf]


@st.composite
def _boxes(draw):
    sig = draw(st.sampled_from(_SIGNATURES))
    width = 6 if sig.arity <= 2 else 3
    box = []
    for _ in range(sig.arity):
        lo = draw(st.integers(1, 12))
        box.append((lo, lo + draw(st.integers(0, width))))
    return sig, tuple(box)


@settings(max_examples=120, deadline=None)
@given(_boxes(), st.sampled_from(_DELTAS))
def test_near_solution_count_matches_oracle(sig_box, delta):
    sig, box = sig_box
    rc = near_solution_count(RelationQuery(sig, box, delta))
    count, gap = _oracle(sig, box, delta)
    assert rc.count >= 0
    assert rc.count == count
    _assert_gap(rc.min_nonzero_gap, gap, box)


def test_count_memory_stays_near_side_size():
    # (4,4) over [1,12]^8 has 433,272 exact zero pairs; none is materialised
    sig = RelationSignature(4, 4)
    box = tuple((1, 12) for _ in range(8))
    near_solution_count(RelationQuery(sig, box, 0.01))
    tracemalloc.start()
    try:
        rc = near_solution_count(RelationQuery(sig, box, math.inf))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc.count == 12 ** 8 - 433272
    assert peak < 8e6
