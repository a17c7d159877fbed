import itertools
import math
import random
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import OrderedBox, enumerate_multisets_dict, exact_zero_count_fold, kernel_by_squares

from divisorlab import relations
from divisorlab.relations import (
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


@pytest.mark.parametrize("n", [0, -4])
def test_kernel_decompose_rejects_below_one(n):
    with pytest.raises(ValueError):
        kernel_decompose(n)


def test_kernel_decompose_across_table_sizes():
    # powers of two and their neighbours from 2^10 up past 2^20
    values = [1, 5, 1023, 1024, 1025]
    values += [(1 << e) + d for e in range(11, 21) for d in (-1, 0, 1)]
    values += [(1 << 20) + 1, 2 ** 20 * 9 - 1, 3 ** 12 * 2]
    values += [2, 4095, 4096 * 9]
    for n in values:
        kf = kernel_decompose(n)
        assert (kf.a, kf.h) == kernel_by_squares(n), n


def test_kernel_decompose_table_sized_to_value():
    tracemalloc.start()
    try:
        kernel_decompose(5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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


def test_side_budget_counts_multisets(monkeypatch):
    # [1,12]^4 has 20,736 tuples and C(15, 4) = 1365 multisets
    monkeypatch.setattr(relations, "DEFAULT_SIDE_BUDGET", math.comb(15, 4))
    assert min_gap(RelationSignature(4, 4), 12)[0] == 4.822873254539672e-06
    with pytest.raises(BudgetExceededError):
        min_gap(RelationSignature(4, 4), 13)


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
    # ((13,30),(9,37)) and its mirror ((9,37),(13,30)) have the same float gap;
    # candidates are ordered by (gap, plus flat index, minus flat index), and
    # the flat index of (9,37) in [1,50]^2 is 436 < 629
    gap, witness, _ = min_gap(RelationSignature(2, 2), 50)
    assert witness == ((9, 37), (13, 30))
    assert gap == abs((math.sqrt(13) + math.sqrt(30)) - (math.sqrt(9) + math.sqrt(37)))
    assert gap == abs((math.sqrt(9) + math.sqrt(37)) - (math.sqrt(13) + math.sqrt(30)))


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


def _label_map(ids, oracle_ids):
    """The map from engine class ids to oracle class ids, checked to be a
    bijection, so that both group the tuples into the same classes."""
    pairs = set(zip(ids.tolist(), oracle_ids.tolist()))
    assert len(pairs) == len(set(ids.tolist())) == len(set(oracle_ids.tolist()))
    return dict(pairs)


@st.composite
def _class_boxes(draw):
    # about half the ranges repeat an earlier one, on either side
    sig = RelationSignature(draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    width = 5 if sig.arity <= 4 else 2
    box = []
    for _ in range(sig.arity):
        if box and draw(st.booleans()):
            box.append(draw(st.sampled_from(box)))
        else:
            lo = draw(st.integers(1, 16))
            box.append((lo, lo + draw(st.integers(0, width))))
    return sig, tuple(box)


@settings(max_examples=60, deadline=None)
@given(_class_boxes())
@example((RelationSignature(2, 2), (((1 << 20) - 2, (1 << 20) + 2), (1, 4),
                                    (1, 4), ((1 << 20) - 1, (1 << 20) + 2))))
@example((RelationSignature(2, 2), ((2 ** 40 - 2, 2 ** 40 + 2), (1, 4),
                                    (1, 4), (2 ** 40 - 1, 2 ** 40 + 1))))
@example((RelationSignature(4, 4), ((1, 3), (2, 4), (1, 3), (1, 3), (2, 4), (1, 3), (1, 3), (1, 3))))
def test_class_rows_match_dict_oracle(sig_box):
    # each side holds the oracle's multisets, by flat index, with their sums
    # and weights, in ascending order of sum; each tuple's row holds its
    # oracle kernel vector under the box's kernels; and two tuples of the
    # box share an id exactly when their oracle vectors are equal
    sig, box = sig_box
    engine = relations._Box(RelationQuery(sig, box, 0.0))
    box_kernels = np.sort([kernel_decompose(v).h for lo, hi in set(box) for v in range(lo, hi + 1)])
    index: dict[tuple, int] = {}
    joint = []
    for side, ranges in ((engine.plus, box[: sig.plus]), (engine.minus, box[sig.plus:])):
        oracle = {flat: (total, weight, vector)
                  for _, total, flat, weight, vector in enumerate_multisets_dict(ranges)}
        assert sorted(side.flat.tolist()) == sorted(oracle)
        want = [oracle[flat] for flat in side.flat.tolist()]
        assert side.sums.tolist() == sorted(total for total, _, _ in want)
        assert side.sums.tolist() == [total for total, _, _ in want]
        assert side.weights.tolist() == [weight for _, weight, _ in want]
        assert len(side.rows) == len(want)
        for row, (_, _, vector) in zip(side.rows, want):
            slots = row[row != (1 << engine.bits) - 1]
            kernels = box_kernels[slots >> engine.shift]
            coefficients = slots & ((1 << engine.shift) - 1)
            assert list(zip(kernels.tolist(), coefficients.tolist())) == list(vector)
        joint.append(np.array([index.setdefault(vector, len(index)) for _, _, vector in want]))
    _label_map(np.concatenate([engine.plus_ids, engine.minus_ids]), np.concatenate(joint))


@pytest.mark.parametrize("box, enumerated", [
    (((1, 6), (2, 7), (1, 6), (2, 7)), 1),
    (((1, 6), (2, 7), (2, 7), (1, 6)), 2),
])
def test_box_enumerates_each_distinct_side_once(monkeypatch, box, enumerated):
    # a box whose sides have the same ranges enumerates one side and reads it
    # as both; either way the rows of the box are numbered once
    calls = {}
    for name in ("_enumerate_side", "_number_rows"):
        f = getattr(relations, name)
        monkeypatch.setattr(relations, name,
                            lambda *a, f=f, name=name: calls.update({name: calls.get(name, 0) + 1}) or f(*a))
    engine = relations._Box(RelationQuery(RelationSignature(2, 2), box, 0.0))
    assert calls == {"_enumerate_side": enumerated, "_number_rows": 1}
    assert (engine.minus is engine.plus) == (enumerated == 1)


_GROUPED_SIGNATURES = _SIGNATURES + [RelationSignature(5, 3), RelationSignature(4, 4)]


@st.composite
def _grouped_boxes(draw):
    """A box whose sides repeat ranges: each side is split into groups of 1
    to 4 positions, each group takes one range of a small pool (so the two
    sides share ranges, and two groups may merge), and the positions are
    shuffled."""
    sig = draw(st.sampled_from(_GROUPED_SIGNATURES))
    width = {2: 8, 4: 5, 8: 2}.get(sig.arity, 3)
    pool = [(lo, lo + draw(st.integers(0, width)))
            for lo in draw(st.lists(st.integers(1, 12), min_size=1, max_size=4))]
    box: list[tuple[int, int]] = []
    for arity in (sig.plus, sig.minus):
        side: list[tuple[int, int]] = []
        while len(side) < arity:
            side += [draw(st.sampled_from(pool))] * draw(st.integers(1, min(4, arity - len(side))))
        box += draw(st.permutations(side))
    return sig, tuple(box)


@settings(max_examples=120, deadline=None)
@given(_grouped_boxes())
@example((RelationSignature(2, 2), ((1, 6), (2, 7), (3, 8), (4, 9))))
@example((RelationSignature(3, 1), ((2, 7), (1, 6), (2, 7), (1, 9))))
@example((RelationSignature(4, 4), ((1, 3),) * 8))
def test_multiset_engine_matches_ordered_engine(sig_box):
    # over the multisets of each side, weighted by their orderings, the count
    # at every delta (delta 0: the exact zeros) equals the ordered engine's
    # over every tuple, and so does the min gap; the witness is a nonzero
    # form of the box at that gap
    sig, box = sig_box
    engine = relations._Box(RelationQuery(sig, box, 0.0))
    ordered = OrderedBox(RelationQuery(sig, box, 0.0))
    for delta in _DELTAS:
        assert engine.count(delta) == ordered.count(delta), delta
    gap, witness = engine.min_gap()
    _assert_gap(gap, ordered.min_gap()[0], box)
    assert (witness is None) == (gap == math.inf)
    if witness is not None:
        pt, mt = witness
        assert all(lo <= v <= hi for v, (lo, hi) in zip(pt + mt, box))
        assert not form_is_zero(pt, mt)
        _assert_gap(float(abs(form_value_hp(pt, mt))), gap, box)


@pytest.mark.parametrize("p, q, Y, zeros", [
    (2, 2, 32, 2076), (3, 3, 20, 48434), (5, 3, 8, 1216), (4, 4, 16, 1576048),
    (4, 4, 24, 8013020), (4, 4, 32, 28278812),
])
def test_exact_zero_count_matches_kernel_fold(p, q, Y, zeros):
    # the exact solutions over [1, Y]^(p+q), far past brute force, against the
    # unit-weight kernel fold in exact integers
    assert exact_zero_count_fold(p, q, Y) == zeros
    box = tuple((1, Y) for _ in range(p + q))
    assert near_solution_count(RelationQuery(RelationSignature(p, q), box, 0.0)).count == zeros


def test_benchmark_relation_results_are_pinned():
    # the benchmark's min-gap jobs and two of its count boxes, at the values
    # of the dict-based engine that the row arrays replaced; the (2,2)
    # witness is the mirror of that engine's ((33,74),(28,82)), at the same
    # float gap and with the smaller plus flat index, 2781 < 3273
    assert min_gap(RelationSignature(2, 2), 100) == (
        1.5331405656127117e-07, ((28, 82), (33, 74)), 1.5331405656127117)
    assert min_gap(RelationSignature(4, 4), 12) == (
        4.822873254539672e-06, ((2, 4, 12, 12), (5, 6, 8, 8)), 1.626728115341578e+63)
    assert min_gap(RelationSignature(4, 4), 32) == (
        3.628518641107803e-08, ((3, 25, 32, 32), (14, 17, 23, 29)), 1.3701022573984677e+88)
    box = tuple((5, 68) for _ in range(4))
    assert near_solution_count(RelationQuery(RelationSignature(2, 2), box, 0.03)).count == 110780
    box = tuple((9, 16) for _ in range(8))
    assert near_solution_count(RelationQuery(RelationSignature(4, 4), box, 0.02)).count == 339888


def test_min_gap_memory_stays_near_side_size():
    # (4,4) over [1,20]^8: 160,000 tuples a side and 7,769 classes; no
    # (classes x values x width) table grows past the side's own arrays
    min_gap(RelationSignature(4, 4), 4)
    tracemalloc.start()
    try:
        gap = min_gap(RelationSignature(4, 4), 20)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gap == 1.712411314969131e-07
    assert peak < 32e6


def test_min_gap_side_enumeration_traced_peak(monkeypatch):
    # (4,4) over [1,48]^8: C(51, 4) = 249,900 multisets a side.  Counting the
    # orderings in the walk, with the parent rows gathered into the new ones,
    # and freeing the last step's temporaries before the final sort, traces
    # 29.1 MiB at the enumeration's peak (37.9 with them held; 54.7 with two
    # walks, the second over every flat index), and min_gap 36.7 MiB at the
    # gap search's.  Both bounds keep the margin ratio 46/37.9.
    min_gap(RelationSignature(4, 4), 4)
    tracemalloc.start()
    try:
        gap = min_gap(RelationSignature(4, 4), 48)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gap == 1.8517962411886665e-10
    assert peak < 44.5 * 2 ** 20, peak

    enumerate_side, sides = relations._enumerate_side, []

    def traced(*args):
        tracemalloc.reset_peak()
        side = enumerate_side(*args)
        sides.append(tracemalloc.get_traced_memory()[1])
        return side

    monkeypatch.setattr(relations, "_enumerate_side", traced)
    tracemalloc.start()
    try:
        min_gap(RelationSignature(4, 4), 48)
    finally:
        tracemalloc.stop()
    assert len(sides) == 1 and sides[0] < 35.3 * 2 ** 20, sides
