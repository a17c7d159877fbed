import itertools
import math

import mpmath
import numpy as np
import pytest

from divisorlab import series
from divisorlab.acceptance import AcceptanceContext
from divisorlab.divisor import build_divisor_table
from divisorlab.relations import BudgetExceededError, form_is_zero
from divisorlab.series import (
    DEFAULT_CUTOFFS,
    _relation_product,
    estimate_constant,
    extrapolate_sqrt,
    first_cumulant_limit,
    main_term_coefficient,
    partial_C1,
    partial_C2,
    partial_C4,
    partial_C7,
    zeta_em,
)


def _q_weight(values):
    d = build_divisor_table(1, max(values)).values
    w = 1.0
    for v in values:
        w *= int(d[v - 1]) * v ** -0.75
    return w


def _brute_relation_sum(p, q, Y):
    """Independent 2p+2q-fold brute force (only feasible for tiny Y)."""
    total = 0.0
    for left in itertools.product(range(1, Y + 1), repeat=p):
        for right in itertools.product(range(1, Y + 1), repeat=q):
            if form_is_zero(left, right):
                total += _q_weight(left + right)
    return total


def test_c2_trivial_cutoffs():
    assert partial_C2(1).partial_sum == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("Y", [4, 9, 12])
def test_c2_matches_brute_force(Y):
    assert partial_C2(Y).partial_sum == pytest.approx(
        _brute_relation_sum(2, 2, Y), rel=1e-12)


def test_c4_trivial_cutoffs():
    # 6 ones on the left cannot equal sqrt(t) + sqrt(j) with t, j = 1
    assert partial_C4(1).partial_sum == 0.0
    # at Y = 9 the only solutions are (1,...,1; 9, 9): 6 = 3 + 3,
    # weight d(9)**2 * 81**(-3/4) = 9/27
    assert partial_C4(9).partial_sum == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_c7_trivial_cutoff_and_monotonicity():
    assert partial_C7(1).partial_sum == pytest.approx(1.0, rel=1e-14)
    assert partial_C7(8).partial_sum > partial_C7(4).partial_sum


def test_c4_matches_brute_force_small():
    # meet-in-the-middle brute force at Y = 4: enumerate left 6-tuples and
    # right pairs, keep kernel-exact zeros
    Y = 4
    assert partial_C4(Y).partial_sum == pytest.approx(
        _brute_relation_sum(6, 2, Y), rel=1e-12)


def test_c1_first_term():
    # alpha = beta = h = 1 contributes 2**(-3/2) * d(1) d(1) d(4) = 3/2**1.5
    assert partial_C1(1).partial_sum == pytest.approx(3.0 * 2 ** -1.5, rel=1e-14)


def test_c1_matches_brute_force():
    Y = 10
    d = build_divisor_table(1, 4 * Y ** 3).values
    total = 0.0
    for h in range(1, Y + 1):
        if any(h % (p * p) == 0 for p in range(2, h + 1)):
            continue
        for a in range(1, Y + 1):
            for b in range(1, Y + 1):
                total += (
                    (a * b * (a + b)) ** -1.5 * h ** -2.25
                    * int(d[a * a * h - 1]) * int(d[b * b * h - 1])
                    * int(d[(a + b) ** 2 * h - 1])
                )
    assert partial_C1(Y).partial_sum == pytest.approx(total, rel=1e-12)


def test_partial_sums_monotone_in_cutoff():
    for fn in (partial_C1, partial_C2, partial_C4, partial_C7):
        vals = [fn(Y).partial_sum for Y in (8, 16, 32, 64)]
        assert vals == sorted(vals)


def test_tail_indicator_definition():
    est = partial_C2(64)
    assert est.tail_indicator == pytest.approx(
        partial_C2(64).partial_sum - partial_C2(32).partial_sum, rel=1e-12)


def test_c2_exceeds_diagonal_subsum():
    # the diagonal pairs {n,m} = {k,l} alone undercount C2
    Y = 1000
    d = build_divisor_table(1, Y).values.astype(np.float64)
    n = np.arange(1, Y + 1, dtype=np.float64)
    g = d * d * n ** -1.5
    diagonal = 2.0 * g.sum() ** 2 - (d ** 4 * n ** -3.0).sum()
    assert partial_C2(Y).partial_sum > diagonal


def test_cutoff_budget():
    with pytest.raises(BudgetExceededError):
        partial_C2(1 << 21)


def test_zeta_em_matches_mpmath():
    for s in (1.5, 2.0, 3.0, 4.5):
        assert zeta_em(s) == pytest.approx(float(mpmath.zeta(s)), rel=1e-13)
    with pytest.raises(ValueError):
        zeta_em(1.0)


def test_extrapolate_sqrt_recovers_exact_model():
    a, b = 7.25, -3.5
    pts = [(Y, a + b * Y ** -0.5) for Y in (64, 128, 256)]
    assert extrapolate_sqrt(pts) == pytest.approx(a, rel=1e-12)
    with pytest.raises(ValueError):
        extrapolate_sqrt([(64, 1.0)])


def test_main_term_coefficients():
    assert main_term_coefficient(1) == 0.25
    assert main_term_coefficient(2) == pytest.approx(0.6542839775, rel=1e-9)
    Y = 32
    c = {name: estimate_constant(name, Y).estimate for name in ("C1", "C2", "C4", "C7")}
    assert main_term_coefficient(3, Y) == 3 * c["C1"] / (28 * math.pi ** 3)
    assert main_term_coefficient(4, Y) == 3 * c["C2"] / (64 * math.pi ** 4)
    assert main_term_coefficient(8, Y) == (35 * c["C7"] - 28 * c["C4"]) / (2048 * math.pi ** 8)
    with pytest.raises(ValueError):
        main_term_coefficient(5)


def test_coefficient_identity_forms():
    c4, c7 = 2.7, 11.3
    lhs = (math.pi * math.sqrt(2)) ** -8 * (35 * c7 / 128 - 7 * c4 / 32)
    rhs = (35 * c7 - 28 * c4) / (2048 * math.pi ** 8)
    assert lhs == pytest.approx(rhs, rel=1e-14)


def test_default_constants_positive():
    assert DEFAULT_CUTOFFS == {"C1": 512, "C2": 4096, "C4": 256, "C7": 256}
    for name, Y in DEFAULT_CUTOFFS.items():
        est = estimate_constant(name)
        assert est == estimate_constant(name, Y)
        assert est.estimate >= est.partial_sum > 0


@pytest.mark.parametrize("Y", [1, 10, 256, 1000])
def test_kernel_first_cumulant_is_d_squared_sum(Y):
    d = build_divisor_table(1, Y).values.astype(np.float64)
    n = np.arange(1, Y + 1, dtype=np.float64)
    direct = float((d * d * n ** -1.5).sum())
    for p, q in ((2, 2), (6, 2), (4, 4)):
        assert _relation_product(p, q, Y)[1, 1] == pytest.approx(direct, rel=1e-12)


def test_first_cumulant_limit_closed_form():
    exact = mpmath.zeta(1.5) ** 4 / mpmath.zeta(3)
    assert first_cumulant_limit() == pytest.approx(float(exact), rel=1e-13)
    assert first_cumulant_limit() == pytest.approx(38.745, abs=5e-4)


@pytest.mark.parametrize("Y", [1, 64, 1000])
@pytest.mark.parametrize("name, partial", [("C2", partial_C2), ("C4", partial_C4),
                                           ("C7", partial_C7)])
def test_estimate_at_least_partial_sum(name, partial, Y):
    est = estimate_constant(name, Y)
    ref = partial(Y)
    assert (est.partial_sum, est.tail_indicator) == (ref.partial_sum, ref.tail_indicator)
    assert est.estimate >= est.partial_sum


def test_estimate_c1_is_partial_sum():
    est = estimate_constant("C1", 32)
    assert est.estimate == est.partial_sum == partial_C1(32).partial_sum
    with pytest.raises(ValueError):
        estimate_constant("C3", 32)


def test_quick_acceptance_c7_above_larger_partial_sum():
    # the {64, 128, 256} square-root fit gave 1.6e7, below this lower bound
    ctx = AcceptanceContext(quick=True)
    assert estimate_constant("C7", ctx.constant_cutoff).estimate >= partial_C7(4096).partial_sum


def test_cutoff_validation():
    for name in DEFAULT_CUTOFFS:
        with pytest.raises(ValueError):
            estimate_constant(name, 0)
    with pytest.raises(BudgetExceededError):
        estimate_constant("C1", (1 << 20) + 1)


def test_partial_sums_memoized_per_cutoff(monkeypatch):
    # C4 at 64 needs the sums at 64 and 32; at 128 only the one at 128 is new
    calls = []

    def counting(p, q, Y):
        calls.append(Y)
        return _relation_product(p, q, Y)

    series._sums.cache_clear()
    monkeypatch.setattr(series, "_relation_product", counting)
    first = partial_C4(64)
    second = partial_C4(128)
    assert calls == [64, 32, 128]
    assert second.tail_indicator == second.partial_sum - first.partial_sum
