import cmath
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from divisorlab import expsum
from divisorlab.arith import BudgetExceededError
from divisorlab.expsum import POINTS_PER_PHASE_UNIT, abs_S_grid, eval_S, moment8_S


def _grid_points(U, N, k):
    return int(POINTS_PER_PHASE_UNIT * U * (2 * N) ** (1.0 / k)) + 1


def _abs_S_mp(x, N, k):
    """|S(x, N, k)| in 30 digits at the float x."""
    with mpmath.workdps(30):
        x = mpmath.mpf(float(x))
        return float(abs(mpmath.fsum(mpmath.expjpi(2 * x * mpmath.root(n, k))
                                     for n in range(N + 1, 2 * N + 1))))


def test_eval_S_at_zero():
    s = eval_S(0.0, 10, 2)
    assert s.value == pytest.approx(10.0 + 0j, abs=1e-14)


def test_eval_S_hand_oracle():
    # S(1, 2, 2) = e(sqrt(3)) + e(sqrt(4)) summed over n in (2, 4]
    want = sum(cmath.exp(2j * math.pi * math.sqrt(n)) for n in (3, 4))
    got = eval_S(1.0, 2, 2).value
    assert got == pytest.approx(want, abs=1e-13)


def test_eval_S_cube_roots():
    want = sum(cmath.exp(2j * math.pi * 0.7 * n ** (1.0 / 3.0)) for n in range(5, 9))
    assert eval_S(0.7, 4, 3).value == pytest.approx(want, abs=1e-12)


def test_eval_S_conjugate_symmetry():
    a = eval_S(2.5, 50, 2).value
    b = eval_S(-2.5, 50, 2).value
    assert a == pytest.approx(b.conjugate(), abs=1e-12)


def test_eval_S_validation():
    with pytest.raises(ValueError):
        eval_S(1.0, 1, 2)
    with pytest.raises(ValueError):
        eval_S(1.0, 10, 1)


def test_trivial_bound():
    # |S| <= N always
    for x in np.linspace(0.1, 20.0, 7):
        assert abs(eval_S(float(x), 32, 2).value) <= 32.0 + 1e-9


def test_moment8_bound_ratio():
    integral, ratio = moment8_S(64.0, 16, 2)
    assert integral > 0
    bound = 64.0 * 16 ** 4 + 16 ** 7.5
    assert ratio == pytest.approx(integral / bound, rel=1e-15)
    assert ratio < 8.0  # far below the theoretical envelope in practice


def test_moment8_grid_refinement_stable():
    # doubling the minimum sample count must not change a resolved integral
    a, _ = moment8_S(4.0, 8, 2, samples=1024)
    b, _ = moment8_S(4.0, 8, 2, samples=2048)
    assert b == pytest.approx(a, rel=2e-3)


def test_moment8_validation():
    with pytest.raises(ValueError):
        moment8_S(10.0, 16, 2, samples=8)
    with pytest.raises(ValueError):
        moment8_S(0.0, 16, 2)
    for U in (math.nan, math.inf):
        with pytest.raises(ValueError):
            moment8_S(U, 16, 2)
    with pytest.raises(BudgetExceededError):
        moment8_S(10.0 ** 9, 4096, 2)  # grid budget
    for N, k in ((1, 2), (16, 1)):
        with pytest.raises(ValueError):
            moment8_S(10.0, N, k)
        with pytest.raises(ValueError):
            abs_S_grid(np.linspace(10.0, 20.0, 16), N, k)


def test_term_budget_refused_before_allocation():
    # the largest term array at N terms and M points: the N roots, or the
    # N x B steps (B = ceil(sqrt(M)) bases of B steps); each at its budget
    # edge, then past it, where the call is refused before it traces more
    # than a few kB
    budget = expsum.MAX_TERM_ELEMENTS
    expsum._check_terms(budget, 2)
    expsum._check_terms(budget // 8, 2, 64)
    expsum._check_terms(budget // 4, 2, 16)
    calls = [lambda: eval_S(1.0, budget + 1, 2), lambda: eval_S(1.0, 10 ** 10, 2),
             lambda: abs_S_grid(np.linspace(1.0, 2.0, 64), budget // 8 + 1, 2),
             lambda: abs_S_grid(np.linspace(1.0, 2.0, 57), budget // 8 + 1, 2),
             lambda: moment8_S(1e-3, budget // 4 + 1, 2)]  # 16 points
    for call in calls:
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError, match="term array"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 14, peak


def test_abs_S_grid_within_stated_bound():
    # the module docstring's absolute bound, at the 32 grid points of smallest
    # |S| (where the relative error is largest) and 32 spread over the grid
    for U, N, k in ((4096.0, 64, 2), (256.0, 16, 3)):
        points = _grid_points(U, N, k)
        xs = np.linspace(U, 2 * U, points)
        got = abs_S_grid(xs, N, k)
        bound = 16 * math.pi * 2.0 ** -53 * N * (2 * U) * (2 * N) ** (1.0 / k)
        picks = np.concatenate([np.argsort(got)[:32], np.linspace(0, points - 1, 32).astype(int)])
        worst = max(abs(got[i] - _abs_S_mp(xs[i], N, k)) for i in picks)
        assert worst <= bound, (U, N, k, worst, bound)


def test_moment8_matches_direct_summation(monkeypatch):
    # reference: eval_S at every linspace point and one trapezoid; a tiny
    # block size also runs many grid blocks and trapezoid panels
    U, N, k = 64.0, 16, 2
    xs = np.linspace(U, 2 * U, _grid_points(U, N, k))
    direct = np.array([abs(eval_S(float(x), N, k).value) for x in xs]) ** 8
    want = float(np.trapezoid(direct, xs))
    assert moment8_S(U, N, k)[0] == pytest.approx(want, rel=1e-10)
    monkeypatch.setattr(expsum, "_BLOCK_ELEMENTS", 100)
    assert moment8_S(U, N, k)[0] == pytest.approx(want, rel=1e-10)


def test_moment8_working_set_at_largest_grid():
    # criterion 11's largest grid (5.9e6 points): beyond xs and the values,
    # which the trapezoid needs, only a few blocks of 2**20 complex values
    U, N = 65536.0, 256
    held = 2 * 8 * _grid_points(U, N, 2)
    tracemalloc.start()
    try:
        moment8_S(U, N, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - held <= 3 * 16 * expsum._BLOCK_ELEMENTS, (peak, held)
