"""The thirteen acceptance criteria, one test each, at full scale.

Each test prints the criterion's PASS/FAIL line (run with -s to stream them)
and asserts it passed.  Criteria 5 (its k=3 half), 9 and 12 are currently
genuine failures of the stated tolerances at reachable scales; the measured
numbers and the analysis are recorded in the assertion messages and in the
project notes.  They are asserted anyway: these tests are the honest gate,
not a description of the status quo.
"""

import os

import pytest

from divisorlab import acceptance

_THREADS = int(os.environ.get("DIVISORLAB_TEST_THREADS", "8"))


@pytest.fixture(scope="module")
def ctx():
    return acceptance.AcceptanceContext(quick=False, threads=_THREADS)


def _run(criterion, ctx):
    res = criterion(ctx)
    print()
    print(res.line())
    assert res.passed, res.line()


def test_criterion_01_exact_agreement(ctx):
    _run(acceptance.criterion_1, ctx)


def test_criterion_01_detail_is_the_same_on_a_rerun():
    # its time is the seconds column of acceptance.csv, not part of the detail
    quick = acceptance.AcceptanceContext(quick=True)
    assert acceptance.criterion_1(quick) == acceptance.criterion_1(quick)


def test_criterion_02_pointwise_delta(ctx):
    _run(acceptance.criterion_2, ctx)


def test_criterion_03_first_moment(ctx):
    _run(acceptance.criterion_3, ctx)


def test_criterion_04_second_moment(ctx):
    _run(acceptance.criterion_4, ctx)


def test_criterion_05_third_fourth_moments(ctx):
    # Known genuine failure, k=3 only: at X = 1e7 the third moment still sits
    # ~29% below its asymptote (dev 0.459 -> 0.286; the deficit fits
    # 1.43 X^-0.1 at all four checkpoints).  C1 has converged (49.334 at
    # cutoff 1e4) and a larger C1 would widen the gap.  The k=4 half passes
    # (dev 0.069 -> 0.0145) with the completed C2 estimate 3206.27.
    _run(acceptance.criterion_5, ctx)


def test_criterion_06_eighth_moment(ctx):
    # Uses the completed C4/C7 estimates at cutoff 1e4 (4.077e6, 9.568e7),
    # each at least its partial sum: ratio 0.730 -> 0.857.
    _run(acceptance.criterion_6, ctx)


def test_criterion_07_coefficient_identity(ctx):
    _run(acceptance.criterion_7, ctx)


def test_criterion_08_truncation_mean_square(ctx):
    _run(acceptance.criterion_8, ctx)


def test_criterion_09_gap_constants(ctx):
    # Known genuine failure for the 8-variable exponent 127/2: the measured
    # minimal gaps shrink far more slowly than Y^{-127/2}, so the rescaled
    # constants explode by ~1e16 per doubling of Y.  127/2 is the conjugate
    # lower bound and the gap is only promised >> Y^{-127/2}; an independent
    # brute force with a 60-digit recheck gives the same gaps (3.3950e-3 at
    # Y=6, 4.8229e-6 at Y=12).  The 4-variable part passes.
    _run(acceptance.criterion_9, ctx)


def test_criterion_10_counting_bounds(ctx):
    _run(acceptance.criterion_10, ctx)


def test_criterion_11_expsum_moment(ctx):
    _run(acceptance.criterion_11, ctx)


def test_criterion_12_abs_moment_growth(ctx):
    # Known genuine failure: over X in {1e4..1e6} the effective constants of
    # the high moments are still rising, so the measured log-log slopes
    # exceed the asymptotic exponent 1 + A/4 by more than the 0.05 allowance.
    # Even int Delta^8, whose X^3 law is proven, fits slope 3.117 there.
    _run(acceptance.criterion_12, ctx)


def test_criterion_13_thread_determinism(ctx):
    _run(acceptance.criterion_13, ctx)
