import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy import special

from divisorlab import bessel, voronoi
from divisorlab.divisor import (
    RangeOverflowError,
    build_divisor_table,
    delta_at,
    delta_of,
    hyperbola_D,
)
from divisorlab.voronoi import (
    INV_PI_SQRT2,
    bessel_partial_sum,
    bessel_tail_term,
    residual_at,
    residual_mean_square,
    stratified_midpoints,
    truncated_sum,
    truncated_sum_many,
)

U = 2.0 ** -53


def _divisor_weights(Y):
    n = np.arange(1, Y + 1, dtype=np.float64)
    return n, build_divisor_table(1, Y).astype(np.float64) * n ** -0.75


def _split_sqrt(a):
    """(sqrt(a), 26-bit Veltkamp head, rest), as the module docstring defines them."""
    root = np.sqrt(a)
    c = root * 134217729.0  # 2^27 + 1
    head = c - (c - root)
    return root, head, (a - head * head) / (root + head)


def _sigma_fsum(x, Y):
    """Sigma_Y(x) by exact float summation (math.fsum) of the float terms, each
    formed with the kernel's operations: its heads, rests and rint reduction
    of the phase over 2 pi.  The oracle for the chunked pairwise sum."""
    n, w = _divisor_weights(Y)
    root, head, rest = _split_sqrt(n)
    _, head_x, rest_x = _split_sqrt(np.float64(4.0 * x))
    t = head_x * head
    cycles = t - np.rint(t) - 0.125 + head_x * rest + rest_x * root
    return x ** 0.25 * math.fsum(w * np.cos(cycles * (2.0 * math.pi)))


def _sigma_mp(x, Y):
    """Sigma_Y(x) in 30 digits at the float x."""
    d = build_divisor_table(1, Y)
    with mpmath.workdps(30):
        x = mpmath.mpf(x)
        s = mpmath.fsum(int(d[n - 1]) * mpmath.mpf(n) ** mpmath.mpf(-0.75)
                        * mpmath.cos(4 * mpmath.pi * mpmath.sqrt(n * x) - mpmath.pi / 4)
                        for n in range(1, Y + 1))
        return float(x ** 0.25 * s)


def test_bessel_large_argument_expansions():
    # the asymptotic branch must agree with the series branch near crossover
    for z in (20.5, 25.0, 60.0, 300.0):
        assert bessel.y1(z) == pytest.approx(float(special.y1(z)), abs=5e-12)
        assert bessel.k1(z) == pytest.approx(float(special.k1(z)), rel=5e-12)


# Y1 vanishes at 2.1971..., 5.4296..., 8.5960...: there the check is absolute
_Y1_ZEROS = (2.1971413260310170351, 5.4296810407941351328, 8.5960058683311689268)


@pytest.mark.parametrize("z", (0.1, 1.0, 2.197, 5.0, 12.57, 19.99, 20.0) + _Y1_ZEROS)
def test_bessel_small_argument_against_mpmath(z):
    # below the crossover: mpmath at 30 digits, rounded once
    with mpmath.workdps(50):
        y_want = float(mpmath.bessely(1, z))
        k_want = float(mpmath.besselk(1, z))
    y_tol = 1e-15 if z in _Y1_ZEROS or z == 2.197 else 1e-15 * abs(y_want)
    assert abs(bessel.y1(z) - y_want) <= y_tol
    assert bessel.k1(z) == pytest.approx(k_want, rel=1e-15)


@pytest.mark.parametrize("z", (0.0, -1.0, math.nan, math.inf, -math.inf))
def test_bessel_rejects_nonpositive_and_nonfinite(z):
    with pytest.raises(ValueError):
        bessel.y1(z)
    with pytest.raises(ValueError):
        bessel.k1(z)


def test_truncated_sum_trivial_and_validation():
    assert truncated_sum(10.0, 0).value == 0.0
    with pytest.raises(ValueError):
        truncated_sum(0.5, 10)
    with pytest.raises(ValueError):
        truncated_sum(10.0, -1)
    # refused before any sum, as delta_at refuses the same points
    for x in (math.nan, math.inf, 0.5):
        with pytest.raises(ValueError, match="x must be finite and >= 1"):
            residual_at(x, 10)
    # past MAX_SIEVE_ARGUMENT, refused as delta_at and the sieve refuse them
    for x in (2.0 ** 52 + 2, 1e300):
        with pytest.raises(RangeOverflowError):
            truncated_sum(x, 10)
        with pytest.raises(RangeOverflowError):
            residual_at(x, 10)


@pytest.mark.parametrize("xs, Y", [
    ([-5.0, 0.25], 10),
    ([2.0, 0.5], 10),
    ([2.0, math.nan], 10),
    ([math.inf], 10),
    ([2.0], -1),
])
def test_truncated_sum_many_validation(xs, Y):
    with pytest.raises(ValueError):
        truncated_sum_many(np.array(xs), Y)


def test_truncated_sum_first_term():
    # Y = 1: x^{1/4} cos(4 pi sqrt(x) - pi/4)
    x = 7.3
    want = x ** 0.25 * math.cos(4 * math.pi * math.sqrt(x) - math.pi / 4)
    assert truncated_sum(x, 1).value == pytest.approx(want, rel=1e-13)


def test_truncated_sum_many_matches_scalar():
    # a point's value depends neither on the other points nor on the chunks,
    # with points below and above n x = 2^40 in the same call
    xs = np.array([10.5, 99.5, 12345.5, 1e12 + 0.5])
    many = truncated_sum_many(xs, 50)
    for x, v in zip(xs, many):
        assert v == truncated_sum(float(x), 50).value
    xs = stratified_midpoints(1e5, 1e5, 3 * voronoi._CHUNK_ELEMENTS // 16000)
    many = truncated_sum_many(xs, 16000)
    for i in (0, len(xs) // 2, len(xs) - 1):
        assert many[i] == truncated_sum(float(xs[i]), 16000).value


def test_truncated_sum_many_within_bound_of_fsum_oracle():
    # module docstring: (22 + log2 Y) u x^(1/4) W_Y from numpy's pairwise sum
    xs = stratified_midpoints(1e5, 1e5, 128)
    for Y in (1000, 16000):
        W = math.fsum(_divisor_weights(Y)[1])
        many = truncated_sum_many(xs, Y)
        for x, v in zip(xs, many):
            assert abs(v - _sigma_fsum(float(x), Y)) <= (22 + math.log2(Y)) * U * x ** 0.25 * W


# below and above n x = 2^40, where the phases used to switch to long double
_MPMATH_POINTS = [(12345.5, 1000), (100390.5, 1000), (100390.5, 16000),
                  (9.9e9 + 0.5, 2000), (1e12 + 0.5, 2000), (2.0 ** 50 + 0.5, 200)]


@pytest.mark.parametrize("x, Y", _MPMATH_POINTS)
def test_truncated_sum_against_mpmath(x, Y):
    # the module docstring's bound against the exact sum at the float x
    W = math.fsum(_divisor_weights(Y)[1])
    phi = 2 * math.pi * U * (3 + 2.0 ** -21 * math.sqrt(x * Y))
    err = abs(truncated_sum(x, Y).value - _sigma_mp(x, Y))
    assert err <= x ** 0.25 * W * (phi + (30 + math.log2(Y)) * U)


@pytest.mark.parametrize("chunk", [1 << 10, 1 << 15, 1 << 20])
def test_truncated_sum_many_independent_of_chunk(monkeypatch, chunk):
    # points below and above n x = 2^40, in chunks of 1, 16 and all 40 rows
    xs = np.concatenate([[10.5, 12345.5, 1e12 + 0.5], stratified_midpoints(1e5, 1e5, 37)])
    monkeypatch.setattr(voronoi, "_CHUNK_ELEMENTS", chunk)
    want = [truncated_sum(float(x), 2000).value for x in xs]
    assert np.array_equal(truncated_sum_many(xs, 2000), want)


def test_truncated_sum_many_working_set():
    # 512 points x 16000 terms (65 MB as one float64 array) in chunks of
    # _CHUNK_ELEMENTS pairs
    xs = stratified_midpoints(1e5, 1e5, 512)
    truncated_sum_many(xs[:1], 16000)  # the cached weights are not temporaries
    tracemalloc.start()
    try:
        truncated_sum_many(xs, 16000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * voronoi._CHUNK_ELEMENTS, peak


def test_bessel_term_approaches_cosine_term():
    # for large 4 pi sqrt(nx) the Bessel combination reduces to the cosine
    # summand divided by pi*sqrt(2)
    x, n = 10 ** 4.0, 5
    cos_term = (
        x ** 0.25 * 5 ** -0.75 * 2  # d(5) = 2
        * math.cos(4 * math.pi * math.sqrt(n * x) - math.pi / 4)
    ) * INV_PI_SQRT2
    # agreement up to the O(1/z) correction of the asymptotic expansion
    assert bessel_tail_term(x, n) == pytest.approx(cos_term, abs=5e-4)


@pytest.mark.parametrize("x, Y", [(1.2, 5), (1.0, 2), (5000.5, 200)])
def test_bessel_partial_sum_is_fsum_of_terms(x, Y):
    # one sieve for 1..Y gives the same terms as one sieve per term; (1.2, 5)
    # and (1.0, 2) reach the small-argument branch (z <= 20)
    assert bessel_partial_sum(x, Y) == math.fsum(bessel_tail_term(x, n) for n in range(1, Y + 1))
    assert bessel_partial_sum(x, 0) == 0.0


@pytest.mark.parametrize("x", (math.nan, math.inf, 0.5))
def test_bessel_form_rejects_bad_points(x):
    with pytest.raises(ValueError):
        bessel_tail_term(x, 3)
    with pytest.raises(ValueError):
        bessel_partial_sum(x, 3)


def test_bessel_form_rejects_bad_indices():
    with pytest.raises(ValueError):
        bessel_tail_term(10.0, 0)
    with pytest.raises(ValueError):
        bessel_partial_sum(10.0, -1)


def test_bessel_partial_sum_close_to_cosine_form():
    x, Y = 5000.5, 30
    cosine = INV_PI_SQRT2 * truncated_sum(x, Y).value
    assert bessel_partial_sum(x, Y) == pytest.approx(cosine, abs=1e-3)


def test_residual_shrinks_at_half_integer():
    # at a generic half-integer point the truncated expansion converges to
    # Delta, so the residual falls as the cutoff grows
    x = 12345.5
    coarse = abs(residual_at(x, 10).value)
    fine = abs(residual_at(x, 10 ** 5).value)
    assert fine < coarse
    assert fine < 0.2
    assert residual_at(x, 100).value == pytest.approx(
        delta_at(x).delta - INV_PI_SQRT2 * truncated_sum(x, 100).value, rel=1e-12)


def test_series_midpoint_at_integers():
    # at integer x the expansion converges to Delta(x) - d(x)/2, not Delta(x)
    x = 100.0  # d(100) = 9, Delta(100) = 6.03985
    approx = INV_PI_SQRT2 * truncated_sum(x, 2 * 10 ** 5).value
    assert approx == pytest.approx(6.03985 - 4.5, abs=0.25)


def test_stratified_midpoints_deterministic_and_in_range():
    pts = stratified_midpoints(1000.0, 500.0, 64)
    again = stratified_midpoints(1000.0, 500.0, 64)
    assert np.array_equal(pts, again)
    assert np.all(pts >= 1000.0) and np.all(pts < 1500.0)
    assert np.all(pts - np.floor(pts) == 0.5)


def test_residual_mean_square_decreases_with_cutoff():
    X = H = 10 ** 4.0
    coarse = residual_mean_square(X, H, 100, 256)
    fine = residual_mean_square(X, H, 1600, 256)
    assert 0 < fine < coarse


@pytest.mark.parametrize("X, H", [(1e5, 1e4), (1e9 + 0.25, 3e3), (2.0 ** 40 + 700.0, 1500.0)])
def test_residual_mean_square_equals_per_sample_loop(X, H):
    Y, count = 200, 32
    xs = stratified_midpoints(X, H, count)
    deltas = np.array([delta_of(float(x), hyperbola_D(int(m)))
                       for x, m in zip(xs, np.floor(xs).astype(np.int64))])
    r = deltas - INV_PI_SQRT2 * truncated_sum_many(xs, Y)
    assert residual_mean_square(X, H, Y, count) == float(np.mean(r * r))


def test_residual_mean_square_validation():
    with pytest.raises(ValueError):
        residual_mean_square(1.0, 10.0, 10, 16)
    for X, H in [(math.nan, 1e5), (math.inf, 1e5), (1e5, math.nan), (1e5, math.inf)]:
        with pytest.raises(ValueError, match="finite X"):
            residual_mean_square(X, H, 100, 16)
    with pytest.raises(ValueError):
        stratified_midpoints(10.0, 5.0, 0)
