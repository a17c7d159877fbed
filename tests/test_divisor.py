import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divisorlab.arith import BudgetExceededError
from divisorlab.divisor import (
    _MANY_ROWS,
    _SCATTER_CHUNK,
    ANCHOR_SPAN,
    MAX_SIEVE_ARGUMENT,
    MAX_SIEVE_WINDOW,
    RangeOverflowError,
    anchor_grid,
    build_divisor_table,
    delta_at,
    delta_of,
    delta_unit,
    hyperbola_D,
    hyperbola_D_many,
    isqrt_many,
    prefix_block,
    unit_branch,
)
from divisorlab.moments import DEFAULT_BLOCK
from divisorlab.series import MAX_CONSTANT_CUTOFF
from oracles import d_of_square, d_trial_division, delta_mp

# d(1..12) by hand
D_SMALL = [1, 2, 2, 3, 2, 4, 2, 4, 3, 4, 2, 6]


def sieve_oracle(lo: int, hi: int) -> np.ndarray:
    """d(n) for n in [lo, hi] by one strided slice per divisor d <= sqrt(hi)."""
    values = np.zeros(hi - lo + 1, dtype=np.int32)
    for d in range(1, math.isqrt(hi) + 1):
        first = -(-max(lo, d * d) // d) * d
        if first > hi:
            continue
        values[first - lo :: d] += 2
        if lo <= d * d <= hi:
            values[d * d - lo] -= 1
    return values


def hyperbola_oracle(x: int) -> int:
    """D(x) by the hyperbola identity, one Python step per n <= sqrt(x)."""
    root = math.isqrt(x)
    return 2 * sum(map(x.__floordiv__, range(1, root + 1))) - root * root


@st.composite
def windows(draw):
    """[lo, hi] with lo up to 1e12 and width 0..5000; half of them are moved
    so that they contain a perfect square."""
    lo = draw(st.integers(1, 10 ** 12))
    width = draw(st.integers(0, 5000))
    if draw(st.booleans()):
        s = math.isqrt(lo) + 1
        lo = max(1, s * s - draw(st.integers(0, width)))
    return lo, lo + width


def test_divisor_table_small():
    table = build_divisor_table(1, 12)
    assert list(table) == D_SMALL
    assert table[12 - 1] == 6
    assert len(table) == 12


def test_divisor_table_offset_matches_trial_division():
    lo = 10 ** 6
    table = build_divisor_table(lo, lo + 200)
    for n in range(lo, lo + 201):
        assert table[n - lo] == d_trial_division(n)


def test_divisor_table_rejects_bad_ranges():
    with pytest.raises(ValueError):
        build_divisor_table(0, 5)
    with pytest.raises(ValueError):
        build_divisor_table(10, 5)
    with pytest.raises(RangeOverflowError):
        build_divisor_table(1, 1 << 53)


def test_hyperbola_matches_prefix_sums():
    prefix = np.cumsum(build_divisor_table(1, 5000))
    for x in (1, 2, 10, 100, 999, 5000):
        assert hyperbola_D(x) == prefix[x - 1]


def test_hyperbola_known_value():
    # D(100) = sum_{k<=100} floor(100/k) = 482
    assert hyperbola_D(100) == 482
    assert hyperbola_D(100) == sum(100 // k for k in range(1, 101))


def test_hyperbola_many_matches_scalar():
    xs = np.array([1, 2, 3, 10, 99, 100, 101, 4096, 10 ** 6], dtype=np.int64)
    many = hyperbola_D_many(xs)
    for x, v in zip(xs, many):
        assert v == hyperbola_D(int(x)) == hyperbola_oracle(int(x))


def test_hyperbola_many_unsorted_input():
    xs = np.array([500, 3, 10 ** 5, 77], dtype=np.int64)
    assert list(hyperbola_D_many(xs)) == [hyperbola_oracle(int(x)) for x in xs]


def test_hyperbola_many_across_runs_and_repeats():
    # more arguments than one sorted run, with repeats, squares and square - 1
    rng = np.random.default_rng(3)
    xs = np.concatenate([rng.integers(1, 3 * 10 ** 6, 1500), [4, 3, 4, 10 ** 6, 10 ** 6 - 1]])
    prefix = np.cumsum(build_divisor_table(1, 3 * 10 ** 6), dtype=np.int64)
    assert np.array_equal(hyperbola_D_many(xs), prefix[xs - 1])
    assert hyperbola_D_many(np.array([], dtype=np.int64)).size == 0


def test_hyperbola_many_refuses_beyond_max_argument():
    with pytest.raises(RangeOverflowError):
        hyperbola_D_many(np.array([5, MAX_SIEVE_ARGUMENT + 1], dtype=np.int64))


# node values of the anchored evaluator against 50-digit mpmath, absolute
NODE_BOUND = 3e-11


def test_delta_unit_broadcasts_and_left_limit():
    m0, j = 4, np.array([0, 1, 3])
    D = np.array([hyperbola_D(m0 + int(k)) for k in j])
    coef = unit_branch(m0, j, D)
    u = np.array([0.0, 0.25, 1.0])
    got = delta_unit(coef[:, :, None], u)
    assert got.shape == (3, 3) and got.dtype == np.float64
    for i, k in enumerate(j):
        for n, un in enumerate(u):
            assert abs(got[i, n] - float(delta_mp(m0 + k, D[i], un))) <= NODE_BOUND
    # u = 1 is the left limit at m + 1: Delta(m + 1) less the jump d(m + 1)
    assert got[0, 2] == pytest.approx(delta_at(5.0).delta - d_trial_division(5), abs=1e-12)


@pytest.mark.parametrize("lo, hi, want", [
    (1, 40000, [1 << k for k in range(15)] + [16385, 32769]),
    (2, 10, [2, 4, 8]),
    (3, 4, [3]),
    (8192, 30000, [8192, 16384, 24576]),
    (10 ** 6, 10 ** 6 + 40000, [10 ** 6, 10 ** 6 + 16384, 10 ** 6 + 32768]),
])
def test_anchor_grid(lo, hi, want):
    grid = anchor_grid(lo, hi)
    assert grid == want
    # each anchor serves at most min(m0, ANCHOR_SPAN) intervals
    for m0, nxt in zip(grid, grid[1:] + [hi]):
        assert nxt - m0 <= min(m0, ANCHOR_SPAN)


def test_unit_branch_degree_follows_the_anchor():
    # the first dropped Taylor term stays below 2**-56 * max(1, c**(1/4))
    degrees = {m0: len(unit_branch(m0, np.array([0]), np.array([hyperbola_D(m0)]))) - 1
               for m0 in (1, 1000, 10 ** 6, 10 ** 10)}
    assert degrees == {1: 29, 1000: 5, 10 ** 6: 3, 10 ** 10: 2}


@settings(max_examples=80, deadline=None)
@given(st.integers(1, MAX_SIEVE_ARGUMENT - ANCHOR_SPAN), st.integers(0, ANCHOR_SPAN - 1),
       st.floats(0.0, 1.0), st.integers(-4096, 4096))
def test_anchored_node_within_bound_of_mpmath(m0, j, u, offset):
    # D need not be D(m) for the evaluator: any integer near x log x gives a
    # branch value of the size of Delta, without an O(sqrt(x)) sieve
    j = j % min(m0, ANCHOR_SPAN)
    f_mid = -delta_mp(m0 + j, 0, 0.5)  # x log x + (2 gamma - 1) x at the midpoint
    D = int(mpmath.floor(f_mid)) + offset
    coef = unit_branch(m0, np.array([j]), np.array([D], dtype=np.int64))
    got = float(delta_unit(coef, u)[0])
    assert abs(got - float(delta_mp(m0 + j, D, u))) <= NODE_BOUND


@pytest.mark.parametrize("x, bound", [(1.5, 1e-15), (1e12 + 0.25, 1e-9), (2.0 ** 51 + 0.5, 1e-8)])
def test_delta_at_matches_mpmath(x, bound):
    # delta_at takes x log x to 136 bits: 1.08e-3 and 2.5e-3 off at the
    # last two points through the former float64 and long double paths
    s = delta_at(x)
    assert abs(s.delta - float(delta_mp(math.floor(x), s.D, x - math.floor(x)))) <= bound


@pytest.mark.parametrize("x", [2.0 ** 40 + 12345.5, 2e12 + 0.3, 3e14 + 0.75])
def test_delta_at_above_2_40_matches_mpmath(x):
    # no precision switch at 2**40: correctly rounded here, where long double
    # was held to 4 * 2**-64 * x log x (2.2e-3 at 3e14)
    s = delta_at(x)
    exact = float(delta_mp(math.floor(x), s.D, x - math.floor(x)))
    assert abs(s.delta - exact) <= 0.5 * np.spacing(abs(exact))


def _ulps(got, x, D):
    """|got - (D - f(x))| in units in the last place of D - f(x), against the
    50-digit oracle: Delta(x) when D is D(floor(x))."""
    exact = delta_mp(math.floor(x), D, x - math.floor(x))
    return float(abs(mpmath.mpf(got) - exact)) / np.spacing(abs(float(exact)))


def test_delta_correctly_rounded():
    # delta_at at fixed points from 1.5 to 2**51, then delta_of at 200 uniform
    # x in [1, 2**52), each with a D that puts Delta(x) within a few x**(1/4)
    # of 0, its size in the moments, without an O(sqrt(x)) hyperbola sum
    for x in (1.5, 4.0 - 1e-9, 100.0, 2.0 ** 40 + 12345.5, 1e12 + 0.25, 2e12 + 0.3,
              3e14 + 0.75, 2.0 ** 51 + 0.5):
        s = delta_at(x)
        assert _ulps(s.delta, x, s.D) <= 0.5, x
    rng = np.random.default_rng(28)
    for x in rng.uniform(1.0, 2.0 ** 52, 200):
        f = -delta_mp(math.floor(x), 0, x - math.floor(x))
        D = int(mpmath.floor(f)) + int(rng.integers(-4, 5) * max(1.0, x ** 0.25))
        assert _ulps(delta_of(x, D), x, D) <= 0.5, x


def test_delta_at_100():
    s = delta_at(100.0)
    assert s.D == 482
    assert s.delta == pytest.approx(6.0399, abs=1e-3)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, 0.5])
def test_delta_at_rejects_bad_x(x):
    with pytest.raises(ValueError, match="x must be finite and >= 1"):
        delta_at(x)
    with pytest.raises(ValueError, match="x must be finite and >= 1"):
        delta_of(x, 5)


def test_delta_jump_at_integers():
    # Delta is right-continuous with a jump of d(m) at m
    before = delta_at(4.0 - 1e-9)
    after = delta_at(4.0)
    assert after.D - before.D == 3  # d(4) = 3
    assert after.delta - before.delta == pytest.approx(3.0, abs=1e-6)


def test_prefix_block_seeding():
    direct = np.cumsum(build_divisor_table(1, 3000), dtype=np.int64)
    blk = prefix_block(1001, 3001)
    assert np.array_equal(blk, direct[1000:3000])


# Below this hi, sieve_oracle's Python loop over the sqrt(hi) divisors stays
# under about 0.1 s.
ORACLE_HI = 1 << 32
# With at most 64 values, every divisor past the dense band's 64 has one
# multiple at most, so the sparse chunks start at 65 + k * _SCATTER_CHUNK.
SPARSE_EDGE = 65 + _SCATTER_CHUNK


@st.composite
def prefix_windows(draw):
    """(lo, w) with lo - 1 of 0 to 52 bits, w in 1..4096 and hi <= 2**52."""
    w = draw(st.integers(1, 4096))
    bits = draw(st.integers(0, 52))
    lo = draw(st.integers(1, min(1 << bits, MAX_SIEVE_ARGUMENT - w + 1)))
    return lo, w


@settings(max_examples=40, deadline=None)
@given(prefix_windows())
@example((1, 4096))
@example((2, 1))
@example((64 ** 2 + 1, 64))  # isqrt(lo - 1) the dense band's last divisor
@example((65 ** 2 + 1, 64))  # and the first sparse one
@example(((SPARSE_EDGE - 1) ** 2 + 1, 64))  # the last divisor of a sparse chunk
@example((SPARSE_EDGE ** 2 + 1, 64))  # the first of the next
@example((10 ** 12 + 1, 4096))  # isqrt(lo - 1) = isqrt(hi)
@example((((1 << 26) - 1) ** 2, 4096))  # lo - 1 = s**2 - 1, s**2, s**2 + 1
@example((((1 << 26) - 1) ** 2 + 1, 2))
@example((((1 << 26) - 1) ** 2 + 2, 1))
@example((1 << 52, 1))  # lo - 1 = s**2 - 1 at s = 2**26, the largest argument
def test_prefix_block_matches_hyperbola_and_oracle(window):
    # prefix_block seeds its sums with the sieve's own quotients: D(lo - 1)
    # from the quotients floor((lo - 1)/d), d <= isqrt(lo - 1).  Both ends are
    # checked against hyperbola_D and the steps between against sieve_oracle
    # where hi < ORACLE_HI; above it, against build_divisor_table, which
    # test_divisor_table_matches_slice_oracle checks against that oracle.
    lo, w = window
    hi = lo + w - 1
    blk = prefix_block(lo, hi + 1)
    assert blk.dtype == np.int64 and len(blk) == w
    assert [int(blk[0]), int(blk[-1])] == [hyperbola_D(lo), hyperbola_D(hi)]
    if w > 1:
        steps = sieve_oracle(lo + 1, hi) if hi < ORACLE_HI else build_divisor_table(lo + 1, hi)
        assert np.array_equal(np.diff(blk), steps)


@settings(max_examples=60, deadline=None)
@given(windows())
def test_divisor_table_matches_slice_oracle(window):
    lo, hi = window
    got = build_divisor_table(lo, hi)
    assert got.dtype == np.int32
    assert np.array_equal(got, sieve_oracle(lo, hi))


@pytest.mark.parametrize("lo, width", [
    (1, 1 << 16),            # every divisor below the slice/scatter split
    (10 ** 8, 1 << 20),      # split n/128 = 8192 below sqrt(hi) = 10052
    (10 ** 9 - 7, 1 << 16),  # split 512, scatter chunks with several hits per d
    (10 ** 10 + 12345, 1 << 14),  # chunks from several hits per d through one
                                  # straddling the window length to one hit at most
    (2 ** 21 + 2, 1 << 18),  # a stream block: every divisor in the dense band
    (2001 ** 2 - 1, 1 << 18),  # dense-band d past 2001 start at d*d, not past lo
    (65 * 153846154, 3900),  # the first chunk's d = 65 divides lo and has
                             # n // 65 + 1 = 61 multiples, one per pass
])
def test_divisor_table_matches_slice_oracle_wide(lo, width):
    assert np.array_equal(build_divisor_table(lo, lo + width),
                          sieve_oracle(lo, lo + width))


def test_divisor_table_window_budget():
    # the longest window is accepted; one value more is refused before any
    # allocation, where 2**52 values would have asked numpy for 16 PiB.  The
    # limit is above every caller and bench/baseline.md's 1e7-value table.
    assert MAX_SIEVE_WINDOW >= max(DEFAULT_BLOCK, 10 ** 6, MAX_CONSTANT_CUTOFF, 3 * 10 ** 6,
                                   10 ** 7)
    lo = 10 ** 9
    table = build_divisor_table(lo, lo + MAX_SIEVE_WINDOW - 1)
    assert int(table.sum()) == hyperbola_D(lo + MAX_SIEVE_WINDOW - 1) - hyperbola_D(lo - 1)
    for hi in (lo + MAX_SIEVE_WINDOW, MAX_SIEVE_ARGUMENT):
        with pytest.raises(BudgetExceededError, match="sieve budget"):
            build_divisor_table(lo, hi)


def test_divisor_table_sums_to_hyperbola_at_max_argument():
    lo = MAX_SIEVE_ARGUMENT - 5000
    total = int(build_divisor_table(lo, MAX_SIEVE_ARGUMENT).sum())
    assert total == hyperbola_D(MAX_SIEVE_ARGUMENT) - hyperbola_D(lo - 1)


# d(n) from known factorizations: 10**12 = 2**12 5**12, and
# 2**52 - 1 = 3 * 5 * 53 * 157 * 1613 * 2731 * 8191
PLANTED = [(10 ** 12, 169), ((1 << 52) - 1, 128), (1 << 52, 53)]


@pytest.mark.parametrize("n, d_n", PLANTED)
def test_divisor_table_planted_factorization_alone(n, d_n):
    assert build_divisor_table(n, n).tolist() == [d_n]


@pytest.mark.parametrize("lo", [10 ** 12 - (1 << 15), MAX_SIEVE_ARGUMENT - (1 << 16) + 1])
def test_divisor_table_planted_factorizations_in_a_window(lo):
    # a 2**16 window, where all but the smallest divisors have one multiple at most
    table = build_divisor_table(lo, lo + (1 << 16) - 1)
    inside = [(n, d_n) for n, d_n in PLANTED if lo <= n < lo + (1 << 16)]
    assert inside and [int(table[n - lo]) for n, _ in inside] == [d_n for _, d_n in inside]


def test_divisor_table_trial_division_near_1e10():
    lo = 10 ** 10 - 20
    table = build_divisor_table(lo, lo + 40)
    for n in range(lo, lo + 41):
        assert table[n - lo] == d_trial_division(n)


def test_divisor_table_memory_is_bounded():
    # a 2**16 window at 1e12 takes 1e6 divisors in chunks; the temporaries
    # must not grow with sqrt(hi) (1.5 MiB here, 10 MiB with chunks of 2**20
    # divisors)
    tracemalloc.start()
    try:
        build_divisor_table(10 ** 12, 10 ** 12 + 65535)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 ** 20


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 1 << 20), st.sampled_from([-1, 0, 1]))
def test_hyperbola_matches_oracle_near_squares(s, offset):
    x = max(1, s * s + offset)
    assert hyperbola_D(x) == hyperbola_oracle(x)


@pytest.mark.parametrize("k", [-1000, -1, 0, 1, 7, 1000])
def test_hyperbola_matches_oracle_near_2_40(k):
    x = (1 << 40) + k
    assert hyperbola_D(x) == hyperbola_oracle(x)


def test_hyperbola_matches_oracle_at_max_argument():
    assert hyperbola_D(MAX_SIEVE_ARGUMENT) == hyperbola_oracle(MAX_SIEVE_ARGUMENT)


def _floor_division_D(x: int) -> int:
    """D(x) from numpy's exact int64 floor division in chunks, which shares
    nothing with the float quotients; near 2**52 the pure-Python sum costs
    about 8 s a point."""
    root = math.isqrt(x)
    quotients = sum(int((x // np.arange(a, min(a + (1 << 20), root + 1), dtype=np.int64)).sum())
                    for a in range(1, root + 1, 1 << 20))
    return 2 * quotients - root * root


def _chunk_edge(width: int, below: int) -> int:
    """The largest root r <= below at which a chunk of hyperbola_D_many's
    divisor loop starts (r = 1 + k * width): rows of root r - 1 end one chunk
    before rows of root r."""
    return 1 + (below - 1) // width * width


def test_hyperbola_quotients_exact_up_to_max_argument():
    # hyperbola_D_many truncates the float64 quotients fl(x/n), exact while
    # x + n < 2**53, and adds them as int64.  The arguments fill two sorted
    # runs: the first of _MANY_ROWS rows, 506 near 1025**2 and 6 near r**2
    # for an r near 10**6; the second the other 2 near r**2, 10**12 and its
    # neighbours, s**2 - 1 and s**2 for an s near 2**26, and the three
    # below.  Each r and s starts a chunk of its run's divisor loop, and
    # each cluster has roots on both sides of it.  Below 2**40 every sum is
    # checked against the pure-Python one; a quotient rounded to nearest
    # would be off for about half the n, and float quotients summed before
    # the int64 cast are off by their fractions.  s**2 - 1 and (2**26 - 1)**2
    # are checked by numpy's exact int64 floor division, D(s**2) - D(s**2 - 1)
    # = d(s**2), D(2**52) against the pure-Python sum above, and
    # D(2**52 - 1) = D(2**52) - d(2**52).
    first = _SCATTER_CHUNK // _MANY_ROWS
    small, r = _chunk_edge(first, 1025), _chunk_edge(first, 10 ** 6)
    s = _chunk_edge(_SCATTER_CHUNK // 10, 1 << 26)
    checked = ([small * small + k for k in range(-253, 253)] + [r * r + k for k in range(-3, 5)]
               + [10 ** 12 - 1, 10 ** 12, 10 ** 12 + 1])
    xs = checked + [s * s - 1, s * s, ((1 << 26) - 1) ** 2, (1 << 52) - 1, 1 << 52]
    assert len(xs) == _MANY_ROWS + 10
    assert [math.isqrt(x) for x in xs[_MANY_ROWS - 7 : _MANY_ROWS + 1]] == [small] + [r - 1] * 3 + [r] * 4
    got = hyperbola_D_many(np.array(xs, dtype=np.int64)).tolist()
    assert got[: len(checked)] == [hyperbola_oracle(x) for x in checked]
    at_s = got[len(checked) :]
    assert [at_s[0], at_s[2]] == [_floor_division_D(x) for x in (s * s - 1, ((1 << 26) - 1) ** 2)]
    assert at_s[1] - at_s[0] == d_of_square(s)
    assert at_s[4] - at_s[3] == 53  # 2**52 has 53 divisors


def test_isqrt_many_exact_up_to_max_argument():
    # both sides of every square k*k, for small k and for the 10^4 k just
    # below 2^26, where the float64 root is closest to the next integer
    k = np.concatenate([np.arange(1, (1 << 16) + 1), np.arange((1 << 26) - 10 ** 4, 1 << 26)])
    xs = np.concatenate([k * k - 1, k * k, k * k + 1, [1 << 52]])
    assert isqrt_many(xs).tolist() == [math.isqrt(x) for x in xs.tolist()]


def test_hyperbola_rejects_beyond_max_argument():
    with pytest.raises(RangeOverflowError):
        hyperbola_D(MAX_SIEVE_ARGUMENT + 1)


@pytest.mark.parametrize("call", [lambda: hyperbola_D(10 ** 30), lambda: delta_at(1e30),
                                  lambda: delta_of(1e30, 5), lambda: delta_of(2.0 ** 52 + 2, 5)])
def test_beyond_int64_is_refused_before_conversion(call):
    # 10**30 has no int64 form: the range check must come first
    with pytest.raises(RangeOverflowError):
        call()
