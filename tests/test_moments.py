import math
import sys
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from divisorlab import moments, series
from divisorlab.arith import BudgetExceededError
from divisorlab.divisor import (
    ANCHOR_SPAN,
    anchor_grid,
    delta_unit,
    hyperbola_D,
    prefix_block,
    unit_branch,
)
from divisorlab.moments import (
    GL8_NODES,
    GL8_WEIGHTS,
    WindowSpec,
    _int_powers,
    moment,
    moment_main_term,
    moment_profile,
    window_main_term,
    window_moment,
)
from divisorlab.parallel import ordered_map
from divisorlab.series import estimate_constant, main_term_coefficient

import oracles

U = 2.0 ** -53


def _oracle_unit_interval(m, power=None, abs_power=None):
    """50-digit mpmath quadrature of Delta**k or |Delta|**A over [m, m+1),
    split at the branch root when the smooth branch changes sign inside the
    interval."""
    D = hyperbola_D(m)
    with mpmath.workdps(50):
        c = 2 * mpmath.euler - 1

        def g(x):
            return D - x * mpmath.log(x) - c * x

        pieces = [mpmath.mpf(m), mpmath.mpf(m + 1)]
        if g(m) * g(m + 1) < 0:
            root = mpmath.findroot(g, m + 0.5)
            pieces.insert(1, root)
        total = mpmath.mpf(0)
        f = (lambda x: g(x) ** power) if power is not None else (lambda x: abs(g(x)) ** abs_power)
        for a, b in zip(pieces, pieces[1:]):
            total += mpmath.quad(f, [a, b])
        return float(total)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8])
def test_unit_interval_quadrature_matches_mpmath(k):
    # Delta changes sign inside [1000, 1001) and is negative on all of
    # [1007, 1008), where odd powers must keep their sign
    assert _oracle_unit_interval(1000, power=1) > 0 > _oracle_unit_interval(1007, power=1)
    for m in (1000, 1007):
        prof = moment_profile([k], [], [m + 1], lo=m)
        want = _oracle_unit_interval(m, power=k)
        assert prof[m + 1][("pow", k)] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("m, bound", [(2 * 10 ** 12, 2e-9), (10 ** 14, 1e-7)])
def test_unit_interval_above_2_40_matches_mpmath(m, bound):
    # the bounds are those of the former long double path (6.4e-11 and
    # 1.0e-8 measured); the anchored evaluator, with no precision switch, is
    # within 1e-15 here, and test_anchored_chunk_matches_mpmath holds it to
    # 1e-11 relative per interval
    got = moment_profile([2], [], [m + 1], lo=m)[m + 1][("pow", 2)]
    assert got == pytest.approx(_oracle_unit_interval(m, power=2), rel=bound)


# chunk starts of the anchored evaluator's accuracy test: the first anchors
# of a profile from 1 or 2, where x/m0 is largest, through 2**51
_ANCHOR_STARTS = [1, 2, 10 ** 3, 10 ** 4, 10 ** 6, 10 ** 10, 10 ** 12, 2 * 10 ** 12, 10 ** 14,
                  2 ** 51]


@pytest.mark.parametrize("m0", _ANCHOR_STARTS)
def test_anchored_chunk_matches_mpmath(m0):
    # 15 intervals across the 2**14 from m0, each evaluated from its anchor
    # on the profile's grid: every GL8 node within 3e-11 of 50-digit mpmath
    # (4.1e-12 the worst of 300 intervals per m0), and each interval's GL8
    # sums of Delta**2 and Delta**8 within 1e-11 relative of the same sums
    # of the mpmath values (1.9e-12)
    n = ANCHOR_SPAN
    D = prefix_block(m0, m0 + n)
    grid = anchor_grid(m0, m0 + n)
    for j in np.linspace(0, n - 1, 15).astype(int):
        anchor = grid[np.searchsorted(grid, m0 + j, "right") - 1]
        coef = unit_branch(anchor, np.array([m0 + j - anchor]), D[j : j + 1])
        got = delta_unit(coef, GL8_NODES)
        want = [oracles.delta_mp(m0 + j, D[j], u) for u in GL8_NODES]
        assert max(abs(g - float(w)) for g, w in zip(got, want)) <= 3e-11, j
        for k in (2, 8):
            exact = mpmath.fsum(float(w) * v ** k for w, v in zip(GL8_WEIGHTS, want))
            assert abs(float(GL8_WEIGHTS @ got ** k) - exact) <= 1e-11 * exact, (j, k)


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="needs an 80-bit long double")
def test_int_powers_within_chain_error_bound():
    # mixed signs and magnitudes around those of Delta; the bound of the
    # _block_integrals docstring, plus the long double reference's own error
    d = np.random.default_rng(7).standard_normal(1 << 14) * 30.0
    ks = list(range(1, 17))
    got = dict(_int_powers(d, ks))
    for k in ks:
        want = np.power(d.astype(np.longdouble), k)
        err = np.abs(got[k].astype(np.longdouble) - want)
        gamma = (k - 1) * U / (1 - (k - 1) * U)
        assert np.all(err <= (gamma + k * 2.0 ** -63) * np.abs(want)), k
    assert np.array_equal(got[1], d)


_LAYOUT_POWERS = [1, 2, 3, 4, 8]
_LAYOUT_ABS = [1.5, 35.0 / 4.0, 267.0 / 27.0]
# chunks with sign crossings: the first anchors of a profile from 2 and
# 1000, one of degree 3 and one past 2**40
_LAYOUT_CHUNKS = [(2, 2), (1000, 1000), (500_000, 1 << 14), (2 * 10 ** 12 + 10 ** 5, 1 << 12)]


def _chunk(start, n):
    """unit_branch of the n intervals from the anchor start."""
    return unit_branch(start, np.arange(n), prefix_block(start, start + n))


def _work(n):
    """A workspace of _chunk_integrals for n intervals of the layout tests."""
    return moments._workspace(n, _LAYOUT_POWERS, _LAYOUT_ABS)


def _abs_sums(coef, key):
    """GL8 sum of |Delta|**e over the chunk: the scale of the rounding errors
    of any order in which the integral of Delta**e or |Delta|**e is summed."""
    d = np.abs(delta_unit(coef, GL8_NODES[:, None]))
    return float(GL8_WEIGHTS @ (d ** key[1]).sum(axis=1))


@pytest.mark.parametrize("start, n", _LAYOUT_CHUNKS)
def test_node_major_layout_has_the_interval_major_node_values(monkeypatch, start, n):
    # every Delta array the kernel forms (nodes, crossing ends, Newton steps,
    # split halves) is the reference's, bit for bit, transposed where 2-D
    coef = _chunk(start, n)
    calls = {"new": [], "old": []}

    def recording(side):
        def call(*args, **kwargs):
            value = delta_unit(*args, **kwargs)
            calls[side].append(value.copy())  # the kernel writes over its workspace
            return value
        return call

    monkeypatch.setattr(moments, "delta_unit", recording("new"))
    moments._chunk_integrals(coef, _LAYOUT_POWERS, _LAYOUT_ABS, _work(n))
    monkeypatch.setattr(oracles, "delta_unit", recording("old"))
    monkeypatch.setattr(moments, "delta_unit", recording("old"))
    oracles.chunk_integrals_interval_major(coef, _LAYOUT_POWERS, _LAYOUT_ABS)
    assert len(calls["new"]) == len(calls["old"]) > 4  # sign crossings present
    assert calls["new"][0].shape == (len(GL8_NODES), n)
    for new, old in zip(calls["new"], calls["old"]):
        assert np.array_equal(new, old if new.shape == old.shape else np.swapaxes(old, -1, -2))


@pytest.mark.parametrize("start, n", _LAYOUT_CHUNKS)
def test_node_major_integrals_within_few_ulp_of_interval_major(start, n):
    # same node values and power chain, so only the order of the node sums
    # differs; 1.6 u of the absolute sums was the worst seen
    coef = _chunk(start, n)
    got = moments._chunk_integrals(coef, _LAYOUT_POWERS, _LAYOUT_ABS, _work(n))
    want = oracles.chunk_integrals_interval_major(coef, _LAYOUT_POWERS, _LAYOUT_ABS)
    assert got.keys() == want.keys()
    for key in got:
        assert abs(got[key] - want[key]) <= 8 * U * _abs_sums(coef, key), key


def test_node_major_block_within_few_ulp_of_interval_major(monkeypatch):
    # a block of four chunks, with sign crossings in each
    start, stop = 100_000, 100_000 + 4 * ANCHOR_SPAN
    chunks = [(a, a + ANCHOR_SPAN, a) for a in range(start, stop, ANCHOR_SPAN)]

    keys = [("pow", k) for k in _LAYOUT_POWERS] + [("abs", a) for a in _LAYOUT_ABS]

    def block(chunk_integrals):
        monkeypatch.setattr(moments, "_chunk_integrals", chunk_integrals)
        parts = moments._block_integrals(np.array(chunks), _LAYOUT_POWERS, _LAYOUT_ABS, None)
        return {key: math.fsum(parts[:, i]) for i, key in enumerate(keys)}

    got = block(moments._chunk_integrals)
    want = block(lambda coef, powers, abs_powers, work:
                 oracles.chunk_integrals_interval_major(coef, powers, abs_powers))
    for key in got:
        scale = sum(_abs_sums(_chunk(a, ANCHOR_SPAN), key) for a, _, _ in chunks)
        assert abs(got[key] - want[key]) <= 8 * U * scale, key


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8])
def test_first_unit_interval_matches_mpmath(k):
    # [1, 2) is the hardest interval for the Taylor branch (degree 29); the
    # GL8 quadrature itself limits the match there (6.7e-12 for k = 7)
    got = moment_profile([k], [], [2], lo=1)[2][("pow", k)]
    assert got == pytest.approx(_oracle_unit_interval(1, power=k), rel=1e-10)


@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_window_at_1_5_matches_mpmath(k):
    # the window starts at int(1.5) = 1 and covers [1, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = window_moment(WindowSpec(X=1.5, H=3.0), k).integral
    want = math.fsum(_oracle_unit_interval(m, power=k) for m in (1, 2, 3))
    assert got == pytest.approx(want, rel=1e-12)


def test_node_values_do_not_depend_on_where_a_chunk_is_split(monkeypatch):
    # each chunk takes its anchor from the grid, not from its own start, so
    # a checkpoint or abs_limit inside a chunk leaves every node value as is
    nodes = []

    def recording(coef, u, out=None):
        value = delta_unit(coef, u, out=out)
        if np.shape(u) == (len(GL8_NODES), 1):  # the nodes of every interval
            nodes.append(value.copy())
        return value

    monkeypatch.setattr(moments, "delta_unit", recording)
    moment_profile([2], [1.5], [40_000])
    whole = np.concatenate(nodes, axis=1)
    nodes.clear()
    moment_profile([2], [1.5], [12_345, 40_000], abs_limit=23_456)
    assert len(nodes) > 5
    assert np.array_equal(np.concatenate(nodes, axis=1), whole)


@pytest.mark.parametrize("A", [1.0, 3.5, 35.0 / 4.0])
def test_abs_quadrature_with_sign_crossing(A):
    # [995, 996] contains a zero of the smooth branch of Delta
    m = 995
    assert math.copysign(1, _oracle_unit_interval(m, power=1)) > 0  # sanity
    prof = moment_profile([], [A], [m + 1], lo=m)
    want = _oracle_unit_interval(m, abs_power=A)
    # fractional powers are only finitely smooth at the root, so the split
    # quadrature converges fast but not to machine precision
    assert prof[m + 1][("abs", A)] == pytest.approx(want, rel=1e-6)


def test_profile_additive_over_checkpoints(monkeypatch):
    monkeypatch.setattr(moments, "DEFAULT_BLOCK", 128)
    prof = moment_profile([2], [], [500, 1000])
    single = moment_profile([2], [], [1000])
    assert prof[1000][("pow", 2)] == single[1000][("pow", 2)]
    tail = moment_profile([2], [], [1000], lo=500)
    assert prof[500][("pow", 2)] + tail[1000][("pow", 2)] == pytest.approx(
        prof[1000][("pow", 2)], rel=1e-12)


def test_default_block_is_power_of_two():
    assert moments.DEFAULT_BLOCK & (moments.DEFAULT_BLOCK - 1) == 0


def test_profile_bit_identical_across_blocks_and_threads(monkeypatch):
    # the chunk grid runs from lo and splits at the checkpoints and at an
    # abs_limit between them; blocks group from one of its chunks to all of
    # them, with sign crossings in every chunk
    kw = dict(powers=[1, 2, 3, 4, 8], abs_powers=[35.0 / 4.0],
              checkpoints=[10 ** 4, 70_001, 2 ** 17 + 12_345], abs_limit=100_001)
    monkeypatch.setattr(moments, "DEFAULT_BLOCK", 2 ** 22)
    want = moment_profile(**kw)
    runs = [(block, threads) for block in [3000] + [2 ** e for e in range(16, 23)]
            for threads in (1, 2)]
    interval = sys.getswitchinterval()
    # and more threads than cores, switching often, over 12 one-chunk tasks
    sys.setswitchinterval(1e-5)
    try:
        for block, threads in runs + [(3000, 4)]:
            monkeypatch.setattr(moments, "DEFAULT_BLOCK", block)
            assert moment_profile(**kw, threads=threads) == want, (block, threads)
    finally:
        sys.setswitchinterval(interval)


def test_profile_thread_count_does_not_change_values(monkeypatch):
    monkeypatch.setattr(moments, "DEFAULT_BLOCK", 1024)
    a = moment_profile([2, 8], [1.5], [20000], threads=1)
    b = moment_profile([2, 8], [1.5], [20000], threads=4)
    assert a == b


def test_profile_threads_bit_identical_over_multichunk_blocks(monkeypatch):
    # each block of 2**16 intervals is integrated in several chunks
    assert ANCHOR_SPAN < 2 ** 16
    monkeypatch.setattr(moments, "DEFAULT_BLOCK", 2 ** 16)
    kw = dict(powers=[1, 2, 3, 4, 8], abs_powers=[35.0 / 4.0], checkpoints=[200000])
    assert moment_profile(**kw, threads=1) == moment_profile(**kw, threads=2)


def test_block_workspace_matches_new_arrays_per_chunk(monkeypatch):
    # one workspace serves a block of chunks of several lengths, a short one
    # after longer ones, and abs_limit stops the |Delta|**A integrals inside
    # it, so later chunks write their powers over Delta; every chunk's
    # integrals equal those of new arrays: a workspace of its own length,
    # and for the integer powers a new array each from _int_powers
    powers, abs_powers = [10, 3, 1, 7, 2, 9, 4], [1.5, 10.0]
    lo, hi, abs_limit = 5, 5 + 2 * ANCHOR_SPAN + 3000, 5 + ANCHOR_SPAN + 100
    grid = anchor_grid(lo, hi)
    bounds = sorted({*grid, abs_limit, hi})
    chunks = [(a, b, max(g for g in grid if g <= a)) for a, b in zip(bounds, bounds[1:])]
    assert len({b - a for a, b, _ in chunks}) == len(chunks) > 10
    chunk_integrals = moments._chunk_integrals

    def new_arrays(coef, powers, abs_powers, work):
        out = chunk_integrals(coef, powers, abs_powers,
                              moments._workspace(coef.shape[1], powers, abs_powers))
        delta = delta_unit(coef, GL8_NODES[:, None])
        assert {("pow", k): moments._node_sum(pw) for k, pw in _int_powers(delta, powers)} == {
            key: value for key, value in out.items() if key[0] == "pow"}
        return out

    got = moments._block_integrals(np.array(chunks), powers, abs_powers, abs_limit)
    monkeypatch.setattr(moments, "_chunk_integrals", new_arrays)
    assert np.array_equal(got, moments._block_integrals(np.array(chunks), powers, abs_powers,
                                                        abs_limit))
    # a row a chunk: the 7 integer powers, then the 2 absolute ones, 0.0 from abs_limit on
    assert [np.count_nonzero(row) for row in got] == [9 if a < abs_limit else 7
                                                      for a, _, _ in chunks]


def test_block_integrals_working_set(monkeypatch):
    # one 2**20-interval block with the powers of the stream profile: beyond
    # the block's int64 D array (made before tracing starts) the chunk loop
    # holds the block's workspace, three chunk arrays (Delta, its squares
    # written in place, Delta**3), and on top of it one chunk's coefficients
    # and sign-crossing splits; 5.5 chunk arrays measured, at the crossings
    # of the chunks just past 2**14, and no chunk adds to the workspace, so
    # the bound holds at any block length
    start, stop = 2, 2 + (1 << 20)
    grid = anchor_grid(start, stop)
    D = prefix_block(start, stop)
    monkeypatch.setattr(moments, "prefix_block", lambda a, b: D)
    chunks = np.stack([grid, np.append(grid[1:], stop), grid], axis=1)
    chunk_array = ANCHOR_SPAN * len(moments.GL8_NODES) * 8
    tracemalloc.start()
    try:
        moments._block_integrals(chunks, [1, 2, 3, 4, 8], [35.0 / 4.0, 267.0 / 27.0], None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.4 * chunk_array, peak


def test_stream_profile_traced_peak():
    # the stream's profile on 1 thread to 2**21: one block's d(n) and D(m),
    # 3 MiB, and the chunk arrays of test_block_integrals_working_set;
    # 7.8 MiB measured
    tracemalloc.start()
    try:
        moment_profile([1, 2, 3, 4, 8], [35.0 / 4.0, 267.0 / 27.0],
                       [10 ** 4, 10 ** 5, 10 ** 6, 2 ** 21], abs_limit=10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9 * 2 ** 20, peak


def test_profile_bookkeeping_per_chunk(monkeypatch):
    # the plan and the block results of a 1237-chunk profile, held when the
    # last block returns, take at most 8 bytes a value and 48 a chunk (as
    # tuples and dicts, 623 a chunk); the sieve, the branch and the
    # quadrature are stubbed, as their values do not change what is held
    powers, abs_powers = [1, 2, 3, 4, 8], [35.0 / 4.0, 267.0 / 27.0]
    checkpoints = [10 ** 4, 10 ** 5, 10 ** 6, 2 * 10 ** 7]
    chunks = len({*anchor_grid(2, checkpoints[-1]), *checkpoints}) - 1
    assert chunks == 1237
    held = []

    def integrals(coef, powers, abs_powers, work):
        keys = [("pow", k) for k in powers] + [("abs", a) for a in abs_powers]
        return {key: float(coef.shape[1]) for key in keys}

    def measured(fn, tasks, threads=1):
        out = ordered_map(fn, tasks, threads=threads)
        held.append(tracemalloc.get_traced_memory()[0])
        return out

    monkeypatch.setattr(moments, "prefix_block", lambda a, b: np.zeros(b - a, np.int64))
    monkeypatch.setattr(moments, "unit_branch", lambda m0, j, D: np.zeros((1, len(j))))
    monkeypatch.setattr(moments, "_chunk_integrals", integrals)
    # a first run fills the caches of numpy's imports
    moment_profile(powers, abs_powers, checkpoints, abs_limit=10 ** 6)
    monkeypatch.setattr(moments, "ordered_map", measured)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        moment_profile(powers, abs_powers, checkpoints, abs_limit=10 ** 6)
    finally:
        tracemalloc.stop()
    per_chunk = (held[0] - before) / chunks
    assert per_chunk <= 8 * (len(powers) + len(abs_powers)) + 48, per_chunk


@pytest.mark.parametrize("powers", [[0], [-2], [2.0], [1.5], [2, 0]])
def test_profile_rejects_non_integer_powers(powers):
    with pytest.raises(ValueError):
        moment_profile(powers, [], [100])


@pytest.mark.parametrize("A", [0.0, -1.5, math.nan, math.inf])
def test_profile_rejects_bad_abs_powers(A):
    with pytest.raises(ValueError):
        moment_profile([2], [A], [100])


def test_profile_repeated_power_counted_once():
    assert moment_profile([2, 2], [], [1000]) == moment_profile([2], [], [1000])


def test_profile_abs_limit_freezes_abs_integrals(monkeypatch):
    monkeypatch.setattr(moments, "DEFAULT_BLOCK", 256)
    prof = moment_profile([1], [1.5], [1000, 2000], abs_limit=1000)
    full = moment_profile([1], [1.5], [1000])
    assert prof[2000][("abs", 1.5)] == prof[1000][("abs", 1.5)]
    assert prof[1000][("abs", 1.5)] == full[1000][("abs", 1.5)]
    assert prof[2000][("pow", 1)] != prof[1000][("pow", 1)]


@pytest.mark.parametrize("block", [256, 512, 1024])
def test_profile_abs_limit_between_checkpoints(monkeypatch, block):
    # the |Delta|**A integral freezes at abs_limit itself, not at the block
    # boundary after it, nor at a checkpoint after it between the same anchors
    monkeypatch.setattr(moments, "DEFAULT_BLOCK", block)
    prof = moment_profile([], [1.5], [1600, 4000], abs_limit=1500)
    frozen = moment_profile([], [1.5], [1500])
    assert prof[1600][("abs", 1.5)] == prof[4000][("abs", 1.5)] == frozen[1500][("abs", 1.5)]


@pytest.mark.parametrize("checkpoints, lo", [([100.7], 2), ([100, 200.5], 2), ([100], 1.5),
                                             ([np.float64(100)], 2)])
def test_profile_rejects_fractional_checkpoints_and_lo(checkpoints, lo):
    with pytest.raises(ValueError, match="lo and the checkpoints must be integers"):
        moment_profile([2], [], checkpoints, lo=lo)


def test_profile_rejects_non_integer_abs_limit():
    with pytest.raises(ValueError, match="abs_limit must be an integer"):
        moment_profile([], [1.5], [4000], abs_limit=1500.5)


@pytest.mark.parametrize("threads", [0, -3])
def test_profile_rejects_thread_count_below_one(threads):
    # the CLI's --threads refuses the same counts
    with pytest.raises(ValueError, match="threads must be >= 1"):
        moment_profile([2], [], [100], threads=threads)


def test_moment_first_close_to_quarter_x():
    r = moment(1, 10 ** 5)
    assert r.main_term == 2.5 * 10 ** 4
    assert abs(r.integral - r.main_term) < 20 * (10 ** 5) ** 0.75


def test_moment_main_terms():
    assert moment_main_term(1, 100.0) == 25.0
    assert moment_main_term(5, 100.0) == 0.0
    assert moment_main_term(8, 2.0, 16) == 0.0  # integral of x^2 from 2 to 2
    assert moment_main_term(4, 10.0, 16) == pytest.approx(
        3 * estimate_constant("C2", 16).estimate / (64 * math.pi ** 4) * 100.0)


@pytest.mark.parametrize("k, names", [(1, []), (2, []), (3, ["C1"]), (4, ["C2"]),
                                      (5, []), (8, ["C7", "C4"])])
def test_main_term_asks_only_for_its_constants(monkeypatch, k, names):
    asked = []
    sums = series._sums

    def recording(name, Y, reach):
        asked.append((name, Y, reach))
        return sums(name, 16, 256)

    monkeypatch.setattr(series, "_sums", recording)
    moment_main_term(k, 100.0, 512)
    assert asked == [(name, 512, 512 * 512) for name in names]
    # at the default cutoff the main terms read the pinned estimates
    asked.clear()
    moment_main_term(k, 100.0)
    assert asked == []


def test_moment_validation():
    with pytest.raises(ValueError):
        moment(0, 100.0)
    with pytest.raises(ValueError):
        moment(9, 100.0)
    with pytest.raises(ValueError):
        moment(2, 1.0)
    for X in (2.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="X must be finite and >= 3"):
            moment(2, X)


@pytest.mark.parametrize("Y", [10 ** 9, 0, 1e3, True])
def test_bad_constants_Y_refused_before_the_integral(monkeypatch, Y):
    def reached(*args, **kwargs):
        raise AssertionError("moment_profile ran before constants_Y was checked")

    monkeypatch.setattr(moments, "moment_profile", reached)
    with pytest.raises((ValueError, BudgetExceededError)):
        moment(4, 3e5, constants_Y=Y)
    with pytest.raises((ValueError, BudgetExceededError)):
        window_moment(WindowSpec(X=10 ** 6, H=10 ** 4), 4, constants_Y=Y)


def test_profile_abs_power_of_even_integer_matches_power():
    got = moment_profile([10], [], [3000])[3000][("pow", 10)]
    assert got == pytest.approx(moment_profile([], [10.0], [3000])[3000][("abs", 10.0)],
                                rel=1e-12)


def test_fractional_X_integrates_and_reports_at_its_integer_part():
    assert moment(2, 20000.9) == moment(2, 20000)


def test_integer_X_keeps_its_exact_main_term():
    # 244189.0 ** 3 and 244189 ** 3 can round apart; an int X keeps the exact cube
    assert moment(8, 244189, 64).main_term == moment_main_term(8, 244189, 64)


def test_window_spec_admissibility():
    assert WindowSpec(X=10 ** 6, H=10 ** 4).admissible
    assert not WindowSpec(X=10 ** 6, H=10.0).admissible
    assert not WindowSpec(X=10 ** 6, H=2 * 10 ** 6).admissible


@pytest.mark.parametrize("X,H", [(1000.0, -5.0), (1000.0, 0.0), (1000.0, math.nan),
                                 (1000.0, math.inf), (math.nan, 10.0)])
def test_window_spec_rejects_bad_window(X, H):
    with pytest.raises(ValueError, match="H > 0"):
        WindowSpec(X=X, H=H)


def test_window_moment_equals_difference_of_full_moments():
    spec = WindowSpec(X=2000.0, H=1000.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        w = window_moment(spec, 2)
    full = moment(2, 3000.0).integral - moment(2, 2000.0).integral
    assert w.integral == pytest.approx(full, rel=1e-12)
    assert w.main_term == window_main_term(2, 2000, 3000)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 8])
@pytest.mark.parametrize("X", [10 ** 6, 10 ** 10, 10 ** 12, 10 ** 14])
def test_window_main_term_matches_mpmath(k, X):
    # moment_main_term(k, X + H) - moment_main_term(k, X) cancels all but a
    # share H/X of c * X**a: 6.5e-10 relative for k = 8 at X = 1e12, H = 2**16
    c = main_term_coefficient(k, 16)
    for H in (2 ** 16, X // 2):
        with mpmath.workdps(40):
            lo, hi = mpmath.mpf(X), mpmath.mpf(X + H)
            if k == 8:
                exact = c * (hi ** 3 - lo ** 3) / 3
            else:
                a = {1: 1, 2: mpmath.mpf(3) / 2, 3: mpmath.mpf(7) / 4, 4: 2}[k]
                exact = c * (hi ** a - lo ** a)
        assert window_main_term(k, X, X + H, 16) == pytest.approx(float(exact), rel=1e-15)


def test_window_moment_warns_when_inadmissible():
    with pytest.warns(UserWarning):
        window_moment(WindowSpec(X=10 ** 6, H=10.0), 2)
