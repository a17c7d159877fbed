import math
import sys
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from divisorlab import moments, series
from divisorlab.divisor import delta_unit, hyperbola_D, prefix_block
from divisorlab.moments import (
    GL8_NODES,
    GL8_WEIGHTS,
    WindowSpec,
    _int_powers,
    abs_moment,
    moment,
    moment_main_term,
    moment_profile,
    window_main_term,
    window_moment,
)
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


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="needs an 80-bit long double")
@pytest.mark.parametrize("m, bound", [(2 * 10 ** 12, 2e-9), (10 ** 14, 1e-7)])
def test_unit_interval_above_2_40_matches_mpmath(m, bound):
    # past 2**40 Delta is formed in long double, where the rounding of
    # x*log(x), u_ld*x*log(x), is 3e-6 at 2e12 and 2e-4 at 1e14 (6.4e-11 and
    # 1.0e-8 measured); float64 nodes and constant gave 1.3e-7 and 1.6e-5
    got = moment_profile([2], [], [m + 1], lo=m)[m + 1][("pow", 2)]
    assert got == pytest.approx(_oracle_unit_interval(m, power=2), rel=bound)


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
# chunks with sign crossings: two below 2**40 and one in long double above it
_LAYOUT_CHUNKS = [(1000, 1 << 14), (500_000, 1 << 14), (2 * 10 ** 12 + 10 ** 5, 1 << 12)]


def _chunk(start, n):
    return prefix_block(start, start + n), np.arange(start, start + n, dtype=np.float64)


def _abs_sums(D, m, key):
    """GL8 sum of |Delta|**e over the chunk: the scale of the rounding errors
    of any order in which the integral of Delta**e or |Delta|**e is summed."""
    d = np.abs(delta_unit(m, D, GL8_NODES[:, None]))
    return float(GL8_WEIGHTS @ (d ** key[1]).sum(axis=1))


@pytest.mark.parametrize("start, n", _LAYOUT_CHUNKS)
def test_node_major_layout_has_the_interval_major_node_values(monkeypatch, start, n):
    # every Delta array the kernel forms (nodes, crossing ends, Newton steps,
    # split halves) is the reference's, bit for bit, transposed where 2-D
    D, m = _chunk(start, n)
    calls = {"new": [], "old": []}

    def recording(side):
        def call(*args, **kwargs):
            value = delta_unit(*args, **kwargs)
            calls[side].append(value)
            return value
        return call

    monkeypatch.setattr(moments, "delta_unit", recording("new"))
    moments._chunk_integrals(D, m, _LAYOUT_POWERS, _LAYOUT_ABS)
    monkeypatch.setattr(oracles, "delta_unit", recording("old"))
    monkeypatch.setattr(moments, "delta_unit", recording("old"))
    oracles.chunk_integrals_interval_major(D, m, _LAYOUT_POWERS, _LAYOUT_ABS)
    assert len(calls["new"]) == len(calls["old"]) > 3  # sign crossings present
    assert calls["new"][0].shape == (len(GL8_NODES), n)
    for new, old in zip(calls["new"], calls["old"]):
        assert np.array_equal(new, old if new.shape == old.shape else old.T)


@pytest.mark.parametrize("start, n", _LAYOUT_CHUNKS)
def test_node_major_integrals_within_few_ulp_of_interval_major(start, n):
    # same node values and power chain, so only the order of the node sums
    # differs; 1.6 u of the absolute sums was the worst seen
    D, m = _chunk(start, n)
    got = moments._chunk_integrals(D, m, _LAYOUT_POWERS, _LAYOUT_ABS)
    want = oracles.chunk_integrals_interval_major(D, m, _LAYOUT_POWERS, _LAYOUT_ABS)
    assert got.keys() == want.keys()
    for key in got:
        assert abs(got[key] - want[key]) <= 8 * U * _abs_sums(D, m, key), key


def test_node_major_block_within_few_ulp_of_interval_major(monkeypatch):
    # a block of four chunks, with sign crossings in each
    start, stop = 100_000, 100_000 + 4 * moments._CHUNK
    chunks = [(a, a + moments._CHUNK) for a in range(start, stop, moments._CHUNK)]

    def block(chunk_integrals):
        monkeypatch.setattr(moments, "_chunk_integrals", chunk_integrals)
        parts = moments._block_integrals(chunks, _LAYOUT_POWERS, _LAYOUT_ABS, None)
        return {key: math.fsum(part[key] for part in parts) for key in parts[0]}

    got = block(moments._chunk_integrals)
    want = block(oracles.chunk_integrals_interval_major)
    D, m = _chunk(start, stop - start)
    for key in got:
        assert abs(got[key] - want[key]) <= 8 * U * _abs_sums(D, m, key), key


_TWO_40 = 2.0 ** 40
_ULP_BELOW = 2.0 ** -13  # spacing of float64 in [2**39, 2**40)


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="needs an 80-bit long double")
@pytest.mark.parametrize("m, u", [
    ([_TWO_40 - 2, _TWO_40 - 1], GL8_NODES[:, None]),
    ([_TWO_40 - 2, _TWO_40 - 1], [[0.0], [1.0]]),  # x reaches 2**40, not beyond
    ([_TWO_40 - 1], [[0.0], [np.nextafter(1.0, 2.0)]]),  # m + u rounds to 2**40
    ([_TWO_40 - _ULP_BELOW], [[0.0], [_ULP_BELOW / 2]]),  # a tie, to even: 2**40
    ([_TWO_40 - _ULP_BELOW], [[0.0], [2 * _ULP_BELOW]]),  # a tie, to even: 2**40
    ([_TWO_40 - _ULP_BELOW], [[0.0], [3 * _ULP_BELOW]]),  # rounds above 2**40
    ([_TWO_40], [[0.0], [_ULP_BELOW]]),
    ([_TWO_40, _TWO_40 + 1], GL8_NODES[:, None]),
])
def test_delta_unit_precision_decided_as_from_x(m, u):
    # delta_unit picks long double from max(m) + max(u) without forming x;
    # for an outer sum that is the decision from the largest x = m + u
    m, u = np.array(m), np.array(u)
    D = np.array([hyperbola_D(int(v)) for v in m])
    extended = np.add(m, u).max() > _TWO_40
    want = oracles.delta_in_precision(m, D, u, np.longdouble if extended else np.float64)
    other = oracles.delta_in_precision(m, D, u, np.float64 if extended else np.longdouble)
    assert not np.array_equal(want, other)  # the two precisions tell apart here
    assert np.array_equal(delta_unit(m, D, u), want)


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


def test_profile_additive_over_checkpoints():
    prof = moment_profile([2], [], [500, 1000], block=128)
    single = moment_profile([2], [], [1000], block=128)
    assert prof[1000][("pow", 2)] == single[1000][("pow", 2)]
    tail = moment_profile([2], [], [1000], lo=500, block=128)
    assert prof[500][("pow", 2)] + tail[1000][("pow", 2)] == pytest.approx(
        prof[1000][("pow", 2)], rel=1e-12)


def test_profile_bit_identical_across_blocks_and_threads():
    # the chunk grid runs from lo and splits at the checkpoints and at an
    # abs_limit between them; blocks group from one of its 12 chunks to all
    # of them, with sign crossings in every chunk
    kw = dict(powers=[1, 2, 3, 4, 8], abs_powers=[35.0 / 4.0],
              checkpoints=[10 ** 4, 70_001, 2 ** 17 + 12_345], abs_limit=100_001)
    want = moment_profile(**kw, block=2 ** 22)
    runs = [(block, threads) for block in [3000] + [2 ** e for e in range(16, 23)]
            for threads in (1, 2)]
    interval = sys.getswitchinterval()
    # and more threads than cores, switching often, over 12 one-chunk tasks
    sys.setswitchinterval(1e-5)
    try:
        for block, threads in runs + [(3000, 4)]:
            assert moment_profile(**kw, block=block, threads=threads) == want, (block, threads)
    finally:
        sys.setswitchinterval(interval)


def test_profile_thread_count_does_not_change_values():
    a = moment_profile([2, 8], [1.5], [20000], block=1024, threads=1)
    b = moment_profile([2, 8], [1.5], [20000], block=1024, threads=4)
    assert a == b


def test_profile_threads_bit_identical_over_multichunk_blocks():
    # each block of 2**16 intervals is integrated in several chunks
    assert moments._CHUNK < 2 ** 16
    kw = dict(powers=[1, 2, 3, 4, 8], abs_powers=[35.0 / 4.0], checkpoints=[200000],
              block=2 ** 16)
    assert moment_profile(**kw, threads=1) == moment_profile(**kw, threads=2)


def test_block_integrals_working_set(monkeypatch):
    # one 2**20-interval block with the powers of the stream profile: beyond
    # the block's int64 D array (made before tracing starts) the chunk loop
    # holds one chunk's node values, its squares up to Delta**8 and one
    # product of them, 5.5 chunk arrays measured; they are freed before the
    # next chunk, so the bound holds at any block length
    start, stop = 2, 2 + (1 << 20)
    D = prefix_block(start, stop)
    monkeypatch.setattr(moments, "prefix_block", lambda a, b: D)
    chunks = [(a, a + moments._CHUNK) for a in range(start, stop, moments._CHUNK)]
    chunk_array = moments._CHUNK * len(moments.GL8_NODES) * 8
    tracemalloc.start()
    try:
        moments._block_integrals(chunks, [1, 2, 3, 4, 8], [35.0 / 4.0, 267.0 / 27.0], None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.4 * chunk_array, peak


def test_stream_profile_traced_peak():
    # the stream's profile on 1 thread to 2**21: one block's d(n) and D(m),
    # 6 MiB, and the chunk arrays of test_block_integrals_working_set;
    # 10.1 MiB measured
    tracemalloc.start()
    try:
        moment_profile([1, 2, 3, 4, 8], [35.0 / 4.0, 267.0 / 27.0],
                       [10 ** 4, 10 ** 5, 10 ** 6, 2 ** 21], abs_limit=10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 11.5 * 2 ** 20, peak


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


def test_profile_abs_limit_freezes_abs_integrals():
    prof = moment_profile([1], [1.5], [1000, 2000], block=256, abs_limit=1000)
    full = moment_profile([1], [1.5], [1000], block=256)
    assert prof[2000][("abs", 1.5)] == prof[1000][("abs", 1.5)]
    assert prof[1000][("abs", 1.5)] == full[1000][("abs", 1.5)]
    assert prof[2000][("pow", 1)] != prof[1000][("pow", 1)]


@pytest.mark.parametrize("block", [256, 512, 1024])
def test_profile_abs_limit_between_checkpoints(block):
    # the |Delta|**A integral freezes at abs_limit itself, not at the block
    # boundary after it
    prof = moment_profile([], [1.5], [4000], block=block, abs_limit=1500)
    frozen = moment_profile([], [1.5], [1500], block=block)
    assert prof[4000][("abs", 1.5)] == frozen[1500][("abs", 1.5)]


@pytest.mark.parametrize("checkpoints, lo", [([100.7], 2), ([100, 200.5], 2), ([100], 1.5),
                                             ([np.float64(100)], 2)])
def test_profile_rejects_fractional_checkpoints_and_lo(checkpoints, lo):
    with pytest.raises(ValueError, match="lo and the checkpoints must be integers"):
        moment_profile([2], [], checkpoints, lo=lo)


def test_profile_rejects_non_integer_abs_limit():
    with pytest.raises(ValueError, match="abs_limit must be an integer"):
        moment_profile([], [1.5], [4000], abs_limit=1500.5)


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

    def recording(name, Y=None):
        asked.append((name, Y))
        return estimate_constant(name, 16)

    monkeypatch.setattr(series, "estimate_constant", recording)
    moment_main_term(k, 100.0)
    assert asked == [(name, None) for name in names]


def test_moment_validation():
    with pytest.raises(ValueError):
        moment(0, 100.0)
    with pytest.raises(ValueError):
        moment(9, 100.0)
    with pytest.raises(ValueError):
        moment(2, 1.0)
    for A in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="A must be finite and > 0"):
            abs_moment(A, 100.0)
    for X in (2.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="X must be finite and >= 3"):
            moment(2, X)
        with pytest.raises(ValueError, match="X must be finite and >= 3"):
            abs_moment(1.5, X)


def test_abs_moment_even_integer_matches_power_moment():
    assert abs_moment(2.0, 3000.0).integral == moment(2, 3000.0).integral


def test_abs_moment_even_integer_beyond_moment_range():
    got = abs_moment(10.0, 3000.0).integral
    assert got == moment_profile([10], [], [3000])[3000][("pow", 10)]
    assert got == pytest.approx(moment_profile([], [10.0], [3000])[3000][("abs", 10.0)],
                                rel=1e-12)


def test_fractional_X_integrates_and_reports_at_its_integer_part():
    assert moment(2, 20000.9) == moment(2, 20000)
    assert abs_moment(1.5, 20000.9) == abs_moment(1.5, 20000)


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
