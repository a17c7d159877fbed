import itertools
import math
from decimal import Decimal

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from divisorlab import expsum, moments, series, voronoi
from divisorlab.acceptance import AcceptanceContext
from divisorlab.arith import factor_table, kernel_decompose
from divisorlab.divisor import build_divisor_table, hyperbola_D, hyperbola_D_many, prefix_block
from divisorlab.moments import WindowSpec, window_main_term
from divisorlab.relations import (BudgetExceededError, RelationQuery, RelationSignature,
                                  form_is_zero, min_gap)
from divisorlab.series import (
    DEFAULT_CUTOFF,
    SIGNATURES,
    _relation_product,
    _side_sums,
    estimate_constant,
    extrapolate_sqrt,
    first_cumulant_limit,
    main_term_coefficient,
    partial_C1,
    partial_C2,
    partial_C4,
    partial_C7,
)
from oracles import relation_product_fold, relation_product_mpmath, tree_product


def _q_weight(values):
    d = build_divisor_table(1, max(values))
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
    # the first solution is sqrt(1) + sqrt(1) = sqrt(4), weight
    # d(1) d(1) d(4) 4**(-3/4) = 3/2**1.5
    assert [partial_C1(Y).partial_sum for Y in (1, 2, 3)] == [0.0, 0.0, 0.0]
    assert partial_C1(4).partial_sum == pytest.approx(3.0 * 2 ** -1.5, rel=1e-14)


@pytest.mark.parametrize("Y", [10, 15, 16])
def test_c1_matches_brute_force(Y):
    assert partial_C1(Y).partial_sum == pytest.approx(_brute_relation_sum(2, 1, Y), rel=1e-12)


def test_c1_pinned_at_2000():
    assert partial_C1(2000).partial_sum == 39.9385624336745


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
    d = build_divisor_table(1, Y).astype(np.float64)
    n = np.arange(1, Y + 1, dtype=np.float64)
    g = d * d * n ** -1.5
    diagonal = 2.0 * g.sum() ** 2 - (d ** 4 * n ** -3.0).sum()
    assert partial_C2(Y).partial_sum > diagonal


def test_cutoff_budget():
    with pytest.raises(BudgetExceededError):
        partial_C2(1 << 21)


def test_extrapolate_sqrt_recovers_exact_model():
    a, b = 7.25, -3.5
    pts = [(Y, a + b * Y ** -0.5) for Y in (64, 128, 256)]
    assert extrapolate_sqrt(pts) == pytest.approx(a, rel=1e-12)
    with pytest.raises(ValueError):
        extrapolate_sqrt([(64, 1.0)])


def test_main_term_coefficients():
    assert main_term_coefficient(1) == 0.25
    assert main_term_coefficient(2) == pytest.approx(0.6542839775, rel=1e-9)
    assert main_term_coefficient(2) == first_cumulant_limit() / (6 * math.pi ** 2)
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


def test_default_constants_pinned_to_the_bit():
    # the estimates behind the moment main terms, and some partial sums, as
    # bits: a change of the kernel product that moves one unit of 2^-53 fails
    estimates = {"C1": "0x1.878364ed55e31p+5", "C2": "0x1.9096f0673548dp+11",
                 "C4": "0x1.e08e0ff6c274ap+21", "C7": "0x1.6a93a604c28c2p+26"}
    assert {name: estimate_constant(name).estimate.hex() for name in estimates} == estimates
    # the table the main terms read at the default cutoff holds these bits
    assert {key: value.hex() for key, value in series._PINNED_ESTIMATES.items()} == {
        (name, DEFAULT_CUTOFF): value for name, value in estimates.items()}
    assert main_term_coefficient(8).hex() == "0x1.4b0929c1ee2abp+7"
    partials = [(partial_C2, 4096, "0x1.f662d23032a76p+10", "0x1.c4f62181a9f90p+7"),
                (partial_C4, 256, "0x1.49eb49182fecdp+17", "0x1.c81992925645ap+16"),
                (partial_C7, 1000, "0x1.64e2fdef6c569p+24", "0x1.d35b385b305c4p+22")]
    for partial, Y, value, tail in partials:
        assert (partial(Y).partial_sum.hex(), partial(Y).tail_indicator.hex()) == (value, tail)


def test_default_main_terms_build_no_product(monkeypatch):
    # the main terms at the default cutoff, from the live estimates, then
    # again with every kernel product refused and the memo emptied
    c = {name: estimate_constant(name).estimate for name in SIGNATURES}
    want = {3: 3 * c["C1"] / (28 * math.pi ** 3), 4: 3 * c["C2"] / (64 * math.pi ** 4),
            8: (35 * c["C7"] - 28 * c["C4"]) / (2048 * math.pi ** 8)}
    lo, hi = 10 ** 11, 10 ** 11 + (1 << 16)
    window = want[4] * lo ** 2 * math.expm1(2 * math.log1p((hi - lo) / lo))

    def refused(*args):
        raise AssertionError("a kernel product was built")

    series._product.cache_clear()
    monkeypatch.setattr(series, "_relation_product", refused)
    assert {k: main_term_coefficient(k).hex() for k in want} == {
        k: value.hex() for k, value in want.items()}
    assert window_main_term(4, lo, hi).hex() == window.hex()
    with pytest.raises(AssertionError, match="a kernel product was built"):
        main_term_coefficient(4, 512)


def test_default_constants_positive():
    assert DEFAULT_CUTOFF == 1024
    for name in SIGNATURES:
        est = estimate_constant(name)
        assert est == estimate_constant(name, DEFAULT_CUTOFF)
        assert est.estimate >= est.partial_sum > 0


@pytest.mark.parametrize("Y", [1, 10, 256, 1000])
def test_kernel_first_cumulant_is_d_squared_sum(Y):
    d = build_divisor_table(1, Y).astype(np.float64)
    n = np.arange(1, Y + 1, dtype=np.float64)
    direct = float((d * d * n ** -1.5).sum())
    for p, q in ((2, 2), (6, 2), (4, 4)):
        assert _relation_product(p, q, Y)[1, 1] == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("Y", [1, 2, 10, 64, 256, 1000])
@pytest.mark.parametrize("p, q", [(2, 2), (6, 2), (4, 4)])
def test_relation_product_matches_kernel_fold(p, q, Y):
    np.testing.assert_allclose(_relation_product(p, q, Y), relation_product_fold(p, q, Y),
                               rtol=1e-13, atol=0)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 300), st.sampled_from([(1, 1), (2, 2), (3, 1), (6, 2), (4, 4)]))
def test_relation_product_matches_kernel_fold_any_cutoff(Y, pq):
    np.testing.assert_allclose(_relation_product(*pq, Y), relation_product_fold(*pq, Y),
                               rtol=1e-13, atol=0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 64), min_size=1, max_size=12),
       st.sampled_from([(2, 1), (2, 2), (6, 4)]), st.integers(0, 2 ** 32 - 1))
def test_segmented_tree_matches_per_batch_trees(sizes, pq, seed):
    # the kernel product's rounding is that of one pairwise tree per batch,
    # then one over the batch products: the same bits, to the last one
    p, q = pq
    rng = np.random.default_rng(seed)
    F = np.zeros((sum(sizes), p + 1, q + 1))
    F[:, 0, 0] = 1.0
    F[:, 1:, 1:] = rng.lognormal(0.0, 4.0, (sum(sizes), p, q))
    ends = np.cumsum(sizes)
    batches = np.stack([tree_product(F[end - size : end]) for size, end in zip(sizes, ends)])
    got = series._tree_products(F, sizes)
    assert np.array_equal(got, batches)
    assert np.array_equal(series._tree_products(got, [len(got)])[0], tree_product(batches))


@pytest.mark.parametrize("p, q, Y", [(2, 2, 4096), (6, 2, 256), (4, 4, 256)])
def test_relation_product_rounding_against_mpmath(p, q, Y):
    # the sequential fold is 2.1e-15 off at (2, 2, 4096)
    exact = relation_product_mpmath(p, q, Y)[p][q]
    with mpmath.workdps(30):
        assert abs(mpmath.mpf(float(_relation_product(p, q, Y)[p, q])) / exact - 1) <= 1e-15


@pytest.mark.parametrize("p, q", [(2, 1), (6, 2), (4, 4)])
def test_long_row_side_sums_match_convolve_and_mpmath(monkeypatch, p, q):
    monkeypatch.setattr(series, "_DIRECT_WIDTH", 2)  # every row onto the rfft path
    count = max(p, q)
    w = np.zeros((3, 41))
    w[:, 1:] = series._weights(np.array([1, 2, 6]), np.array([40, 40, 40]), 64).reshape(3, 40)
    G = _side_sums(w, count)
    assert all(g.base is None for g in G[2:])  # no view pins a whole transform
    conv = [np.ones((3, 1)), w]
    with mpmath.workdps(30):
        row = [mpmath.mpf(float(x)) for x in w[0]]
        exact = [[mpmath.mpf(1)], row]
        for i in range(2, count + 1):
            conv.append(np.stack([np.convolve(g, r) for g, r in zip(conv[-1], w)]))
            prev = exact[-1]
            exact.append([mpmath.fsum(prev[s - a] * row[a] for a in range(len(row))
                                      if 0 <= s - a < len(prev))
                          for s in range(len(prev) + len(row) - 1)])
        for i in range(count + 1):
            # the transform's rounding is absolute: units of 2^-53 of the largest entry
            np.testing.assert_allclose(G[i], conv[i], rtol=0, atol=2e-15 * conv[i].max())
            top = max(exact[i])
            assert max(abs(mpmath.mpf(float(g)) - e) for g, e in zip(G[i][0], exact[i])) <= 2e-15 * top
        # the entries F[p - m, q - m] an estimate reads
        F, ref = _relation_product(p, q, 64), relation_product_mpmath(p, q, 64)
        for m in range(min(p, q)):
            assert abs(mpmath.mpf(float(F[p - m, q - m])) / ref[p - m][q - m] - 1) <= 1e-14


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 300), st.sampled_from(list(SIGNATURES)))
def test_partial_at_most_completed_product_at_most_estimate(Y, name):
    raw, est = series._sums(name, Y, Y * Y)
    assert series._sums(name, Y, Y)[0] <= raw <= est


@pytest.mark.parametrize("Y, table", [
    (1024, {"C1": "48.939", "C2": "3204.72", "C4": "3.937e6", "C7": "9.505e7"}),
    (10_000, {"C1": "49.3339", "C2": "3206.27", "C4": "4.0767e6", "C7": "9.5679e7"}),
    (256, {"C1": "47.446", "C2": "3196.31", "C4": "3.353e6", "C7": "9.231e7"}),
    (4096, {"C1": "49.275", "C2": "3206.11", "C4": "4.061e6", "C7": "9.560e7"}),
])
def test_estimates_at_1024_and_1e4(Y, table):
    # the rows of README's constant table, each to its last shown digit
    for name, shown in table.items():
        half_unit = 0.5 * 10.0 ** Decimal(shown).as_tuple().exponent
        assert estimate_constant(name, Y).estimate == pytest.approx(float(shown), abs=half_unit)
    # the raw product over h <= 16000, a <= 16384 / sqrt(h) is 3.934e6, a lower
    # bound of C4 that every estimate from the default cutoff up clears
    assert Y < DEFAULT_CUTOFF or estimate_constant("C4", Y).estimate >= 3.93e6


def test_estimate_budget_refused_before_any_product(monkeypatch):
    def reached(*args):
        raise AssertionError("a kernel product was built")

    monkeypatch.setattr(series, "_relation_product", reached)
    Y = 1 << 17  # about 5.8e7 values, past MAX_COMPLETED_VALUES
    assert Y <= series.MAX_CONSTANT_CUTOFF
    with pytest.raises(BudgetExceededError):
        estimate_constant("C2", Y)
    with pytest.raises(BudgetExceededError):
        main_term_coefficient(4, Y)


def test_first_cumulant_limit_closed_form():
    with mpmath.workdps(30):
        exact = mpmath.zeta(1.5) ** 4 / mpmath.zeta(3)
    assert first_cumulant_limit() == float(exact)
    assert first_cumulant_limit() == pytest.approx(38.745, abs=5e-4)


@pytest.mark.parametrize("Y", [1, 64, 1000])
@pytest.mark.parametrize("name, partial", [("C2", partial_C2), ("C4", partial_C4),
                                           ("C7", partial_C7)])
def test_estimate_at_least_partial_sum(name, partial, Y):
    est = estimate_constant(name, Y)
    ref = partial(Y)
    assert (est.partial_sum, est.tail_indicator) == (ref.partial_sum, ref.tail_indicator)
    assert est.estimate >= est.partial_sum


def test_estimate_c1_at_least_partial_sum():
    est = estimate_constant("C1", 32)
    assert est.partial_sum == partial_C1(32).partial_sum
    assert est.estimate >= est.partial_sum
    with pytest.raises(ValueError):
        estimate_constant("C3", 32)


def test_quick_acceptance_c7_above_larger_partial_sum():
    # the {64, 128, 256} square-root fit gave 1.6e7, below this lower bound
    ctx = AcceptanceContext(quick=True)
    assert estimate_constant("C7", ctx.constant_cutoff).estimate >= partial_C7(4096).partial_sum


def test_cutoff_validation():
    for name in SIGNATURES:
        with pytest.raises(ValueError):
            estimate_constant(name, 0)
    with pytest.raises(BudgetExceededError):
        estimate_constant("C1", (1 << 20) + 1)


_NON_INTEGER_CUTOFFS = {
    "estimate-float": lambda: estimate_constant("C2", 1e3),
    "estimate-bool": lambda: estimate_constant("C2", True),
    "partial-C1": lambda: partial_C1(64.0),
    "partial-C7-numpy": lambda: partial_C7(np.float64(16)),
    "main-term": lambda: main_term_coefficient(4, 256.0),
    # the Voronoi sums' Y is a cutoff of the same kind
    "truncated-sum": lambda: voronoi.truncated_sum(100.5, 10.0),
    "truncated-sum-many-bool": lambda: voronoi.truncated_sum_many(np.array([100.5]), True),
    "residual-at": lambda: voronoi.residual_at(100.5, 10.0),
    "residual-mean-square": lambda: voronoi.residual_mean_square(1e4, 1e3, 10.5, 16),
    "bessel-partial-sum": lambda: voronoi.bessel_partial_sum(100.5, 10.0),
}


@pytest.mark.parametrize("case", list(_NON_INTEGER_CUTOFFS))
def test_non_integer_cutoff_refused(case):
    with pytest.raises(ValueError, match="must be an integer"):
        _NON_INTEGER_CUTOFFS[case]()


# every other integer argument of every layer follows the same rule
_NON_INTEGER_ARGUMENTS = {
    "signature-plus": lambda: RelationSignature(2.5, 1),
    "signature-minus-bool": lambda: RelationSignature(2, True),
    "range-end": lambda: RelationQuery(RelationSignature(1, 1), ((1, 12), (1, 12.0)), 0.1),
    "min-gap-Y": lambda: min_gap(RelationSignature(2, 2), 12.0),
    "eval-S-N": lambda: expsum.eval_S(1.0, 32.5, 2),
    "eval-S-k": lambda: expsum.eval_S(1.0, 32, 2.0),
    "abs-S-grid-N": lambda: expsum.abs_S_grid(np.linspace(1.0, 2.0, 16), np.float64(32), 2),
    "moment8-samples": lambda: expsum.moment8_S(64.0, 16, 2, samples=16.5),
    "residual-mean-square-samples": lambda: voronoi.residual_mean_square(1e5, 1e3, 10, 2.5),
    "bessel-tail-term-n": lambda: voronoi.bessel_tail_term(100.5, 2.5),
    "window-moment-k-bool": lambda: moments.window_moment(WindowSpec(X=10 ** 6, H=10 ** 4), True),
    "moment-k": lambda: moments.moment(2.0, 100.0),
    "profile-bool-power": lambda: moments.moment_profile([True], [], [100]),
    "main-term-k-bool": lambda: main_term_coefficient(True),
    "sieve-lo": lambda: build_divisor_table(1.5, 10),
    "sieve-hi": lambda: build_divisor_table(1, 10.0),
    "prefix-block": lambda: prefix_block(2.5, 10),
    "hyperbola": lambda: hyperbola_D(100.0),
    "hyperbola-many-float-array": lambda: hyperbola_D_many(np.array([100.7])),
    "kernel-decompose-bool": lambda: kernel_decompose(True),
    "kernel-decompose-float": lambda: kernel_decompose(2.5),
    "factor-table-bound": lambda: factor_table(10.0),
    "profile-threads": lambda: moments.moment_profile([2], [], [100], threads=1.5),
    "profile-threads-bool": lambda: moments.moment_profile([2], [], [100], threads=True),
    "moment-threads": lambda: moments.moment(2, 100.0, threads=1.5),
    "window-moment-threads-bool": lambda: moments.window_moment(WindowSpec(X=10 ** 6, H=10 ** 4), 2,
                                                                threads=True),
}


@pytest.mark.parametrize("case", list(_NON_INTEGER_ARGUMENTS))
def test_non_integer_argument_refused(case):
    with pytest.raises(ValueError, match="must be an integer"):
        _NON_INTEGER_ARGUMENTS[case]()


def test_partial_sums_memoized_per_cutoff(monkeypatch):
    # C4 at 64 needs the sums at 64 and 32; at 128 only the one at 128 is new
    calls = []

    def counting(p, q, Y, reach):
        calls.append(Y)
        return _relation_product(p, q, Y, reach)

    series._product.cache_clear()
    monkeypatch.setattr(series, "_relation_product", counting)
    first = partial_C4(64)
    second = partial_C4(128)
    assert calls == [64, 32, 128]
    assert second.tail_indicator == second.partial_sum - first.partial_sum

