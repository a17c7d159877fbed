"""Acceptance battery: thirteen numbered checks covering every component.

Each check prints one PASS/FAIL line with the measured quantities; the battery
returns the results.  Tolerances are fixed here and nowhere else.  The
expensive shared inputs are computed once and reused across checks: the
streaming moment profile here, the constant estimates by series' memo.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .divisor import delta_at, hyperbola_D_many, prefix_block
from .expsum import moment8_S
from .moments import moment_main_term, moment_profile
from .relations import (
    RelationQuery,
    RelationSignature,
    min_gap,
    near_solution_count,
)
from .series import estimate_constant, main_term_coefficient
from .voronoi import residual_mean_square

A_SMALL = 35.0 / 4.0
A_LARGE = 267.0 / 27.0


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"criterion {self.index:2d} [{tag}] {self.name}: {self.detail}"


class AcceptanceContext:
    """Shared expensive inputs for the criteria, computed lazily."""

    def __init__(self, quick: bool = False, threads: int = 1):
        self.quick = quick
        self.threads = threads
        self.X_hi = 10 ** 6 if quick else 10 ** 7
        self.X_mid = 10 ** 5
        self.abs_limit = 10 ** 5 if quick else 10 ** 6
        self.constant_cutoff = 10 ** 3 if quick else 10 ** 4

    @cached_property
    def checkpoints(self) -> list[int]:
        cps = [10 ** 4, 10 ** 5, 10 ** 6, 10 ** 7]
        return [c for c in cps if c <= self.X_hi]

    @cached_property
    def profile(self) -> dict[int, dict]:
        """One streaming pass: Delta**k for k in {1,2,3,4,8} plus the two
        fractional absolute powers, at every checkpoint."""
        return moment_profile(
            powers=[1, 2, 3, 4, 8],
            abs_powers=[A_SMALL, A_LARGE],
            checkpoints=self.checkpoints,
            threads=self.threads,
            abs_limit=self.abs_limit,
        )

    def constants_used(self, *names: str) -> str:
        """The named estimates with their tail indicators, for a detail line."""
        return " ".join(
            f"{n}={e.estimate:.6g} (partial {e.partial_sum:.6g} tail {e.estimate_tail:.3g})"
            for n, e in ((n, estimate_constant(n, self.constant_cutoff)) for n in names))

    def pow_integral(self, k: int, X: int) -> float:
        return self.profile[X][("pow", k)]

    def abs_integral(self, A: float, X: int) -> float:
        return self.profile[X][("abs", A)]


# --------------------------------------------------------------------------
# the thirteen criteria
# --------------------------------------------------------------------------


def criterion_1(ctx: AcceptanceContext) -> CriterionResult:
    """Sieve prefix sums equal the hyperbola formula for every x up to 1e6."""
    limit = 10 ** 5 if ctx.quick else 10 ** 6
    t0 = time.perf_counter()
    prefix = prefix_block(1, limit + 1)
    direct = hyperbola_D_many(np.arange(1, limit + 1, dtype=np.int64))
    # the seconds themselves stay out of the detail, which must not vary between runs
    in_time = time.perf_counter() - t0 < 60.0
    equal = bool(np.array_equal(prefix, direct))
    return CriterionResult(1, "exact D(x) agreement", equal and in_time,
                           f"equal={equal} up to {limit}, within 60s={in_time}")


def criterion_2(ctx: AcceptanceContext) -> CriterionResult:
    """Delta(100) = 6.0399 +- 1e-3, with D(100) = 482."""
    s = delta_at(100.0)
    oracle_D = sum(100 // k for k in range(1, 101))
    ok = s.D == 482 and oracle_D == 482 and abs(s.delta - 6.0399) <= 1e-3
    return CriterionResult(2, "pointwise Delta", ok,
                           f"D(100)={s.D} (oracle {oracle_D}), Delta={s.delta:.5f}")


def criterion_3(ctx: AcceptanceContext) -> CriterionResult:
    """|int Delta - X/4| <= 20 X^{3/4} at each checkpoint from 1e5 up."""
    parts = []
    ok = True
    for X in ctx.checkpoints:
        if X < 10 ** 5:
            continue
        err = abs(ctx.pow_integral(1, X) - X / 4.0)
        bound = 20.0 * X ** 0.75
        ok &= err <= bound
        parts.append(f"X={X:.0e}: |err|={err:.3g}<= {bound:.3g}")
    return CriterionResult(3, "first moment", ok, "; ".join(parts))


def criterion_4(ctx: AcceptanceContext) -> CriterionResult:
    """Second moment coefficient within 10% at the top scale, improving."""
    coeff = main_term_coefficient(2)
    devs = {X: abs(ctx.pow_integral(2, X) / X ** 1.5 / coeff - 1.0)
            for X in (ctx.X_mid, ctx.X_hi)}
    ok = devs[ctx.X_hi] <= 0.10 and devs[ctx.X_hi] < devs[ctx.X_mid]
    return CriterionResult(4, "second moment", ok,
                           f"coeff={coeff:.6f}, rel dev {ctx.X_mid:.0e}: {devs[ctx.X_mid]:.4f}"
                           f" -> {ctx.X_hi:.0e}: {devs[ctx.X_hi]:.4f} (need <=0.10, decreasing)")


def criterion_5(ctx: AcceptanceContext) -> CriterionResult:
    """Third/fourth moments within 25% at the top scale, improving."""
    parts = []
    ok = True
    for k in (3, 4):
        devs = {}
        for X in (ctx.X_mid, ctx.X_hi):
            main = moment_main_term(k, X, ctx.constant_cutoff)
            devs[X] = abs(ctx.pow_integral(k, X) / main - 1.0)
        ok &= devs[ctx.X_hi] <= 0.25 and devs[ctx.X_hi] < devs[ctx.X_mid]
        parts.append(f"k={k}: dev {devs[ctx.X_mid]:.4f} -> {devs[ctx.X_hi]:.4f}")
    return CriterionResult(5, "third/fourth moments", ok,
                           "; ".join(parts) + f" (Y={ctx.constant_cutoff}, need <=0.25, decreasing); "
                           + ctx.constants_used("C1", "C2"))


def criterion_6(ctx: AcceptanceContext) -> CriterionResult:
    """Eighth moment ratio to its main term in [0.5, 2], approaching 1."""
    ratios = {X: ctx.pow_integral(8, X) / moment_main_term(8, X, ctx.constant_cutoff)
              for X in (ctx.X_mid, ctx.X_hi)}
    ok = 0.5 <= ratios[ctx.X_hi] <= 2.0 and abs(ratios[ctx.X_hi] - 1) < abs(ratios[ctx.X_mid] - 1)
    return CriterionResult(6, "eighth moment", ok,
                           f"ratio {ctx.X_mid:.0e}: {ratios[ctx.X_mid]:.4f} -> "
                           f"{ctx.X_hi:.0e}: {ratios[ctx.X_hi]:.4f} (need in [0.5,2], toward 1); "
                           f"Y={ctx.constant_cutoff} " + ctx.constants_used("C4", "C7"))


def criterion_7(ctx: AcceptanceContext) -> CriterionResult:
    """Algebraic identity between the two eighth-moment coefficient forms."""
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(100):
        c4, c7 = rng.uniform(0.1, 100.0, size=2)
        lhs = (math.pi * math.sqrt(2.0)) ** -8 * (35 * c7 / 128 - 7 * c4 / 32)
        rhs = (35 * c7 - 28 * c4) / (2048 * math.pi ** 8)
        denom = max(abs(lhs), abs(rhs), 1e-300)
        worst = max(worst, abs(lhs - rhs) / denom)
    ok = worst <= 1e-14
    return CriterionResult(7, "coefficient identity", ok, f"max rel err {worst:.2e} <= 1e-14")


def criterion_8(ctx: AcceptanceContext) -> CriterionResult:
    """Truncation residual mean square drops by a factor in [2, 8] per 16x Y."""
    X = float(ctx.X_mid)
    H = float(ctx.X_mid)
    samples = 512 if ctx.quick else 2048
    parts = []
    ok = True
    for Y in (100, 1000):
        ms_lo = residual_mean_square(X, H, Y, samples)
        ms_hi = residual_mean_square(X, H, 16 * Y, samples)
        ratio = ms_lo / ms_hi
        ok &= 2.0 <= ratio <= 8.0
        parts.append(f"Y={Y}: {ms_lo:.2f}/{ms_hi:.2f}={ratio:.2f}")
    return CriterionResult(8, "truncation mean square", ok,
                           "; ".join(parts) + " (need in [2,8])")


def criterion_9(ctx: AcceptanceContext) -> CriterionResult:
    """Minimal-gap constants gap*Y**e positive and stable within x10 per
    doubling, for the 4-variable and 8-variable exponents."""
    parts = []
    ok = True
    for sig, cutoffs in ((RelationSignature(2, 2), (50, 100)),
                         (RelationSignature(4, 4), (6, 12))):
        consts = []
        for Y in cutoffs:
            gap, _, const = min_gap(sig, Y)
            consts.append(const)
        positive = all(c > 0 for c in consts)
        stability = max(consts) / min(consts)
        stable = stability <= 10.0
        ok &= positive and stable
        parts.append(
            f"({sig.plus},{sig.minus}) e={sig.gap_exponent}: constants "
            + ", ".join(f"{c:.3g}" for c in consts)
            + f", spread x{stability:.3g}"
        )
    return CriterionResult(9, "gap constants", ok, "; ".join(parts) + " (need spread <=x10)")


def _shape_constant(sig, ranges, thresholds, bound_fn) -> tuple[float, list[int]]:
    """Largest fitted constant count/bound over a threshold grid, plus counts."""
    best = 0.0
    counts = []
    for d in thresholds:
        query = RelationQuery(sig, ranges, d)
        c = near_solution_count(query).count
        counts.append(c)
        best = max(best, c / bound_fn(d))
    return best, counts


def criterion_10(ctx: AcceptanceContext) -> CriterionResult:
    """Counting bounds: monotone in the threshold, stable shape constants,
    and the exact enumerator matches a float-filtered brute force."""
    deltas = (0.01, 0.05, 0.2)
    problems = []

    # monotonicity of the count in delta
    sig22 = RelationSignature(2, 2)
    box32 = tuple((1, 32) for _ in range(4))
    mono_counts = [near_solution_count(RelationQuery(sig22, box32, d)).count
                   for d in (0.001, 0.01, 0.1, 1.0)]
    if any(b < a for a, b in zip(mono_counts, mono_counts[1:])):
        problems.append(f"count not monotone in delta: {mono_counts}")

    # 4-variable shape: count <= C * (K^4 (delta + K^-3/2) + K^2), threshold delta*sqrt(K)
    cs = []
    for K in (16, 32, 64):
        c, _ = _shape_constant(
            sig22, tuple((1, K) for _ in range(4)),
            [d * math.sqrt(K) for d in deltas],
            lambda t, K=K: K ** 4 * (t / math.sqrt(K) + K ** -1.5) + K ** 2)
        cs.append(c)
    spread4 = max(b / a for a, b in zip(cs, cs[1:])) if len(cs) > 1 else 1.0
    spread4 = max(spread4, max(a / b for a, b in zip(cs, cs[1:])))
    if spread4 > 8.0:
        problems.append(f"4-var shape constant spread x{spread4:.2f} > 8: {cs}")

    # 8-variable shape: count <= C * (delta L^2 + sqrt(L)) * L^6, dyadic boxes
    sig44 = RelationSignature(4, 4)
    cs8 = []
    for L in (4, 8):
        c, _ = _shape_constant(
            sig44, tuple((L + 1, 2 * L) for _ in range(8)),
            [d * math.sqrt(L) for d in deltas],
            lambda t, L=L: (t / math.sqrt(L) * L ** 2 + math.sqrt(L)) * L ** 6)
        cs8.append(c)
    spread8 = max(cs8) / min(cs8)
    if spread8 > 8.0:
        problems.append(f"8-var shape constant spread x{spread8:.2f} > 8: {cs8}")

    # per-variable product shape: count <= C * prod(delta^{1/8} N^{15/16} + N^{1/4})
    csp = []
    for N in (4, 8):
        c, _ = _shape_constant(
            sig44, tuple((N + 1, 2 * N) for _ in range(8)), deltas,
            lambda t, N=N: (t ** 0.125 * N ** (15.0 / 16.0) + N ** 0.25) ** 8)
        csp.append(c)
    spreadp = max(csp) / min(csp)
    if spreadp > 8.0:
        problems.append(f"product shape constant spread x{spreadp:.2f} > 8: {csp}")

    # exact enumeration vs float-filtered brute force at Y = 12
    for sig in (sig22, sig44):
        Y = 12
        box = tuple((1, Y) for _ in range(sig.arity))
        kernel_count = near_solution_count(RelationQuery(sig, box, 0.0)).count
        left = np.sort(_brute_side(box[: sig.plus]))
        right = _brute_side(box[sig.plus:])
        hi = np.searchsorted(left, right + 1e-10, side="left")
        lo = np.searchsorted(left, right - 1e-10, side="right")
        brute = int((hi - lo).sum())
        if kernel_count != brute:
            problems.append(f"({sig.plus},{sig.minus}) Y=12 exact {kernel_count} != brute {brute}")

    ok = not problems
    detail = ("; ".join(problems) if problems else
              f"monotone {mono_counts}; shape spreads x{spread4:.2f}/x{spread8:.2f}/x{spreadp:.2f}"
              f" (<=x8); exact==brute at Y=12")
    return CriterionResult(10, "counting bounds", ok, detail)


def _brute_side(ranges) -> np.ndarray:
    sums = np.zeros(1)
    for lo, hi in ranges:
        roots = np.sqrt(np.arange(lo, hi + 1, dtype=np.float64))
        sums = (sums[:, None] + roots[None, :]).ravel()
    return sums


def criterion_11(ctx: AcceptanceContext) -> CriterionResult:
    """Eighth moment of S(x, N, 2) against U N^4 + N^{7.5}: the constant
    fitted at the smallest N bounds the larger N within x8, per U regime."""
    Ns = (16, 32, 64) if ctx.quick else (64, 128, 256)
    parts = []
    ok = True
    for label, U_of in (("U=N", lambda n: float(n)), ("U=N^2", lambda n: float(n * n))):
        ratios = [moment8_S(U_of(N), N, 2)[1] for N in Ns]
        fitted = ratios[0]
        within = all(r <= 8.0 * fitted for r in ratios)
        ok &= within and all(r > 0 for r in ratios)
        parts.append(label + ": " + ", ".join(f"{r:.2e}" for r in ratios))
    return CriterionResult(11, "exp-sum eighth moment", ok,
                           "; ".join(parts) + " (each <= 8x the first)")


def criterion_12(ctx: AcceptanceContext) -> CriterionResult:
    """Growth of int |Delta|^A stays below the X^{1+A/4} rate."""
    Xs = [c for c in ctx.checkpoints if c <= ctx.abs_limit]
    parts = []
    ok = True
    for A in (A_SMALL, A_LARGE):
        logs_x = np.log([float(X) for X in Xs])
        logs_i = np.log([ctx.abs_integral(A, X) for X in Xs])
        slope = float(np.polyfit(logs_x, logs_i, 1)[0])
        limit = 1.0 + A / 4.0 + 0.05
        ok &= slope <= limit
        parts.append(f"A={A:.4g}: slope {slope:.4f} <= {limit:.4f}")
    return CriterionResult(12, "absolute-moment growth", ok, "; ".join(parts))


def criterion_13(ctx: AcceptanceContext) -> CriterionResult:
    """Thread count must not change any reported digit: re-run a threaded
    moment pass at 1 and 8 threads and compare CSV-rendered values."""
    X = ctx.X_mid
    rows = {}
    for threads in (1, 8):
        prof = moment_profile([2, 8], [A_SMALL], [X], threads=threads)
        rows[threads] = ",".join(
            format(prof[X][key], ".17g")
            for key in sorted(prof[X], key=str)
        )
    ok = rows[1] == rows[8]
    return CriterionResult(13, "thread determinism", ok,
                           f"1-thread == 8-thread CSV rows: {ok} ({rows[1]})")


_CRITERIA = [
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
    criterion_11, criterion_12, criterion_13,
]


def run_acceptance(quick: bool = False, threads: int = 1) -> list[tuple[CriterionResult, float]]:
    """Run all criteria, printing each one's line as it finishes; returns
    each result with its wall seconds."""
    ctx = AcceptanceContext(quick=quick, threads=threads)
    results = []
    for crit in _CRITERIA:
        t0 = time.perf_counter()
        result = crit(ctx)
        seconds = time.perf_counter() - t0
        print(result.line() + f"  [{seconds:.1f}s]", flush=True)
        results.append((result, seconds))
    return results
