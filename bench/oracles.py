"""Independent checks of the benchmark's outputs, run outside the timed region.

Nothing here imports divisorlab.  Exact quantities are recomputed by direct
methods (hyperbola sums written afresh, trial division, brute-force pair
counts with exact kernel grouping); float quantities are recomputed in 50-digit
mpmath arithmetic.

A job *fails* when it raised, when an integer output differs from its oracle,
or when an invariant is broken (a negative count, say).  Float outputs are not
failures: each yields a relative error, taken against the larger of the exact
value and the quantity's natural size (|Delta(x)| ~ x**(1/4), |S| ~ sqrt(N)),
so a value that happens to sit near zero does not inflate it.  The run is
correct only if every relative error stays within FLOAT_TOL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import mpmath
import numpy as np

DPS = 50

# Largest accepted relative error of a float output.  divisorlab forms
# x log x in double precision up to x = 2**40, where one rounding of it is
# 2**30 * log(2**40) * 2**-53 ~ 3.3e-6 of x**(1/4); a k-th power multiplies
# that by k <= 8.  The bound leaves a factor ~4 over 2.7e-5.
FLOAT_TOL = 1e-4

# Float sums of at most eight square roots of integers below 2**10 are exact to
# far better than this; pairs closer than it are classified exactly.
PAIR_EPS = 1e-9


@dataclass
class Verdict:
    """Outcome of the checks on one job's output."""

    problems: list[str] = field(default_factory=list)  # failed exact checks / invariants
    rel_errs: list[tuple[str, float]] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)

    def exact(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def close(self, label: str, got: float, exact, scale: float) -> None:
        """Record |got - exact| / max(|exact|, scale) for a float output."""
        if not math.isfinite(got):
            self.rel_errs.append((label, math.inf))
            return
        with mpmath.workdps(DPS):
            exact = mpmath.mpf(exact)
            err = abs(mpmath.mpf(got) - exact) / max(abs(exact), mpmath.mpf(scale))
        self.rel_errs.append((label, float(err)))


# --------------------------------------------------------------------------
# exact arithmetic
# --------------------------------------------------------------------------


@lru_cache(maxsize=None)
def D_exact(x: int) -> int:
    """D(x) = sum_{n<=x} d(n) = 2 sum_{n<=r} floor(x/n) - r**2, r = isqrt(x)."""
    if x < 1:
        return 0
    r = math.isqrt(x)
    return 2 * sum(x // n for n in range(1, r + 1)) - r * r


def d_trial(n: int) -> int:
    """Number of divisors of n by trial division."""
    count = 0
    for k in range(1, math.isqrt(n) + 1):
        if n % k == 0:
            count += 1 if k * k == n else 2
    return count


@lru_cache(maxsize=None)
def d_table(Y: int) -> list[int]:
    """d(0..Y) by a plain divisor-multiple loop; d[0] is unused."""
    d = [0] * (Y + 1)
    for k in range(1, Y + 1):
        for j in range(k, Y + 1, k):
            d[j] += 1
    return d


@lru_cache(maxsize=None)
def kernel(n: int) -> tuple[int, int]:
    """(a, h) with n = a**2 h and h squarefree, by trial division."""
    a, h, m, p = 1, 1, n, 2
    while p * p <= m:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        a *= p ** (e // 2)
        h *= p ** (e % 2)
        p += 1
    return a, h * m


def form_is_zero(plus, minus) -> bool:
    """sum sqrt(plus) == sum sqrt(minus), decided by kernel coefficient sums."""
    acc: dict[int, int] = {}
    for values, sign in ((plus, 1), (minus, -1)):
        for v in values:
            a, h = kernel(int(v))
            acc[h] = acc.get(h, 0) + sign * a
    return not any(acc.values())


def form_mp(plus, minus):
    with mpmath.workdps(DPS):
        return mpmath.fsum(mpmath.sqrt(v) for v in plus) - mpmath.fsum(mpmath.sqrt(v) for v in minus)


# --------------------------------------------------------------------------
# 50-digit values
# --------------------------------------------------------------------------


def delta_mp(x, D: int):
    with mpmath.workdps(DPS):
        x = mpmath.mpf(x)
        return D - x * mpmath.log(x) - (2 * mpmath.euler - 1) * x


def unit_integrals_mp(m: int, keys: list[str]) -> dict[str, object]:
    """Integrals over [m, m+1) of Delta**k ('pow:k') and |Delta|**A ('abs:A')."""
    D = D_exact(m)
    out = {}
    with mpmath.workdps(DPS):
        c = 2 * mpmath.euler - 1

        def f(x):
            return D - x * mpmath.log(x) - c * x

        a, b = mpmath.mpf(m), mpmath.mpf(m + 1)
        points = [a, b]
        # f falls strictly on the interval: at most one sign change
        if f(a) > 0 > f(b):
            points = [a, mpmath.findroot(f, (a, b), solver="anderson"), b]
        for key in keys:
            kind, p = key.split(":")
            if kind == "pow":
                k = int(p)
                out[key] = mpmath.quad(lambda x: f(x) ** k, points)
            else:
                A = mpmath.mpf(float(p))
                out[key] = mpmath.quad(lambda x: abs(f(x)) ** A, points)
    return out


@lru_cache(maxsize=None)
def cosine_sum_mp(x: float, Y: int):
    """x**(1/4) sum_{n<=Y} d(n) n**(-3/4) cos(4 pi sqrt(n x) - pi/4)."""
    d = d_table(Y)
    with mpmath.workdps(DPS):
        xm = mpmath.mpf(x)
        s = mpmath.fsum(d[n] * mpmath.mpf(n) ** mpmath.mpf(-0.75)
                        * mpmath.cos(4 * mpmath.pi * mpmath.sqrt(n * xm) - mpmath.pi / 4)
                        for n in range(1, Y + 1))
        return xm ** mpmath.mpf(0.25) * s


def residual_mp(x: float, Y: int):
    with mpmath.workdps(DPS):
        return delta_mp(x, D_exact(math.floor(x))) - cosine_sum_mp(x, Y) / (mpmath.pi * mpmath.sqrt(2))


def S_abs_mp(x: float, N: int, k: int):
    with mpmath.workdps(DPS):
        xm = mpmath.mpf(x)
        s = mpmath.fsum(mpmath.expjpi(2 * xm * mpmath.root(n, k)) for n in range(N + 1, 2 * N + 1))
        return abs(s)


def bessel_term_mp(x: float, n: int):
    with mpmath.workdps(DPS):
        xm = mpmath.mpf(x)
        z = 4 * mpmath.pi * mpmath.sqrt(n * xm)
        return -(2 * mpmath.sqrt(xm) / mpmath.pi) * d_trial(n) / mpmath.sqrt(n) * (
            mpmath.besselk(1, z) + mpmath.pi / 2 * mpmath.bessely(1, z))


# --------------------------------------------------------------------------
# brute-force near-solution counts
# --------------------------------------------------------------------------


def _side(ranges) -> tuple[np.ndarray, list[tuple[int, int]]]:
    sums = np.zeros(1)
    for lo, hi in ranges:
        sums = (sums[:, None] + np.sqrt(np.arange(lo, hi + 1, dtype=np.float64))[None, :]).ravel()
    return sums, [tuple(r) for r in ranges]


def _unravel(flat: int, ranges) -> tuple[int, ...]:
    out = []
    for lo, hi in reversed(ranges):
        n = hi - lo + 1
        out.append(lo + flat % n)
        flat //= n
    return tuple(reversed(out))


@lru_cache(maxsize=32)
def _box(plus_ranges: tuple, minus_ranges: tuple):
    """Sorted plus sums, minus sums, exact-zero count and the nonzero |form|
    values of every pair whose float difference is below PAIR_EPS."""
    plus, pr = _side(plus_ranges)
    minus, mr = _side(minus_ranges)
    order = np.argsort(plus, kind="stable")
    ps = plus[order]
    # pairs with |plus - minus| < PAIR_EPS
    lo = np.searchsorted(ps, minus - PAIR_EPS, side="right")
    hi = np.searchsorted(ps, minus + PAIR_EPS, side="left")
    zeros, tiny = 0, []
    for j in np.nonzero(hi > lo)[0]:
        mt = _unravel(int(j), mr)
        for i in range(lo[j], hi[j]):
            pt = _unravel(int(order[i]), pr)
            if form_is_zero(pt, mt):
                zeros += 1
            else:
                tiny.append(abs(form_mp(pt, mt)))
    return ps, order, minus, (pr, mr), zeros, tiny


def _pairs_within(ps: np.ndarray, minus: np.ndarray, t: float) -> int:
    """Pairs with |plus - minus| < t in float."""
    return int((np.searchsorted(ps, minus + t, side="left")
                - np.searchsorted(ps, minus - t, side="right")).sum())


def near_count_exact(ranges, plus: int, delta: float) -> tuple[int, int, int]:
    """(count of tuples with 0 < |form| < delta, exact zeros, all tuples).

    Pairs whose float difference lies within PAIR_EPS of 0 or of delta are
    decided exactly (kernel grouping, then 50 digits); all others are decided
    by their float difference, whose error is far below PAIR_EPS.
    """
    key = (tuple(map(tuple, ranges[:plus])), tuple(map(tuple, ranges[plus:])))
    ps, order, minus, (pr, mr), zeros, tiny = _box(*key)
    total = ps.size * minus.size
    if delta == 0:
        return zeros, zeros, total
    if math.isinf(delta):
        return total - zeros, zeros, total
    count = sum(1 for g in tiny if g < delta)
    if delta > 2 * PAIR_EPS:
        # certain: PAIR_EPS <= |diff| < delta - PAIR_EPS
        count += _pairs_within(ps, minus, delta - PAIR_EPS) - _pairs_within(ps, minus, PAIR_EPS)
        # undecided: |diff| within PAIR_EPS of delta, on either side of minus
        for centre in (minus - delta, minus + delta):
            lo = np.searchsorted(ps, centre - PAIR_EPS, side="left")
            hi = np.searchsorted(ps, centre + PAIR_EPS, side="right")
            for j in np.nonzero(hi > lo)[0]:
                for i in range(lo[j], hi[j]):
                    g = abs(form_mp(_unravel(int(order[i]), pr), _unravel(int(j), mr)))
                    count += int(g < delta)
    return count, zeros, total


# --------------------------------------------------------------------------
# per-operation checks
# --------------------------------------------------------------------------


def _finite(v: Verdict, label: str, x) -> bool:
    ok = isinstance(x, (int, float)) and math.isfinite(x)
    v.exact(ok, f"{label} is not a finite number: {x!r}")
    return ok


def _check_profile(a, out, v):
    cps = sorted(int(c) for c in a["checkpoints"])
    v.exact(sorted(int(c) for c in out) == cps, f"checkpoints {sorted(out)} != {cps}")
    if not v.problems and cps == [a["lo"] + 1]:
        m = a["lo"]
        got = out[str(m + 1)]
        exact = unit_integrals_mp(m, sorted(got))
        for key, value in sorted(got.items()):
            p = float(key.split(":")[1])
            v.close(f"unit [{m},{m + 1}) {key}", value, exact[key], m ** (p / 4))
        return
    prev = {}
    for cp in cps:
        for key, value in out[str(cp)].items():
            if not _finite(v, f"{key} at {cp}", value):
                continue
            kind, p = key.split(":")
            if kind == "abs" or int(p) % 2 == 0:
                v.exact(value > 0, f"{key} at {cp} = {value} not positive")
                v.exact(value >= prev.get(key, 0.0), f"{key} decreases at {cp}")
            if kind == "abs" and a["abs_limit"] is not None and cp > a["abs_limit"]:
                # the |Delta|**A accumulation stops at abs_limit
                v.exact(value == prev.get(key), f"{key} moves past abs_limit at {cp}")
            prev[key] = value


def _check_window(a, out, v):
    v.exact(out["lo"] == a["X"] and out["hi"] == a["X"] + a["H"],
            f"window [{out['lo']}, {out['hi']}] != [{a['X']}, {a['X'] + a['H']}]")
    if _finite(v, "integral", out["integral"]) and a["k"] % 2 == 0:
        v.exact(out["integral"] > 0, f"even-power integral {out['integral']} not positive")


def _check_delta(a, out, v):
    x = a["x"]
    D = D_exact(math.floor(x))
    v.exact(out["D"] == D, f"D({math.floor(x)}) = {out['D']} != {D}")
    v.close(f"Delta({x})", out["delta"], delta_mp(x, D), x ** 0.25)


def _check_prefix(a, out, v):
    start, stop = a["start"], a["stop"]
    v.exact(len(out) == stop - start, f"{len(out)} values for [{start}, {stop})")
    if v.problems:
        return
    # sieve cumsum against the hyperbola sum at both edges of the block
    for m in (start, stop - 1):
        v.exact(out[m - start] == D_exact(m), f"D({m}) = {out[m - start]} != {D_exact(m)}")
    for i in range(1, len(out), max(1, len(out) // 8)):
        n = start + i
        v.exact(out[i] - out[i - 1] == d_trial(n), f"d({n}) = {out[i] - out[i - 1]} != {d_trial(n)}")


def _check_voronoi_point(op):
    def check(a, out, v):
        x, Y = a["x"], a["Y"]
        exact = residual_mp(x, Y) if op == "residual_at" else cosine_sum_mp(x, Y)
        v.close(f"{op}({x}, {Y})", out, exact, x ** 0.25)
    return check


def _check_partial(a, out, v):
    if _finite(v, "partial_sum", out["partial_sum"]) and _finite(v, "tail", out["tail_indicator"]):
        v.exact(out["Y"] == a["Y"], f"Y {out['Y']} != {a['Y']}")
        v.exact(out["partial_sum"] > 0, f"{a['name']} partial sum {out['partial_sum']} not positive")
        v.exact(0 <= out["tail_indicator"] <= out["partial_sum"],
                f"tail indicator {out['tail_indicator']} outside [0, partial]")


def _check_ladder(a, out, v):
    ps = out["partials"]
    if all(_finite(v, f"partial {y}", p) for y, p in zip(a["Ys"], ps)):
        # positive weights: partial sums grow with the cutoff
        v.exact(all(p > 0 for p in ps) and ps == sorted(ps), f"partials not increasing: {ps}")
    _finite(v, "extrapolated", out["extrapolated"])


def _check_count(a, count, v):
    expected, zeros, total = near_count_exact(a["ranges"], a["plus"], a["delta"])
    v.exact(0 <= count <= total - zeros,
            f"count {count} outside [0, total - zeros = {total - zeros}] at delta={a['delta']!r}")
    v.exact(count == expected, f"count {count} != brute force {expected} at delta={a['delta']!r}")


def _check_near_count(a, out, v):
    _check_count(a, out["count"], v)


def _check_min_gap(a, out, v):
    plus_t, minus_t = out["witness"]
    Y = a["Y"]
    v.exact(len(plus_t) == a["plus"] and len(minus_t) == a["minus"]
            and all(1 <= t <= Y for t in plus_t + minus_t), f"witness {out['witness']} off the box")
    if v.problems:
        return
    v.exact(not form_is_zero(plus_t, minus_t), f"witness {out['witness']} is an exact zero")
    v.close("gap at witness", out["gap"], abs(form_mp(plus_t, minus_t)), 0.0)


def _check_moment8(a, out, v):
    if _finite(v, "integral", out["integral"]) and _finite(v, "ratio", out["ratio"]):
        bound = a["U"] * a["N"] ** 4 + a["N"] ** (8.0 - 1.0 / a["k"])
        v.exact(out["integral"] > 0, f"eighth moment {out['integral']} not positive")
        v.exact(math.isclose(out["ratio"], out["integral"] / bound, rel_tol=1e-12),
                f"ratio {out['ratio']} != integral / bound")


def _check_S_points(v, N, k, points):
    """points: (x, |S|) pairs; every 32nd is checked in 50 digits."""
    for x, value in points[::32]:
        v.close(f"|S({x}, {N}, {k})|", value, S_abs_mp(x, N, k), math.sqrt(N))


def _check_eval_S_grid(a, out, v):
    v.exact(len(out) == a["points"], f"{len(out)} grid points != {a['points']}")
    _check_S_points(v, a["N"], a["k"], [(x, math.hypot(re, im)) for x, re, im in out])


def _check_positive(label):
    def check(a, out, v):
        if _finite(v, label, out):
            v.exact(out > 0, f"{label} {out} not positive")
    return check


def _check_bessel_term(a, out, v):
    x, n = a["x"], a["n"]
    z = 4 * math.pi * math.sqrt(n * x)
    envelope = 2 * math.sqrt(x) / math.pi * d_trial(n) / math.sqrt(n) * math.sqrt(math.pi / (2 * z))
    v.close(f"bessel term ({x}, {n})", out, bessel_term_mp(x, n), envelope)


def _column(table, name):
    return [row[table["header"].index(name)] for row in table["rows"]]


def _check_cli(a, out, v):
    v.exact(out["exit"] == 0, f"exit code {out['exit']}")
    if v.problems:
        return
    files = out["files"]
    command, opts = a["argv"][0], dict(zip(a["argv"][1::2], a["argv"][2::2]))
    if command == "sieve":
        t = files["sieve.csv"]
        n, d, D = ([int(s) for s in _column(t, c)] for c in ("n", "d", "D"))
        v.exact(n == list(range(int(opts["--lo"]), int(opts["--hi"]) + 1)),
                "sieve rows do not cover [lo, hi]")
        v.exact(all(D[i] - D[i - 1] == d[i] for i in range(1, len(D))), "D increments != d")
        for i in (0, len(n) - 1):
            v.exact(D[i] == D_exact(n[i]), f"D({n[i]}) = {D[i]} != {D_exact(n[i])}")
        for i in range(0, len(n), max(1, len(n) // 16)):
            v.exact(d[i] == d_trial(n[i]), f"d({n[i]}) = {d[i]} != {d_trial(n[i])}")
    elif command == "window":
        integral = float(_column(files["window.csv"], "integral")[0])
        if _finite(v, "window integral", integral) and int(opts["--k"]) % 2 == 0:
            v.exact(integral > 0, f"even-power window integral {integral} not positive")
    elif command == "count":
        ranges = [[int(x) for x in r.split(":")] for r in opts["--ranges"].split(",")]
        args = {"ranges": ranges, "plus": int(opts["--plus"]), "delta": float(opts["--delta"])}
        _check_count(args, int(_column(files["count.csv"], "count")[0]), v)
    elif command == "expsum":
        integral = float(_column(files["expsum_moment.csv"], "integral")[0])
        if _finite(v, "eighth moment", integral):
            v.exact(integral > 0, f"eighth moment {integral} not positive")
        grid = files["expsum_grid.csv"]
        points = [(float(x), float(s)) for x, s in zip(_column(grid, "x"), _column(grid, "abs_S"))]
        _check_S_points(v, int(opts["--N"]), int(opts.get("--rootk", 2)), points)


CHECKS = {
    "moment_profile": _check_profile,
    "window_moment": _check_window,
    "delta_at": _check_delta,
    "prefix_block": _check_prefix,
    "residual_at": _check_voronoi_point("residual_at"),
    "truncated_sum": _check_voronoi_point("truncated_sum"),
    "partial": _check_partial,
    "ladder": _check_ladder,
    "near_count": _check_near_count,
    "min_gap": _check_min_gap,
    "moment8_S": _check_moment8,
    "eval_S_grid": _check_eval_S_grid,
    "residual_mean_square": _check_positive("residual mean square"),
    "bessel_partial_sum": lambda a, out, v: _finite(v, "Bessel partial sum", out),
    "bessel_tail_term": _check_bessel_term,
    "cli": _check_cli,
}


def check_job(job: dict, output) -> Verdict:
    """Run the oracle for one job's output."""
    v = Verdict()
    CHECKS[job["op"]](job["args"], output, v)
    return v
