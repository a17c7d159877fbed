"""Seeded job lists for the four benchmark workloads.

A job is a JSON-ready dict ``{"id": str, "op": str, "args": {...}}``.  The
worker maps ``op`` to one call into divisorlab's public API; the oracles in
``oracles.py`` check the output.  Only these generated arguments reach the
program: the seed itself never does.

Each seed draws positions, offsets and scales inside narrow bands, so two
seeds give different inputs with nearly the same amount of work (see
``work_counts``); the run-to-run spread of the timings then reflects the
program, not the draw.
"""

from __future__ import annotations

import json
import math
import random

WORKLOADS = ("stream", "large-x", "arith", "oscillatory")

# Why each workload exists; BENCHMARK.json repeats these lines.
WHY = {
    "stream": "one long threaded moment_profile: the paper's core pass, mostly moments quadrature over sieve blocks",
    "large-x": "short windows and point values at X in 1e10..1e12: per-call O(sqrt x) sieve and hyperbola costs, float64 cancellation",
    "arith": "series constants and square-root relation counts: exact integer work with no quadrature, includes the delta=1e-16 count",
    "oscillatory": "exp-sum eighth moments, eval_S grid, Voronoi residual mean squares and Bessel terms: the complex-exponential and cosine kernels",
}

# Threads for the one threaded workload; equals nproc on the 2-CPU machine
# the baseline was measured on.  Everything else runs single-threaded.
STREAM_THREADS = 2

A_SMALL = 35.0 / 4.0
A_LARGE = 267.0 / 27.0
TWO_40 = float(1 << 40)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"divisorlab-bench:{workload}:{seed}")


def _job(jobs: list, job_id: str, op: str, **args) -> None:
    jobs.append({"id": job_id, "op": op, "args": args})


def _stream(r: random.Random) -> list[dict]:
    jobs: list[dict] = []
    top = 4_000_000 + r.randrange(0, 40_000)
    _job(jobs, "profile", "moment_profile", powers=[1, 2, 3, 4, 8], abs_powers=[A_SMALL, A_LARGE],
         checkpoints=[10 ** 4, 10 ** 5, 10 ** 6, top], lo=2, threads=STREAM_THREADS,
         abs_limit=10 ** 6)
    # unit intervals [m, m+1) checked against a 50-digit quadrature
    for i, (a, b) in enumerate(((10 ** 3, 10 ** 4), (10 ** 4, 10 ** 5), (10 ** 5, 10 ** 6),
                                (10 ** 6, 4 * 10 ** 6))):
        m = r.randrange(a, b)
        _job(jobs, f"unit-{i}", "moment_profile", powers=[1, 2, 3, 4, 8],
             abs_powers=[A_SMALL, A_LARGE], checkpoints=[m + 1], lo=m, threads=1, abs_limit=None)
    lo = r.randrange(10 ** 6, 10 ** 7)
    _job(jobs, "cli-sieve", "cli", argv=["sieve", "--lo", str(lo), "--hi", str(lo + 1999)])
    return jobs


def _large_x(r: random.Random) -> list[dict]:
    jobs: list[dict] = []
    H = 1 << 16
    _job(jobs, "window-1e12", "window_moment", X=int(1e12 * (1 + r.random() / 100)), H=H, k=2)
    _job(jobs, "window-1e11", "window_moment", X=int(1e11 * (1 + r.random() / 100)), H=H, k=4)
    X10 = int(1e10 * (1 + r.random() / 100))
    _job(jobs, "cli-window", "cli",
         argv=["window", "--k", "2", "--X", str(X10), "--H", str(H)])
    # D(x) straddling 2**40, where Delta switches to extended precision
    for i, sign in enumerate((-1, 1)):
        x = TWO_40 + sign * r.randrange(1_000, 1_000_000) + 0.5
        _job(jobs, f"delta-{i}", "delta_at", x=x)
    for i in range(3):
        x = r.randrange(10 ** 9, 10 ** 10) + 0.5
        _job(jobs, f"residual-{i}", "residual_at", x=x, Y=2000)
        _job(jobs, f"tsum-{i}", "truncated_sum", x=x, Y=2000)
    start = int(2e10 * (1 + r.random() / 100))
    _job(jobs, "prefix", "prefix_block", start=start, stop=start + 4096)
    for i, base in enumerate((1e10, 3e10, 1e11)):
        m = int(base * (1 + r.random() / 100))
        _job(jobs, f"unit-{i}", "moment_profile", powers=[2, 4], abs_powers=[],
             checkpoints=[m + 1], lo=m, threads=1, abs_limit=None)
    return jobs


def _arith(r: random.Random) -> list[dict]:
    jobs: list[dict] = []
    # the C1 FFT length stays at 8192 for every Y drawn here (4Y+1 <= 8192)
    _job(jobs, "C1", "partial", name="C1", Y=r.randrange(1940, 2041))
    _job(jobs, "C2", "partial", name="C2", Y=r.randrange(9800, 10201))
    for name in ("C4", "C7"):
        _job(jobs, f"{name}-ladder", "ladder", name=name, Ys=[64, 128, 256])
    for K in (16, 32, 64):
        o = r.randrange(0, 9)
        box = [[o + 1, o + K]] * 4
        # 1e-16 is below float64 resolution of the side sums: the count
        # there exposes the known negative-count defect and is kept.
        for tag, delta in (("0", 0.0), ("1e-16", 1e-16), ("d", r.uniform(0.01, 0.05))):
            _job(jobs, f"count22-K{K}-{tag}", "near_count", plus=2, minus=2, ranges=box,
                 delta=delta)
    for L in (4, 8):
        box = [[L + 1, 2 * L]] * 8
        for tag, delta in (("0", 0.0), ("d", r.uniform(0.01, 0.05))):
            _job(jobs, f"count44-L{L}-{tag}", "near_count", plus=4, minus=4, ranges=box,
                 delta=delta)
    _job(jobs, "mingap22", "min_gap", plus=2, minus=2, Y=100)
    _job(jobs, "mingap44", "min_gap", plus=4, minus=4, Y=12)
    o = r.randrange(0, 9)
    ranges = ",".join(f"{o + 1}:{o + 32}" for _ in range(4))
    _job(jobs, "cli-count", "cli", argv=["count", "--plus", "2", "--minus", "2", "--ranges",
                                         ranges, "--delta", repr(r.uniform(0.01, 0.05))])
    return jobs


def _oscillatory(r: random.Random) -> list[dict]:
    jobs: list[dict] = []
    s = 1 + r.random() / 50
    for N in (32, 64, 96):
        _job(jobs, f"m8-N{N}-U=N", "moment8_S", U=N * s, N=N, k=2)
    for N in (32, 64):
        _job(jobs, f"m8-N{N}-U=N2", "moment8_S", U=N * N * s, N=N, k=2)
    _job(jobs, "evalS-grid", "eval_S_grid", U=64 * 64 * s, N=64, k=2, points=256)
    X = 1e5 * (1 + r.random() / 50)
    for Y in (1000, 16000):
        _job(jobs, f"rms-Y{Y}", "residual_mean_square", X=X, H=1e5, Y=Y, samples=512)
    _job(jobs, "bessel-sum", "bessel_partial_sum", x=r.randrange(10 ** 4, 10 ** 5) + 0.5, Y=1000)
    for i in range(6):
        _job(jobs, f"bessel-term-{i}", "bessel_tail_term",
             x=r.randrange(10 ** 3, 10 ** 6) + 0.5, n=r.randrange(1, 2000))
    for i in range(3):
        _job(jobs, f"tsum-{i}", "truncated_sum", x=r.randrange(10 ** 5, 2 * 10 ** 5) + 0.5, Y=1000)
    _job(jobs, "cli-expsum", "cli",
         argv=["expsum", "--N", "32", "--U", repr(1024 * s), "--samples", "256"])
    return jobs


_JOB_LISTS = {"stream": _stream, "large-x": _large_x, "arith": _arith, "oscillatory": _oscillatory}


def make_jobs(workload: str, seed: int) -> list[dict]:
    """The job list of one workload for one seed."""
    if workload not in _JOB_LISTS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _JOB_LISTS[workload](_rng(workload, seed))


def encode(jobs: list[dict]) -> bytes:
    """Canonical bytes of a job list (same jobs, same bytes)."""
    return json.dumps(jobs, sort_keys=True, separators=(",", ":")).encode()


def work_counts(jobs: list[dict]) -> dict[str, float]:
    """Work implied by the arguments alone, per kind of work.

    Used to show that seeds change inputs but not the size of the job list.
    """
    w = {"intervals": 0.0, "sqrt_setups": 0.0, "series_Y": 0.0, "side_tuples": 0.0,
         "exp_terms": 0.0, "cos_terms": 0.0}
    for job in jobs:
        op, a = job["op"], job["args"]
        if op == "moment_profile":
            w["intervals"] += max(a["checkpoints"]) - a["lo"]
            w["sqrt_setups"] += math.isqrt(max(a["checkpoints"]))
        elif op == "window_moment":
            w["intervals"] += a["H"]
            w["sqrt_setups"] += 2 * math.isqrt(a["X"] + a["H"])
        elif op in ("delta_at", "residual_at"):
            w["sqrt_setups"] += math.isqrt(int(a["x"]))
        elif op == "prefix_block":
            w["sqrt_setups"] += 2 * math.isqrt(a["stop"])
        elif op == "partial":
            w["series_Y"] += a["Y"]
        elif op == "near_count":
            p = a["plus"]
            w["side_tuples"] += sum(math.prod(hi - lo + 1 for lo, hi in side)
                                    for side in (a["ranges"][:p], a["ranges"][p:]))
        elif op == "moment8_S":
            points = max(16, int(4 * a["U"] * (2 * a["N"]) ** (1.0 / a["k"])) + 1)
            w["exp_terms"] += points * a["N"]
        elif op == "residual_mean_square":
            w["cos_terms"] += a["samples"] * a["Y"]
    return w
