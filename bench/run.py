"""divisorlab benchmark: end-to-end and per-layer metrics for four workloads.

    python3 bench/run.py --workload stream --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1
    python3 bench/selftest.py          # the benchmark's own tests

Workloads (seeded job lists, see workloads.py): stream, large-x, arith,
oscillatory.  Load model: a closed loop with one client.  Jobs run back to
back; every repetition of the job list is a fresh interpreter that imports
divisorlab from this checkout's ``src/``, so no lru_cache state carries over
and peak memory is per process.  The stream profile uses 2 threads; all else
is single-threaded.  BLAS/OpenMP pools are pinned to one thread and
DIVISORLAB_THREADS is cleared, so threads never exceed the 2 CPUs the
baseline ran on.

--trace 0 repeats the job list in fresh workers for --seconds (at least three)
and reports, as medians over workers:
  wall_s       job list wall time after set-up, in reference seconds
  cpu_s        user+sys CPU time of the worker over the job list, likewise
  setup_s      process start to `import divisorlab` (and its CLI) done, likewise
  peak_rss_mb  the worker's peak resident memory (ru_maxrss)
plus, printed only, the same times in plain seconds, error_rate (failed /
attempted jobs) and max_rel_err (worst float error against 50-digit oracles;
deterministic per seed).

Reference seconds.  The speed of a shared machine moves by up to 1.6x, in
phases that can outlast a run, so plain times of the same code spread too far
between runs to show a change.  Every worker
therefore times a fixed reference kernel (worker.reference_kernel_s, which
does not use divisorlab) after import and after each job.  A job's time is
scaled by REF_S over the mean kernel time just before and after it, and the
set-up time by REF_S over the first kernel time.  A job that runs more than
one thread keeps its plain time (see to_reference).  One reference second is
the time the machine takes for 1/REF_S passes of the kernel; on the baseline
machine that is close to a plain second.  A change to the program
moves the job times and leaves the kernel alone, so it shows in full.

--trace 1 alternates untraced and traced workers for --seconds and reports
the per-layer metrics of spans.py (medians over traced workers),
trace.overhead_s (traced minus untraced wall time), parallel.speedup (stream:
the same job list with the profile at 1 thread, over 2 threads), and the
oracle results.

Outputs are checked after timing (oracles.py).  `failed` counts jobs that
raised, returned a wrong integer or broke an invariant; `correct` is true when
every float output is within the oracle tolerance and every worker returned
identical outputs.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402

MIN_WORKERS = 3
# reference kernel time that defines one reference second: about its median
# on the 2-vCPU Xeon VM the baseline was measured on
REF_S = 0.025
WORKER_TIMEOUT_S = 120
# no new worker starts this long after the measuring window closed
LATE_START_S = 30

PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

# per-layer metrics measured here rather than from one traced worker's spans
RUN_LAYER_UNITS = {"trace.overhead_s": "s", "parallel.speedup": "ratio",
                   "oracle.error_rate": "fraction", "oracle.max_rel_err": "ratio"}


class BenchError(RuntimeError):
    """A worker could not produce a result."""


def worker_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("DIVISORLAB_THREADS", "PYTHONPATH")}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_worker(jobs: list[dict], trace: bool, work: Path) -> dict:
    """Run one job list in a fresh interpreter and return its result."""
    wdir = Path(tempfile.mkdtemp(dir=work))
    spec, result = wdir / "spec.json", wdir / "result.json"
    spec.write_text(json.dumps({"jobs": jobs, "trace": trace, "out_dir": str(wdir / "out")}))
    t_spawn = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), str(spec), str(result)],
                            cwd=ROOT, env=worker_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        _, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S}s")
    try:
        if proc.returncode != 0 or not result.exists():
            tail = err.decode(errors="replace").strip().splitlines()[-5:]
            raise BenchError(f"worker exited with {proc.returncode}: " + " | ".join(tail))
        res = json.loads(result.read_text())
    finally:
        shutil.rmtree(wdir, ignore_errors=True)
    # perf_counter is the system-wide monotonic clock, shared with the child
    res["plain_setup_s"] = res["setup_done"] - t_spawn
    res["setup_s"] = res["plain_setup_s"] * REF_S / res["ref_s"][0]
    ids = [j["id"] for j in jobs]
    single = [j["args"].get("threads", 1) == 1 for j in jobs]
    res["wall_s"] = sum(to_reference([res["job_s"][i] for i in ids], res["ref_s"], single))
    res["cpu_s"] = sum(to_reference([res["job_cpu_s"][i] for i in ids], res["ref_s"], single))
    res["plain_wall_s"] = sum(res["job_s"].values())
    res["plain_cpu_s"] = sum(res["job_cpu_s"].values())
    return res


def to_reference(times: list[float], ref_s: list[float], single: list[bool]) -> list[float]:
    """Job times in reference seconds.

    ``ref_s`` has one more entry than ``times``: the reference kernel time
    before the first job and after each job.  A single-threaded job
    (``single``) is scaled by REF_S over the mean of the kernel times just
    before and after it.  A threaded job keeps its plain time: the kernel runs
    on one CPU, and its speed did not follow that of the stream profile on
    two (scaled, stream's spread between runs doubled; see baseline.md).
    """
    if not len(ref_s) == len(times) + 1 == len(single) + 1:
        raise BenchError(f"{len(ref_s)} reference times for {len(times)} jobs")
    return [t * 2 * REF_S / (a + b) if one else t
            for t, a, b, one in zip(times, ref_s, ref_s[1:], single)]


# --------------------------------------------------------------------------
# verification
# --------------------------------------------------------------------------


def verify(jobs: list[dict], results: list[dict]) -> dict:
    """Oracle verdicts on the first worker's outputs, determinism across all."""
    import oracles

    first = results[0]
    failures: dict[str, list[str]] = {}
    rel_errs: list[tuple[str, float]] = []
    for job in jobs:
        jid = job["id"]
        if jid in first["errors"]:
            failures[jid] = [first["errors"][jid]]
            continue
        try:
            verdict = oracles.check_job(job, first["outputs"][jid])
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            # an output of the wrong shape is a wrong answer, not a crash
            failures[jid] = [f"output not checkable: {type(exc).__name__}: {exc}"]
            continue
        if verdict.failed:
            failures[jid] = verdict.problems
        rel_errs += [(f"{jid}: {label}", err) for label, err in verdict.rel_errs]
    canonical = json.dumps([first["outputs"], first["errors"]], sort_keys=True)
    deterministic = all(json.dumps([r["outputs"], r["errors"]], sort_keys=True) == canonical
                        for r in results[1:])
    worst = max(rel_errs, key=lambda e: e[1], default=("none", 0.0))
    attempted = len(jobs) * len(results)
    failed = len(failures) * len(results)
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "deterministic": deterministic,
        "max_rel_err": worst[1],
        "worst": worst[0],
        "checked_floats": len(rel_errs),
        "tolerance": oracles.FLOAT_TOL,
        "correct": deterministic and worst[1] <= oracles.FLOAT_TOL,
    }


# --------------------------------------------------------------------------
# reporting helpers
# --------------------------------------------------------------------------


def high_percentile(values: list[float]):
    """(rank, value) of the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def provenance(code_hash: str) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "mpmath": metadata.version("mpmath"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "pinned_env": PINNED_ENV,
        "DIVISORLAB_THREADS": "unset",
        "git_commit": git_commit(),
        "code_version_hash": code_hash,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def print_verification(v: dict) -> None:
    rate = v["failed"] / v["attempted"]
    print(f"  error_rate   {rate:.6g} fraction  ({v['failed']} failed of {v['attempted']} attempted)")
    print(f"  max_rel_err  {v['max_rel_err']:.6g}  (worst of {v['checked_floats']} float checks: "
          f"{v['worst']}; tolerance {v['tolerance']:g})")
    print(f"  deterministic across workers: {v['deterministic']}; correct: {v['correct']}")
    for jid, problems in v["failures"].items():
        print(f"  FAILED {jid}: {'; '.join(problems)}")


# --------------------------------------------------------------------------
# the two kinds of run
# --------------------------------------------------------------------------


def _keep_going(started: float, seconds: float, done: int, minimum: int) -> bool:
    elapsed = time.perf_counter() - started
    if done < minimum:
        return elapsed < seconds + LATE_START_S
    return elapsed < seconds


def run_end_to_end(workload: str, jobs: list[dict], seconds: float, work: Path) -> dict:
    results: list[dict] = []
    started = time.perf_counter()
    while _keep_going(started, seconds, len(results), MIN_WORKERS):
        results.append(run_worker(jobs, False, work))
    v = verify(jobs, results)
    samples = {
        "wall_s": [r["wall_s"] for r in results],
        "cpu_s": [r["cpu_s"] for r in results],
        "setup_s": [r["setup_s"] for r in results],
        "peak_rss_mb": [r["maxrss_kib"] / 1024.0 for r in results],
    }
    metrics = {}
    print(f"{workload}: end-to-end, {len(results)} fresh workers; times in reference seconds "
          f"(REF_S {REF_S} s of reference kernel)")
    for name, values in samples.items():
        med = statistics.median(values)
        metrics[name] = {"value": med, "unit": END_TO_END_UNITS[name]}
        hp = high_percentile(values)
        hp_text = f"p{hp[0]:.0f} {hp[1]:.6g}" if hp else "no percentile with 10 samples beyond it"
        print(f"  {name:<12} {med:.6g} {END_TO_END_UNITS[name]}  median of n={len(values)}; "
              f"{hp_text}; min {min(values):.6g} max {max(values):.6g}")
    for name in ("wall_s", "cpu_s", "setup_s"):
        plain = [r["plain_" + name] for r in results]
        print(f"  plain {name:<6} {statistics.median(plain):.6g} s  median; "
              f"min {min(plain):.6g} max {max(plain):.6g}")
    speed = [REF_S / statistics.median(r["ref_s"]) for r in results]
    print(f"  machine speed (REF_S / kernel time, per worker): median {statistics.median(speed):.4g}; "
          f"min {min(speed):.4g} max {max(speed):.4g}")
    print_verification(v)
    return {"verification": v, "metrics": metrics, "code_hash": results[0]["code_hash"]}


def run_traced(workload: str, jobs: list[dict], seconds: float, work: Path) -> dict:
    import spans

    threaded = any(j["args"].get("threads", 1) > 1 for j in jobs)
    one_thread = [dict(j, args=dict(j["args"], threads=1)) if "threads" in j["args"] else j
                  for j in jobs]
    plain, traced, single = [], [], []
    started = time.perf_counter()
    while _keep_going(started, seconds, len(traced), 1):
        plain.append(run_worker(jobs, False, work))
        traced.append(run_worker(jobs, True, work))
        if threaded:
            single.append(run_worker(one_thread, False, work))
    # outputs at 1 thread must match the threaded ones bit for bit
    v = verify(jobs, plain + traced + single)
    per_worker = [spans.layer_metrics(r["trace"]) for r in traced]
    absent = per_worker[0][1]
    values = {name: statistics.median(vals[name] for vals, _ in per_worker)
              for name in per_worker[0][0]}
    values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                  - statistics.median(r["wall_s"] for r in plain))
    if threaded:
        # the threaded profile job, 1 thread over the workload's thread count
        pid = next(j["id"] for j in jobs if j["args"].get("threads", 1) > 1)
        values["parallel.speedup"] = (statistics.median(r["job_s"][pid] for r in single)
                                      / statistics.median(r["job_s"][pid] for r in plain))
    else:
        values["parallel.speedup"] = 1.0  # no threaded call: 1 thread is this same job list
    values["oracle.error_rate"] = v["failed"] / v["attempted"]
    values["oracle.max_rel_err"] = v["max_rel_err"]
    units = {name: unit for name, (unit, _) in spans.METRICS.items()} | RUN_LAYER_UNITS
    print(f"{workload}: per-layer, {len(traced)} traced and {len(plain)} untraced workers"
          + (f", {len(single)} at 1 thread" if threaded else ""))
    for name in sorted(values):
        print(f"  {name:<26} {values[name]:.6g} {units[name]}")
    for name, reason in sorted(absent.items()):
        print(f"  {name:<26} absent: {reason}")
    missing = traced[0]["trace"]["missing"]
    for name, reason in sorted(missing.items()):
        print(f"  not traced: {name}: {reason}")
    print_verification(v)
    metrics = {name: {"value": val, "unit": units[name]} for name, val in values.items()}
    return {"verification": v, "metrics": metrics, "code_hash": traced[0]["code_hash"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "divisorlab" / "__init__.py").is_file():
        print(f"divisorlab sources not found under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        outcomes = {}
        for name in names:
            jobs = workloads.make_jobs(name, args.seed)
            runner = run_traced if args.trace else run_end_to_end
            outcomes[name] = runner(name, jobs, args.seconds, work)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    print("provenance: " + json.dumps(provenance(outcomes[names[-1]]["code_hash"]), sort_keys=True))
    if len(names) == 1:
        metrics = outcomes[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{m}": val for n, o in outcomes.items() for m, val in o["metrics"].items()}
    vs = [o["verification"] for o in outcomes.values()]
    print(json.dumps({
        "correct": all(v["correct"] for v in vs),
        "attempted": sum(v["attempted"] for v in vs),
        "failed": sum(v["failed"] for v in vs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
