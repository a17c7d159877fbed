"""One benchmark worker: a fresh interpreter that runs one job list.

    python3 bench/worker.py SPEC RESULT

SPEC is a JSON file ``{"jobs": [...], "trace": bool, "out_dir": str}`` written
by run.py; RESULT receives the timings, outputs and (when traced) the spans.
``setup_done`` is the moment ``import divisorlab`` (with its CLI module)
finished, on the same monotonic clock the parent used when it started this
process, so the parent can compute the set-up time.  The timed region covers
the jobs only: reading the spec, installing the tracer, the reference kernel,
the code hash and writing the result all happen outside it.

``ref_s`` holds the time of a fixed reference kernel, measured once before the
first job and again after every job.  The parent divides each job's time by
the kernel times around it, which takes out the speed of the shared machine
at that moment (see run.py).
"""

import json
import os
import resource
import sys
import time

import divisorlab  # noqa: F401  (the package import is part of set-up)
from divisorlab import cli, divisor, expsum, moments, relations, series, voronoi

SETUP_DONE = time.perf_counter()

from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402  (already loaded by divisorlab)


def reference_kernel_s() -> float:
    """Time one pass of a fixed mix of interpreter and NumPy work.

    The kernel does not use divisorlab, so no change to the program changes
    it.  Its mix of integer arithmetic, dict stores and array sweeps slows
    down with the machine by about as much as the workloads do.
    """
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(30_000):
        acc += (i * 2654435761) % 1009
        table[i & 1023] = acc
    a = np.arange(50_000, dtype=float)  # small, so it adds little to peak memory
    for _ in range(16):
        np.cumsum(np.sin(a))
    return time.perf_counter() - t0


def _profile(a):
    prof = moments.moment_profile(a["powers"], a["abs_powers"], a["checkpoints"], lo=a["lo"],
                                  threads=a["threads"], abs_limit=a["abs_limit"])
    return {str(cp): {f"{kind}:{p!r}": v for (kind, p), v in vals.items()}
            for cp, vals in prof.items()}


def _window(a):
    r = moments.window_moment(moments.WindowSpec(X=float(a["X"]), H=float(a["H"])), a["k"])
    return {"lo": r.lo, "hi": r.hi, "integral": r.integral, "main_term": r.main_term}


def _delta_at(a):
    s = divisor.delta_at(a["x"])
    return {"D": s.D, "delta": s.delta}


def _partial(a):
    est = getattr(series, f"partial_{a['name']}")(a["Y"])
    return {"Y": est.Y, "partial_sum": est.partial_sum, "tail_indicator": est.tail_indicator}


def _ladder(a):
    fn = getattr(series, f"partial_{a['name']}")
    partials = [fn(y).partial_sum for y in a["Ys"]]
    return {"partials": partials,
            "extrapolated": series.extrapolate_sqrt(list(zip(a["Ys"], partials)))}


def _near_count(a):
    sig = relations.RelationSignature(a["plus"], a["minus"])
    query = relations.RelationQuery(sig, tuple(tuple(r) for r in a["ranges"]), a["delta"])
    rc = relations.near_solution_count(query)
    return {"count": rc.count, "min_nonzero_gap": rc.min_nonzero_gap}


def _min_gap(a):
    gap, witness, const = relations.min_gap(relations.RelationSignature(a["plus"], a["minus"]),
                                            a["Y"])
    return {"gap": gap, "witness": [list(witness[0]), list(witness[1])], "constant": const}


def _moment8(a):
    integral, ratio = expsum.moment8_S(a["U"], a["N"], a["k"])
    return {"integral": integral, "ratio": ratio}


def _eval_S_grid(a):
    out = []
    for x in np.linspace(a["U"], 2 * a["U"], a["points"]):
        v = expsum.eval_S(float(x), a["N"], a["k"]).value
        out.append([float(x), v.real, v.imag])
    return out


def _read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    # wall time is measured output, not a result: drop it before comparing
    keep = [i for i, h in enumerate(header) if h != "runtime_s"]
    return {"header": [header[i] for i in keep], "rows": [[r[i] for i in keep] for r in rows]}


def _cli(a, out_dir):
    out = Path(out_dir)
    code = cli.main(list(a["argv"]) + ["--out", str(out)])
    return {"exit": code, "files": {p.name: _read_csv(p) for p in sorted(out.glob("*.csv"))}}


OPS = {
    "moment_profile": _profile,
    "window_moment": _window,
    "delta_at": _delta_at,
    "residual_at": lambda a: voronoi.residual_at(a["x"], a["Y"]).value,
    "truncated_sum": lambda a: voronoi.truncated_sum(a["x"], a["Y"]).value,
    "prefix_block": lambda a: [int(v) for v in divisor.prefix_block(a["start"], a["stop"])],
    "partial": _partial,
    "ladder": _ladder,
    "near_count": _near_count,
    "min_gap": _min_gap,
    "moment8_S": _moment8,
    "eval_S_grid": _eval_S_grid,
    "residual_mean_square": lambda a: voronoi.residual_mean_square(a["X"], a["H"], a["Y"],
                                                                   a["samples"]),
    "bessel_partial_sum": lambda a: voronoi.bessel_partial_sum(a["x"], a["Y"]),
    "bessel_tail_term": lambda a: voronoi.bessel_tail_term(a["x"], a["n"]),
}


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    outputs, errors, job_s, job_cpu_s = {}, {}, {}, {}
    reference_kernel_s()  # warm-up: first-call costs are not machine speed
    ref_s = [reference_kernel_s()]
    for job in spec["jobs"]:
        j0, c0 = time.perf_counter(), time.process_time()
        try:
            if job["op"] == "cli":
                out_dir = os.path.join(spec["out_dir"], job["id"])
                outputs[job["id"]] = _cli(job["args"], out_dir)
            else:
                outputs[job["id"]] = OPS[job["op"]](job["args"])
        except Exception as exc:  # a failing job is counted, the list goes on
            errors[job["id"]] = f"{type(exc).__name__}: {exc}"
        job_s[job["id"]] = time.perf_counter() - j0
        # process_time counts every thread of the process, user and system
        job_cpu_s[job["id"]] = time.process_time() - c0
        ref_s.append(reference_kernel_s())
    result = {
        "setup_done": SETUP_DONE,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "job_s": job_s,
        "job_cpu_s": job_cpu_s,
        "ref_s": ref_s,
        "outputs": outputs,
        "errors": errors,
        "code_hash": cli.code_version_hash(),
        "trace": tracer.export() if tracer is not None else None,
    }
    tmp = result_path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(result, fh)
    os.replace(tmp, result_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
