"""The benchmark's own tests.

    python3 bench/selftest.py

Checks that inputs are reproducible from the seed, that seeds vary inputs but
not the amount of work, that the oracles reject wrong answers, the self-time
arithmetic of the tracer, and one traced worker end to end.
"""

from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class InputTests(unittest.TestCase):
    def test_same_seed_gives_identical_bytes(self):
        for w in workloads.WORKLOADS:
            for seed in (1, 7):
                self.assertEqual(workloads.encode(workloads.make_jobs(w, seed)),
                                 workloads.encode(workloads.make_jobs(w, seed)))

    def test_inputs_do_not_depend_on_hash_seed(self):
        code = ("import hashlib, sys; sys.path.insert(0, sys.argv[1]); import workloads; "
                "print(hashlib.sha256(b''.join(workloads.encode(workloads.make_jobs(w, 3)) "
                "for w in workloads.WORKLOADS)).hexdigest())")
        here = hashlib.sha256(b"".join(workloads.encode(workloads.make_jobs(w, 3))
                                       for w in workloads.WORKLOADS)).hexdigest()
        env = dict(os.environ, PYTHONHASHSEED="12345")
        there = subprocess.run([sys.executable, "-c", code, str(BENCH)], env=env,
                               capture_output=True, text=True, check=True, timeout=60).stdout
        self.assertEqual(there.strip(), here)

    def test_other_seed_changes_inputs_not_work(self):
        for w in workloads.WORKLOADS:
            a, b = workloads.make_jobs(w, 1), workloads.make_jobs(w, 2)
            self.assertNotEqual(workloads.encode(a), workloads.encode(b), w)
            self.assertEqual([j["id"] for j in a], [j["id"] for j in b], w)
            wa, wb = workloads.work_counts(a), workloads.work_counts(b)
            for kind in wa:
                if wa[kind] or wb[kind]:
                    self.assertLess(abs(wa[kind] - wb[kind]) / max(wa[kind], wb[kind]), 0.05,
                                    f"{w} {kind}: {wa[kind]} vs {wb[kind]}")

    def test_benchmark_json_matches_the_code(self):
        import json

        doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(w["name"], w["why"]) for w in doc["workloads"]],
                         [(w, workloads.WHY[w]) for w in workloads.WORKLOADS])
        self.assertEqual({m["name"]: m["unit"] for m in doc["end_to_end"]}, run.END_TO_END_UNITS)
        layer_units = {n: u for n, (u, _) in spans.METRICS.items()} | run.RUN_LAYER_UNITS
        self.assertEqual({m["name"]: m["unit"] for m in doc["per_layer"]}, layer_units)
        bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        for w in doc["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)


class OracleTests(unittest.TestCase):
    def test_off_by_one_D_is_rejected(self):
        x = float(1 << 40) + 1234.5
        D = oracles.D_exact(math.floor(x))
        job = {"id": "d", "op": "delta_at", "args": {"x": x}}
        good = {"D": D, "delta": float(oracles.delta_mp(x, D))}
        self.assertFalse(oracles.check_job(job, good).failed)
        self.assertTrue(oracles.check_job(job, dict(good, D=D + 1)).failed)

    def test_off_by_one_prefix_is_rejected(self):
        start, stop = 10 ** 6, 10 ** 6 + 64
        job = {"id": "p", "op": "prefix_block", "args": {"start": start, "stop": stop}}
        good = [oracles.D_exact(m) for m in range(start, stop)]
        self.assertFalse(oracles.check_job(job, good).failed)
        self.assertTrue(oracles.check_job(job, good[:-1] + [good[-1] + 1]).failed)

    def test_negated_count_is_rejected(self):
        args = {"plus": 2, "minus": 2, "ranges": [[1, 16]] * 4, "delta": 0.05}
        job = {"id": "c", "op": "near_count", "args": args}
        count, zeros, total = oracles.near_count_exact(args["ranges"], 2, 0.05)
        self.assertGreater(count, 0)
        self.assertFalse(oracles.check_job(job, {"count": count, "min_nonzero_gap": 0.1}).failed)
        self.assertTrue(oracles.check_job(job, {"count": -count, "min_nonzero_gap": 0.1}).failed)

    def test_brute_force_count_matches_direct_enumeration(self):
        ranges = [[2, 9]] * 4
        for delta in (0.0, 1e-16, 0.05, 0.3):
            direct = 0
            for a in range(2, 10):
                for b in range(2, 10):
                    for c in range(2, 10):
                        for d in range(2, 10):
                            g = abs(oracles.form_mp((a, b), (c, d)))
                            exact_zero = oracles.form_is_zero((a, b), (c, d))
                            direct += exact_zero if delta == 0 else (not exact_zero and g < delta)
            self.assertEqual(oracles.near_count_exact(ranges, 2, delta)[0], direct, delta)

    def test_perturbed_float_fails_the_run(self):
        x, Y = 12345.5, 200
        job = {"id": "t", "op": "truncated_sum", "args": {"x": x, "Y": Y}}
        exact = float(oracles.cosine_sum_mp(x, Y))
        scale = max(abs(exact), x ** 0.25)
        for value, correct in ((exact, True), (exact + 3 * oracles.FLOAT_TOL * scale, False)):
            result = {"outputs": {"t": value}, "errors": {}}
            v = run.verify([job], [result])
            self.assertEqual(v["correct"], correct)
            self.assertEqual(v["failed"], 0)

    def test_nondeterministic_outputs_fail_the_run(self):
        job = {"id": "t", "op": "truncated_sum", "args": {"x": 12345.5, "Y": 50}}
        exact = float(oracles.cosine_sum_mp(12345.5, 50))
        results = [{"outputs": {"t": exact}, "errors": {}},
                   {"outputs": {"t": math.nextafter(exact, math.inf)}, "errors": {}}]
        self.assertFalse(run.verify([job], results)["correct"])

    def test_misshapen_output_counts_as_failed(self):
        job = {"id": "d", "op": "delta_at", "args": {"x": 1000.5}}
        v = run.verify([job], [{"outputs": {"d": {"value": 1.0}}, "errors": {}}])
        self.assertEqual(v["failed"], 1)
        self.assertIn("not checkable", v["failures"]["d"][0])

    def test_raised_job_counts_as_failed(self):
        job = {"id": "t", "op": "truncated_sum", "args": {"x": 12345.5, "Y": 50}}
        v = run.verify([job], [{"outputs": {}, "errors": {"t": "ValueError: x"}}] * 2)
        self.assertEqual((v["attempted"], v["failed"]), (2, 2))


def _span(sid, parent, name, tid, t0, t1, **attrs):
    return [sid, parent, name, tid, t0, t1, attrs]


class SpanTests(unittest.TestCase):
    def test_self_time_subtracts_union_of_same_thread_children(self):
        trace = [
            _span(1, 0, "moments.moment_profile", 1, 0.0, 10.0, intervals=100),
            _span(2, 1, "divisor.prefix_block", 1, 2.0, 5.0),
            _span(3, 1, "divisor.prefix_block", 1, 4.0, 7.0),    # overlaps span 2
            _span(4, 2, "divisor.hyperbola_D", 1, 3.0, 4.0, terms=5),
            _span(5, 1, "divisor.prefix_block", 2, 1.0, 9.0),    # other thread
        ]
        selfs = spans.self_times([tuple(s) for s in trace])
        self.assertAlmostEqual(selfs[1], 10.0 - 5.0)   # union [2, 7]
        self.assertAlmostEqual(selfs[2], 3.0 - 1.0)
        self.assertAlmostEqual(selfs[5], 8.0)

    def test_threaded_map_metrics(self):
        # moment_profile (thread 1) -> ordered_map with two tasks on threads 2, 3
        trace = [
            _span(1, 0, "moments.moment_profile", 1, 0.0, 10.0, intervals=1000),
            _span(2, 1, "parallel.ordered_map", 1, 1.0, 9.0, threads=2, tasks=2),
            _span(3, 2, "parallel.task", 2, 1.0, 9.0, queued=1.0),
            _span(4, 2, "parallel.task", 3, 2.0, 6.0, queued=1.0),
            _span(5, 3, "divisor.prefix_block", 2, 1.0, 3.0),
            _span(6, 4, "divisor.prefix_block", 3, 2.0, 3.0),
        ]
        values, absent = spans.layer_metrics({"spans": trace, "counts": {}, "missing": {}})
        self.assertEqual(absent, {})
        # profile self 2, task self 6 + 3, the map itself is parallel waiting
        self.assertAlmostEqual(values["moments.self_s"], 11.0)
        self.assertAlmostEqual(values["moments.intervals_per_s"], 1000 / 11.0)
        self.assertAlmostEqual(values["parallel.task_busy_s"], 12.0)
        self.assertAlmostEqual(values["parallel.utilization"], 12.0 / 16.0)
        self.assertAlmostEqual(values["parallel.wait_s"], 1.0)
        self.assertAlmostEqual(values["parallel.max_task_s"], 8.0)
        self.assertAlmostEqual(values["divisor.prefix_block_s"], 3.0)
        self.assertEqual(values["parallel.tasks"], 2)

    def test_missing_name_marks_metrics_absent(self):
        missing = {"moments.prefix_block": "divisorlab.moments has no attribute 'prefix_block'"}
        values, absent = spans.layer_metrics({"spans": [], "counts": {}, "missing": missing})
        for name in ("divisor.prefix_block_s", "moments.self_s"):
            self.assertNotIn(name, values)
            self.assertIn("no attribute 'prefix_block'", absent[name])
        self.assertIn("divisor.sieve_s", values)

    def test_install_reports_a_removed_name(self):
        sys.path.insert(0, str(BENCH.parent / "src"))
        try:
            from divisorlab import moments
        except ImportError:
            self.skipTest("divisorlab sources not importable")
        finally:
            sys.path.pop(0)
        saved = moments.prefix_block
        del moments.prefix_block
        try:
            tracer = spans.Tracer()
            spans.install(tracer)
        finally:
            moments.prefix_block = saved
        self.assertIn("moments.prefix_block", tracer.missing)
        self.assertNotIn("divisor.prefix_block", tracer.missing)

    def test_job_times_scale_by_the_kernel_times_around_them(self):
        ref = run.REF_S
        scaled = run.to_reference([1.0, 2.0, 3.0], [ref, ref, 2 * ref, 4 * ref],
                                  [True, True, False])
        self.assertAlmostEqual(scaled[0], 1.0)
        self.assertAlmostEqual(scaled[1], 2.0 * 2 / 3)
        self.assertEqual(scaled[2], 3.0)   # threaded: plain time
        with self.assertRaises(run.BenchError):
            run.to_reference([1.0, 2.0], [ref, ref], [True, True])

    def test_high_percentile_needs_ten_beyond(self):
        self.assertIsNone(run.high_percentile([float(i) for i in range(10)]))
        rank, value = run.high_percentile([float(i) for i in range(20)])
        self.assertEqual((rank, value), (50.0, 9.0))


class WorkerTests(unittest.TestCase):
    def test_traced_worker_end_to_end(self):
        jobs = [
            {"id": "delta", "op": "delta_at", "args": {"x": 123456.5}},
            {"id": "count", "op": "near_count",
             "args": {"plus": 2, "minus": 2, "ranges": [[1, 12]] * 4, "delta": 0.1}},
            {"id": "sieve", "op": "cli", "args": {"argv": ["sieve", "--lo", "1000", "--hi", "1099"]}},
        ]
        run.WORK.mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(dir=run.WORK))
        try:
            result = run.run_worker(jobs, True, work)
        finally:
            import shutil
            shutil.rmtree(work, ignore_errors=True)
            try:
                run.WORK.rmdir()
            except OSError:
                pass
        self.assertEqual(result["errors"], {})
        v = run.verify(jobs, [result])
        self.assertTrue(v["correct"])
        self.assertEqual(v["failed"], 0)
        values, absent = spans.layer_metrics(result["trace"])
        self.assertEqual(absent, {})
        self.assertEqual(values["divisor.hyperbola_terms"], math.isqrt(123456) + math.isqrt(999))
        self.assertEqual(values["relations.side_tuples"], 2 * 12 ** 2)
        self.assertGreater(values["cli.bytes_written"], 0)
        self.assertGreater(result["setup_s"], 0)
        self.assertEqual(len(result["ref_s"]), len(jobs) + 1)
        self.assertGreater(result["wall_s"], 0)


if __name__ == "__main__":
    unittest.main()
