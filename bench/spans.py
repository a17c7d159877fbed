"""Span tracing around divisorlab's layer boundaries, installed at run time.

``install`` replaces functions of the loaded divisorlab modules with wrappers
that record a span (name, parent, thread, start, end, attributes) or only a
call count.  Every module attribute bound to a wrapped function is rebound,
so a call that crosses layers through an imported name (``moments.prefix_block``,
``cli.write_csv``, ...) is recorded too.  Nothing under ``src/`` changes.

Spans stay in memory; the worker writes them out when its job list ends.
Attributes are work counts computed from the call arguments (and, for a few,
from the returned value), never from program internals.

``layer_metrics`` turns the spans of one traced run into the per-layer
metrics.  A layer's self time is its span durations minus the part of each
interval that child spans on the same thread cover.  A name that cannot be
found marks the metrics that rely on it absent, with the reason.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import sys
import threading
import time
from collections import defaultdict

TWO_40 = float(1 << 40)


# --------------------------------------------------------------------------
# attribute functions: work counts from call arguments
# --------------------------------------------------------------------------


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _sieve_attrs(args, kwargs):
    lo, hi = int(_arg(args, kwargs, 0, "lo")), int(_arg(args, kwargs, 1, "hi"))
    return {"ints": hi - lo + 1, "setups": math.isqrt(hi)}


def _hyperbola_attrs(args, kwargs):
    return {"terms": math.isqrt(int(_arg(args, kwargs, 0, "x")))}


def _profile_attrs(args, kwargs):
    checkpoints = _arg(args, kwargs, 2, "checkpoints")
    lo = int(_arg(args, kwargs, 3, "lo", 2))
    return {"intervals": max(int(c) for c in checkpoints) - lo}


def _near_count_attrs(args, kwargs):
    query = _arg(args, kwargs, 0, "query")
    p = query.signature.plus
    return {"side_tuples": sum(math.prod(hi - lo + 1 for lo, hi in side)
                               for side in (query.ranges[:p], query.ranges[p:]))}


def _near_count_post(result, args, kwargs):
    return {"negative": int(result.count < 0)}


def _min_gap_attrs(args, kwargs):
    sig = _arg(args, kwargs, 0, "signature")
    Y = int(_arg(args, kwargs, 1, "Y"))
    return {"side_tuples": Y ** sig.plus + Y ** sig.minus}


def _partial_attrs(args, kwargs):
    return {"Y": int(_arg(args, kwargs, 0, "Y"))}


def _tsum_attrs(args, kwargs):
    x, Y = float(_arg(args, kwargs, 0, "x")), int(_arg(args, kwargs, 1, "Y"))
    return {"terms": Y, "extended": int(Y > 0 and x * Y > TWO_40)}


def _rms_attrs(args, kwargs):
    X, H = float(_arg(args, kwargs, 0, "X")), float(_arg(args, kwargs, 1, "H"))
    Y, count = int(_arg(args, kwargs, 2, "Y")), int(_arg(args, kwargs, 3, "sample_count"))
    # the stratified unit-interval midpoints the residual is sampled at
    points = (math.floor(X + (i + 0.5) * (H / count)) + 0.5 for i in range(count))
    return {"terms": count * Y, "extended": sum(1 for x in points if x * Y > TWO_40)}


def _bessel_sum_attrs(args, kwargs):
    return {"terms": int(_arg(args, kwargs, 1, "Y"))}


def _moment8_attrs_factory(density):
    def attrs(args, kwargs):
        U, N = float(_arg(args, kwargs, 0, "U")), int(_arg(args, kwargs, 1, "N"))
        k, samples = int(_arg(args, kwargs, 2, "k")), int(_arg(args, kwargs, 3, "samples", 16))
        points = max(samples, int(density * U * (2 * N) ** (1.0 / k)) + 1)
        return {"points": points, "terms": points * N}
    return attrs


def _eval_S_attrs(args, kwargs):
    return {"points": 1, "terms": int(_arg(args, kwargs, 1, "N"))}


def _bytes_post(result, args, kwargs):
    try:
        return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}
    except OSError:
        return {"bytes": 0}


# --------------------------------------------------------------------------
# the wrapped names
# --------------------------------------------------------------------------

# (defining module, function, kind, attrs from arguments, attrs from result)
# kind "span" records intervals; "count" only counts calls (hot helpers).
TARGETS = [
    ("divisor", "build_divisor_table", "span", _sieve_attrs, None),
    ("divisor", "hyperbola_D", "span", _hyperbola_attrs, None),
    ("divisor", "prefix_block", "span", None, None),
    ("divisor", "delta_at", "span", None, None),
    ("divisor", "delta_of", "span", None, None),
    ("moments", "moment_profile", "span", _profile_attrs, None),
    ("moments", "window_moment", "span", None, None),
    ("parallel", "ordered_map", "map", None, None),
    ("series", "partial_C1", "span", _partial_attrs, None),
    ("series", "partial_C2", "span", _partial_attrs, None),
    ("series", "partial_C4", "span", _partial_attrs, None),
    ("series", "partial_C7", "span", _partial_attrs, None),
    ("relations", "near_solution_count", "span", _near_count_attrs, _near_count_post),
    ("relations", "min_gap", "span", _min_gap_attrs, None),
    ("relations", "form_is_zero", "count", None, None),
    ("relations", "form_value_hp", "count", None, None),
    ("relations", "kernel_decompose", "count", None, None),
    ("voronoi", "truncated_sum", "span", _tsum_attrs, None),
    ("voronoi", "residual_at", "span", None, None),
    ("voronoi", "residual_mean_square", "span", _rms_attrs, None),
    ("voronoi", "bessel_partial_sum", "span", _bessel_sum_attrs, None),
    ("voronoi", "bessel_tail_term", "span", None, None),
    ("bessel", "y1", "span", None, None),
    ("bessel", "k1", "span", None, None),
    ("expsum", "moment8_S", "span", None, None),  # attrs need the grid density
    ("expsum", "eval_S", "span", _eval_S_attrs, None),
    ("cli", "main", "span", None, None),
    ("cli", "write_csv", "span", None, _bytes_post),
    ("cli", "write_manifest", "span", None, _bytes_post),
]

# Names through which one layer calls another.  Each must resolve to a
# wrapper after install(); if one does not, the calls through it are not
# attributed and the metrics that rely on it are marked absent.
REFERENCES = [
    "moments.prefix_block",
    "moments.ordered_map",
    "voronoi.hyperbola_D",
    "voronoi.delta_of",
    "voronoi.build_divisor_table",
    "voronoi.bessel.y1",
    "voronoi.bessel.k1",
    "series.build_divisor_table",
    "divisor.build_divisor_table",
    "cli.write_csv",
    "cli.write_manifest",
]


class Tracer:
    """In-memory span and call-count recorder, safe across threads."""

    def __init__(self) -> None:
        # (span id, parent id, name, thread id, start, end, attrs)
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: dict[str, str] = {}  # qualified name -> reason
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def run(self, name, fn, args, kwargs, attrs=None, post=None, parent=None):
        """Call fn inside a span; parent defaults to this thread's open span."""
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else 0
        sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            # list.append is atomic, so pool threads may record concurrently
            self.spans.append((sid, parent, name, threading.get_ident(), t0, t1, attrs))
        if post is not None:
            attrs.update(post(result, args, kwargs))
        return result

    def count(self, name: str) -> None:
        with self._lock:
            self.counts[name] += 1

    def export(self) -> dict:
        return {"spans": [list(s) for s in self.spans], "counts": dict(self.counts),
                "missing": dict(self.missing)}


def _make_wrapper(tracer: Tracer, name: str, kind: str, orig, attrs_fn, post_fn):
    if kind == "count":
        @functools.wraps(orig)
        def counted(*args, **kwargs):
            tracer.count(name)
            return orig(*args, **kwargs)
        return counted

    if kind == "map":
        @functools.wraps(orig)
        def mapped(fn, tasks, *args, **kwargs):
            threads = kwargs.get("threads", args[0] if args else 1)
            queued = time.perf_counter()  # every task is queued when the map starts
            map_sid = []  # the map span's id, known once it is open

            def task(t):
                return tracer.run("parallel.task", fn, (t,), {}, {"queued": queued},
                                  parent=map_sid[0])

            def run_map():
                map_sid.append(tracer._stack()[-1])
                return orig(task, tasks, *args, **kwargs)

            return tracer.run(name, run_map, (), {},
                              {"threads": int(threads), "tasks": len(tasks)})
        return mapped

    @functools.wraps(orig)
    def spanned(*args, **kwargs):
        attrs = attrs_fn(args, kwargs) if attrs_fn is not None else {}
        return tracer.run(name, orig, args, kwargs, attrs, post_fn)
    return spanned


def _resolve(modules: dict, qualified: str):
    """Object named 'module.attr[.attr]' inside divisorlab, or raise LookupError."""
    head, *rest = qualified.split(".")
    if head not in modules:
        raise LookupError(f"module divisorlab.{head} is not loaded")
    obj = modules[head]
    path = f"divisorlab.{head}"
    for part in rest:
        if not hasattr(obj, part):
            raise LookupError(f"{path} has no attribute {part!r}")
        obj = getattr(obj, part)
        path += f".{part}"
    return obj


def install(tracer: Tracer) -> None:
    """Wrap TARGETS in every loaded divisorlab module and check REFERENCES."""
    modules = {name.split(".", 1)[1]: mod for name, mod in list(sys.modules.items())
               if name.startswith("divisorlab.") and mod is not None}
    package = sys.modules.get("divisorlab")
    replace: dict[int, object] = {}  # id(original) -> wrapper; originals stay alive
    wrapped: set[int] = set()
    for modname, attr, kind, attrs_fn, post_fn in TARGETS:
        qualified = f"{modname}.{attr}"
        try:
            orig = _resolve(modules, qualified)
        except LookupError as exc:
            tracer.missing[qualified] = str(exc)
            continue
        if qualified == "expsum.moment8_S":
            # the grid size follows the module's documented sampling density
            try:
                attrs_fn = _moment8_attrs_factory(
                    _resolve(modules, "expsum.POINTS_PER_PHASE_UNIT"))
            except LookupError as exc:
                tracer.missing["expsum.POINTS_PER_PHASE_UNIT"] = str(exc)
        wrapper = _make_wrapper(tracer, qualified, kind, orig, attrs_fn, post_fn)
        replace[id(orig)] = wrapper
        wrapped.add(id(wrapper))
    # rebind every module attribute bound to a wrapped function
    for mod in list(modules.values()) + ([package] if package is not None else []):
        for key, value in list(vars(mod).items()):
            if id(value) in replace:
                setattr(mod, key, replace[id(value)])
    for ref in REFERENCES:
        try:
            obj = _resolve(modules, ref)
        except LookupError as exc:
            tracer.missing[ref] = str(exc)
            continue
        if id(obj) not in wrapped:
            tracer.missing[ref] = f"divisorlab.{ref} is not a traced function"


# --------------------------------------------------------------------------
# per-layer metrics
# --------------------------------------------------------------------------

# name -> (unit, names it relies on).  REFERENCES entries and TARGETS entries
# share one namespace: "module.attr".
METRICS = {
    "divisor.sieve_s": ("s", ("divisor.build_divisor_table",)),
    "divisor.sieve_ints": ("count", ("divisor.build_divisor_table",)),
    "divisor.sieve_setups": ("count", ("divisor.build_divisor_table",)),
    "divisor.hyperbola_s": ("s", ("divisor.hyperbola_D",)),
    "divisor.hyperbola_terms": ("count", ("divisor.hyperbola_D",)),
    "divisor.prefix_block_s": ("s", ("divisor.prefix_block", "moments.prefix_block")),
    "moments.self_s": ("s", ("moments.moment_profile", "moments.prefix_block",
                             "moments.ordered_map")),
    "moments.intervals": ("count", ("moments.moment_profile",)),
    "moments.intervals_per_s": ("1/s", ("moments.moment_profile", "moments.prefix_block",
                                        "moments.ordered_map")),
    "parallel.tasks": ("count", ("moments.ordered_map",)),
    "parallel.task_busy_s": ("s", ("moments.ordered_map",)),
    "parallel.wait_s": ("s", ("moments.ordered_map",)),
    "parallel.utilization": ("ratio", ("moments.ordered_map",)),
    "parallel.max_task_s": ("s", ("moments.ordered_map",)),
    "series.c1_s": ("s", ("series.partial_C1", "series.build_divisor_table")),
    "series.relation_s": ("s", ("series.partial_C2", "series.partial_C4", "series.partial_C7",
                                "series.build_divisor_table")),
    "series.partial_calls": ("count", ("series.partial_C1", "series.partial_C2",
                                       "series.partial_C4", "series.partial_C7")),
    "relations.count_s": ("s", ("relations.near_solution_count",)),
    "relations.mingap_s": ("s", ("relations.min_gap",)),
    "relations.side_tuples": ("count", ("relations.near_solution_count", "relations.min_gap")),
    "relations.zero_tests": ("count", ("relations.form_is_zero",)),
    "relations.hp_rechecks": ("count", ("relations.form_value_hp",)),
    "relations.kernel_calls": ("count", ("relations.kernel_decompose",)),
    "relations.negative_counts": ("count", ("relations.near_solution_count",)),
    "voronoi.sum_s": ("s", ("voronoi.truncated_sum", "voronoi.residual_mean_square",
                            "voronoi.hyperbola_D", "voronoi.delta_of",
                            "voronoi.build_divisor_table", "voronoi.bessel.y1",
                            "voronoi.bessel.k1")),
    "voronoi.terms": ("count", ("voronoi.truncated_sum", "voronoi.residual_mean_square",
                                "voronoi.bessel_partial_sum")),
    "voronoi.terms_per_s": ("1/s", ("voronoi.truncated_sum", "voronoi.residual_mean_square",
                                    "voronoi.bessel_partial_sum", "voronoi.hyperbola_D",
                                    "voronoi.delta_of", "voronoi.bessel.y1",
                                    "voronoi.bessel.k1")),
    "voronoi.extended_points": ("count", ("voronoi.truncated_sum",
                                          "voronoi.residual_mean_square")),
    "bessel.calls": ("count", ("voronoi.bessel.y1", "voronoi.bessel.k1")),
    "bessel.s": ("s", ("voronoi.bessel.y1", "voronoi.bessel.k1")),
    "expsum.moment8_s": ("s", ("expsum.moment8_S",)),
    "expsum.grid_points": ("count", ("expsum.moment8_S", "expsum.POINTS_PER_PHASE_UNIT",
                                     "expsum.eval_S")),
    "expsum.terms": ("count", ("expsum.moment8_S", "expsum.POINTS_PER_PHASE_UNIT",
                               "expsum.eval_S")),
    "expsum.terms_per_s": ("1/s", ("expsum.moment8_S", "expsum.POINTS_PER_PHASE_UNIT",
                                   "expsum.eval_S")),
    "expsum.eval_S_s": ("s", ("expsum.eval_S",)),
    "cli.run_s": ("s", ("cli.main", "cli.write_csv", "cli.write_manifest")),
    "cli.io_s": ("s", ("cli.write_csv", "cli.write_manifest")),
    "cli.bytes_written": ("count", ("cli.write_csv", "cli.write_manifest")),
}


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = -math.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: list) -> dict[int, float]:
    """Span id -> duration minus the union of its same-thread children."""
    children: dict[int, list] = defaultdict(list)
    for sid, parent, name, tid, t0, t1, attrs in spans:
        children[parent].append((tid, t0, t1))
    out = {}
    for sid, parent, name, tid, t0, t1, attrs in spans:
        covered = [(max(a, t0), min(b, t1)) for ctid, a, b in children.get(sid, ())
                   if ctid == tid and b > t0 and a < t1]
        out[sid] = (t1 - t0) - _union_length(covered)
    return out


def _layer_of(spans: list) -> dict[int, str]:
    """Layer of each span: its name's module, except that a parallel task
    belongs to the layer that called ordered_map (the map's parent)."""
    by_id = {s[0]: s for s in spans}
    layers = {}
    for sid, parent, name, *_ in spans:
        layer = name.split(".", 1)[0]
        if name == "parallel.task":
            map_span = by_id.get(parent)
            caller = by_id.get(map_span[1]) if map_span else None
            layer = caller[2].split(".", 1)[0] if caller else "parallel"
        layers[sid] = layer
    return layers


def layer_metrics(trace: dict) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer metric values and {metric: reason} for absent ones."""
    spans = [tuple(s) for s in trace["spans"]]
    counts = trace["counts"]
    missing = trace["missing"]
    selfs = self_times(spans)
    layers = _layer_of(spans)

    def dur(name):
        return sum(t1 - t0 for _, _, n, _, t0, t1, _ in spans if n == name)

    def attr(names, key):
        return sum((a or {}).get(key, 0) for _, _, n, _, _, _, a in spans if n in names)

    def self_of(names=None, layer=None):
        return sum(selfs[s[0]] for s in spans
                   if (names is None or s[2] in names) and (layer is None or layers[s[0]] == layer))

    tasks = [s for s in spans if s[2] == "parallel.task"]
    maps = {s[0]: s for s in spans if s[2] == "parallel.ordered_map"}
    busy = sum(t1 - t0 for _, _, _, _, t0, t1, _ in tasks)
    capacity = sum(a["threads"] * (t1 - t0) for _, _, _, _, t0, t1, a in maps.values())
    moments_self = self_of(layer="moments")
    voronoi_self = self_of(layer="voronoi")
    expsum_s = dur("expsum.moment8_S") + dur("expsum.eval_S")
    intervals = attr({"moments.moment_profile"}, "intervals")
    vterms = attr({"voronoi.truncated_sum", "voronoi.residual_mean_square",
                   "voronoi.bessel_partial_sum"}, "terms")
    eterms = attr({"expsum.moment8_S", "expsum.eval_S"}, "terms")
    values = {
        "divisor.sieve_s": dur("divisor.build_divisor_table"),
        "divisor.sieve_ints": attr({"divisor.build_divisor_table"}, "ints"),
        "divisor.sieve_setups": attr({"divisor.build_divisor_table"}, "setups"),
        "divisor.hyperbola_s": dur("divisor.hyperbola_D"),
        "divisor.hyperbola_terms": attr({"divisor.hyperbola_D"}, "terms"),
        "divisor.prefix_block_s": dur("divisor.prefix_block"),
        "moments.self_s": moments_self,
        "moments.intervals": intervals,
        "moments.intervals_per_s": intervals / moments_self if moments_self > 0 else 0.0,
        "parallel.tasks": len(tasks),
        "parallel.task_busy_s": busy,
        "parallel.wait_s": sum(t0 - a["queued"] for _, _, _, _, t0, _, a in tasks),
        "parallel.utilization": busy / capacity if capacity > 0 else 0.0,
        "parallel.max_task_s": max((t1 - t0 for _, _, _, _, t0, t1, _ in tasks), default=0.0),
        "series.c1_s": self_of(names={"series.partial_C1"}),
        "series.relation_s": self_of(names={"series.partial_C2", "series.partial_C4",
                                            "series.partial_C7"}),
        "series.partial_calls": sum(1 for s in spans if s[2].startswith("series.partial_C")),
        "relations.count_s": dur("relations.near_solution_count"),
        "relations.mingap_s": dur("relations.min_gap"),
        "relations.side_tuples": attr({"relations.near_solution_count", "relations.min_gap"},
                                      "side_tuples"),
        "relations.zero_tests": counts.get("relations.form_is_zero", 0),
        "relations.hp_rechecks": counts.get("relations.form_value_hp", 0),
        "relations.kernel_calls": counts.get("relations.kernel_decompose", 0),
        "relations.negative_counts": attr({"relations.near_solution_count"}, "negative"),
        "voronoi.sum_s": voronoi_self,
        "voronoi.terms": vterms,
        "voronoi.terms_per_s": vterms / voronoi_self if voronoi_self > 0 else 0.0,
        "voronoi.extended_points": attr({"voronoi.truncated_sum", "voronoi.residual_mean_square"},
                                        "extended"),
        "bessel.calls": sum(1 for s in spans if s[2] in ("bessel.y1", "bessel.k1")),
        "bessel.s": dur("bessel.y1") + dur("bessel.k1"),
        "expsum.moment8_s": dur("expsum.moment8_S"),
        "expsum.grid_points": attr({"expsum.moment8_S", "expsum.eval_S"}, "points"),
        "expsum.terms": eterms,
        "expsum.terms_per_s": eterms / expsum_s if expsum_s > 0 else 0.0,
        "expsum.eval_S_s": dur("expsum.eval_S"),
        "cli.run_s": self_of(layer="cli"),
        "cli.io_s": dur("cli.write_csv") + dur("cli.write_manifest"),
        "cli.bytes_written": attr({"cli.write_csv", "cli.write_manifest"}, "bytes"),
    }
    absent = {}
    for metric, (_, needs) in METRICS.items():
        lost = [n for n in needs if n in missing]
        if lost:
            absent[metric] = "; ".join(missing[n] for n in lost)
            values.pop(metric, None)
    return values, absent
