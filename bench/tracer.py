"""Spans around the package's public entry points, recorded from outside.

Tracer.install() replaces a function attribute with a wrapper at each site
where a consuming module looks it up (``gaussian_ramsey.estimators.
sample_cloud_batch``, ``gaussian_ramsey.cliques.find_mono_clique``, ...),
so the package itself is untouched.  A span is (id, name, start, end,
parent, thread, op, attrs); spans stay in memory and are written once, at
exit.  A span opened on a pool thread with nothing open on that thread
takes as parent the innermost span open on the main thread, which is the
op that started the pool.

A site that a later version of the package no longer has is recorded as
absent, and every metric that needs it is reported absent instead of
failing the run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    op: int | None
    attrs: dict | None

    @property
    def dur(self) -> float:
        return self.end - self.start

# (owner path, attribute, span name, attrs(args, kwargs, result) or None)
# Owners are resolved at install time; attrs functions compute counts from
# argument and result shapes, never from timing.


def _cloud_attrs(args, kwargs, result):
    return {"normals": int(result.size), "bytes": int(result.nbytes)}


def _bartlett_attrs(args, kwargs, result):
    batch, r = result.shape[0], result.shape[1]
    return {"normals": int(batch * r * (r - 1) // 2), "bytes": int(result.nbytes)}


def _gram_attrs(args, kwargs, result):
    batch, n, d = args[0].shape
    return {"flops": int(2 * batch * n * n * d)}


def _found_attrs(args, kwargs, result):
    return {"found": result is not None}


def _threads_attrs(args, kwargs, result):
    # _map_batches(trials, batch, stream, threads, worker)
    return {"threads": int(args[3])}


def _trials_attrs(args, kwargs, result):
    # validate_bound(name, params, trials, stream), chi_square_tail_check(freedom, t, trials, stream)
    return {"trials": int(kwargs.get("trials", args[2]))}


SITES = (
    ("gaussian_ramsey.cli", "main", "cli.main", None),
    ("gaussian_ramsey.cli", "parse_config", "cli.parse_config", None),
    ("gaussian_ramsey.cli", "render_json", "cli.render_json", None),
    ("gaussian_ramsey.cli", "solve_cp", "analytic.solve_cp", None),
    ("gaussian_ramsey.cli", "solve_pC", "analytic.solve_pC", None),
    ("gaussian_ramsey.estimators", "solve_cp", "analytic.solve_cp", None),
    ("gaussian_ramsey.cliques", "solve_cp", "analytic.solve_cp", None),
    ("gaussian_ramsey.cli", "estimate_edge_density", "estimators.estimate_edge_density", None),
    ("gaussian_ramsey.cli", "estimate_clique_prob", "estimators.estimate_clique_prob", None),
    ("gaussian_ramsey.estimators", "estimate_clique_prob", "estimators.estimate_clique_prob", None),
    ("gaussian_ramsey.cli", "correction_scaling", "estimators.correction_scaling", None),
    ("gaussian_ramsey.cli", "conditional_edge_check", "estimators.conditional_edge_check", None),
    ("gaussian_ramsey.estimators", "_map_batches", "estimators.map_batches", _threads_attrs),
    ("gaussian_ramsey.cli", "validate_bound", "validators.validate_bound", _trials_attrs),
    ("gaussian_ramsey.cli", "chi_square_tail_check", "validators.chi_square_tail_check",
     _trials_attrs),
    ("gaussian_ramsey.estimators", "sample_cloud_batch", "geometry.sample_cloud_batch", _cloud_attrs),
    ("gaussian_ramsey.estimators", "sample_bartlett_batch", "geometry.sample_bartlett_batch",
     _bartlett_attrs),
    ("gaussian_ramsey.estimators", "gram_batch", "geometry.gram_batch", _gram_attrs),
    ("gaussian_ramsey.estimators", "prefix_norms_batch", "geometry.prefix_norms", None),
    ("gaussian_ramsey.estimators", "bartlett_prefix_norms", "geometry.prefix_norms", None),
    ("gaussian_ramsey.cliques", "sample_cloud_batch", "geometry.sample_cloud_batch", _cloud_attrs),
    ("gaussian_ramsey.cliques", "gram_batch", "geometry.gram_batch", _gram_attrs),
    ("gaussian_ramsey.cliques", "adjacency", "geometry.adjacency", None),
    ("gaussian_ramsey.sampling.RngStream", "generator", "sampling.generator", None),
    ("gaussian_ramsey.validators", "sample_truncated", "sampling.sample_truncated", None),
    ("gaussian_ramsey.graphs.ColoredGraph", "__post_init__", "graphs.validate", None),
    ("gaussian_ramsey.cliques", "graph_from_text", "graphs.graph_from_text", None),
    ("gaussian_ramsey.cli", "search_witness", "cliques.search_witness", None),
    ("gaussian_ramsey.cli", "verify_witness", "cliques.verify_witness", None),
    ("gaussian_ramsey.cliques", "verify_witness", "cliques.verify_witness", None),
    ("gaussian_ramsey.cliques", "find_mono_clique", "cliques.find_mono_clique", _found_attrs),
)

#: spans whose recursive calls are folded into the outermost one.
_OUTERMOST_ONLY = {"cli.render_json"}


def _resolve(path: str):
    """Import a module, or a class inside one, from a dotted path."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr, None)
            if obj is None:
                return None
        return obj
    return None


class Tracer:
    """In-memory span recorder; install() wraps SITES, uninstall() restores them."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.op: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread().ident
        self._main_stack: list[int] = []
        self._patched: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.get_ident() == self._main else []
            self._local.stack = stack
        return stack

    def call(self, name: str, fn, args, kwargs, attrs_fn=None):
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        attrs = attrs_fn(args, kwargs, result) if attrs_fn is not None else None
        self.spans.append(Span(sid, name, start, end, parent, threading.get_ident(), self.op, attrs))
        return result

    # -- installation ----------------------------------------------------

    def _wrap(self, name: str, original, attrs_fn):
        tracer = self
        if name == "estimators.map_batches":
            # each batch gets its own span; on a pool thread it is parented
            # to the runner span still open on the main thread

            @functools.wraps(original)
            def map_wrapper(trials, batch, stream, threads, worker):
                def traced_worker(gen, count):
                    return tracer.call("estimators.batch", worker, (gen, count), {})

                return tracer.call(name, original, (trials, batch, stream, threads, traced_worker), {}, attrs_fn)

            return map_wrapper

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if name not in _OUTERMOST_ONLY:
                return tracer.call(name, original, args, kwargs, attrs_fn)
            if getattr(tracer._local, name, False):
                return original(*args, **kwargs)
            setattr(tracer._local, name, True)
            try:
                return tracer.call(name, original, args, kwargs, attrs_fn)
            finally:
                setattr(tracer._local, name, False)

        return wrapper

    def install(self) -> None:
        for owner_path, attr, name, attrs_fn in SITES:
            owner = _resolve(owner_path)
            original = None if owner is None else owner.__dict__.get(attr)
            if original is None or not callable(original):
                self.absent.append(f"{owner_path}.{attr}")
                continue
            setattr(owner, attr, self._wrap(name, original, attrs_fn))
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def present(self, owner_path: str, attr: str) -> bool:
        return f"{owner_path}.{attr}" not in self.absent

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span._asdict()) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


#: per-layer metric -> (unit, sites it needs as (owner path, attribute)).
LAYER_METRICS = {
    "geometry.sample_cloud_s": ("s", [("gaussian_ramsey.estimators", "sample_cloud_batch")]),
    "geometry.normals_drawn": ("count", [("gaussian_ramsey.estimators", "sample_cloud_batch")]),
    "geometry.gram_s": ("s", [("gaussian_ramsey.estimators", "gram_batch")]),
    "geometry.gram_flops": ("flop", [("gaussian_ramsey.estimators", "gram_batch")]),
    "geometry.sample_bartlett_s": ("s", [("gaussian_ramsey.estimators", "sample_bartlett_batch")]),
    "geometry.prefix_norms_s": ("s", [("gaussian_ramsey.estimators", "bartlett_prefix_norms")]),
    "geometry.adjacency_s": ("s", [("gaussian_ramsey.cliques", "adjacency")]),
    "geometry.adjacency_calls": ("count", [("gaussian_ramsey.cliques", "adjacency")]),
    "sampling.generators": ("count", [("gaussian_ramsey.sampling.RngStream", "generator")]),
    "sampling.generator_s": ("s", [("gaussian_ramsey.sampling.RngStream", "generator")]),
    "sampling.truncated_s": ("s", [("gaussian_ramsey.validators", "sample_truncated")]),
    "estimators.busy_s": ("s", [("gaussian_ramsey.cli", "correction_scaling")]),
    "estimators.self_s": ("s", [("gaussian_ramsey.cli", "correction_scaling")]),
    "estimators.batches": ("count", [("gaussian_ramsey.estimators", "_map_batches")]),
    "estimators.thread_util": ("ratio", [("gaussian_ramsey.estimators", "_map_batches")]),
    "estimators.batch_bytes_max": ("bytes", [("gaussian_ramsey.estimators", "sample_cloud_batch")]),
    "validators.busy_s": ("s", [("gaussian_ramsey.cli", "validate_bound")]),
    "validators.self_s": ("s", [("gaussian_ramsey.cli", "validate_bound")]),
    "validators.trials": ("count", [("gaussian_ramsey.cli", "validate_bound")]),
    "graphs.validate_s": ("s", [("gaussian_ramsey.graphs.ColoredGraph", "__post_init__")]),
    "graphs.built": ("count", [("gaussian_ramsey.graphs.ColoredGraph", "__post_init__")]),
    "graphs.parse_s": ("s", [("gaussian_ramsey.cliques", "graph_from_text")]),
    "cliques.find_s": ("s", [("gaussian_ramsey.cliques", "find_mono_clique")]),
    "cliques.find_calls": ("count", [("gaussian_ramsey.cliques", "find_mono_clique")]),
    "cliques.find_calls_after_reject": (
        "count",
        [("gaussian_ramsey.cliques", "find_mono_clique"), ("gaussian_ramsey.cliques", "verify_witness")],
    ),
    "cliques.search_self_s": ("s", [("gaussian_ramsey.cli", "search_witness")]),
    "cliques.attempts": (
        "count",
        [("gaussian_ramsey.cli", "search_witness"), ("gaussian_ramsey.cliques", "verify_witness")],
    ),
    "cliques.absent_s": ("s", [("gaussian_ramsey.cliques", "find_mono_clique")]),
    "cliques.verify_s": ("s", [("gaussian_ramsey.cli", "verify_witness")]),
    "cli.parse_s": ("s", [("gaussian_ramsey.cli", "parse_config")]),
    "cli.render_s": ("s", [("gaussian_ramsey.cli", "render_json")]),
    "cli.self_s": ("s", [("gaussian_ramsey.cli", "main")]),
    "analytic.solve_s": ("s", [("gaussian_ramsey.cli", "solve_cp")]),
    "trace.overhead_s": ("s", []),
    "trace.overhead_share": ("ratio", []),
    "trace.spans": ("count", []),
    "trace.absent_sites": ("count", []),
}


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], list[str]]:
    """Per-layer values from the recorded spans, and the metrics reported absent."""
    spans = tracer.spans
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)

    def self_time(s: Span) -> float:
        covered = [(max(c.start, s.start), min(c.end, s.end)) for c in children[s.id]]
        return s.dur - _union_length(covered)

    def parent_layer(s: Span) -> str | None:
        parent = by_id.get(s.parent)
        return None if parent is None else _layer(parent.name)

    total = defaultdict(float)
    count = defaultdict(int)
    attr_sum = defaultdict(float)
    layer_busy = defaultdict(float)
    layer_self = defaultdict(float)
    absent_s = 0.0
    bytes_max = 0
    after_reject = 0
    attempts = 0
    util_num = util_den = 0.0
    for s in spans:
        layer = _layer(s.name)
        total[s.name] += s.dur
        count[s.name] += 1
        layer_self[layer] += self_time(s)
        if parent_layer(s) != layer:
            layer_busy[layer] += s.dur
        for key, value in (s.attrs or {}).items():
            attr_sum[(s.name, key)] += value
        if s.name == "cliques.find_mono_clique" and not s.attrs["found"]:
            absent_s += s.dur
        if s.name in ("geometry.sample_cloud_batch", "geometry.sample_bartlett_batch"):
            if parent_layer(s) == "estimators":
                bytes_max = max(bytes_max, s.attrs["bytes"])
        if s.name == "cliques.verify_witness":
            # red is searched first; a blue search after red found a clique is wasted
            finds = [c for c in children[s.id] if c.name == "cliques.find_mono_clique"]
            finds.sort(key=lambda c: c.start)
            rejected = False
            for c in finds:
                after_reject += rejected
                rejected = rejected or c.attrs["found"]
            if parent_layer(s) == "cliques":
                attempts += 1
        if s.name == "estimators.map_batches":
            util_den += s.dur * s.attrs["threads"]
            util_num += sum(c.dur for c in children[s.id] if c.name == "estimators.batch")

    search_self = sum(self_time(s) for s in spans if s.name == "cliques.search_witness")
    main_self = sum(self_time(s) for s in spans if s.name == "cli.main")
    values = {
        "geometry.sample_cloud_s": total["geometry.sample_cloud_batch"],
        "geometry.normals_drawn": attr_sum[("geometry.sample_cloud_batch", "normals")]
        + attr_sum[("geometry.sample_bartlett_batch", "normals")],
        "geometry.gram_s": total["geometry.gram_batch"],
        "geometry.gram_flops": attr_sum[("geometry.gram_batch", "flops")],
        "geometry.sample_bartlett_s": total["geometry.sample_bartlett_batch"],
        "geometry.prefix_norms_s": total["geometry.prefix_norms"],
        "geometry.adjacency_s": total["geometry.adjacency"],
        "geometry.adjacency_calls": count["geometry.adjacency"],
        "sampling.generators": count["sampling.generator"],
        "sampling.generator_s": total["sampling.generator"],
        "sampling.truncated_s": total["sampling.sample_truncated"],
        "estimators.busy_s": layer_busy["estimators"],
        "estimators.self_s": layer_self["estimators"],
        "estimators.batches": count["estimators.batch"],
        "estimators.thread_util": util_num / util_den if util_den else 0.0,
        "estimators.batch_bytes_max": bytes_max,
        "validators.busy_s": layer_busy["validators"],
        "validators.self_s": layer_self["validators"],
        "validators.trials": attr_sum[("validators.validate_bound", "trials")]
        + attr_sum[("validators.chi_square_tail_check", "trials")],
        "graphs.validate_s": total["graphs.validate"],
        "graphs.built": count["graphs.validate"],
        "graphs.parse_s": total["graphs.graph_from_text"],
        "cliques.find_s": total["cliques.find_mono_clique"],
        "cliques.find_calls": count["cliques.find_mono_clique"],
        "cliques.find_calls_after_reject": after_reject,
        "cliques.search_self_s": search_self,
        "cliques.attempts": attempts,
        "cliques.absent_s": absent_s,
        "cliques.verify_s": total["cliques.verify_witness"],
        "cli.parse_s": total["cli.parse_config"],
        "cli.render_s": total["cli.render_json"],
        "cli.self_s": main_self,
        "analytic.solve_s": total["analytic.solve_cp"] + total["analytic.solve_pC"],
        "trace.spans": len(spans),
        "trace.absent_sites": len(tracer.absent),
    }
    absent = [
        metric
        for metric, (_, needs) in LAYER_METRICS.items()
        if any(not tracer.present(owner, attr) for owner, attr in needs)
    ]
    for metric in absent:
        values[metric] = 0.0
    return values, absent
