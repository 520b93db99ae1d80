"""In-memory span tracing around calls into the library's public functions.

The benchmark never edits the library.  For a traced run it replaces, for
the duration of the run, selected public functions and methods of the
library's modules with wrappers that record a span around each call, and
restores them afterwards (:func:`instrument`).  Spans carry a name, start,
end, parent span, request id and thread; spans opened on worker threads
of the library's executors are parented to the ``parallel.map`` span that
submitted them, so they belong to the request that caused them.

A layer's *self time* is its span time minus the part of that interval its
child spans cover.  Under a parallel map the task subtrees overlap in wall
time; each is then weighted by (wall covered by the tasks) / (summed task
time).  The self times of one request then add up to its wall time
exactly when every span lies inside its parent and same-thread siblings
do not overlap; the closure check (:func:`analyse`) verifies that sum for
every request, so lost, doubled or misparented time shows as an error.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import threading
import time
from contextlib import contextmanager

#: Spans allowed to open a request when no span is active on their thread.
ROOT_NAMES = frozenset({
    "index.build", "index.reopen", "index.knn", "index.knn_batch",
    "index.knn_progressive", "index.append",
})

#: Span name -> layer.  Spans of unlisted names (request roots, executor
#: maps and tasks, builder step markers) count toward the remainder.
SPAN_LAYER = {
    "index.query_signature": "signature",
    "series.paa_transform": "signature",
    "pivots.permutation_prefixes": "signature",
    "index.group_candidates": "route",
    "routing.od_matrix": "route",
    "routing.distance_matrices": "route",
    "routing.candidates": "route",
    "index.select_primary": "route",
    "trie_flat.covering_partitions": "select",
    "trie_flat.subtree_keys": "select",
    "dfs.read_partition": "dfs.open",
    "engine.open_partition": "engine.open",
    "engine.read_clusters": "engine.map",
    "distance.knn_bruteforce": "refine",
    "cluster.simulator": "costsim",
    "distance.knn_merge": "progressive.merge",
    "assignment.assign": "assign",
    "assignment.assign_deferred": "assign",
    "assignment.resolve_ties": "assign",
    "trie_flat.route": "trie_route",
    "trie_flat.partition_layout": "trie_route",
    "dfs.write": "dfs.write",
    "pivots.select_random_pivots": "skeleton",
    "centroids.compute_centroids": "skeleton",
    "trie.build_group_trie": "skeleton",
    "packing.first_fit_decreasing": "skeleton",
}
REMAINDER = "unattributed"
#: Largest difference the closure check allows between a request's summed
#: layer self times and its wall time (float rounding of the sums).
CLOSURE_TOLERANCE_S = 1e-7


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "rid", "thread",
                 "attrs")

    def __init__(self, sid, name, start, parent, rid, thread):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.rid = rid
        self.thread = thread
        self.attrs = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; thread-safe."""

    def __init__(self):
        self.spans: list[Span] = []
        self.orphans = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, parent: Span | None = None):
        """Record one span; nests under the thread's open span by default.

        With no open span and no explicit ``parent`` the span starts a new
        request; a span that is not an entry point (``ROOT_NAMES``) doing so
        is counted in :attr:`orphans`, which fails the closure check.
        """
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        sid = next(self._ids)
        if parent is None:
            if name not in ROOT_NAMES:
                with self._lock:
                    self.orphans += 1
            rid, parent_id = sid, None
        else:
            rid, parent_id = parent.rid, parent.sid
        span = Span(sid, name, 0.0, parent_id, rid, threading.get_ident())
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def dump(self, path) -> None:
        """Write the spans as gzipped JSON (one record per span)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({
                "fields": ["sid", "name", "start", "end", "parent", "rid",
                           "thread", "attrs"],
                "spans": [
                    [s.sid, s.name, s.start, s.end, s.parent, s.rid,
                     s.thread, s.attrs]
                    for s in self.spans
                ],
            }, fh)


class NullTracer:
    """Stands in for :class:`Tracer` in untraced runs: records nothing."""

    @contextmanager
    def span(self, name: str, parent: Span | None = None):
        yield None


# -- analysis ------------------------------------------------------------------


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _covered(span: Span, kids) -> float:
    """Wall time of ``span`` covered by its children, clipped to ``span``."""
    return _union_length([
        (max(c.start, span.start), min(c.end, span.end))
        for c in kids if c.end > span.start and c.start < span.end
    ])


def attribute_request(spans) -> tuple[Span, dict[str, float], int]:
    """Wall-attributed self time per layer for the spans of one request.

    Children on the parent's own thread run one after another and carry
    the parent's weight.  Children on other threads (executor tasks) run
    concurrently; together they carry the parent's weight times the wall
    time they cover over their summed durations.  Returns
    ``(root, {layer: seconds}, problems)`` where ``problems`` counts spans
    whose parent is missing from the request; the remainder (root self
    time plus spans in no layer) is under :data:`REMAINDER`.
    """
    by_id = {s.sid: s for s in spans}
    children: dict[int, list[Span]] = {}
    roots = []
    problems = 0
    for s in spans:
        if s.parent is None:
            roots.append(s)
        elif s.parent in by_id:
            children.setdefault(s.parent, []).append(s)
        else:
            problems += 1
    if len(roots) != 1:
        raise ValueError(f"request has {len(roots)} root spans")
    root = roots[0]
    layers: dict[str, float] = {}
    todo = [(root, 1.0)]
    while todo:
        span, weight = todo.pop()
        kids = children.get(span.sid, ())
        layer = SPAN_LAYER.get(span.name, REMAINDER)
        layers[layer] = layers.get(layer, 0.0) + weight * (
            span.duration - _covered(span, kids)
        )
        local = [c for c in kids if c.thread == span.thread]
        remote = [c for c in kids if c.thread != span.thread]
        todo.extend((c, weight) for c in local)
        summed = sum(c.duration for c in remote)
        if summed > 0:
            remote_weight = weight * _covered(span, remote) / summed
            todo.extend((c, remote_weight) for c in remote)
    return root, layers, problems


def analyse(spans) -> dict:
    """Per-request layer attribution plus the closure check.

    For every request the layer self times, remainder included, must add up
    to the root span's wall time within ``CLOSURE_TOLERANCE_S``; a span
    outside its parent's interval, overlapping same-thread siblings or a
    span without a parent in its request breaks the sum or is counted as a
    problem.  Returns ``{"requests": [...], "closure_failures": n,
    "max_closure_error_s": e}``.
    """
    by_rid: dict[int, list[Span]] = {}
    for s in spans:
        by_rid.setdefault(s.rid, []).append(s)
    requests = []
    failures = 0
    max_err = 0.0
    for rid in sorted(by_rid):
        root, layers, problems = attribute_request(by_rid[rid])
        err = abs(sum(layers.values()) - root.duration)
        max_err = max(max_err, err)
        ok = problems == 0 and err <= CLOSURE_TOLERANCE_S
        failures += not ok
        requests.append({
            "rid": rid,
            "root": root,
            "wall_s": root.duration,
            "layers": layers,
            "closure_error_s": err,
            "closed": ok,
        })
    return {
        "requests": requests,
        "closure_failures": failures,
        "max_closure_error_s": max_err,
    }


# -- instrumentation -----------------------------------------------------------


def _wrap_call(tracer: Tracer, name: str, fn, attrs=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as span:
            result = fn(*args, **kwargs)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

    return wrapper


def _wrap_map(tracer: Tracer, fn):
    """Executor.map wrapper: tasks on worker threads join the caller's request."""

    @functools.wraps(fn)
    def wrapper(self, task_fn, items):
        items = list(items)
        with tracer.span("parallel.map") as map_span:
            map_span.attrs = {"workers": getattr(self, "n_workers", 1),
                              "tasks": len(items)}
            if not getattr(self, "shares_memory", True):
                return fn(self, task_fn, items)

            def traced_task(item):
                with tracer.span("parallel.task", parent=map_span):
                    return task_fn(item)

            return fn(self, traced_task, items)

    return wrapper


def instrument(tracer: Tracer):
    """Install span wrappers on the library's public calls; returns an undo.

    Functions imported by name into a calling module are replaced in that
    module's namespace (where the caller looks them up); methods are
    replaced on their class.
    """
    import repro.core.builder as builder
    import repro.core.index as index
    from repro.cluster.simulator import ClusterSimulator
    from repro.core.assignment import GroupAssigner
    from repro.core.index import ClimberIndex
    from repro.core.parallel import (
        ProcessExecutor, SerialExecutor, ThreadExecutor,
    )
    from repro.core.routing import RoutingTable
    from repro.core.skeleton import IndexSkeleton
    from repro.core.trie_flat import FlatTrie, FlatTrieRouter
    from repro.storage.dfs import SimulatedDFS
    from repro.storage.engine.engine import StorageEngine
    from repro.storage.engine.format import PartitionV2View

    def knn_of(args, kwargs, result):
        return {"examined": result.stats.records_examined}

    def batch_of(args, kwargs, result):
        return {"rows": len(result),
                "examined": sum(r.stats.records_examined for r in result)}

    def distinct_of(args, kwargs, result):
        return {"distinct": int(args[1].shape[0])}

    def read_clusters(fn):
        # Records and payload bytes this cluster read mapped for the reader.
        @functools.wraps(fn)
        def wrapper(view, keys):
            with tracer.span("engine.read_clusters") as span:
                before = view.materialised_bytes
                result = fn(view, keys)
                span.attrs = {"rows": int(result[0].shape[0]),
                              "bytes": view.materialised_bytes - before}
                return result

        return wrapper

    def opened(args, kwargs, result):
        return {"records": int(result.record_count), "handle": id(result)}

    plan = [
        (ClimberIndex, "knn", "index.knn", knn_of),
        (ClimberIndex, "knn_batch", "index.knn_batch", batch_of),
        (ClimberIndex, "append", "index.append", None),
        (ClimberIndex, "query_signature", "index.query_signature", None),
        (ClimberIndex, "group_candidates", "index.group_candidates", None),
        (ClimberIndex, "select_primary", "index.select_primary", None),
        (index, "paa_transform", "series.paa_transform", None),
        (index, "permutation_prefixes", "pivots.permutation_prefixes", None),
        (index, "knn_bruteforce", "distance.knn_bruteforce", None),
        (index, "knn_merge", "distance.knn_merge", None),
        (index, "build_index_artifacts", "builder.build_index_artifacts",
         None),
        (RoutingTable, "od_matrix", "routing.od_matrix", None),
        (RoutingTable, "distance_matrices", "routing.distance_matrices",
         distinct_of),
        (RoutingTable, "candidates", "routing.candidates", None),
        (FlatTrie, "covering_partitions", "trie_flat.covering_partitions",
         None),
        (FlatTrie, "subtree_keys", "trie_flat.subtree_keys", None),
        (FlatTrieRouter, "route", "trie_flat.route", None),
        (FlatTrieRouter, "partition_layout", "trie_flat.partition_layout",
         None),
        (IndexSkeleton, "flat_router", "skeleton.flat_router", None),
        (SimulatedDFS, "read_partition", "dfs.read_partition", opened),
        (SimulatedDFS, "write_partition_arrays", "dfs.write", None),
        (SimulatedDFS, "write_encoded_partition", "dfs.write", None),
        (StorageEngine, "open_partition", "engine.open_partition", None),
        (GroupAssigner, "assign", "assignment.assign", None),
        (GroupAssigner, "assign_deferred", "assignment.assign_deferred",
         None),
        (GroupAssigner, "resolve_ties", "assignment.resolve_ties", None),
        (ClusterSimulator, "__init__", "cluster.simulator", None),
        (ClusterSimulator, "run_stage", "cluster.simulator", None),
        (ClusterSimulator, "run_scaled_stage", "cluster.simulator", None),
        (ClusterSimulator, "run_driver_step", "cluster.simulator", None),
        (ClusterSimulator, "fresh_report", "cluster.simulator", None),
        (builder, "make_executor", "builder.make_executor", None),
        (builder, "paa_transform", "series.paa_transform", None),
        (builder, "permutation_prefixes", "pivots.permutation_prefixes",
         None),
        (builder, "select_random_pivots", "pivots.select_random_pivots",
         None),
        (builder, "compute_centroids", "centroids.compute_centroids", None),
        (builder, "build_group_trie", "trie.build_group_trie", None),
        (builder, "first_fit_decreasing", "packing.first_fit_decreasing",
         None),
    ]
    saved = []
    for owner, attr, name, attrs in plan:
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, _wrap_call(tracer, name, original, attrs))
    saved.append((PartitionV2View, "read_clusters",
                  PartitionV2View.__dict__["read_clusters"]))
    PartitionV2View.read_clusters = read_clusters(saved[-1][2])
    for cls in (SerialExecutor, ThreadExecutor, ProcessExecutor):
        original = cls.__dict__["map"]
        saved.append((cls, "map", original))
        setattr(cls, "map", _wrap_map(tracer, original))

    def undo():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return undo
