"""End-to-end benchmark of the CLIMBER reproduction, one workload per run.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload point-query --seed 1 --seconds 15 --trace 0

Builds the index from the checkout's ``src/`` (nothing is installed),
drives it through its public API (see ``e2e_workloads.py`` for the
workloads and ``README.md`` for every metric), checks every answer, and
prints one JSON object as the last line of standard output.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` is a separate run that
records spans around the library's public calls and reports the
per-layer breakdown, after checking that every request's layer self
times add up to its wall time.  The exit code is non-zero when an answer
is wrong, the closure check fails, or the checkout has no library.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import shutil
import sys
import threading
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from e2e_phases import (  # noqa: E402
    ClosedLoopResult, Ledger, RoundsResult, append_round, closed_loop,
    open_loop, setup, stored_bytes, warm,
)
from e2e_stats import median, tail_percentile  # noqa: E402
from e2e_trace import (  # noqa: E402
    NullTracer, Tracer, analyse, instrument,
)
from e2e_workloads import (  # noqa: E402
    K, WORKLOADS, QueryStream, arrivals, generate,
)

#: Measured cycles per run; every cycle gives each phase a slice, so a
#: phase's samples span the run.
CYCLES = 8
#: Share of each cycle given to each measured phase.
CLOSED_SHARE, LO_SHARE, HI_SHARE = 0.40, 0.30, 0.30
#: Most closed-loop queries one run can draw (uniform queries never repeat).
CLOSED_POOL = 15_000
#: Answers per kind (per round for knn_batch) whose recall@k is checked
#: against exact ground truth.
RECALL_FIRST = {"knn": 800, "knn_progressive": 200, "served": 400,
                "knn_batch": 64}
SERVE = dict(max_batch=32, max_delay_s=0.002, worker_threads=1)

END_TO_END = [
    ("setup_s", "s"), ("build_rec_s", "records/s"),
    ("stored_bytes_ratio", "ratio"), ("recall_at_10", "fraction"),
    ("ok_ratio", "fraction"),
]
#: Measured and printed, kept in the run record and compared by
#: ``compare.py pairs``, but not in the result, with the direction each is
#: better in.  In some ten-seed set of some workload the spread
#: (interquartile distance / median) of each passed 0.2, four fifths of
#: the widest bound a metric may carry (README.md, Steadiness).
INFO = [
    ("knn_p50_ms", "ms", "lower"), ("progressive_p50_ms", "ms", "lower"),
    ("serve_lo_p50_ms", "ms", "lower"), ("serve_hi_p50_ms", "ms", "lower"),
    ("batch_qps", "rows/s", "higher"), ("append_rec_s", "records/s", "higher"),
    ("knn_p99_ms", "ms", "lower"), ("serve_lo_p99_ms", "ms", "lower"),
    ("serve_hi_p99_ms", "ms", "lower"),
]

PER_LAYER = [
    ("signature.self_us", "us"), ("route.self_us", "us"),
    ("route.candidates_per_query", "count"), ("route.distinct_ratio", "ratio"),
    ("select.self_us", "us"), ("select.nodes_per_query", "count"),
    ("select.partitions_planned_per_query", "count"),
    ("dfs.open_self_us", "us"), ("dfs.opens_per_query", "count"),
    ("dfs.bytes_read_per_query", "bytes"), ("dfs.cache_hit_ratio", "ratio"),
    ("dfs.retries", "count"), ("dfs.read_failures", "count"),
    ("engine.open_us", "us"), ("engine.map_us", "us"),
    ("engine.materialised_bytes_per_query", "bytes"),
    ("engine.useful_ratio", "ratio"),
    ("refine.self_us", "us"), ("refine.records_scored_per_query", "count"),
    ("refine.expanded_ratio", "ratio"), ("costsim.self_us", "us"),
    ("progressive.merge_us", "us"), ("progressive.visit_coverage", "ratio"),
    ("progressive.stopped_early_ratio", "ratio"),
    ("serve.queue_delay_p50_ms", "ms"), ("serve.queue_delay_p99_ms", "ms"),
    ("serve.batch_size_mean", "count"), ("serve.dispatch_ms", "ms"),
    ("serve.generator_late_p99_ms", "ms"), ("serve.rejected", "count"),
    ("serve.repeat_share", "ratio"),
    ("build.skeleton_s", "s"), ("build.convert_s", "s"),
    ("build.redistribute_s", "s"), ("append.route_s", "s"),
    ("append.write_s", "s"), ("parallel.busy_ratio", "ratio"),
    ("parallel.fallbacks", "count"), ("query.unattributed_us", "us"),
    ("query.traced_wall_us", "us"), ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
]


class Switch:
    """Installs and removes the span wrappers (traced runs only)."""

    def __init__(self, tracer):
        self.tracer = tracer
        self._undo = None

    def set(self, on: bool) -> bool:
        if on and self._undo is None:
            self._undo = instrument(self.tracer)
        elif not on and self._undo is not None:
            self._undo()
            self._undo = None
        return on


# -- serving ------------------------------------------------------------------------


def check_served(requests, twin, ledger: Ledger) -> None:
    """Check served answers, then replay them in order on a twin index.

    The twin was reopened from the same store, so direct ``knn`` calls in
    submission order must return exactly the served answers.
    """
    ledger.attempted += len(requests)
    for req in requests:
        if req.rejected:
            ledger.rejected += 1
            continue
        if req.error is not None:
            ledger.errors += 1
            ledger.problems.append(f"served: {req.error}")
            continue
        resp = req.response
        if not ledger.check(req.query, resp.ids, resp.distances, 0,
                            resp.stats, "served"):
            continue
        direct = twin.knn(req.query, K)
        if not (np.array_equal(direct.ids, resp.ids)
                and np.array_equal(direct.distances, resp.distances)):
            ledger.answers.pop()
            ledger.wrong_answer("served answer differs from direct knn")


def settle() -> None:
    """Between timed phases: flush written data, freeze what lives on.

    Set-ups and appends leave hundreds of megabytes of dirty pages; the
    kernel's writeback of them would otherwise land at a random point of
    a later timed phase.  Likewise the index structures live for the whole
    run and the run's own records only grow, so every full garbage
    collection would rescan them; collecting once and freezing the
    survivors keeps those pauses out of the timed phases.
    """
    os.sync()
    gc.collect()
    gc.freeze()


# -- one run ------------------------------------------------------------------------


class Run:
    """State of one run: inputs, indexes, and what each phase measured."""

    def __init__(self, w, seed: int, seconds: float, trace: bool,
                 workdir: Path):
        self.w, self.seed, self.seconds, self.workdir = w, seed, seconds, workdir
        self.tracer = Tracer() if trace else NullTracer()
        self.switch = Switch(self.tracer) if trace else None
        slices = seconds / CYCLES
        self.closed_s = slices * CLOSED_SHARE
        self.serve_s = {"lo": slices * LO_SHARE, "hi": slices * HI_SHARE}
        self.setup_s: list[float] = []
        self.build_s: list[float] = []
        self.closed = ClosedLoopResult()
        self.served = {"lo": [], "hi": []}
        self.rounds = RoundsResult()
        self.counters = []

    def traced(self, on: bool) -> None:
        if self.switch:
            self.switch.set(on)

    def timed_setup(self, name: str):
        self.traced(True)
        out = setup(self.w, self.inputs, self.workdir / name, self.tracer)
        self.traced(False)
        self.setup_s.append(out[2])
        self.build_s.append(out[3])
        return out

    def prepare(self) -> None:
        w, seed = self.w, self.seed
        n_serve = int(CYCLES * (w.serve_lo * self.serve_s["lo"]
                                + w.serve_hi * self.serve_s["hi"])) + 64
        sizes = {"rounds": w.rounds * w.round_batch}
        if w.queries != "zipf":
            sizes.update(closed=CLOSED_POOL, serve=n_serve)
        self.inputs = generate(w, seed, sum(sizes.values()))
        pools, at = {}, 0
        for name, size in sizes.items():
            pools[name] = self.inputs.held_out[at:at + size]
            at += size

        def stream(phase: str, tag: int) -> QueryStream:
            pool = (self.inputs.zipf_pool
                    if w.queries == "zipf" and phase != "rounds"
                    else pools[phase])
            return QueryStream(w, self.inputs, pool,
                               np.random.default_rng([seed, tag]))

        self.streams = {"rounds": stream("rounds", 2),
                        "closed": stream("closed", 3),
                        "serve": stream("serve", 4)}
        self.serve_rng = np.random.default_rng([seed, 5])
        self.ledger = Ledger(self.inputs)

    def open_indexes(self) -> None:
        """The read store, the writer, and one reopened index per role.

        The append rounds write into the second set-up's store and read it
        back with ``knn_batch``; the closed loop and the server read the
        first store, which never sees an append, so their work stays the
        same from cycle to cycle.
        """
        store, _, _, _ = self.timed_setup("store-0")
        _, self.writer, _, _ = self.timed_setup("store-1")
        # Spare stores are deleted only when the run ends: deleting files
        # makes the file system discard their blocks, I/O that would land
        # in a timed phase.
        self.main = store.open()
        self.served_index = store.open()
        self.twin = store.open()
        warm(self.main)
        warm(self.served_index)
        settle()

    async def cycles(self) -> None:
        """Interleave every measured phase across the whole run.

        Host speed drifts over seconds, so each phase gets a slice of every
        cycle instead of one contiguous stretch.
        """
        from repro.serve import QueryService, ServeConfig

        w = self.w
        # Set-ups beyond the two that open the run, at evenly spaced ends
        # of cycles, so setup_s and build_rec_s sample the whole run.
        self.extra_setups = {round((k + 1) * CYCLES / (w.setups - 1))
                             for k in range(w.setups - 2)}
        async with QueryService(self.served_index,
                                ServeConfig(**SERVE)) as service:
            for c in range(CYCLES):
                if self.rounds.done < w.rounds:
                    self.append_round()
                self.traced_counters(self.main, lambda: closed_loop(
                    self.main, self.streams["closed"], self.ledger,
                    self.closed_s, self.closed, self.tracer,
                    toggle=self.switch.set if self.switch else None,
                ))
                before = self.served_index.dfs.counters
                self.traced(True)
                this_cycle = []
                for label in ("lo", "hi"):
                    rate = w.serve_lo if label == "lo" else w.serve_hi
                    res = await self.open_loop(service, rate,
                                               self.serve_s[label])
                    self.served[label].append(res)
                    this_cycle += res.requests
                self.traced(False)
                self.counters.append((before, self.served_index.dfs.counters))
                check_served(this_cycle, self.twin, self.ledger)
                if c + 1 in self.extra_setups:
                    self.timed_setup(f"store-{c + 2}")
                settle()

    async def open_loop(self, service, rate, seconds):
        offsets = arrivals(self.serve_rng, rate, seconds)
        queries = self.streams["serve"].next(offsets.shape[0])
        return await open_loop(service, queries, offsets)

    def traced_counters(self, index, fn) -> None:
        before = index.dfs.counters
        fn()
        self.counters.append((before, index.dfs.counters))

    def append_round(self) -> None:
        self.traced(True)
        self.traced_counters(self.writer, lambda: append_round(
            self.w, self.writer, self.streams["rounds"], self.ledger,
            self.rounds))
        self.traced(False)


def run(w, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    from repro.obs import global_registry

    fallbacks = global_registry().counter("parallel.fallbacks")
    fallbacks_before = fallbacks.value
    r = Run(w, seed, seconds, trace, workdir)
    r.prepare()
    r.open_indexes()
    asyncio.run(r.cycles())

    ledger = r.ledger
    recall, recall_n = ledger.recall(RECALL_FIRST)
    raw_bytes = r.writer.n_records * w.length * 8
    physical = stored_bytes(r.writer)
    rec: dict = {"workload": w.name, "seed": seed, "seconds": seconds,
                 "trace": trace, "params": w.params(),
                 "problems": ledger.problems, "correct": ledger.wrong == 0,
                 "attempted": ledger.attempted, "failed": ledger.failed,
                 "failures": {"wrong": ledger.wrong, "errors": ledger.errors,
                              "rejected": ledger.rejected}}
    if trace:
        spans_path = workdir.parent / f"spans-{w.name}-seed{seed}.json.gz"
        r.tracer.dump(spans_path)
        rec["spans_file"] = str(spans_path.relative_to(ROOT))
        metrics, notes = per_layer(r, fallbacks.value - fallbacks_before)
        info = {}
        if notes.pop("closure_failures"):
            rec["correct"] = False
            rec["problems"].append("trace closure check failed")
    else:
        metrics, notes, info = end_to_end(r, recall, physical / raw_bytes)
    notes["recall"] = f"{recall_n} answers checked against exact ground truth"
    notes["stored_bytes_ratio"] = f"physical {physical} / raw {raw_bytes} bytes"
    rec["metrics"] = metrics
    rec["notes"] = notes
    rec["info"] = info
    return rec


def _tail(samples, label):
    try:
        pct, value, n = tail_percentile(samples)
    except ValueError as err:
        return float("nan"), f"{label}: {err}"
    return value, f"{label}: p{pct:.2f} of n={n}"


def end_to_end(r: Run, recall: float, ratio: float):
    w, setup_s, build_s, closed, rounds, ledger = (
        r.w, r.setup_s, r.build_s, r.closed, r.rounds, r.ledger)
    notes, info = {}, {}
    m = {"setup_s": median(setup_s)}
    notes["setup_s"] = f"median of {len(setup_s)}: {setup_s}"
    m["build_rec_s"] = w.n_series / median(build_s)
    notes["build_rec_s"] = f"median of {len(build_s)} builds"
    info["knn_p50_ms"] = (median(closed.knn_ms), f"n={len(closed.knn_ms)}")
    info["knn_p99_ms"] = _tail(closed.knn_ms, "knn")
    info["progressive_p50_ms"] = (median(closed.progressive_ms),
                                  f"n={len(closed.progressive_ms)}")
    for label, rate in (("lo", w.serve_lo), ("hi", w.serve_hi)):
        lat = [x.latency_ms for res in r.served[label] for x in res.completed]
        info[f"serve_{label}_p50_ms"] = (median(lat),
                                         f"{rate:g} req/s, n={len(lat)}")
        info[f"serve_{label}_p99_ms"] = _tail(lat, f"{rate:g} req/s")
    info["batch_qps"] = (rounds.batch_rows / rounds.batch_s,
                         f"{rounds.batch_rows} rows / {rounds.batch_s:.4f} s "
                         f"over {rounds.done} rounds")
    info["append_rec_s"] = (rounds.appended / rounds.append_s,
                            f"{rounds.appended} records / "
                            f"{rounds.append_s:.4f} s over {rounds.done} "
                            f"rounds")
    m["stored_bytes_ratio"] = ratio
    m["recall_at_10"] = recall
    m["ok_ratio"] = 1.0 - ledger.failed / ledger.attempted
    notes["ok_ratio"] = f"1 - {ledger.failed} failed / {ledger.attempted} attempted"
    return m, notes, info


def per_layer(r: Run, fallbacks: int):
    tracer, closed, rounds, ledger, counters = (
        r.tracer, r.closed, r.rounds, r.ledger, r.counters)
    notes = {}
    analysis = analyse(tracer.spans)
    main_thread = threading.get_ident()
    query_roots = ("index.knn", "index.knn_progressive", "index.knn_batch")
    layer_sum: dict[str, float] = {}
    rows = 0
    wall = 0.0
    prog_merge, prog_n = 0.0, 0
    dispatch = []
    builds, appends = [], []
    by_rid: dict[int, list] = {}
    for s in tracer.spans:
        by_rid.setdefault(s.rid, []).append(s)
    for req in analysis["requests"]:
        root = req["root"]
        if root.name in query_roots:
            n = root.attrs["rows"] if root.name == "index.knn_batch" else 1
            rows += n
            wall += req["wall_s"]
            for layer, t in req["layers"].items():
                layer_sum[layer] = layer_sum.get(layer, 0.0) + t
            if root.name == "index.knn_progressive":
                prog_merge += req["layers"].get("progressive.merge", 0.0)
                prog_n += 1
            if root.name == "index.knn_batch" and root.thread != main_thread:
                dispatch.append(req["wall_s"] * 1e3)
        elif root.name == "index.build":
            builds.append(_build_steps(by_rid[root.rid]))
        elif root.name == "index.append":
            appends.append(req["layers"])

    def per_row_us(*layers):
        return sum(layer_sum.get(x, 0.0) for x in layers) / rows * 1e6

    m = {
        "signature.self_us": per_row_us("signature"),
        "route.self_us": per_row_us("route"),
        "select.self_us": per_row_us("select"),
        "dfs.open_self_us": per_row_us("dfs.open"),
        "engine.open_us": per_row_us("engine.open"),
        "engine.map_us": per_row_us("engine.map"),
        "refine.self_us": per_row_us("refine"),
        "costsim.self_us": per_row_us("costsim"),
        "query.unattributed_us": per_row_us("unattributed"),
        "query.traced_wall_us": wall / rows * 1e6,
    }
    notes["per_row"] = f"layer self times over {rows} traced query rows"

    # Distinct signatures per routed row: knn_batch routes distinct rows.
    query_rids = {req["rid"] for req in analysis["requests"]
                  if req["root"].name in query_roots}
    distinct = batch_rows = opened = examined = mapped = 0
    for s in tracer.spans:
        if s.rid not in query_rids:
            continue
        if s.name == "routing.distance_matrices":
            distinct += s.attrs["distinct"]
        elif s.name == "dfs.read_partition":
            opened += s.attrs["records"]
        elif s.name == "engine.read_clusters":
            mapped += s.attrs["bytes"]
        elif s.parent is None:
            examined += s.attrs["examined"]
            if s.name == "index.knn_batch":
                batch_rows += s.attrs["rows"]
    singles = rows - batch_rows
    m["route.distinct_ratio"] = (distinct + singles) / rows
    notes["route.distinct_ratio"] = f"{distinct + singles} distinct / {rows} rows"
    m["engine.materialised_bytes_per_query"] = mapped / rows
    m["engine.useful_ratio"] = examined / opened
    notes["engine.useful_ratio"] = (
        f"{examined} records scored / {opened} records in opened partitions")

    stats = [a.stats for a in ledger.answers if a.stats is not None]
    m["route.candidates_per_query"] = np.mean([len(s.group_ids) for s in stats])
    m["select.nodes_per_query"] = np.mean([s.n_selected_nodes for s in stats])
    m["select.partitions_planned_per_query"] = np.mean([
        len(s.partitions_loaded) + len(s.partitions_failed)
        + len(s.partitions_forgone) for s in stats])
    m["refine.records_scored_per_query"] = np.mean(
        [s.records_examined for s in stats])
    m["refine.expanded_ratio"] = np.mean(
        [s.expanded_within_partition for s in stats])
    notes["stats"] = f"QueryStats of {len(stats)} checked answers"

    reads = {f: sum(getattr(b, f) - getattr(a, f) for a, b in counters)
             for f in ("partitions_read", "bytes_read", "cache_hits",
                       "cache_misses", "retries", "read_failures")}
    query_rows = len(ledger.answers)
    m["dfs.opens_per_query"] = reads["partitions_read"] / query_rows
    m["dfs.bytes_read_per_query"] = reads["bytes_read"] / query_rows
    lookups = reads["cache_hits"] + reads["cache_misses"]
    m["dfs.cache_hit_ratio"] = reads["cache_hits"] / lookups if lookups else 0.0
    notes["dfs"] = (f"{reads['partitions_read']} logical reads, "
                    f"{reads['cache_hits']} hits / {lookups} cache lookups, "
                    f"over {query_rows} answers")
    m["dfs.retries"] = reads["retries"]
    m["dfs.read_failures"] = reads["read_failures"]

    finals = closed.progressive_final
    m["progressive.merge_us"] = prog_merge / max(1, prog_n) * 1e6
    m["progressive.visit_coverage"] = np.mean(
        [u.stats.visit_coverage for u in finals])
    m["progressive.stopped_early_ratio"] = np.mean(
        [u.stopped_early for u in finals])
    notes["progressive"] = f"{len(finals)} drained progressive queries"

    fixed = [x for p in ("lo", "hi") for res in r.served[p]
             for x in res.completed]
    delays = [x.response.queue_delay_s * 1e3 for x in fixed]
    m["serve.queue_delay_p50_ms"] = median(delays)
    m["serve.queue_delay_p99_ms"], notes["serve.queue_delay_p99_ms"] = _tail(
        delays, "lo+hi")
    m["serve.batch_size_mean"] = np.mean([x.response.batch_size for x in fixed])
    m["serve.dispatch_ms"] = np.mean(dispatch) if dispatch else 0.0
    notes["serve.dispatch_ms"] = f"{len(dispatch)} dispatches"
    results = r.served["lo"] + r.served["hi"]
    everything = [x for res in results for x in res.requests]
    m["serve.generator_late_p99_ms"], notes["serve.generator_late_p99_ms"] = \
        _tail([ms for res in results for ms in res.late_ms()], "lo+hi")
    m["serve.rejected"] = sum(x.rejected for x in everything)
    seen, repeats = set(), 0
    for x in everything:
        key = x.query.tobytes()
        repeats += key in seen
        seen.add(key)
    m["serve.repeat_share"] = repeats / len(everything)
    notes["serve.repeat_share"] = f"{repeats} repeats / {len(everything)} requests"

    steps = list(zip(*builds))
    m["build.skeleton_s"], m["build.convert_s"], m["build.redistribute_s"] = (
        median(s) for s in steps)
    m["append.route_s"] = np.mean([
        sum(a.get(x, 0.0) for x in ("signature", "assign", "trie_route"))
        for a in appends])
    m["append.write_s"] = np.mean([a.get("dfs.write", 0.0) for a in appends])
    notes["append"] = f"mean per round of {rounds.appended // len(appends)} records"

    busy = capacity = 0.0
    for s in tracer.spans:
        if s.name == "parallel.map":
            capacity += s.duration * s.attrs["workers"]
        elif s.name == "parallel.task":
            busy += s.duration
    m["parallel.busy_ratio"] = busy / capacity if capacity else 0.0
    notes["parallel.busy_ratio"] = f"{busy:.4f} task-s / {capacity:.4f} worker-s"
    m["parallel.fallbacks"] = fallbacks

    traced = [t for t, on in zip(closed.knn_ms, closed.traced) if on]
    plain = [t for t, on in zip(closed.knn_ms, closed.traced) if not on]
    m["trace.overhead_ratio"] = median(traced) / median(plain)
    notes["trace.overhead_ratio"] = (
        f"knn p50 traced (n={len(traced)}) / untraced (n={len(plain)})")
    m["trace.spans"] = len(tracer.spans)
    notes["closure"] = (f"{len(analysis['requests'])} requests, "
                        f"{analysis['closure_failures']} not closed "
                        f"(largest error "
                        f"{analysis['max_closure_error_s'] * 1e6:.3g} us), "
                        f"{tracer.orphans} orphan spans")
    notes["closure_failures"] = analysis["closure_failures"] + tracer.orphans
    return {k: float(v) for k, v in m.items()}, notes


def _build_steps(spans):
    """(skeleton, convert, redistribute) seconds of one traced build.

    The steps are bounded by the first public call each makes: convert
    starts when the builder creates its executor, redistribute when it
    first asks the skeleton for its flat router.
    """
    first = {}
    for s in sorted(spans, key=lambda s: s.start):
        first.setdefault(s.name, s)
    art = first["builder.build_index_artifacts"]
    t_convert = first["builder.make_executor"].start
    t_redist = min(s.start for s in spans if s.name == "skeleton.flat_router"
                   and s.start >= t_convert)
    return (t_convert - art.start, t_redist - t_convert, art.end - t_redist)


# -- command line -------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no library at {src / 'repro'}; run from a checkout",
              file=sys.stderr)
        return 2
    # Every knob stays at its default: ignore the library's environment
    # fallbacks (workers, faults, early stopping) of the calling shell.
    for key in [k for k in os.environ if k.startswith("CLIMBER_")]:
        del os.environ[key]
    sys.path.insert(0, str(src))

    out_dir = ROOT / ".e2ebench"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    try:
        rec = run(WORKLOADS[args.workload], args.seed, args.seconds,
                  bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        # Let the file system finish discarding the deleted stores now,
        # not during whatever runs next.
        os.sync()
    rec["run_wall_s"] = time.perf_counter() - t0
    units = dict(END_TO_END + [x[:2] for x in INFO] + PER_LAYER)
    for name, value in rec["metrics"].items():
        note = rec["notes"].get(name, "")
        print(f"{name:40s} {value:14.6g} {units[name]:10s} {note}")
    for name, (value, note) in rec["info"].items():
        print(f"# {name} {value:.6g} {units[name]} ({note}; informational, "
              f"not in the result)")
    for key in ("dfs", "stats", "per_row", "progressive", "append", "closure",
                "recall"):
        if key in rec["notes"]:
            print(f"# {key}: {rec['notes'][key]}")
    for problem in rec["problems"]:
        print(f"# problem: {problem}")
    record_path = out_dir / (f"{args.workload}-seed{args.seed}-"
                             f"trace{args.trace}.json")
    record_path.write_text(json.dumps(rec, indent=1, default=str))
    print(f"# run record: {record_path.relative_to(ROOT)}; "
          f"wall {rec['run_wall_s']:.1f} s")
    print(json.dumps({
        "correct": rec["correct"],
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in rec["metrics"].items()},
    }))
    return 0 if rec["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
