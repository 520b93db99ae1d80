"""The phases of one run: set-up, append rounds, closed loop, open loop.

Each phase drives the library only through its public calls and returns
what it measured.  Answers are checked as they arrive by a
:class:`Ledger`; recall against exact ground truth is computed at the end
of the run, outside every timed region.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from e2e_workloads import EARLY_STOP, K, PROGRESSIVE_EVERY

#: A returned distance may differ from the exact Euclidean distance only by
#: float rounding: the library computes ||q||^2 + ||x||^2 - 2 q.x.
DIST_RTOL = 1e-6
#: Ground-truth queries per float32 matrix product.
TRUTH_CHUNK = 64
#: Traced runs switch tracing on and off every this many closed-loop
#: queries.
TRACE_BLOCK = 16


@dataclass
class Answer:
    query: np.ndarray
    ids: np.ndarray
    version: int
    """Append rounds visible to the query (selects the ground-truth data)."""
    stats: object
    what: str


class Ledger:
    """Counts attempted and failed operations and checks every answer."""

    def __init__(self, inputs):
        self.inputs = inputs
        self.k = K
        self.attempted = 0
        self.wrong = 0
        self.errors = 0
        self.rejected = 0
        self.answers: list[Answer] = []
        self.problems: list[str] = []

    @property
    def failed(self) -> int:
        return self.wrong + self.errors + self.rejected

    def wrong_answer(self, why: str) -> None:
        self.wrong += 1
        if len(self.problems) < 20:
            self.problems.append(why)

    def check(self, query, ids, distances, version: int, stats,
              what: str) -> bool:
        """Exact distances, distinct ids, ``min(k, n)`` rows, ascending."""
        data = self.inputs.all_values(version)
        ids = np.asarray(ids)
        distances = np.asarray(distances, dtype=np.float64)
        want = min(self.k, data.shape[0])
        if ids.shape != (want,) or distances.shape != (want,):
            self.wrong_answer(f"{what}: {ids.shape[0]} rows, want {want}")
            return False
        if np.unique(ids).shape[0] != want:
            self.wrong_answer(f"{what}: duplicate ids")
            return False
        if ids.min() < 0 or ids.max() >= data.shape[0]:
            self.wrong_answer(f"{what}: id out of range")
            return False
        exact = np.sqrt(((data[ids] - query) ** 2).sum(axis=1))
        if not np.allclose(distances, exact, rtol=DIST_RTOL, atol=DIST_RTOL):
            self.wrong_answer(f"{what}: distance differs from exact")
            return False
        if np.any(np.diff(distances) < 0):
            self.wrong_answer(f"{what}: distances not ascending")
            return False
        self.answers.append(
            Answer(np.asarray(query), ids, version, stats, what))
        return True

    def recall(self, first: dict[str, int]) -> tuple[float, int]:
        """Mean recall@k of the first ``first[what]`` distinct queries of
        each kind of answer (per append round for ``knn_batch``).

        A fixed prefix, not a share of everything answered, so the checked
        set depends on the seed only, not on how many queries a timed phase
        completed; repeats of a query add nothing to its recall.
        """
        taken: dict[tuple, int] = {}
        seen: set[tuple] = set()
        by_version: dict[int, list[Answer]] = {}
        for a in self.answers:
            key = (a.what, a.version if a.what == "knn_batch" else 0)
            query = (a.what, a.version, a.query.tobytes())
            if taken.get(key, 0) >= first.get(a.what, 0) or query in seen:
                continue
            seen.add(query)
            taken[key] = taken.get(key, 0) + 1
            by_version.setdefault(a.version, []).append(a)
        hits = 0
        total = 0
        for version, answers in by_version.items():
            truth = exact_knn(self.inputs.all_values(version),
                              np.stack([a.query for a in answers]), self.k)
            for a, t in zip(answers, truth):
                hits += np.intersect1d(a.ids, t).shape[0]
                total += t.shape[0]
        return hits / total, sum(taken.values())


def exact_knn(data: np.ndarray, queries: np.ndarray,
              k: int) -> list[np.ndarray]:
    """Exact k nearest ids of each query.

    A float32 matrix product shortlists ``k + 40`` candidates, far more
    than its rounding can reorder; the shortlist is re-ranked exactly.
    """
    data32 = data.astype(np.float32)
    norms = np.einsum("ij,ij->i", data32, data32)
    short = min(data.shape[0], k + 40)
    out = []
    for start in range(0, queries.shape[0], TRUTH_CHUNK):
        q = queries[start:start + TRUTH_CHUNK]
        d2 = norms[None, :] - 2.0 * (q.astype(np.float32) @ data32.T)
        cand = np.argpartition(d2, short - 1, axis=1)[:, :short]
        for row, c in zip(q, cand):
            exact = ((data[c] - row) ** 2).sum(axis=1)
            order = np.lexsort((c, exact))[:k]
            out.append(c[order])
    return out


# -- set-up ---------------------------------------------------------------------


@dataclass
class Store:
    """A persisted index: its partition directory and global-index blob."""

    directory: Path
    blob_path: Path
    config: object
    cache_bytes: int

    def open(self):
        """A fresh process's view: attach the directory, reopen the index."""
        from repro.core import ClimberIndex
        from repro.storage import SimulatedDFS

        dfs = SimulatedDFS(backing_dir=self.directory,
                           cache_bytes=self.cache_bytes)
        dfs.attach()
        return ClimberIndex.reopen(self.blob_path.read_bytes(), dfs,
                                   self.config)


def make_config(w):
    from repro.core import ClimberConfig

    return ClimberConfig(capacity=w.capacity, n_workers=w.n_workers)


def setup(w, inputs, directory: Path, tracer):
    """Build into ``directory``, save, attach and reopen, timed.

    Returns ``(store, index, setup_seconds, build_seconds)``; ``index`` is
    the reopened index.
    """
    from repro.core import ClimberIndex
    from repro.series import SeriesDataset
    from repro.storage import SimulatedDFS

    config = make_config(w)
    cache = w.cache_mb << 20
    store = Store(directory, directory.with_suffix(".bin"), config, cache)
    t0 = time.perf_counter()
    with tracer.span("index.build"):
        built = ClimberIndex.build(
            SeriesDataset(inputs.base), config,
            dfs=SimulatedDFS(backing_dir=directory, cache_bytes=cache),
        )
    t1 = time.perf_counter()
    store.blob_path.write_bytes(built.save_global_index())
    with tracer.span("index.reopen"):
        index = store.open()
    return store, index, time.perf_counter() - t0, t1 - t0


def stored_bytes(index) -> int:
    """Physical bytes of every partition in the index's store."""
    engine = index.dfs.engine
    return sum(engine.physical_nbytes(p) for p in index.dfs.list_partitions())


def warm(index) -> None:
    """Open every partition once so the read cache is filled before timing."""
    for pid in index.dfs.list_partitions():
        index.dfs.read_partition(pid)


# -- append rounds ----------------------------------------------------------------


@dataclass
class RoundsResult:
    done: int = 0
    appended: int = 0
    append_s: float = 0.0
    """Summed wall time of the rounds' ``append`` calls."""
    batch_rows: int = 0
    batch_s: float = 0.0
    """Rows read and summed wall time of the rounds' ``knn_batch`` calls."""


def append_round(w, index, stream, ledger: Ledger, out: RoundsResult) -> None:
    """Append the next batch of new series, then read with ``knn_batch``."""
    from repro.series import SeriesDataset

    batch = stream.inputs.appends[out.done]
    first_id = w.n_series + out.appended
    ids = np.arange(first_id, first_id + batch.shape[0], dtype=np.int64)
    ledger.attempted += 1
    t0 = time.perf_counter()
    index.append(SeriesDataset(batch, ids=ids))
    out.append_s += time.perf_counter() - t0
    out.appended += batch.shape[0]
    out.done += 1
    stream.rounds_done = out.done
    queries = stream.round_batch()
    ledger.attempted += queries.shape[0]
    t0 = time.perf_counter()
    try:
        results = index.knn_batch(queries, K)
    except Exception as err:  # counted, reported, run continues
        ledger.errors += queries.shape[0]
        ledger.problems.append(f"knn_batch: {err!r}")
        return
    out.batch_s += time.perf_counter() - t0
    out.batch_rows += queries.shape[0]
    for q, res in zip(queries, results):
        ledger.check(q, res.ids, res.distances, out.done, res.stats,
                     "knn_batch")


# -- closed loop ----------------------------------------------------------------------


@dataclass
class ClosedLoopResult:
    knn_ms: list = field(default_factory=list)
    progressive_ms: list = field(default_factory=list)
    progressive_final: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    """Per query: True when it ran with span tracing installed."""
    count: int = 0


def closed_loop(index, stream, ledger: Ledger, seconds: float,
                out: ClosedLoopResult, tracer, toggle=None) -> None:
    """One client, one request in flight, for ``seconds``; adds to ``out``.

    Every ``PROGRESSIVE_EVERY``-th query runs a drained
    ``knn_progressive``.  With ``toggle`` (traced runs) tracing is switched
    on and off every ``TRACE_BLOCK`` queries, so traced and untraced
    latencies come from the same stretch of the run.
    """
    from e2e_trace import NullTracer

    untraced = NullTracer()
    deadline = time.perf_counter() + seconds
    traced = False
    while time.perf_counter() < deadline:
        i = out.count
        want = toggle is not None and i // TRACE_BLOCK % 2 == 1
        if want != traced:
            traced = toggle(want)
        try:
            q = stream.next(1)[0]
        except RuntimeError:  # the phase's held-out pool is used up
            break
        ledger.attempted += 1
        progressive = i % PROGRESSIVE_EVERY == PROGRESSIVE_EVERY - 1
        out.count += 1
        try:
            if progressive:
                t0 = time.perf_counter()
                with (tracer if traced else untraced).span(
                    "index.knn_progressive"
                ) as span:
                    last = None
                    for update in index.knn_progressive(
                        q, K, early_stop=EARLY_STOP
                    ):
                        last = update
                    if span is not None:
                        span.attrs = {
                            "examined": last.stats.records_examined}
                dt = time.perf_counter() - t0
                out.progressive_ms.append(dt * 1e3)
                out.progressive_final.append(last)
                ids, dists, stats = last.ids, last.distances, last.stats
                what = "knn_progressive"
            else:
                t0 = time.perf_counter()
                res = index.knn(q, K)
                dt = time.perf_counter() - t0
                out.knn_ms.append(dt * 1e3)
                out.traced.append(traced)
                ids, dists, stats = res.ids, res.distances, res.stats
                what = "knn"
        except Exception as err:  # counted, reported, run continues
            ledger.errors += 1
            ledger.problems.append(f"closed loop: {err!r}")
            continue
        ledger.check(q, ids, dists, 0, stats, what)
    if traced:
        toggle(False)


# -- open loop ----------------------------------------------------------------------


@dataclass
class Request:
    query: np.ndarray
    due: float
    sent: float = 0.0
    done: float = 0.0
    response: object = None
    error: str | None = None
    rejected: bool = False

    @property
    def latency_ms(self) -> float:
        """From the due time, so a stalled generator's delay is counted."""
        return (self.done - self.due) * 1e3


@dataclass
class OpenLoopResult:
    requests: list

    @property
    def completed(self) -> list:
        return [r for r in self.requests if r.response is not None]

    def late_ms(self) -> list:
        return [(r.sent - r.due) * 1e3 for r in self.requests]


async def open_loop(service, queries, offsets) -> OpenLoopResult:
    """Submit ``queries[i]`` at ``start + offsets[i]`` regardless of replies."""
    from repro.exceptions import ServiceOverloadedError

    start = time.perf_counter() + 0.005
    requests: list[Request] = []
    tasks = []

    async def one(req: Request):
        try:
            req.response = await service.submit(req.query, K)
        except ServiceOverloadedError:
            req.rejected = True
        except Exception as err:  # reported per request
            req.error = repr(err)
        finally:
            req.done = time.perf_counter()

    for q, offset in zip(queries, offsets):
        due = start + float(offset)
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        req = Request(q, due, sent=time.perf_counter())
        requests.append(req)
        tasks.append(asyncio.ensure_future(one(req)))
    await asyncio.gather(*tasks)
    return OpenLoopResult(requests)
