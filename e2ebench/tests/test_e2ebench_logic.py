"""Self-tests of the benchmark's own logic (not of the library it measures).

Run with ``python3 -m pytest e2ebench/tests -q`` from the checkout root.
"""

from __future__ import annotations

import asyncio
import json
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from e2e_phases import DIST_RTOL, Ledger, open_loop  # noqa: E402
from e2e_stats import compare_metric, compare_runs, tail_percentile  # noqa: E402
from e2e_trace import Span, Tracer, analyse  # noqa: E402


# -- the tail-percentile rule -----------------------------------------------------


@pytest.mark.parametrize("n, pct", [(1000, 99.0), (5000, 99.0), (100, 90.0),
                                    (11, 100 / 11)])
def test_tail_percentile_keeps_ten_samples_beyond(n, pct):
    samples = list(np.random.default_rng(n).permutation(n).astype(float))
    got_pct, value, count = tail_percentile(samples)
    assert count == n
    assert got_pct == pytest.approx(pct)
    assert sum(1 for x in samples if x > value) >= 10


def test_tail_percentile_refuses_too_few_samples():
    with pytest.raises(ValueError):
        tail_percentile(list(range(10)))


def test_tail_percentile_is_nearest_rank_at_the_cap():
    # 1..1000: the 99th percentile by nearest rank is the 990th value.
    assert tail_percentile([float(x) for x in range(1, 1001)])[1] == 990.0


# -- span self time and the closure check --------------------------------------------


def span(sid, name, start, end, parent=None, rid=1, thread=1):
    s = Span(sid, name, start, parent, rid, thread)
    s.end = end
    return s


def test_self_time_subtracts_nested_children():
    spans = [
        span(1, "index.knn", 0.0, 10.0),
        span(2, "index.query_signature", 1.0, 3.0, parent=1),
        span(3, "dfs.read_partition", 4.0, 9.0, parent=1),
        span(4, "engine.open_partition", 5.0, 6.0, parent=3),
    ]
    result = analyse(spans)
    (req,) = result["requests"]
    assert req["closed"]
    assert req["layers"] == {"unattributed": 3.0, "signature": 2.0,
                             "dfs.open": 4.0, "engine.open": 1.0}


def test_spans_from_two_threads_share_the_wall_they_cover():
    # A map on thread 1 whose two tasks overlap on threads 2 and 3.
    spans = [
        span(1, "index.knn_batch", 0.0, 10.0),
        span(2, "parallel.map", 1.0, 9.0, parent=1),
        span(3, "parallel.task", 1.0, 6.0, parent=2, thread=2),
        span(4, "distance.knn_bruteforce", 2.0, 5.0, parent=3, thread=2),
        span(5, "parallel.task", 2.0, 9.0, parent=2, thread=3),
    ]
    (req,) = analyse(spans)["requests"]
    assert req["closed"]
    # 8 s of wall covered by 12 s of task time: weight 2/3.  The map's
    # own self time is 0, since the tasks cover all of it.
    assert req["layers"]["refine"] == pytest.approx(3.0 * 8 / 12)
    assert req["layers"]["unattributed"] == pytest.approx(
        10.0 - 3.0 * 8 / 12)
    assert sum(req["layers"].values()) == pytest.approx(10.0)


def test_closure_fails_for_a_child_outside_its_parent():
    spans = [span(1, "index.knn", 0.0, 10.0),
             span(2, "distance.knn_bruteforce", 8.0, 12.0, parent=1)]
    result = analyse(spans)
    assert result["closure_failures"] == 1
    assert result["max_closure_error_s"] == pytest.approx(2.0)


def test_closure_fails_for_overlapping_same_thread_siblings():
    spans = [span(1, "index.knn", 0.0, 10.0),
             span(2, "distance.knn_bruteforce", 1.0, 5.0, parent=1),
             span(3, "cluster.simulator", 4.0, 6.0, parent=1)]
    assert analyse(spans)["closure_failures"] == 1


def test_tracer_parents_worker_spans_and_counts_orphans():
    tracer = Tracer()
    with tracer.span("index.knn_batch") as root:
        with tracer.span("parallel.map") as map_span:
            def task(i):
                with tracer.span("parallel.task", parent=map_span):
                    with tracer.span("distance.knn_bruteforce"):
                        time.sleep(0.01)
                return threading.get_ident()

            with ThreadPoolExecutor(2) as pool:
                threads = set(pool.map(task, range(4)))
    assert threading.get_ident() not in threads
    assert {s.rid for s in tracer.spans} == {root.rid}
    result = analyse(tracer.spans)
    assert result["closure_failures"] == 0
    assert tracer.orphans == 0
    with tracer.span("dfs.read_partition"):  # no entry point above it
        pass
    assert tracer.orphans == 1


# -- open-loop timing ---------------------------------------------------------------


class _StallingService:
    """Answers instantly, except that the first call blocks the event loop."""

    def __init__(self, stall_s):
        self.stall_s = stall_s
        self.calls = 0

    async def submit(self, query, k):
        self.calls += 1
        if self.calls == 1:
            time.sleep(self.stall_s)  # stalls the generator too
        await asyncio.sleep(0)
        return object()


def test_open_loop_latency_counts_from_the_due_time():
    stall = 0.05
    offsets = np.array([0.0, 0.01, 0.02, 0.03, 0.2])
    queries = np.zeros((5, 4))
    res = asyncio.run(open_loop(_StallingService(stall), queries, offsets))
    reqs = res.requests
    assert len(res.completed) == 5
    # Requests due during the stall were sent late; their latency from
    # the due time includes the wait, though the service was instant.
    for r in reqs[1:4]:
        late = r.sent - r.due
        assert late > 0.01
        assert r.latency_ms >= late * 1e3
    assert reqs[4].sent - reqs[4].due < stall
    assert max(res.late_ms()) >= (stall - 0.02) * 1e3


# -- the comparison rule --------------------------------------------------------------


def test_ties_count_for_neither_side():
    row = compare_metric([5.0] * 10, [5.0] * 10, "lower", 0.1)
    assert (row["wins"], row["losses"], row["ties"]) == (0, 0, 10)
    assert row["verdict"] == "no-regression"


def test_gain_needs_nine_tenths_of_pairs_and_more_than_the_parent_iqr():
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
    change = [x - 1.0 for x in parent]
    assert compare_metric(parent, change, "lower", 0.1)["verdict"] == "gain"
    # Eight wins of ten is not enough, however large the medians differ.
    change[0], change[1] = 11.0, 11.0
    assert compare_metric(parent, change, "lower", 0.1)["verdict"] != "gain"
    # Ten wins, but by less than the parent's interquartile distance.
    close = [x - 0.01 for x in parent]
    assert compare_metric(parent, close, "lower", 0.1)["verdict"] != "gain"


def test_spread_wider_than_the_bound_is_unresolved():
    parent = [8.0, 12.0, 9.0, 11.0, 10.0, 8.5, 11.5, 9.5, 10.5, 10.0]
    change = [x * 1.02 for x in parent]
    row = compare_metric(parent, change, "lower", 0.1)
    assert row["verdict"] == "unresolved"


def test_worse_median_beyond_the_bound_is_a_regression():
    parent = [100.0 + i * 0.1 for i in range(10)]
    change = [x * 0.8 for x in parent]  # throughput: higher is better
    assert compare_metric(parent, change, "higher", 0.1)["verdict"] == \
        "regression"


def _runs(values, failed):
    return [{"failed": failed,
             "metrics": {"ok_ratio": {"value": 1.0 - failed / 1000},
                         "knn_p50_ms": {"value": v}}}
            for v in values]


def test_more_failures_void_a_gain_and_a_worse_ok_ratio_regresses():
    metrics = [{"name": "knn_p50_ms", "better": "lower", "bound": 0.1},
               {"name": "ok_ratio", "better": "higher", "bound": 0.01}]
    parent = _runs([10.0 + 0.01 * i for i in range(10)], 0)
    faster_but_failing = _runs([5.0 + 0.01 * i for i in range(10)], 50)
    rows = {r["metric"]: r for r in
            compare_runs(parent, faster_but_failing, metrics)}
    assert rows["knn_p50_ms"]["verdict"] == "no gain (more operations failed)"
    assert rows["ok_ratio"]["verdict"] == "regression"


# -- wrong answers -------------------------------------------------------------------


class _Inputs:
    def __init__(self, values):
        self.values = values

    def all_values(self, rounds_done):
        return self.values


def test_ledger_rejects_a_perturbed_distance_and_duplicates():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((50, 8))
    query = rng.standard_normal(8)
    exact = np.sqrt(((data - query) ** 2).sum(axis=1))
    ids = np.argsort(exact)[:10]
    ledger = Ledger(_Inputs(data))
    assert ledger.check(query, ids, exact[ids], 0, None, "knn")
    bad = exact[ids].copy()
    bad[3] *= 1 + 100 * DIST_RTOL
    assert not ledger.check(query, ids, bad, 0, None, "knn")
    dup = ids.copy()
    dup[1] = dup[0]
    assert not ledger.check(query, dup, exact[dup], 0, None, "knn")
    assert not ledger.check(query, ids[:9], exact[ids[:9]], 0, None, "knn")
    assert ledger.wrong == 3
    assert len(ledger.answers) == 1


_INJECT = """
import sys
sys.argv = ["run.py", "--workload", "tiny", "--seed", "3", "--seconds", "2",
            "--trace", "0"]
sys.path.insert(0, {bench!r})
import run
from e2e_workloads import WORKLOADS, Workload
WORKLOADS["tiny"] = Workload(
    name="tiny", family="RandomWalk", n_series=3000,
    length=64, cache_mb=4, n_workers=1, queries="uniform",
    serve_lo=20.0, serve_hi=40.0, capacity=300, setups=3, rounds=2,
    round_records=500, round_batch=32)
sys.path.insert(0, {src!r})
from repro.core import ClimberIndex
knn = ClimberIndex.knn
calls = [0]
def perturbed(self, *args, **kwargs):
    result = knn(self, *args, **kwargs)
    calls[0] += 1
    if calls[0] == 5:
        result.distances[0] += 0.5
    return result
ClimberIndex.knn = perturbed
sys.exit(run.main())
"""


def test_a_wrong_answer_fails_the_command_and_counts_as_failed():
    code = _INJECT.format(bench=str(BENCH), src=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["metrics"]["ok_ratio"]["value"] < 1.0


def test_the_command_refuses_a_directory_without_the_library(tmp_path):
    bench = tmp_path / "e2ebench"
    bench.mkdir()
    for f in BENCH.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "point-query",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
