"""Adaptive kNN answers with ``min(k, n)`` rows when the candidates store them.

CLIMBER-kNN-Adaptive stops widening its plan once the *estimated* record
count of the selected trie nodes covers k.  Those counts come from the
build sample, so a node estimated at 32 records can own a partition that
stores 7.  The planner therefore also checks the records the planned
partitions really store (DFS metadata, deltas included) and keeps
widening while they are fewer than ``min(k, n)``.  The config below uses
a 5% sample, so many queries hit that case.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ClimberConfig, ClimberIndex
from repro.core.config import EARLY_STOP_ENV, ON_PARTITION_FAILURE_ENV
from repro.datasets import random_walk_dataset, sample_queries
from repro.resilience import (
    FAULT_ENV_BITFLIP_RATE,
    FAULT_ENV_LOSS_RATE,
    FAULT_ENV_RATE,
    FAULT_ENV_SEED,
    FAULT_ENV_STRAGGLER_RATE,
)

#: Every query here must read every planned partition, so ambient chaos
#: and a CI-armed early stop are scrubbed.
_SCRUB_ENV = (
    FAULT_ENV_SEED, FAULT_ENV_RATE, FAULT_ENV_LOSS_RATE,
    FAULT_ENV_BITFLIP_RATE, FAULT_ENV_STRAGGLER_RATE,
    ON_PARTITION_FAILURE_ENV, EARLY_STOP_ENV,
)

SEEDS = (0, 1)


@pytest.fixture(autouse=True)
def _scrub_env(monkeypatch):
    for var in _SCRUB_ENV:
        monkeypatch.delenv(var, raising=False)


def _build(seed: int) -> tuple[ClimberIndex, np.ndarray]:
    ds = random_walk_dataset(2000, 32, seed=seed)
    cfg = ClimberConfig(
        word_length=8, n_pivots=24, prefix_length=4, capacity=40,
        sample_fraction=0.05, n_input_partitions=8, seed=seed,
    )
    index = ClimberIndex.build(ds, cfg)
    index.append(random_walk_dataset(100, 32, seed=seed + 50))
    return index, sample_queries(ds, 120, seed=seed + 100).values


def _routing(index: ClimberIndex, query: np.ndarray):
    """(primary, candidates) as ``knn`` routes ``query`` (adaptive)."""
    candidates = index.group_candidates(index.query_signature(query), od_slack=1)
    return index.select_primary(candidates), candidates


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("k", [20, 30])
def test_full_answers_across_query_paths(seed, k):
    index, queries = _build(seed)
    probe, _ = _build(seed)  # twin whose RNG the routing probes consume
    batch_twin, _ = _build(seed)
    progressive_twin, _ = _build(seed)
    want = min(k, index.n_records)
    defect_cases = 0
    batch = batch_twin.knn_batch(queries, k)
    for row, query in enumerate(queries):
        primary, candidates = _routing(probe, query)
        reachable = probe._reachable_records(
            [(c.entry, c.entry.trie) for c in candidates]
        )
        if (primary.gn.count >= k
                and probe._reachable_records([(primary.entry, primary.gn)]) < k):
            defect_cases += 1
        res = index.knn(query, k)
        if reachable >= want:
            assert res.ids.shape[0] == want, (row, res.stats)
        final = list(progressive_twin.knn_progressive(query, k, early_stop="off"))[-1]
        np.testing.assert_array_equal(final.ids, res.ids)
        np.testing.assert_array_equal(final.distances, res.distances)
        np.testing.assert_array_equal(batch[row].ids, res.ids)
        np.testing.assert_array_equal(batch[row].distances, res.distances)
        assert batch[row].stats.partitions_loaded == res.stats.partitions_loaded
    # The sample estimate overstated the primary node's partition for some
    # queries: exactly the case the metadata check exists for.
    assert defect_cases > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_plan_kept_when_primary_partitions_suffice(seed):
    """A primary node whose partitions store k records is the whole plan."""
    index, queries = _build(seed)
    probe, _ = _build(seed)
    k = 10
    kept = 0
    for query in queries:
        primary, _ = _routing(probe, query)
        res = index.knn(query, k)
        selected = [(primary.entry, primary.gn)]
        if primary.gn.count >= k and probe._reachable_records(selected) >= k:
            kept += 1
            assert res.stats.n_selected_nodes == 1
            assert res.ids.shape[0] == k
    assert kept > 0


def test_reachable_records_counts_deltas():
    index, _ = _build(0)
    dfs = index.dfs
    stored = sum(dfs.record_count(p) for p in dfs.list_partitions())
    everything = [(e, e.trie) for e in index.skeleton.groups]
    assert stored == index.n_records == 2100
    assert index._reachable_records(everything) == stored
