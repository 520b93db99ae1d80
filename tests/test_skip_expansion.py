"""Skip-mode accounting when a within-partition expansion read fails.

A query that holds fewer than ``k`` targeted records expands into the
other clusters of the partitions it read.  Under
``on_partition_failure="skip"`` that expansion read may fail too:

* a partition that contributed no targeted records is retracted — it
  moves from ``partitions_loaded`` to ``partitions_failed``, and its bytes
  and scan cost leave ``data_bytes`` and ``sim_seconds``, exactly as if
  it could not have been opened at all;
* a partition whose targeted records were already folded in stays
  loaded; only its expansion records are missing from the answer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ClimberConfig, ClimberIndex
from repro.core.config import EARLY_STOP_ENV, ON_PARTITION_FAILURE_ENV
from repro.exceptions import StorageError
from repro.resilience import (
    FAULT_ENV_BITFLIP_RATE,
    FAULT_ENV_LOSS_RATE,
    FAULT_ENV_RATE,
    FAULT_ENV_SEED,
    FAULT_ENV_STRAGGLER_RATE,
    FaultPlan,
    RetryPolicy,
)
from repro.series import SeriesDataset
from repro.storage.engine import decode_v2_header

_SCRUB_ENV = (
    FAULT_ENV_SEED, FAULT_ENV_RATE, FAULT_ENV_LOSS_RATE,
    FAULT_ENV_BITFLIP_RATE, FAULT_ENV_STRAGGLER_RATE,
    ON_PARTITION_FAILURE_ENV, EARLY_STOP_ENV,
)

#: More neighbours than the index holds: every record read stays in the
#: running top-k, so a visit's ``new_neighbors`` counts its targeted
#: records, and every plan expands into whatever else its partitions hold.
K = 2000

_QUERIES = np.random.default_rng(23).standard_normal((12, 32))


@pytest.fixture(autouse=True)
def _scrub_env(monkeypatch):
    for var in _SCRUB_ENV:
        monkeypatch.delenv(var, raising=False)


def _dataset(n, seed, first_id=0):
    rng = np.random.default_rng(seed)
    return SeriesDataset(rng.standard_normal((n, 32)),
                         ids=np.arange(first_id, first_id + n))


def _index(corrupt_section=None, names=(), fault_plan=None):
    """A fixed build plus a small append, whose delta partitions hold few
    clusters: some plans read a delta holding none of their targets.

    ``corrupt_section`` flips one bit in that section of every partition
    in ``names``: ``"values"`` is detected lazily, by the first cluster
    read; ``"directory"`` when the partition is opened.
    """
    config = ClimberConfig(
        word_length=8, n_pivots=16, prefix_length=4, capacity=64,
        sample_fraction=0.5, seed=5, n_input_partitions=4,
        retry_policy=RetryPolicy(max_attempts=1), fault_plan=fault_plan,
    )
    index = ClimberIndex.build(_dataset(800, 17), config)
    index.append(_dataset(40, 99, first_id=10_000))
    backend = index.dfs.engine.backend
    for pid in names:
        blob = index.dfs.engine.blob_name(pid)
        payload = bytearray(backend.read_range(blob, 0, backend.size(blob)))
        header = decode_v2_header(bytes(payload))
        offset = {"values": header.values_offset,
                  "directory": header.dir_offset}[corrupt_section]
        payload[offset + 1] ^= 0x04
        backend.write(blob, bytes(payload))
    return index


def _visits(index, query):
    """``(partition, targeted records read)`` per visit of a clean walk."""
    updates = list(index.knn_progressive(query, K, variant="knn",
                                         early_stop="off"))
    plan = updates[-1].stats.partitions_loaded
    return [(p, u.new_neighbors) for p, u in zip(plan, updates[:-1])]


def _run(index, consumer):
    if consumer == "knn":
        return [index.knn(q, K, variant="knn", on_partition_failure="skip")
                for q in _QUERIES]
    if consumer == "knn_batch":
        return index.knn_batch(_QUERIES, K, variant="knn",
                               on_partition_failure="skip")
    return [
        list(index.knn_progressive(q, K, variant="knn",
                                   on_partition_failure="skip",
                                   early_stop="off"))[-1]
        for q in _QUERIES
    ]


@pytest.mark.parametrize("consumer", ["knn", "knn_batch", "knn_progressive"])
def test_failed_expansion_retracts_partition_without_targets(consumer):
    probe = _index()
    # Per query, the partitions its plan reads for no targeted record but
    # for other ones.  The probe walks the queries in the order the runs
    # below route them, so it sees the same plans.
    idle_of = [
        [p for p, targeted in _visits(probe, q)
         if targeted == 0 and probe.dfs.record_count(p) > 0]
        for q in _QUERIES
    ]
    idle = sorted({p for row in idle_of for p in row})
    assert idle, "no plan reads a partition without targeted records"

    clean = _run(_index(), consumer)
    lazy = _run(_index("values", idle), consumer)
    at_open = _run(_index("directory", idle), consumer)
    nbytes = probe.dfs.partition_nbytes
    for row_idle, c, lz, op in zip(idle_of, clean, lazy, at_open):
        if row_idle:
            assert lz.stats.expanded_within_partition
        corrupt = [p for p in c.stats.partitions_loaded if p in idle]
        assert set(row_idle) <= set(corrupt)
        assert set(lz.stats.partitions_failed) == set(corrupt)
        assert not set(corrupt) & set(lz.stats.partitions_loaded)
        assert lz.stats.data_bytes == (
            c.stats.data_bytes - sum(nbytes(p) for p in corrupt)
        )
        # Accounted exactly like a partition that could not be opened.
        assert np.array_equal(lz.ids, op.ids)
        assert np.array_equal(lz.distances, op.distances)
        assert lz.stats.partitions_loaded == op.stats.partitions_loaded
        assert sorted(lz.stats.partitions_failed) == sorted(
            op.stats.partitions_failed
        )
        assert lz.stats.data_bytes == op.stats.data_bytes
        assert lz.stats.sim_seconds == op.stats.sim_seconds
        assert lz.stats.records_examined == op.stats.records_examined


def test_failed_expansion_keeps_contributing_partition_loaded():
    # A query and a partition of its plan that contributed targeted
    # records and holds others the expansion would add.
    for query in _QUERIES:
        probe = _index()
        picks = [
            (p, targeted) for p, targeted in _visits(probe, query)
            if 0 < targeted < probe.dfs.record_count(p)
        ]
        if picks:
            break
    assert picks, "no plan reads a partition with targeted and other records"
    partition, targeted = picks[0]
    clean = list(_index().knn_progressive(query, K, variant="knn",
                                          early_stop="off"))[-1]

    index = _index(fault_plan=FaultPlan(seed=7))
    injector = index.dfs.fault_injector
    final = None
    for update in index.knn_progressive(query, K, variant="knn",
                                        on_partition_failure="skip",
                                        early_stop="off"):
        if not update.done and update.visited_fraction == 1.0:
            # Between the last visit and the expansion, every new read
            # attempt of the partition fails.  The attempt begun here
            # fixes the decision the walk's open handle consults next.
            injector.plan = FaultPlan(seed=7, transient_rate=1.0)
            with pytest.raises(StorageError):
                index.dfs.read_partition(partition)
            injector.plan = FaultPlan(seed=7)
        final = update

    stats = final.stats
    assert stats.expanded_within_partition
    assert partition in stats.partitions_loaded
    assert stats.partitions_failed == ()
    assert stats.partitions_loaded == clean.stats.partitions_loaded
    assert stats.data_bytes == clean.stats.data_bytes
    assert stats.sim_seconds == clean.stats.sim_seconds
    missing = index.dfs.record_count(partition) - targeted
    assert stats.records_examined == clean.stats.records_examined - missing
