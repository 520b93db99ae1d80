"""Golden digest of the query path's answers.

One sha256 over everything a fixed build answers: ids, distances, the
pinned :class:`~repro.core.index.QueryStats` fields and the progressive
update streams of ``knn`` (all three variants), ``knn_batch``,
``knn_progressive`` and ``knn_batch_progressive`` (stopping off and
``streak:1``), in partition formats v1 and v2, on an index that has
received one ``append`` (so delta partitions are in every plan), plus
one skip-mode run over a store that loses partitions under a fixed
:class:`~repro.resilience.FaultPlan`.

The knn-vs-progressive parity oracles compare two entry points with each
other; this digest compares the query path with its own past, so a
change to the shared walk that moved both sides at once still shows.
Distances enter rounded to 9 significant digits: the digest then holds
across BLAS builds, whose reduction order moves the last ulps.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import ClimberConfig, ClimberIndex
from repro.core.config import EARLY_STOP_ENV, ON_PARTITION_FAILURE_ENV
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

#: The digest of the answers below.  A change to it is a change to what
#: queries return; it must be deliberate and explained.
GOLDEN_SHA256 = (
    "10d4f9f03239c5a3a1f4f3980176cd913cef2d83e4d85dc3c00fb0e341d36a3a"
)

_SCRUB_ENV = (
    FAULT_ENV_SEED, FAULT_ENV_RATE, FAULT_ENV_LOSS_RATE,
    FAULT_ENV_BITFLIP_RATE, FAULT_ENV_STRAGGLER_RATE,
    ON_PARTITION_FAILURE_ENV, EARLY_STOP_ENV,
)

_PINNED_FIELDS = (
    "variant", "k", "best_od", "group_ids", "path_len", "gn_size",
    "n_selected_nodes", "partitions_loaded", "data_bytes",
    "records_examined", "expanded_within_partition", "sim_seconds",
    "partitions_failed", "partitions_forgone",
)

_VARIANTS = ("knn", "adaptive", "od-smallest")


@pytest.fixture(autouse=True)
def _scrub_env(monkeypatch):
    for var in _SCRUB_ENV:
        monkeypatch.delenv(var, raising=False)


def _dataset(n=800, length=32, seed=17, first_id=0):
    rng = np.random.default_rng(seed)
    return SeriesDataset(rng.standard_normal((n, length)),
                         ids=np.arange(first_id, first_id + n))


def _config(**overrides):
    base = dict(
        word_length=8,
        n_pivots=16,
        prefix_length=4,
        capacity=64,
        sample_fraction=0.5,
        seed=5,
        n_input_partitions=4,
    )
    base.update(overrides)
    return ClimberConfig(**base)


def _queries(n=12, length=32, seed=23):
    return np.random.default_rng(seed).standard_normal((n, length))


def _floats(values) -> str:
    return ",".join(f"{float(v):.8e}" for v in values)


def _answer_line(tag: str, ids, distances, stats) -> str:
    fields = ";".join(
        f"{name}={getattr(stats, name)!r}" for name in _PINNED_FIELDS
    )
    ids_text = ",".join(str(int(i)) for i in ids)
    return f"{tag}|{ids_text}|{_floats(distances)}|{fields}"


def _progressive_lines(tag: str, updates) -> list[str]:
    lines = []
    for u in updates[:-1]:
        ids_text = ",".join(str(int(i)) for i in u.ids)
        lines.append(
            f"{tag}/step|{u.partitions_visited}/{u.partitions_planned}|"
            f"{ids_text}|{_floats([u.kth_distance])}|"
            f"{u.new_neighbors}|{u.stable_steps}"
        )
    final = updates[-1]
    lines.append(
        _answer_line(f"{tag}/final", final.ids, final.distances, final.stats)
        + f"|{final.partitions_visited}/{final.partitions_planned}"
        + f"|{final.stopped_early}|{final.partitions_forgone!r}"
    )
    return lines


def _query_lines(index, queries, tag: str, **kwargs) -> list[str]:
    lines = []
    for variant in _VARIANTS:
        for i, q in enumerate(queries):
            for k in (5, 40):
                r = index.knn(q, k, variant=variant, **kwargs)
                lines.append(_answer_line(f"{tag}/knn/{variant}/{i}/{k}",
                                          r.ids, r.distances, r.stats))
        for i, r in enumerate(index.knn_batch(queries, 10, variant=variant,
                                              **kwargs)):
            lines.append(_answer_line(f"{tag}/batch/{variant}/{i}",
                                      r.ids, r.distances, r.stats))
        for stop in ("off", "streak:1"):
            for i, q in enumerate(queries):
                updates = list(index.knn_progressive(
                    q, 10, variant=variant, early_stop=stop, **kwargs
                ))
                lines += _progressive_lines(
                    f"{tag}/progressive/{variant}/{stop}/{i}", updates
                )
            finals = index.knn_batch_progressive(
                queries, 10, variant=variant, early_stop=stop, **kwargs
            )
            for i, final in enumerate(finals):
                lines += _progressive_lines(
                    f"{tag}/batch_progressive/{variant}/{stop}/{i}", [final]
                )
    counters = index.dfs.counters
    lines.append(f"{tag}/dfs|{counters.partitions_read}|{counters.bytes_read}")
    return lines


def _golden_lines() -> list[str]:
    queries = _queries()
    lines = []
    for fmt in ("v1", "v2"):
        index = ClimberIndex.build(_dataset(), _config(partition_format=fmt))
        index.append(_dataset(n=200, seed=99, first_id=10_000))
        lines += _query_lines(index, queries, f"append/{fmt}")
    plan = FaultPlan(seed=1234, loss_rate=0.3)
    lossy = ClimberIndex.build(_dataset(), _config(
        fault_plan=plan,
        retry_policy=RetryPolicy(max_attempts=2, backoff_base_s=0.0),
    ))
    lines += _query_lines(lossy, queries, "skip",
                          on_partition_failure="skip")
    return lines


def test_query_answers_match_golden_digest():
    lines = _golden_lines()
    text = "\n".join(lines)
    # The digest only guards what the build exercises: deltas in the plan,
    # within-partition expansion, skipped partitions and early stops.
    assert ".d0" in text
    assert "expanded_within_partition=True" in text
    assert any(
        "partitions_failed=('" in line for line in lines if "skip/" in line
    )
    assert any(
        "/final|" in line and "|True|" in line for line in lines
    ), "no progressive run stopped early"
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == GOLDEN_SHA256, (
        f"query answers changed: digest {digest} over {len(lines)} lines"
    )
