"""CLIMBER-INX construction (paper Fig. 6).

The four steps, executed for real on the input dataset while declaring
paper-scale costs to the cluster simulator:

1. partition-level sampling; PAA + pivot selection + rank-sensitive
   signatures of the sample;
2. aggregation of signatures and data-driven centroid selection
   (Algorithm 2);
3. group formation (Algorithm 1), per-group trie partitioning (§IV-D) and
   FFD leaf packing (Def. 13) — yielding the index skeleton;
4. broadcast of skeleton + pivots, full-data signature conversion, and
   re-distribution of every record into its physical partition.

Phase naming matches Fig. 10(a): stages are prefixed ``build/skeleton``,
``build/convert`` and ``build/redistribute`` so the per-phase breakdown
can be read back from the simulation report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster import (
    ClusterSimulator,
    CostModel,
    SimReport,
    TaskCost,
    ops_paa,
    ops_signature,
)
from repro.core.assignment import GroupAssigner
from repro.core.centroids import compute_centroids
from repro.core.config import ClimberConfig
from repro.core.packing import first_fit_decreasing
from repro.core.parallel import (
    Executor,
    make_executor,
    record_parallel_fallback,
    split_ranges,
)
from repro.core.skeleton import (
    GroupEntry,
    IndexSkeleton,
    SkeletonWithPivots,
    cluster_key,
    partition_name,
)
from repro.core.trie import build_group_trie
from repro.exceptions import ConfigurationError
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.pivots import (
    PivotOperand,
    decay_weights,
    permutation_prefixes,
    select_random_pivots,
)
from repro.series import SeriesDataset, paa_transform
from repro.storage import PartitionFile, SimulatedDFS
from repro.storage.engine.format import encode_partition_v2_arrays

__all__ = ["BuildArtifacts", "build_index_artifacts"]


@dataclass
class BuildArtifacts:
    """Everything the builder produces; consumed by ClimberIndex."""

    skeleton: IndexSkeleton
    pivot_operand: PivotOperand
    """The pivots, prepared once for every signature computation."""
    dfs: SimulatedDFS
    assigner: GroupAssigner
    sim_report: SimReport
    wall_seconds: float
    n_records: int
    wall_phase_seconds: dict[str, float] = field(default_factory=dict)
    """Real (not simulated) wall time of the Step-4 sub-phases:
    ``convert`` (PAA + signatures + group assignment) and ``redistribute``
    (trie routing, grouping and partition writes) — the before/after axis
    of ``benchmarks/bench_index_build.py``."""

    telemetry: Telemetry = field(default_factory=lambda: NULL_TELEMETRY)
    """The telemetry the build recorded into (``build.*`` histograms and
    span timings when enabled).  ``ClimberIndex.build`` adopts it so query
    metrics land on the same registry."""

    @property
    def pivots(self) -> np.ndarray:
        return self.pivot_operand.pivots

    @property
    def phase_seconds(self) -> dict[str, float]:
        """Construction-phase breakdown (paper Fig. 10(a))."""
        return {
            "skeleton": self.sim_report.seconds_for("build/skeleton"),
            "conversion": self.sim_report.seconds_for("build/convert"),
            "redistribution": self.sim_report.seconds_for("build/redistribute"),
        }


def build_index_artifacts(
    dataset: SeriesDataset,
    config: ClimberConfig,
    dfs: SimulatedDFS | None = None,
    model: CostModel | None = None,
    redistribution: str = "flat",
    conversion: str = "fused",
    telemetry: Telemetry | None = None,
) -> BuildArtifacts:
    """Run the full four-step construction workflow.

    Parameters
    ----------
    redistribution:
        Step-4 implementation: ``"flat"`` (default) routes every record
        through the CSR-compiled :class:`~repro.core.trie_flat.FlatTrieRouter`
        in bulk and writes partitions directly from sorted arrays;
        ``"legacy"`` is the original per-record descend loop, kept as the
        parity reference and benchmark baseline.  Both produce
        byte-identical partitions and identical simulated stage costs.
    conversion:
        Step-4 signature conversion: ``"fused"`` (default) streams the
        dataset through PAA -> ``permutation_prefixes`` -> vectorised
        ``assign`` in large row blocks written into preallocated output
        arrays; ``"legacy"`` is the original per-input-chunk loop over the
        retained reference assigner (per-row WD tie-break), kept as the
        parity reference and the baseline of
        ``benchmarks/bench_conversion.py``.  Both produce bit-identical
        signatures, group indices and RNG stream positions, so the
        partitions they feed are byte-identical too.
    telemetry:
        :class:`~repro.obs.Telemetry` the build records per-stage spans
        into (``build.skeleton_s``/``convert_s``/``redistribute_s``
        histograms, per-block and per-encode task timings).  ``None``
        creates one from ``config.telemetry`` — disabled by default, so
        the build pays one flag check per stage.  Observation only: the
        produced partitions, counters and RNG stream are bit-identical
        with telemetry on or off.
    """
    import time

    if redistribution not in ("flat", "legacy"):
        raise ConfigurationError(
            f"unknown redistribution mode {redistribution!r}"
        )
    if conversion not in ("fused", "legacy"):
        raise ConfigurationError(f"unknown conversion mode {conversion!r}")
    tel = telemetry if telemetry is not None else (
        Telemetry(enabled=True, sample_every=config.telemetry_sample_every)
        if config.telemetry else NULL_TELEMETRY
    )
    t0 = time.perf_counter()
    if dataset.length < config.word_length:
        raise ConfigurationError(
            f"series length {dataset.length} < word length {config.word_length}"
        )
    dfs = dfs if dfs is not None else SimulatedDFS(
        cache_bytes=config.dfs_cache_bytes,
        partition_format=config.partition_format,
        checksums=config.partition_checksums,
        verify=config.verify_checksums,
        fault_plan=config.effective_fault_plan,
        retry_policy=config.retry_policy,
    )
    sim = ClusterSimulator(model or CostModel())
    rng = np.random.default_rng(config.seed)
    scale = config.cost_scale
    n = dataset.length
    w, r, m = config.word_length, config.n_pivots, config.prefix_length
    capacity = config.capacity or dfs.block_records(n)
    sig_ops = ops_paa(n) + ops_signature(r, w, m)

    # ------------------------------------------------------------------ Step 1
    chunks = dataset.split_into_chunks(config.n_input_partitions)
    n_sampled = max(1, round(config.sample_fraction * len(chunks)))
    sample_idx = np.sort(rng.choice(len(chunks), size=n_sampled, replace=False))
    sample_rows = np.concatenate(
        [chunks[i].values for i in sample_idx], axis=0
    )
    alpha = sample_rows.shape[0] / dataset.count
    sample_bytes = sum(chunks[i].nbytes for i in sample_idx)
    sim.run_scaled_stage(
        "build/skeleton/sample",
        TaskCost(
            read_bytes=int(sample_bytes * scale),
            cpu_ops=int(sample_rows.shape[0] * sig_ops * scale),
        ),
        min_tasks=len(sample_idx),
    )
    sample_paa = paa_transform(sample_rows, w)
    if r > sample_paa.shape[0]:
        raise ConfigurationError(
            f"sample holds {sample_paa.shape[0]} series < n_pivots {r}; "
            "increase sample_fraction or decrease n_pivots"
        )
    operand = PivotOperand(select_random_pivots(sample_paa, r, rng))
    sample_ranked = permutation_prefixes(sample_paa, operand, m)

    # ------------------------------------------------------------------ Step 2
    # Signature aggregation is pure array work: one lexicographic
    # np.unique over the sample's ranked signatures (replacing a Python
    # Counter over tuples that walked every sampled row), and a second over
    # their sorted rows for the rank-insensitive statistics.  Downstream is
    # order-insensitive: compute_centroids re-sorts by (-frequency,
    # signature) internally, and the distinct ranked rows come out in the
    # same lexicographic order the old ``sorted(counter)`` produced.
    distinct_ranked, distinct_freqs = np.unique(
        np.asarray(sample_ranked, dtype=np.int64), axis=0, return_counts=True
    )
    unranked_rows, unranked_inverse = np.unique(
        np.sort(distinct_ranked, axis=1), axis=0, return_inverse=True
    )
    unranked_freq_arr = np.zeros(unranked_rows.shape[0], dtype=np.int64)
    np.add.at(
        unranked_freq_arr,
        np.asarray(unranked_inverse).reshape(-1),
        distinct_freqs,
    )
    unranked_sigs = list(map(tuple, unranked_rows.tolist()))
    unranked_freqs = unranked_freq_arr.tolist()
    centroids = compute_centroids(
        unranked_sigs,
        unranked_freqs,
        sample_fraction=alpha,
        capacity=capacity,
        epsilon=config.epsilon,
        max_centroids=config.max_centroids,
        n_pivots=r,
    )
    # Driver-side work on the aggregated signature list: its size grows
    # with the number of *distinct* signatures, not the data volume, so it
    # is charged honestly (not multiplied by cost_scale).
    sim.run_driver_step(
        "build/skeleton/centroids",
        TaskCost(cpu_ops=len(unranked_sigs) * max(1, len(centroids)) * m),
    )

    # ------------------------------------------------------------------ Step 3
    weights = decay_weights(m, config.decay, config.decay_rate)
    assigner = GroupAssigner(centroids, r, m, weights=weights, rng=rng)
    group_of_sig = assigner.assign(distinct_ranked).group_indices

    n_groups = len(centroids) + 1
    members: list[list[tuple[tuple[int, ...], float]]] = [[] for _ in range(n_groups)]
    for row, freq, gid in zip(
        distinct_ranked.tolist(), distinct_freqs.tolist(), group_of_sig.tolist()
    ):
        members[gid].append((tuple(row), freq / alpha))

    groups: list[GroupEntry] = []
    next_pid = 0
    for gid in range(n_groups):
        sigs = [s for s, _ in members[gid]]
        counts = [c for _, c in members[gid]]
        trie = build_group_trie(sigs, counts, capacity)
        leaves = list(trie.leaves())
        bins = first_fit_decreasing(
            [(leaf.path, leaf.count) for leaf in leaves], capacity
        )
        leaf_by_path = {leaf.path: leaf for leaf in leaves}
        bin_loads: list[float] = []
        bin_pids: list[int] = []
        for bin_paths in bins:
            pid = next_pid
            next_pid += 1
            load = 0.0
            for path in bin_paths:
                leaf = leaf_by_path[path]
                leaf.partition_ids = {pid}
                load += leaf.count
            bin_loads.append(load)
            bin_pids.append(pid)
        trie.finalize_partitions()
        default_pid = bin_pids[int(np.argmin(bin_loads))]
        groups.append(
            GroupEntry(
                group_id=gid,
                centroid=() if gid == 0 else centroids[gid - 1],
                trie=trie,
                default_partition=default_pid,
                est_size=trie.count,
            )
        )
    skeleton = IndexSkeleton(
        prefix_length=m,
        n_pivots=r,
        word_length=w,
        groups=groups,
        n_partitions=next_pid,
    )
    sim.run_driver_step(
        "build/skeleton/assemble",
        TaskCost(cpu_ops=len(distinct_ranked) * m * 8),
    )
    if tel.enabled:
        tel.registry.histogram("build.skeleton_s").observe(
            time.perf_counter() - t0
        )

    # ------------------------------------------------------------------ Step 4
    broadcast_bytes = len(
        SkeletonWithPivots(skeleton, operand.pivots).to_bytes()
    )
    sim.broadcast("build/redistribute/broadcast", broadcast_bytes)

    sim.run_scaled_stage(
        "build/convert",
        TaskCost(
            read_bytes=int(dataset.nbytes * scale),
            cpu_ops=int(dataset.count * sig_ops * scale),
        ),
        min_tasks=len(chunks),
    )

    # Full-data signature conversion + group assignment.  Both modes
    # consume the RNG stream identically: tie-break draws depend only on
    # the global row order, never on how rows are blocked into assign
    # calls, so the fused path is free to use larger blocks than the
    # input chunking.  The fused/flat pipeline runs its block conversion,
    # trie compiles and partition encodes on the configured executor
    # (serial for n_workers=1 — bit-identical results either way); the
    # legacy modes are the parity baselines and always run serially.
    executor = make_executor(config.executor, config.effective_n_workers)
    try:
        t_convert = time.perf_counter()
        if conversion == "fused":
            ranked_all, gids_all = _convert_fused(
                dataset, operand, assigner, w, m, executor=executor,
                telemetry=tel,
            )
        else:
            ranked_all, gids_all = _convert_legacy(
                chunks, operand, assigner, w, m
            )
        wall_convert = time.perf_counter() - t_convert

        # Re-distribution of every record into its physical partition.
        t_redist = time.perf_counter()
        if redistribution == "flat":
            written_bytes, n_written = _redistribute_flat(
                dataset, skeleton, ranked_all, gids_all, dfs,
                executor=executor, telemetry=tel,
            )
        else:
            written_bytes, n_written = _redistribute_legacy(
                dataset, groups, ranked_all, gids_all, dfs
            )
        wall_redistribute = time.perf_counter() - t_redist
    finally:
        executor.close()
    if tel.enabled:
        tel.registry.histogram("build.convert_s").observe(wall_convert)
        tel.registry.histogram("build.redistribute_s").observe(
            wall_redistribute
        )

    sim.run_scaled_stage(
        "build/redistribute/shuffle",
        TaskCost(shuffle_bytes=int(dataset.nbytes * scale)),
        min_tasks=len(chunks),
    )
    sim.run_scaled_stage(
        "build/redistribute/write",
        TaskCost(write_bytes=int(written_bytes * scale)),
        min_tasks=n_written,
    )

    wall_seconds = time.perf_counter() - t0
    if tel.enabled:
        tel.registry.histogram("build.wall_s").observe(wall_seconds)
    return BuildArtifacts(
        skeleton=skeleton,
        pivot_operand=operand,
        dfs=dfs,
        assigner=assigner,
        sim_report=sim.fresh_report(),
        wall_seconds=wall_seconds,
        n_records=dataset.count,
        wall_phase_seconds={
            "convert": wall_convert,
            "redistribute": wall_redistribute,
        },
        telemetry=tel,
    )


def _convert_block(task):
    """One conversion block: PAA -> signatures -> deferred assignment.

    A module-level pure function of its task tuple — picklable, so it runs
    on any executor kind.  The RNG-dependent tie resolution is *not* done
    here: :meth:`GroupAssigner.assign_deferred` returns the pending draws
    and the caller resolves them serially in block order, which is what
    keeps every worker count on the exact RNG stream of a sequential
    sweep.
    """
    values, pivots, assigner, word_length, prefix_length = task
    paa = paa_transform(values, word_length)
    ranked = permutation_prefixes(paa, pivots, prefix_length)
    gids, _od_ties, pending = assigner.assign_deferred(ranked)
    return ranked, gids, pending


def _convert_fused(
    dataset: SeriesDataset,
    pivots: PivotOperand,
    assigner: GroupAssigner,
    word_length: int,
    prefix_length: int,
    executor: Executor | None = None,
    block_rows: int = 4096,
    telemetry: Telemetry = NULL_TELEMETRY,
) -> tuple[np.ndarray, np.ndarray]:
    """Streamed full-data conversion into preallocated output arrays.

    One PAA -> ``permutation_prefixes`` -> deferred-``assign`` pass per
    ``block_rows`` slice of the dataset — a block size picked so every
    intermediate (distance matrix, OD workspace, WD pairs) stays
    cache-resident: sweeps at the benchmark operating point put the
    optimum at a few thousand rows, with >2x degradation by 64k rows once
    the ``(d, k)`` matrices spill.

    The blocks are independent tasks on ``executor`` (serial when omitted).
    Blocking is fixed by ``block_rows`` — never by the worker count — and
    the RNG tail (:meth:`GroupAssigner.resolve_ties`) runs on this thread
    in block order after the map, so signatures, group indices and the RNG
    stream are bit-identical for every worker count, and to the pre-split
    per-block ``assign`` loop this replaced.
    """
    n = dataset.count
    ranked_all = np.empty((n, prefix_length), dtype=np.int32)
    gids_all = np.empty(n, dtype=np.int64)
    spans = split_ranges(n, block_rows)
    tasks = [
        (dataset.values[start:end], pivots, assigner, word_length,
         prefix_length)
        for start, end in spans
    ]
    # Per-block task timing (build.convert.block_s + per-worker counters)
    # only on shared-memory executors: the wrapper closes over registry
    # locks and must not cross a pickle boundary into a process pool.
    block_fn = _convert_block
    if executor is None or executor.shares_memory:
        block_fn = telemetry.wrap_tasks("build.convert.block", _convert_block)
    if executor is None:
        results = map(block_fn, tasks)
    else:
        results = executor.map(block_fn, tasks)
    for (start, end), (ranked, gids, pending) in zip(spans, results):
        ranked_all[start:end] = ranked
        block = gids_all[start:end]
        block[...] = gids
        assigner.resolve_ties(block, pending)
    return ranked_all, gids_all


def _convert_legacy(
    chunks,
    pivots: PivotOperand,
    assigner: GroupAssigner,
    word_length: int,
    prefix_length: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The retained per-input-chunk conversion loop (parity reference).

    One pass per input chunk through the reference assigner (per-row WD
    tie-break), accumulating per-chunk arrays that are concatenated at the
    end — the seed implementation, kept as the conversion baseline.
    """
    ranked_parts: list[np.ndarray] = []
    gid_parts: list[np.ndarray] = []
    for chunk in chunks:
        paa = paa_transform(chunk.values, word_length)
        ranked = permutation_prefixes(paa, pivots, prefix_length)
        ranked_parts.append(ranked)
        gid_parts.append(assigner.assign_reference(ranked).group_indices)
    ranked_all = (
        ranked_parts[0] if len(ranked_parts) == 1
        else np.concatenate(ranked_parts, axis=0)
    )
    gids_all = (
        gid_parts[0] if len(gid_parts) == 1 else np.concatenate(gid_parts)
    )
    return ranked_all, gids_all


def _redistribute_flat(
    dataset: SeriesDataset,
    skeleton: IndexSkeleton,
    ranked_all: np.ndarray,
    gids_all: np.ndarray,
    dfs: SimulatedDFS,
    executor: Executor | None = None,
    telemetry: Telemetry = NULL_TELEMETRY,
) -> tuple[int, int]:
    """Bulk Step-4 redistribution over the CSR-compiled tries.

    One :meth:`FlatTrieRouter.route` resolves every record's cluster in
    ``prefix_length`` ``searchsorted`` sweeps over the fused trie, one
    stable argsort over the precomputed ``(partition, cluster key)`` ranks
    groups the records into the exact layout
    :meth:`PartitionFile.from_clusters` would build, and each partition is
    gathered straight from the dataset arrays into its format-v2 payload
    buffer — no per-record Python, no intermediate v1 partition objects,
    no sorted copy of the dataset.

    With any pooled ``executor``, the per-partition payload encodes fan
    out (pure functions of the record arrays); stores and their counters
    run on this thread in partition order, so the stored bytes and every
    counter are identical to the serial path.  Shared-memory pools encode
    through the live engine handle zero-copy; process pools receive a
    plain-data, picklable spec per partition — the records pre-gathered
    into fresh arrays plus the format/checksum flags — and encode through
    the module-level :func:`_encode_partition_task` (the PR-6 "engine
    handles aren't picklable" serial fallback is gone).  The per-group
    trie compiles still need the caller's address space, so process pools
    compile serially; the only remaining encode fallback is the v1
    in-memory object store (live ``PartitionFile`` objects, nothing to
    encode), which stays *visible*: a RuntimeWarning plus the
    process-lifetime ``parallel.fallbacks`` counter.
    """
    pooled = executor is not None and executor.n_workers > 1
    shared = pooled and executor.shares_memory
    with telemetry.trace("build.redistribute.compile"):
        router = skeleton.flat_router(executor=executor if shared else None)
    with telemetry.trace("build.redistribute.route"):
        kid_of = router.route(ranked_all, gids_all)
        order, parts = router.partition_layout(kid_of)
    written_bytes = 0
    if pooled and not dfs.stores_encoded:
        record_parallel_fallback(
            "v1 in-memory object store holds live PartitionFile objects "
            "(no encoded payloads to fan out); writing serially"
        )
    with telemetry.trace("build.redistribute.write"):
        if pooled and dfs.stores_encoded:
            engine = dfs.engine
            series_length = int(dataset.values.shape[1])
            if shared:
                # Zero-copy encode task: workers share the caller's
                # address space, so each task gathers its rows straight
                # from the dataset arrays through the live engine handle.
                def encode(item):
                    pid, start, end, header = item
                    return engine.encode_arrays(
                        partition_name(pid), dataset.ids, dataset.values,
                        header, rows=order[start:end],
                    )

                # Per-task telemetry only on shared-memory pools: the
                # wrapper closes over registry locks and must not cross a
                # pickle boundary.
                payloads = executor.map(
                    telemetry.wrap_tasks("build.redistribute.encode",
                                         encode),
                    parts,
                )
            else:
                specs = [
                    (partition_name(pid),
                     dataset.ids[order[start:end]],
                     dataset.values[order[start:end]],
                     header, engine.partition_format, engine.checksums)
                    for pid, start, end, header in parts
                ]
                payloads = executor.map(_encode_partition_task, specs)
            for (pid, start, end, header), payload in zip(parts, payloads):
                written_bytes += dfs.write_encoded_partition(
                    partition_name(pid), payload,
                    record_count=end - start,
                    series_length=series_length,
                    header=header,
                )
        else:
            for pid, start, end, header in parts:
                written_bytes += dfs.write_partition_arrays(
                    partition_name(pid),
                    dataset.ids,
                    dataset.values,
                    header,
                    rows=order[start:end],
                )
    return written_bytes, len(parts)


def _encode_partition_task(spec):
    """Encode one partition payload from a plain-data spec.

    A module-level pure function of picklable inputs — the process-pool
    counterpart of the shared-memory encode closure above.  The spec
    carries the partition's records as freshly-gathered arrays plus the
    format/checksum flags, so no live engine or DFS handle crosses the
    pickle boundary, and the returned bytes are identical to
    :meth:`StorageEngine.encode_arrays` over the same records.
    """
    pid, ids, values, header, fmt, checksums = spec
    if fmt == "v2":
        return encode_partition_v2_arrays(pid, ids, values, header,
                                          checksums=checksums)
    return PartitionFile.from_arrays(pid, ids, values, header).to_bytes()


def _redistribute_legacy(
    dataset: SeriesDataset,
    groups: list[GroupEntry],
    ranked_all: np.ndarray,
    gids_all: np.ndarray,
    dfs: SimulatedDFS,
) -> tuple[int, int]:
    """The seed per-record redistribution loop (parity reference/baseline)."""
    clusters: dict[int, dict[str, list[int]]] = {}
    for row in range(ranked_all.shape[0]):
        gid = int(gids_all[row])
        entry = groups[gid]
        node = entry.trie.descend(ranked_all[row])
        if node.is_leaf:
            pid = next(iter(node.partition_ids))
            key = cluster_key(gid, node.path)
        else:
            pid = entry.default_partition
            key = cluster_key(gid, None)
        clusters.setdefault(pid, {}).setdefault(key, []).append(row)

    written_bytes = 0
    for pid in sorted(clusters):
        mapping = {
            key: (dataset.ids[rows], dataset.values[rows])
            for key, rows in clusters[pid].items()
            for rows in [np.asarray(rows, dtype=np.int64)]
        }
        part = PartitionFile.from_clusters(partition_name(pid), mapping)
        dfs.write_partition(part)
        written_bytes += part.nbytes
    return written_bytes, len(clusters)
