"""The CLIMBER index and its query algorithms (Section VI).

:class:`ClimberIndex` is the public entry point of this library: build it
over a :class:`~repro.series.SeriesDataset` and issue approximate kNN
queries with any of the paper's three variants:

* ``variant="knn"`` — CLIMBER-kNN (Algorithm 3): route to the single best
  trie node, search its partition(s), expand within the same partition if
  the node holds fewer than k records.
* ``variant="adaptive"`` — CLIMBER-kNN-Adaptive: when the best node is
  smaller than k, expand over the memorised runner-up trie nodes across
  the best-matching groups, capped at ``adaptive_factor`` times the
  partitions CLIMBER-kNN would touch (2X and 4X in the paper).
* ``variant="od-smallest"`` — the OD-Smallest comparator of §VII-C: scan
  every partition of every group tied at the smallest Overlap Distance.

Query pipeline
--------------
A query flows through four stages:

1. **Signature** — PAA transform + pivot permutation prefix
   (:meth:`ClimberIndex.query_signature`); batched over all rows of a
   :meth:`ClimberIndex.knn_batch` call.
2. **Routing** — OD/WD against every group centroid via the vectorised
   :class:`~repro.core.routing.RoutingTable` (built once per index,
   rebuilt by :meth:`ClimberIndex.reopen`); one ``(q, groups)`` matrix
   serves a whole batch.
3. **Node selection** — the per-variant trie-node expansion.
4. **Record scan** — partition loads (served from the DFS read cache
   when enabled) and a brute-force refinement over the candidate records.

Simulated cost accounting charges *logical* partition touches, so the
paper's access-volume metrics are independent of any caching.
"""

from __future__ import annotations

import dataclasses
import time
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.cluster import (
    ClusterSimulator,
    CostModel,
    SimReport,
    TaskCost,
    ops_euclidean,
    ops_paa,
    ops_signature,
)
from repro.core.assignment import GroupAssigner
from repro.core.builder import BuildArtifacts, build_index_artifacts
from repro.core.config import ClimberConfig
from repro.core.parallel import SerialExecutor, make_executor, split_ranges
from repro.core.progressive import (
    ProgressiveCalibration,
    ProgressiveUpdate,
    StopRule,
    resolve_stop_rule,
)
from repro.core.routing import GroupCandidate, RoutingTable
from repro.core.routing import select_primary as _select_primary
from repro.core.skeleton import (
    GroupEntry,
    SkeletonWithPivots,
    partition_name,
)
from repro.core.trie import TrieNode
from repro.exceptions import (
    ConfigurationError,
    PartitionNotFoundError,
    StorageError,
)
from repro.obs import (
    NULL_TELEMETRY,
    OBS_SCHEMA,
    QueryProbe,
    Telemetry,
    global_registry,
)
from repro.pivots import (
    PivotOperand,
    decay_weights,
    permutation_prefixes,
    wd_tie_tolerance,
)
from repro.series import (
    SeriesDataset,
    knn_bruteforce,
    knn_merge,
    paa_transform,
    series_nbytes,
)

__all__ = [
    "ClimberIndex",
    "ProgressiveUpdate",
    "QueryResult",
    "QueryStats",
    "GroupCandidate",
]

_QUERY_SHARD_ROWS = 8
"""Rows per ``knn_batch`` shard.  Fixed by row count — never by worker
count — so the task list (and with it every deterministic per-shard
result) is identical for any ``n_workers``; 8 rows amortise task overhead
while a typical benchmark batch still yields enough shards to fill a
pool."""


@dataclass(frozen=True)
class QueryStats:
    """Diagnostics of one kNN query (metrics of Figs. 7, 9, 11, 12)."""

    variant: str
    k: int
    best_od: int
    group_ids: tuple[int, ...]
    path_len: int
    gn_size: float
    n_selected_nodes: int
    partitions_loaded: tuple[str, ...]
    data_bytes: int
    records_examined: int
    expanded_within_partition: bool
    sim_seconds: float
    wall_seconds: float
    partitions_failed: tuple[str, ...] = ()
    """Partitions the query *wanted* but could not read — non-empty only
    under ``on_partition_failure="skip"`` with live storage faults."""
    partitions_forgone: tuple[str, ...] = ()
    """Planned partitions a *progressive* query deliberately never visited
    because its early-stopping rule fired (always empty for ``knn``/
    ``knn_batch`` and for progressive runs that reached full coverage)."""

    @property
    def n_partitions(self) -> int:
        return len(self.partitions_loaded)

    @property
    def degraded(self) -> bool:
        """True when the answer was computed without some partitions."""
        return bool(self.partitions_failed)

    @property
    def coverage(self) -> float:
        """Fraction of wanted partitions actually read (1.0 = complete).

        A query that wanted nothing (its routed plan resolved to zero
        physical partitions — possible for an empty index or when every
        planned partition was never materialised) is complete by
        definition: coverage is 1.0, never a zero-denominator error.
        Forgone partitions (early stopping) do not count against
        coverage — they were skipped by choice, not lost; see
        :attr:`visit_coverage` for the dial that includes them.
        """
        total = len(self.partitions_loaded) + len(self.partitions_failed)
        if total == 0:
            return 1.0
        return len(self.partitions_loaded) / total

    @property
    def visit_coverage(self) -> float:
        """Fraction of the *planned* partitions actually visited.

        Counts early-stop forgone partitions against the denominator, so
        a progressive answer served at 40% of its plan reports 0.4 here
        while :attr:`coverage` (failures only) may still be 1.0.  Defined
        as 1.0 when the plan was empty.
        """
        total = (
            len(self.partitions_loaded)
            + len(self.partitions_failed)
            + len(self.partitions_forgone)
        )
        if total == 0:
            return 1.0
        return (
            len(self.partitions_loaded) + len(self.partitions_failed)
        ) / total


@dataclass(frozen=True)
class QueryResult:
    """Approximate kNN answer set plus query diagnostics."""

    ids: np.ndarray
    distances: np.ndarray
    stats: QueryStats


class ClimberIndex:
    """A built CLIMBER index over one data series dataset."""

    def __init__(self, artifacts: BuildArtifacts, config: ClimberConfig,
                 model: CostModel, telemetry: Telemetry | None = None) -> None:
        self._art = artifacts
        self.config = config
        self.model = model
        self._rng = np.random.default_rng(config.seed + 1)
        self._weights = decay_weights(
            config.prefix_length, config.decay, config.decay_rate
        )
        self._routing = RoutingTable(artifacts.skeleton, self._weights)
        #: Offline-calibrated early-stopping curve (progressive queries).
        #: ``None`` until :meth:`attach_calibration` loads one; confidence
        #: mode then falls back to the conservative built-in prior.
        self.calibration: ProgressiveCalibration | None = None
        # Telemetry resolution: an explicit argument wins; else adopt the
        # build's telemetry (so build.* and query.* metrics share one
        # registry); else create one per index from config.telemetry —
        # never the shared NULL_TELEMETRY singleton, so stats()/
        # reset_stats() always scope to this index.
        if telemetry is not None:
            self._tel = telemetry
        elif artifacts.telemetry is not NULL_TELEMETRY:
            self._tel = artifacts.telemetry
        else:
            self._tel = Telemetry(
                enabled=config.telemetry,
                sample_every=config.telemetry_sample_every,
            )

    @property
    def telemetry(self) -> Telemetry:
        """This index's telemetry (latency recording honours ``.enabled``)."""
        return self._tel

    @telemetry.setter
    def telemetry(self, telemetry: Telemetry) -> None:
        self._tel = telemetry

    # -- construction -------------------------------------------------------------

    @classmethod
    def build(
        cls,
        dataset: SeriesDataset,
        config: ClimberConfig | None = None,
        dfs=None,
        model: CostModel | None = None,
        conversion: str = "fused",
        telemetry: Telemetry | None = None,
    ) -> "ClimberIndex":
        """Build the index (paper Fig. 6); see :class:`ClimberConfig`.

        ``conversion`` selects the Step-4 signature-conversion pipeline
        (``"fused"`` streamed blocks / ``"legacy"`` per-chunk reference);
        both yield bit-identical indexes — see
        :func:`~repro.core.builder.build_index_artifacts`.  ``telemetry``
        overrides the :class:`~repro.obs.Telemetry` the build and the
        returned index record into (default: created from
        ``config.telemetry``).
        """
        config = config or ClimberConfig()
        model = model or CostModel()
        artifacts = build_index_artifacts(
            dataset, config, dfs=dfs, model=model, conversion=conversion,
            telemetry=telemetry,
        )
        return cls(artifacts, config, model)

    # -- incremental maintenance ------------------------------------------------

    def _delta_names(self, base_name: str) -> list[str]:
        """Delta partitions of ``base_name``, discovered by naming convention.

        Appends write ``<base>.d0``, ``<base>.d1``, ... so no registry has
        to be persisted: a reopened index finds deltas by listing the DFS.
        A DFS exposing ``delta_partitions`` (the :class:`SimulatedDFS`
        registry cache) answers from its index instead of rescanning the
        full partition list on every query.
        """
        delta_partitions = getattr(self.dfs, "delta_partitions", None)
        if delta_partitions is not None:
            return delta_partitions(base_name)
        prefix = f"{base_name}.d"
        return [p for p in self.dfs.list_partitions() if p.startswith(prefix)]

    def append(self, dataset: SeriesDataset) -> dict[str, object]:
        """Route new records into the existing index (incremental append).

        The paper motivates CLIMBER with sources that generate series
        continuously (ECG devices, weblogs); this routes a new batch
        through the *frozen* skeleton — same pivots, same groups, same
        tries — into fresh *delta* partition files next to the originals.
        Queries transparently read base + delta partitions, and the
        convention-based delta naming survives :meth:`reopen`.

        The skeleton is not rebalanced: like the paper's unseen-signature
        handling, records that cannot complete a root-to-leaf walk land in
        their group's default partition.  Periodic full rebuilds remain the
        answer to heavy drift.

        Returns a summary dict (records appended, partitions written,
        simulated seconds).
        """
        existing = self.dfs.list_partitions()
        if existing:
            # Header metadata when the DFS maintains it (no payload read,
            # no logical read charge for a mere length check).
            series_length = getattr(self.dfs, "series_length", None)
            if series_length is not None:
                base_length = series_length(existing[0])
            else:
                base_length = self.dfs.read_partition(existing[0]).series_length
            if dataset.length != base_length:
                raise ConfigurationError(
                    f"appended series length {dataset.length} != indexed "
                    f"length {base_length}"
                )
        cfg = self.config
        sim = ClusterSimulator(self.model)
        scale = cfg.cost_scale
        paa = paa_transform(dataset.values, cfg.word_length)
        ranked = permutation_prefixes(
            paa, self._art.pivot_operand, cfg.prefix_length
        )
        gids = self._art.assigner.assign(ranked).group_indices

        # Batch route through the frozen skeleton's CSR-compiled tries —
        # the same bulk pipeline construction Step 4 uses: one descend
        # sweep per group present in the batch, one stable lexsort into
        # final cluster layout, partitions written straight from array
        # slices.  Records whose walk stalls (or reaches an unpacked leaf)
        # land in their group's default partition, as before.
        router = self._art.skeleton.flat_router()
        kid_of = router.route(ranked, gids)
        order, parts = router.partition_layout(kid_of)

        written = []
        written_bytes = 0
        for pid, start, end, header in parts:
            base = partition_name(pid)
            seq = len(self._delta_names(base))
            delta_id = f"{base}.d{seq}"
            written_bytes += self.dfs.write_partition_arrays(
                delta_id, dataset.ids, dataset.values, header,
                rows=order[start:end],
            )
            written.append(delta_id)

        sig_ops = ops_paa(dataset.length) + ops_signature(
            cfg.n_pivots, cfg.word_length, cfg.prefix_length
        )
        sim.run_scaled_stage(
            "append/convert",
            TaskCost(
                read_bytes=int(dataset.nbytes * scale),
                cpu_ops=int(dataset.count * sig_ops * scale),
            ),
        )
        sim.run_scaled_stage(
            "append/write",
            TaskCost(
                shuffle_bytes=int(dataset.nbytes * scale),
                write_bytes=int(written_bytes * scale),
            ),
        )
        self._art.n_records += dataset.count
        report = sim.fresh_report()
        return {
            "records_appended": dataset.count,
            "delta_partitions": written,
            "sim_seconds": report.total_seconds,
        }

    # -- persistence ---------------------------------------------------------------

    def save_global_index(self) -> bytes:
        """Serialise the broadcastable structure (skeleton + pivots).

        Together with the DFS partitions this is the index's full
        persistent state — exactly what the paper's driver broadcasts in
        construction Step 4.
        """
        return SkeletonWithPivots(self._art.skeleton, self._art.pivots).to_bytes()

    @classmethod
    def reopen(
        cls,
        global_index: bytes,
        dfs,
        config: ClimberConfig,
        model: CostModel | None = None,
    ) -> "ClimberIndex":
        """Reconstruct a queryable index from persisted state.

        O(partitions), not O(bytes): record counts come from the DFS
        partition-header metadata when available, so no payload is read.
        The routing table is rebuilt by the constructor.

        Parameters
        ----------
        global_index:
            Bytes from :meth:`save_global_index`.
        dfs:
            The storage holding the data partitions written at build time.
        config:
            The configuration the index was built with (routing depends on
            word length, prefix length, and decay settings).
        """
        model = model or CostModel()
        loaded = SkeletonWithPivots.from_bytes(global_index)
        skeleton = loaded.skeleton
        if skeleton.prefix_length != config.prefix_length:
            raise ConfigurationError(
                "persisted skeleton prefix length does not match the config"
            )
        assigner = GroupAssigner(
            skeleton.centroids,
            skeleton.n_pivots,
            skeleton.prefix_length,
            weights=decay_weights(config.prefix_length, config.decay,
                                  config.decay_rate),
            rng=np.random.default_rng(config.seed),
        )
        record_count = getattr(dfs, "record_count", None)
        if record_count is not None:
            n_records = sum(record_count(p) for p in dfs.list_partitions())
        else:
            n_records = sum(
                dfs.read_partition(p).record_count for p in dfs.list_partitions()
            )
        artifacts = BuildArtifacts(
            skeleton=skeleton,
            pivot_operand=PivotOperand(loaded.pivots),
            dfs=dfs,
            assigner=assigner,
            sim_report=SimReport(),
            wall_seconds=0.0,
            n_records=n_records,
        )
        return cls(artifacts, config, model)

    # -- introspection ---------------------------------------------------------------

    @property
    def skeleton(self):
        return self._art.skeleton

    @property
    def pivots(self) -> np.ndarray:
        return self._art.pivots

    @property
    def dfs(self):
        return self._art.dfs

    @property
    def routing(self) -> RoutingTable:
        """The vectorised routing engine (centroid bitsets + weights)."""
        return self._routing

    @property
    def n_groups(self) -> int:
        return len(self._art.skeleton.groups)

    @property
    def n_partitions(self) -> int:
        return self._art.skeleton.n_partitions

    @property
    def n_records(self) -> int:
        return self._art.n_records

    @property
    def global_index_nbytes(self) -> int:
        """Size of the broadcast structure (skeleton + pivots), Fig. 8(b)."""
        return self._art.skeleton.nbytes + self._art.pivots.nbytes

    @property
    def build_sim_seconds(self) -> float:
        """Simulated index construction time (Fig. 8(a),(c))."""
        return self._art.sim_report.total_seconds

    @property
    def build_phase_seconds(self) -> dict[str, float]:
        """Construction breakdown: skeleton/conversion/redistribution (Fig. 10(a))."""
        return self._art.phase_seconds

    @property
    def build_wall_seconds(self) -> float:
        return self._art.wall_seconds

    def describe(self) -> dict[str, object]:
        """Structural summary of the index (for logging and examples).

        Returns group count, partition statistics, trie-node totals, and
        the serialised global-index size.  Partition record counts come
        from DFS metadata when available, so no payloads are read.
        """
        skeleton = self._art.skeleton
        record_count = getattr(self.dfs, "record_count", None)
        if record_count is not None:
            partition_records = [
                record_count(p) for p in self.dfs.list_partitions()
            ]
        else:
            partition_records = [
                self.dfs.read_partition(p).record_count
                for p in self.dfs.list_partitions()
            ]
        group_sizes = sorted(
            (g.est_size for g in skeleton.groups), reverse=True
        )
        return {
            "records": self.n_records,
            "groups": self.n_groups,
            "partitions": self.n_partitions,
            "partitions_written": len(partition_records),
            "trie_nodes": skeleton.total_trie_nodes(),
            "global_index_bytes": self.global_index_nbytes,
            "largest_group_est": group_sizes[0] if group_sizes else 0.0,
            "mean_partition_records": (
                float(np.mean(partition_records)) if partition_records else 0.0
            ),
            "max_partition_records": (
                int(max(partition_records)) if partition_records else 0
            ),
        }

    # -- query pipeline ---------------------------------------------------------------

    def query_signature(self, query: np.ndarray) -> np.ndarray:
        """Rank-sensitive signature of a query series (Algorithm 3 L2-4)."""
        q = np.asarray(query, dtype=np.float64).reshape(1, -1)
        paa = paa_transform(q, self.config.word_length)
        return permutation_prefixes(
            paa, self._art.pivot_operand, self.config.prefix_length
        )[0]

    def group_candidates(
        self, ranked_sig: np.ndarray, od_slack: int = 0
    ) -> list[GroupCandidate]:
        """Groups at (or near) the smallest OD, ordered by (OD, WD, id).

        Implements Algorithm 3 lines 5-9 plus the bookkeeping the adaptive
        variant memorises: §VI allows memorising "all groups having the
        same smallest OD distance *or having a distance less than a certain
        threshold*" — ``od_slack`` is that threshold above the minimum.
        Falls back to group G0 when nothing overlaps.  OD/WD against all
        centroids come from the vectorised :class:`RoutingTable`.
        """
        od = self._routing.od_matrix(
            np.asarray(ranked_sig, dtype=np.int64).reshape(1, -1)
        )
        return self._routing.candidates(ranked_sig, od[0], od_slack=od_slack)

    def select_primary(self, candidates: list[GroupCandidate]) -> GroupCandidate:
        """Tie-breaking of Algorithm 3 lines 7-19: WD, path length, node size.

        Only groups at the strictly smallest OD compete for primary; any
        slack candidates exist purely for adaptive expansion.
        """
        return _select_primary(
            candidates, self._rng,
            wd_tol=wd_tie_tolerance(self._routing.total_weight),
        )

    # -- node selection per variant ----------------------------------------------------

    def _expand_adaptive(
        self,
        primary: GroupCandidate,
        candidates: list[GroupCandidate],
        k: int,
        factor: int,
    ) -> list[tuple[GroupEntry, TrieNode]]:
        """CLIMBER-kNN-Adaptive node expansion.

        Starting from the primary GN, add memorised runner-up nodes (other
        best-OD groups' GNs first, then ancestors, deepest first) until the
        estimated record count covers k, keeping the partition budget at
        ``factor`` times CLIMBER-kNN's partition count.  The estimate
        alone does not stop the expansion while the planned partitions
        store fewer than ``min(k, n)`` records (DFS metadata).
        """
        budget = factor * max(1, len(primary.gn.partition_ids))
        selected: list[tuple[GroupEntry, TrieNode]] = [(primary.entry, primary.gn)]
        selected_pids = set(
            (primary.entry.group_id, pid) for pid in primary.gn.partition_ids
        )
        total = primary.gn.count

        pool: list[tuple[int, float, int, GroupCandidate, TrieNode]] = []
        for cand in candidates:
            for node in reversed(cand.path):
                pool.append((cand.od, cand.wd, -node.depth, cand, node))
        pool.sort(key=lambda item: (item[0], item[1], item[2], item[3].entry.group_id))

        # The counts are sample estimates: a plan whose partitions really
        # store fewer than min(k, n) records would come up short, so such
        # a plan keeps widening, in the same order and within the budget.
        want = min(k, self.n_records)
        for _, _, _, cand, node in pool:
            if total >= k and self._reachable_records(selected) >= want:
                break
            if self._covered(selected, cand.entry, node):
                continue
            new_pids = selected_pids | {
                (cand.entry.group_id, pid) for pid in node.partition_ids
            }
            if len(new_pids) > budget:
                continue
            added = node.count - sum(
                n.count
                for e, n in selected
                if e.group_id == cand.entry.group_id
                and n.path[: node.depth] == node.path
            )
            selected = [
                (e, n)
                for e, n in selected
                if not (
                    e.group_id == cand.entry.group_id
                    and n.path[: node.depth] == node.path
                )
            ]
            selected.append((cand.entry, node))
            selected_pids = new_pids
            total += max(0.0, added)
        return selected

    def _reachable_records(
        self, selected: list[tuple[GroupEntry, TrieNode]]
    ) -> int:
        """Stored records in the partitions a plan of ``selected`` reads.

        The within-partition expansion can reach every record of those
        partitions (deltas included), so this bounds the answer size.
        Counted from DFS metadata; no payload is read.
        """
        names: set[str] = set()
        for entry, node in selected:
            names.update(partition_name(pid) for pid in node.partition_ids)
            if not node.is_leaf or node.depth == 0:
                names.add(partition_name(entry.default_partition))
        dfs = self.dfs
        total = 0
        for name in names:
            if dfs.has_partition(name):
                total += dfs.record_count(name)
            total += sum(dfs.record_count(d) for d in self._delta_names(name))
        return total

    @staticmethod
    def _covered(
        selected: list[tuple[GroupEntry, TrieNode]],
        entry: GroupEntry,
        node: TrieNode,
    ) -> bool:
        """True if ``node`` lies inside an already-selected subtree."""
        for e, n in selected:
            if e.group_id == entry.group_id and node.path[: n.depth] == n.path:
                return True
        return False

    def _select_nodes(
        self,
        variant: str,
        primary: GroupCandidate,
        candidates: list[GroupCandidate],
        k: int,
        adaptive_factor: int | None,
    ) -> list[tuple[GroupEntry, TrieNode]]:
        """Stage 3: the per-variant trie-node selection.

        Shared by :meth:`knn` and :meth:`knn_progressive` so both paths
        plan from exactly the same node set (the progressive parity
        oracle depends on it).
        """
        if variant == "od-smallest":
            return [(c.entry, c.entry.trie) for c in candidates]
        if variant == "adaptive":
            factor = adaptive_factor or self.config.adaptive_factor
            selected = [(primary.entry, primary.gn)]
            if (primary.gn.count >= k and self._reachable_records(selected)
                    >= min(k, self.n_records)):
                return selected
            return self._expand_adaptive(primary, candidates, k, factor)
        return [(primary.entry, primary.gn)]

    def _plan_partition_reads(
        self, selected: list[tuple[GroupEntry, TrieNode]]
    ) -> dict[str, list[str]]:
        """Partitions covering the selected nodes, with their target keys.

        One batch ``covering_partitions`` call per involved group resolves
        every selected subtree's partition set from the flat leaf tables.
        Returns ``{base partition name: [cluster keys wanted]}``; readers
        iterate it in sorted order — that iteration order *is* the routed
        plan a progressive query streams through.
        """
        flat_tries = self._routing.flat.tries
        by_group: dict[int, list[TrieNode]] = {}
        for entry, node in selected:
            by_group.setdefault(entry.group_id, []).append(node)
        covering: dict[tuple[int, int], np.ndarray] = {}
        for gid, group_nodes in by_group.items():
            ft = flat_tries[gid]
            nids = [ft.id_of(n) for n in group_nodes]
            for node, pids in zip(group_nodes, ft.covering_partitions(nids)):
                covering[(gid, id(node))] = pids
        to_load: dict[str, list[str]] = {}
        for entry, node in selected:
            pids = set(
                int(p) for p in covering[(entry.group_id, id(node))]
            )
            if not node.is_leaf or node.depth == 0:
                pids.add(entry.default_partition)
            keys = self._target_keys(entry, node)
            for pid in sorted(pids):
                to_load.setdefault(partition_name(pid), []).extend(keys)
        return to_load

    # -- record-level search ------------------------------------------------------------

    def _target_keys(self, entry: GroupEntry, node: TrieNode) -> list[str]:
        """Header keys of the record clusters under a selected trie node.

        An *internal* selection also covers the group's default cluster:
        records whose signatures could not complete a root-to-leaf walk
        stalled at some internal node — exactly like the query that
        selected this node did — so they are candidates too.

        Served from the flat trie's pre-rendered key table: a subtree's
        leaves are one slice of the pre-order leaf array, so no tree walk
        or string formatting happens per query.
        """
        ft = self._routing.flat.tries[entry.group_id]
        keys = list(ft.subtree_keys(ft.id_of(node)))
        if not node.is_leaf or node.depth == 0:
            keys.append(ft.default_key)
        return keys

    def _partition_scan_cost(self, part, nbytes: int) -> TaskCost:
        """Declared cost of loading + ED-scanning one partition at paper scale.

        ``nbytes`` is the partition's logical size as the DFS registered
        it.  With ``sim_partition_bytes`` set, a touched partition is one
        storage block (the paper's query granularity); otherwise the
        scaled bytes are multiplied by ``cost_scale``.
        """
        cfg = self.config
        if cfg.sim_partition_bytes is not None:
            block_records = max(
                1, cfg.sim_partition_bytes // series_nbytes(part.series_length)
            )
            return TaskCost(
                read_bytes=cfg.sim_partition_bytes,
                cpu_ops=block_records * ops_euclidean(part.series_length),
            )
        return TaskCost(
            read_bytes=int(nbytes * cfg.cost_scale),
            cpu_ops=int(
                part.record_count * ops_euclidean(part.series_length) * cfg.cost_scale
            ),
        )

    @staticmethod
    def _validate_query_args(k: int, variant: str) -> None:
        if k < 1:
            raise ConfigurationError("k must be >= 1")
        if variant not in ("knn", "adaptive", "od-smallest"):
            raise ConfigurationError(f"unknown variant {variant!r}")

    def _resolve_on_failure(self, on_partition_failure: str | None) -> str:
        """Degraded-query mode: explicit argument → config → ``"raise"``."""
        if on_partition_failure is None:
            return self.config.effective_on_partition_failure
        if on_partition_failure not in ("raise", "skip"):
            raise ConfigurationError(
                f"on_partition_failure must be 'raise' or 'skip', "
                f"got {on_partition_failure!r}"
            )
        return on_partition_failure

    def knn(
        self,
        query: np.ndarray,
        k: int,
        variant: str = "adaptive",
        adaptive_factor: int | None = None,
        on_partition_failure: str | None = None,
        _probe: QueryProbe | None = None,
    ) -> QueryResult:
        """Approximate kNN query (Def. 4).

        Parameters
        ----------
        query:
            A raw series of the indexed length (z-normalised like the data).
        k:
            Number of neighbours.
        variant:
            ``"knn"``, ``"adaptive"`` or ``"od-smallest"`` (see module doc).
        adaptive_factor:
            Partition-budget multiplier override (2 for -2X, 4 for -4X);
            defaults to ``config.adaptive_factor``.
        on_partition_failure:
            ``"raise"`` (default) propagates storage failures; ``"skip"``
            drops unreadable partitions from the candidate set and answers
            from the remainder, recording them in
            ``stats.partitions_failed`` (``stats.degraded`` /
            ``stats.coverage``).  ``None`` defers to
            ``config.effective_on_partition_failure``.  A partition the
            index references but the store has never held
            (:class:`~repro.exceptions.PartitionNotFoundError`) always
            raises — that is index/store inconsistency, not a fault.
        """
        self._validate_query_args(k, variant)
        on_failure = self._resolve_on_failure(on_partition_failure)
        probe = _probe if _probe is not None else self._tel.probe()
        t0 = time.perf_counter()
        od_slack = 1 if variant == "adaptive" else 0
        if probe is None:
            ranked = self.query_signature(query)
            candidates = self.group_candidates(ranked, od_slack=od_slack)
        else:
            with probe.stage("signature"):
                ranked = self.query_signature(query)
            with probe.stage("route"):
                candidates = self.group_candidates(ranked, od_slack=od_slack)
        return self._knn_routed(
            np.asarray(query, dtype=np.float64),
            k, variant, adaptive_factor, candidates, t0,
            probe=probe,
            on_failure=on_failure,
        )

    def knn_batch(
        self,
        queries: np.ndarray,
        k: int,
        variant: str = "adaptive",
        adaptive_factor: int | None = None,
        on_partition_failure: str | None = None,
        _probes: list[QueryProbe] | None = None,
    ) -> list[QueryResult]:
        """Answer a batch of kNN queries (rows of ``queries``).

        The batch pipeline shares work across rows: one PAA transform, one
        signature computation and one OD/WD routing matrix over the
        *distinct* signatures (duplicate queries — common in periodic
        monitoring traffic — are routed once) serve the whole batch, and
        partition loads are shared through the DFS read cache when it is
        enabled.  Results and per-query stats
        (including simulated cost accounting) are identical to calling
        :meth:`knn` once per row; only ``wall_seconds`` reflects the
        shared-work split.

        With ``config.n_workers > 1`` the per-row node selection and
        record scans run as row shards on a thread pool (the index's
        object graph is shared, so a ``"process"`` executor degrades to
        threads here).  The split keeps answers bit-identical to the
        serial sweep for any worker count: the shared routing matrix is
        computed once up front; the only RNG consumer
        (:meth:`select_primary`) runs on this thread in row order before
        the fan-out; and each shard's remaining work is a pure function of
        its rows.  Logical DFS counters are exact either way (commutative
        sums under the DFS lock); only the *physical*
        ``cache_hits``/``cache_misses`` split may shift with worker
        interleaving, as any real cache's would.
        """
        self._validate_query_args(k, variant)
        on_failure = self._resolve_on_failure(on_partition_failure)
        arr = np.asarray(queries, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.shape[0] == 0:
            return []
        tel = self._tel
        # Per-row probes: explicit (explain_query) or implicit when
        # telemetry is enabled.  Under probe sampling individual entries
        # may be None (that row records only query.count); when every row
        # is sampled out the list collapses to None.  The shared
        # signature/routing work is amortised evenly across the rows'
        # live probes, mirroring the shared_share treatment of
        # wall_seconds below.
        probes = _probes
        if probes is None and tel.enabled:
            probes = [tel.probe() for _ in range(arr.shape[0])]
            if not any(probe is not None for probe in probes):
                probes = None
        if probes is not None and len(probes) != arr.shape[0]:
            raise ConfigurationError(
                f"{len(probes)} probes for {arr.shape[0]} query rows"
            )
        # Shared spans are split across *live* probes, not rows: under
        # probe sampling the sampled-out rows carry no stage breakdown,
        # and dividing by the row count would make the live probes'
        # stage sums under-report the measured span (the invariant
        # pinned in tests/test_obs.py).
        live_probes = (
            sum(1 for probe in probes if probe is not None)
            if probes is not None else 0
        )
        t0 = time.perf_counter()
        paa = paa_transform(arr, self.config.word_length)
        ranked = permutation_prefixes(
            paa, self._art.pivot_operand, self.config.prefix_length
        )
        if probes is not None:
            sig_s = time.perf_counter() - t0
            if tel.enabled:
                tel.registry.histogram("query.batch.signature_s").observe(sig_s)
            for probe in probes:
                if probe is not None:
                    probe.add_stage("signature", sig_s / live_probes)
        od_slack = 1 if variant == "adaptive" else 0
        # Identical signatures route identically, so the OD/WD matrices are
        # computed once per *distinct* signature and fanned back out.  Row
        # results are independent of batch composition, so each query sees
        # bit-identical distances with or without the deduplication.
        uniq, inverse = np.unique(ranked, axis=0, return_inverse=True)
        inverse = np.asarray(inverse).reshape(-1)
        od, wd = self._routing.distance_matrices(uniq)
        # Phase split: candidates + primary selection for every row first —
        # select_primary is the only _rng consumer, so running it serially
        # in row order pins the RNG stream to the serial sweep's — then the
        # RNG-free shard scans.
        candidates_of = []
        primaries = []
        t_route = time.perf_counter()
        for i in range(arr.shape[0]):
            row = int(inverse[i])
            candidates_of.append(
                self._routing.candidates(
                    ranked[i], od[row], wd[row], od_slack=od_slack
                )
            )
            primaries.append(self.select_primary(candidates_of[-1]))
        if probes is not None:
            route_s = time.perf_counter() - t_route
            if tel.enabled:
                tel.registry.histogram("query.batch.route_s").observe(route_s)
            for probe in probes:
                if probe is not None:
                    probe.add_stage("route", route_s / live_probes)
        # The shared signature/routing span is amortised evenly over the
        # rows so per-query wall_seconds stay comparable to knn's.
        shared_share = (time.perf_counter() - t0) / arr.shape[0]

        def run_shard(span):
            start, end = span
            return [
                self._knn_routed(
                    arr[i], k, variant, adaptive_factor, candidates_of[i],
                    time.perf_counter() - shared_share,
                    primary=primaries[i],
                    probe=probes[i] if probes is not None else None,
                    on_failure=on_failure,
                )
                for i in range(start, end)
            ]

        cfg = self.config
        if _probes is not None:
            # Explicitly probed batches (explain_query) run serially so
            # per-row DFS cache-delta attribution is exact — concurrent
            # shards would interleave hits/misses across rows.
            executor = SerialExecutor()
        else:
            executor = make_executor(cfg.executor, cfg.effective_n_workers,
                                     require_shared_memory=True)
        with executor:
            shards = executor.map(
                tel.wrap_tasks("query.shard", run_shard),
                split_ranges(arr.shape[0], _QUERY_SHARD_ROWS),
            )
        return [result for shard in shards for result in shard]

    def _knn_routed(
        self,
        query: np.ndarray,
        k: int,
        variant: str,
        adaptive_factor: int | None,
        candidates: list[GroupCandidate],
        t0: float,
        primary: GroupCandidate | None = None,
        probe: QueryProbe | None = None,
        on_failure: str = "raise",
    ) -> QueryResult:
        """Stages 3-4 of the pipeline: node selection + record scan.

        ``primary`` may be precomputed by the caller (the batch pipeline
        selects primaries for all rows serially, pinning the RNG stream,
        before fanning the RNG-free remainder out to worker shards);
        when omitted it is selected here, consuming ``self._rng``.

        ``probe`` (when given) collects the select/read/refine stage
        timings and the per-query DFS cache hit/miss delta.  Probing is
        observation only — the answer set, stats and counters are
        bit-identical with or without it; the cache delta is exact when
        rows run serially and approximate under concurrent shards (other
        rows' hits/misses interleave, as any shared cache's do).

        ``on_failure="skip"`` degrades gracefully: a partition whose read
        (or whose later payload materialisation — lazy checksum
        verification fires on the first cluster read) raises a
        :class:`~repro.exceptions.StorageError` is dropped from the
        candidate set and recorded in ``stats.partitions_failed`` instead
        of aborting the query.  :class:`PartitionNotFoundError` is never
        skipped — a referenced-but-absent partition is index/store
        inconsistency, not a transient fault.
        """
        sim = ClusterSimulator(self.model)
        cfg = self.config
        if probe is not None:
            t_mark = time.perf_counter()
        if primary is None:
            primary = self.select_primary(candidates)

        # Driver-side routing: signature of one query object plus a linear
        # scan of the group list.  Independent of the data volume, so it is
        # *not* scaled by cost_scale (the group list itself grows only with
        # the signature space, paper §VII-B).
        sim.run_driver_step(
            "query/route",
            TaskCost(
                cpu_ops=int(
                    ops_signature(cfg.n_pivots, cfg.word_length, cfg.prefix_length)
                    + self.n_groups * cfg.prefix_length * 8
                )
            ),
        )

        selected = self._select_nodes(
            variant, primary, candidates, k, adaptive_factor
        )
        to_load = self._plan_partition_reads(selected)

        if probe is not None:
            now = time.perf_counter()
            probe.add_stage("select", now - t_mark)
            t_mark = now
            counters_before = getattr(self.dfs, "counters", None)

        ids_parts: list[np.ndarray] = []
        val_parts: list[np.ndarray] = []
        loaded = []
        failed: list[str] = []
        data_bytes = 0
        scan_costs = []
        fallback_pool: list[tuple] = []
        for pname in sorted(to_load):
            wanted = set(to_load[pname])
            # Base partition plus any delta partitions appended later.
            physical = ([pname] if self.dfs.has_partition(pname) else [])
            physical += self._delta_names(pname)
            for actual in physical:
                # All per-partition reads (open + targeted cluster ranges)
                # succeed or fail atomically from this query's view: a
                # failure after retry exhaustion either aborts the query
                # (mode "raise") or drops the whole partition (mode
                # "skip") — never a half-read partition.
                try:
                    part = self.dfs.read_partition(actual)
                    present = [
                        key for key in part.cluster_keys() if key in wanted
                    ]
                    cid = cval = None
                    if present:
                        # One cluster-range read per partition: with format
                        # v2 the handle maps only the byte ranges these keys
                        # cover (adjacent clusters coalesce into single
                        # slices).  Lazy checksum verification fires here.
                        cid, cval = part.read_clusters(present)
                except PartitionNotFoundError:
                    raise
                except StorageError:
                    if on_failure != "skip":
                        raise
                    failed.append(actual)
                    continue
                loaded.append(actual)
                # The logical size the DFS registered at write/attach time:
                # the handle would re-encode its header to recompute it.
                nbytes = self.dfs.partition_nbytes(actual)
                data_bytes += nbytes
                if cid is not None:
                    ids_parts.append(cid)
                    val_parts.append(cval)
                # Remember the rest of the partition for the within-partition
                # expansion CLIMBER-kNN applies when the node is too small;
                # the records are only materialised if that happens.
                other_keys = [
                    key for key in part.cluster_keys() if key not in wanted
                ]
                cost = self._partition_scan_cost(part, nbytes)
                if other_keys:
                    fallback_pool.append(
                        (actual, nbytes, part, other_keys, cost,
                         cid is not None)
                    )
                scan_costs.append(cost)

        n_targeted = int(sum(p.shape[0] for p in ids_parts))
        expanded = False
        if n_targeted < k and fallback_pool:
            expanded = True
            for (actual, nbytes, part, other_keys, cost,
                 contributed) in fallback_pool:
                try:
                    cid, cval = part.read_clusters(other_keys)
                except PartitionNotFoundError:
                    raise
                except StorageError:
                    if on_failure != "skip":
                        raise
                    if not contributed:
                        # The partition contributed nothing usable after
                        # all: retract its load accounting and reclassify
                        # it as failed.  (A partition whose *targeted*
                        # clusters were already folded in stays loaded —
                        # only its expansion read degraded.)
                        loaded.remove(actual)
                        failed.append(actual)
                        data_bytes -= nbytes
                        scan_costs.remove(cost)
                    continue
                ids_parts.append(cid)
                val_parts.append(cval)

        if probe is not None:
            now = time.perf_counter()
            probe.add_stage("read", now - t_mark)
            t_mark = now
            if counters_before is not None:
                counters_after = self.dfs.counters
                probe.add_count(
                    "cache_hits",
                    counters_after.cache_hits - counters_before.cache_hits,
                )
                probe.add_count(
                    "cache_misses",
                    counters_after.cache_misses - counters_before.cache_misses,
                )

        if ids_parts:
            all_ids = np.concatenate(ids_parts)
            all_vals = np.vstack(val_parts)
            ids, dists = knn_bruteforce(query, all_vals, all_ids, k)
            examined = int(all_ids.shape[0])
        else:
            ids = np.empty(0, dtype=np.int64)
            dists = np.empty(0, dtype=np.float64)
            examined = 0

        if probe is not None:
            probe.add_stage("refine", time.perf_counter() - t_mark)
            probe.add_count("candidates_scored", examined)

        sim.run_stage("query/scan", scan_costs)
        report = sim.fresh_report()
        stats = QueryStats(
            variant=variant,
            k=k,
            best_od=primary.od,
            group_ids=tuple(c.entry.group_id for c in candidates),
            path_len=primary.path_len,
            gn_size=primary.gn.count,
            n_selected_nodes=len(selected),
            partitions_loaded=tuple(loaded),
            data_bytes=data_bytes,
            records_examined=examined,
            expanded_within_partition=expanded,
            sim_seconds=report.total_seconds,
            wall_seconds=time.perf_counter() - t0,
            partitions_failed=tuple(failed),
        )
        tel = self._tel
        if tel.enabled:
            tel.record_query(stats, probe)
        return QueryResult(ids, dists, stats)

    # -- progressive queries -----------------------------------------------------------

    def attach_calibration(
        self, calibration: "ProgressiveCalibration | str | Path | None"
    ) -> ProgressiveCalibration | None:
        """Attach (or detach) the early-stopping calibration artifact.

        Accepts a :class:`~repro.core.progressive.ProgressiveCalibration`,
        a path to one saved by
        :func:`repro.evaluation.calibrate_early_stop` (the JSON sidecar
        persisted next to the index partitions), or ``None`` to detach.
        ``early_stop="confidence"`` queries consult the attached curve;
        without one they fall back to the conservative built-in prior.
        """
        if calibration is None or isinstance(calibration, ProgressiveCalibration):
            self.calibration = calibration
        else:
            self.calibration = ProgressiveCalibration.load(calibration)
        return self.calibration

    def _resolve_stop_rule(
        self, early_stop: object, confidence: float | None
    ) -> StopRule | None:
        """Knob resolution: explicit arg → config → env → ``"off"``."""
        if early_stop is None:
            spec: object = self.config.effective_early_stop
        else:
            spec = early_stop
        if confidence is not None and not 0.0 < confidence < 1.0:
            raise ConfigurationError(
                f"confidence must be in (0, 1), got {confidence!r}"
            )
        conf = (
            confidence if confidence is not None
            else self.config.early_stop_confidence
        )
        return resolve_stop_rule(spec, conf, self.calibration)

    def knn_progressive(
        self,
        query: np.ndarray,
        k: int,
        variant: str = "adaptive",
        adaptive_factor: int | None = None,
        on_partition_failure: str | None = None,
        early_stop: str | int | None = None,
        confidence: float | None = None,
        _probe: QueryProbe | None = None,
    ) -> Iterator[ProgressiveUpdate]:
        """Progressive kNN: stream improving answers partition by partition.

        The routed plan of the equivalent :meth:`knn` call is walked in
        its promise order, yielding one
        :class:`~repro.core.progressive.ProgressiveUpdate` per physical
        partition visited (running top-k, improvement, stability) and a
        final update carrying the full :class:`QueryStats`.  With
        ``early_stop`` disabled the final update is **bit-identical** to
        :meth:`knn` — same ids, distances, stats fields (bar
        ``wall_seconds``) and logical DFS counters — because both paths
        share the planner and the final answer is recomputed over the
        candidate set concatenated in :meth:`knn`'s canonical order.

        Parameters beyond :meth:`knn`'s
        ------------------------------
        early_stop:
            ``"off"`` | ``"confidence"`` | ``"confidence:0.95"`` |
            ``"streak:3"`` | bare int.  ``None`` defers to
            ``config.early_stop`` and then the ``CLIMBER_EARLY_STOP``
            environment variable.  Confidence mode maps the confidence to
            a stable-streak threshold via the attached calibration (see
            :meth:`attach_calibration`) or the built-in prior.  The rule
            never fires before ``k`` answers are in hand, so an index
            holding fewer than ``k`` records always runs to full coverage.
        confidence:
            Confidence level for ``early_stop="confidence"``; defaults to
            ``config.early_stop_confidence``.

        Note: validation, signature and routing run eagerly at call time
        (consuming the index RNG stream exactly like :meth:`knn`); only
        the partition visits are lazy.
        """
        self._validate_query_args(k, variant)
        on_failure = self._resolve_on_failure(on_partition_failure)
        rule = self._resolve_stop_rule(early_stop, confidence)
        probe = _probe if _probe is not None else self._tel.probe()
        t0 = time.perf_counter()
        od_slack = 1 if variant == "adaptive" else 0
        if probe is None:
            ranked = self.query_signature(query)
            candidates = self.group_candidates(ranked, od_slack=od_slack)
        else:
            with probe.stage("signature"):
                ranked = self.query_signature(query)
            with probe.stage("route"):
                candidates = self.group_candidates(ranked, od_slack=od_slack)
        primary = self.select_primary(candidates)
        return self._knn_progressive_routed(
            np.asarray(query, dtype=np.float64),
            k, variant, adaptive_factor, candidates, t0, rule,
            primary=primary,
            probe=probe,
            on_failure=on_failure,
        )

    def knn_batch_progressive(
        self,
        queries: np.ndarray,
        k: int,
        variant: str = "adaptive",
        adaptive_factor: int | None = None,
        on_partition_failure: str | None = None,
        early_stop: str | int | None = None,
        confidence: float | None = None,
        _probes: list[QueryProbe] | None = None,
    ) -> list[ProgressiveUpdate]:
        """Progressive kNN over a batch: one *final* update per row.

        The batch preamble is :meth:`knn_batch`'s — shared PAA/signature
        work, one routing matrix over distinct signatures, serial
        ``select_primary`` in row order pinning the RNG stream — and each
        row then runs its own progressive walk (with the shared early-stop
        rule) inside the same sharded fan-out.  Intermediate updates are
        consumed internally; the returned
        :class:`~repro.core.progressive.ProgressiveUpdate` per row carries
        the answer, its stats and the forgone coverage.  With stopping
        disabled every row is bit-identical to :meth:`knn_batch`.
        """
        self._validate_query_args(k, variant)
        on_failure = self._resolve_on_failure(on_partition_failure)
        rule = self._resolve_stop_rule(early_stop, confidence)
        arr = np.asarray(queries, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.shape[0] == 0:
            return []
        tel = self._tel
        probes = _probes
        if probes is None and tel.enabled:
            probes = [tel.probe() for _ in range(arr.shape[0])]
            if not any(probe is not None for probe in probes):
                probes = None
        if probes is not None and len(probes) != arr.shape[0]:
            raise ConfigurationError(
                f"{len(probes)} probes for {arr.shape[0]} query rows"
            )
        live_probes = (
            sum(1 for probe in probes if probe is not None)
            if probes is not None else 0
        )
        t0 = time.perf_counter()
        paa = paa_transform(arr, self.config.word_length)
        ranked = permutation_prefixes(
            paa, self._art.pivot_operand, self.config.prefix_length
        )
        if probes is not None:
            sig_s = time.perf_counter() - t0
            if tel.enabled:
                tel.registry.histogram("query.batch.signature_s").observe(sig_s)
            for probe in probes:
                if probe is not None:
                    probe.add_stage("signature", sig_s / live_probes)
        od_slack = 1 if variant == "adaptive" else 0
        uniq, inverse = np.unique(ranked, axis=0, return_inverse=True)
        inverse = np.asarray(inverse).reshape(-1)
        od, wd = self._routing.distance_matrices(uniq)
        candidates_of = []
        primaries = []
        t_route = time.perf_counter()
        for i in range(arr.shape[0]):
            row = int(inverse[i])
            candidates_of.append(
                self._routing.candidates(
                    ranked[i], od[row], wd[row], od_slack=od_slack
                )
            )
            primaries.append(self.select_primary(candidates_of[-1]))
        if probes is not None:
            route_s = time.perf_counter() - t_route
            if tel.enabled:
                tel.registry.histogram("query.batch.route_s").observe(route_s)
            for probe in probes:
                if probe is not None:
                    probe.add_stage("route", route_s / live_probes)
        shared_share = (time.perf_counter() - t0) / arr.shape[0]

        def run_shard(span):
            start, end = span
            out = []
            for i in range(start, end):
                walk = self._knn_progressive_routed(
                    arr[i], k, variant, adaptive_factor, candidates_of[i],
                    time.perf_counter() - shared_share, rule,
                    primary=primaries[i],
                    probe=probes[i] if probes is not None else None,
                    on_failure=on_failure,
                )
                final = None
                for final in walk:
                    pass
                out.append(final)
            return out

        cfg = self.config
        if _probes is not None:
            executor = SerialExecutor()
        else:
            executor = make_executor(cfg.executor, cfg.effective_n_workers,
                                     require_shared_memory=True)
        with executor:
            shards = executor.map(
                tel.wrap_tasks("query.shard", run_shard),
                split_ranges(arr.shape[0], _QUERY_SHARD_ROWS),
            )
        return [update for shard in shards for update in shard]

    def _knn_progressive_routed(
        self,
        query: np.ndarray,
        k: int,
        variant: str,
        adaptive_factor: int | None,
        candidates: list[GroupCandidate],
        t0: float,
        rule: StopRule | None,
        primary: GroupCandidate | None = None,
        probe: QueryProbe | None = None,
        on_failure: str = "raise",
    ) -> Iterator[ProgressiveUpdate]:
        """The progressive walk over :meth:`_knn_routed`'s exact plan.

        Parity discipline: planning (``_select_nodes`` +
        ``_plan_partition_reads``), the per-partition read/skip semantics,
        the within-partition expansion trigger and the cost accounting all
        replicate ``_knn_routed`` statement for statement, in the same
        order.  Intermediate top-k states come from per-partition
        ``knn_bruteforce`` merged via ``knn_merge`` (exact over the
        candidates seen so far); the *final* answer is recomputed from the
        candidate arrays concatenated in the canonical visit order — the
        identical computation ``_knn_routed`` performs — so full-coverage
        runs are bit-identical to :meth:`knn` down to the distance ulps.
        """
        sim = ClusterSimulator(self.model)
        cfg = self.config
        if probe is not None:
            t_mark = time.perf_counter()
        if primary is None:
            primary = self.select_primary(candidates)

        sim.run_driver_step(
            "query/route",
            TaskCost(
                cpu_ops=int(
                    ops_signature(cfg.n_pivots, cfg.word_length, cfg.prefix_length)
                    + self.n_groups * cfg.prefix_length * 8
                )
            ),
        )

        selected = self._select_nodes(
            variant, primary, candidates, k, adaptive_factor
        )
        to_load = self._plan_partition_reads(selected)

        # The routed plan as physical partitions, in exactly the order
        # _knn_routed's read loop visits them: sorted base names, each
        # base (when present) before its delta partitions.
        plan: list[tuple[str, str]] = []
        for pname in sorted(to_load):
            physical = ([pname] if self.dfs.has_partition(pname) else [])
            physical += self._delta_names(pname)
            for actual in physical:
                plan.append((pname, actual))
        n_planned = len(plan)

        if probe is not None:
            now = time.perf_counter()
            probe.add_stage("select", now - t_mark)
            counters_before = getattr(self.dfs, "counters", None)

        ids_parts: list[np.ndarray] = []
        val_parts: list[np.ndarray] = []
        loaded = []
        failed: list[str] = []
        data_bytes = 0
        scan_costs = []
        fallback_pool: list[tuple] = []
        run_ids = np.empty(0, dtype=np.int64)
        run_dists = np.empty(0, dtype=np.float64)
        stable = 0
        visited = 0
        stopped = False

        for pname, actual in plan:
            wanted = set(to_load[pname])
            if probe is not None:
                t_read = time.perf_counter()
            step_failed = False
            cid = cval = None
            try:
                part = self.dfs.read_partition(actual)
                present = [
                    key for key in part.cluster_keys() if key in wanted
                ]
                if present:
                    cid, cval = part.read_clusters(present)
            except PartitionNotFoundError:
                raise
            except StorageError:
                if on_failure != "skip":
                    raise
                failed.append(actual)
                step_failed = True
            if not step_failed:
                loaded.append(actual)
                nbytes = self.dfs.partition_nbytes(actual)
                data_bytes += nbytes
                if cid is not None:
                    ids_parts.append(cid)
                    val_parts.append(cval)
                other_keys = [
                    key for key in part.cluster_keys() if key not in wanted
                ]
                cost = self._partition_scan_cost(part, nbytes)
                if other_keys:
                    fallback_pool.append(
                        (actual, nbytes, part, other_keys, cost,
                         cid is not None)
                    )
                scan_costs.append(cost)
            if probe is not None:
                probe.add_stage("read", time.perf_counter() - t_read)
            visited += 1

            prev_kth = (
                float(run_dists[k - 1])
                if run_dists.shape[0] >= k else float("inf")
            )
            new_neighbors = 0
            changed = False
            if not step_failed and cid is not None and cid.shape[0]:
                part_ids, part_d = knn_bruteforce(query, cval, cid, k)
                new_ids, new_d = knn_merge(
                    [(run_ids, run_dists), (part_ids, part_d)], k
                )
                entered = np.isin(new_ids, run_ids, invert=True)
                new_neighbors = int(np.count_nonzero(entered))
                changed = not (
                    new_ids.shape[0] == run_ids.shape[0]
                    and np.array_equal(new_ids, run_ids)
                )
                run_ids, run_dists = new_ids, new_d
            kth = (
                float(run_dists[k - 1])
                if run_dists.shape[0] >= k else float("inf")
            )
            # A failed (skipped) partition cannot improve the answer, so
            # it counts toward the stable streak like an unchanged read.
            stable = 0 if changed else stable + 1
            if np.isfinite(prev_kth) and prev_kth > 0 and kth < prev_kth:
                improvement = (prev_kth - kth) / prev_kth
            else:
                improvement = 0.0

            yield ProgressiveUpdate(
                ids=run_ids,
                distances=run_dists,
                k=k,
                partitions_visited=visited,
                partitions_planned=n_planned,
                new_neighbors=new_neighbors,
                kth_distance=kth,
                improvement=improvement,
                stable_steps=stable,
                stability=stable / visited,
                done=False,
            )
            if rule is not None and rule.should_stop(
                run_ids.shape[0] >= k, visited, stable
            ):
                # A rule firing on the last planned partition forgoes
                # nothing — that is a full-coverage answer, not an early
                # stop, so the flag (and the early_stops counter) stays
                # down.
                stopped = visited < n_planned
                break

        forgone = tuple(actual for _, actual in plan[visited:])

        # Within-partition expansion, exactly as _knn_routed applies it.
        # The stop rule requires k answers in hand, and fewer than k
        # targeted records means fewer than k in hand, so an early-stopped
        # walk can never reach this with a truthy trigger — the expansion
        # only ever runs at full coverage, where it must mirror knn.
        n_targeted = int(sum(p.shape[0] for p in ids_parts))
        expanded = False
        if n_targeted < k and fallback_pool:
            expanded = True
            if probe is not None:
                t_read = time.perf_counter()
            for (actual, nbytes, part, other_keys, cost,
                 contributed) in fallback_pool:
                try:
                    cid, cval = part.read_clusters(other_keys)
                except PartitionNotFoundError:
                    raise
                except StorageError:
                    if on_failure != "skip":
                        raise
                    if not contributed:
                        loaded.remove(actual)
                        failed.append(actual)
                        data_bytes -= nbytes
                        scan_costs.remove(cost)
                    continue
                ids_parts.append(cid)
                val_parts.append(cval)
            if probe is not None:
                probe.add_stage("read", time.perf_counter() - t_read)

        if probe is not None:
            if counters_before is not None:
                counters_after = self.dfs.counters
                probe.add_count(
                    "cache_hits",
                    counters_after.cache_hits - counters_before.cache_hits,
                )
                probe.add_count(
                    "cache_misses",
                    counters_after.cache_misses - counters_before.cache_misses,
                )
            t_mark = time.perf_counter()

        # Final answer: the canonical concatenated refinement — the same
        # arrays in the same order _knn_routed concatenates, so the
        # distances match knn's to the bit (BLAS reduction order and all).
        if ids_parts:
            all_ids = np.concatenate(ids_parts)
            all_vals = np.vstack(val_parts)
            ids, dists = knn_bruteforce(query, all_vals, all_ids, k)
            examined = int(all_ids.shape[0])
        else:
            ids = np.empty(0, dtype=np.int64)
            dists = np.empty(0, dtype=np.float64)
            examined = 0

        if probe is not None:
            probe.add_stage("refine", time.perf_counter() - t_mark)
            probe.add_count("candidates_scored", examined)

        sim.run_stage("query/scan", scan_costs)
        report = sim.fresh_report()
        stats = QueryStats(
            variant=variant,
            k=k,
            best_od=primary.od,
            group_ids=tuple(c.entry.group_id for c in candidates),
            path_len=primary.path_len,
            gn_size=primary.gn.count,
            n_selected_nodes=len(selected),
            partitions_loaded=tuple(loaded),
            data_bytes=data_bytes,
            records_examined=examined,
            expanded_within_partition=expanded,
            sim_seconds=report.total_seconds,
            wall_seconds=time.perf_counter() - t0,
            partitions_failed=tuple(failed),
            partitions_forgone=forgone,
        )
        tel = self._tel
        if tel.enabled:
            tel.record_query(stats, probe)
            tel.record_progressive(stats, visited, n_planned, stopped)
        yield ProgressiveUpdate(
            ids=ids,
            distances=dists,
            k=k,
            partitions_visited=visited,
            partitions_planned=n_planned,
            new_neighbors=0,
            kth_distance=(
                float(dists[k - 1]) if dists.shape[0] >= k else float("inf")
            ),
            improvement=0.0,
            stable_steps=stable,
            stability=stable / visited if visited else 1.0,
            done=True,
            stopped_early=stopped,
            partitions_forgone=forgone,
            stats=stats,
        )

    # -- observability surface ---------------------------------------------------------

    @staticmethod
    def _explain_entry(result: QueryResult, probe: QueryProbe) -> dict:
        """One query's structured breakdown (explain_query response body)."""
        stats = result.stats
        return {
            "variant": stats.variant,
            "k": stats.k,
            "stages": {name: seconds for name, seconds in probe.stages.items()},
            "partitions_probed": stats.n_partitions,
            "partitions": list(stats.partitions_loaded),
            "bytes_read": stats.data_bytes,
            "records_examined": stats.records_examined,
            "cache": {
                "hits": probe.counts.get("cache_hits", 0),
                "misses": probe.counts.get("cache_misses", 0),
            },
            "best_od": stats.best_od,
            "groups_considered": list(stats.group_ids),
            "n_selected_nodes": stats.n_selected_nodes,
            "expanded_within_partition": stats.expanded_within_partition,
            "degraded": stats.degraded,
            "coverage": stats.coverage,
            "partitions_failed": list(stats.partitions_failed),
            "sim_seconds": stats.sim_seconds,
            "wall_seconds": stats.wall_seconds,
            "ids": [int(i) for i in result.ids],
            "distances": [float(d) for d in result.distances],
        }

    @staticmethod
    def _explain_progressive(updates: list[ProgressiveUpdate]) -> dict:
        """The progressive-plan section of an explain entry."""
        final = updates[-1]
        return {
            "partitions_planned": final.partitions_planned,
            "partitions_visited": final.partitions_visited,
            "visited_fraction": final.visited_fraction,
            "stopped_early": final.stopped_early,
            "partitions_forgone": list(final.partitions_forgone),
            "steps": [
                {
                    "partitions_visited": u.partitions_visited,
                    "new_neighbors": u.new_neighbors,
                    "kth_distance": u.kth_distance,
                    "improvement": u.improvement,
                    "stable_steps": u.stable_steps,
                    "stability": u.stability,
                }
                for u in updates
                if not u.done
            ],
        }

    @staticmethod
    def _explain_totals(entries: list[dict]) -> dict:
        """Aggregate section of a batch explain response.

        The aggregate ``coverage`` guards its denominator: a batch whose
        queries wanted no partitions at all (every candidate set empty or
        deduplicated away) is fully covered by definition — 1.0, never a
        division by zero.
        """
        total_loaded = sum(len(e["partitions"]) for e in entries)
        total_failed = sum(len(e["partitions_failed"]) for e in entries)
        wanted = total_loaded + total_failed
        return {
            "partitions_probed": sum(
                e["partitions_probed"] for e in entries
            ),
            "bytes_read": sum(e["bytes_read"] for e in entries),
            "records_examined": sum(
                e["records_examined"] for e in entries
            ),
            "cache_hits": sum(e["cache"]["hits"] for e in entries),
            "cache_misses": sum(e["cache"]["misses"] for e in entries),
            "wall_seconds": sum(e["wall_seconds"] for e in entries),
            "degraded_queries": sum(e["degraded"] for e in entries),
            "partitions_failed": total_failed,
            "coverage": (total_loaded / wanted) if wanted else 1.0,
        }

    def explain_query(
        self,
        query: np.ndarray,
        k: int,
        variant: str = "adaptive",
        adaptive_factor: int | None = None,
        on_partition_failure: str | None = None,
        progressive: bool = False,
        early_stop: str | int | None = None,
        confidence: float | None = None,
    ) -> dict:
        """Run a query and return its structured per-stage breakdown.

        The query-plan view of one ``knn`` call (1-D ``query``) or one
        ``knn_batch`` call (2-D ``query``): per-stage wall timings
        (signature/route/select/read/refine), partitions probed, logical
        bytes read, records examined, DFS cache hits/misses, and the
        answer set itself — everything JSON-able, stamped with
        :data:`~repro.obs.OBS_SCHEMA`.

        With ``progressive=True`` (implied by passing ``early_stop``) the
        query runs through :meth:`knn_progressive` and each entry gains a
        ``"progressive"`` section: the routed plan size, how much of it
        was visited vs forgone, and the per-step improvement/stability
        trajectory.  Batch rows then run as serial per-row progressive
        walks (RNG-equivalent to the batch pipeline).

        Works regardless of ``config.telemetry`` (probes are attached
        explicitly for this call).  The query *runs for real*: it consumes
        the index RNG stream exactly like the equivalent ``knn`` /
        ``knn_batch`` call and charges the DFS logical counters — explain
        is a probed query, not a dry run.  Batch rows execute serially so
        each row's cache delta is attributed exactly.
        """
        arr = np.asarray(query, dtype=np.float64)
        run_progressive = progressive or early_stop is not None
        if arr.ndim == 1:
            probe = QueryProbe()
            if run_progressive:
                updates = list(self.knn_progressive(
                    arr, k, variant, adaptive_factor,
                    on_partition_failure=on_partition_failure,
                    early_stop=early_stop, confidence=confidence,
                    _probe=probe,
                ))
                final = updates[-1]
                result = QueryResult(final.ids, final.distances, final.stats)
                entry = self._explain_entry(result, probe)
                entry["schema"] = OBS_SCHEMA
                entry["mode"] = "knn_progressive"
                entry["progressive"] = self._explain_progressive(updates)
                return entry
            result = self.knn(arr, k, variant, adaptive_factor,
                              on_partition_failure=on_partition_failure,
                              _probe=probe)
            entry = self._explain_entry(result, probe)
            entry["schema"] = OBS_SCHEMA
            entry["mode"] = "knn"
            return entry
        if run_progressive:
            entries = []
            for i in range(arr.shape[0]):
                probe = QueryProbe()
                updates = list(self.knn_progressive(
                    arr[i], k, variant, adaptive_factor,
                    on_partition_failure=on_partition_failure,
                    early_stop=early_stop, confidence=confidence,
                    _probe=probe,
                ))
                final = updates[-1]
                result = QueryResult(final.ids, final.distances, final.stats)
                entry = self._explain_entry(result, probe)
                entry["progressive"] = self._explain_progressive(updates)
                entries.append(entry)
            return {
                "schema": OBS_SCHEMA,
                "mode": "knn_batch_progressive",
                "batch_size": len(entries),
                # Per-row walks compute their own signatures/routes, so
                # nothing is amortised across rows here.
                "shared_stages": [],
                "queries": entries,
                "totals": self._explain_totals(entries),
            }
        probes = [QueryProbe() for _ in range(arr.shape[0])]
        results = self.knn_batch(arr, k, variant, adaptive_factor,
                                 on_partition_failure=on_partition_failure,
                                 _probes=probes)
        entries = [
            self._explain_entry(result, probe)
            for result, probe in zip(results, probes)
        ]
        return {
            "schema": OBS_SCHEMA,
            "mode": "knn_batch",
            "batch_size": len(entries),
            "shared_stages": ["signature", "route"],
            "queries": entries,
            "totals": self._explain_totals(entries),
        }

    def stats(self) -> dict:
        """Process-lifetime aggregates of this index, as one JSON-able dict.

        Four sections: a structural ``index`` summary, the index-scoped
        ``metrics`` registry (build spans, query histograms and counters —
        populated when telemetry is enabled), the always-on ``dfs``
        logical counters (+ cache occupancy), and the ``process`` global
        registry (cross-cutting counters like ``parallel.fallbacks``).
        """
        dfs_counters = getattr(self.dfs, "counters", None)
        dfs_section: dict[str, object] = {}
        if dataclasses.is_dataclass(dfs_counters):
            dfs_section = dataclasses.asdict(dfs_counters)
        cache_used = getattr(self.dfs, "cache_used_bytes", None)
        if cache_used is not None:
            dfs_section["cache_used_bytes"] = cache_used
        return {
            "schema": OBS_SCHEMA,
            "telemetry_enabled": self._tel.enabled,
            "index": {
                "records": self.n_records,
                "groups": self.n_groups,
                "partitions": self.n_partitions,
            },
            "metrics": self._tel.registry.snapshot(),
            "dfs": dfs_section,
            "process": global_registry().snapshot(),
        }

    def reset_stats(self) -> None:
        """Zero this index's metric registry (histograms, query counters).

        Scoped on purpose: the DFS *logical* counters (paper access-volume
        accounting) and the process-global registry are not touched —
        reset them via ``dfs.registry.reset()`` /
        ``repro.obs.global_registry().reset()`` explicitly if a test needs
        a clean slate.
        """
        self._tel.registry.reset()
