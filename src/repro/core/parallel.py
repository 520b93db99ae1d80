"""Parallel execution layer: serial / thread-pool / process-pool executors.

Everything hot in this repository is vectorised numpy (PRs 1-4), and the
numpy kernels that dominate the build — ``cdist``, the signature key
sort, the OD and payload gathers — release the GIL, so a *thread* pool is the default
way to use more cores: no pickling, shared address space (the flat-trie
compile and the query planner hand ``TrieNode`` objects across stages by
identity, which only works in one process).  A process pool is available
for conversion-style tasks whose inputs and outputs pickle cheaply; the
ParIS+/MESSI line of data-series indexing work shows both shapes.

Determinism contract
--------------------
Executors preserve *submission order* in their results (``map`` returns
``results[i] == fn(items[i])``), and every parallel call site in this
repository is written so that worker scheduling cannot leak into results:

* tasks are pure functions of their item (per-block conversion, per-group
  trie compiles, per-partition payload encodes, per-shard query batches);
* anything stateful — the RNG stream behind Algorithm 1's tie-breaks, DFS
  write registration, simulated cost accounting — happens on the caller's
  thread, in item order, *after* the parallel map returns (see
  :meth:`repro.core.assignment.GroupAssigner.assign_deferred`).

That is what makes ``n_workers=8`` bit-identical to ``n_workers=1``:
same partition bytes, same counters, same kNN answers, regardless of how
the OS schedules workers.  ``tests/test_parallel_parity.py`` enforces it.

Task-level fault tolerance (PR 8): a pooled task that raises is
resubmitted once (the ``parallel.task_retries`` counter records it); a
second failure falls back to a serial re-run on the caller's thread via
:func:`record_parallel_fallback`, so only *persistent* failures propagate
— and they re-raise on the caller's thread with no hangs and no
partially-registered state (the failure-propagation tests pin this
down).  The retry is safe because every task is a pure function of its
item (see above): re-running it cannot double-apply state, and a
recovered result is bit-identical to a first-try success.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

from repro.exceptions import ConfigurationError
from repro.obs import global_registry

__all__ = [
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "EXECUTOR_KINDS",
    "resolve_n_workers",
    "make_executor",
    "record_parallel_fallback",
    "split_ranges",
]

_T = TypeVar("_T")
_R = TypeVar("_R")

EXECUTOR_KINDS = ("serial", "thread", "process")

#: Environment override consumed when ``ClimberConfig.n_workers`` is left
#: unset — lets CI (and operators) turn parallelism on for an existing
#: workload without touching call sites: ``CLIMBER_N_WORKERS=2 pytest``.
N_WORKERS_ENV = "CLIMBER_N_WORKERS"


def resolve_n_workers(n_workers: int | None) -> int:
    """Effective worker count: explicit value, else env, else 1."""
    if n_workers is None:
        raw = os.environ.get(N_WORKERS_ENV, "").strip()
        if not raw:
            return 1
        try:
            n_workers = int(raw)
        except ValueError:
            raise ConfigurationError(
                f"{N_WORKERS_ENV}={raw!r} is not an integer"
            ) from None
    if n_workers < 1:
        raise ConfigurationError("n_workers must be >= 1")
    return int(n_workers)


class Executor:
    """Minimal ordered-map executor interface.

    ``map`` applies ``fn`` to every item and returns the results *in item
    order*; a raised worker exception propagates to the caller.  ``close``
    releases pool resources (idempotent).  Executors are context managers.
    """

    #: True when workers share the caller's address space, i.e. tasks may
    #: mutate caller-owned arrays/objects (disjoint slices) and return
    #: structure-shared objects.  Process pools must not be used for such
    #: tasks; call sites gate on this flag.
    shares_memory: bool = True

    n_workers: int = 1

    def map(self, fn: Callable[[_T], _R], items: Iterable[_T]) -> list[_R]:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        pass

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialExecutor(Executor):
    """In-caller execution; the ``n_workers=1`` reference every parallel
    path must be bit-identical to."""

    def map(self, fn: Callable[[_T], _R], items: Iterable[_T]) -> list[_R]:
        return [fn(item) for item in items]


def _map_with_task_retry(pool, fn: Callable[[_T], _R],
                         items: Iterable[_T]) -> list[_R]:
    """Ordered pooled map with retry-once-then-serial-rerun per task.

    Each item is submitted as its own future so a single flaky task —
    a transient injected fault, a worker killed mid-run — costs one
    resubmission (``parallel.task_retries``), not the whole map.  A task
    that fails twice on the pool is re-run serially on the caller's
    thread (recorded via :func:`record_parallel_fallback`); if even that
    raises, the exception propagates and the remaining futures are
    cancelled.  Tasks are pure functions of their items, so a recovered
    result is bit-identical to a first-try success and results keep
    submission order.
    """
    items = list(items)
    futures = [pool.submit(fn, item) for item in items]
    results: list[_R] = []
    try:
        for i, future in enumerate(futures):
            try:
                results.append(future.result())
                continue
            except Exception:
                global_registry().counter("parallel.task_retries").inc()
            try:
                results.append(pool.submit(fn, items[i]).result())
                continue
            except Exception:
                record_parallel_fallback(
                    f"pooled task {i} failed twice; re-running serially "
                    "on the caller's thread"
                )
            results.append(fn(items[i]))
    except BaseException:
        for future in futures:
            future.cancel()
        raise
    return results


class ThreadExecutor(Executor):
    """Thread-pool executor (the default): GIL-releasing numpy kernels
    scale across cores with zero serialisation cost."""

    def __init__(self, n_workers: int) -> None:
        if n_workers < 2:
            raise ConfigurationError("ThreadExecutor needs n_workers >= 2")
        self.n_workers = int(n_workers)
        self._pool = ThreadPoolExecutor(
            max_workers=self.n_workers, thread_name_prefix="climber"
        )

    def map(self, fn: Callable[[_T], _R], items: Iterable[_T]) -> list[_R]:
        return _map_with_task_retry(self._pool, fn, items)

    def close(self) -> None:
        self._pool.shutdown(wait=True, cancel_futures=True)


class ProcessExecutor(Executor):
    """Process-pool executor for pickle-friendly tasks.

    No shared memory: tasks must be pure functions of picklable items and
    return picklable results.  Call sites that hand out live object graphs
    (trie compiles, query shards) check :attr:`shares_memory` and fall
    back to threads.  The serial-rerun leg of the task retry runs ``fn``
    in the caller's process — equivalent by the same purity argument.
    """

    shares_memory = False

    def __init__(self, n_workers: int) -> None:
        if n_workers < 2:
            raise ConfigurationError("ProcessExecutor needs n_workers >= 2")
        self.n_workers = int(n_workers)
        self._pool = ProcessPoolExecutor(max_workers=self.n_workers)

    def map(self, fn: Callable[[_T], _R], items: Iterable[_T]) -> list[_R]:
        return _map_with_task_retry(self._pool, fn, items)

    def close(self) -> None:
        self._pool.shutdown(wait=True, cancel_futures=True)


def record_parallel_fallback(reason: str) -> None:
    """Make a parallelism downgrade visible instead of silent.

    Bumps the process-lifetime ``parallel.fallbacks`` counter (always on —
    it surfaces in ``index.stats()`` and every BENCH artifact's
    ``process_metrics``) and warns, so a run that quietly degraded from
    the requested executor can be diagnosed after the fact.  The fallback
    itself stays correct-by-construction (bit-identical results); only
    its *visibility* changes.
    """
    global_registry().counter("parallel.fallbacks").inc()
    warnings.warn(
        f"parallel execution degraded: {reason}", RuntimeWarning, stacklevel=3
    )


def make_executor(
    kind: str = "thread",
    n_workers: int | None = None,
    require_shared_memory: bool = False,
) -> Executor:
    """Build an executor for ``n_workers`` effective workers.

    ``n_workers`` resolves through :func:`resolve_n_workers` (explicit →
    ``CLIMBER_N_WORKERS`` → 1); one worker always yields the
    :class:`SerialExecutor`, so a single code path serves both modes.
    With ``require_shared_memory`` a ``"process"`` request degrades to
    threads — used by call sites whose tasks share live object graphs.
    The degrade is recorded via :func:`record_parallel_fallback` (warning
    + ``parallel.fallbacks`` counter) so it is never silent.
    """
    if kind not in EXECUTOR_KINDS:
        raise ConfigurationError(
            f"unknown executor kind {kind!r} (expected one of {EXECUTOR_KINDS})"
        )
    n = resolve_n_workers(n_workers)
    if n == 1 or kind == "serial":
        return SerialExecutor()
    if kind == "process" and require_shared_memory:
        record_parallel_fallback(
            "process executor requested for a shared-memory stage "
            "(tasks hand live object graphs across workers); using threads"
        )
        kind = "thread"
    if kind == "thread":
        return ThreadExecutor(n)
    return ProcessExecutor(n)


def split_ranges(n: int, chunk: int) -> list[tuple[int, int]]:
    """Contiguous ``[start, end)`` ranges covering ``0..n`` in ``chunk`` steps.

    The canonical work decomposition of the parallel call sites: blocking
    is *fixed by the chunk size*, never by the worker count, so the task
    list — and therefore every deterministic per-task result — is
    identical for any ``n_workers``.
    """
    if chunk < 1:
        raise ConfigurationError("chunk must be >= 1")
    return [(start, min(n, start + chunk)) for start in range(0, n, chunk)]
