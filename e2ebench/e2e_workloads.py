"""Workload definitions and seeded input generation.

Every workload walks the same user path — build, persist, reopen, direct
``knn`` / drained ``knn_progressive``, open-loop serving through
``QueryService``, appends with ``knn_batch`` reads — because every run
must report every end-to-end metric, and each phase feeds some of them.
The workloads differ in the inputs that decide which layers do the work:
dataset family and size, working set against the DFS read cache, how
much the queries repeat, how many rows each append round reads, and how
many index workers run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Extra seed, not used while tuning, for confirming a claimed gain.
CONFIRM_SEED = 20261017
#: Seed of the generated corpus each run draws its data from.  The run's
#: seed picks which corpus rows are indexed, appended and held out, so the
#: inputs follow the seed while the corpus's structure (EEG templates,
#: TexMex clusters) stays fixed and runs of one workload stay comparable.
CORPUS_SEED = 2024
#: Neighbours per query.
K = 10
#: Zipf workloads draw from this many held-out series, with this exponent.
ZIPF_POOL = 1000
ZIPF_EXPONENT = 0.8
#: Every n-th closed-loop query runs a drained ``knn_progressive`` instead.
PROGRESSIVE_EVERY = 4
EARLY_STOP = "streak:2"


@dataclass(frozen=True)
class Workload:
    name: str
    """As in ``BENCHMARK.json``, which gives each workload's reason."""
    family: str
    """``RandomWalk``, ``EEG`` or ``TexMex`` — generated by ``repro.datasets``."""
    n_series: int
    length: int
    cache_mb: int
    """DFS read-cache budget of every opened index (0 = no cache)."""
    n_workers: int
    queries: str
    """``uniform``: held-out series, none repeated; ``zipf``: Zipf draw over
    a fixed pool of held-out series."""
    serve_lo: float
    serve_hi: float
    """Open-loop arrival rates (req/s), about 25% and 50% of the rate where
    served latency climbs steeply (README.md, Serving rates)."""
    capacity: int
    setups: int
    """Timed set-ups per run, spread over the run (``setup_s`` median)."""
    rounds: int = 8
    round_records: int = 5000
    round_batch: int = 256

    def params(self) -> dict:
        """The workload's parameters, for the run record."""
        return dict(self.__dict__)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="point-query",
            family="RandomWalk", n_series=200_000, length=128, cache_mb=16,
            n_workers=1, queries="uniform",
            serve_lo=80.0, serve_hi=160.0, capacity=2000, setups=3,
        ),
        Workload(
            name="serve-skewed",
            family="EEG", n_series=50_000, length=256, cache_mb=128,
            n_workers=1, queries="zipf",
            serve_lo=175.0, serve_hi=350.0, capacity=1000, setups=7,
        ),
        Workload(
            name="ingest-mixed",
            family="TexMex", n_series=100_000, length=128, cache_mb=0,
            n_workers=2, queries="uniform",
            serve_lo=50.0, serve_hi=100.0, capacity=2000, setups=5,
        ),
    )
}


def _znormalize(rows: np.ndarray) -> np.ndarray:
    mean = rows.mean(axis=1, keepdims=True)
    std = rows.std(axis=1, keepdims=True)
    std[std == 0] = 1.0
    return (rows - mean) / std


@dataclass
class Inputs:
    """Everything a run feeds the program, generated from one seed."""

    rows: np.ndarray
    """The indexed rows followed by every append batch; row index = id."""
    n_series: int
    round_records: int
    held_out: np.ndarray
    zipf_pool: np.ndarray
    """Fixed rows (by rank) that Zipf draws pick from; empty otherwise."""

    @property
    def base(self) -> np.ndarray:
        return self.rows[:self.n_series]

    @property
    def appends(self) -> list[np.ndarray]:
        return [self.rows[a:a + self.round_records]
                for a in range(self.n_series, self.rows.shape[0],
                               self.round_records)]

    def all_values(self, rounds_done: int) -> np.ndarray:
        """Indexed series after ``rounds_done`` append rounds, row = id."""
        return self.rows[:self.n_series + rounds_done * self.round_records]


def generate(w: Workload, seed: int, held_out: int) -> Inputs:
    """Dataset, append batches and held-out queries for one run.

    A seeded permutation splits the corpus into the indexed rows, the
    append batches and the held-out rows.  A Zipf workload's query pool is
    the corpus's last rows in fixed rank order: which queries are popular
    would otherwise change with the seed and, through the few most popular
    ones, move every latency median of the run.
    """
    from repro.datasets import (
        eeg_dataset, random_walk_dataset, texmex_like_dataset,
    )

    n_append = w.rounds * w.round_records
    n_zipf = ZIPF_POOL if w.queries == "zipf" else 0
    split = w.n_series + n_append + held_out
    make = {
        "RandomWalk": random_walk_dataset,
        "EEG": eeg_dataset,
        "TexMex": texmex_like_dataset,
    }[w.family]
    values = make(split + n_zipf, w.length, seed=CORPUS_SEED).values
    order = np.random.default_rng([seed, 1]).permutation(split)
    cut = w.n_series + n_append
    return Inputs(values[order[:cut]], w.n_series, w.round_records,
                  values[order[cut:]], values[split:])


class QueryStream:
    """One phase's queries, drawn from its own slice of the held-out rows
    and its own generator, so each phase's inputs depend only on the seed.

    Rows near appended series are a stored series plus Gaussian noise,
    re-normalised like the data.
    """

    NEAR_NOISE = 0.1

    def __init__(self, w: Workload, inputs: Inputs, pool: np.ndarray,
                 rng: np.random.Generator):
        self.w = w
        self.inputs = inputs
        self.pool = pool
        self.rng = rng
        self.rounds_done = 0
        self._cursor = 0
        if w.queries == "zipf":
            ranks = np.arange(1, ZIPF_POOL + 1, dtype=np.float64)
            p = ranks ** -ZIPF_EXPONENT
            self._zipf_p = p / p.sum()

    def _held_out(self, n: int) -> np.ndarray:
        if self._cursor + n > self.pool.shape[0]:
            raise RuntimeError("held-out query pool exhausted")
        rows = self.pool[self._cursor:self._cursor + n]
        self._cursor += n
        return rows

    def near_appended(self, n: int) -> np.ndarray:
        appended = self.inputs.all_values(self.rounds_done)[
            self.inputs.n_series:]
        pick = appended[self.rng.integers(0, appended.shape[0], n)]
        noise = self.rng.standard_normal(pick.shape) * self.NEAR_NOISE
        return _znormalize(pick + noise)

    def next(self, n: int) -> np.ndarray:
        """``n`` queries of the workload's distribution."""
        if self.w.queries == "zipf":
            return self.pool[self.rng.choice(ZIPF_POOL, n, p=self._zipf_p)]
        return self._held_out(n)

    def round_batch(self) -> np.ndarray:
        """One append round's read batch: half held-out, half near appends."""
        n = self.w.round_batch
        near = n // 2
        rows = np.vstack([self._held_out(n - near), self.near_appended(near)])
        return rows[self.rng.permutation(n)]


def arrivals(rng: np.random.Generator, rate: float, seconds: float):
    """Poisson arrival offsets (s) at ``rate`` req/s within ``seconds``."""
    n = max(1, int(rate * seconds))
    gaps = rng.exponential(1.0 / rate, n)
    return np.cumsum(gaps)
