"""Pivot permutations and Pivot Permutation Prefixes (Def. 5).

Given ``r`` pivots in PAA space, every object induces a *pivot
permutation*: the pivot ids sorted by ascending distance from the object
(Section IV-A, Fig. 2).  The *Pivot Permutation Prefix* (PPP) keeps only
the ``m`` nearest pivots, avoiding excessive space fragmentation while
preserving locality.

Everything operates on batches: signatures for a ``(d, w)`` PAA matrix are
computed with one distance matrix and one row-wise sort of packed
distance/pivot-id keys.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist

from repro.exceptions import ConfigurationError
from repro.series import as_matrix

__all__ = ["pivot_distance_matrix", "full_permutations", "permutation_prefixes"]

_SORT_TILE_BYTES = 1 << 19
"""Bytes of sort keys per row tile of the top-m pass.  Each tile is masked,
sorted and read while it sits in L2; one full-width pass over a large
batch re-streams the ``(d, r)`` keys from DRAM on every step (about 20%
slower at 50k x 200 on an AVX-512 host).  Rows are independent, so the
tile size cannot change a result."""


def _topm_sorted(d2: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-m pivot ids per row by one sort of packed keys; overwrites ``d2``.

    Non-negative float64 values order exactly like their int64 bit
    patterns.  The low ``b = (r-1).bit_length()`` bits of every squared
    distance are overwritten with its column id, so one SIMD float sort
    per row orders the pivots by (truncated distance, id), and the first
    ``m`` keys carry the answer in their low bits.

    Returns ``(ranked, uncertain)``.  A row is *uncertain* when two of its
    first ``m + 1`` keys share their high bits — a real tie, or distances
    that differ only in the overwritten bits — or when it holds a
    non-finite distance.  Such a key is an inf or NaN pattern: it sorts
    last, so the last key shows it, and the sort need not keep a NaN's
    low bits (numpy's SIMD sort writes back one canonical NaN).  Every
    other row is exact: its first ``m + 1`` distances are strictly
    ordered, and everything past them is strictly larger than the m-th.
    """
    d, r = d2.shape
    b = (r - 1).bit_length()
    low = (1 << b) - 1
    keys = d2.view(np.int64)
    cols = np.arange(r, dtype=np.int64)
    ranked = np.empty((d, m), dtype=np.int64)
    uncertain = np.empty(d, dtype=bool)
    tile = max(1, _SORT_TILE_BYTES // (r * 8))
    for start in range(0, d, tile):
        end = min(d, start + tile)
        k = keys[start:end]
        k &= ~low
        k |= cols
        d2[start:end].sort(axis=1)
        high = k[:, : m + 1] >> b
        u = uncertain[start:end]
        np.any(high[:, 1:] == high[:, :-1], axis=1, out=u)
        u |= ~np.isfinite(d2[start:end, -1])
        np.bitwise_and(k[:, :m], low, out=ranked[start:end])
    return ranked, uncertain


def pivot_distance_matrix(paa: np.ndarray, pivots: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances from every object to every pivot.

    Squared distances order identically to true distances, so ranking uses
    them directly and skips ``d * r`` square roots.  Computed by scipy's
    C ``cdist`` kernel (direct per-pair differences — no ``(d, r)``
    norm-expansion temporaries, and at least as accurate as the
    ``||a||^2 - 2ab + ||b||^2`` form it replaced).
    """
    p = as_matrix(pivots)
    q = as_matrix(paa)
    if p.shape[1] != q.shape[1]:
        raise ConfigurationError(
            f"PAA word length {q.shape[1]} != pivot word length {p.shape[1]}"
        )
    return cdist(q, p, "sqeuclidean")


def full_permutations(paa: np.ndarray, pivots: np.ndarray) -> np.ndarray:
    """The complete pivot permutation of every object.

    Returns
    -------
    numpy.ndarray
        ``(d, r)`` int32 matrix; row ``i`` lists all pivot ids sorted by
        ascending distance from object ``i`` (ties broken by pivot id, so
        permutations are deterministic).
    """
    d2 = pivot_distance_matrix(paa, pivots)
    r = d2.shape[1]
    ids = np.broadcast_to(np.arange(r, dtype=np.int64), d2.shape)
    order = np.lexsort((ids, d2), axis=1)
    return order.astype(np.int32)


def permutation_prefixes(
    paa: np.ndarray,
    pivots: np.ndarray,
    prefix_length: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Pivot Permutation Prefixes (Def. 5) of every object.

    Parameters
    ----------
    prefix_length:
        ``m`` in the paper; must satisfy ``1 <= m <= r``.
    out:
        Optional preallocated ``(d, m)`` integer output the signatures are
        written into (the builder's streamed conversion passes slices of
        one full-dataset array); allocated fresh when omitted.

    Returns
    -------
    numpy.ndarray
        ``(d, m)`` int32 matrix (or ``out``) of the ``m`` nearest pivot
        ids per object, ordered by ascending distance (rank-sensitive
        order), ties broken by pivot id — always the head of
        :func:`full_permutations`.
    """
    d2 = pivot_distance_matrix(paa, pivots)
    r = d2.shape[1]
    m = int(prefix_length)
    if not 1 <= m <= r:
        raise ConfigurationError(f"prefix_length must be in [1, {r}], got {m}")
    if out is not None and out.shape != (d2.shape[0], m):
        raise ConfigurationError(
            f"out must have shape ({d2.shape[0]}, {m}), got {out.shape}"
        )
    if m == r:
        ranked = full_permutations(paa, pivots)
        if out is None:
            return ranked
        out[...] = ranked
        return out
    ranked, uncertain = _topm_sorted(d2, m)
    # Ties (and the rare near-ties the id bits hide) take the exact path,
    # which breaks them by pivot id.
    if np.any(uncertain):
        rows = np.flatnonzero(uncertain)
        ranked[rows] = full_permutations(paa[rows], pivots)[:, :m]
    if out is None:
        return ranked.astype(np.int32)
    out[...] = ranked
    return out
