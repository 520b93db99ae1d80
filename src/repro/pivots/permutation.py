"""Pivot permutations and Pivot Permutation Prefixes (Def. 5).

Given ``r`` pivots in PAA space, every object induces a *pivot
permutation*: the pivot ids sorted by ascending distance from the object
(Section IV-A, Fig. 2).  The *Pivot Permutation Prefix* (PPP) keeps only
the ``m`` nearest pivots, avoiding excessive space fragmentation while
preserving locality.

Everything operates on batches: signatures for a ``(d, w)`` PAA matrix are
computed with one matrix product and one row-wise sort of packed
distance/pivot-id keys; the few rows whose order that product cannot
certify are recomputed exactly.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist

from repro.exceptions import ConfigurationError
from repro.series import as_matrix

__all__ = [
    "PivotOperand",
    "pivot_distance_matrix",
    "full_permutations",
    "permutation_prefixes",
]

_SORT_TILE_BYTES = 1 << 19
"""Bytes of sort keys per row tile of the top-m pass.  Each tile is masked,
sorted and read while it sits in L2; one full-width pass over a large
batch re-streams the ``(d, r)`` keys from DRAM on every step (about 20%
slower at 50k x 200 on an AVX-512 host).  Rows are independent, so the
tile size cannot change a result."""

_PRODUCT_MACS = 1 << 18
"""Multiply-adds per call of the distance product, which runs in row
chunks of this size.  OpenBLAS computes a product this small on the
calling thread; a larger one wakes its thread pool, whose workers then
spin on the other cores for a while after every call.  On a 2-vCPU host
the pooled product of a 4096-row block took an erratic 0.7-9 ms, and
the query layers that ran after it in traced e2ebench runs were 10-25%
slower; in chunks it takes ~0.9 ms on one thread.  Rows are independent
and the screen certifies every row, so the chunking cannot change a
result."""

_SCREEN_C = 2.0
"""The constant ``c`` of the certainty screen's tolerance (derived in
:func:`permutation_prefixes`)."""


class PivotOperand:
    """A pivot set prepared for :func:`permutation_prefixes`.

    Holds the pivots, the right-hand operand ``B = [-2 P^T; 1; ||p||^2]``
    of the distance product — ``(w + 2, r)`` and C-contiguous, so no call
    multiplies by a transposed view — and the pivot norm bound ``2 P'``
    and scale ``kappa / 2`` the certainty screen needs.  Build it once
    per pivot set and pass it wherever the pivots would go; it pickles,
    so conversion tasks carry it into worker processes.
    """

    __slots__ = ("pivots", "rhs", "screen_norm", "screen_scale")

    def __init__(self, pivots: np.ndarray) -> None:
        p = as_matrix(pivots)
        r, w = p.shape
        rhs = np.ones((w + 2, r))
        # Huge or non-finite pivots overflow here; the screen then repairs
        # every row (see below), so the warnings are noise.
        with np.errstate(over="ignore", invalid="ignore"):
            sq = np.vecdot(p, p)
            np.multiply(p.T, -2.0, out=rhs[:w])
        rhs[w + 1] = sq
        self.pivots = p
        self.rhs = rhs
        # 2 (max ||p|| + 2^-511): see permutation_prefixes.  NaN pivots give
        # a NaN, which sends every row to the exact path.
        self.screen_norm = 2.0 * (float(np.sqrt(sq.max())) + 2.0**-511)
        # kappa / 2, where kappa = tau / (S + 2^-1022).
        kappa = (_SCREEN_C * (w + 2) + 2.0 ** (r - 1).bit_length()) * 2.0**-52
        self.screen_scale = kappa / 2


def _topm_sorted(d2: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-m pivot ids per row by one sort of packed keys; overwrites ``d2``.

    Non-negative float64 values order exactly like their int64 bit
    patterns.  Every value is clamped at ``+0.0`` in that integer view —
    a negative value, ``-0.0`` included, has the sign bit set and so a
    negative pattern — and the low ``b = (r-1).bit_length()`` bits are
    overwritten with the column id, so one SIMD float sort per row orders
    the pivots by (truncated distance, id), and the first ``m`` keys
    carry the answer in their low bits.

    Returns ``(ranked, min_gap)``: the ids, and per row the smallest gap
    between consecutive keys among the first ``m + 1`` — NaN when one of
    them is NaN (the clamp also turns a NaN with its sign bit set into
    ``+0.0``; :func:`permutation_prefixes` repairs such rows on their
    norms alone).
    """
    d, r = d2.shape
    b = (r - 1).bit_length()
    low = (1 << b) - 1
    keys = d2.view(np.int64)
    cols = np.arange(r, dtype=np.int64)
    ranked = np.empty((d, m), dtype=np.int64)
    min_gap = np.empty(d)
    tile = max(1, _SORT_TILE_BYTES // (r * 8))
    for start in range(0, d, tile):
        end = min(d, start + tile)
        k = keys[start:end]
        np.maximum(k, 0, out=k)
        k &= ~low
        k |= cols
        t = d2[start:end]
        t.sort(axis=1)
        np.subtract(t[:, 1 : m + 1], t[:, :m]).min(
            axis=1, out=min_gap[start:end]
        )
        np.bitwise_and(k[:, :m], low, out=ranked[start:end])
    return ranked, min_gap


def pivot_distance_matrix(paa: np.ndarray, pivots: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances from every object to every pivot.

    The exact kernel: scipy's C ``cdist`` takes per-pair differences, so
    each value is within ``(w + 1)`` roundings of the true squared
    distance, relative to that distance itself.  Its order (ties by pivot
    id) *defines* the permutations; :func:`permutation_prefixes` ranks
    from a faster matrix product and recomputes here every row whose
    order that product cannot certify.  Squared distances order
    identically to true distances, so ranking skips ``d * r`` square
    roots.
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
    pivots: np.ndarray | PivotOperand,
    prefix_length: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Pivot Permutation Prefixes (Def. 5) of every object.

    Parameters
    ----------
    pivots:
        The ``(r, w)`` pivots, or a :class:`PivotOperand` built from them
        once (what the builder and the index pass), which skips preparing
        the product operand on every call.
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

    Notes
    -----
    The squared distances come from one matrix product,
    ``g = A @ B`` with ``A = [q, ||q||^2, 1]`` and
    ``B = [-2 P^T; 1; ||p||^2]`` (run in row chunks of
    ``_PRODUCT_MACS`` multiply-adds).  Its rounding differs from the exact
    ``cdist`` values ``c``, so each row carries a tolerance ``tau`` and is
    kept only when the product provably ranks it like ``c``; every other
    row is recomputed by :func:`full_permutations`.

    Derivation of ``tau``.  Let ``u = 2^-53``, ``n = w + 2``,
    ``S = (||q|| + max_j ||p_j||)^2`` and ``D`` the exact squared
    distance, so ``D <= S``; first-order terms in ``u`` throughout.

    * ``c`` rounds ``w`` differences, ``w`` squares and ``w - 1`` sums,
      ``3u`` per term plus ``(w - 1) u`` for the sum:
      ``|c - D| <= (w + 2) u D <= (w + 2) u S``.
    * ``g`` is a length-``n`` dot product in whatever order and with
      whatever fused multiply-adds the BLAS uses:
      ``|g - sum_k a_k b_k| <= n u sum_k |a_k b_k| <= n u S``; the rounded
      norms move ``sum_k a_k b_k`` off ``D`` by at most ``w u S``.  So
      ``|g - D| <= (2w + 2) u S``, and ``|g - c| <= (3w + 4) u S``, below
      ``1.5 n 2^-52 S = (3w + 6) u S``.  Clamping ``g`` at ``+0.0`` only
      moves it toward ``c >= 0``.
    * The sort key overwrites ``b = bit_length(r - 1)`` low mantissa bits:
      it moves ``g`` by less than ``2^b`` ulps,
      ``2^b (2^-52 g + 2^-1074) <= 2^b 2^-52 (S + 2^-1022)``.

    Hence ``tau = (c n + 2^b) 2^-52 (S + 2^-1022)`` with the constant
    ``c = 2``: the ``1.5`` the bounds need, plus ``0.5 n 2^-52 S`` to
    absorb the second-order terms and the rounding of ``tau``, of the
    norms it uses and of the key gaps, all ``O(n u)`` relative to
    ``tau``.  The ``2^-1022`` floor (the smallest normal) covers the
    absolute error, under ``2^-1075`` per product, of values below the
    normal range; it is carried by ``P' = max_j ||p_j|| + 2^-511``, since
    ``(||q|| + P')^2 >= S + 2^-1022``.  Every key ``k`` then lies within
    ``tau`` of ``c``.

    If every gap between consecutive keys among a row's first ``m + 1``
    exceeds ``2 tau``, then for ``t <= m`` the ``t``-th and ``t+1``-th
    pivots satisfy ``c_(t+1) >= k_(t+1) - tau > k_t + tau >= c_t``, and
    every pivot past the ``m+1``-th has ``c > k_(m+1) - tau > c_m``: the
    ``m`` smallest ``c`` are those pivots, strictly increasing, so the
    row equals the ``cdist`` + ``lexsort`` head.  ``2 tau`` is computed
    from ``4 (||q|| + P')^2``, which is inf when it exceeds the largest
    float, and NaN for a NaN or infinite coordinate; either fails every
    gap test, so a row that could overflow inside the product is
    repaired too.  The output is therefore independent of the BLAS, its
    thread count and the chunking; only the number of repaired rows can
    change.
    """
    op = pivots if isinstance(pivots, PivotOperand) else PivotOperand(pivots)
    q = as_matrix(paa)
    d, w = q.shape
    r = op.pivots.shape[0]
    if op.pivots.shape[1] != w:
        raise ConfigurationError(
            f"PAA word length {w} != pivot word length {op.pivots.shape[1]}"
        )
    m = int(prefix_length)
    if not 1 <= m <= r:
        raise ConfigurationError(f"prefix_length must be in [1, {r}], got {m}")
    if out is not None and out.shape != (d, m):
        raise ConfigurationError(
            f"out must have shape ({d}, {m}), got {out.shape}"
        )
    if m == r:
        ranked = full_permutations(q, op.pivots)
        if out is None:
            return ranked
        out[...] = ranked
        return out
    lhs = np.empty((d, w + 2))
    lhs[:, :w] = q
    lhs[:, w + 1] = 1.0
    # Huge or non-finite inputs overflow the norms and make inf - inf in
    # the product; those rows are repaired below, so the warnings are noise.
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.vecdot(q, q)
        lhs[:, w] = sq
        step = max(1, _PRODUCT_MACS // (r * (w + 2)))
        if d <= step:  # a query batch: one call, no preallocated output
            d2 = lhs @ op.rhs
        else:
            d2 = np.empty((d, r))
            for start in range(0, d, step):
                np.matmul(lhs[start : start + step], op.rhs,
                          out=d2[start : start + step])
        # 2 tau = kappa/2 (2 ||q|| + 2 P')^2 with P' = P + 2^-511, so the
        # square carries the 2^-1022 floor.  Out-of-place: on the short
        # per-row vectors a fresh result is cheaper than an in-place ufunc.
        # (2 ||q|| + 2 P')^2 overflows to inf, and so fails every gap test,
        # before any value of the product can.
        s = np.sqrt(sq * 4.0) + op.screen_norm
        tol = (s * s) * op.screen_scale
        ranked, min_gap = _topm_sorted(d2, m)
        certain = min_gap > tol
    if not certain.all():
        rows = np.flatnonzero(~certain)
        ranked[rows] = full_permutations(q[rows], op.pivots)[:, :m]
    if out is None:
        return ranked.astype(np.int32)
    out[...] = ranked
    return out
