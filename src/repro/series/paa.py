"""Piecewise Aggregate Approximation (PAA).

PAA (Keogh et al., [35] in the paper) is the first step of CLIMBER-FX
(Section IV-B, step 1): a raw series of length ``n`` is divided into ``w``
equal segments and each segment replaced by its mean, reducing
dimensionality from ``n`` to ``w`` (Fig. 3 of the paper).

Two paths are implemented: a fast reshape-based path when ``w`` divides
``n``, and the classic fractional-weight formulation otherwise (a segment
boundary can fall inside a reading, which then contributes proportionally
to both neighbouring segments).  Both compute every row on its own, so a
row's PAA does not depend on the other rows of the call.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.series.series import as_matrix

__all__ = ["paa_transform", "paa_inverse", "paa_distance_lower_bound"]


def _fractional_weights(n: int, w: int) -> np.ndarray:
    """``(w, n)`` weight matrix of fractional PAA.

    Row ``s`` holds each reading's share of segment ``s``; rows sum to 1 so
    the transform is a true segment mean.
    """
    weights = np.zeros((w, n), dtype=np.float64)
    seg_len = n / w
    for s in range(w):
        start = s * seg_len
        end = (s + 1) * seg_len
        first = int(np.floor(start))
        last = int(np.ceil(end))
        for j in range(first, min(last, n)):
            overlap = min(end, j + 1) - max(start, j)
            if overlap > 0:
                weights[s, j] = overlap
    weights /= seg_len
    return weights


def _fractional_terms(n: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Each segment's readings and weights, as ``(w, m)`` column tables.

    Column ``t`` holds every segment's ``t``-th overlapping reading and its
    weight; a segment with fewer than ``m`` readings repeats its last one
    with weight 0.
    """
    weights = _fractional_weights(n, w)
    m = int(np.count_nonzero(weights, axis=1).max())
    cols = np.empty((w, m), dtype=np.intp)
    terms = np.zeros((w, m), dtype=np.float64)
    for s in range(w):
        nz = np.flatnonzero(weights[s])
        cols[s, :nz.size] = nz
        cols[s, nz.size:] = nz[-1]
        terms[s, :nz.size] = weights[s, nz]
    return cols, terms


def paa_transform(data: np.ndarray, n_segments: int) -> np.ndarray:
    """PAA signatures of every row of ``data``.

    Parameters
    ----------
    data:
        Series matrix ``(d, n)`` (or a single series).
    n_segments:
        The word length ``w``; must satisfy ``1 <= w <= n``.

    Returns
    -------
    numpy.ndarray
        ``(d, w)`` matrix of segment means.
    """
    arr = as_matrix(data)
    n = arr.shape[1]
    w = int(n_segments)
    if not 1 <= w <= n:
        raise ConfigurationError(
            f"n_segments must be in [1, {n}], got {n_segments}"
        )
    if n % w == 0:
        seg = n // w
        return arr.reshape(arr.shape[0], w, seg).mean(axis=2)
    # A fixed-order sum of each segment's (at most ceil(n/w) + 1) weighted
    # readings, vectorised over rows.  A matrix product would round each
    # row differently depending on how many rows the call holds, and large
    # calls would wake the BLAS thread pool.
    cols, terms = _fractional_terms(n, w)
    out = arr[:, cols[:, 0]] * terms[:, 0]
    for t in range(1, cols.shape[1]):
        out += arr[:, cols[:, t]] * terms[:, t]
    return out


def paa_inverse(paa: np.ndarray, length: int) -> np.ndarray:
    """Reconstruct step-function series of ``length`` points from PAA rows.

    The reconstruction repeats each segment mean across its segment — the
    best constant-per-segment approximation of the original series.  Used
    by tests (reconstruction error bounds) and by examples for plotting.
    """
    arr = as_matrix(paa)
    w = arr.shape[1]
    if length < w:
        raise ConfigurationError(f"length {length} < word length {w}")
    # Mirror the fractional-segment layout of the forward transform: point
    # j belongs to the segment containing its midpoint.
    positions = (np.arange(length) + 0.5) * (w / length)
    seg_idx = np.minimum(positions.astype(np.int64), w - 1)
    return arr[:, seg_idx]


def paa_distance_lower_bound(paa_x: np.ndarray, paa_y: np.ndarray, length: int) -> float:
    """The classic PAA lower bound on the Euclidean distance.

    ``sqrt(n/w) * ||PAA(x) - PAA(y)||`` never exceeds ``ED(x, y)`` (Keogh et
    al. 2001).  Used by the Odyssey baseline for exact-search pruning.
    """
    px = np.asarray(paa_x, dtype=np.float64).ravel()
    py = np.asarray(paa_y, dtype=np.float64).ravel()
    if px.shape != py.shape:
        raise ValueError("PAA signatures must have equal word length")
    w = px.shape[0]
    return float(np.sqrt(length / w) * np.sqrt(np.sum((px - py) ** 2)))
