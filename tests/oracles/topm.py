"""One-shot top-m oracle for :func:`repro.pivots.permutation_prefixes`."""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist


def topm_reference(paa: np.ndarray, pivots: np.ndarray, m: int) -> np.ndarray:
    """The ``m`` nearest pivot ids per row, nearest first, ties by pivot id.

    One ``cdist`` over the whole batch and one full ``lexsort`` per row:
    no selection, no packed keys, no repair path.  ``lexsort`` orders NaN
    distances last, like the library's exact path.
    """
    d2 = cdist(np.atleast_2d(np.asarray(paa, dtype=np.float64)),
               np.atleast_2d(np.asarray(pivots, dtype=np.float64)),
               "sqeuclidean")
    ids = np.broadcast_to(np.arange(d2.shape[1]), d2.shape)
    return np.lexsort((ids, d2), axis=1)[:, :m].astype(np.int32)
