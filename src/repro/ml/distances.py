"""Distance functions used by the KNN models and the RBF kernel.

Every metric :func:`pairwise_distances` dispatches to computes an entry
from its own two rows alone, so neither the block size nor the number
of query rows changes a single bit: a query's distances, and so its
neighbours, are the same in a one-row call and in any batch.  The
Euclidean metric is scipy's ``cdist``, which loops over the pairs in C
and sums ``(a-b)^2`` in feature order for each; L1 and L-infinity reduce
the ``(n, m, d)`` difference broadcast in row blocks of at most
:data:`BLOCK_ELEMENTS` floats, written into a preallocated ``(n, m)``
output.

:func:`euclidean_distances` is the expanded ``|a|^2 + |b|^2 - 2 a.b``
form (one matrix multiply plus a cancellation-rescue pass).  Only the
RBF kernel uses it: its matmul rounds differently as GEMV and GEMM, and
moving the SVM onto the direct form changes the SVM's results.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.spatial.distance import cdist

from repro.errors import ConfigurationError

#: Peak temporary elements per block of the broadcast metrics
#: (2**24 float64 = 128 MiB for the (block, m, d) difference tensor).
BLOCK_ELEMENTS = 2 ** 24

#: Relative floor (on squared distances) below which the expanded
#: Euclidean form is indistinguishable from cancellation noise.  float64
#: accumulation over up to a few hundred feature dimensions leaves
#: errors of order ``1e-13 * (|a|^2 + |b|^2)``; any entry at or under
#: this threshold is recomputed with the direct ``|a-b|^2`` form.
_CANCELLATION_RTOL = 1e-12


def euclidean_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances between rows of ``A`` and rows of ``B``.

    Uses the expanded ``|a-b|^2 = |a|^2 + |b|^2 - 2 a.b`` form so the whole
    matrix is computed with one matrix multiply.  The expansion is subject
    to catastrophic cancellation — an exact match ``a == b`` can come out
    as a tiny *nonzero* squared distance (defeating the exact-match branch
    of inverse-distance weighting), and a genuinely close pair can come
    out as zero.  Every entry at or below ``_CANCELLATION_RTOL *
    (|a|^2 + |b|^2)`` is therefore recomputed with the direct difference
    form, in bounded-memory blocks: exact matches become exactly ``0.0``
    and near-matches keep their true (sub-noise) distance.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    a_sq = np.einsum("ij,ij->i", A, A)[:, None]
    b_sq = np.einsum("ij,ij->i", B, B)[None, :]
    norm = a_sq + b_sq
    sq = A @ B.T
    sq *= -2.0
    sq += norm
    # Any negative entry is pure cancellation noise, which puts it below
    # the suspect threshold — the rescue pass recomputes it exactly, so
    # no clip-to-zero pass over the full matrix is needed.
    norm *= _CANCELLATION_RTOL
    suspect = sq <= norm
    if suspect.any():
        rows, cols = np.nonzero(suspect)
        step = max(1, BLOCK_ELEMENTS // max(1, A.shape[1]))
        for start in range(0, rows.size, step):
            r = rows[start:start + step]
            c = cols[start:start + step]
            diff = A[r] - B[c]
            sq[r, c] = np.einsum("ij,ij->i", diff, diff)
    np.sqrt(sq, out=sq)
    return sq


def _blocked_difference_reduce(
    A: np.ndarray, B: np.ndarray, reduce: Callable[..., np.ndarray]
) -> np.ndarray:
    """Apply ``reduce`` over ``|A[i] - B[j]|`` in bounded-memory row blocks."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n, d = A.shape
    m = B.shape[0]
    out = np.empty((n, m), dtype=np.float64)
    block = max(1, BLOCK_ELEMENTS // max(1, m * d))
    for start in range(0, n, block):
        stop = min(n, start + block)
        diff = np.abs(A[start:stop, None, :] - B[None, :, :])
        reduce(diff, axis=2, out=out[start:stop])
    return out


def direct_euclidean_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances from the direct ``sum((a-b)^2)`` form.

    ``cdist`` computes each entry as ``sqrt(((a0-b0)^2 + (a1-b1)^2) + ...)``
    in feature order, from its own two rows only, so exact matches come
    out as exactly ``0.0`` with no rescue pass.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    return cdist(A, B)


def manhattan_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Pairwise L1 distances between rows of ``A`` and rows of ``B``."""
    return _blocked_difference_reduce(A, B, np.sum)


def chebyshev_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Pairwise L-infinity distances between rows of ``A`` and rows of ``B``."""
    return _blocked_difference_reduce(A, B, np.max)


_METRICS = {
    "euclidean": direct_euclidean_distances,
    "manhattan": manhattan_distances,
    "chebyshev": chebyshev_distances,
}


def pairwise_distances(A: np.ndarray, B: np.ndarray, metric: str = "euclidean") -> np.ndarray:
    """Dispatch to one of the supported distance metrics by name."""
    try:
        func = _METRICS[metric]
    except KeyError:
        raise ConfigurationError(
            f"Unknown distance metric {metric!r}; choose from {sorted(_METRICS)}"
        ) from None
    return func(A, B)
