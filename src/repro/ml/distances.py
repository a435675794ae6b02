"""Euclidean distances for the RBF kernel.

KNN does not come through here: it calls scipy's ``cdist``, which
computes each entry from its own two rows alone, so a query's
distances, and so its neighbours, are the same in a one-row call and in
any batch.

:func:`euclidean_distances` is the expanded ``|a|^2 + |b|^2 - 2 a.b``
form (one matrix multiply plus a cancellation-rescue pass).  Only the
RBF kernel uses it: its matmul rounds differently as GEMV and GEMM, and
moving the SVM onto the direct form changes the SVM's results.
"""

from __future__ import annotations

import numpy as np

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
    form: exact matches become exactly ``0.0`` and near-matches keep
    their true (sub-noise) distance.
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
        diff = A[rows] - B[cols]
        sq[rows, cols] = np.einsum("ij,ij->i", diff, diff)
    np.sqrt(sq, out=sq)
    return sq
