"""K-nearest-neighbours regression.

KNN is the model that achieves the best accuracy in the paper
(Section VI.B): ~10 % mean percentage error for WER with input set 1
and ~4 % for PUE with input set 2.

Distances are scipy's Euclidean ``cdist``, which sums ``(a-b)^2`` in
feature order for each pair from its own two rows alone, so a query's
distances are the same in a one-row call and in any batch.  scipy loads
on the first distance call, not with ``import repro``.  Neighbour
search is fully deterministic: the k nearest training rows
are the k smallest under the lexicographic ``(distance, training
index)`` order, so equidistant neighbours always resolve to the
lowest-index rows regardless of platform or numpy version.  Selection
is k passes of first-occurrence ``argmin``, each masking the column it
picked, which yields that order directly for every batch size; a row
that holds a non-finite distance gets a full stable sort instead.

The regressor fits a target vector ``(n,)`` or a target matrix
``(n, R)``: all R output columns share one neighbour search and one set
of weights, and each column is averaged exactly as a 1-D fit on that
column would average it, so every output column is bit-identical to its
own single-output model.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, DataError
from repro.ml.base import (
    ArrayLike,
    Regressor,
    as_2d_array,
    as_target_array,
    check_consistent_length,
)


def _cdist(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """scipy's Euclidean ``cdist``, imported on the first call."""
    from scipy.spatial.distance import cdist

    return cdist(A, B)


def stable_kneighbors(dist: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """k smallest entries per row of a distance matrix, ties broken by index.

    Returns ``(distances, indices)``, each of shape ``(n_rows, min(k,
    n_columns))``, ordered by ``(distance, column index)`` within every
    row — the unique deterministic neighbour ordering.  Each of the k
    passes takes every row's first-occurrence ``argmin`` (the lowest
    column among equal minima) and masks the picked column with ``+inf``,
    so the cost is O(k) passes over the matrix.  A row whose pick is not
    finite holds a non-finite distance, where a mask is indistinguishable
    from a real ``+inf``, so that row is re-selected by a full stable sort.
    """
    n_rows, n_train = dist.shape
    k = min(k, n_train)
    remaining = np.array(dist, dtype=float)
    flat = remaining.reshape(-1)
    row_starts = np.arange(n_rows) * n_train
    nearest = np.empty((n_rows, k))
    idx = np.empty((n_rows, k), dtype=np.intp)
    for j in range(k):
        picked = remaining.argmin(axis=1, out=idx[:, j]) + row_starts
        nearest[:, j] = flat[picked]
        flat[picked] = np.inf
    if not np.isfinite(nearest).all():
        for row in np.flatnonzero(~np.isfinite(nearest).all(axis=1)):
            idx[row] = np.argsort(dist[row], kind="stable")[:k]
            nearest[row] = dist[row, idx[row]]
    return nearest, idx


def _neighbor_weights(distances: np.ndarray) -> np.ndarray:
    """Inverse-distance weights for a (n_queries, k) distance matrix.

    Exact matches dominate entirely: a query with a zero-distance
    neighbour averages over its exact matches alone.
    """
    with np.errstate(divide="ignore"):
        inv = 1.0 / distances
    exact = ~np.isfinite(inv)
    if exact.any():
        inv[exact.any(axis=1)] = 0.0
        inv[exact] = 1.0
    return inv


class KNeighborsRegressor(Regressor):
    """Brute-force KNN regressor with inverse-distance weights."""

    def __init__(self, n_neighbors: int = 5) -> None:
        if n_neighbors < 1:
            raise ConfigurationError("n_neighbors must be >= 1")
        self.n_neighbors = n_neighbors

    def fit(self, X: ArrayLike, y: ArrayLike) -> "KNeighborsRegressor":
        X_arr, y_arr = as_2d_array(X), as_target_array(y)
        check_consistent_length(X_arr, y_arr)
        if X_arr.shape[0] < 1:
            raise DataError("KNN requires at least one training sample")
        self.X_train_ = X_arr
        self.y_train_ = y_arr
        return self

    def kneighbors(
        self, X: ArrayLike, n_neighbors: Optional[int] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Return (distances, indices) of the nearest training samples.

        An empty ``(0, d)`` query batch yields ``(0, k)`` results.
        """
        self._check_fitted("X_train_")
        k = n_neighbors if n_neighbors is not None else self.n_neighbors
        X_arr = as_2d_array(X, allow_empty=True)
        return stable_kneighbors(_cdist(X_arr, self.X_train_), k)

    def _predict(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted("X_train_")
        dist, idx = stable_kneighbors(_cdist(X, self.X_train_), self.n_neighbors)
        w = _neighbor_weights(dist)
        weight_sums = w.sum(axis=1)
        # All-zero weight rows only occur when every neighbour is at
        # infinite distance, which finite inputs reach only when a squared
        # difference overflows; guard to avoid division warnings.
        weight_sums[weight_sums == 0.0] = 1.0  # repro-lint: disable=REP004
        # Targets gathered as one C-ordered (outputs, rows, k) block: each
        # output column reduces its k neighbours along the contiguous last
        # axis, the same reduction a 1-D fit runs on its (rows, k) block.
        targets_by_output = np.ascontiguousarray(self.y_train_.T)
        prediction = (w * targets_by_output[..., idx]).sum(axis=-1) / weight_sums
        return prediction.T
