"""K-nearest-neighbours regression.

KNN is the model that achieves the best accuracy in the paper
(Section VI.B): ~10 % mean percentage error for WER with input set 1
and ~4 % for PUE with input set 2.

Distances are scipy's Euclidean ``cdist``, which sums ``(a-b)^2`` in
feature order for each pair from its own two rows alone, so a query's
distances are the same in a one-row call and in any batch.  Neighbour
search is fully deterministic: the k nearest training rows
are the k smallest under the lexicographic ``(distance, training
index)`` order, so equidistant neighbours always resolve to the
lowest-index rows regardless of platform or numpy version.  The hot
path uses ``np.argpartition`` (O(n) selection) plus a stable in-
candidate sort; rows whose k-th distance ties with excluded training
rows — the one case where the partition's pick is arbitrary — fall
back to a full per-row stable sort.

The regressor fits a target vector ``(n,)`` or a target matrix
``(n, R)``: all R output columns share one neighbour search and one set
of weights, and each column is averaged exactly as a 1-D fit on that
column would average it, so every output column is bit-identical to its
own single-output model.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from scipy.spatial.distance import cdist

from repro.errors import ConfigurationError, DataError
from repro.ml.base import (
    ArrayLike,
    Regressor,
    as_2d_array,
    as_target_array,
    check_consistent_length,
)


def stable_kneighbors(dist: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """k smallest entries per row of a distance matrix, ties broken by index.

    Returns ``(distances, indices)``, each of shape ``(n_rows, k)``,
    ordered by ``(distance, column index)`` within every row — the unique
    deterministic neighbour ordering.  Selection is ``argpartition``-based;
    a row falls back to a full stable sort only when its k-th distance
    also occurs beyond the candidate set (boundary tie), where the
    partition's choice between tied columns is otherwise arbitrary.
    """
    n_rows, n_train = dist.shape
    if k >= n_train or n_rows == 0:
        # Stable argsort already breaks distance ties by column index.
        idx = np.argsort(dist, axis=1, kind="stable")[:, :k]
        return np.take_along_axis(dist, idx, axis=1), idx

    candidates = np.argpartition(dist, k - 1, axis=1)[:, :k]
    cand_dist = np.take_along_axis(dist, candidates, axis=1)
    order = np.lexsort((candidates, cand_dist), axis=1)
    idx = np.take_along_axis(candidates, order, axis=1)
    nearest = np.take_along_axis(cand_dist, order, axis=1)

    # Boundary ties: the partition guarantees the k smallest *values*, but
    # when the k-th value also occurs outside the candidate set the choice
    # of which tied columns were kept is arbitrary.  Re-select those rows
    # with a full (distance, index) sort.  Exact float comparison is the
    # point here: only bit-equal distances are ambiguous.
    kth = nearest[:, -1][:, None]
    ties_total = (dist == kth).sum(axis=1)  # repro-lint: disable=REP004
    ties_kept = (nearest == kth).sum(axis=1)  # repro-lint: disable=REP004
    train_index = np.arange(n_train)
    for row in np.nonzero(ties_total > ties_kept)[0]:
        full = np.lexsort((train_index, dist[row]))[:k]
        idx[row] = full
        nearest[row] = dist[row, full]
    return nearest, idx


def _neighbor_weights(distances: np.ndarray, weights: str) -> np.ndarray:
    """Per-neighbour weights for a (n_queries, k) distance matrix."""
    if weights == "uniform":
        return np.ones_like(distances)
    if weights == "distance":
        # Inverse-distance weighting; exact matches dominate entirely.
        with np.errstate(divide="ignore"):
            inv = 1.0 / distances
        exact = ~np.isfinite(inv)
        if np.any(exact):
            inv[exact.any(axis=1)] = 0.0
            inv[exact] = 1.0
        return inv
    raise ConfigurationError(f"Unknown weighting scheme {weights!r}")


class KNeighborsRegressor(Regressor):
    """Brute-force KNN regressor with uniform or inverse-distance weights."""

    def __init__(
        self,
        n_neighbors: int = 5,
        weights: str = "distance",
    ) -> None:
        if n_neighbors < 1:
            raise ConfigurationError("n_neighbors must be >= 1")
        self.n_neighbors = n_neighbors
        self.weights = weights

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
        k = min(k, self.X_train_.shape[0])
        X_arr = as_2d_array(X, allow_empty=True)
        return stable_kneighbors(cdist(X_arr, self.X_train_), k)

    def predict(self, X: ArrayLike) -> np.ndarray:
        self._check_fitted("X_train_")
        dist, idx = self.kneighbors(X)
        w = _neighbor_weights(dist, self.weights)
        weight_sums = w.sum(axis=1)
        # All-zero weight rows only occur with "distance" weights when every
        # neighbour is at infinite distance, which cannot happen with finite
        # inputs; guard anyway to avoid division warnings.
        weight_sums[weight_sums == 0.0] = 1.0  # repro-lint: disable=REP004
        # Targets gathered as one C-ordered (outputs, rows, k) block: each
        # output column reduces its k neighbours along the contiguous last
        # axis, the same reduction a 1-D fit runs on its (rows, k) block.
        targets_by_output = np.ascontiguousarray(self.y_train_.T)
        prediction = (w * targets_by_output[..., idx]).sum(axis=-1) / weight_sums
        return prediction.T
