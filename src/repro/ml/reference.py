"""Per-row reference implementations of the vectorized ML hot paths.

Mirroring ``repro.core.reference`` and ``repro.characterization.
reference``, this module keeps the pre-vectorized bodies of the
estimator prediction paths alive as *independent oracles*: the
equivalence suites (``tests/test_ml_vectorized.py``) and the CV
throughput benchmark (``benchmarks/test_ml_throughput.py``) check the
flat-array tree/forest traversals and the ``argpartition`` neighbour
search against these one-row-at-a-time implementations rather than
against themselves.

Contracts pinned by the suites:

* tree and forest predictions are **bit-identical** to walking each
  fitted tree's flat node arrays one row and one node at a time (same
  float comparisons, same stored leaf means, same tree-order sequential
  sum for the ensemble mean);
* ``kneighbors`` / KNN predictions are **bit-identical** to a full
  per-row stable ``(distance, training index)`` sort over the same
  distance matrix (the oracle shares the distance kernel on purpose —
  it isolates selection/tie-break correctness; the kernel itself is
  pinned separately in the distance tests).

The oracle estimators (:class:`ReferenceKNeighborsRegressor`,
:class:`ReferenceRandomForestRegressor`) are drop-in subclasses whose
``predict`` uses the loopy path, so ``cross_val_predict_groups`` can
run the paper's leave-one-workload-out protocol through either path.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import ArrayLike, as_2d_array
from repro.ml.distances import pairwise_distances
from repro.ml.forest import RandomForestRegressor
from repro.ml.knn import KNeighborsRegressor, _neighbor_weights
from repro.ml.tree import DecisionTreeRegressor


def reference_tree_predict(tree: DecisionTreeRegressor, X: ArrayLike) -> np.ndarray:
    """Walk the fitted node arrays one query row and one node at a time."""
    X_arr = as_2d_array(X, allow_empty=True)

    def predict_one(x: np.ndarray) -> float:
        node = 0
        while tree.feature_[node] >= 0:
            if x[tree.feature_[node]] <= tree.threshold_[node]:
                node = tree.children_left_[node]
            else:
                node = tree.children_right_[node]
        return tree.value_[node]

    return np.array([predict_one(row) for row in X_arr])


def reference_forest_predict(forest: RandomForestRegressor, X: ArrayLike) -> np.ndarray:
    """Average per-tree per-row node walks over the fitted ensemble."""
    X_arr = as_2d_array(X, allow_empty=True)
    n_outputs = forest.n_outputs_ or 1
    per_tree = np.stack(
        [reference_tree_predict(tree, X_arr) for tree in forest.estimators_]
    ).reshape(n_outputs, -1, X_arr.shape[0])
    total = per_tree[:, 0].copy()
    for tree in range(1, per_tree.shape[1]):
        total += per_tree[:, tree]
    mean = total / per_tree.shape[1]
    return mean[0] if forest.n_outputs_ is None else mean.T


def reference_kneighbors(
    model: KNeighborsRegressor, X: ArrayLike, n_neighbors: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Full stable per-row sort by ``(distance, training index)``."""
    k = n_neighbors if n_neighbors is not None else model.n_neighbors
    k = min(k, model.X_train_.shape[0])
    X_arr = as_2d_array(X, allow_empty=True)
    dist = pairwise_distances(X_arr, model.X_train_, metric=model.metric)
    train_index = np.arange(model.X_train_.shape[0])
    indices = np.empty((X_arr.shape[0], k), dtype=np.int64)
    nearest = np.empty((X_arr.shape[0], k), dtype=np.float64)
    for row in range(X_arr.shape[0]):
        order = np.lexsort((train_index, dist[row]))[:k]
        indices[row] = order
        nearest[row] = dist[row, order]
    return nearest, indices


def reference_knn_predict(model: KNeighborsRegressor, X: ArrayLike) -> np.ndarray:
    """Weighted neighbour average, one query row at a time."""
    nearest, indices = reference_kneighbors(model, X)
    predictions = np.empty(nearest.shape[0], dtype=np.float64)
    for row in range(nearest.shape[0]):
        w = _neighbor_weights(nearest[row][None, :], model.weights)[0]
        targets = model.y_train_[indices[row]]
        total = w.sum()
        if total == 0.0:  # repro-lint: disable=REP004
            total = 1.0
        predictions[row] = (w * targets).sum() / total
    return predictions


class ReferenceKNeighborsRegressor(KNeighborsRegressor):
    """Oracle KNN: identical fit, per-row full-sort predict."""

    def kneighbors(
        self, X: ArrayLike, n_neighbors: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        self._check_fitted("X_train_")
        return reference_kneighbors(self, X, n_neighbors)

    def predict(self, X: ArrayLike) -> np.ndarray:
        self._check_fitted("X_train_")
        return reference_knn_predict(self, X)


class ReferenceRandomForestRegressor(RandomForestRegressor):
    """Oracle forest: identical fit, per-row node-walk predict."""

    def predict(self, X: ArrayLike) -> np.ndarray:
        self._check_fitted("estimators_")
        return reference_forest_predict(self, X)
