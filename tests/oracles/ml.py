"""Per-row oracles of the ML estimators: tree growth and prediction.

:func:`fit_tree_oracle` grows one tree node by node exactly as the
library did before its trees were grown together: a recursive
``_build`` that draws the split features in depth-first preorder on the
tree's own generator, and a ``_best_split`` that argsorts every sampled
column of the node and scans it with cumulative sums.
:func:`fit_forest_oracle` draws each tree's seed and bootstrap sample in
the library's order and fits the trees one after another.  Both return
the breadth-first flat node arrays the library stores, so tests compare
them bit for bit.  :func:`choice_from_words` is a scalar
``Generator.choice`` on a stream of 32-bit words, for checking the
library's bulk feature draws on crafted streams that numpy itself cannot
be made to produce.

The prediction oracles are the pre-vectorized estimator prediction
paths, one row at a time:

* tree and forest predictions are **bit-identical** to walking each
  fitted tree's flat node arrays one row and one node at a time (same
  float comparisons, same stored leaf means, same tree-order sequential
  sum for the ensemble mean);
* ``kneighbors`` / KNN predictions are **bit-identical** to a full
  per-row stable ``(distance, training index)`` sort over the same
  distance matrix (the oracle shares the distance kernel on purpose —
  it isolates selection/tie-break correctness; the kernel itself is
  pinned separately in the distance tests).

:class:`ReferenceKNeighborsRegressor` is a drop-in KNN subclass whose
``predict`` uses the loopy path, so ``cross_val_predict_groups`` can run
the paper's leave-one-workload-out protocol through either path.

:func:`tree_depth` and :func:`r2_score` are the introspection and
accuracy measures the model tests assert on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, NamedTuple, Optional

import numpy as np
from scipy.spatial.distance import cdist

from repro.ml.base import ArrayLike, as_2d_array
from repro.ml.forest import RandomForestRegressor
from repro.ml.knn import KNeighborsRegressor, _neighbor_weights
from repro.ml.tree import DecisionTreeRegressor


@dataclass
class _Node:
    """A single node of a regression tree."""

    prediction: float
    feature: int = -1
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class FlatTree(NamedTuple):
    """Breadth-first node arrays of one tree, root at 0, leaves ``-1``."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray


class FlatForest(NamedTuple):
    """Per-tree flat arrays plus the concatenated ensemble arrays."""

    trees: List[FlatTree]
    roots: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray


def _flatten_tree(root: _Node) -> FlatTree:
    """Breadth-first columnar layout of a linked tree."""
    nodes = [root]
    feature = []
    threshold = []
    left = []
    right = []
    value = []
    cursor = 0
    while cursor < len(nodes):
        node = nodes[cursor]
        cursor += 1
        value.append(node.prediction)
        if node.is_leaf:
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
        else:
            feature.append(node.feature)
            threshold.append(node.threshold)
            left.append(len(nodes))
            nodes.append(node.left)
            right.append(len(nodes))
            nodes.append(node.right)
    return FlatTree(
        np.asarray(feature, dtype=np.int64),
        np.asarray(threshold, dtype=np.float64),
        np.asarray(left, dtype=np.int64),
        np.asarray(right, dtype=np.int64),
        np.asarray(value, dtype=np.float64),
    )


def _best_split(
    X: np.ndarray,
    y: np.ndarray,
    feature_indices: np.ndarray,
    min_samples_leaf: int,
):
    """Find the (feature, threshold) split minimising weighted child variance."""
    n = y.shape[0]
    total_sum = y.sum()
    total_sq = (y ** 2).sum()
    parent_impurity = total_sq / n - (total_sum / n) ** 2

    best = None
    best_gain = 1e-12   # require strictly positive gain
    for feature in feature_indices:
        column = X[:, feature]
        order = np.argsort(column, kind="mergesort")
        col_sorted = column[order]
        y_sorted = y[order]

        cum_sum = np.cumsum(y_sorted)
        cum_sq = np.cumsum(y_sorted ** 2)

        # candidate split after position i (left = [0..i], right = [i+1..n-1])
        left_counts = np.arange(1, n)
        right_counts = n - left_counts

        valid = (
            (left_counts >= min_samples_leaf)
            & (right_counts >= min_samples_leaf)
            & (col_sorted[:-1] < col_sorted[1:])   # only between distinct values
        )
        if not np.any(valid):
            continue

        left_sum = cum_sum[:-1]
        left_sq = cum_sq[:-1]
        right_sum = total_sum - left_sum
        right_sq = total_sq - left_sq

        left_var = left_sq / left_counts - (left_sum / left_counts) ** 2
        right_var = right_sq / right_counts - (right_sum / right_counts) ** 2
        weighted = (left_counts * left_var + right_counts * right_var) / n
        gain = parent_impurity - weighted
        gain[~valid] = -np.inf

        idx = int(np.argmax(gain))
        if gain[idx] > best_gain:
            best_gain = float(gain[idx])
            threshold = 0.5 * (col_sorted[idx] + col_sorted[idx + 1])
            best = (int(feature), float(threshold), best_gain)

    return best


def _n_split_features(max_features, n_features: int) -> int:
    if max_features is None:
        return n_features
    if isinstance(max_features, str):
        if max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        return max(1, int(np.log2(n_features)))
    if isinstance(max_features, float):
        return max(1, int(max_features * n_features))
    return max(1, min(int(max_features), n_features))


def _build(
    tree: DecisionTreeRegressor,
    X: np.ndarray,
    y: np.ndarray,
    depth: int,
    rng: np.random.Generator,
) -> _Node:
    node = _Node(prediction=float(np.mean(y)))
    n_samples, n_features = X.shape

    if (
        n_samples < tree.min_samples_split
        or (tree.max_depth is not None and depth >= tree.max_depth)
        or np.all(y == y[0])
    ):
        return node

    n_split_features = _n_split_features(tree.max_features, n_features)
    if n_split_features < n_features:
        feature_indices = rng.choice(n_features, size=n_split_features, replace=False)
    else:
        feature_indices = np.arange(n_features)

    split = _best_split(X, y, feature_indices, tree.min_samples_leaf)
    if split is None:
        return node

    feature, threshold, _gain = split
    mask = X[:, feature] <= threshold
    node.feature = feature
    node.threshold = threshold
    node.left = _build(tree, X[mask], y[mask], depth + 1, rng)
    node.right = _build(tree, X[~mask], y[~mask], depth + 1, rng)
    return node


def raw_words(raw: Iterable[int]) -> Iterator[int]:
    """The 32-bit words PCG64 deals out of 64-bit outputs: low, then high half."""
    for value in raw:
        yield int(value) & 0xFFFFFFFF
        yield int(value) >> 32


def choice_from_words(words: Iterator[int], n: int, k: int) -> np.ndarray:
    """``Generator.choice(n, k, replace=False)`` computed from a word stream.

    One word at a time: Floyd's algorithm (a pick already taken becomes
    the top of its range ``j``) over Lemire bounded draws, then a
    Fisher-Yates shuffle of the picks.  A Lemire draw on ``0..high``
    rejects a word whose low product word falls below
    ``2**32 % (high + 1)`` and takes the next one.  This is numpy's path
    for ``n <= 10000`` or ``k <= n // 50``.
    """
    def bounded(high: int) -> int:
        if high == 0:
            return 0
        span = high + 1
        while True:
            product = next(words) * span
            if product & 0xFFFFFFFF >= (1 << 32) % span:
                return product >> 32

    picks: List[int] = []
    for j in range(n - k, n):
        pick = bounded(j)
        picks.append(j if pick in picks else pick)
    for i in range(k - 1, 0, -1):
        j = bounded(i)
        picks[i], picks[j] = picks[j], picks[i]
    return np.array(picks, dtype=np.int64)


def fit_tree_oracle(tree: DecisionTreeRegressor, X: np.ndarray, y: np.ndarray) -> FlatTree:
    """Grow ``tree``'s configuration recursively on ``(X, y)``; ``tree`` is not fitted."""
    X_arr = np.asarray(X, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    rng = np.random.default_rng(tree.random_state)
    return _flatten_tree(_build(tree, X_arr, y_arr, depth=0, rng=rng))


def fit_forest_oracle(forest, X: np.ndarray, y: np.ndarray) -> FlatForest:
    """Fit ``forest``'s trees one at a time, each on its bootstrap resample."""
    X_arr = np.asarray(X, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    rng = np.random.default_rng(forest.random_state)
    n_samples = X_arr.shape[0]
    trees = []
    for _ in range(forest.n_estimators):
        tree = DecisionTreeRegressor(
            max_depth=forest.max_depth,
            min_samples_split=forest.min_samples_split,
            min_samples_leaf=forest.min_samples_leaf,
            max_features=forest.max_features,
            random_state=int(rng.integers(0, 2 ** 31 - 1)),
        )
        if forest.bootstrap:
            indices = rng.integers(0, n_samples, size=n_samples)
        else:
            indices = np.arange(n_samples)
        trees.append(fit_tree_oracle(tree, X_arr[indices], y_arr[indices]))

    node_counts = np.array([t.feature.shape[0] for t in trees])
    roots = np.concatenate(([0], np.cumsum(node_counts)[:-1]))
    offsets = np.repeat(roots, node_counts)
    feature = np.concatenate([t.feature for t in trees])
    internal = feature >= 0
    left = np.concatenate([t.left for t in trees])
    right = np.concatenate([t.right for t in trees])
    return FlatForest(
        trees=trees,
        roots=roots,
        feature=feature,
        threshold=np.concatenate([t.threshold for t in trees]),
        left=np.where(internal, left + offsets, -1),
        right=np.where(internal, right + offsets, -1),
        value=np.concatenate([t.value for t in trees]),
    )


# ---------------------------------------------------------------------------
# Prediction, one query row at a time.
# ---------------------------------------------------------------------------
def tree_depth(tree: DecisionTreeRegressor, node: int = 0) -> int:
    """Depth below ``node`` of a fitted tree's flat arrays (0 for a leaf)."""
    if tree.feature_[node] < 0:
        return 0
    return 1 + max(
        tree_depth(tree, tree.children_left_[node]),
        tree_depth(tree, tree.children_right_[node]),
    )


def r2_score(model, X: ArrayLike, y: ArrayLike) -> float:
    """Coefficient of determination R^2 of ``model``'s predictions on ``(X, y)``."""
    y_true = np.asarray(y, dtype=float)
    residual = np.sum((y_true - model.predict(X)) ** 2)
    total = np.sum((y_true - y_true.mean()) ** 2)
    return float(1.0 - residual / total)


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
    dist = cdist(X_arr, model.X_train_)
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
        w = _neighbor_weights(nearest[row][None, :])[0]
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

    def _predict(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted("X_train_")
        return reference_knn_predict(self, X)
