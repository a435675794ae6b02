"""Recursive CART builder: the oracle of the lockstep forest grower.

:func:`fit_tree_oracle` grows one tree node by node exactly as the
library did before its trees were grown together: a recursive
``_build`` that draws the split features in depth-first preorder on the
tree's own generator, and a ``_best_split`` that argsorts every sampled
column of the node and scans it with cumulative sums.
:func:`fit_forest_oracle` draws each tree's seed and bootstrap sample in
the library's order and fits the trees one after another.  Both return
the breadth-first flat node arrays the library stores, so tests compare
them bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional

import numpy as np

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
