"""Random Decision Forest regression (RDF in the paper).

``fit`` draws every tree's seed and bootstrap resample up front, then
grows all trees together with :func:`repro.ml.tree.grow_trees` (one
depth-first node per tree per step, all candidate splits scored in one
numpy pass).  The fitted ensemble is stored as one set of concatenated
flat-tree columns (per-tree node arrays with child indices shifted by
each tree's node offset), so ``predict`` traverses every (tree, row)
pair level-synchronously in a single numpy state vector instead of
looping trees in Python.  The ensemble mean is a sequential sum in tree
order (an ``np.cumsum`` along the tree axis), which a reduction over
that axis would give only for batches of more than one row; so a row's
prediction has the same bits whatever batch it is part of.

A target matrix ``(n, R)`` grows one forest per column with the same
seeds and bootstrap draws a 1-D fit uses, stored one after another in
the same flat arrays (column ``r`` owns trees ``r*T .. (r+1)*T - 1``),
so every output column is bit-identical to its own single-output
forest.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.ml.base import (
    ArrayLike,
    Regressor,
    as_2d_array,
    as_target_array,
    check_consistent_length,
)
from repro.ml.tree import (
    DecisionTreeRegressor,
    MaxFeatures,
    check_tree_params,
    flat_tree_predict,
    grow_trees,
)


class RandomForestRegressor(Regressor):
    """Bagged ensemble of CART trees with per-split feature sub-sampling.

    Each tree is trained on a bootstrap resample of the data and restricted
    to a random subset of features at every split, which is what lets the
    forest cope with the paper's third input set (all 249 features, most of
    which are irrelevant) better than SVM or KNN.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: MaxFeatures = "sqrt",
        bootstrap: bool = True,
        random_state: Optional[int] = None,
    ) -> None:
        if n_estimators < 1:
            raise ConfigurationError("n_estimators must be >= 1")
        check_tree_params(max_depth, min_samples_split, min_samples_leaf, max_features)
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state

    def fit(self, X: ArrayLike, y: ArrayLike) -> "RandomForestRegressor":
        X_arr, y_arr = as_2d_array(X), as_target_array(y)
        check_consistent_length(X_arr, y_arr)
        rng = np.random.default_rng(self.random_state)
        n_samples, n_features = X_arr.shape
        self.n_features_ = n_features
        self.n_outputs_ = y_arr.shape[1] if y_arr.ndim == 2 else None
        seeds = []
        samples = []
        for _ in range(self.n_estimators):
            seeds.append(int(rng.integers(0, 2 ** 31 - 1)))
            if self.bootstrap:
                samples.append(rng.integers(0, n_samples, size=n_samples))
            else:
                samples.append(np.arange(n_samples))
        bootstraps = np.stack(samples)
        self.estimators_ = []
        for column in np.ascontiguousarray(y_arr.reshape(n_samples, -1).T):
            flat_trees = grow_trees(
                X_arr, column, bootstraps,
                [np.random.default_rng(seed) for seed in seeds],
                self.max_depth, self.min_samples_split, self.min_samples_leaf,
                self.max_features,
            )
            for seed, flat in zip(seeds, flat_trees):
                tree = DecisionTreeRegressor(
                    max_depth=self.max_depth,
                    min_samples_split=self.min_samples_split,
                    min_samples_leaf=self.min_samples_leaf,
                    max_features=self.max_features,
                    random_state=seed,
                )
                self.estimators_.append(tree._set_flat(flat, n_features))
        self._flatten_ensemble()
        return self

    def _flatten_ensemble(self) -> None:
        """Concatenate per-tree flat arrays; child ids become absolute."""
        node_counts = np.array([t.feature_.shape[0] for t in self.estimators_])
        self._roots_ = np.concatenate(([0], np.cumsum(node_counts)[:-1]))
        offsets = np.repeat(self._roots_, node_counts)
        self._feature_ = np.concatenate([t.feature_ for t in self.estimators_])
        self._threshold_ = np.concatenate([t.threshold_ for t in self.estimators_])
        self._value_ = np.concatenate([t.value_ for t in self.estimators_])
        left = np.concatenate([t.children_left_ for t in self.estimators_])
        right = np.concatenate([t.children_right_ for t in self.estimators_])
        # Leaves keep their -1 sentinel children (never dereferenced).
        internal = self._feature_ >= 0
        self._left_ = np.where(internal, left + offsets, -1)
        self._right_ = np.where(internal, right + offsets, -1)

    def _predict(self, X_arr: np.ndarray) -> np.ndarray:
        # Prediction needs only the concatenated flat arrays, so a forest
        # restored from the serving model registry (which persists the
        # flat ensemble but not ``estimators_``) predicts identically.
        self._check_fitted("_roots_")
        n_rows = X_arr.shape[0]
        n_trees = self._roots_.shape[0]
        # One flat traversal state per (tree, row) pair: entry t*n_rows + i
        # walks tree t for query row i, all advancing one level per pass.
        node_ids = np.repeat(self._roots_, n_rows)
        row_ids = np.tile(np.arange(n_rows), n_trees)
        leaf_values = flat_tree_predict(
            self._feature_, self._threshold_, self._left_, self._right_,
            self._value_, X_arr, node_ids=node_ids, row_ids=row_ids,
        )
        n_outputs = self.n_outputs_ or 1
        per_tree = leaf_values.reshape(n_outputs, n_trees // n_outputs, n_rows)
        # Sequential tree-order sum: batch-size invariant, and bit-equal to
        # ``mean(axis=0)`` over a multi-row (trees, rows) block.
        mean = np.cumsum(per_tree, axis=1)[:, -1] / per_tree.shape[1]
        return mean[0] if self.n_outputs_ is None else mean.T
