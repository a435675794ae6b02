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

``fit_many`` fits one forest per training set (the folds of a
leave-one-workload-out study) in one **fold lockstep**: each forest
draws its seeds and bootstraps from its own generator as ``fit`` does,
the sets' rows are stacked into one matrix with each forest's sample
indices offset into it, and one :func:`~repro.ml.tree.grow_trees` call
per target column (and per set shape) grows every forest's trees.  The
per-step numpy overhead a lone 30-tree forest pays alone is then shared
by several forests.  ``fit`` is the one-set case of the same code.
Chunks hold whole forests (:func:`~repro.ml.tree.lockstep_chunks`), so
every tree is bit-identical to the one a lone fit grows.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.ml.base import ArrayLike, Dataset, Regressor, validate_datasets
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
        _fit_forests([self], validate_datasets([(X, y)]))
        return self

    def fit_many(self, datasets: Sequence[Dataset]) -> List["RandomForestRegressor"]:
        """One fitted clone per ``(X, y)`` training set, grown in one lockstep.

        Every clone draws its seeds and bootstraps from its own
        ``random_state`` exactly as :meth:`fit` does, so each equals
        ``clone().fit(X, y)`` on its set tree for tree.
        """
        checked = validate_datasets(datasets)
        forests = [self.clone() for _ in checked]
        _fit_forests(forests, checked)
        return forests

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


def _fit_forests(
    forests: Sequence[RandomForestRegressor],
    datasets: Sequence[Tuple[np.ndarray, np.ndarray]],
) -> None:
    """Fit each unfitted forest on its validated ``(X, y)``, all together.

    Each forest draws every tree's seed and bootstrap from its own
    generator.  Forests whose sets share a shape are grown by one
    :func:`grow_trees` call per target column: their rows are stacked into
    one matrix and each forest's sample indices offset into it, so a tree
    reads the same rows it would read alone.  Chunks hold whole forests
    (see :func:`~repro.ml.tree.lockstep_chunks`).
    """
    template = forests[0]
    drawn = []
    for forest, (X, y) in zip(forests, datasets):
        rng = np.random.default_rng(forest.random_state)
        n_samples = X.shape[0]
        seeds = []
        samples = []
        for _ in range(template.n_estimators):
            seeds.append(int(rng.integers(0, 2 ** 31 - 1)))
            if template.bootstrap:
                samples.append(rng.integers(0, n_samples, size=n_samples))
            else:
                samples.append(np.arange(n_samples))
        drawn.append((seeds, np.stack(samples)))
        forest.n_features_ = X.shape[1]
        forest.n_outputs_ = y.shape[1] if y.ndim == 2 else None
        forest.estimators_ = []

    groups: Dict[Tuple[int, ...], List[int]] = {}
    for index, (X, y) in enumerate(datasets):
        groups.setdefault((*X.shape, *y.shape[1:]), []).append(index)
    for members in groups.values():
        X_stack = np.concatenate([datasets[i][0] for i in members])
        offsets = np.cumsum([0] + [datasets[i][0].shape[0] for i in members[:-1]])
        bootstraps = np.concatenate([
            drawn[i][1] + offset for i, offset in zip(members, offsets)
        ])
        seeds = [seed for i in members for seed in drawn[i][0]]
        columns = np.concatenate([
            datasets[i][1].reshape(datasets[i][0].shape[0], -1) for i in members
        ])
        for column in np.ascontiguousarray(columns.T):
            flat_trees = grow_trees(
                X_stack, column, bootstraps,
                [np.random.default_rng(seed) for seed in seeds],
                template.max_depth, template.min_samples_split, template.min_samples_leaf,
                template.max_features, forest_size=template.n_estimators,
            )
            for seed, flat, i in zip(seeds, flat_trees, np.repeat(members, template.n_estimators)):
                tree = DecisionTreeRegressor(
                    max_depth=template.max_depth,
                    min_samples_split=template.min_samples_split,
                    min_samples_leaf=template.min_samples_leaf,
                    max_features=template.max_features,
                    random_state=seed,
                )
                forests[i].estimators_.append(tree._set_flat(flat, X_stack.shape[1]))
    for forest in forests:
        forest._flatten_ensemble()
