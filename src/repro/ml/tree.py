"""CART regression trees, grown together from presorted columns.

The trees are the building block of the Random Decision Forest model
(RDF in the paper).  Splitting criterion is variance reduction (MSE);
the implementation supports feature sub-sampling at every split so the
forest can decorrelate its members.

:func:`grow_trees` fits every tree of a forest at once; a single
:class:`DecisionTreeRegressor` is a one-tree call of it.  Each tree's
sample is stable-argsorted per column once per fit, and every node owns
one window of those sorted lists (a split stably partitions the window
into its children's), so a node's sorted column is a slice, not a sort.
Every step takes the next depth-first node of each tree that still has
nodes to grow and scores all (node, sampled feature) pairs in one numpy
pass: a ``cumsum`` along the windows gives the left/right statistics of
every candidate threshold.  The per-node work that fixes the bits — the
feature draw in depth-first preorder on the tree's own generator, the
target sums over the node's rows in their original order and the leaf
mean — stays per node, so the trees are bit-identical to the ones a
recursive one-node-at-a-time builder grows.

A fitted tree is stored only as a **flattened columnar layout** —
parallel ``feature_``/``threshold_``/``children_left_``/
``children_right_``/``value_`` arrays indexed by node id, root at 0,
children in breadth-first order, ``feature_ == -1`` marking leaves.
``predict`` traverses the flat arrays level-synchronously: all query
rows step one tree level per numpy operation, and
:class:`~repro.ml.forest.RandomForestRegressor` concatenates the
per-tree arrays (child indices shifted by node offsets) to batch the
whole ensemble the same way.
"""

from __future__ import annotations

import numbers
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError, DataError
from repro.ml.base import ArrayLike, Regressor, validate_fit_args
from repro.telemetry import get_telemetry

#: ``max_features`` forms: all features (None), a rule name, a count or
#: a fraction of the features.
MaxFeatures = Union[str, int, float, None]

#: A split must reduce the node's impurity by strictly more than this.
_MIN_GAIN = 1e-12

#: Bound on trees x (features + 1) x rows grown in one lockstep pass.
#: Each entry costs ~16 bytes of presorted state and, at the widest
#: step, ~80 bytes of scoring temporaries.
_LOCKSTEP_ELEMENTS = 1 << 20


class FlatTree(NamedTuple):
    """Breadth-first node arrays of one fitted tree."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray


def check_tree_params(
    max_depth: Optional[int],
    min_samples_split: int,
    min_samples_leaf: int,
    max_features: MaxFeatures,
) -> None:
    """Raise :class:`ConfigurationError` for a tree configuration no fit accepts."""
    if min_samples_split < 2:
        raise ConfigurationError("min_samples_split must be >= 2")
    if min_samples_leaf < 1:
        raise ConfigurationError("min_samples_leaf must be >= 1")
    if max_depth is not None and max_depth < 0:
        raise ConfigurationError("max_depth must be None or >= 0")
    if max_features is None:
        return
    if isinstance(max_features, str):
        if max_features not in ("sqrt", "log2"):
            raise ConfigurationError(f"Unknown max_features {max_features!r}")
    elif isinstance(max_features, numbers.Integral):
        if max_features < 1:
            raise ConfigurationError("an integer max_features must be >= 1")
    elif isinstance(max_features, numbers.Real):
        if not 0.0 < max_features <= 1.0:
            raise ConfigurationError("a float max_features must lie in (0, 1]")
    else:
        raise ConfigurationError(f"Unknown max_features {max_features!r}")


def n_split_features(max_features: MaxFeatures, n_features: int) -> int:
    """Number of features a split samples for a validated ``max_features``."""
    if max_features is None:
        return n_features
    if max_features == "sqrt":
        return max(1, int(np.sqrt(n_features)))
    if max_features == "log2":
        return max(1, int(np.log2(n_features)))
    if isinstance(max_features, numbers.Integral):
        return min(int(max_features), n_features)
    return max(1, int(max_features * n_features))


def flat_tree_predict(
    feature: np.ndarray,
    threshold: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    value: np.ndarray,
    X: np.ndarray,
    node_ids: Optional[np.ndarray] = None,
    row_ids: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Level-synchronous traversal of one (or many concatenated) flat trees.

    ``node_ids``/``row_ids`` generalize the traversal to a forest: entry
    ``i`` starts at node ``node_ids[i]`` and reads feature values from
    ``X[row_ids[i]]``.  When omitted, every row of ``X`` starts at the
    root of a single tree (node 0).  Each loop iteration advances every
    still-internal entry by exactly one level, so the number of numpy
    passes is the tree depth, not the row count.
    """
    if node_ids is None:
        state = np.zeros(X.shape[0], dtype=np.int64)
    else:
        state = np.array(node_ids, dtype=np.int64)
    rows = np.arange(state.shape[0]) if row_ids is None else np.asarray(row_ids)

    active = np.nonzero(feature[state] >= 0)[0]
    while active.size:
        node = state[active]
        split_feature = feature[node]
        go_left = X[rows[active], split_feature] <= threshold[node]
        state[active] = np.where(go_left, left[node], right[node])
        active = active[feature[state[active]] >= 0]
    return value[state]


class _TreeBuild:
    """Growth record of one tree; node ids are creation order.

    A pending node is ``(id, depth, start, stop)``: its sample rows are
    positions ``start:stop`` of every presorted column of the tree.
    """

    def __init__(self, rng: np.random.Generator, n_rows: int) -> None:
        self.rng = rng
        self.stack = [(0, 0, 0, n_rows)]   # next node on top
        self.preorder: List[int] = []
        self.depth = [0]
        self.value = [0.0]
        self.feature = [-1]
        self.threshold = [0.0]
        self.left = [-1]

    def split(self, node: Tuple[int, int, int, int], feature: int,
              threshold: float, n_left: int) -> None:
        """Record a split of ``node`` and push its children, left on top."""
        node_id, depth, start, stop = node
        child = len(self.depth)
        self.feature[node_id] = feature
        self.threshold[node_id] = threshold
        self.left[node_id] = child
        self.depth += [depth + 1, depth + 1]
        self.value += [0.0, 0.0]
        self.feature += [-1, -1]
        self.threshold += [0.0, 0.0]
        self.left += [-1, -1]
        middle = start + n_left
        self.stack += [(child + 1, depth + 1, middle, stop),
                       (child, depth + 1, start, middle)]

    def flat(self) -> FlatTree:
        """Breadth-first layout: preorder stably sorted by depth."""
        preorder = np.asarray(self.preorder, dtype=np.int64)
        bfs = preorder[np.argsort(np.asarray(self.depth)[preorder], kind="stable")]
        new_id = np.empty(bfs.shape[0], dtype=np.int64)
        new_id[bfs] = np.arange(bfs.shape[0])
        feature = np.asarray(self.feature, dtype=np.int64)[bfs]
        left = np.asarray(self.left, dtype=np.int64)[bfs]
        internal = feature >= 0
        return FlatTree(
            feature,
            np.asarray(self.threshold, dtype=np.float64)[bfs],
            np.where(internal, new_id[left], -1),
            np.where(internal, new_id[left + 1], -1),
            np.asarray(self.value, dtype=np.float64)[bfs],
        )


def _best_thresholds(
    col_sorted: np.ndarray,
    y_sorted: np.ndarray,
    n: np.ndarray,
    node_sum: np.ndarray,
    node_sq: np.ndarray,
    impurity: np.ndarray,
    min_samples_leaf: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Best split position and gain of each row of sorted node samples.

    Row ``p`` holds one node's samples sorted by one feature in its
    first ``n[p]`` entries (the rest is ignored, and ``y_sorted`` is
    overwritten); ``node_sum``, ``node_sq`` and ``impurity`` are that
    node's target sum, sum of squares and variance.  Returns, per row, the first position ``i``
    maximising the variance reduction of splitting after sorted sample
    ``i`` and that reduction (``-inf`` if no split is valid).  Element
    for element, the arithmetic is that of a one-node cumulative-sum
    scan, so the gains are bit-identical to it.
    """
    cum_sum = np.cumsum(y_sorted, axis=1)[:, :-1]
    cum_sq = np.cumsum(np.square(y_sorted, out=y_sorted), axis=1, out=y_sorted)[:, :-1]
    # Candidate split after sorted position i: left = [0..i].  Counts are
    # small integers, exact as floats.
    left_counts = np.arange(1.0, col_sorted.shape[1])
    right_counts = n - left_counts
    valid = (
        (left_counts >= min_samples_leaf)
        & (right_counts >= min_samples_leaf)
        & (col_sorted[:, :-1] < col_sorted[:, 1:])   # only between distinct values
    )
    # In place, operation for operation:
    #   left  = lc * (left_sq / lc - (left_sum / lc) ** 2)
    #   right = rc * (right_sq / rc - (right_sum / rc) ** 2)
    #   gain  = impurity - (left + right) / n
    with np.errstate(divide="ignore", invalid="ignore"):
        left = cum_sq / left_counts
        mean = cum_sum / left_counts
        left -= np.square(mean, out=mean)
        left *= left_counts
        right = np.subtract(node_sq, cum_sq, out=cum_sq)
        right /= right_counts
        right_sum = np.subtract(node_sum, cum_sum, out=cum_sum)
        right_sum /= right_counts
        right -= np.square(right_sum, out=right_sum)
        right *= right_counts
        left += right
        left /= n
    gain = np.subtract(impurity, left, out=left)
    gain[~valid] = -np.inf
    best = gain.argmax(axis=1)
    return best, gain[np.arange(gain.shape[0]), best]


def grow_trees(
    X: np.ndarray,
    y: np.ndarray,
    samples: np.ndarray,
    rngs: Sequence[np.random.Generator],
    max_depth: Optional[int],
    min_samples_split: int,
    min_samples_leaf: int,
    max_features: MaxFeatures,
) -> List[FlatTree]:
    """Grow one CART tree per row of ``samples`` (row indices into ``X``).

    Tree ``t`` fits ``(X[samples[t]], y[samples[t]])`` and draws its
    split features from ``rngs[t]``.  Trees advance together, one
    depth-first node each per step (see the module docstring), in chunks
    small enough to bound the presorted state's memory.
    """
    n_trees, n_rows = samples.shape
    chunk = max(1, _LOCKSTEP_ELEMENTS // ((X.shape[1] + 1) * n_rows))
    trees: List[FlatTree] = []
    steps = 0
    for first in range(0, n_trees, chunk):
        grown, chunk_steps = _grow_lockstep(
            X, y, samples[first:first + chunk], rngs[first:first + chunk],
            max_depth, min_samples_split, min_samples_leaf, max_features,
        )
        trees += grown
        steps += chunk_steps
    telemetry = get_telemetry()
    if telemetry.enabled:
        telemetry.incr("ml.forest_nodes", sum(tree.feature.shape[0] for tree in trees))
        telemetry.incr("ml.forest_steps", steps)
    return trees


def _grow_lockstep(
    X: np.ndarray,
    y: np.ndarray,
    samples: np.ndarray,
    rngs: Sequence[np.random.Generator],
    max_depth: Optional[int],
    min_samples_split: int,
    min_samples_leaf: int,
    max_features: MaxFeatures,
) -> Tuple[List[FlatTree], int]:
    """Grow the trees of ``samples`` together; returns them and the step count."""
    n_trees, n_rows = samples.shape
    n_features = X.shape[1]
    n_lists = n_features + 1
    span = 2 * n_rows
    n_draw = n_split_features(max_features, n_features)
    # Flat views indexed ((tree * n_features) + feature) * n_rows + row
    # and tree * n_rows + row.
    columns = np.ascontiguousarray(X[samples].transpose(0, 2, 1))
    column_values = columns.reshape(-1)
    targets = y[samples].reshape(-1)
    # List f < n_features of tree t holds its sample rows by ascending
    # column f (stable); list n_features keeps them in sample order.  Every
    # pending node owns the same positions start:stop of each list, and a
    # split stably partitions them, so each list stays sorted within every
    # node.  The second half of each list is padding that lets a node's
    # window run past its end.
    order = np.zeros((n_trees, n_lists, span), dtype=np.int32)
    order[:, :n_features, :n_rows] = np.argsort(columns, axis=2, kind="stable")
    order[:, n_features, :n_rows] = np.arange(n_rows)
    lists = order.reshape(-1)
    builds = [_TreeBuild(rng, n_rows) for rng in rngs]
    steps = 0

    active = list(range(n_trees))
    while active:
        steps += 1
        trees = np.asarray(active)
        popped = [builds[t].stack.pop() for t in active]
        starts = np.array([node[2] for node in popped])
        counts = np.array([node[3] for node in popped]) - starts
        width = np.arange(int(counts.max()))
        in_node = width < counts[:, None]
        sample_rows = lists[((trees * n_lists + n_features) * span + starts)[:, None] + width]
        step_y = targets[(trees * n_rows)[:, None] + sample_rows]
        member_y = step_y[in_node]
        constant = (
            np.where(in_node, step_y, -np.inf).max(axis=1)
            == np.where(in_node, step_y, np.inf).min(axis=1)
        )
        bounds = np.concatenate(([0], np.cumsum(counts))).tolist()

        # Per node, on its targets in sample order: the leaf value, the
        # stopping rules and the feature draw in depth-first preorder.
        splitting = []
        draws = []
        sums = []
        squares = []
        impurity = []
        for k, (node, depth, _start, _stop) in enumerate(popped):
            build = builds[active[k]]
            build.preorder.append(node)
            m = bounds[k + 1] - bounds[k]
            node_y = member_y[bounds[k]:bounds[k + 1]]
            total_sum = node_y.sum()
            build.value[node] = float(total_sum / m)
            if (
                m < min_samples_split
                or (max_depth is not None and depth >= max_depth)
                or constant[k]
            ):
                continue
            if n_draw < n_features:
                draws.append(build.rng.choice(n_features, size=n_draw, replace=False))
            else:
                draws.append(np.arange(n_features))
            total_sq = (node_y ** 2).sum()
            splitting.append(k)
            sums.append(total_sum)
            squares.append(total_sq)
            impurity.append(total_sq / m - (total_sum / m) ** 2)
        if not splitting:
            active = [t for t in active if builds[t].stack]
            continue

        # Score every (node, sampled feature) pair at once.
        split_at = np.asarray(splitting)
        pair_node = np.repeat(split_at, n_draw)
        pair_tree = trees[pair_node]
        pair_feature = np.concatenate(draws)
        n = counts[pair_node][:, None].astype(np.float64)
        width = np.arange(int(counts[split_at].max()))
        rows = lists[
            ((pair_tree * n_lists + pair_feature) * span + starts[pair_node])[:, None] + width
        ]
        col_sorted = column_values[
            ((pair_tree * n_features + pair_feature) * n_rows)[:, None] + rows
        ]
        pair_best, pair_gain = _best_thresholds(
            col_sorted,
            targets[(pair_tree * n_rows)[:, None] + rows],
            n,
            np.repeat(sums, n_draw)[:, None],
            np.repeat(squares, n_draw)[:, None],
            np.repeat(impurity, n_draw)[:, None],
            min_samples_leaf,
        )
        # The first sampled feature reaching the node's best gain, if that
        # gain clears the minimum.
        node_gain = pair_gain.reshape(-1, n_draw)
        choice = node_gain.argmax(axis=1)
        chosen = np.nonzero(node_gain[np.arange(choice.shape[0]), choice] > _MIN_GAIN)[0]
        if chosen.size:
            pair = chosen * n_draw + choice[chosen]
            at = pair_best[pair]
            threshold = 0.5 * (col_sorted[pair, at] + col_sorted[pair, at + 1])
            feature = pair_feature[pair]
            split_nodes = split_at[chosen]
            split_trees = trees[split_nodes]
            goes_left = (
                columns[split_trees, feature] <= threshold[:, None]
            ).reshape(-1)
            # Stably partition every list of each split node: left rows,
            # then right rows, then the untouched positions past the node.
            split_counts = counts[split_nodes]
            width = np.arange(int(split_counts.max()))
            window = (
                ((split_trees * n_lists)[:, None] + np.arange(n_lists)) * span
                + starts[split_nodes][:, None]
            )[:, :, None] + width
            node_lists = lists[window]
            side = np.where(
                width < split_counts[:, None, None],
                ~goes_left[(np.arange(chosen.shape[0]) * n_rows)[:, None, None] + node_lists],
                2,
            ).astype(np.int8)
            lists[window] = np.take_along_axis(
                node_lists, np.argsort(side, axis=2, kind="stable"), axis=2
            )
            n_left = (side[:, n_features] == 0).sum(axis=1)
            if np.any((n_left == 0) | (n_left == split_counts)):
                # Only a midpoint that overflows or underflows does this;
                # the child would repeat its parent forever.
                raise DataError(
                    "cannot split: a threshold midpoint rounds onto one side "
                    "(feature values at the limits of the float range)"
                )
            n_left = n_left.tolist()
            for i, k in enumerate(split_nodes.tolist()):
                builds[active[k]].split(
                    popped[k], int(feature[i]), float(threshold[i]), n_left[i]
                )
        active = [t for t in active if builds[t].stack]
    return [build.flat() for build in builds], steps


class DecisionTreeRegressor(Regressor):
    """CART regression tree with MSE splitting."""

    def __init__(
        self,
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: MaxFeatures = None,
        random_state: Optional[int] = None,
    ) -> None:
        check_tree_params(max_depth, min_samples_split, min_samples_leaf, max_features)
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state

    def _set_flat(self, tree: FlatTree, n_features: int) -> "DecisionTreeRegressor":
        self.n_features_ = n_features
        (
            self.feature_,
            self.threshold_,
            self.children_left_,
            self.children_right_,
            self.value_,
        ) = tree
        return self

    def fit(self, X: ArrayLike, y: ArrayLike) -> "DecisionTreeRegressor":
        X_arr, y_arr = validate_fit_args(X, y)
        (tree,) = grow_trees(
            X_arr, y_arr, np.arange(X_arr.shape[0])[None, :],
            [np.random.default_rng(self.random_state)],
            self.max_depth, self.min_samples_split, self.min_samples_leaf,
            self.max_features,
        )
        return self._set_flat(tree, X_arr.shape[1])

    def _predict(self, X_arr: np.ndarray) -> np.ndarray:
        self._check_fitted("feature_")
        if X_arr.shape[1] != self.n_features_:
            raise ValueError(
                f"X has {X_arr.shape[1]} features, tree was fitted with {self.n_features_}"
            )
        return flat_tree_predict(
            self.feature_, self.threshold_, self.children_left_,
            self.children_right_, self.value_, X_arr,
        )
