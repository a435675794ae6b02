"""CART regression trees, grown together from presorted columns.

The trees are the building block of the Random Decision Forest model
(RDF in the paper).  Splitting criterion is variance reduction (MSE);
the implementation supports feature sub-sampling at every split so the
forest can decorrelate its members.

:func:`grow_trees` fits every tree of a forest at once; a single
:class:`DecisionTreeRegressor` is a one-tree call of it.  Each tree's
sample is stable-argsorted per column once per fit, and every node owns
one window of those sorted lists (a split stably partitions the window
into its children's, each row's destination a running count of the
rows that go its way), so a node's sorted column is a slice, not a sort.
Every step takes the next depth-first node of each tree that still has
nodes to grow and treats them all with the same array operations: the
pop from per-tree stacks, leaf values and stopping rules, a feature draw
per splitting node, the scoring of all (node, sampled feature) pairs — a
``cumsum`` along the windows gives the left/right statistics of every
candidate threshold — and the partition and record of the splits.  No
Python loop runs over nodes.  The trees are bit-identical to the ones a
recursive one-node-at-a-time builder grows with ``Generator.choice``
draws and ``ndarray.sum`` node sums: :class:`_FeatureDraws` repeats
numpy's ``choice`` arithmetic in bulk, consumed in depth-first preorder,
and :func:`_row_sums` repeats the pairwise order of ``ndarray.sum``
(which ``np.add.reduceat`` does not).

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
#: step, ~80 bytes of scoring temporaries; the node records add ~128
#: bytes per tree row.
_LOCKSTEP_ELEMENTS = 1 << 20

#: Feature draws computed per tree at a time, capped at twice the rows
#: (a bound on a tree's split attempts); a campaign-sized tree makes
#: ~40-70 attempts.
_DRAW_BLOCK = 128

_LOW32 = np.uint64(0xFFFFFFFF)
_HIGH32 = np.uint64(32)


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


class _FeatureDraws:
    """Each tree's successive ``rng.choice(n_features, n_draw, replace=False)``.

    Unless ``n_features > 10000`` and ``n_draw > n_features // 50``,
    numpy's ``Generator.choice`` runs Floyd's algorithm (a pick already
    taken becomes the top of its range) and then shuffles the picks.
    Every pick and every swap is a Lemire bounded draw from one 32-bit
    word of the generator, which PCG64 (the bit generator of
    ``np.random.default_rng``) deals out as the low, then the high half of
    each 64-bit output.  This class repeats that arithmetic on blocks of
    ``block`` draws per tree, from words taken with ``random_raw``, for
    all refilled trees at once.  Lemire's method rejects a word (with
    probability below range / 2**32; a zero word is one) and draws again:
    a rejected word leaves the tree's stream, and the draws from the one
    it hit onward are computed again, so every draw equals ``choice``'s
    bit for bit.  For other generators or outside Floyd's range a block
    is ``block`` calls of ``choice`` itself.
    """

    def __init__(
        self, rngs: Sequence[np.random.Generator], n_features: int, n_draw: int,
        block: int,
    ) -> None:
        self.rngs = rngs
        self.n_features = n_features
        self.n_draw = n_draw
        self.block = block
        self.bulk = all(isinstance(rng.bit_generator, np.random.PCG64) for rng in rngs) and (
            n_features <= 10000 or n_draw <= n_features // 50
        )
        # Words not yet used, per tree; a generator may hold back the high
        # half of its last 64-bit output.
        self._pending = []
        for rng in rngs:
            state = rng.bit_generator.state
            held = [state["uinteger"]] if self.bulk and state["has_uint32"] else []
            self._pending.append(np.array(held, dtype=np.uint64))
        # The Lemire range of each word of one draw: Floyd's picks over
        # 0..j for j = n_features - n_draw .. n_features - 1, then the
        # shuffle's swaps over 0..i for i = n_draw - 1 .. 1.
        ranges = [*range(n_features - n_draw + 1, n_features + 1), *range(n_draw, 1, -1)]
        self._ranges = np.array(ranges, dtype=np.uint64)
        self._thresholds = np.array([(1 << 32) % r for r in ranges], dtype=np.uint64)
        self._draws = np.empty((len(rngs), block, n_draw), dtype=np.int64)
        self._next = np.zeros(len(rngs), dtype=np.int64)
        self._stock = np.zeros(len(rngs), dtype=np.int64)

    def take(self, trees: np.ndarray) -> np.ndarray:
        """The next draw of each of ``trees`` (distinct indices), one row each."""
        empty = trees[self._next[trees] == self._stock[trees]]
        if empty.size:
            self._next[empty] = 0
            self._stock[empty] = self.block
            if self.bulk:
                self._refill(empty)
            else:
                for tree in empty.tolist():
                    self._draws[tree] = [
                        self.rngs[tree].choice(self.n_features, self.n_draw, replace=False)
                        for _ in range(self.block)
                    ]
        picks = self._draws[trees, self._next[trees]]
        self._next[trees] += 1
        return picks

    def _refill(self, trees: np.ndarray) -> None:
        size = self._ranges.shape[0]
        need = self.block * size
        tree_list = trees.tolist()
        raw = np.stack([
            self.rngs[tree].bit_generator.random_raw((need + 1) // 2) for tree in tree_list
        ])
        words = np.stack((raw & _LOW32, raw >> _HIGH32), axis=2).reshape(len(tree_list), -1)
        if words.shape[1] > need or any(self._pending[tree].size for tree in tree_list):
            streams = [
                np.concatenate((self._pending[tree], row)) for tree, row in zip(tree_list, words)
            ]
            words = np.stack([stream[:need] for stream in streams])
            for tree, stream in zip(tree_list, streams):
                self._pending[tree] = stream[need:]
        scaled = words.reshape(-1, size) * self._ranges
        self._draws[trees] = _floyd_shuffle(
            (scaled >> _HIGH32).astype(np.int64), self.n_features
        ).reshape(len(tree_list), self.block, self.n_draw)
        rejected = ((scaled & _LOW32) < self._thresholds).reshape(len(tree_list), need)
        if not rejected.any():
            return
        for row in np.nonzero(rejected.any(axis=1))[0].tolist():
            tree = tree_list[row]
            first = int(rejected[row].argmax())
            kept = first // size
            self._stock[tree] = kept
            self._pending[tree] = np.concatenate(
                (words[row, kept * size:first], words[row, first + 1:], self._pending[tree])
            )
        drained = trees[self._stock[trees] == 0]
        if drained.size:
            self._stock[drained] = self.block
            self._refill(drained)


def _floyd_shuffle(picks: np.ndarray, n_features: int) -> np.ndarray:
    """``choice`` results from the bounded draws in each row of ``picks``.

    A row holds one draw's ``k`` Floyd picks, then its ``k - 1`` shuffle
    swap positions (see :class:`_FeatureDraws`).
    """
    n_draws, size = picks.shape
    k = (size + 1) // 2
    rows = np.arange(n_draws)
    taken = np.zeros((n_draws, n_features), dtype=bool)
    chosen = np.empty((n_draws, k), dtype=np.int64)
    for i in range(k):
        pick = picks[:, i]
        pick = np.where(taken[rows, pick], n_features - k + i, pick)
        taken[rows, pick] = True
        chosen[:, i] = pick
    for i in range(k - 1, 0, -1):
        j = picks[:, 2 * k - 1 - i]
        swapped = chosen[rows, j]
        chosen[rows, j] = chosen[:, i]
        chosen[:, i] = swapped
    return chosen


def _row_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``values[i, :counts[i]].sum()`` of every row, bit for bit.

    Entries past a row's count must be zeros.  ``ndarray.sum`` adds a
    contiguous float64 run to its starting value +0.0 pairwise, and
    ``np.add.reduceat`` does not repeat that order; this makes the same
    additions on all rows at once (see :func:`_pairwise_sums`).
    """
    return np.add(0.0, _pairwise_sums(values, counts))


def _pairwise_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """numpy's pairwise sum of the first ``counts[i]`` entries of each row.

    A run longer than 128 splits after the largest multiple of 8 not
    beyond its half, and each part sums on its own.  A shorter run adds
    its first ``counts - counts % 8`` entries into 8 interleaved partial
    sums in order, adds those as ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) +
    (r6 + r7))`` and then its last ``counts % 8`` entries one by one.
    Entries past a row's count must be zeros: adding a zero changes no
    sum but the sign of a zero one, and the +0.0 start of
    :func:`_row_sums` makes every zero sum +0.0.
    """
    n_rows, width = values.shape
    if counts.max(initial=0) > 128:
        long = counts > 128
        sums = np.empty(n_rows)
        sums[~long] = _pairwise_sums(values[~long], counts[~long])
        long_values = values[long]
        long_counts = counts[long]
        half = long_counts // 2
        half -= half % 8
        position = np.arange(width)
        shifted = half[:, None] + position
        upper = np.where(
            shifted < width,
            long_values[np.arange(half.shape[0])[:, None], np.minimum(shifted, width - 1)],
            0.0,
        )
        lower = np.where(position < half[:, None], long_values, 0.0)
        sums[long] = (
            _pairwise_sums(lower, half) + _pairwise_sums(upper, long_counts - half)
        )
        return sums
    # Block 0 is zeros and block b > 0 holds entries 8(b - 1) .. 8b - 1, so
    # a prefix sum over blocks ends, at block counts // 8, with the 8
    # partial sums; the next block holds the rest of the run, then zeros.
    n_blocks = width // 8 + 2
    blocks = np.zeros((n_rows, n_blocks, 8))
    blocks.reshape(n_rows, 8 * n_blocks)[:, 8:8 + width] = values
    rows = np.arange(n_rows)
    full = counts // 8
    partial = np.cumsum(blocks, axis=1)[rows, full]
    pairs = partial[:, 0::2] + partial[:, 1::2]
    quads = pairs[:, 0::2] + pairs[:, 1::2]
    run = blocks[rows, full + 1]
    run[:, 1:] = run[:, :-1]
    run[:, 0] = quads[:, 0] + quads[:, 1]
    return np.cumsum(run, axis=1)[:, -1]


def _best_thresholds(
    col_sorted: np.ndarray,
    y_sorted: np.ndarray,
    n: np.ndarray,
    node_sum: np.ndarray,
    node_sq: np.ndarray,
    impurity: np.ndarray,
    min_samples_leaf: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Best split position and gain along the last axis of sorted node samples.

    Each row along the last axis holds one node's samples sorted by one
    feature in its first ``n`` entries (the rest is ignored, and
    ``y_sorted`` is overwritten); ``n``, ``node_sum``, ``node_sq`` and
    ``impurity`` (the node's count, target sum, sum of squares and
    variance) broadcast against the rows.  Returns, for the rows in C
    order, the first position ``i`` maximising the variance reduction of
    splitting after sorted sample ``i`` and that reduction (``-inf`` if
    no split is valid).  Element for element, the arithmetic is that of a
    one-node cumulative-sum scan, so the gains are bit-identical to it.
    Divisions by zero counts happen only at invalid positions.
    """
    cum_sum = np.cumsum(y_sorted, axis=-1)[..., :-1]
    cum_sq = np.cumsum(np.square(y_sorted, out=y_sorted), axis=-1, out=y_sorted)[..., :-1]
    # Candidate split after sorted position i: left = [0..i].  Counts are
    # small integers, exact as floats.
    left_counts = np.arange(1.0, col_sorted.shape[-1])
    right_counts = n - left_counts
    # In place, operation for operation:
    #   left  = lc * (left_sq / lc - (left_sum / lc) ** 2)
    #   right = rc * (right_sq / rc - (right_sum / rc) ** 2)
    #   gain  = impurity - (left + right) / n
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
    # Only between distinct values, with both sides large enough.
    valid = (col_sorted[..., :-1] < col_sorted[..., 1:]) & (right_counts >= min_samples_leaf)
    gain = np.where(valid, gain, -np.inf).reshape(-1, gain.shape[-1])
    gain[:, :min_samples_leaf - 1] = -np.inf
    best = gain.argmax(axis=1)
    return best, gain[np.arange(best.shape[0]), best]


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
    split features as ``rngs[t].choice`` would (see
    :class:`_FeatureDraws`).  Trees advance together, one depth-first node
    each per step (see the module docstring), in chunks small enough to
    bound the presorted state's memory.
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


class _Presorted:
    """Every tree's sample rows sorted by each column, partitioned per node.

    List ``f < n_features`` of tree ``t`` holds its samples by ascending
    column ``f`` (stable); list ``n_features`` keeps them in sample order.
    An entry is a sample's index ``t * n_rows + row`` into ``targets``
    and into each column block of ``column_values``.  Every pending node
    owns the same positions ``start:start + count`` of each list, and a
    split stably partitions them, so each list stays sorted within every
    node.  The second half of each list is padding that lets a node's
    window run past its end.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, samples: np.ndarray) -> None:
        n_trees, self.n_rows = samples.shape
        self.n_features = X.shape[1]
        self.n_lists = self.n_features + 1
        self.span = 2 * self.n_rows
        # One block per column, then a pad, so the index n_trees * n_rows
        # (``pad``) reads a zero target.
        self.pad = n_trees * self.n_rows
        columns = np.empty((self.n_features, self.pad + 1))
        columns[:, :-1] = X[samples.reshape(-1)].T
        columns[:, -1] = 0.0
        self.column_values = columns.reshape(-1)
        self.targets = np.append(y[samples], 0.0)
        order = np.zeros((n_trees, self.n_lists, self.span), dtype=np.int32)
        order[:, :self.n_features, :self.n_rows] = np.argsort(
            columns[:, :-1].reshape(self.n_features, n_trees, self.n_rows).transpose(1, 0, 2),
            axis=2, kind="stable",
        )
        order[:, self.n_features, :self.n_rows] = np.arange(self.n_rows)
        order += (np.arange(n_trees) * self.n_rows)[:, None, None]
        self.lists = order.reshape(-1)
        # Where each tree's sample-order list starts.
        self.sample_lists = (np.arange(n_trees) * self.n_lists + self.n_features) * self.span

    def node_samples(
        self, trees: np.ndarray, starts: np.ndarray, counts: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Each node's sample indices in sample order, padded with ``pad``,
        and the mask of the entries that are the node's."""
        width = np.arange(int(counts.max()))
        in_node = width < counts[:, None]
        rows = self.lists[(self.sample_lists[trees] + starts)[:, None] + width]
        return np.where(in_node, rows, self.pad), in_node

    def best_splits(
        self,
        trees: np.ndarray,
        starts: np.ndarray,
        counts: np.ndarray,
        features: np.ndarray,
        node_sum: np.ndarray,
        node_sq: np.ndarray,
        impurity: np.ndarray,
        min_samples_leaf: int,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The nodes that split, with their feature and threshold.

        Node ``i`` tries the features in row ``i`` of ``features`` and
        takes the first one reaching its best gain, if that gain clears
        the minimum; returns the positions of those nodes among ``trees``.
        """
        n_nodes, n_draw = features.shape
        width = np.arange(int(counts.max()))
        window = ((trees * self.n_lists)[:, None] + features) * self.span + starts[:, None]
        samples = self.lists[window[:, :, None] + width]
        col_sorted = self.column_values[(features * (self.pad + 1))[:, :, None] + samples]
        with np.errstate(divide="ignore", invalid="ignore"):
            pair_best, pair_gain = _best_thresholds(
                col_sorted,
                self.targets[samples],
                counts.astype(np.float64)[:, None, None],
                node_sum[:, None, None],
                node_sq[:, None, None],
                impurity[:, None, None],
                min_samples_leaf,
            )
        pair = np.arange(n_nodes) * n_draw + pair_gain.reshape(n_nodes, n_draw).argmax(axis=1)
        split = np.nonzero(pair_gain[pair] > _MIN_GAIN)[0]
        pair = pair[split]
        at = pair_best[pair]
        col_sorted = col_sorted.reshape(pair_gain.shape[0], -1)
        threshold = 0.5 * (col_sorted[pair, at] + col_sorted[pair, at + 1])
        return split, features.reshape(-1)[pair], threshold

    def partition(
        self,
        trees: np.ndarray,
        starts: np.ndarray,
        counts: np.ndarray,
        feature: np.ndarray,
        threshold: np.ndarray,
    ) -> np.ndarray:
        """Stably partition every list of each node; returns the left counts.

        A left sample moves to the number of left samples before it and a
        right one to ``n_left`` plus the number of right samples before
        it; past the node that is every position itself, so it writes
        back what it holds.
        """
        first = trees * self.n_rows
        column = (feature * (self.pad + 1) + first)[:, None] + np.arange(self.n_rows)
        goes_left = (self.column_values[column] <= threshold[:, None]).reshape(-1)
        width = np.arange(int(counts.max()))
        base = (
            ((trees * self.n_lists)[:, None] + np.arange(self.n_lists)) * self.span
            + starts[:, None]
        )[:, :, None]
        node_lists = self.lists[base + width]
        to_left = (width < counts[:, None, None]) & goes_left[
            node_lists + ((np.arange(trees.shape[0]) * self.n_rows) - first)[:, None, None]
        ]
        lefts = np.cumsum(to_left, axis=2)
        n_left = lefts[:, -1, -1]
        if np.any((n_left == 0) | (n_left == counts)):
            # Only a midpoint that overflows or underflows does this; the
            # child would repeat its parent forever.
            raise DataError(
                "cannot split: a threshold midpoint rounds onto one side "
                "(feature values at the limits of the float range)"
            )
        # to_left ? lefts - 1 : n_left + position - lefts, without a branch.
        destination = (n_left[:, None, None] + width) - lefts
        shift = lefts - 1
        shift -= destination
        shift *= to_left
        destination += shift
        destination += base
        self.lists[destination] = node_lists
        return n_left


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
    max_nodes = 2 * n_rows - 1
    n_draw = n_split_features(max_features, n_features)
    presorted = _Presorted(X, y, samples)
    # A refill marks picks in a (trees x block, features) table, so the
    # lockstep bound caps it too.
    block = max(1, min(_DRAW_BLOCK, 2 * n_rows, _LOCKSTEP_ELEMENTS // (n_trees * n_features)))
    draws = _FeatureDraws(rngs, n_features, n_draw, block) if n_draw < n_features else None

    # Node records at tree * max_nodes + node id; ids count up from the
    # root (0) in creation order.  ``place`` holds a node's start and
    # count (its sample positions in its tree's lists) and its depth.
    # ``popped`` is the step that took the node off its tree's stack: its
    # depth-first rank.
    place = np.zeros((3, n_trees * max_nodes), dtype=np.int64)
    place[1, ::max_nodes] = n_rows
    popped = np.zeros(n_trees * max_nodes, dtype=np.int64)
    value = np.zeros(n_trees * max_nodes)
    feature = np.full(n_trees * max_nodes, -1, dtype=np.int64)
    threshold = np.zeros(n_trees * max_nodes)
    left = np.full(n_trees * max_nodes, -1, dtype=np.int64)
    n_nodes = np.ones(n_trees, dtype=np.int64)
    # Each tree's depth-first stack of node records, next node on top.
    stack = np.zeros((n_trees, n_rows + 1), dtype=np.int64)
    stack[:, 0] = np.arange(n_trees) * max_nodes
    height = np.ones(n_trees, dtype=np.int64)
    trees = np.arange(n_trees)
    steps = 0
    while trees.size:
        steps += 1
        height[trees] -= 1
        at = stack[trees, height[trees]]
        popped[at] = steps
        starts, counts, depth = place[:, at]

        # Leaf values and stopping rules from each node's targets in
        # sample order.
        node_samples, in_node = presorted.node_samples(trees, starts, counts)
        step_y = presorted.targets[node_samples]
        sums = _row_sums(
            np.concatenate((step_y, np.square(step_y))), np.concatenate((counts, counts))
        )
        n_active = trees.shape[0]
        value[at] = sums[:n_active] / counts
        attempt = ((step_y != step_y[:, :1]) & in_node).any(axis=1)
        attempt &= counts >= min_samples_split
        if max_depth is not None:
            attempt &= depth < max_depth
        trying = np.nonzero(attempt)[0]

        # Every attempt draws its features, each tree in depth-first
        # preorder, but only a node with room for two leaves can split:
        # score all (such node, sampled feature) pairs at once.
        roomy = counts[trying] >= 2 * min_samples_leaf
        scored = trying[roomy]
        if draws is None:
            features = np.broadcast_to(np.arange(n_features), (scored.shape[0], n_features))
        elif trying.size:
            features = draws.take(trees[trying])[roomy]
        split = scored
        if scored.size:
            m = counts[scored]
            node_sum = sums[scored]
            node_sq = sums[n_active + scored]
            impurity = node_sq / m - (node_sum / m) ** 2
            found, split_feature, split_threshold = presorted.best_splits(
                trees[scored], starts[scored], m, features, node_sum, node_sq,
                impurity, min_samples_leaf,
            )
            split = scored[found]
        if split.size:
            split_trees = trees[split]
            split_starts = starts[split]
            split_counts = counts[split]
            n_left = presorted.partition(
                split_trees, split_starts, split_counts, split_feature, split_threshold
            )

            # Record the splits and push the children, left on top.
            split_at = at[split]
            feature[split_at] = split_feature
            threshold[split_at] = split_threshold
            child = n_nodes[split_trees]
            n_nodes[split_trees] += 2
            left[split_at] = child
            child_at = split_trees * max_nodes + child
            child_depth = depth[split] + 1
            place[:, child_at] = (split_starts, n_left, child_depth)
            place[:, child_at + 1] = (split_starts + n_left, split_counts - n_left, child_depth)
            top = height[split_trees]
            stack[split_trees, top] = child_at + 1
            stack[split_trees, top + 1] = child_at
            height[split_trees] += 2
        trees = trees[height[trees] > 0]
    return _flat_trees(
        n_nodes, max_nodes, place[2], popped, feature, threshold, left, value
    ), steps


def _flat_trees(
    n_nodes: np.ndarray,
    max_nodes: int,
    depth: np.ndarray,
    popped: np.ndarray,
    feature: np.ndarray,
    threshold: np.ndarray,
    left: np.ndarray,
    value: np.ndarray,
) -> List[FlatTree]:
    """Breadth-first layouts of grown trees: each tree's preorder stably sorted by depth.

    The node records are indexed ``tree * max_nodes + id``; tree ``t``
    holds ids ``0 .. n_nodes[t] - 1``.
    """
    offsets = np.cumsum(n_nodes) - n_nodes
    tree = np.repeat(np.arange(n_nodes.shape[0]), n_nodes)
    position = np.arange(tree.shape[0]) - offsets[tree]
    at = tree * max_nodes + position
    bfs = at[np.lexsort((popped[at], depth[at], tree))]
    new_id = np.empty_like(left)
    new_id[bfs] = position
    bfs_feature = feature[bfs]
    internal = bfs_feature >= 0
    first_child = bfs - bfs % max_nodes + left[bfs]
    cuts = offsets[1:]
    columns = (
        bfs_feature,
        threshold[bfs],
        np.where(internal, new_id[first_child], -1),
        np.where(internal, new_id[first_child + 1], -1),
        value[bfs],
    )
    return [FlatTree(*parts) for parts in zip(*(np.split(c, cuts) for c in columns))]


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
