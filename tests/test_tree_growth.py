"""Lockstep tree growth: bit-identity with the recursive builder, and config checks.

``repro.ml.tree.grow_trees`` grows every tree of a forest together from
presorted columns.  These tests pin its flat node arrays — per tree and
concatenated — against the recursive one-tree-at-a-time builder in
``tests/oracles/ml.py``, across shapes with tied and constant columns,
constant targets and every ``max_features`` form.  They pin the two
bulk helpers that keep those bits: the feature draws against
``Generator.choice`` (and, on crafted word streams with rejected words,
against the scalar emulation in the oracle module) and the node sums
against ``ndarray.sum``.  They also cover the constructor-time
validation and the ``ml.forest_*`` telemetry counters.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, DataError
from repro.ml import tree as tree_module
from repro.ml.forest import RandomForestRegressor
from repro.ml.tree import DecisionTreeRegressor
from repro.serving import load_estimator, save_estimator
from repro.telemetry import telemetry_session

from tests.oracles.ml import (
    choice_from_words,
    fit_forest_oracle,
    fit_tree_oracle,
    raw_words,
    tree_depth,
)


def _tree_arrays(tree):
    return (
        tree.feature_, tree.threshold_, tree.children_left_,
        tree.children_right_, tree.value_,
    )


def _assert_same_arrays(actual, expected):
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@st.composite
def _training_sets(draw):
    n = draw(st.integers(2, 200))
    d = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    levels = draw(st.sampled_from([0, 2, 3, 6]))   # 0: continuous columns
    if levels:
        X = rng.integers(0, levels, size=(n, d)).astype(float)
    else:
        X = rng.normal(size=(n, d))
    constant_columns = draw(st.lists(st.integers(0, d - 1), max_size=3))
    X[:, constant_columns] = 1.5
    target = draw(st.sampled_from(["normal", "tied", "constant"]))
    if target == "constant":
        y = np.full(n, -0.25)
    elif target == "tied":
        y = rng.integers(-2, 3, size=n).astype(float)
    else:
        y = rng.normal(size=n)
    return X, y


_MAX_FEATURES = st.one_of(
    st.none(),
    st.sampled_from(["sqrt", "log2"]),
    st.integers(1, 45),
    st.floats(0.01, 1.0),
)
_MAX_DEPTH = st.one_of(st.none(), st.integers(0, 12))


class TestGrowerMatchesRecursiveBuilder:
    @settings(max_examples=60, deadline=None)
    @given(
        data=_training_sets(),
        n_estimators=st.integers(1, 4),
        max_depth=_MAX_DEPTH,
        min_samples_split=st.integers(2, 6),
        min_samples_leaf=st.integers(1, 5),
        max_features=_MAX_FEATURES,
        bootstrap=st.booleans(),
        seed=st.integers(0, 2 ** 31 - 1),
    )
    def test_forest_flat_arrays_bit_identical(
        self, data, n_estimators, max_depth, min_samples_split,
        min_samples_leaf, max_features, bootstrap, seed,
    ):
        X, y = data
        forest = RandomForestRegressor(
            n_estimators=n_estimators, max_depth=max_depth,
            min_samples_split=min_samples_split,
            min_samples_leaf=min_samples_leaf, max_features=max_features,
            bootstrap=bootstrap, random_state=seed,
        ).fit(X, y)
        oracle = fit_forest_oracle(forest, X, y)

        _assert_same_arrays(
            (forest._roots_, forest._feature_, forest._threshold_,
             forest._left_, forest._right_, forest._value_),
            (oracle.roots, oracle.feature, oracle.threshold,
             oracle.left, oracle.right, oracle.value),
        )
        assert len(forest.estimators_) == len(oracle.trees)
        for tree, oracle_tree in zip(forest.estimators_, oracle.trees):
            _assert_same_arrays(_tree_arrays(tree), oracle_tree)
        per_tree = np.stack([tree.predict(X) for tree in forest.estimators_])
        assert np.array_equal(per_tree.mean(axis=0), forest.predict(X))

    @settings(max_examples=60, deadline=None)
    @given(
        data=_training_sets(),
        max_depth=_MAX_DEPTH,
        min_samples_split=st.integers(2, 6),
        min_samples_leaf=st.integers(1, 5),
        max_features=_MAX_FEATURES,
        seed=st.integers(0, 2 ** 31 - 1),
    )
    def test_single_tree_flat_arrays_bit_identical(
        self, data, max_depth, min_samples_split, min_samples_leaf,
        max_features, seed,
    ):
        X, y = data
        tree = DecisionTreeRegressor(
            max_depth=max_depth, min_samples_split=min_samples_split,
            min_samples_leaf=min_samples_leaf, max_features=max_features,
            random_state=seed,
        )
        oracle = fit_tree_oracle(tree, X, y)
        _assert_same_arrays(_tree_arrays(tree.fit(X, y)), oracle)

    @pytest.mark.parametrize("levels", [0, 2, 5])
    def test_wide_forest_with_ties_bit_identical(self, levels):
        rng = np.random.default_rng(levels)
        X = rng.normal(size=(200, 40))
        if levels:
            X = np.floor(X * levels)
        X[:, 7] = 0.0
        y = np.round(rng.normal(size=200), 1)
        forest = RandomForestRegressor(
            n_estimators=3, max_depth=None, min_samples_leaf=1,
            max_features="sqrt", random_state=levels,
        ).fit(X, y)
        oracle = fit_forest_oracle(forest, X, y)
        _assert_same_arrays(
            (forest._roots_, forest._feature_, forest._threshold_,
             forest._left_, forest._right_, forest._value_),
            (oracle.roots, oracle.feature, oracle.threshold,
             oracle.left, oracle.right, oracle.value),
        )

    def test_campaign_shaped_forest_bit_identical(self):
        # The accuracy study's set1 RDF: 30 trees, depth 10, leaf 3, 0.8.
        rng = np.random.default_rng(2019)
        X = rng.normal(size=(154, 7))
        X[:, 4:] = np.round(X[:, 4:])
        y = rng.normal(size=154)
        forest = RandomForestRegressor(
            n_estimators=30, max_depth=10, min_samples_leaf=3,
            max_features=0.8, random_state=2019,
        ).fit(X, y)
        oracle = fit_forest_oracle(forest, X, y)
        _assert_same_arrays(
            (forest._roots_, forest._feature_, forest._threshold_,
             forest._left_, forest._right_, forest._value_),
            (oracle.roots, oracle.feature, oracle.threshold,
             oracle.left, oracle.right, oracle.value),
        )


    def test_deep_forest_refilling_draws_bit_identical(self):
        # Hundreds of split attempts per tree: the bulk feature draws are
        # refilled several times within one tree.
        rng = np.random.default_rng(31)
        X = rng.normal(size=(520, 6))
        y = rng.normal(size=520)
        forest = RandomForestRegressor(
            n_estimators=3, min_samples_leaf=1, max_features=0.5, random_state=31,
        ).fit(X, y)
        internal = [int((tree.feature_ >= 0).sum()) for tree in forest.estimators_]
        assert min(internal) > 2 * tree_module._DRAW_BLOCK
        oracle = fit_forest_oracle(forest, X, y)
        for tree, oracle_tree in zip(forest.estimators_, oracle.trees):
            _assert_same_arrays(_tree_arrays(tree), oracle_tree)

    @pytest.mark.parametrize("max_depth", [1, 3, 6, None])
    def test_depth_limited_and_constant_nodes_bit_identical(self, max_depth):
        # The target is constant on blocks of feature 0 (one block of
        # signed zeros), so splits soon reach constant nodes, and the depth
        # limit stops others first.
        rng = np.random.default_rng(7)
        X = rng.normal(size=(240, 5))
        X[:, 0] = np.repeat(np.arange(6.0), 40)
        y = np.repeat(rng.normal(size=6), 40)
        y[40:80] = np.where(rng.random(40) < 0.5, -0.0, 0.0)
        forest = RandomForestRegressor(
            n_estimators=4, max_depth=max_depth, max_features=0.6, random_state=5,
        ).fit(X, y)
        oracle = fit_forest_oracle(forest, X, y)
        for tree, oracle_tree in zip(forest.estimators_, oracle.trees):
            _assert_same_arrays(_tree_arrays(tree), oracle_tree)
        assert np.array_equal(forest._value_.view(np.int64), oracle.value.view(np.int64))

    def test_growth_calls_no_choice(self, monkeypatch):
        # The draws come from the bit generator's raw stream in bulk: a
        # generator whose ``choice`` raises grows the same forest.
        rng = np.random.default_rng(9)
        X = rng.normal(size=(150, 7))
        y = rng.normal(size=150)
        params = dict(n_estimators=5, max_depth=8, max_features=0.8, random_state=4)
        expected = RandomForestRegressor(**params).fit(X, y)

        class NoChoice(np.random.Generator):
            def choice(self, *args, **kwargs):
                raise AssertionError("a per-node choice call")

        monkeypatch.setattr(
            np.random, "default_rng", lambda seed=None: NoChoice(np.random.PCG64(seed))
        )
        forest = RandomForestRegressor(**params).fit(X, y)
        _assert_same_arrays(
            (forest._feature_, forest._threshold_, forest._left_, forest._value_),
            (expected._feature_, expected._threshold_, expected._left_, expected._value_),
        )

    def test_chunked_growth_bit_identical(self, monkeypatch):
        # A memory bound of two trees per lockstep pass splits the forest
        # into four chunks; each tree still comes out the same.
        rng = np.random.default_rng(12)
        X = rng.normal(size=(120, 9))
        y = rng.normal(size=120)
        monkeypatch.setattr(tree_module, "_LOCKSTEP_ELEMENTS", 2 * 10 * 120)
        forest = RandomForestRegressor(
            n_estimators=7, max_depth=6, max_features=0.5, random_state=3
        ).fit(X, y)
        oracle = fit_forest_oracle(forest, X, y)
        for tree, oracle_tree in zip(forest.estimators_, oracle.trees):
            _assert_same_arrays(_tree_arrays(tree), oracle_tree)


class _ReplayedPCG64(np.random.PCG64):
    """A PCG64 whose ``random_raw`` replays a fixed stream of outputs."""

    def __init__(self, raw):
        super().__init__(0)
        self._raw = np.asarray(raw, dtype=np.uint64)

    def random_raw(self, size=None, output=True):
        taken, self._raw = self._raw[:size], self._raw[size:]
        return taken


def _take(draws, trees):
    return draws.take(np.asarray(trees))


class TestFeatureDraws:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 63),
        n=st.integers(2, 300),
        data=st.data(),
        block=st.integers(1, 9),
        n_draws=st.integers(1, 30),
    )
    def test_successive_draws_equal_choice(self, seed, n, data, block, n_draws):
        k = data.draw(st.integers(1, n - 1))
        expected = np.random.default_rng(seed)
        draws = tree_module._FeatureDraws([np.random.default_rng(seed)], n, k, block)
        assert draws.bulk
        for _ in range(n_draws):
            assert np.array_equal(_take(draws, [0])[0], expected.choice(n, k, replace=False))

    def test_trees_draw_from_their_own_streams(self):
        seeds = [3, 14, 15, 92]
        draws = tree_module._FeatureDraws(
            [np.random.default_rng(seed) for seed in seeds], 40, 6, block=4
        )
        expected = [np.random.default_rng(seed) for seed in seeds]
        pick = np.random.default_rng(0)
        for _ in range(25):
            trees = np.flatnonzero(pick.random(len(seeds)) < 0.6)
            if trees.size:
                for row, tree in zip(_take(draws, trees), trees):
                    assert np.array_equal(row, expected[tree].choice(40, 6, replace=False))

    def test_held_back_half_word_comes_first(self):
        rng = np.random.default_rng(5)
        rng.random(dtype=np.float32)   # uses the low half of one output
        assert rng.bit_generator.state["has_uint32"]
        expected = copy.deepcopy(rng)
        draws = tree_module._FeatureDraws([rng], 30, 7, block=3)
        for _ in range(8):
            assert np.array_equal(_take(draws, [0])[0], expected.choice(30, 7, replace=False))

    @pytest.mark.parametrize(
        "bit_generator, n, k, bulk",
        [
            (np.random.PCG64, 10001, 200, True),     # Floyd's path: n // 50 = 200
            (np.random.PCG64, 10001, 201, False),    # numpy shuffles a full range
            (np.random.MT19937, 30, 7, False),       # other word streams
        ],
    )
    def test_choice_paths_outside_the_bulk_emulation(self, bit_generator, n, k, bulk):
        draws = tree_module._FeatureDraws(
            [np.random.Generator(bit_generator(8))], n, k, block=2
        )
        assert draws.bulk is bulk
        expected = np.random.Generator(bit_generator(8))
        for _ in range(5):
            assert np.array_equal(_take(draws, [0])[0], expected.choice(n, k, replace=False))

    @pytest.mark.parametrize("block", [1, 3, 16])
    def test_rejected_words_are_dropped(self, block):
        raw = np.random.default_rng(21).bit_generator.random_raw(3000)
        raw[0] &= np.uint64(0xFFFFFFFF00000000)   # the very first pick
        raw[5] = 0                                  # two rejections in a row
        raw[17] &= np.uint64(0x00000000FFFFFFFF)
        raw[40] = 0
        n, k = 7, 5
        words = iter(list(raw_words(raw)))
        expected = [choice_from_words(words, n, k) for _ in range(30)]
        assert 2 * raw.shape[0] - len(list(words)) > 30 * (2 * k - 1)   # words were rejected
        draws = tree_module._FeatureDraws(
            [np.random.Generator(_ReplayedPCG64(raw)), np.random.default_rng(2)], n, k, block,
        )
        plain = np.random.default_rng(2)
        for want in expected:
            crafted, other = _take(draws, [0, 1])
            assert np.array_equal(crafted, want)
            assert np.array_equal(other, plain.choice(n, k, replace=False))


@settings(max_examples=60, deadline=None)
@given(
    counts=st.lists(st.integers(1, 300), min_size=1, max_size=6),
    seed=st.integers(0, 2 ** 32 - 1),
    zeros=st.sampled_from([0.0, 0.3, 1.0]),
)
def test_node_sums_equal_ndarray_sum(counts, seed, zeros):
    rng = np.random.default_rng(seed)
    rows = []
    for count in counts:
        row = rng.normal(size=count) * 10.0 ** rng.integers(-8, 12, size=count)
        signed_zero = rng.random(count) < zeros
        row[signed_zero] = np.where(rng.random(count) < 0.5, -0.0, 0.0)[signed_zero]
        rows.append(row)
    values = np.zeros((len(counts), max(counts)))
    for i, row in enumerate(rows):
        values[i, :row.shape[0]] = row
    sums = tree_module._row_sums(values, np.array(counts))
    expected = np.array([row.sum() for row in rows])
    assert np.array_equal(sums.view(np.int64), expected.view(np.int64))


class TestConstructorValidation:
    @pytest.mark.parametrize("max_features", ["cube", "", 0, -3, 1.5, 0.0, -0.2, [2]])
    @pytest.mark.parametrize("estimator", [DecisionTreeRegressor, RandomForestRegressor])
    def test_invalid_max_features_rejected(self, estimator, max_features):
        with pytest.raises(ConfigurationError):
            estimator(max_features=max_features)

    @pytest.mark.parametrize("estimator", [DecisionTreeRegressor, RandomForestRegressor])
    def test_negative_max_depth_rejected(self, estimator):
        with pytest.raises(ConfigurationError):
            estimator(max_depth=-1)

    @pytest.mark.parametrize("estimator", [DecisionTreeRegressor, RandomForestRegressor])
    def test_leaf_and_split_sizes_checked(self, estimator):
        with pytest.raises(ConfigurationError):
            estimator(min_samples_leaf=0)
        with pytest.raises(ConfigurationError):
            estimator(min_samples_split=1)

    @pytest.mark.parametrize(
        "max_features", [None, "sqrt", "log2", 1, 3, np.int64(2), 1.0, 0.35, np.float64(0.5)]
    )
    def test_valid_forms_accepted(self, max_features):
        X = np.arange(12.0).reshape(6, 2)
        tree = DecisionTreeRegressor(max_features=max_features, max_depth=0).fit(X, X[:, 0])
        assert tree.feature_.shape == (1,)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("column", [[-5e-324, 0.0], [1.7e308, 1.75e308]])
def test_split_that_moves_no_row_raises(column):
    # The midpoint of these neighbours rounds onto one of them, so the
    # split keeps every row on one side; recursing on it never ends.
    with pytest.raises(DataError, match="cannot split"):
        DecisionTreeRegressor().fit(np.array(column)[:, None], [0.0, 1.0])


def test_restored_tree_keeps_depth_and_arrays(tmp_path):
    rng = np.random.default_rng(4)
    X = rng.normal(size=(80, 3))
    tree = DecisionTreeRegressor(max_depth=5, random_state=2).fit(X, rng.normal(size=80))
    restored = load_estimator(save_estimator(tree, tmp_path / "bundle"))
    assert tree_depth(restored) == tree_depth(tree) == 5
    _assert_same_arrays(_tree_arrays(restored), _tree_arrays(tree))
    assert np.array_equal(restored.predict(X), tree.predict(X))


def test_forest_telemetry_counts_nodes_and_steps():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(60, 4))
    y = rng.normal(size=60)
    with telemetry_session() as telemetry:
        forest = RandomForestRegressor(
            n_estimators=7, max_depth=6, random_state=1
        ).fit(X, y)
    counts = [tree.feature_.shape[0] for tree in forest.estimators_]
    counters = telemetry.snapshot().counters
    assert counters["ml.forest_nodes"] == sum(counts)
    # Each step grows one node of every unfinished tree.
    assert counters["ml.forest_steps"] == max(counts)
