"""Lockstep tree growth: bit-identity with the recursive builder, and config checks.

``repro.ml.tree.grow_trees`` grows every tree of a forest together from
presorted columns.  These tests pin its flat node arrays — per tree and
concatenated — against the recursive one-tree-at-a-time builder in
``tests/oracles/ml.py``, across shapes with tied and constant columns,
constant targets and every ``max_features`` form; they also cover the
constructor-time validation and the ``ml.forest_*`` telemetry counters.
"""

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

from tests.oracles.ml import fit_forest_oracle, fit_tree_oracle, tree_depth


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
