"""Tests for the KNN, SVR, decision-tree and random-forest regressors."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, DataError, NotFittedError
from repro.ml.distances import euclidean_distances
from repro.ml.forest import RandomForestRegressor
from repro.ml.knn import KNeighborsRegressor
from repro.ml.svm import SVR
from repro.ml.tree import DecisionTreeRegressor, n_split_features

from tests.oracles.ml import r2_score, tree_depth


def _toy_regression(n=120, noise=0.05, seed=3):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, size=(n, 3))
    y = 2.0 * X[:, 0] - 1.5 * X[:, 1] ** 2 + np.sin(3 * X[:, 2]) + noise * rng.normal(size=n)
    return X, y


class TestDistances:
    def test_euclidean_matches_numpy(self):
        A = np.array([[0.0, 0.0], [1.0, 1.0]])
        B = np.array([[3.0, 4.0]])
        D = euclidean_distances(A, B)
        assert D[0, 0] == pytest.approx(5.0)
        assert D[1, 0] == pytest.approx(np.hypot(2.0, 3.0))

    def test_self_distance_is_zero(self):
        A = np.random.default_rng(0).normal(size=(5, 4))
        D = euclidean_distances(A, A)
        # The expanded |a|^2 + |b|^2 - 2ab form has ~1e-8 floating-point slack.
        assert np.allclose(np.diag(D), 0.0, atol=1e-6)


    def test_distances_are_symmetric(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(6, 3))
        B = rng.normal(size=(4, 3))
        assert np.allclose(euclidean_distances(A, B), euclidean_distances(B, A).T)


class TestKnnRegressor:
    def test_exact_match_returns_training_target(self):
        X = [[0.0], [1.0], [2.0]]
        y = [10.0, 20.0, 30.0]
        model = KNeighborsRegressor(n_neighbors=2).fit(X, y)
        assert model.predict([[1.0]])[0] == pytest.approx(20.0)

    def test_k_larger_than_training_set_is_clamped(self):
        model = KNeighborsRegressor(n_neighbors=10).fit([[0.0], [1.0]], [1.0, 3.0])
        prediction = model.predict([[0.5]])[0]
        assert 1.0 <= prediction <= 3.0

    def test_accuracy_on_smooth_function(self):
        X, y = _toy_regression(n=600)
        model = KNeighborsRegressor(n_neighbors=5).fit(X[:500], y[:500])
        assert r2_score(model, X[500:], y[500:]) > 0.7

    def test_distance_weights_favour_the_closer_neighbour(self):
        model = KNeighborsRegressor(n_neighbors=2).fit(
            [[0.0], [1.0]], [0.0, 3.0]
        )
        # Weights 1/0.25 and 1/0.75: (0 * 4 + 3 * 4/3) / (4 + 4/3) = 0.75.
        assert model.predict([[0.25]])[0] == pytest.approx(0.75)

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            KNeighborsRegressor().predict([[0.0]])

    def test_invalid_k_raises(self):
        with pytest.raises(ConfigurationError):
            KNeighborsRegressor(n_neighbors=0)

    def test_mismatched_lengths_raise(self):
        with pytest.raises(DataError):
            KNeighborsRegressor().fit([[1.0], [2.0]], [1.0])


class TestSvr:
    def test_rbf_fits_nonlinear_function(self):
        X, y = _toy_regression(n=150)
        model = SVR(C=50.0, epsilon=0.01, gamma=1.0).fit(X[:120], y[:120])
        assert r2_score(model, X[120:], y[120:]) > 0.8

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            SVR().predict([[0.0]])

    def test_invalid_c_raises(self):
        with pytest.raises(ConfigurationError):
            SVR(C=-1.0)

    def test_gamma_scale_is_resolved(self):
        model = SVR(gamma="scale").fit([[0.0], [1.0], [2.0]], [0.0, 1.0, 2.0])
        assert model.gamma_ > 0

    def test_support_vectors_subset_of_training(self):
        X, y = _toy_regression(n=50)
        model = SVR(C=5.0).fit(X, y)
        assert len(model.support_) <= X.shape[0]


class TestDecisionTree:
    def test_pure_leaf_prediction(self):
        model = DecisionTreeRegressor().fit([[0.0], [0.0], [1.0]], [2.0, 2.0, 8.0])
        assert model.predict([[0.0]])[0] == pytest.approx(2.0)
        assert model.predict([[1.0]])[0] == pytest.approx(8.0)

    def test_max_depth_limits_tree(self):
        X, y = _toy_regression(n=200)
        shallow = DecisionTreeRegressor(max_depth=2).fit(X, y)
        deep = DecisionTreeRegressor(max_depth=8).fit(X, y)
        assert tree_depth(shallow) <= 2
        assert deep.feature_.shape[0] > shallow.feature_.shape[0]

    def test_min_samples_leaf_respected(self):
        X, y = _toy_regression(n=40)
        model = DecisionTreeRegressor(min_samples_leaf=10).fit(X, y)
        # With a 10-sample minimum per leaf a 40-sample set can have at most
        # 4 leaves, i.e. at most 7 nodes.
        assert model.feature_.shape[0] <= 7

    def test_constant_target_yields_single_leaf(self):
        model = DecisionTreeRegressor().fit([[1.0], [2.0], [3.0]], [5.0, 5.0, 5.0])
        assert tree_depth(model) == 0
        assert model.predict([[10.0]])[0] == pytest.approx(5.0)

    def test_feature_count_mismatch_raises(self):
        model = DecisionTreeRegressor().fit([[1.0, 2.0]], [1.0])
        with pytest.raises(ValueError):
            model.predict([[1.0]])

    def test_accuracy_on_smooth_function(self):
        X, y = _toy_regression(n=300)
        model = DecisionTreeRegressor(min_samples_leaf=5).fit(X[:250], y[:250])
        assert r2_score(model, X[250:], y[250:]) > 0.6


class TestSplitFeatureCount:
    def test_float_one_uses_all_features(self):
        assert n_split_features(1.0, 8) == 8

    def test_small_float_clamps_to_one(self):
        assert n_split_features(0.01, 8) == 1

    def test_sqrt_and_log2_on_single_feature(self):
        assert n_split_features("sqrt", 1) == 1
        assert n_split_features("log2", 1) == 1

    def test_integer_larger_than_feature_count_is_clamped(self):
        assert n_split_features(100, 8) == 8

    def test_unknown_string_rejected(self):
        with pytest.raises(ConfigurationError):
            DecisionTreeRegressor(max_features="cube")

    def test_none_uses_all_features(self):
        assert n_split_features(None, 5) == 5


class TestEmptyQueries:
    def test_kneighbors_with_zero_rows(self):
        model = KNeighborsRegressor(n_neighbors=2).fit([[0.0], [1.0], [2.0]], [1.0, 2.0, 3.0])
        dist, idx = model.kneighbors(np.empty((0, 1)))
        assert dist.shape == (0, 2)
        assert idx.shape == (0, 2)

    def test_predict_with_zero_rows(self):
        model = KNeighborsRegressor(n_neighbors=2).fit([[0.0], [1.0], [2.0]], [1.0, 2.0, 3.0])
        assert model.predict(np.empty((0, 1))).shape == (0,)

    def test_fit_still_rejects_empty(self):
        with pytest.raises(DataError):
            KNeighborsRegressor().fit(np.empty((0, 2)), [])


class TestRandomForest:
    def test_forest_beats_single_deep_tree_on_noise(self):
        X, y = _toy_regression(n=300, noise=0.5, seed=9)
        train, test = slice(0, 250), slice(250, 300)
        tree = DecisionTreeRegressor(random_state=0).fit(X[train], y[train])
        forest = RandomForestRegressor(n_estimators=30, random_state=0).fit(X[train], y[train])
        assert r2_score(forest, X[test], y[test]) >= r2_score(tree, X[test], y[test]) - 0.02

    def test_prediction_is_average_of_trees(self):
        X, y = _toy_regression(n=80)
        forest = RandomForestRegressor(n_estimators=5, random_state=1).fit(X, y)
        manual = np.mean([tree.predict(X[:3]) for tree in forest.estimators_], axis=0)
        assert np.allclose(forest.predict(X[:3]), manual)

    def test_reproducible_with_seed(self):
        X, y = _toy_regression(n=60)
        a = RandomForestRegressor(n_estimators=10, random_state=42).fit(X, y).predict(X[:5])
        b = RandomForestRegressor(n_estimators=10, random_state=42).fit(X, y).predict(X[:5])
        assert np.allclose(a, b)

    def test_invalid_estimator_count_raises(self):
        with pytest.raises(ConfigurationError):
            RandomForestRegressor(n_estimators=0)

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            RandomForestRegressor().predict([[0.0]])
