"""Equivalence pins: vectorized ML hot paths vs the per-row oracles.

The flat-array tree/forest traversals and the ``argmin``-pass neighbour
search must stay **bit-identical** to the per-row reference
implementations in ``tests/oracles/ml.py`` (the pre-vectorized bodies);
KNN's ``cdist`` distances must be a per-pair feature-order sum; and the
vectorized correlation study must agree with its per-row oracle to
1e-9 (reduction order differs, so the pin is tolerance- not bit-exact).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from repro.core.correlation import run_correlation_study
from repro.ml.distances import euclidean_distances
from repro.ml.forest import RandomForestRegressor
from repro.ml.knn import KNeighborsRegressor, stable_kneighbors
from repro.ml.tree import DecisionTreeRegressor

from tests.oracles.dataset import (
    reference_build_pue_dataset,
    reference_build_wer_dataset,
    reference_run_correlation_study,
)
from tests.oracles.ml import (
    ReferenceKNeighborsRegressor,
    reference_forest_predict,
    reference_kneighbors,
    reference_knn_predict,
    reference_tree_predict,
)


def _regression_data(rng, n, d, duplicates=0):
    X = rng.normal(size=(n, d))
    if duplicates:
        X = np.concatenate([X, X[rng.integers(0, n, size=duplicates)]])
    y = rng.normal(size=X.shape[0])
    return X, y


class TestFlatTreeEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 16),
        max_depth=st.one_of(st.none(), st.integers(1, 8)),
        min_samples_leaf=st.integers(1, 5),
    )
    def test_tree_predict_bit_identical_to_node_walk(self, seed, max_depth,
                                                     min_samples_leaf):
        rng = np.random.default_rng(seed)
        X, y = _regression_data(rng, 60, 4)
        Xq = rng.normal(size=(40, 4))
        tree = DecisionTreeRegressor(
            max_depth=max_depth, min_samples_leaf=min_samples_leaf,
            max_features=0.75, random_state=seed,
        ).fit(X, y)
        assert np.array_equal(tree.predict(Xq), reference_tree_predict(tree, Xq))

    def test_flat_layout_shapes(self):
        rng = np.random.default_rng(0)
        X, y = _regression_data(rng, 100, 3)
        tree = DecisionTreeRegressor(max_depth=5).fit(X, y)
        n = tree.feature_.shape[0]
        assert tree.feature_.shape == tree.threshold_.shape == tree.value_.shape == (n,)
        leaves = tree.feature_ == -1
        assert np.all(tree.children_left_[leaves] == -1)
        internal = ~leaves
        # Child ids point strictly forward (breadth-first layout).
        assert np.all(tree.children_left_[internal] > np.nonzero(internal)[0])
        assert np.all(tree.children_right_[internal] > np.nonzero(internal)[0])

    def test_single_leaf_tree_predicts_constant(self):
        tree = DecisionTreeRegressor().fit([[1.0], [2.0]], [3.0, 3.0])
        assert tree.feature_.shape == (1,)
        assert np.array_equal(tree.predict([[0.0], [9.0]]), [3.0, 3.0])

    def test_forest_predict_bit_identical_to_tree_loop(self):
        rng = np.random.default_rng(7)
        X, y = _regression_data(rng, 150, 5)
        Xq = rng.normal(size=(60, 5))
        forest = RandomForestRegressor(
            n_estimators=15, max_depth=6, random_state=3
        ).fit(X, y)
        assert np.array_equal(forest.predict(Xq), reference_forest_predict(forest, Xq))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), n_estimators=st.integers(1, 8))
    def test_forest_equivalence_property(self, seed, n_estimators):
        rng = np.random.default_rng(seed)
        X, y = _regression_data(rng, 50, 3)
        forest = RandomForestRegressor(
            n_estimators=n_estimators, max_depth=4, random_state=seed
        ).fit(X, y)
        Xq = rng.normal(size=(20, 3))
        assert np.array_equal(forest.predict(Xq), reference_forest_predict(forest, Xq))


class TestStableKneighborsEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 16),
        k=st.integers(1, 12),
        duplicates=st.integers(0, 30),
    )
    def test_kneighbors_bit_identical_to_full_stable_sort(self, seed, k, duplicates):
        rng = np.random.default_rng(seed)
        X, y = _regression_data(rng, 25, 3, duplicates=duplicates)
        model = KNeighborsRegressor(n_neighbors=k).fit(X, y)
        Xq = np.concatenate([rng.normal(size=(10, 3)), X[:10]])
        dist_v, idx_v = model.kneighbors(Xq)
        dist_r, idx_r = reference_kneighbors(model, Xq)
        assert np.array_equal(idx_v, idx_r)
        assert np.array_equal(dist_v, dist_r)
        assert np.array_equal(model.predict(Xq), reference_knn_predict(model, Xq))

    def test_boundary_tie_rows_fall_back_deterministically(self):
        # Five training points all at distance 1 from the query: the k-th
        # candidate distance ties with excluded rows, which is exactly the
        # case where a partition-based pick would be platform-dependent.
        X_train = np.array([[1.0], [-1.0], [3.0], [1.0], [-1.0]]) + 1.0
        y = np.arange(5.0)
        model = KNeighborsRegressor(n_neighbors=2).fit(X_train - 1.0, y)
        dist, idx = model.kneighbors([[0.0]])
        assert idx.tolist() == [[0, 1]]  # smallest training indices win the tie
        assert np.array_equal(dist, [[1.0, 1.0]])

    def test_duplicated_training_rows_resolve_to_smallest_indices(self):
        # Regression for non-deterministic tie-breaking: with every training
        # row duplicated, the neighbour set must be the lowest training
        # indices, in index order — on every platform and numpy version.
        base = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        X = np.repeat(base, 4, axis=0)   # rows 0-3, 4-7, 8-11
        y = np.arange(12.0)
        model = KNeighborsRegressor(n_neighbors=3).fit(X, y)
        _dist, idx = model.kneighbors([[0.0, 0.0], [1.0, 1.0]])
        assert idx.tolist() == [[0, 1, 2], [4, 5, 6]]

    def test_multi_output_prediction_is_weighted_mean_over_stable_neighbours(self):
        rng = np.random.default_rng(11)
        X = np.repeat(rng.normal(size=(15, 2)), 3, axis=0)
        y = rng.normal(size=(45, 3))
        model = KNeighborsRegressor(n_neighbors=5).fit(X, y)
        queries = rng.normal(size=(10, 2))
        dist, idx = reference_kneighbors(model, queries)
        weights = 1.0 / dist
        expected = (weights[..., None] * y[idx]).sum(axis=1) / weights.sum(axis=1)[:, None]
        prediction = model.predict(queries)
        assert prediction.shape == (10, 3)
        assert np.allclose(prediction, expected, rtol=1e-12)
        # Each output column is the 1-D fit on that column alone.
        for column in range(3):
            single = KNeighborsRegressor(n_neighbors=5).fit(X, y[:, column])
            assert np.array_equal(single.predict(queries), prediction[:, column])

    def test_oracle_estimator_is_interchangeable(self):
        rng = np.random.default_rng(2)
        X, y = _regression_data(rng, 40, 3, duplicates=20)
        vec = KNeighborsRegressor(n_neighbors=4).fit(X, y)
        ref = ReferenceKNeighborsRegressor(n_neighbors=4).fit(X, y)
        Xq = rng.normal(size=(12, 3))
        assert np.array_equal(vec.predict(Xq), ref.predict(Xq))

    def test_stable_kneighbors_on_raw_matrix(self):
        dist = np.array([[3.0, 1.0, 2.0, 1.0], [0.0, 0.0, 0.0, 0.0]])
        nearest, idx = stable_kneighbors(dist, 2)
        assert idx.tolist() == [[1, 3], [0, 1]]
        assert nearest.tolist() == [[1.0, 1.0], [0.0, 0.0]]


class TestArgminSelectionAgainstFullSort:
    """``stable_kneighbors`` vs the per-row full lexsort, on hard inputs."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 16),
        n_train=st.integers(1, 20),
        duplicates=st.integers(0, 10),
        n_fresh=st.integers(0, 4),
        n_exact=st.integers(0, 3),
        extra_k=st.integers(-19, 4),
        overflow=st.booleans(),
    )
    def test_selection_matches_full_lexsort(
        self, seed, n_train, duplicates, n_fresh, n_exact, extra_k, overflow
    ):
        rng = np.random.default_rng(seed)
        # A coarse integer grid makes equal distances (and boundary ties)
        # common; repeated rows duplicate training points.
        X = rng.integers(-2, 3, size=(n_train, 2)).astype(float)
        X = np.concatenate([X, X[rng.integers(0, n_train, size=duplicates)]])
        if overflow:
            # Finite +-1e200 features whose squared differences overflow
            # to +inf distances.
            X[rng.random(X.shape) < 0.3] *= 1e200
        y = rng.normal(size=X.shape[0])
        # Fresh grid points plus training rows (zero-distance matches);
        # zero fresh and zero exact rows is the empty batch.
        queries = np.concatenate([
            rng.integers(-2, 3, size=(n_fresh, 2)).astype(float),
            X[rng.integers(0, X.shape[0], size=n_exact)],
        ])
        # From 1 up to past n_train: k >= n_train returns every column.
        k = max(1, X.shape[0] + extra_k)
        model = KNeighborsRegressor(n_neighbors=k).fit(X, y)
        dist_r, idx_r = reference_kneighbors(model, queries)
        nearest, idx = stable_kneighbors(cdist(queries, X), k)
        assert idx.shape == dist_r.shape == (queries.shape[0], min(k, X.shape[0]))
        assert np.array_equal(idx, idx_r)
        assert np.array_equal(nearest, dist_r)
        assert np.array_equal(model.predict(queries), reference_knn_predict(model, queries))

    def test_one_row_with_infinite_distances_falls_back_to_full_sort(self):
        dist = np.array([[np.inf, 2.0, np.inf, 1.0]])
        nearest, idx = stable_kneighbors(dist, 4)
        assert idx.tolist() == [[3, 1, 0, 2]]
        assert nearest.tolist() == [[1.0, 2.0, np.inf, np.inf]]

    def test_nan_distances_sort_last_like_lexsort(self):
        dist = np.array([[np.nan, 3.0, 1.0, np.nan], [2.0, 2.0, 0.0, 5.0]])
        nearest, idx = stable_kneighbors(dist, 3)
        expected = np.stack([np.lexsort((np.arange(4), row))[:3] for row in dist])
        assert np.array_equal(idx, expected)
        assert np.array_equal(nearest, np.take_along_axis(dist, expected, axis=1),
                              equal_nan=True)


class TestChunkedDistances:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 30), m=st.integers(1, 30), d=st.integers(1, 40),
        scale=st.integers(-100, 100), seed=st.integers(0, 2 ** 16),
    )
    def test_direct_euclidean_is_a_feature_order_sum_in_any_batch(
        self, n, m, d, scale, seed
    ):
        rng = np.random.default_rng(seed)
        unit = 10.0 ** scale
        A = rng.normal(size=(n, d)).round(2) * unit
        B = np.concatenate([rng.normal(size=(m, d)).round(2) * unit, A[:1]])
        full = cdist(A, B)
        # Every entry is sqrt(((a0-b0)^2 + (a1-b1)^2) + ...) in feature
        # order, whatever the library's loop structure.
        squares = (A[:, None, :] - B[None, :, :]) ** 2
        total = squares[..., 0].copy()
        for feature in range(1, d):
            total += squares[..., feature]
        assert np.array_equal(full, np.sqrt(total))
        np.testing.assert_allclose(
            full, euclidean_distances(A, B), rtol=1e-9, atol=1e-12 * unit
        )
        assert full[0, -1] == 0.0          # exact match, no rescue pass needed
        # Every row alone gives the same bits as in the batch.
        for row in range(n):
            assert np.array_equal(cdist(A[row:row + 1], B)[0], full[row])

    def test_expanded_euclidean_agrees_with_direct_form(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(37, 5))
        B = rng.normal(size=(23, 5))
        assert np.allclose(euclidean_distances(A, B), cdist(A, B), rtol=1e-9, atol=1e-12)

    def test_euclidean_exact_match_is_exact_zero(self):
        # Large-magnitude coordinates make the expanded form cancel
        # catastrophically; the rescue pass must restore the true values.
        A = np.array([[1234.5678, 9876.5432], [1234.5679, 9876.5431]])
        D = euclidean_distances(A, A)
        assert D[0, 0] == 0.0 and D[1, 1] == 0.0
        true_dist = np.hypot(1e-4, 1e-4)
        assert D[0, 1] == pytest.approx(true_dist, rel=1e-9)
        assert D[0, 1] > 0.0

    def test_exact_match_prediction_under_distance_weights(self):
        # A query equal to a training row reproduces its target exactly,
        # even when cancellation noise would otherwise hide the match.
        X = np.array([[1234.5678, 9876.5432], [1234.5679, 9876.5431], [5000.0, 1.0]])
        y = np.array([10.0, 20.0, 30.0])
        model = KNeighborsRegressor(n_neighbors=2).fit(X, y)
        assert model.predict([X[0]])[0] == 10.0
        assert model.predict([X[1]])[0] == 20.0


class TestCorrelationStudyEquivalence:
    def test_vectorized_study_matches_reference(self, small_campaign, small_profiles,
                                                small_wer_dataset, small_pue_dataset):
        names = ["memory_accesses_per_cycle", "wait_cycles", "hdp", "treuse", "ipc"]
        vectorized = run_correlation_study(
            small_wer_dataset, small_pue_dataset, feature_names=names
        )
        reference = reference_run_correlation_study(
            reference_build_wer_dataset(small_campaign, small_profiles),
            reference_build_pue_dataset(small_campaign, small_profiles),
            feature_names=names,
        )
        for name in names:
            assert vectorized.rs_wer(name) == pytest.approx(
                reference.rs_wer(name), abs=1e-9
            )
            assert vectorized.rs_pue(name) == pytest.approx(
                reference.rs_pue(name), abs=1e-9
            )
