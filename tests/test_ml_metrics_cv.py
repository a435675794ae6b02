"""Tests for the metrics, the cross-validation splitter and the pipeline."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, DataError
from repro.ml.cross_validation import LeaveOneGroupOut, cross_val_predict_groups
from repro.ml.knn import KNeighborsRegressor
from repro.ml.metrics import mean_percentage_error, prediction_ratio
from repro.ml.pipeline import Pipeline
from repro.ml.scaling import StandardScaler

from tests.oracles.dataset import spearman_correlation


class TestMetrics:
    def test_mean_percentage_error_basic(self):
        assert mean_percentage_error([1.0, 2.0], [1.1, 1.8]) == pytest.approx(10.0)

    def test_mean_percentage_error_zero_target_with_zero_prediction(self):
        assert mean_percentage_error([0.0], [0.0]) == pytest.approx(0.0)

    def test_mean_percentage_error_zero_target_with_floor(self):
        # A prediction of 0.05 against a zero target with floor 0.05 is 100 %.
        assert mean_percentage_error([0.0], [0.05], floor=0.05) == pytest.approx(100.0)

    def test_prediction_ratio_symmetric(self):
        assert prediction_ratio([1.0], [2.9]) == pytest.approx(2.9)
        assert prediction_ratio([2.9], [1.0]) == pytest.approx(2.9)

    def test_prediction_ratio_rejects_non_positive(self):
        with pytest.raises(DataError):
            prediction_ratio([0.0], [1.0])

    def test_spearman_detects_nonlinear_monotonic(self):
        x = np.linspace(1, 10, 20)
        assert spearman_correlation(x, x ** 3) == pytest.approx(1.0)
        assert spearman_correlation(x, -np.log(x)) == pytest.approx(-1.0)

    def test_spearman_constant_input_is_zero(self):
        assert spearman_correlation([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) == 0.0

    def test_mean_percentage_error_floor_damps_tiny_targets(self):
        # Without a floor a 1e-9 target off by 1e-9 is a 100 % error; a
        # floor far above the target turns it into a negligible one.
        assert mean_percentage_error([1e-9], [2e-9]) == pytest.approx(100.0)
        assert mean_percentage_error([1e-9], [2e-9], floor=1e-6) < 0.1

    def test_prediction_ratio_averages_per_sample_factors(self):
        assert prediction_ratio([1.0, 1.0], [2.0, 0.25]) == pytest.approx(3.0)

    def test_metrics_flatten_column_vectors(self):
        y_true = np.array([[1.0], [2.0]])
        assert mean_percentage_error(y_true, [1.1, 1.8]) == pytest.approx(10.0)

    def test_length_mismatch_raises(self):
        with pytest.raises(DataError):
            mean_percentage_error([1.0], [1.0, 2.0])


class TestSplitters:
    def test_leave_one_group_out_covers_every_group(self):
        groups = ["a", "a", "b", "c", "c", "c"]
        splitter = LeaveOneGroupOut()
        folds = list(splitter.split(range(6), groups))
        assert len(folds) == 3
        for train, test in folds:
            test_groups = {groups[i] for i in test}
            train_groups = {groups[i] for i in train}
            assert len(test_groups) == 1
            assert test_groups.isdisjoint(train_groups)

    def test_leave_one_group_out_needs_two_groups(self):
        with pytest.raises(DataError):
            list(LeaveOneGroupOut().split([1, 2], ["x", "x"]))

    def test_leave_one_group_out_accepts_integer_group_codes(self):
        # Columnar datasets hand over dictionary-encoded group codes; the
        # folds must be identical to splitting on the decoded names.
        names = ["a", "a", "b", "c", "c", "c"]
        codes = [0, 0, 1, 2, 2, 2]
        by_name = list(LeaveOneGroupOut().split(range(6), names))
        by_code = list(LeaveOneGroupOut().split(range(6), codes))
        assert len(by_name) == len(by_code) == 3
        for (train_n, test_n), (train_c, test_c) in zip(by_name, by_code):
            assert train_n.tolist() == train_c.tolist()
            assert test_n.tolist() == test_c.tolist()

    def test_leave_one_group_out_partitions_everything_once(self):
        groups = ["b", "a", "c", "a", "b", "c", "c"]
        seen = []
        for train, test in LeaveOneGroupOut().split(range(7), groups):
            assert sorted(train.tolist() + test.tolist()) == list(range(7))
            seen.extend(test.tolist())
        assert sorted(seen) == list(range(7))

    def test_leave_one_group_out_rejects_mismatched_groups(self):
        with pytest.raises(DataError):
            list(LeaveOneGroupOut().split(range(3), ["a", "b"]))

    def test_leave_one_group_out_folds_in_sorted_group_order(self):
        folds = list(LeaveOneGroupOut().split(range(3), ["c", "a", "b"]))
        assert [test.tolist() for _train, test in folds] == [[1], [2], [0]]

    def test_cross_val_predict_groups_matches_manual_folds(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(12, 2))
        y = rng.normal(size=12)
        groups = np.repeat(["a", "b", "c"], 4)
        model = KNeighborsRegressor(n_neighbors=3)
        preds = cross_val_predict_groups(model, X, y, groups)
        assert preds.shape == y.shape
        for train, test in LeaveOneGroupOut().split(X, groups):
            fold = model.clone().fit(X[train], y[train])
            assert np.array_equal(preds[test], fold.predict(X[test]))

    def test_cross_val_predict_groups_never_uses_own_group(self):
        # Targets are constant within a group; with 1-NN, a leaked prediction
        # would be exact, an honest one cannot be.
        X = np.array([[0.0], [0.01], [1.0], [1.01]])
        y = np.array([0.0, 0.0, 5.0, 5.0])
        groups = ["g0", "g0", "g1", "g1"]
        preds = cross_val_predict_groups(KNeighborsRegressor(n_neighbors=1), X, y, groups)
        assert np.all(np.abs(preds - y) > 1.0)


class TestPipeline:
    def test_pipeline_scales_before_fitting(self):
        X = np.array([[0.0, 1000.0], [1.0, 2000.0], [2.0, 3000.0]])
        y = np.array([0.0, 1.0, 2.0])
        pipeline = Pipeline(
            [("scaler", StandardScaler()), ("model", KNeighborsRegressor(n_neighbors=1))]
        )
        pipeline.fit(X, y)
        assert pipeline.predict([[1.0, 2000.0]])[0] == pytest.approx(1.0)

    def test_pipeline_clone_is_deep(self):
        pipeline = Pipeline(
            [("scaler", StandardScaler()), ("model", KNeighborsRegressor(n_neighbors=2))]
        )
        clone = pipeline.clone()
        assert clone is not pipeline
        assert clone.steps[-1][1] is not pipeline.steps[-1][1]

    def test_pipeline_requires_transformers_before_model(self):
        with pytest.raises(ConfigurationError):
            Pipeline([("model", KNeighborsRegressor()), ("scaler", StandardScaler())])

    def test_pipeline_rejects_duplicate_names(self):
        with pytest.raises(ConfigurationError):
            Pipeline([("a", StandardScaler()), ("a", KNeighborsRegressor())])

    def test_pipeline_rejects_a_nan_query_row(self):
        pipeline = Pipeline(
            [("scaler", StandardScaler()), ("model", KNeighborsRegressor(n_neighbors=1))]
        ).fit([[0.0, 1.0], [1.0, 0.0]], [0.0, 1.0])
        with pytest.raises(DataError, match="NaN or infinite"):
            pipeline.predict([[0.5, 0.5], [np.nan, 0.5]])

    def test_pipeline_rejects_an_empty_query(self):
        pipeline = Pipeline(
            [("scaler", StandardScaler()), ("model", KNeighborsRegressor(n_neighbors=1))]
        ).fit([[0.0], [1.0]], [0.0, 1.0])
        with pytest.raises(DataError, match="must not be empty"):
            pipeline.predict(np.empty((0, 1)))
