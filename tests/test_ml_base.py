"""Tests for the estimator base classes and validation helpers."""

import numpy as np
import pytest

from repro.errors import DataError, NotFittedError
from repro.ml.base import (
    as_1d_array,
    as_2d_array,
    check_consistent_length,
    validate_fit_args,
)
from repro.ml.knn import KNeighborsRegressor

from tests.oracles.ml import r2_score


class TestArrayValidation:
    def test_as_2d_array_accepts_lists(self):
        arr = as_2d_array([[1.0, 2.0], [3.0, 4.0]])
        assert arr.shape == (2, 2)

    def test_as_2d_array_promotes_1d(self):
        arr = as_2d_array([1.0, 2.0, 3.0])
        assert arr.shape == (1, 3)

    def test_as_2d_array_rejects_3d(self):
        with pytest.raises(DataError):
            as_2d_array(np.zeros((2, 2, 2)))

    def test_as_2d_array_rejects_empty(self):
        with pytest.raises(DataError):
            as_2d_array(np.zeros((0, 3)))

    def test_as_2d_array_rejects_nan(self):
        with pytest.raises(DataError):
            as_2d_array([[1.0, float("nan")]])

    def test_as_1d_array_rejects_inf(self):
        with pytest.raises(DataError):
            as_1d_array([1.0, float("inf")])

    def test_check_consistent_length(self):
        with pytest.raises(DataError):
            check_consistent_length(np.zeros((3, 2)), np.zeros(4))

    def test_validate_fit_args_returns_pair(self):
        X, y = validate_fit_args([[1, 2], [3, 4]], [0.5, 1.5])
        assert X.shape == (2, 2)
        assert y.shape == (2,)


class TestEstimatorProtocol:
    def test_get_params_returns_constructor_args(self):
        model = KNeighborsRegressor(n_neighbors=7, weights="uniform")
        params = model.get_params()
        assert params["n_neighbors"] == 7
        assert params["weights"] == "uniform"

    def test_clone_is_unfitted(self):
        model = KNeighborsRegressor(n_neighbors=2)
        model.fit([[0.0], [1.0]], [0.0, 1.0])
        clone = model.clone()
        assert clone.n_neighbors == 2
        with pytest.raises(NotFittedError):
            clone.predict([[0.5]])

    def test_fitted_params_excluded_from_get_params(self):
        model = KNeighborsRegressor().fit([[0.0], [1.0]], [0.0, 1.0])
        assert "X_train_" not in model.get_params()

    def test_repr_mentions_class_and_params(self):
        text = repr(KNeighborsRegressor(n_neighbors=3))
        assert "KNeighborsRegressor" in text
        assert "n_neighbors=3" in text

    def test_params_rebuild_an_equal_estimator(self):
        model = KNeighborsRegressor(n_neighbors=9, weights="uniform")
        rebuilt = KNeighborsRegressor(**model.get_params())
        assert rebuilt.get_params() == model.get_params()

    def test_unknown_constructor_parameter_rejected(self):
        # The model registry rebuilds estimators from their stored params,
        # so a stale parameter must fail construction, not be ignored.
        with pytest.raises(TypeError):
            KNeighborsRegressor(bogus=1)

    def test_fitted_state_is_not_a_param(self):
        model = KNeighborsRegressor(n_neighbors=1)
        before = model.get_params()
        model.fit([[0.0], [1.0]], [1.0, 2.0])
        assert model.get_params() == before
        assert r2_score(model, [[0.0], [1.0]], [1.0, 2.0]) == pytest.approx(1.0)
