"""Tests for the scaling / column transformers."""

import numpy as np
import pytest

from repro.errors import NotFittedError
from repro.ml.scaling import (
    ColumnLogTransformer,
    ColumnWeightTransformer,
    StandardScaler,
)


class TestStandardScaler:
    def test_zero_mean_unit_variance(self):
        X = np.array([[1.0, 10.0], [3.0, 30.0], [5.0, 50.0]])
        Z = StandardScaler().fit(X).transform(X)
        assert np.allclose(Z.mean(axis=0), 0.0)
        assert np.allclose(Z.std(axis=0), 1.0)

    def test_constant_column_does_not_produce_nan(self):
        X = np.array([[1.0, 5.0], [1.0, 7.0]])
        Z = StandardScaler().fit(X).transform(X)
        assert np.all(np.isfinite(Z))
        assert np.allclose(Z[:, 0], 0.0)

    def test_transform_uses_fitted_statistics(self):
        scaler = StandardScaler().fit([[1.0, 10.0], [3.0, 30.0]])
        Z = scaler.transform([[2.0, 20.0], [3.0, 30.0]])
        assert np.allclose(Z[0], 0.0)
        assert np.allclose(Z[1], 1.0)

    def test_constant_nonzero_column_is_centred_to_zero(self):
        # Regression (hypothesis counterexample): the mean of three copies of
        # 0.1 is one ulp off 0.1, leaving std ~ 1e-17 instead of exactly 0;
        # the old `std == 0.0` guard then divided the matching roundoff
        # residual by it and returned -1.0 for a constant column.
        X = np.array([[0.1], [0.1], [0.1]])
        Z = StandardScaler().fit(X).transform(X)
        assert np.allclose(Z, 0.0, atol=1e-9)
        assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-9)

    def test_constant_large_magnitude_column_is_centred_to_zero(self):
        # Same failure mode at the other end of the feature scale: raw
        # counter values are large, so the roundoff std scales with |mean|.
        X = np.full((7, 3), [997.7, 1.0e6, -3.3])
        Z = StandardScaler().fit(X).transform(X)
        assert np.allclose(Z, 0.0, atol=1e-9)

    def test_tiny_but_real_variation_is_preserved(self):
        X = np.array([[1.0], [1.0 + 1e-6]])
        Z = StandardScaler().fit(X).transform(X)
        assert np.allclose(Z.std(axis=0), 1.0)

    def test_large_sample_small_relative_variance_is_not_clamped(self):
        # The noise floor must stay logarithmic in the sample count: a
        # linear-in-n bound (n * eps * |mean|) reaches 0.22 here and would
        # silently treat a real std of 0.05 around mean 1e9 as constant.
        rng = np.random.default_rng(0)
        X = 1e9 + rng.normal(0.0, 0.05, size=(1_000_000, 1))
        Z = StandardScaler().fit(X).transform(X)
        assert np.allclose(Z.std(axis=0), 1.0, atol=1e-6)
        assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-6)

    def test_transform_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            StandardScaler().transform([[1.0]])

    def test_feature_count_mismatch_raises(self):
        scaler = StandardScaler().fit([[1.0, 2.0]])
        with pytest.raises(ValueError):
            scaler.transform([[1.0, 2.0, 3.0]])


class TestColumnLogTransformer:
    def test_only_selected_columns_are_transformed(self):
        X = np.array([[10.0, 10.0], [100.0, 100.0]])
        Z = ColumnLogTransformer(columns=[0]).fit(X).transform(X)
        assert Z[0, 0] == pytest.approx(1.0, abs=1e-6)
        assert Z[1, 0] == pytest.approx(2.0, abs=1e-6)
        assert np.allclose(Z[:, 1], X[:, 1])

    def test_zero_values_use_offset(self):
        Z = ColumnLogTransformer(columns=[0], offset=1e-6).fit([[0.0]]).transform([[0.0]])
        assert Z[0, 0] == pytest.approx(-6.0)

    def test_power_of_ten_recovers_the_input(self):
        X = np.array([[1e-9, 5.0], [1e-5, 6.0], [1.0, 7.0]])
        Z = ColumnLogTransformer(columns=[0], offset=1e-12).fit(X).transform(X)
        assert np.allclose(10.0 ** Z[:, 0] - 1e-12, X[:, 0], rtol=1e-9)
        assert np.array_equal(Z[:, 1], X[:, 1])

    def test_out_of_range_column_raises(self):
        with pytest.raises(ValueError):
            ColumnLogTransformer(columns=[5]).fit([[1.0, 2.0]])


class TestColumnWeightTransformer:
    def test_weights_are_applied(self):
        Z = ColumnWeightTransformer([2.0, 1.0]).fit([[3.0, 3.0]]).transform([[3.0, 3.0]])
        assert Z[0, 0] == pytest.approx(6.0)
        assert Z[0, 1] == pytest.approx(3.0)

    def test_rejects_non_positive_weights(self):
        with pytest.raises(ValueError):
            ColumnWeightTransformer([1.0, 0.0])

    def test_rejects_mismatched_width(self):
        with pytest.raises(ValueError):
            ColumnWeightTransformer([1.0]).fit([[1.0, 2.0]])

    def test_clone_keeps_weights(self):
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        transformer = ColumnWeightTransformer([0.5, 4.0])
        expected = transformer.fit(X).transform(X)
        assert np.array_equal(transformer.clone().fit(X).transform(X), expected)

    def test_transform_rejects_mismatched_width(self):
        with pytest.raises(ValueError):
            ColumnWeightTransformer([1.0, 1.0]).transform([[1.0, 2.0, 3.0]])
