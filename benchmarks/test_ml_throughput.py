"""Vectorized ML core: oracle equivalence and throughput floors.

The flattened-tree forest and the ``argmin``-pass neighbour search are
the model-evaluation hot path of the accuracy study (Section VI): every
leave-one-workload-out fold refits and re-predicts a model per feature
set.  These benchmarks pin the vectorized estimators against the
per-row oracles in ``tests/oracles/ml.py`` the same way the ECC and
dataset benchmarks pin their batch engines:

* a leave-one-group-out KNN cross-validation over a campaign-shaped
  design matrix (14 workload groups, ``INPUT_SET_1``-sized feature
  rows) is at least 5x faster than the oracle estimator and produces
  *bit-identical* out-of-fold predictions;
* batched forest prediction over the flattened ensemble is at least 5x
  faster than the per-tree/per-row node walk, also bit-identical;
* fitting the campaign's set1 forest (154 rows x 7 inputs, 30 trees)
  with the lockstep grower is at least 2x faster than the recursive
  one-tree-at-a-time builder, with
  bit-identical flat node arrays.
"""

import time

import numpy as np
import pytest

from repro.core.features import INPUT_SET_1
from repro.ml.cross_validation import cross_val_predict_groups
from repro.ml.forest import RandomForestRegressor
from repro.ml.knn import KNeighborsRegressor

from tests.oracles.ml import (
    ReferenceKNeighborsRegressor,
    fit_forest_oracle,
    reference_forest_predict,
)

pytestmark = pytest.mark.slow

#: Leave-one-group-out CV shape: one group per campaign workload, with
#: enough rows per group that the per-row oracle's Python loop (not the
#: shared distance kernel) dominates its runtime.
N_GROUPS = 14
ROWS_PER_GROUP = 384


def _campaign_shaped_regression(seed=7):
    """Synthetic (X, y, groups) shaped like the WER design matrix."""
    rng = np.random.default_rng(seed)
    n_features = INPUT_SET_1.num_inputs
    X = rng.normal(size=(N_GROUPS * ROWS_PER_GROUP, n_features))
    y = rng.normal(size=X.shape[0])
    groups = np.repeat(np.arange(N_GROUPS), ROWS_PER_GROUP)
    return X, y, groups


def test_knn_cv_at_least_5x_oracle(bench_report):
    X, y, groups = _campaign_shaped_regression()
    vectorized = KNeighborsRegressor(n_neighbors=5)
    oracle = ReferenceKNeighborsRegressor(n_neighbors=5)

    # Warm both paths (imports, BLAS thread pools) on a two-group slice.
    warm = groups < 2
    cross_val_predict_groups(vectorized, X[warm], y[warm], groups[warm])
    cross_val_predict_groups(oracle, X[warm], y[warm], groups[warm])

    pred_vec = cross_val_predict_groups(vectorized, X, y, groups)
    pred_ref = cross_val_predict_groups(oracle, X, y, groups)
    # Same neighbour sets, same weights, same reductions: bit-identical.
    assert np.array_equal(pred_vec, pred_ref)

    scalar_s = min(
        _timed(lambda: cross_val_predict_groups(oracle, X, y, groups))
        for _ in range(2)
    )
    batch_s = min(
        _timed(lambda: cross_val_predict_groups(vectorized, X, y, groups))
        for _ in range(5)
    )
    speedup = bench_report.record(
        "ml_knn_cv", floor=5.0, scalar_s=scalar_s, batch_s=batch_s,
        units_label="rows", work_items=X.shape[0],
    )
    assert speedup >= 5.0


def test_forest_predict_at_least_5x_node_walk(bench_report):
    X, y, _groups = _campaign_shaped_regression(seed=11)
    forest = RandomForestRegressor(
        n_estimators=20, max_depth=8, random_state=3
    ).fit(X[:1500], y[:1500])
    Xq = X[1500:]

    pred_vec = forest.predict(Xq)
    pred_ref = reference_forest_predict(forest, Xq)
    assert np.array_equal(pred_vec, pred_ref)

    scalar_s = min(
        _timed(lambda: reference_forest_predict(forest, Xq)) for _ in range(3)
    )
    batch_s = min(_timed(lambda: forest.predict(Xq)) for _ in range(5))
    speedup = bench_report.record(
        "ml_forest_predict", floor=5.0, scalar_s=scalar_s, batch_s=batch_s,
        units_label="rows", work_items=Xq.shape[0],
    )
    assert speedup >= 5.0


def test_forest_fit_at_least_2x_oracle(bench_report):
    # One leave-one-workload-out training fold of the set1 WER model:
    # 154 rows, 7 inputs of which the operating parameters take only a
    # few distinct values, and the RDF configuration of repro.core.model.
    rng = np.random.default_rng(2019)
    n_rows = 154
    X = rng.normal(size=(n_rows, INPUT_SET_1.num_inputs))
    X[:, -3:] = rng.integers(0, 4, size=(n_rows, 3))
    y = X[:, 0] - 0.5 * X[:, -1] + rng.normal(scale=0.3, size=n_rows)
    forest = RandomForestRegressor(
        n_estimators=30, max_depth=10, min_samples_leaf=3, max_features=0.8,
        random_state=2019,
    )

    forest.fit(X, y)
    oracle = fit_forest_oracle(forest, X, y)
    for got, want in zip(
        (forest._roots_, forest._feature_, forest._threshold_,
         forest._left_, forest._right_, forest._value_),
        (oracle.roots, oracle.feature, oracle.threshold,
         oracle.left, oracle.right, oracle.value),
    ):
        assert np.array_equal(got, want)

    scalar_s = min(_timed(lambda: fit_forest_oracle(forest, X, y)) for _ in range(3))
    batch_s = min(_timed(lambda: forest.fit(X, y)) for _ in range(5))
    speedup = bench_report.record(
        "ml_forest_fit", floor=2.0, scalar_s=scalar_s, batch_s=batch_s,
        units_label="nodes", work_items=forest._feature_.shape[0],
    )
    assert speedup >= 2.0


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
