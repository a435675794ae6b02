"""Ranks as output columns: one WER model answers every rank.

Pinned here:

* **Every output column is its own model.**  KNN, SVR and the random
  forest fit a ``(n, R)`` target and each column is bit-identical to a
  1-D fit on that column.
* **The predictor equals the per-rank oracle.**  For all three model
  families, ``predict_batch``, ``predict_grid`` and ``evaluate_wer``
  give the same bits as one independently fitted ``DramErrorModel`` per
  rank (``tests/oracles/predictor.py``), and a registry bundle
  round-trips bit-identically.
* **Misaligned ranks fail loudly.**  A dataset where one rank lacks a
  row raises :class:`DataError` from ``rank_matrices``,
  ``WorkloadAwarePredictor.fit`` and ``evaluate_wer``.
* **A key's answer does not depend on its batch** for the KNN and RDF
  predictors.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import WorkloadAwarePredictor
from repro.core.dataset import build_wer_dataset
from repro.core.evaluation import AccuracyEvaluator
from repro.core.features import get_feature_set
from repro.core.predictor import PredictorConfig
from repro.dram.operating import OperatingPoint
from repro.errors import ConfigurationError, DataError
from repro.ml.forest import RandomForestRegressor
from repro.ml.knn import KNeighborsRegressor
from repro.ml.svm import SVR
from repro.serving import load_model, save_model

from tests.oracles.dataset import (
    campaign_subset,
    encode_rows,
    reference_build_wer_dataset,
)
from tests.oracles.predictor import (
    PerRankPredictor,
    per_rank_wer_errors,
    reference_predict_grid,
)

FAMILIES = ("knn", "svm", "rdf")
WORKLOADS = ("memcached", "kmeans", "bfs", "backprop")
TREFPS = (1.173, 2.283)
TEMPERATURES = (50.0, 60.0)


def _config(family: str) -> PredictorConfig:
    return PredictorConfig(wer_family=family, pue_family=family)


@pytest.fixture(scope="module")
def fitted(small_campaign, small_profiles):
    """``{family: (predictor, per-rank oracle)}`` on the small campaign."""
    return {
        family: (
            WorkloadAwarePredictor(_config(family)).fit(small_campaign, small_profiles),
            PerRankPredictor(_config(family)).fit(small_campaign, small_profiles),
        )
        for family in FAMILIES
    }


@pytest.fixture(scope="module")
def misaligned_campaign(small_campaign):
    """The small campaign with one rank's last measurement dropped."""
    store = small_campaign.wer_columns()
    last_rank = store.ranks.index(max(store.ranks))
    drop = np.flatnonzero(store.rows["rank"] == last_rank).max()
    return campaign_subset(small_campaign, np.delete(np.arange(len(store)), drop))


# ---------------------------------------------------------------------------
# Estimators: every output column is bit-identical to a 1-D fit.
# ---------------------------------------------------------------------------
_ESTIMATORS = {
    "knn": lambda: KNeighborsRegressor(n_neighbors=3),
    "svm": lambda: SVR(C=5.0, epsilon=0.05, gamma="scale", max_iter=60),
    "rdf": lambda: RandomForestRegressor(
        n_estimators=5, max_depth=4, min_samples_leaf=2, max_features=0.8,
        random_state=3,
    ),
}


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(sorted(_ESTIMATORS)),
    n=st.integers(2, 40),
    d=st.integers(1, 6),
    n_outputs=st.integers(1, 5),
    n_queries=st.integers(0, 12),
    decimals=st.integers(0, 3),
    seed=st.integers(0, 2 ** 16),
)
def test_output_columns_match_single_output_fits(name, n, d, n_outputs, n_queries,
                                                 decimals, seed):
    rng = np.random.default_rng(seed)
    # Rounding makes tied distances and tied split values likely.
    X = rng.normal(size=(n, d)).round(decimals)
    Y = rng.normal(size=(n, n_outputs))
    queries = rng.normal(size=(n_queries, d)).round(decimals)
    multi = _ESTIMATORS[name]().fit(X, Y)
    predicted = multi.predict(queries)
    assert predicted.shape == (n_queries, n_outputs)
    for column in range(n_outputs):
        single = _ESTIMATORS[name]().fit(X, Y[:, column])
        expected = single.predict(queries)
        assert expected.shape == (n_queries,)
        assert np.array_equal(predicted[:, column], expected)


def test_scalar_predict_rejects_a_multi_output_model(fitted, backprop_profile):
    predictor, _oracle = fitted["knn"]
    op = OperatingPoint.relaxed(2.283, 50.0)
    with pytest.raises(ConfigurationError, match="predict_matrix"):
        predictor._wer_model.predict(op, backprop_profile.features)


# ---------------------------------------------------------------------------
# Datasets: the rank-column view.
# ---------------------------------------------------------------------------
def test_rank_matrices_match_per_rank_filters(small_wer_dataset):
    feature_set = get_feature_set("set1")
    ranks = small_wer_dataset.ranks()
    X, Y, groups = small_wer_dataset.rank_matrices(feature_set)
    assert Y.shape == (X.shape[0], len(ranks))
    for column, rank in enumerate(ranks):
        X_rank, y_rank, groups_rank = small_wer_dataset.filter_rank(rank).matrices(feature_set)
        assert np.array_equal(X, X_rank)
        assert np.array_equal(groups, groups_rank)
        assert np.array_equal(Y[:, column], y_rank)
    _X, Y_two, _groups = small_wer_dataset.rank_matrices(feature_set, ranks[1::-1])
    assert np.array_equal(Y_two, Y[:, 1::-1])


def test_rank_matrices_reject_misaligned_ranks(misaligned_campaign, small_profiles):
    dataset = build_wer_dataset(misaligned_campaign, small_profiles)
    with pytest.raises(DataError, match="not aligned"):
        dataset.rank_matrices(get_feature_set("set1"))


def test_rank_matrices_reject_shuffled_rows(small_campaign, small_profiles,
                                            small_wer_dataset):
    # Same rows, different order for one rank: positions no longer line up.
    samples = reference_build_wer_dataset(small_campaign, small_profiles)
    last_rank = small_wer_dataset.ranks()[-1]
    rows = [i for i, sample in enumerate(samples) if sample.rank == last_rank]
    samples[rows[0]], samples[rows[1]] = samples[rows[1]], samples[rows[0]]
    with pytest.raises(DataError, match="not aligned"):
        encode_rows(samples).rank_matrices(get_feature_set("set1"))


def test_misaligned_ranks_fail_fit_and_evaluation(misaligned_campaign, small_profiles):
    with pytest.raises(DataError, match="not aligned"):
        WorkloadAwarePredictor().fit(misaligned_campaign, small_profiles)
    dataset = build_wer_dataset(misaligned_campaign, small_profiles)
    with pytest.raises(DataError, match="not aligned"):
        AccuracyEvaluator().evaluate_wer(dataset, "knn", "set1")


# ---------------------------------------------------------------------------
# The predictor against one independently fitted model per rank.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("family", FAMILIES)
def test_predict_batch_matches_per_rank_models(fitted, family):
    predictor, oracle = fitted[family]
    assert predictor.ranks == oracle.ranks
    workloads = [w for w in WORKLOADS for _ in TREFPS for _ in TEMPERATURES]
    points = [OperatingPoint.relaxed(t, c) for _ in WORKLOADS
              for t in TREFPS for c in TEMPERATURES]
    for rows in (slice(0, 1), slice(0, 2), slice(3, 10), slice(None)):
        batch = predictor.predict_batch(workloads[rows], points[rows])
        wer, pue = oracle.predict_batch(workloads[rows], points[rows])
        assert np.array_equal(batch.wer, wer)
        assert batch.pue is not None and np.array_equal(batch.pue, pue)


@pytest.mark.parametrize("family", FAMILIES)
def test_predict_grid_matches_per_point_per_rank_reference(fitted, family):
    predictor, oracle = fitted[family]
    grid = predictor.predict_grid(WORKLOADS, TREFPS, TEMPERATURES)
    ref_wer, ref_pue = reference_predict_grid(
        oracle, WORKLOADS, TREFPS, TEMPERATURES, grid.vdd_v
    )
    assert grid.pue is not None and ref_pue is not None
    if family == "svm":
        # The RBF Gram row and the coefficient product round differently
        # as one-row GEMV and multi-row GEMM (ROADMAP items 6 and 7).
        np.testing.assert_allclose(grid.wer, ref_wer, rtol=1e-9)
        np.testing.assert_allclose(grid.pue, ref_pue, rtol=1e-9)
    else:
        assert np.array_equal(grid.wer, ref_wer)
        assert np.array_equal(grid.pue, ref_pue)


@pytest.mark.parametrize("family", FAMILIES)
def test_evaluate_wer_matches_per_rank_passes(small_wer_dataset, family):
    ranks = small_wer_dataset.ranks()[:3]
    report = AccuracyEvaluator().evaluate_wer(small_wer_dataset, family, "set1", ranks=ranks)
    by_rank, by_workload = per_rank_wer_errors(small_wer_dataset, family, "set1", ranks)
    assert list(report.error_by_rank) == ranks
    assert report.error_by_rank == by_rank
    assert list(report.error_by_workload) == list(by_workload)
    assert report.error_by_workload == by_workload


@pytest.mark.parametrize("family", FAMILIES)
def test_registry_round_trip_is_exact(fitted, family, tmp_path):
    predictor, _oracle = fitted[family]
    restored = load_model(save_model(predictor, tmp_path / family))
    assert restored.ranks == predictor.ranks
    points = [OperatingPoint.relaxed(t, c) for t in TREFPS for c in TEMPERATURES]
    workloads = [WORKLOADS[i % len(WORKLOADS)] for i in range(len(points))]
    original = predictor.predict_batch(workloads, points)
    reloaded = restored.predict_batch(workloads, points)
    assert np.array_equal(original.wer, reloaded.wer)
    assert original.pue is not None and np.array_equal(original.pue, reloaded.pue)


# ---------------------------------------------------------------------------
# Batch invariance: a key's answer does not depend on the rest of its batch.
# ---------------------------------------------------------------------------
_KEYS = st.tuples(
    st.sampled_from(WORKLOADS),
    st.floats(min_value=0.1, max_value=2.283),
    st.floats(min_value=30.0, max_value=70.0),
)


# ``svm`` is left out: its RBF Gram matrix uses the expanded
# |a|^2 + |b|^2 - 2a.b distance, and its prediction is a kernel-matrix by
# coefficient product; both are matmuls that round differently as
# one-row GEMV and multi-row GEMM, so its last bits depend on the batch
# (ROADMAP items 6 and 7).
@settings(max_examples=30, deadline=None)
@given(
    family=st.sampled_from(("knn", "rdf")),
    keys=st.lists(_KEYS, min_size=1, max_size=24),
    data=st.data(),
)
def test_a_key_gets_the_same_bits_in_any_batch(fitted, family, keys, data):
    predictor, _oracle = fitted[family]
    position = data.draw(st.integers(0, len(keys) - 1))
    workloads = [name for name, _trefp, _temp in keys]
    points = [OperatingPoint.relaxed(trefp, temp) for _name, trefp, temp in keys]
    batch = predictor.predict_batch(workloads, points)
    alone = predictor.predict_batch([workloads[position]], [points[position]])
    assert np.array_equal(batch.wer[:, position], alone.wer[:, 0])
    assert batch.pue is not None and alone.pue is not None
    assert np.array_equal(batch.pue[position], alone.pue[0])
