"""The serving layer: registry round-trips, batched grids, the facade.

Three contracts are pinned here:

* **Registry round-trips are exact.**  ``save_estimator``/``save_model``
  followed by a load reproduces predictions ``np.array_equal`` across
  every model family (tree, forest, KNN, SVM); corrupted or missing
  bundles raise :class:`~repro.errors.RegistryError`.
* **The batched API never changes numbers.**  ``predict`` is a wrapper
  over ``predict_batch``; ``predict_grid`` matches the per-point
  reference (``tests.oracles.predictor.reference_predict_grid``, one
  independently fitted model per rank) to a documented 1e-9 relative
  tolerance (the SVM's BLAS batch shape may differ in the last ulps).
* **The facade is transparent.**  Cached and batched
  :class:`~repro.serving.PredictionService` responses equal direct
  ``predict_batch`` output, including under concurrent load.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import WorkloadAwarePredictor
from repro.dram.operating import OperatingPoint
from repro.errors import (
    ConfigurationError,
    DataError,
    NotFittedError,
    RegistryError,
    WorkloadError,
)
from repro.ml.forest import RandomForestRegressor
from repro.ml.knn import KNeighborsRegressor
from repro.ml.pipeline import Pipeline
from repro.ml.scaling import (
    ColumnLogTransformer,
    ColumnWeightTransformer,
    StandardScaler,
)
from repro.ml.svm import SVR
from repro.ml.tree import DecisionTreeRegressor
from repro.serving import (
    MODEL_BUNDLE_SCHEMA,
    ModelRegistry,
    PredictionService,
    PredictRequest,
    load_estimator,
    load_model,
    save_estimator,
    save_model,
)

from tests.oracles.predictor import PerRankPredictor, reference_predict_grid

WORKLOADS = ("memcached", "kmeans", "bfs")
TREFPS = (1.173, 2.283)
TEMPERATURES = (50.0, 60.0)
OP = OperatingPoint.relaxed(2.283, 50.0)


@pytest.fixture(scope="module")
def predictor(small_campaign):
    return WorkloadAwarePredictor().fit(small_campaign)


@pytest.fixture(scope="module")
def per_rank(small_campaign):
    return PerRankPredictor().fit(small_campaign)


def _training_data(seed: int = 5, n: int = 60, d: int = 5):
    rng = np.random.default_rng(seed)
    X = np.abs(rng.normal(size=(n, d))) + 0.1
    y = rng.normal(size=n)
    return X, y


def _estimator_factories():
    return {
        "tree": lambda: DecisionTreeRegressor(
            max_depth=6, min_samples_leaf=2, max_features=0.8, random_state=3
        ),
        "forest": lambda: RandomForestRegressor(
            n_estimators=6, max_depth=5, min_samples_leaf=2,
            max_features=0.8, random_state=3,
        ),
        "knn": lambda: KNeighborsRegressor(n_neighbors=3, weights="distance"),
        "svm": lambda: SVR(kernel="rbf", C=5.0, epsilon=0.05, gamma="scale"),
    }


# ---------------------------------------------------------------------------
# Estimator bundles: every family round-trips bit-identically.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("family", sorted(_estimator_factories()))
def test_estimator_round_trip_is_exact(family, tmp_path):
    X, y = _training_data()
    estimator = _estimator_factories()[family]().fit(X, y)
    X_query, _ = _training_data(seed=7, n=25)
    expected = estimator.predict(X_query)

    save_estimator(estimator, tmp_path / family)
    restored = load_estimator(tmp_path / family)
    assert type(restored) is type(estimator)
    assert np.array_equal(restored.predict(X_query), expected)


@pytest.mark.parametrize("n_outputs", [None, 3])
def test_svr_round_trip_keeps_attribute_types(n_outputs, tmp_path):
    X, y = _training_data()
    if n_outputs is not None:
        y = np.column_stack([y + shift for shift in range(n_outputs)])
    estimator = _estimator_factories()["svm"]().fit(X, y)
    save_estimator(estimator, tmp_path / "svm")
    restored = load_estimator(tmp_path / "svm")
    for name in ("beta_", "intercept_", "n_iter_"):
        fitted, loaded = getattr(estimator, name), getattr(restored, name)
        assert type(loaded) is type(fitted)
        assert np.array_equal(loaded, fitted)
    if n_outputs is not None:
        assert restored.intercept_.shape == (n_outputs,)
        assert restored.n_iter_.shape == (n_outputs,)


@pytest.mark.parametrize("family", sorted(_estimator_factories()))
def test_pipeline_round_trip_is_exact(family, tmp_path):
    X, y = _training_data()
    weights = np.linspace(1.0, 3.0, X.shape[1])
    pipeline = Pipeline([
        ("log", ColumnLogTransformer([0, 2])),
        ("scaler", StandardScaler()),
        ("weights", ColumnWeightTransformer(weights)),
        ("model", _estimator_factories()[family]()),
    ]).fit(X, y)
    X_query, _ = _training_data(seed=11, n=25)
    expected = pipeline.predict(X_query)

    save_estimator(pipeline, tmp_path / family)
    restored = load_estimator(tmp_path / family)
    assert [name for name, _step in restored.steps] == ["log", "scaler", "weights", "model"]
    assert np.array_equal(restored.predict(X_query), expected)


def test_column_transformers_round_trip(tmp_path):
    X, _ = _training_data()
    X = np.abs(X)
    for name, transformer in (
        ("log", ColumnLogTransformer(columns=[0, 2], offset=1e-9)),
        ("weights", ColumnWeightTransformer(np.linspace(0.5, 2.0, X.shape[1]))),
    ):
        transformer.fit(X)
        restored = load_estimator(save_estimator(transformer, tmp_path / name))
        assert np.array_equal(restored.transform(X), transformer.transform(X))


def test_unfitted_estimator_is_rejected(tmp_path):
    with pytest.raises(NotFittedError):
        save_estimator(DecisionTreeRegressor(), tmp_path / "bundle")


def test_unknown_estimator_type_is_rejected(tmp_path):
    with pytest.raises(RegistryError, match="no serialization codec"):
        save_estimator(object(), tmp_path / "bundle")


# ---------------------------------------------------------------------------
# Corrupted / missing bundles.
# ---------------------------------------------------------------------------
def _fitted_tree_bundle(tmp_path):
    X, y = _training_data()
    tree = DecisionTreeRegressor(max_depth=4, random_state=1).fit(X, y)
    return save_estimator(tree, tmp_path / "bundle")


def test_missing_bundle_raises(tmp_path):
    with pytest.raises(RegistryError, match="missing manifest"):
        load_estimator(tmp_path / "nowhere")


def test_corrupt_manifest_json_raises(tmp_path):
    path = _fitted_tree_bundle(tmp_path)
    (path / "manifest.json").write_text("{not json", encoding="utf-8")
    with pytest.raises(RegistryError, match="corrupted manifest"):
        load_estimator(path)


def test_wrong_schema_raises(tmp_path):
    path = _fitted_tree_bundle(tmp_path)
    manifest = json.loads((path / "manifest.json").read_text(encoding="utf-8"))
    manifest["schema"] = "repro.model_bundle/v999"
    (path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(RegistryError, match="unsupported bundle schema"):
        load_estimator(path)


def test_wrong_kind_raises(tmp_path):
    path = _fitted_tree_bundle(tmp_path)
    with pytest.raises(RegistryError, match="expected a 'predictor'"):
        load_model(path)


def test_missing_arrays_file_raises(tmp_path):
    path = _fitted_tree_bundle(tmp_path)
    (path / "arrays.npz").unlink()
    with pytest.raises(RegistryError, match="missing arrays.npz"):
        load_estimator(path)


def test_truncated_arrays_raise(tmp_path):
    path = _fitted_tree_bundle(tmp_path)
    # Rewrite the npz without the tree's threshold array.
    with np.load(path / "arrays.npz") as stored:
        arrays = {key: stored[key] for key in stored.files}
    arrays.pop("estimator/threshold_")
    np.savez(path / "arrays.npz", **arrays)
    with pytest.raises(RegistryError, match="missing array"):
        load_estimator(path)


def test_knn_spec_with_metric_parameter_raises(tmp_path):
    # KNN is Euclidean only: a spec still carrying the old ``metric``
    # parameter cannot construct the estimator.
    X, y = _training_data()
    knn = KNeighborsRegressor(n_neighbors=3).fit(X, y)
    path = save_estimator(knn, tmp_path / "bundle")
    manifest = json.loads((path / "manifest.json").read_text(encoding="utf-8"))
    manifest["payload"]["estimator"]["params"]["metric"] = "euclidean"
    (path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(RegistryError, match="cannot construct KNeighborsRegressor"):
        load_estimator(path)


def test_manifest_is_environment_stamped(tmp_path):
    path = _fitted_tree_bundle(tmp_path)
    manifest = json.loads((path / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["schema"] == MODEL_BUNDLE_SCHEMA
    assert "python_version" in manifest["environment"]
    assert "numpy_version" in manifest["environment"]


# ---------------------------------------------------------------------------
# Predictor bundles and the versioned registry.
# ---------------------------------------------------------------------------
def test_save_model_requires_fitted_predictor(tmp_path):
    with pytest.raises(RegistryError, match="unfitted"):
        save_model(WorkloadAwarePredictor(), tmp_path / "bundle")


def test_model_round_trip_is_exact(predictor, tmp_path):
    path = save_model(predictor, tmp_path / "bundle")
    restored = load_model(path)

    assert restored.ranks == predictor.ranks
    assert restored.config == predictor.config
    for op in (OperatingPoint.relaxed(t, c) for t in TREFPS for c in TEMPERATURES):
        original = predictor.predict_batch(WORKLOADS, [op])
        reloaded = restored.predict_batch(WORKLOADS, [op])
        assert np.array_equal(original.wer, reloaded.wer)
        assert original.pue is not None and np.array_equal(original.pue, reloaded.pue)


def test_v1_predictor_bundle_is_rejected(predictor, tmp_path):
    # v1 bundles held one WER pipeline per rank; v2 and later hold one
    # multi-output pipeline and the rank list, so a v1 bundle cannot be
    # read as the current schema.
    path = save_model(predictor, tmp_path / "bundle")
    manifest = json.loads((path / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["schema"] == MODEL_BUNDLE_SCHEMA == "repro.model_bundle/v3"
    manifest["schema"] = "repro.model_bundle/v1"
    (path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(RegistryError) as excinfo:
        load_model(path)
    assert "repro.model_bundle/v1" in str(excinfo.value)
    assert "repro.model_bundle/v3" in str(excinfo.value)


def test_registry_versioning(predictor, tmp_path):
    registry = ModelRegistry(tmp_path)
    assert registry.save("wer", predictor) == "v1"
    assert registry.save("wer", predictor) == "v2"
    assert registry.versions("wer") == ["v1", "v2"]
    assert registry.latest_version("wer") == "v2"
    assert registry.path("wer").name == "v2"

    loaded = registry.load("wer")
    pinned = registry.load("wer", version="v1")
    batch = predictor.predict_batch(WORKLOADS, [OP])
    assert np.array_equal(loaded.predict_batch(WORKLOADS, [OP]).wer, batch.wer)
    assert np.array_equal(pinned.predict_batch(WORKLOADS, [OP]).wer, batch.wer)

    with pytest.raises(RegistryError, match="no model named"):
        registry.latest_version("missing")
    with pytest.raises(RegistryError, match="no version"):
        registry.load("wer", version="v9")
    with pytest.raises(RegistryError, match="invalid model name"):
        registry.save("../escape", predictor)


# ---------------------------------------------------------------------------
# The batched prediction API.
# ---------------------------------------------------------------------------
def test_predict_is_a_batch_wrapper(predictor):
    result = predictor.predict("memcached", OP)
    batch = predictor.predict_batch(["memcached"], [OP])
    assert result.wer_by_rank == batch.result(0).wer_by_rank
    assert result.pue == batch.result(0).pue


def test_predict_batch_broadcasts_and_pairs(predictor):
    ops = [OperatingPoint.relaxed(t, 50.0) for t in TREFPS]
    paired = predictor.predict_batch(["memcached", "kmeans"], ops)
    assert len(paired) == 2
    scalar_op = predictor.predict_batch(WORKLOADS, [OP])
    assert len(scalar_op) == len(WORKLOADS)
    for index, name in enumerate(WORKLOADS):
        single = predictor.predict(name, OP)
        assert single.wer_by_rank == scalar_op.result(index).wer_by_rank
    with pytest.raises(ConfigurationError, match="pair up elementwise"):
        predictor.predict_batch(WORKLOADS, ops)


def test_predict_grid_matches_per_point_reference(predictor, per_rank):
    grid = predictor.predict_grid(WORKLOADS, TREFPS, TEMPERATURES)
    assert grid.shape == (len(WORKLOADS), len(TREFPS), len(TEMPERATURES), 1)
    assert grid.num_predictions == len(WORKLOADS) * len(TREFPS) * len(TEMPERATURES)
    assert per_rank.ranks == predictor.ranks
    ref_wer, ref_pue = reference_predict_grid(
        per_rank, WORKLOADS, TREFPS, TEMPERATURES, grid.vdd_v
    )
    np.testing.assert_allclose(grid.wer, ref_wer, rtol=1e-9)
    assert grid.pue is not None and ref_pue is not None
    np.testing.assert_allclose(grid.pue, ref_pue, rtol=1e-9)


def test_predict_grid_validates_axes(predictor):
    with pytest.raises(ConfigurationError):
        predictor.predict_grid(WORKLOADS, (), TEMPERATURES)
    with pytest.raises(ConfigurationError):
        predictor.predict_grid(WORKLOADS, (-1.0,), TEMPERATURES)


# ---------------------------------------------------------------------------
# The serving facade.
# ---------------------------------------------------------------------------
def test_service_requires_fitted_predictor():
    with pytest.raises(ConfigurationError, match="fitted"):
        PredictionService(WorkloadAwarePredictor())


def test_service_matches_direct_predictions(predictor):
    direct = predictor.predict_batch(WORKLOADS, [OP])
    with PredictionService(predictor, batch_window_s=0.0) as service:
        for index, name in enumerate(WORKLOADS):
            response = service.predict(name, OP)
            assert response.ranks == direct.ranks
            assert np.array_equal(np.array(response.wer), direct.wer[:, index])
            assert response.pue == float(direct.pue[index])


def test_service_cache_hits_and_stats(predictor):
    with PredictionService(predictor, batch_window_s=0.0) as service:
        first = service.predict("memcached", OP)
        second = service.predict("memcached", OP)
        stats = service.stats()
    assert not first.cached
    assert second.cached
    assert first.wer == second.wer and first.pue == second.pue
    assert stats.requests == 2
    assert stats.cache_hits == 1 and stats.cache_misses == 1
    assert stats.predictions == 1
    assert 0.0 < stats.hit_rate < 1.0


def test_service_concurrent_load_is_consistent(predictor):
    requests = [
        PredictRequest.at(name, OperatingPoint.relaxed(trefp, temp))
        for name in WORKLOADS
        for trefp in TREFPS
        for temp in TEMPERATURES
    ]
    direct = predictor.predict_batch(
        [r.workload for r in requests], [r.operating_point() for r in requests]
    )
    with PredictionService(predictor, batch_window_s=0.002) as service:
        with ThreadPoolExecutor(max_workers=6) as pool:
            rounds = list(pool.map(service.predict_many, [requests] * 4))
        stats = service.stats()
    for responses in rounds:
        for index, response in enumerate(responses):
            assert np.array_equal(np.array(response.wer), direct.wer[:, index])
            assert response.pue == float(direct.pue[index])
    assert stats.requests == 4 * len(requests)
    # Duplicate keys coalesce: far fewer model calls than requests.
    assert stats.predictions < stats.requests
    assert stats.max_batch_size >= 1


def test_service_cache_disabled(predictor):
    with PredictionService(predictor, cache_size=0, batch_window_s=0.0) as service:
        first = service.predict("memcached", OP)
        second = service.predict("memcached", OP)
        stats = service.stats()
    assert not first.cached and not second.cached
    assert stats.cache_hits == 0 and stats.cache_misses == 2
    assert first.wer == second.wer


def test_service_lru_evicts_oldest(predictor):
    with PredictionService(predictor, cache_size=2, batch_window_s=0.0) as service:
        ops = [OperatingPoint.relaxed(t, c) for t in TREFPS for c in TEMPERATURES]
        for op in ops[:3]:
            service.predict("memcached", op)
        # The first operating point was evicted; the latest two are hits.
        assert service.predict("memcached", ops[2]).cached
        assert service.predict("memcached", ops[1]).cached
        assert not service.predict("memcached", ops[0]).cached


def test_service_close_rejects_new_work(predictor):
    service = PredictionService(predictor, batch_window_s=0.0)
    service.predict("memcached", OP)
    service.close()
    service.close()   # idempotent
    with pytest.raises(ConfigurationError, match="closed"):
        service.submit(PredictRequest.at("memcached", OP))


def test_service_propagates_model_errors(predictor, monkeypatch):
    def failing_predict_batch(workloads, operating_points):
        raise DataError("model failure")

    monkeypatch.setattr(predictor, "predict_batch", failing_predict_batch)
    with PredictionService(predictor, batch_window_s=0.0) as service:
        future = service.submit(PredictRequest.at("memcached", OP))
        with pytest.raises(DataError, match="model failure"):
            future.result(timeout=10.0)


def test_unknown_workload_fails_only_its_own_request(predictor):
    # Regression: an unknown name used to reach the coalesced batch and
    # fail every waiter in it, including unrelated valid requests.
    direct = predictor.predict_batch(["bfs"], [OP])
    with PredictionService(predictor, batch_window_s=0.05) as service:
        valid = service.submit(PredictRequest.at("bfs", OP))
        with pytest.raises(WorkloadError):
            service.submit(PredictRequest.at("no-such-workload", OP))
        response = valid.result(timeout=10.0)
        stats = service.stats()
    assert np.array_equal(np.array(response.wer), direct.wer[:, 0])
    assert stats.requests == 1 and stats.cache_misses == 1
    assert stats.predictions == 1


def test_request_validation():
    with pytest.raises(ConfigurationError):
        PredictRequest(workload="", trefp_s=2.283, vdd_v=1.428, temperature_c=50.0)
    with pytest.raises(WorkloadError):
        PredictRequest(workload="no-such-workload", trefp_s=2.283, vdd_v=1.428,
                       temperature_c=50.0)
    with pytest.raises(ConfigurationError):
        PredictRequest(workload="memcached", trefp_s=-1.0, vdd_v=1.428,
                       temperature_c=50.0)
