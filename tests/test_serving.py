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
  ``predict_batch`` output, including under concurrent load; a burst
  predicts each distinct key once, and a failing key fails only its own
  requests.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import DramErrorModel, ModelConfig, WorkloadAwarePredictor
from repro.core.predictor import PredictionBatch
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
from repro.telemetry import telemetry_session

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
        "knn": lambda: KNeighborsRegressor(n_neighbors=3),
        "svm": lambda: SVR(C=5.0, epsilon=0.05, gamma="scale"),
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


def _rewrite_manifest(path, edit):
    manifest = json.loads((path / "manifest.json").read_text(encoding="utf-8"))
    edit(manifest)
    (path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


def test_manifest_that_is_not_an_object_raises(tmp_path):
    path = _fitted_tree_bundle(tmp_path)
    (path / "manifest.json").write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(RegistryError, match="not a JSON object"):
        load_estimator(path)


def test_manifest_without_payload_raises(tmp_path):
    path = _fitted_tree_bundle(tmp_path)
    _rewrite_manifest(path, lambda manifest: manifest.pop("payload"))
    with pytest.raises(RegistryError, match="no payload"):
        load_estimator(path)


def test_unreadable_arrays_file_raises(tmp_path):
    path = _fitted_tree_bundle(tmp_path)
    (path / "arrays.npz").write_bytes(b"not an npz archive")
    with pytest.raises(RegistryError, match="corrupted arrays.npz"):
        load_estimator(path)


def test_estimator_bundle_without_estimator_spec_raises(tmp_path):
    path = _fitted_tree_bundle(tmp_path)
    _rewrite_manifest(path, lambda manifest: manifest["payload"].clear())
    with pytest.raises(RegistryError, match="no estimator payload"):
        load_estimator(path)


@pytest.mark.parametrize("spec", ["tree", {"params": {}}], ids=["string", "no-type"])
def test_malformed_estimator_spec_raises(spec, tmp_path):
    path = _fitted_tree_bundle(tmp_path)

    def edit(manifest):
        manifest["payload"]["estimator"] = spec

    _rewrite_manifest(path, edit)
    with pytest.raises(RegistryError, match="malformed estimator spec"):
        load_estimator(path)


def test_unknown_estimator_type_in_bundle_raises(tmp_path):
    path = _fitted_tree_bundle(tmp_path)

    def edit(manifest):
        manifest["payload"]["estimator"]["type"] = "GradientBoostingRegressor"

    _rewrite_manifest(path, edit)
    with pytest.raises(RegistryError, match="unknown estimator type"):
        load_estimator(path)


def test_pipeline_spec_without_steps_raises(tmp_path):
    X, y = _training_data()
    pipeline = Pipeline([
        ("scale", StandardScaler()),
        ("model", DecisionTreeRegressor(max_depth=3, random_state=1)),
    ]).fit(X, y)
    path = save_estimator(pipeline, tmp_path / "bundle")
    _rewrite_manifest(path, lambda manifest: manifest["payload"]["estimator"].pop("steps"))
    with pytest.raises(RegistryError, match="no steps list"):
        load_estimator(path)


def test_missing_fitted_scalar_raises(tmp_path):
    path = _fitted_tree_bundle(tmp_path)

    def edit(manifest):
        manifest["payload"]["estimator"]["fitted_scalars"].pop("n_features_")

    _rewrite_manifest(path, edit)
    with pytest.raises(RegistryError, match="missing fitted scalar 'n_features_'"):
        load_estimator(path)


def test_non_json_parameter_is_rejected_on_save(tmp_path):
    X, y = _training_data()
    tree = DecisionTreeRegressor(
        max_depth=3, random_state=np.random.default_rng(1)
    ).fit(X, y)
    with pytest.raises(RegistryError, match="random_state: parameter value"):
        save_estimator(tree, tmp_path / "bundle")
    assert not (tmp_path / "bundle" / "manifest.json").exists()


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
    # multi-output pipeline and the rank list.  v3 specs still carried the
    # single-value KNN ``weights`` and SVR ``kernel`` options.  Neither can
    # be read as the current schema.
    path = save_model(predictor, tmp_path / "bundle")
    manifest = json.loads((path / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["schema"] == MODEL_BUNDLE_SCHEMA == "repro.model_bundle/v4"
    for old in ("repro.model_bundle/v1", "repro.model_bundle/v3"):
        manifest["schema"] = old
        (path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(RegistryError) as excinfo:
            load_model(path)
        assert old in str(excinfo.value)
        assert "repro.model_bundle/v4" in str(excinfo.value)


def test_predictor_bundle_with_malformed_model_config_raises(predictor, tmp_path):
    path = save_model(predictor, tmp_path / "bundle")

    def edit(manifest):
        manifest["payload"]["wer_model"]["config"]["unknown_option"] = 1

    _rewrite_manifest(path, edit)
    with pytest.raises(RegistryError, match="malformed model config"):
        load_model(path)


@pytest.mark.parametrize("field", ["predictor_config", "ranks", "wer_model"])
def test_predictor_bundle_with_missing_field_raises(field, predictor, tmp_path):
    path = save_model(predictor, tmp_path / "bundle")
    _rewrite_manifest(path, lambda manifest: manifest["payload"].pop(field))
    with pytest.raises(RegistryError, match="malformed predictor payload"):
        load_model(path)


def test_predictor_bundle_without_ranks_raises(predictor, tmp_path):
    path = save_model(predictor, tmp_path / "bundle")

    def edit(manifest):
        manifest["payload"]["ranks"] = []

    _rewrite_manifest(path, edit)
    with pytest.raises(RegistryError, match="lists no ranks"):
        load_model(path)


def test_registry_telemetry_counts_saves_and_loads(predictor, tmp_path):
    with telemetry_session() as telemetry:
        path = save_model(predictor, tmp_path / "bundle")
        load_model(path)
        snapshot = telemetry.snapshot()
    assert snapshot.counters["registry.models_saved"] == 1
    assert snapshot.counters["registry.models_loaded"] == 1
    assert {span.name for span in snapshot.spans} >= {"registry.save", "registry.load"}


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


def test_one_row_predict_batch_validates_once_per_model(predictor, as_2d_array_calls):
    batch = predictor.predict_batch(["memcached"], [OP])
    assert batch.pue is not None
    # One check of the one-row query per fitted model (WER, then PUE);
    # no transformer or estimator inside either pipeline re-checks it.
    assert len(as_2d_array_calls) == 2
    assert all(shape[0] == 1 for shape in as_2d_array_calls)


def test_pipeline_fit_validates_each_matrix_once(small_wer_dataset, as_2d_array_calls):
    model = DramErrorModel(ModelConfig(family="knn", feature_set="set1"))
    X, y, _groups = small_wer_dataset.matrices(model.feature_set)
    model.fit_matrices(X, y)
    # The pipeline checks the training matrix once, and each step's fit
    # checks what it is given (three transformers, then KNN); no step
    # re-checks its input before transforming it.
    assert len(as_2d_array_calls) == 5
    assert all(shape == X.shape for shape in as_2d_array_calls)
    # The fitted model is the chain of public fit/transform calls.
    expected = X
    for _name, step in model._pipeline.steps[:-1]:
        expected = step.clone().fit(expected).transform(expected)
    assert np.array_equal(model._pipeline.steps[-1][1].X_train_, expected)


def test_nan_program_feature_is_rejected_by_predict_batch(predictor):
    from repro.profiling import profile_workload

    profile = profile_workload("memcached")
    features = dict(profile.features)
    features["memory_accesses_per_cycle"] = float("nan")
    broken = dataclasses.replace(profile, features=features)
    with pytest.raises(DataError, match="NaN or infinite"):
        predictor.predict_batch([broken], [OP])


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


def test_predict_batch_accepts_one_workload_and_one_point(predictor):
    scalar = predictor.predict_batch("memcached", OP)
    listed = predictor.predict_batch(["memcached"], [OP])
    assert scalar.workloads == ("memcached",)
    assert np.array_equal(scalar.wer, listed.wer)
    assert np.array_equal(scalar.pue, listed.pue)


def test_predict_batch_requires_a_pair(predictor):
    with pytest.raises(ConfigurationError, match="at least one pair"):
        predictor.predict_batch([], [])


def test_prediction_batch_views_match_its_columns(predictor):
    batch = predictor.predict_batch(WORKLOADS, [OP])
    assert isinstance(batch, PredictionBatch)
    assert np.array_equal(batch.memory_wer, batch.wer.mean(axis=0))
    results = list(batch)
    assert [result.workload for result in results] == list(WORKLOADS)
    for index, result in enumerate(results):
        assert result.wer_by_rank == batch.result(index).wer_by_rank
        assert result.memory_wer == pytest.approx(batch.memory_wer[index], rel=1e-12)
        assert result.operating_point == OP


def test_predict_grid_accepts_one_workload_name(predictor):
    single = predictor.predict_grid("bfs", TREFPS, TEMPERATURES)
    full = predictor.predict_grid(WORKLOADS, TREFPS, TEMPERATURES)
    assert single.workloads == ("bfs",)
    assert single.shape == (1, len(TREFPS), len(TEMPERATURES), 1)
    np.testing.assert_allclose(
        single.wer[:, 0], full.wer[:, WORKLOADS.index("bfs")], rtol=1e-9
    )


def test_predictor_telemetry_counts_predictions(predictor):
    with telemetry_session() as telemetry:
        predictor.predict_batch(WORKLOADS, [OP])
        predictor.predict_grid(WORKLOADS, TREFPS, TEMPERATURES)
        counters = telemetry.snapshot().counters
    grid_cells = len(WORKLOADS) * len(TREFPS) * len(TEMPERATURES)
    assert counters["predictor.predictions"] == len(WORKLOADS) + grid_cells


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


def test_service_rejects_negative_cache_size(predictor):
    with pytest.raises(ConfigurationError, match="cache_size"):
        PredictionService(predictor, cache_size=-1)


def test_service_matches_direct_predictions(predictor):
    direct = predictor.predict_batch(WORKLOADS, [OP])
    with PredictionService(predictor) as service:
        for index, name in enumerate(WORKLOADS):
            response = service.predict(name, OP)
            assert response.ranks == direct.ranks
            assert np.array_equal(np.array(response.wer), direct.wer[:, index])
            assert response.pue == float(direct.pue[index])


def test_service_cache_hits_and_stats(predictor):
    with PredictionService(predictor) as service:
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


def test_response_views_unpack_the_packed_wer(predictor):
    direct = predictor.predict_batch(["kmeans"], [OP])
    with PredictionService(predictor) as service:
        response = service.predict("kmeans", OP)
    assert response.wer_by_rank == direct.result(0).wer_by_rank
    assert response.memory_wer == pytest.approx(float(direct.memory_wer[0]), rel=1e-12)


def test_service_telemetry_counts_requests_and_batches(predictor):
    requests = [PredictRequest.at(name, OP) for name in WORKLOADS]
    with telemetry_session() as telemetry:
        with PredictionService(predictor) as service:
            service.predict_many(requests + requests[:1])
            service.predict_many(requests)
        counters = telemetry.snapshot().counters
    assert counters["serving.requests"] == 2 * len(requests) + 1
    assert counters["serving.cache_misses"] == len(requests) + 1
    assert counters["serving.cache_hits"] == len(requests)
    assert counters["serving.batches"] == 1
    assert counters["serving.predictions"] == len(requests)


def test_service_repr_reports_cache_and_hit_rate(predictor):
    with PredictionService(predictor, cache_size=8) as service:
        service.predict("bfs", OP)
        service.predict("bfs", OP)
        text = repr(service)
    assert text == "PredictionService(cache_size=8, requests=2, hit_rate=0.50)"


def _grid_requests():
    return [
        PredictRequest.at(name, OperatingPoint.relaxed(trefp, temp))
        for name in WORKLOADS
        for trefp in TREFPS
        for temp in TEMPERATURES
    ]


def _direct(predictor, requests):
    return predictor.predict_batch(
        [r.workload for r in requests], [r.operating_point() for r in requests]
    )


def test_service_burst_predicts_each_distinct_key_once(predictor):
    requests = _grid_requests()
    direct = _direct(predictor, requests)
    with PredictionService(predictor) as service:
        responses = service.predict_many(requests + requests[::-1])
        stats = service.stats()
    # One model call over the distinct keys answers every duplicate.
    assert stats.batches == 1
    assert stats.predictions == len(requests)
    assert stats.max_batch_size == len(requests)
    assert stats.requests == stats.cache_misses == 2 * len(requests)
    for index, response in enumerate(responses[: len(requests)]):
        assert response.request == requests[index]
        assert not response.cached and response.batch_size == len(requests)
        assert np.array_equal(np.array(response.wer), direct.wer[:, index])
        assert response.pue == float(direct.pue[index])
    assert responses[len(requests):] == responses[: len(requests)][::-1]


def test_service_concurrent_load_is_consistent(predictor):
    requests = _grid_requests()
    direct = _direct(predictor, requests)
    # More callers than cores and a tiny switch interval, so a lost update
    # of the shared cache or counters would show in the stats.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with PredictionService(predictor) as service:
            with ThreadPoolExecutor(max_workers=6) as pool:
                rounds = list(pool.map(service.predict_many, [requests] * 6, timeout=60))
            stats = service.stats()
    finally:
        sys.setswitchinterval(interval)
    for responses in rounds:
        for index, response in enumerate(responses):
            assert response.request == requests[index]
            assert np.array_equal(np.array(response.wer), direct.wer[:, index])
            assert response.pue == float(direct.pue[index])
    assert stats.requests == 6 * len(requests)
    assert stats.cache_hits + stats.cache_misses == stats.requests
    assert len(requests) <= stats.predictions <= stats.cache_misses


def test_service_cache_disabled(predictor):
    with PredictionService(predictor, cache_size=0) as service:
        first = service.predict("memcached", OP)
        second = service.predict("memcached", OP)
        stats = service.stats()
    assert not first.cached and not second.cached
    assert stats.cache_hits == 0 and stats.cache_misses == 2
    assert first.wer == second.wer


def test_service_lru_evicts_oldest(predictor):
    with PredictionService(predictor, cache_size=2) as service:
        ops = [OperatingPoint.relaxed(t, c) for t in TREFPS for c in TEMPERATURES]
        for op in ops[:3]:
            service.predict("memcached", op)
        # The first operating point was evicted; the latest two are hits.
        assert service.predict("memcached", ops[2]).cached
        assert service.predict("memcached", ops[1]).cached
        assert not service.predict("memcached", ops[0]).cached


def test_service_close_rejects_new_work(predictor):
    service = PredictionService(predictor)
    service.predict("memcached", OP)
    service.close()
    service.close()   # idempotent
    with pytest.raises(ConfigurationError, match="closed"):
        service.submit(PredictRequest.at("memcached", OP))


def test_service_propagates_model_errors(predictor, monkeypatch):
    def failing_predict_batch(workloads, operating_points):
        raise DataError("model failure")

    monkeypatch.setattr(predictor, "predict_batch", failing_predict_batch)
    with PredictionService(predictor) as service:
        future = service.submit(PredictRequest.at("memcached", OP))
        with pytest.raises(DataError, match="model failure"):
            future.result(timeout=10.0)


def test_unknown_workload_fails_only_its_own_request(predictor):
    # An unknown name is rejected when its request is built, so it never
    # reaches a model call shared with valid requests.
    direct = predictor.predict_batch(["bfs"], [OP])
    with PredictionService(predictor) as service:
        valid = service.submit(PredictRequest.at("bfs", OP))
        with pytest.raises(WorkloadError):
            service.submit(PredictRequest.at("no-such-workload", OP))
        response = valid.result(timeout=10.0)
        stats = service.stats()
    assert np.array_equal(np.array(response.wer), direct.wer[:, 0])
    assert stats.requests == 1 and stats.cache_misses == 1
    assert stats.predictions == 1


def test_failing_key_fails_only_its_own_requests(predictor, monkeypatch):
    real_predict_batch = predictor.predict_batch

    def predict_batch(workloads, operating_points):
        if "kmeans" in workloads:
            raise DataError("kmeans model failure")
        return real_predict_batch(workloads, operating_points)

    monkeypatch.setattr(predictor, "predict_batch", predict_batch)
    requests = _grid_requests()
    valid = [r for r in requests if r.workload != "kmeans"]
    with PredictionService(predictor) as service:
        with pytest.raises(DataError, match="kmeans"):
            service.predict_many(requests)
        # The mixed burst answered and cached every valid key: asking for
        # them again is all cache hits and makes no model call.
        before = service.stats()
        responses = service.predict_many(valid)
        stats = service.stats()
    direct = _direct(predictor, valid)
    for index, (request, response) in enumerate(zip(valid, responses)):
        assert response.cached
        assert response.request == request
        assert np.array_equal(np.array(response.wer), direct.wer[:, index])
        assert response.pue == float(direct.pue[index])
    assert stats.cache_hits - before.cache_hits == len(valid)
    assert stats.predictions == before.predictions == len(valid)


def test_model_calls_hand_off_the_interpreter_once_per_interval(predictor, monkeypatch):
    import types

    import repro.serving.service as service_module

    clock = [100.0]
    sleeps = []
    monkeypatch.setattr(service_module, "time", types.SimpleNamespace(
        perf_counter=lambda: clock[0], sleep=sleeps.append,
    ))
    requests = _grid_requests()
    with PredictionService(predictor) as service:
        service.predict_many(requests[:1])              # first model call yields
        assert sleeps == [0]
        clock[0] += service_module.HANDOFF_INTERVAL_S / 2
        service.predict_many(requests[1:2])             # too soon: no yield
        service.predict_many(requests[:2])              # hits never yield
        assert sleeps == [0]
        clock[0] += service_module.HANDOFF_INTERVAL_S
        service.predict_many(requests[2:3])
        assert sleeps == [0, 0]


def test_request_validation():
    with pytest.raises(ConfigurationError):
        PredictRequest(workload="", trefp_s=2.283, vdd_v=1.428, temperature_c=50.0)
    with pytest.raises(WorkloadError):
        PredictRequest(workload="no-such-workload", trefp_s=2.283, vdd_v=1.428,
                       temperature_c=50.0)
    with pytest.raises(ConfigurationError):
        PredictRequest(workload="memcached", trefp_s=-1.0, vdd_v=1.428,
                       temperature_c=50.0)
