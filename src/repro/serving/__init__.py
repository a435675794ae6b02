"""Prediction-as-a-service: model registry and an in-process serving facade.

The paper's end product is a trained WER/PUE predictor; this package is
the layer that keeps it alive past the training process and serves it at
scale:

* :mod:`repro.serving.serialization` — fitted-state capture/restore for
  every ``repro.ml`` estimator family (scaler state, flat-tree/forest
  arrays, KNN training matrices, SVM support coefficients);
* :mod:`repro.serving.registry` — the versioned on-disk model registry
  (``manifest.json`` + ``arrays.npz`` bundles, environment-stamped with
  the telemetry :func:`~repro.telemetry.report.environment_metadata`
  block) with :func:`save_model` / :func:`load_model` round-trips pinned
  bit-identical on predictions;
* :mod:`repro.serving.service` — :class:`PredictionService`, the cached
  facade (one batched model call per burst of misses, on the caller's
  thread) over a registry-loaded
  :class:`~repro.core.predictor.WorkloadAwarePredictor`.
"""

from repro.serving.registry import (
    MODEL_BUNDLE_SCHEMA,
    ModelRegistry,
    load_estimator,
    load_model,
    save_estimator,
    save_model,
)
from repro.serving.service import (
    PredictionService,
    PredictRequest,
    PredictResponse,
    ServiceStats,
)

__all__ = [
    "MODEL_BUNDLE_SCHEMA",
    "ModelRegistry",
    "load_estimator",
    "load_model",
    "save_estimator",
    "save_model",
    "PredictionService",
    "PredictRequest",
    "PredictResponse",
    "ServiceStats",
]
