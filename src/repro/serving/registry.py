"""Versioned on-disk model registry for fitted predictors.

A *bundle* is one directory holding ``manifest.json`` (schema tag, the
environment block reused from the telemetry run reports, and the
JSON estimator specs) plus ``arrays.npz`` (every fitted array, float64
bit-exact).  Two bundle kinds exist:

* ``predictor`` — a whole fitted
  :class:`~repro.core.predictor.WorkloadAwarePredictor` (the one WER
  pipeline with its rank list — one output column per rank — plus the
  optional PUE pipeline), written by :func:`save_model` and read back by
  :func:`load_model`;
* ``estimator`` — any single ``repro.ml`` estimator or
  :class:`~repro.ml.pipeline.Pipeline`, written/read by
  :func:`save_estimator` / :func:`load_estimator`.

:class:`ModelRegistry` layers a versioned namespace on top: models are
stored under ``<root>/<name>/v<N>/`` and ``load(name)`` resolves the
highest version.  Round-trips are pinned by ``tests/test_serving.py``:
a reloaded model's predictions are ``np.array_equal`` to the
original's.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.model import DramErrorModel, ModelConfig
from repro.core.predictor import PredictorConfig, WorkloadAwarePredictor
from repro.dram.geometry import RankLocation
from repro.errors import RegistryError
from repro.serving.serialization import (
    ArrayPayload,
    capture_estimator,
    restore_estimator,
)
from repro.telemetry import get_telemetry
from repro.telemetry.report import environment_metadata

#: Schema tag embedded in every bundle manifest; bump on breaking changes.
#: v2: a predictor bundle holds one multi-output WER pipeline and its rank
#: list instead of one WER pipeline per rank.
#: v3: a KNN spec no longer carries a ``metric`` parameter (KNN is
#: Euclidean only), and a StandardScaler spec carries no parameters.
MODEL_BUNDLE_SCHEMA = "repro.model_bundle/v3"

_MANIFEST_NAME = "manifest.json"
_ARRAYS_NAME = "arrays.npz"
_VERSION_PATTERN = re.compile(r"^v([1-9][0-9]*)$")
_NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

PathLike = Union[str, Path]


# ---------------------------------------------------------------------------
# Bundle I/O.
# ---------------------------------------------------------------------------
def _write_bundle(
    directory: Path, kind: str, payload: Dict[str, Any], arrays: ArrayPayload
) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {
        "schema": MODEL_BUNDLE_SCHEMA,
        "kind": kind,
        "environment": dict(sorted(environment_metadata().items())),
        "payload": payload,
    }
    with open(directory / _MANIFEST_NAME, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    np.savez(directory / _ARRAYS_NAME, **arrays)


def _read_bundle(
    directory: Path, kind: str
) -> Tuple[Dict[str, Any], ArrayPayload, Dict[str, Any]]:
    """Read a bundle; returns ``(payload, arrays, manifest)``."""
    manifest_path = directory / _MANIFEST_NAME
    if not manifest_path.is_file():
        raise RegistryError(f"no model bundle at {directory} (missing manifest.json)")
    try:
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, ValueError) as error:
        raise RegistryError(f"corrupted manifest at {manifest_path}: {error}") from None
    if not isinstance(manifest, dict) or manifest.get("schema") != MODEL_BUNDLE_SCHEMA:
        raise RegistryError(
            f"unsupported bundle schema {manifest.get('schema')!r} at "
            f"{manifest_path} (expected {MODEL_BUNDLE_SCHEMA!r})"
            if isinstance(manifest, dict)
            else f"corrupted manifest at {manifest_path}: not a JSON object"
        )
    if manifest.get("kind") != kind:
        raise RegistryError(
            f"bundle at {directory} holds a {manifest.get('kind')!r}, "
            f"expected a {kind!r}"
        )
    payload = manifest.get("payload")
    if not isinstance(payload, dict):
        raise RegistryError(f"corrupted manifest at {manifest_path}: no payload")
    arrays_path = directory / _ARRAYS_NAME
    if not arrays_path.is_file():
        raise RegistryError(f"bundle at {directory} is missing {_ARRAYS_NAME}")
    try:
        with np.load(arrays_path) as stored:
            arrays = {key: stored[key] for key in stored.files}
    except (OSError, ValueError) as error:
        raise RegistryError(f"corrupted {_ARRAYS_NAME} at {directory}: {error}") from None
    return payload, arrays, manifest


# ---------------------------------------------------------------------------
# Single-estimator bundles.
# ---------------------------------------------------------------------------
def save_estimator(estimator: Any, directory: PathLike) -> Path:
    """Persist one fitted estimator/pipeline as a bundle; returns the path."""
    arrays: ArrayPayload = {}
    spec = capture_estimator(estimator, "estimator", arrays)
    path = Path(directory)
    _write_bundle(path, "estimator", {"estimator": spec}, arrays)
    return path


def load_estimator(directory: PathLike) -> Any:
    """Rebuild the fitted estimator persisted by :func:`save_estimator`."""
    payload, arrays, _manifest = _read_bundle(Path(directory), "estimator")
    if "estimator" not in payload:
        raise RegistryError(f"bundle at {directory} has no estimator payload")
    return restore_estimator(payload["estimator"], "estimator", arrays)


# ---------------------------------------------------------------------------
# Predictor bundles.
# ---------------------------------------------------------------------------
def _capture_model(
    model: DramErrorModel, prefix: str, arrays: ArrayPayload
) -> Dict[str, Any]:
    return {
        "config": asdict(model.config),
        "pipeline": capture_estimator(model._pipeline, prefix, arrays),
    }


def _restore_model(
    spec: Dict[str, Any], prefix: str, arrays: ArrayPayload
) -> DramErrorModel:
    try:
        config = ModelConfig(**spec["config"])
    except (KeyError, TypeError) as error:
        raise RegistryError(f"malformed model config in bundle: {error}") from None
    model = DramErrorModel(config)
    model._pipeline = restore_estimator(spec["pipeline"], prefix, arrays)
    model.fitted_ = True
    return model


def save_model(predictor: WorkloadAwarePredictor, directory: PathLike) -> Path:
    """Persist a fitted predictor as one bundle directory; returns the path.

    The bundle holds the WER pipeline and its rank list, the optional
    PUE pipeline and the predictor configuration; loading it back with
    :func:`load_model` reproduces predictions bit-identically.
    """
    if predictor._wer_model is None:
        raise RegistryError("cannot persist an unfitted WorkloadAwarePredictor")
    telemetry = get_telemetry()
    with telemetry.span("registry.save"):
        arrays: ArrayPayload = {}
        pue_spec: Optional[Dict[str, Any]] = None
        if predictor._pue_model is not None:
            pue_spec = _capture_model(predictor._pue_model, "pue", arrays)
        payload = {
            "predictor_config": asdict(predictor.config),
            "ranks": [[rank.dimm, rank.rank] for rank in predictor.ranks],
            "wer_model": _capture_model(predictor._wer_model, "wer", arrays),
            "pue_model": pue_spec,
        }
        path = Path(directory)
        _write_bundle(path, "predictor", payload, arrays)
        if telemetry.enabled:
            telemetry.incr("registry.models_saved")
    return path


def load_model(directory: PathLike) -> WorkloadAwarePredictor:
    """Rebuild the fitted predictor persisted by :func:`save_model`."""
    telemetry = get_telemetry()
    with telemetry.span("registry.load"):
        payload, arrays, _manifest = _read_bundle(Path(directory), "predictor")
        try:
            config = PredictorConfig(**payload["predictor_config"])
            ranks = tuple(
                RankLocation(int(pair[0]), int(pair[1])) for pair in payload["ranks"]
            )
            wer_spec = payload["wer_model"]
        except (KeyError, TypeError, IndexError, ValueError) as error:
            raise RegistryError(
                f"malformed predictor payload at {directory}: {error}"
            ) from None
        if not ranks:
            raise RegistryError(f"bundle at {directory} lists no ranks")
        predictor = WorkloadAwarePredictor(config)
        predictor._wer_model = _restore_model(wer_spec, "wer", arrays)
        predictor._ranks = ranks
        if payload.get("pue_model") is not None:
            predictor._pue_model = _restore_model(payload["pue_model"], "pue", arrays)
        if telemetry.enabled:
            telemetry.incr("registry.models_loaded")
    return predictor


# ---------------------------------------------------------------------------
# The versioned registry namespace.
# ---------------------------------------------------------------------------
class ModelRegistry:
    """A directory of named, versioned predictor bundles.

    Layout: ``<root>/<name>/v<N>/{manifest.json, arrays.npz}``.
    :meth:`save` allocates the next version for a name; :meth:`load`
    resolves the highest version unless one is pinned.
    """

    def __init__(self, root: PathLike) -> None:
        self.root = Path(root)

    @staticmethod
    def _check_name(name: str) -> str:
        if not _NAME_PATTERN.match(name):
            raise RegistryError(
                f"invalid model name {name!r}: use letters, digits, '.', '_', '-'"
            )
        return name

    def _model_dir(self, name: str) -> Path:
        return self.root / self._check_name(name)

    # ------------------------------------------------------------------
    def versions(self, name: str) -> List[str]:
        """Available versions of a model, ascending (``v1``, ``v2``, ...)."""
        model_dir = self._model_dir(name)
        if not model_dir.is_dir():
            return []
        found = [
            entry.name for entry in model_dir.iterdir()
            if entry.is_dir() and _VERSION_PATTERN.match(entry.name)
        ]
        return sorted(found, key=lambda label: int(label[1:]))

    def latest_version(self, name: str) -> str:
        """The highest registered version of a model."""
        versions = self.versions(name)
        if not versions:
            raise RegistryError(f"registry has no model named {name!r}")
        return versions[-1]

    # ------------------------------------------------------------------
    def save(self, name: str, predictor: WorkloadAwarePredictor) -> str:
        """Persist a fitted predictor under the next version; returns it."""
        versions = self.versions(name)
        next_version = f"v{int(versions[-1][1:]) + 1}" if versions else "v1"
        save_model(predictor, self._model_dir(name) / next_version)
        return next_version

    def load(
        self, name: str, version: Optional[str] = None
    ) -> WorkloadAwarePredictor:
        """Load a model by name; the highest version unless pinned."""
        if version is None:
            version = self.latest_version(name)
        elif version not in self.versions(name):
            raise RegistryError(
                f"registry has no version {version!r} of model {name!r}"
            )
        return load_model(self._model_dir(name) / version)

    def path(self, name: str, version: Optional[str] = None) -> Path:
        """Bundle directory of a model version (default: latest)."""
        if version is None:
            version = self.latest_version(name)
        return self._model_dir(name) / version
