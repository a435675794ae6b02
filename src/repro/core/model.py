"""The workload-aware DRAM error model (Eq. 1).

``M_err = M(Ftrs, Dev, TREFP, VDD, TEMP_DRAM)``: given a workload's
program features and the DRAM operating parameters, predict a DRAM error
metric (WER or PUE) for a specific device.  Three supervised-learning
back-ends are supported, matching the paper: Support Vector Machines
(SVM), K-nearest neighbours (KNN) and Random Decision Forests (RDF).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.dataset import ErrorDataset
from repro.core.features import FeatureSet, get_feature_set
from repro.dram.operating import OperatingPoint
from repro.errors import ConfigurationError, NotFittedError
from repro.ml.forest import RandomForestRegressor
from repro.ml.knn import KNeighborsRegressor
from repro.ml.pipeline import Pipeline
from repro.ml.scaling import ColumnLogTransformer, ColumnWeightTransformer, StandardScaler
from repro.ml.svm import SVR

#: Model families evaluated in the paper.
MODEL_FAMILIES = ("svm", "knn", "rdf")

#: Relative weight given to the operating parameters (TREFP, VDD, TEMP) over
#: the program features in distance-based models.
OPERATING_FEATURE_WEIGHT = 3.0


def _is_skewed_feature(name: str) -> bool:
    """Program features that span orders of magnitude and get log-scaled."""
    return (
        name == "treuse"
        or name.endswith("_per_cycle")
        or name in ("reuse_distance_instructions", "unique_words_touched",
                    "accesses_per_word")
        or name.startswith("perf_")
    )


def _build_estimator(family: str, random_state: int, num_inputs: int = 10):
    """Instantiate the underlying regressor for one model family."""
    if family == "knn":
        return KNeighborsRegressor(n_neighbors=3)
    if family == "svm":
        return SVR(C=20.0, epsilon=0.02, gamma="scale")
    if family == "rdf":
        # With a handful of inputs every split should see the operating
        # parameters; with hundreds of inputs per-split sub-sampling keeps
        # the trees decorrelated (and the fit tractable) while still giving
        # each split a reasonable chance of picking TREFP / temperature.
        large = num_inputs > 30
        return RandomForestRegressor(
            n_estimators=20 if large else 30,
            max_depth=10,
            min_samples_leaf=3,
            max_features=0.35 if large else 0.8,
            random_state=random_state,
        )
    raise ConfigurationError(
        f"unknown model family {family!r}; choose from {MODEL_FAMILIES}"
    )


@dataclass(frozen=True)
class ModelConfig:
    """Which model family and input set to use, and how to treat the target."""

    family: str = "knn"
    feature_set: str = "set1"
    #: train on log10 of the target (appropriate for WER, which spans decades)
    log_target: bool = True
    #: floor applied before the log transform and to predictions
    target_floor: float = 1e-12
    random_state: int = 2019

    def __post_init__(self) -> None:
        if self.family not in MODEL_FAMILIES:
            raise ConfigurationError(
                f"unknown model family {self.family!r}; choose from {MODEL_FAMILIES}"
            )
        if self.target_floor <= 0:
            raise ConfigurationError("target_floor must be positive")


class DramErrorModel:
    """A trainable predictor of one DRAM error metric (WER or PUE)."""

    def __init__(self, config: Optional[ModelConfig] = None) -> None:
        self.config = config or ModelConfig()
        self.feature_set: FeatureSet = get_feature_set(self.config.feature_set)
        input_names = self.feature_set.input_names
        skewed_columns = [
            index for index, name in enumerate(input_names) if _is_skewed_feature(name)
        ]
        weights = np.array([
            OPERATING_FEATURE_WEIGHT if name in ("trefp_s", "vdd_v", "temperature_c")
            else 1.0
            for name in input_names
        ])
        self._pipeline = Pipeline([
            ("log", ColumnLogTransformer(skewed_columns)),
            ("scaler", StandardScaler()),
            ("weights", ColumnWeightTransformer(weights)),
            ("model", _build_estimator(
                self.config.family, self.config.random_state, len(input_names)
            )),
        ])

    # ------------------------------------------------------------------
    def clone(self) -> "DramErrorModel":
        return DramErrorModel(self.config)

    def _encode_target(self, y: np.ndarray) -> np.ndarray:
        if not self.config.log_target:
            return y
        return np.log10(np.maximum(y, self.config.target_floor))

    def _decode_target(self, y: np.ndarray) -> np.ndarray:
        if not self.config.log_target:
            return y
        return np.power(10.0, y)

    # ------------------------------------------------------------------
    def fit_matrices(self, X: np.ndarray, y: np.ndarray) -> "DramErrorModel":
        """Fit from a pre-built input matrix (used by the evaluation loop).

        ``y`` is one target vector ``(n,)`` or one column per target
        ``(n, R)`` — e.g. one WER column per rank from
        :meth:`ErrorDataset.rank_matrices`; :meth:`predict_matrix` then
        returns the matching shape, column ``r`` bit-identical to a model
        fitted on ``y[:, r]`` alone.
        """
        self._pipeline.fit(X, self._encode_target(np.asarray(y, dtype=float)))
        self.fitted_ = True
        return self

    def fit(self, dataset: ErrorDataset) -> "DramErrorModel":
        """Fit from a labelled dataset."""
        X, y, _groups = dataset.matrices(self.feature_set)
        return self.fit_matrices(X, y)

    def predict_matrix(self, X: np.ndarray) -> np.ndarray:
        if not hasattr(self, "fitted_"):
            raise NotFittedError("DramErrorModel must be fitted before predicting")
        return self._decode_target(self._pipeline.predict(X))

    def predict(self, op: OperatingPoint, program_features: Dict[str, float]) -> float:
        """Predict the error metric for one workload at one operating point.

        Only a model fitted on one target column has a scalar answer; a
        multi-output model answers through :meth:`predict_matrix`.
        """
        row = self.feature_set.build_row(op, program_features)
        value = self.predict_matrix(row.reshape(1, -1))[0]
        if np.ndim(value):
            raise ConfigurationError(
                "predict() needs a one-column model; use predict_matrix() "
                "for a multi-output model"
            )
        return float(value)

    # ------------------------------------------------------------------
    @property
    def family(self) -> str:
        return self.config.family

    def __repr__(self) -> str:
        return (
            f"DramErrorModel(family={self.config.family!r}, "
            f"feature_set={self.config.feature_set!r}, "
            f"log_target={self.config.log_target})"
        )
