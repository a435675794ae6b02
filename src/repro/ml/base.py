"""Estimator protocol shared by all models in :mod:`repro.ml`.

The interface intentionally mirrors the small subset of the scikit-learn
API that the paper relies on (``fit`` / ``predict`` / ``get_params``),
so the higher-level code in :mod:`repro.core` reads like the original
experiments even though every estimator here is implemented from
scratch on top of numpy.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.errors import DataError, NotFittedError

ArrayLike = Any


def as_2d_array(X: ArrayLike, name: str = "X", allow_empty: bool = False) -> np.ndarray:
    """Validate and convert ``X`` to a 2-D float array of samples x features.

    ``allow_empty`` admits a well-formed ``(0, d)`` batch — prediction
    paths accept empty query sets and return empty results, while ``fit``
    keeps rejecting them.  A zero-feature shape is always an error.
    """
    arr = np.asarray(X, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise DataError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if (arr.shape[0] == 0 and not allow_empty) or arr.shape[1] == 0:
        raise DataError(f"{name} must not be empty, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DataError(f"{name} contains NaN or infinite values")
    return arr


def as_1d_array(y: ArrayLike, name: str = "y") -> np.ndarray:
    """Validate and convert ``y`` to a 1-D float array."""
    arr = np.asarray(y, dtype=float)
    if arr.ndim != 1:
        arr = arr.ravel()
    if arr.shape[0] == 0:
        raise DataError(f"{name} must not be empty")
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{name} contains NaN or infinite values")
    return arr


def as_target_array(y: ArrayLike, name: str = "y") -> np.ndarray:
    """Validate ``y`` as a 1-D target vector or an ``(n, R)`` target matrix.

    A 2-D ``y`` holds one output column per target; the multi-output
    regressors (KNN, SVR, forest) fit every column at once and predict
    the matching shape.
    """
    arr = np.asarray(y, dtype=float)
    if arr.ndim not in (1, 2):
        raise DataError(f"{name} must be 1- or 2-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise DataError(f"{name} must not be empty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{name} contains NaN or infinite values")
    return arr


def check_consistent_length(X: np.ndarray, y: np.ndarray) -> None:
    """Raise :class:`DataError` when ``X`` and ``y`` disagree on sample count."""
    if X.shape[0] != y.shape[0]:
        raise DataError(
            f"X and y have inconsistent sample counts: {X.shape[0]} != {y.shape[0]}"
        )


class Estimator:
    """Base class providing parameter introspection and cloning."""

    def get_params(self) -> Dict[str, Any]:
        """Return the constructor parameters of this estimator."""
        params = {}
        for key, value in vars(self).items():
            if not key.endswith("_") and not key.startswith("_"):
                params[key] = value
        return params

    def clone(self) -> "Estimator":
        """Return an unfitted copy with identical constructor parameters."""
        new = type(self)(**copy.deepcopy(self.get_params()))
        return new

    def __repr__(self) -> str:
        params = ", ".join(f"{k}={v!r}" for k, v in sorted(self.get_params().items()))
        return f"{type(self).__name__}({params})"


class Regressor(Estimator):
    """Base class for regressors: defines the fit/predict contract."""

    def fit(self, X: ArrayLike, y: ArrayLike) -> "Regressor":
        raise NotImplementedError

    def predict(self, X: ArrayLike) -> np.ndarray:
        """Validate ``X`` (an empty batch is allowed), then :meth:`_predict`."""
        return self._predict(as_2d_array(X, allow_empty=True))

    def _predict(self, X: np.ndarray) -> np.ndarray:
        """Predict for a float matrix that :func:`as_2d_array` has checked.

        A :class:`~repro.ml.pipeline.Pipeline` validates its input once
        and calls this directly, so no step re-checks the same rows.
        """
        raise NotImplementedError

    def _check_fitted(self, attribute: str) -> None:
        if not hasattr(self, attribute):
            raise NotFittedError(
                f"{type(self).__name__} must be fitted before calling predict()"
            )


class Transformer(Estimator):
    """Base class for transformers (scalers and column transforms)."""

    def fit(self, X: ArrayLike, y: Optional[ArrayLike] = None) -> "Transformer":
        raise NotImplementedError

    def transform(self, X: ArrayLike) -> np.ndarray:
        """Validate ``X``, then :meth:`_transform`."""
        return self._transform(as_2d_array(X))

    def _transform(self, X: np.ndarray) -> np.ndarray:
        """Transform a float matrix that :func:`as_2d_array` has checked."""
        raise NotImplementedError


def validate_fit_args(X: ArrayLike, y: ArrayLike) -> Tuple[np.ndarray, np.ndarray]:
    """Common validation used by every regressor's ``fit``."""
    X_arr = as_2d_array(X)
    y_arr = as_1d_array(y)
    check_consistent_length(X_arr, y_arr)
    return X_arr, y_arr
