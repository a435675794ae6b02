"""Accuracy metrics used throughout the accuracy evaluation (Section VI).

The paper reports the *mean percentage error* (MPE) of WER / PUE
estimates (Fig. 11/12) and the conventional model's multiplicative
over/under-estimation factor (Fig. 13).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import DataError
from repro.ml.base import ArrayLike


def _validate_pair(y_true: ArrayLike, y_pred: ArrayLike) -> Tuple[np.ndarray, np.ndarray]:
    a = np.asarray(y_true, dtype=float).ravel()
    b = np.asarray(y_pred, dtype=float).ravel()
    if a.shape[0] != b.shape[0]:
        raise DataError("y_true and y_pred have different lengths")
    if a.shape[0] == 0:
        raise DataError("empty arrays passed to a metric")
    return a, b


def mean_percentage_error(y_true: ArrayLike, y_pred: ArrayLike, floor: float = 0.0) -> float:
    """Mean absolute percentage error, in percent.

    This is the metric Fig. 11 and Fig. 12 report ("Error of WER est., %").
    ``floor`` is added to the denominator so that zero targets (e.g. a
    benchmark with PUE = 0) do not produce an undefined percentage; when the
    target is zero and the prediction is also zero, the error contribution
    is zero.
    """
    a, b = _validate_pair(y_true, y_pred)
    denom = np.abs(a) + floor
    result = np.zeros_like(a)
    nonzero = denom > 0
    result[nonzero] = np.abs(a[nonzero] - b[nonzero]) / denom[nonzero]
    zero_target = ~nonzero
    # Target and floor are zero: count a non-zero prediction as 100 % error.
    result[zero_target] = np.where(np.abs(b[zero_target]) > 0, 1.0, 0.0)
    return float(np.mean(result) * 100.0)


def prediction_ratio(y_true: ArrayLike, y_pred: ArrayLike) -> float:
    """Mean multiplicative over/under-estimation factor (always >= 1).

    Used to express the conventional-model error as "2.9x" (Fig. 13):
    for each sample the larger of pred/true and true/pred is taken and the
    results are averaged.
    """
    a, b = _validate_pair(y_true, y_pred)
    if np.any(a <= 0) or np.any(b <= 0):
        raise DataError("prediction_ratio requires strictly positive values")
    ratio = np.maximum(a / b, b / a)
    return float(np.mean(ratio))
