"""Accuracy metrics used throughout the accuracy evaluation (Section VI).

The paper reports the *mean percentage error* (MPE) of WER / PUE
estimates; this module provides it together with standard regression
metrics and the Spearman rank correlation used for feature selection.

``scipy.stats`` is imported inside the two correlation helpers: it takes
about a second to import, and nothing else that ``import repro`` loads
needs it.
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


def mean_absolute_error(y_true: ArrayLike, y_pred: ArrayLike) -> float:
    """Plain MAE."""
    a, b = _validate_pair(y_true, y_pred)
    return float(np.mean(np.abs(a - b)))


def root_mean_squared_error(y_true: ArrayLike, y_pred: ArrayLike) -> float:
    """RMSE."""
    a, b = _validate_pair(y_true, y_pred)
    return float(np.sqrt(np.mean((a - b) ** 2)))


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


def r2_score(y_true: ArrayLike, y_pred: ArrayLike) -> float:
    """Coefficient of determination."""
    a, b = _validate_pair(y_true, y_pred)
    ss_res = float(np.sum((a - b) ** 2))
    ss_tot = float(np.sum((a - np.mean(a)) ** 2))
    # A sum of squares is non-negative, so the ordered guard catches
    # exactly the degenerate constant-target case without float ==.
    if ss_tot <= 0.0:
        return 0.0 if ss_res > 0 else 1.0
    return 1.0 - ss_res / ss_tot


def spearman_correlation(x: ArrayLike, y: ArrayLike) -> float:
    """Spearman's rank correlation coefficient ``rs``.

    Detects both linear and non-linear monotonic relationships, which is
    why the paper uses it for feature selection (Section VI.A).

    **Zero-variance contract:** a constant ``x`` or constant ``y`` carries
    no ranking information, so the coefficient is defined as exactly
    ``0.0`` — never NaN (scipy's ``spearmanr`` would return NaN, which
    silently poisons any downstream mean, e.g. the per-operating-point
    averaging in ``run_correlation_study``).  The vectorized study path
    (``repro.core.correlation``) implements the same contract.
    """
    a, b = _validate_pair(x, y)
    if np.all(a == a[0]) or np.all(b == b[0]):
        return 0.0
    from scipy import stats

    rs, _pvalue = stats.spearmanr(a, b)
    if np.isnan(rs):
        return 0.0
    return float(rs)


def pearson_correlation(x: ArrayLike, y: ArrayLike) -> float:
    """Pearson's linear correlation coefficient."""
    a, b = _validate_pair(x, y)
    if np.all(a == a[0]) or np.all(b == b[0]):
        return 0.0
    from scipy import stats

    r, _pvalue = stats.pearsonr(a, b)
    if np.isnan(r):
        return 0.0
    return float(r)
