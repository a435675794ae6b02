"""Feature scaling transformers.

Distance-based models (KNN, kernel SVR) are sensitive to feature scale,
and the paper's 249 program features span many orders of magnitude
(rates per cycle vs. raw counter values), so every pipeline in
:mod:`repro.core` standardises features before fitting.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.errors import NotFittedError
from repro.ml.base import ArrayLike, Transformer, as_2d_array


class StandardScaler(Transformer):
    """Standardise features to zero mean and unit variance.

    Constant features (zero variance) are left centred but not divided,
    which keeps them from producing NaNs; they carry no information for
    any downstream model either way.
    """

    def fit(self, X: ArrayLike, y: Optional[ArrayLike] = None) -> "StandardScaler":
        X_arr = as_2d_array(X)
        self.mean_ = X_arr.mean(axis=0)
        std = X_arr.std(axis=0)
        # A constant column of non-representable values (e.g. 0.1) leaves
        # a roundoff-sized std (~eps * |mean|); dividing the matching
        # roundoff residual by it would turn "constant" into +/-1.  Treat
        # any std at summation-noise scale as zero variance.  numpy's
        # pairwise summation error grows ~log2(n) * eps relative to the
        # mean; the factor of 8 is safety margin, and keeping the bound
        # logarithmic (not linear) in n avoids clamping genuinely varying
        # columns in large samples.
        n = X_arr.shape[0]
        noise_floor = (
            8.0
            * (1.0 + np.log2(n))
            * np.finfo(X_arr.dtype).eps
            * np.maximum(np.abs(self.mean_), 1.0)
        )
        std[std <= noise_floor] = 1.0
        self.scale_ = std
        return self

    def _transform(self, X: np.ndarray) -> np.ndarray:
        if not hasattr(self, "mean_"):
            raise NotFittedError("StandardScaler is not fitted")
        if X.shape[1] != self.mean_.shape[0]:
            raise ValueError(
                f"X has {X.shape[1]} features, scaler was fitted with "
                f"{self.mean_.shape[0]}"
            )
        return (X - self.mean_) / self.scale_


class ColumnLogTransformer(Transformer):
    """Apply ``log10(x + offset)`` to selected columns only.

    Rate- and time-valued program features (accesses per cycle, reuse
    time) span several orders of magnitude across workloads; feeding the
    raw values into distance-based models lets a single outlier workload
    dominate the feature space.  Log-scaling the skewed columns keeps
    every feature comparable after standardisation.
    """

    def __init__(self, columns: Iterable[int], offset: float = 1e-12) -> None:
        self.columns = list(columns)
        if offset <= 0:
            raise ValueError("offset must be positive")
        self.offset = offset

    def fit(self, X: ArrayLike, y: Optional[ArrayLike] = None) -> "ColumnLogTransformer":
        X_arr = as_2d_array(X)
        bad = [c for c in self.columns if not 0 <= c < X_arr.shape[1]]
        if bad:
            raise ValueError(f"column indices out of range: {bad}")
        return self

    def _transform(self, X: np.ndarray) -> np.ndarray:
        X_arr = X.copy()
        for column in self.columns:
            X_arr[:, column] = np.log10(np.maximum(X_arr[:, column], 0.0) + self.offset)
        return X_arr


class ColumnWeightTransformer(Transformer):
    """Multiply each column by a fixed weight (applied after standardisation).

    Used to emphasise the DRAM operating parameters (TREFP, VDD,
    temperature) relative to the program features, so that distance-based
    models always interpolate between samples taken at the same operating
    point — which is how the paper's leave-one-workload-out protocol is
    meant to work.
    """

    def __init__(self, weights: ArrayLike) -> None:
        self.weights = np.asarray(weights, dtype=float)
        if self.weights.ndim != 1 or np.any(self.weights <= 0):
            raise ValueError("weights must be a 1-D array of positive values")

    def fit(self, X: ArrayLike, y: Optional[ArrayLike] = None) -> "ColumnWeightTransformer":
        X_arr = as_2d_array(X)
        if X_arr.shape[1] != self.weights.shape[0]:
            raise ValueError(
                f"X has {X_arr.shape[1]} columns but {self.weights.shape[0]} weights given"
            )
        return self

    def _transform(self, X: np.ndarray) -> np.ndarray:
        if X.shape[1] != self.weights.shape[0]:
            raise ValueError("column count mismatch with fitted weights")
        return X * self.weights
