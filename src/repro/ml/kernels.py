"""The RBF kernel of the support-vector regression model."""

from __future__ import annotations

import numpy as np

from repro.ml.distances import euclidean_distances


def rbf_kernel(A: np.ndarray, B: np.ndarray, gamma: float = 1.0) -> np.ndarray:
    """Gaussian radial-basis-function kernel ``K(a, b) = exp(-gamma |a-b|^2)``."""
    sq = euclidean_distances(A, B) ** 2
    return np.exp(-gamma * sq)


def gamma_scale(X: np.ndarray) -> float:
    """The 'scale' heuristic for gamma: ``1 / (n_features * Var(X))``."""
    X = np.asarray(X, dtype=float)
    variance = X.var()
    if variance <= 0.0:
        variance = 1.0
    return 1.0 / (X.shape[1] * variance)
