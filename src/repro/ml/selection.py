"""Feature ranking by Spearman correlation (Section VI.A, Fig. 10)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.errors import DataError
from repro.ml.metrics import spearman_correlation


@dataclass(frozen=True)
class FeatureCorrelation:
    """Correlation of one feature with one target metric."""

    feature: str
    coefficient: float

    @property
    def strength(self) -> float:
        """Absolute correlation, used for ranking."""
        return abs(self.coefficient)


class SpearmanFeatureRanker:
    """Rank features by the Spearman correlation with a target metric."""

    def rank(
        self, X: np.ndarray, y: Sequence[float], feature_names: Sequence[str]
    ) -> List[FeatureCorrelation]:
        X_arr = np.asarray(X, dtype=float)
        y_arr = np.asarray(y, dtype=float)
        if X_arr.ndim != 2:
            raise DataError("X must be a 2-D samples x features matrix")
        if X_arr.shape[1] != len(feature_names):
            raise DataError("feature_names length must match the number of columns of X")
        if X_arr.shape[0] != y_arr.shape[0]:
            raise DataError("X and y disagree on the number of samples")
        correlations = [
            FeatureCorrelation(name, spearman_correlation(X_arr[:, j], y_arr))
            for j, name in enumerate(feature_names)
        ]
        return sorted(correlations, key=lambda c: c.strength, reverse=True)


def select_top_features(
    correlations: Sequence[FeatureCorrelation], count: int
) -> List[str]:
    """The names of the ``count`` most strongly correlated features."""
    if count < 1:
        raise DataError("count must be >= 1")
    ranked = sorted(correlations, key=lambda c: c.strength, reverse=True)
    return [c.feature for c in ranked[:count]]
