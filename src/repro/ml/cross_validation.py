"""Cross-validation splitters.

The paper evaluates model accuracy with leave-one-*workload*-out
cross-validation (Fig. 3, "Validation process"): for every benchmark, the
test set is the samples of that benchmark and the training set is every
other sample.  That corresponds to a leave-one-group-out splitter where
the group label is the workload name.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple

import numpy as np

from repro.errors import DataError
from repro.ml.base import ArrayLike, Regressor
from repro.telemetry import get_telemetry


class LeaveOneGroupOut:
    """Yield (train_indices, test_indices) pairs, one per distinct group."""

    def split(
        self, X: Sequence, groups: Sequence
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        groups_arr = np.asarray(groups)
        n_samples = len(X)
        if groups_arr.shape[0] != n_samples:
            raise DataError("groups must have one entry per sample")
        # Factorize once: fold masks are integer-code comparisons instead of
        # one full string-array comparison per group (groups are typically
        # workload names, or already integer group codes from a columnar
        # dataset).  Folds come out in sorted-group order, as before.
        unique_groups, codes = np.unique(groups_arr, return_inverse=True)
        if unique_groups.shape[0] < 2:
            raise DataError("LeaveOneGroupOut requires at least 2 distinct groups")
        indices = np.arange(n_samples)
        for code in range(unique_groups.shape[0]):
            test_mask = codes == code
            yield indices[~test_mask], indices[test_mask]


def cross_val_predict_groups(
    estimator: Regressor, X: ArrayLike, y: ArrayLike, groups: Sequence
) -> np.ndarray:
    """Out-of-fold predictions under leave-one-group-out CV.

    Every sample is predicted by a model that never saw any sample from the
    same group, exactly reproducing the paper's validation protocol.  All
    folds are fitted by one ``estimator.fit_many`` call (one lockstep for
    a forest); each fold model equals a separate fit on its training rows.
    """
    telemetry = get_telemetry()
    with telemetry.span("ml.cross_validation"):
        X_arr = np.asarray(X, dtype=float)
        y_arr = np.asarray(y, dtype=float)
        splits = list(LeaveOneGroupOut().split(X_arr, groups))
        models = estimator.fit_many(
            [(X_arr[train_idx], y_arr[train_idx]) for train_idx, _ in splits]
        )
        predictions = np.empty_like(y_arr)
        for model, (_, test_idx) in zip(models, splits):
            predictions[test_idx] = model.predict(X_arr[test_idx])
        if telemetry.enabled:
            telemetry.incr("ml.cv_folds", len(splits))
        return predictions
