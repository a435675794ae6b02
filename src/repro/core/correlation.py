"""Feature-selection study: Spearman correlation of features vs WER / PUE.

Reproduces Section VI.A / Fig. 10: every one of the 249 program features
is correlated (Spearman's rank correlation, which captures monotonic
non-linear relationships) against the measured WER and PUE across the
whole campaign.  The study identifies the memory access rate, wait
cycles, ``HDP`` and ``Treuse`` as the features most related to DRAM
error behaviour — the basis of input sets 1 and 2.

The study is columnar end to end: operating points are dictionary-
encoded into group codes straight from the
:class:`~repro.core.dataset.ErrorDataset` columns, per-(operating
point, workload) target means are two ``np.bincount`` reductions, and
each group's Spearman coefficients for *all* features come from one
ranked-matrix product instead of one scipy call per (feature, group)
pair.  A zero-variance feature or constant per-group targets contribute
a coefficient of exactly ``0.0`` (no ranking information; scipy's
``spearmanr`` would return NaN).  The pre-vectorized per-row
implementation survives as ``reference_run_correlation_study`` in
``tests/oracles/dataset.py``, and ``tests/test_ml_vectorized.py`` pins
the two to a 1e-9 tolerance (reduction order differs, so agreement is
tolerance- not bit-exact).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dataset import ErrorDataset
from repro.errors import DataError
from repro.profiling.counters import all_feature_names
from repro.telemetry import get_telemetry


@dataclass(frozen=True)
class FeatureCorrelationPoint:
    """One point of Fig. 10: a feature's correlation with WER and with PUE."""

    feature: str
    rs_wer: float
    rs_pue: float

    @property
    def wer_strength(self) -> float:
        return abs(self.rs_wer)


@dataclass
class CorrelationStudy:
    """The full Fig. 10 scatter: rs(WER) and rs(PUE) for every feature."""

    points: List[FeatureCorrelationPoint]

    def __post_init__(self) -> None:
        if not self.points:
            raise DataError("correlation study has no points")
        self._by_name = {point.feature: point for point in self.points}

    def point(self, feature: str) -> FeatureCorrelationPoint:
        try:
            return self._by_name[feature]
        except KeyError:
            raise DataError(f"feature {feature!r} not in the study") from None

    def rs_wer(self, feature: str) -> float:
        return self.point(feature).rs_wer

    def rs_pue(self, feature: str) -> float:
        return self.point(feature).rs_pue

    def top_wer_features(self, count: int = 10) -> List[FeatureCorrelationPoint]:
        """Features most strongly correlated with WER, by |rs|."""
        return sorted(self.points, key=lambda p: p.wer_strength, reverse=True)[:count]

    def named_feature_summary(self) -> Dict[str, Tuple[float, float]]:
        """The features the paper discusses explicitly, as (rs_WER, rs_PUE)."""
        interesting = (
            "memory_accesses_per_cycle",
            "wait_cycles",
            "hdp",
            "treuse",
            "ipc",
            "cpu_utilization",
        )
        return {
            name: (self.rs_wer(name), self.rs_pue(name))
            for name in interesting
            if name in self._by_name
        }


def _study_columns(
    dataset: ErrorDataset, feature_names: Sequence[str]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(program, workload_codes, group_codes, targets)`` for one dataset.

    ``program`` is the per-workload feature table in ``feature_names``
    order (program features are constant per workload by construction, so
    one row per workload code suffices); ``group_codes`` dictionary-encode
    the ``(round(trefp, 6), round(temp, 2))`` operating-point key the
    per-row oracle groups on.
    """
    if not len(dataset):
        raise DataError("dataset is empty")
    program = np.array(
        [[float(dataset.features_by_workload[w][name]) for name in feature_names]
         for w in dataset.workload_table],
        dtype=np.float64,
    )
    operating = dataset.operating_columns
    op_key = np.column_stack(
        (np.round(operating[:, 0], 6), np.round(operating[:, 2], 2))
    )
    _, group_codes = np.unique(op_key, axis=0, return_inverse=True)
    return program, dataset.workload_codes, group_codes.reshape(-1), dataset.targets


def _grouped_feature_spearman(
    dataset: ErrorDataset, feature_names: Sequence[str]
) -> np.ndarray:
    """Per-feature Spearman coefficients, averaged over operating-point groups.

    For every operating-point group with at least 3 workloads, the
    coefficient vector over all features is one ranked-matrix product:
    workload target means come from ``bincount`` sums/counts, features
    and means are ranked columnwise (``scipy.stats.rankdata``, average
    ties — exactly what ``spearmanr`` ranks with) and correlated via
    centered dot products.  Zero-variance columns (or constant group
    targets) yield 0.0.
    """
    program, workload_codes, group_codes, targets = _study_columns(
        dataset, feature_names
    )
    n_workloads = program.shape[0]
    n_groups = int(group_codes.max()) + 1 if group_codes.size else 0
    pair = group_codes * n_workloads + workload_codes
    counts = np.bincount(pair, minlength=n_groups * n_workloads)
    sums = np.bincount(pair, weights=targets, minlength=n_groups * n_workloads)
    mean_targets = np.zeros_like(sums)
    np.divide(sums, counts, out=mean_targets, where=counts > 0)
    present = counts.reshape(n_groups, n_workloads) > 0
    mean_targets = mean_targets.reshape(n_groups, n_workloads)

    # Imported here so that ``import repro`` does not pay for scipy.stats.
    from scipy import stats

    coefficients = []
    for group in range(n_groups):
        mask = present[group]
        if int(mask.sum()) < 3:
            continue
        feature_ranks = stats.rankdata(program[mask], axis=0)
        target_ranks = stats.rankdata(mean_targets[group][mask])
        centered_x = feature_ranks - feature_ranks.mean(axis=0)
        centered_y = target_ranks - target_ranks.mean()
        covariance = centered_x.T @ centered_y
        norm_sq = (centered_x ** 2).sum(axis=0) * (centered_y ** 2).sum()
        defined = norm_sq > 0.0
        coefficients.append(
            np.where(defined, covariance / np.sqrt(np.where(defined, norm_sq, 1.0)), 0.0)
        )
    if not coefficients:
        raise DataError("not enough samples per operating point for a correlation study")
    return np.mean(coefficients, axis=0)


def run_correlation_study(
    wer_dataset: ErrorDataset,
    pue_dataset: ErrorDataset,
    feature_names: Optional[Sequence[str]] = None,
) -> CorrelationStudy:
    """Correlate every program feature against the WER and PUE measurements.

    The coefficient of a feature is the Spearman correlation between the
    feature and the per-workload error metric, computed within each
    operating point of the campaign and averaged across operating points.
    All features are processed in one vectorized pass per dataset; a
    feature with no ranking information (constant across a group's
    workloads, or a group with constant mean targets) contributes 0.0
    for that group rather than a NaN.
    """
    telemetry = get_telemetry()
    with telemetry.span("core.correlation_study"):
        names = list(feature_names) if feature_names is not None else all_feature_names()
        rs_wer = _grouped_feature_spearman(wer_dataset, names)
        rs_pue = _grouped_feature_spearman(pue_dataset, names)
        points = [
            FeatureCorrelationPoint(
                feature=name, rs_wer=float(w), rs_pue=float(p)
            )
            for name, w, p in zip(names, rs_wer, rs_pue)
        ]
        if telemetry.enabled:
            telemetry.incr("core.correlation_features", len(points))
        return CorrelationStudy(points=points)
