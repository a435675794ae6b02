"""Accuracy evaluation with leave-one-workload-out cross-validation.

Reproduces Section VI.B: for every benchmark, a model is trained on the
samples of every *other* benchmark and tested on the held-out one; the
mean percentage error (MPE) of the estimates is then reported per
DIMM/rank (Fig. 11a-c), per application (Fig. 11d-f) and, for PUE,
averaged over applications and DIMMs (Fig. 12).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.dataset import ErrorDataset
from repro.core.model import DramErrorModel, ModelConfig
from repro.dram.geometry import RankLocation
from repro.errors import DataError
from repro.ml.cross_validation import LeaveOneGroupOut
from repro.ml.metrics import mean_percentage_error


@dataclass
class WerAccuracyReport:
    """Fig. 11 for one (model family, input set) combination."""

    family: str
    feature_set: str
    error_by_rank: Dict[RankLocation, float] = field(default_factory=dict)
    error_by_workload: Dict[str, float] = field(default_factory=dict)

    @property
    def average_rank_error(self) -> float:
        """The "Average" bar of Fig. 11a-c."""
        if not self.error_by_rank:
            raise DataError("report has no per-rank errors")
        return float(np.mean(list(self.error_by_rank.values())))

    @property
    def max_workload_error(self) -> float:
        return float(max(self.error_by_workload.values()))


@dataclass
class PueAccuracyReport:
    """Fig. 12 for one (model family, input set) combination."""

    family: str
    feature_set: str
    error_by_workload: Dict[str, float] = field(default_factory=dict)

    @property
    def average_error(self) -> float:
        if not self.error_by_workload:
            raise DataError("report has no per-workload errors")
        return float(np.mean(list(self.error_by_workload.values())))


def leave_one_workload_out_predictions(
    model: DramErrorModel, dataset: ErrorDataset
) -> np.ndarray:
    """Out-of-fold predictions where the folds are workloads (Fig. 3)."""
    X, y, groups = dataset.matrices(model.feature_set)
    return _lowo_predictions(model, X, y, groups)


def _lowo_predictions(
    model: DramErrorModel, X: np.ndarray, y: np.ndarray, groups: np.ndarray
) -> np.ndarray:
    """Leave-one-workload-out predictions for ``y`` of shape (n,) or (n, R)."""
    predictions = np.empty_like(y)
    splitter = LeaveOneGroupOut()
    for train_idx, test_idx in splitter.split(X, groups):
        fold_model = model.clone()
        fold_model.fit_matrices(X[train_idx], y[train_idx])
        predictions[test_idx] = fold_model.predict_matrix(X[test_idx])
    return predictions


class AccuracyEvaluator:
    """Runs the full accuracy study for a WER or PUE dataset."""

    def __init__(self, pue_error_floor: float = 0.05) -> None:
        #: floor used in the PUE percentage error so workloads with PUE = 0
        #: (which a percentage cannot be computed against) are scored
        #: against a small absolute tolerance instead
        self.pue_error_floor = pue_error_floor

    # ------------------------------------------------------------------
    def evaluate_wer(
        self,
        dataset: ErrorDataset,
        family: str,
        feature_set: str,
        ranks: Optional[Sequence[RankLocation]] = None,
    ) -> WerAccuracyReport:
        """Per-rank WER models, evaluated with leave-one-workload-out CV.

        The ranks are the target columns of one multi-output model, so one
        leave-one-workload-out pass scores every rank; each column is
        bit-identical to a model fitted on that rank alone.
        """
        report = WerAccuracyReport(family=family, feature_set=feature_set)
        rank_list = list(ranks) if ranks is not None else dataset.ranks()
        if not rank_list:
            raise DataError("WER dataset contains no rank information")

        config = ModelConfig(family=family, feature_set=feature_set, log_target=True)
        model = DramErrorModel(config)
        X, Y, groups = dataset.rank_matrices(model.feature_set, rank_list)
        predicted = _lowo_predictions(model, X, Y, groups)
        workload_errors: Dict[str, List[float]] = {}
        for rank, y, predictions in zip(
            rank_list, np.ascontiguousarray(Y.T), np.ascontiguousarray(predicted.T)
        ):
            report.error_by_rank[rank] = mean_percentage_error(y, predictions)
            for workload in np.unique(groups):
                mask = groups == workload
                workload_errors.setdefault(str(workload), []).append(
                    mean_percentage_error(y[mask], predictions[mask])
                )
        report.error_by_workload = {
            workload: float(np.mean(errors)) for workload, errors in workload_errors.items()
        }
        return report

    def evaluate_pue(
        self, dataset: ErrorDataset, family: str, feature_set: str
    ) -> PueAccuracyReport:
        """PUE model (whole machine), evaluated with leave-one-workload-out CV."""
        config = ModelConfig(family=family, feature_set=feature_set, log_target=False)
        model = DramErrorModel(config)
        X, y, groups = dataset.matrices(model.feature_set)
        predictions = np.clip(_lowo_predictions(model, X, y, groups), 0.0, 1.0)

        report = PueAccuracyReport(family=family, feature_set=feature_set)
        for workload in np.unique(groups):
            mask = groups == workload
            report.error_by_workload[str(workload)] = mean_percentage_error(
                y[mask], predictions[mask], floor=self.pue_error_floor
            )
        return report

    # ------------------------------------------------------------------
    def wer_study(
        self,
        dataset: ErrorDataset,
        families: Sequence[str] = ("svm", "knn", "rdf"),
        feature_sets: Sequence[str] = ("set1", "set2", "set3"),
        ranks: Optional[Sequence[RankLocation]] = None,
    ) -> Dict[str, Dict[str, WerAccuracyReport]]:
        """The full Fig. 11 grid: families x input sets."""
        return {
            family: {
                feature_set: self.evaluate_wer(dataset, family, feature_set, ranks)
                for feature_set in feature_sets
            }
            for family in families
        }

    def pue_study(
        self,
        dataset: ErrorDataset,
        families: Sequence[str] = ("svm", "knn", "rdf"),
        feature_sets: Sequence[str] = ("set1", "set2", "set3"),
    ) -> Dict[str, Dict[str, PueAccuracyReport]]:
        """The full Fig. 12 grid: families x input sets."""
        return {
            family: {
                feature_set: self.evaluate_pue(dataset, family, feature_set)
                for feature_set in feature_sets
            }
            for family in families
        }


def best_configuration(
    study: Dict[str, Dict[str, WerAccuracyReport]]
) -> WerAccuracyReport:
    """The (family, input set) pair with the lowest average per-rank error."""
    reports = [report for by_set in study.values() for report in by_set.values()]
    if not reports:
        raise DataError("empty accuracy study")
    return min(reports, key=lambda r: r.average_rank_error)
