"""Conventional workload-unaware error model (the Fig. 13 baseline).

Prior work models DRAM errors with a *constant* rate measured by running
a data-pattern micro-benchmark (typically a random pattern) on the
device at each operating point.  The model ignores what the workload
does, so its estimate for a real application is off by whatever factor
separates the application's WER from the micro-benchmark's — the paper
measures a 2.9x average error versus < 10.5 % for the workload-aware
model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.core.dataset import ErrorDataset
from repro.dram.operating import OperatingPoint
from repro.errors import DataError, NotFittedError
from repro.ml.metrics import mean_percentage_error, prediction_ratio


def _op_key(trefp_s: float, vdd_v: float, temperature_c: float) -> Tuple[float, float, float]:
    return (round(trefp_s, 6), round(vdd_v, 4), round(temperature_c, 2))


def _reference_rows(dataset: ErrorDataset, workload: str) -> np.ndarray:
    """Boolean mask of the dataset rows measured on ``workload``."""
    if workload not in dataset.workload_table:
        return np.zeros(len(dataset), dtype=bool)
    return dataset.workload_codes == dataset.workload_table.index(workload)


@dataclass
class ConventionalErrorModel:
    """Constant-rate model calibrated with a data-pattern micro-benchmark."""

    reference_workload: str = "data-pattern-random"
    _rates: Dict[Tuple[float, float, float], float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def fit(self, dataset: ErrorDataset) -> "ConventionalErrorModel":
        """Learn the per-operating-point constant rate from the micro-benchmark."""
        rows = _reference_rows(dataset, self.reference_workload)
        grouped: Dict[Tuple[float, float, float], List[float]] = {}
        for op, target in zip(dataset.operating_columns[rows].tolist(),
                              dataset.targets[rows].tolist()):
            grouped.setdefault(_op_key(*op), []).append(target)
        if not grouped:
            raise DataError(
                "dataset has no samples of the reference micro-benchmark "
                f"{self.reference_workload!r}"
            )
        self._rates = {key: float(np.mean(values)) for key, values in grouped.items()}
        return self

    # ------------------------------------------------------------------
    def _rate(self, key: Tuple[float, float, float]) -> float:
        if not self._rates:
            raise NotFittedError("ConventionalErrorModel must be fitted first")
        if key in self._rates:
            return self._rates[key]
        # Fall back to the closest characterized operating point.
        closest = min(
            self._rates,
            key=lambda k: abs(k[0] - key[0]) + abs(k[2] - key[2]) * 0.01,
        )
        return self._rates[closest]

    def predict(self, op: OperatingPoint, workload: str = "") -> float:
        """The constant rate for an operating point — the workload is ignored."""
        return self._rate(_op_key(op.trefp_s, op.vdd_v, op.temperature_c))

    # ------------------------------------------------------------------
    def evaluate(self, dataset: ErrorDataset) -> Dict[str, float]:
        """Score the constant-rate model against real-workload measurements.

        Returns the mean percentage error and the multiplicative estimation
        factor (the "2.9x" of Fig. 13) over every row that does not
        belong to the reference micro-benchmark.
        """
        rows = ~_reference_rows(dataset, self.reference_workload)
        if not rows.any():
            raise DataError("dataset has no real-workload samples to evaluate against")
        targets_arr = dataset.targets[rows]
        predictions_arr = np.array([
            self._rate(_op_key(*op)) for op in dataset.operating_columns[rows].tolist()
        ])
        positive = targets_arr > 0
        ratio = (
            prediction_ratio(targets_arr[positive], predictions_arr[positive])
            if np.any(positive)
            else float("nan")
        )
        return {
            "mean_percentage_error": mean_percentage_error(targets_arr, predictions_arr),
            "estimation_factor": ratio,
            "num_samples": float(targets_arr.shape[0]),
        }
