"""Per-sample reference implementations of the dataset builders.

:func:`reference_build_wer_dataset` / :func:`reference_build_pue_dataset`
are the pre-columnar bodies of ``build_wer_dataset`` /
``build_pue_dataset``: one :class:`~repro.core.dataset.Sample` per
measurement, returned as a plain list, and :func:`reference_matrices`
assembles ``(X, y, groups)`` from such a list row by row.  They exist —
mirroring ``repro.characterization.reference`` for the grid engine — so
the equivalence tests and the throughput benchmark check the columnar
builders against an *independent* implementation that shares no code
with :class:`~repro.core.dataset.ColumnarDataset`: the columnar path
must stay bit-identical to these functions' ``(X, y, groups)`` output
for the same campaign.  Any change to the dataset contract must update
this reference and the pinning suites
(``tests/test_columnar_dataset.py``,
``benchmarks/test_dataset_throughput.py``) together.

:func:`reference_run_correlation_study` follows the same convention for
the Fig. 10 feature-selection study: it is the pre-vectorized body of
``run_correlation_study`` — one pass over the ``Sample`` objects per
dataset and one :func:`~repro.ml.metrics.spearman_correlation` call per
(feature, operating-point group) — pinned against the group-code path
by ``tests/test_core.py`` to a documented 1e-9 tolerance (reduction
order differs, so agreement is tolerance- rather than bit-exact).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # runtime import would be circular; see the lazy import below
    from repro.core.correlation import CorrelationStudy
    from repro.core.predictor import WorkloadAwarePredictor

from repro.characterization.campaign import CampaignResult
from repro.core.dataset import Sample, _profiles_for
from repro.core.features import FeatureSet
from repro.dram.operating import OperatingPoint
from repro.errors import DataError
from repro.ml.metrics import spearman_correlation
from repro.profiling.profile import WorkloadProfile


def reference_build_wer_dataset(
    campaign: CampaignResult,
    profiles: Optional[Dict[str, WorkloadProfile]] = None,
) -> List[Sample]:
    """Join per-rank WER measurements with program features, sample by sample."""
    workloads = sorted({m.workload for m in campaign.wer_measurements})
    resolved = _profiles_for(workloads, profiles)
    samples: List[Sample] = []
    for measurement in campaign.wer_measurements:
        profile = resolved[measurement.workload]
        op = OperatingPoint(
            trefp_s=measurement.trefp_s,
            vdd_v=measurement.vdd_v,
            temperature_c=measurement.temperature_c,
        )
        samples.append(
            Sample(
                workload=measurement.workload,
                operating_point=op,
                target=measurement.wer,
                program_features=profile.features,
                rank=measurement.rank,
            )
        )
    if not samples:
        raise DataError("campaign contains no WER measurements")
    return samples


def reference_build_pue_dataset(
    campaign: CampaignResult,
    profiles: Optional[Dict[str, WorkloadProfile]] = None,
    vdd_v: float = 1.428,
) -> List[Sample]:
    """Join the 70 C UE study with program features, sample by sample."""
    workloads = sorted({s.workload for s in campaign.pue_summaries})
    resolved = _profiles_for(workloads, profiles)
    samples: List[Sample] = []
    for summary in campaign.pue_summaries:
        profile = resolved[summary.workload]
        op = OperatingPoint(
            trefp_s=summary.trefp_s, vdd_v=vdd_v, temperature_c=summary.temperature_c
        )
        samples.append(
            Sample(
                workload=summary.workload,
                operating_point=op,
                target=summary.pue,
                program_features=profile.features,
                rank=None,
            )
        )
    if not samples:
        raise DataError("campaign contains no UE observations")
    return samples


def reference_matrices(
    samples: Sequence[Sample], feature_set: FeatureSet
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(X, y, groups)`` assembled row by row, one input row per sample."""
    if not samples:
        raise DataError("dataset is empty")
    X = np.stack([sample.input_row(feature_set) for sample in samples])
    y = np.array([sample.target for sample in samples], dtype=float)
    groups = np.array([sample.workload for sample in samples])
    return X, y, groups


def reference_grouped_samples(
    dataset: Iterable[Sample], feature_names: Sequence[str]
) -> Dict[Tuple[float, float], Dict[str, Tuple[List[float], List[float]]]]:
    """Group samples by operating point; average targets per workload.

    Returns ``{(trefp, temp): {workload: (feature_row, [targets])}}``.
    Grouping by operating point isolates the *workload-dependent* component
    of the error rate: WER varies by orders of magnitude with TREFP and
    temperature, which would otherwise swamp the feature correlation.
    """
    groups: Dict[Tuple[float, float], Dict[str, Tuple[List[float], List[float]]]] = {}
    for sample in dataset:
        op_key = (round(sample.operating_point.trefp_s, 6),
                  round(sample.operating_point.temperature_c, 2))
        per_workload = groups.setdefault(op_key, {})
        if sample.workload not in per_workload:
            row = [sample.program_features[name] for name in feature_names]
            per_workload[sample.workload] = (row, [])
        per_workload[sample.workload][1].append(sample.target)
    return groups


def reference_grouped_spearman(
    groups: Dict[Tuple[float, float], Dict[str, Tuple[List[float], List[float]]]],
    column: int,
) -> float:
    """Spearman coefficient of one feature, averaged over operating-point groups."""
    coefficients = []
    for per_workload in groups.values():
        if len(per_workload) < 3:
            continue
        x = [row[column] for row, _targets in per_workload.values()]
        y = [float(np.mean(targets)) for _row, targets in per_workload.values()]
        coefficients.append(spearman_correlation(x, y))
    if not coefficients:
        raise DataError("not enough samples per operating point for a correlation study")
    return float(np.mean(coefficients))


def reference_run_correlation_study(
    wer_dataset: Iterable[Sample],
    pue_dataset: Iterable[Sample],
    feature_names: Optional[Sequence[str]] = None,
) -> "CorrelationStudy":
    """Per-sample body of ``run_correlation_study`` (one scipy call per pair)."""
    from repro.core.correlation import CorrelationStudy, FeatureCorrelationPoint
    from repro.profiling.counters import all_feature_names

    names = list(feature_names) if feature_names is not None else all_feature_names()
    wer_groups = reference_grouped_samples(wer_dataset, names)
    pue_groups = reference_grouped_samples(pue_dataset, names)

    points = []
    for column, name in enumerate(names):
        rs_wer = reference_grouped_spearman(wer_groups, column)
        rs_pue = reference_grouped_spearman(pue_groups, column)
        points.append(FeatureCorrelationPoint(feature=name, rs_wer=rs_wer, rs_pue=rs_pue))
    return CorrelationStudy(points=points)


def reference_predict_grid(
    predictor: "WorkloadAwarePredictor",
    workloads: Sequence[str],
    trefps: Sequence[float],
    temperatures: Sequence[float],
    vdds: Sequence[float],
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Per-point reference of ``WorkloadAwarePredictor.predict_grid``.

    One ``feature_set.build_row`` + one single-row model call per grid
    cell — the pre-batched prediction path.  Returns ``(wer, pue)``
    shaped like the grid's arrays: ``wer`` is ``(n_ranks, n_workloads,
    n_trefp, n_temperature, n_vdd)`` and ``pue`` matches the surface
    shape (or is ``None`` when the predictor has no PUE model).  The
    batched path is pinned against this function to 1e-9 relative
    tolerance (BLAS batching may differ in the last ulps).
    """
    from repro.profiling.profiler import profile_workload

    profiles = [
        w if isinstance(w, WorkloadProfile) else profile_workload(w)
        for w in workloads
    ]
    ranks = tuple(predictor._wer_models)
    shape = (len(workloads), len(trefps), len(temperatures), len(vdds))
    wer = np.empty((len(ranks),) + shape, dtype=np.float64)
    pue: Optional[np.ndarray] = (
        np.empty(shape, dtype=np.float64) if predictor._pue_model is not None else None
    )
    for i, profile in enumerate(profiles):
        for j, trefp in enumerate(trefps):
            for k, temperature in enumerate(temperatures):
                for m, vdd in enumerate(vdds):
                    op = OperatingPoint(
                        trefp_s=float(trefp), vdd_v=float(vdd),
                        temperature_c=float(temperature),
                    )
                    for r, rank in enumerate(ranks):
                        wer[r, i, j, k, m] = predictor._wer_models[rank].predict(
                            op, profile.features
                        )
                    if pue is not None:
                        value = predictor._pue_model.predict(op, profile.features)
                        pue[i, j, k, m] = min(max(value, 0.0), 1.0)
    return wer, pue
