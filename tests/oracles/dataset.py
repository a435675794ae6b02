"""Per-row dataset oracle: one :class:`Row` per campaign measurement.

:func:`reference_build_wer_dataset` / :func:`reference_build_pue_dataset`
are the pre-columnar bodies of ``build_wer_dataset`` /
``build_pue_dataset``: one frozen :class:`Row` per measurement, returned
as a plain list, and :func:`reference_matrices` assembles
``(X, y, groups)`` from such a list row by row.  They share no code with
:class:`~repro.core.dataset.ErrorDataset`, so the equivalence tests and
the throughput benchmark check the columnar builders against an
independent implementation: the columnar path must stay bit-identical
to these functions' ``(X, y, groups)`` output for the same campaign
(:func:`assert_matches_rows`).

:func:`encode_rows` turns hand-built rows into an ``ErrorDataset`` for
tests that need a dataset no campaign produces (zero-variance features,
shuffled rank rows).  :func:`campaign_subset` keeps a selection of a
campaign's WER rows, and :func:`same_wer_columns` compares two
campaigns' WER columns bit for bit.

:func:`reference_run_correlation_study` is the pre-vectorized body of
``run_correlation_study`` — one pass over the rows per dataset and one
:func:`spearman_correlation` call (scipy's ``spearmanr``) per (feature,
operating-point group) — pinned against the group-code path to a 1e-9
tolerance (reduction order differs, so agreement is tolerance- rather
than bit-exact).

:func:`reference_conventional_rates` / :func:`reference_conventional_scores`
are the per-row loops of ``ConventionalErrorModel.fit`` / ``evaluate``;
the columnar model must reproduce their rates and scores bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.characterization.campaign import CampaignResult
from repro.characterization.metrics import WerColumnStore
from repro.core.conventional import ConventionalErrorModel
from repro.core.correlation import CorrelationStudy, FeatureCorrelationPoint
from repro.core.dataset import ErrorDataset
from repro.core.features import FeatureSet
from repro.dram.geometry import RankLocation
from repro.dram.operating import OperatingPoint
from repro.errors import DataError
from repro.ml.metrics import mean_percentage_error, prediction_ratio
from repro.profiling.counters import all_feature_names
from repro.profiling.profile import WorkloadProfile
from repro.profiling.profiler import profile_workload

OpKey = Tuple[float, float, float]


def spearman_correlation(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman's rank correlation coefficient ``rs`` (scipy's ``spearmanr``).

    **Zero-variance contract:** a constant ``x`` or constant ``y`` carries
    no ranking information, so the coefficient is defined as exactly
    ``0.0`` — never NaN (scipy would return NaN, which silently poisons
    any downstream mean, e.g. the per-operating-point averaging of the
    correlation study).  The library's group-code study path
    (``repro.core.correlation``) implements the same contract.
    """
    a = np.asarray(x, dtype=float).ravel()
    b = np.asarray(y, dtype=float).ravel()
    if np.all(a == a[0]) or np.all(b == b[0]):
        return 0.0
    from scipy import stats

    rs, _pvalue = stats.spearmanr(a, b)
    if np.isnan(rs):
        return 0.0
    return float(rs)


@dataclass(frozen=True)
class Row:
    """One labelled measurement joined with its workload's program features."""

    workload: str
    operating_point: OperatingPoint
    target: float
    program_features: Mapping[str, float]
    rank: Optional[RankLocation] = None

    def input_row(self, feature_set: FeatureSet) -> np.ndarray:
        return feature_set.build_row(self.operating_point, self.program_features)


def _resolve_profiles(
    workloads: Sequence[str], profiles: Optional[Dict[str, WorkloadProfile]]
) -> Dict[str, WorkloadProfile]:
    if profiles is None:
        return {workload: profile_workload(workload) for workload in workloads}
    missing = [w for w in workloads if w not in profiles]
    if missing:
        raise DataError(f"profiles missing for workloads: {missing}")
    return profiles


# ---------------------------------------------------------------------------
# Builders and matrix assembly.
# ---------------------------------------------------------------------------
def reference_build_wer_dataset(
    campaign: CampaignResult,
    profiles: Optional[Dict[str, WorkloadProfile]] = None,
) -> List[Row]:
    """Join per-rank WER measurements with program features, row by row."""
    store = campaign.wer_columns()
    columns = store.rows
    names = [store.workloads[code] for code in columns["workload"].tolist()]
    ranks = [store.ranks[code] for code in columns["rank"].tolist()]
    resolved = _resolve_profiles(sorted(set(names)), profiles)
    rows = [
        Row(
            workload=name,
            operating_point=OperatingPoint(
                trefp_s=trefp, vdd_v=vdd, temperature_c=temperature
            ),
            target=wer,
            program_features=resolved[name].features,
            rank=rank,
        )
        for name, trefp, vdd, temperature, rank, wer in zip(
            names, columns["trefp_s"].tolist(), columns["vdd_v"].tolist(),
            columns["temperature_c"].tolist(), ranks, columns["wer"].tolist(),
        )
    ]
    if not rows:
        raise DataError("campaign contains no WER measurements")
    return rows


def same_wer_columns(a: CampaignResult, b: CampaignResult) -> bool:
    """Both campaigns hold bit-identical WER rows and code tables."""
    left, right = a.wer_columns(), b.wer_columns()
    return (
        left.rows.dtype == right.rows.dtype
        and left.rows.tobytes() == right.rows.tobytes()
        and left.workloads == right.workloads
        and left.ranks == right.ranks
    )


def campaign_subset(campaign: CampaignResult, keep: np.ndarray) -> CampaignResult:
    """``campaign`` with only the WER rows ``keep`` selects (mask or indices).

    The workload and rank code tables are re-encoded in first-appearance
    order of the kept rows, as a campaign that measured only those rows
    would have built them.
    """
    store = campaign.wer_columns()
    rows = store.rows[keep]
    tables = []
    for field, table in (("workload", store.workloads), ("rank", store.ranks)):
        _, first = np.unique(rows[field], return_index=True)
        used = rows[field][np.sort(first)]
        recode = np.zeros(len(table), dtype=rows[field].dtype)
        recode[used] = np.arange(len(used))
        rows[field] = recode[rows[field]]
        tables.append([table[code] for code in used.tolist()])
    subset = CampaignResult(config=campaign.config, pue_summaries=campaign.pue_summaries)
    subset.extend_wer_columns([WerColumnStore(tables[0], tables[1], rows)])
    return subset


def reference_build_pue_dataset(
    campaign: CampaignResult,
    profiles: Optional[Dict[str, WorkloadProfile]] = None,
    vdd_v: float = 1.428,
) -> List[Row]:
    """Join the 70 C UE study with program features, row by row."""
    workloads = sorted({s.workload for s in campaign.pue_summaries})
    resolved = _resolve_profiles(workloads, profiles)
    rows = [
        Row(
            workload=s.workload,
            operating_point=OperatingPoint(
                trefp_s=s.trefp_s, vdd_v=vdd_v, temperature_c=s.temperature_c
            ),
            target=s.pue,
            program_features=resolved[s.workload].features,
        )
        for s in campaign.pue_summaries
    ]
    if not rows:
        raise DataError("campaign contains no UE observations")
    return rows


def reference_matrices(
    rows: Sequence[Row], feature_set: FeatureSet
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(X, y, groups)`` assembled row by row, one input row per row."""
    if not rows:
        raise DataError("dataset is empty")
    X = np.stack([row.input_row(feature_set) for row in rows])
    y = np.array([row.target for row in rows], dtype=float)
    groups = np.array([row.workload for row in rows])
    return X, y, groups


def encode_rows(rows: Sequence[Row]) -> ErrorDataset:
    """Encode hand-built rows into an ``ErrorDataset``, codes in first-seen order."""
    workloads: Dict[str, int] = {}
    features: Dict[str, Mapping[str, float]] = {}
    ranks: Dict[RankLocation, int] = {}
    for row in rows:
        if features.setdefault(row.workload, row.program_features) != row.program_features:
            raise ValueError(f"rows of {row.workload!r} carry different program features")
        workloads.setdefault(row.workload, len(workloads))
        if row.rank is not None:
            ranks.setdefault(row.rank, len(ranks))
    return ErrorDataset(
        workload_table=list(workloads),
        workload_codes=np.array([workloads[row.workload] for row in rows], dtype=np.int64),
        operating_columns=np.array(
            [(row.operating_point.trefp_s, row.operating_point.vdd_v,
              row.operating_point.temperature_c) for row in rows],
            dtype=np.float64,
        ).reshape(len(rows), 3),
        targets=np.array([row.target for row in rows], dtype=np.float64),
        features_by_workload=features,
        rank_table=list(ranks),
        rank_codes=np.array(
            [-1 if row.rank is None else ranks[row.rank] for row in rows], dtype=np.int64
        ),
    )


def assert_matches_rows(
    dataset: ErrorDataset, rows: Sequence[Row], feature_set: FeatureSet
) -> None:
    """``dataset`` holds ``rows``: identical matrix bytes and rank column."""
    Xc, yc, gc = dataset.matrices(feature_set)
    Xr, yr, gr = reference_matrices(rows, feature_set)
    assert Xc.dtype == Xr.dtype and Xc.shape == Xr.shape
    assert Xc.tobytes() == Xr.tobytes()
    assert yc.tobytes() == yr.tobytes()
    assert bool((gc == gr).all())
    ranks = [None if code < 0 else dataset.rank_table[code]
             for code in dataset.rank_codes.tolist()]
    assert ranks == [row.rank for row in rows]


# ---------------------------------------------------------------------------
# Fig. 10 correlation study.
# ---------------------------------------------------------------------------
def reference_grouped_samples(
    rows: Sequence[Row], feature_names: Sequence[str]
) -> Dict[Tuple[float, float], Dict[str, Tuple[List[float], List[float]]]]:
    """Group rows by operating point; average targets per workload.

    Returns ``{(trefp, temp): {workload: (feature_row, [targets])}}``.
    Grouping by operating point isolates the *workload-dependent* component
    of the error rate: WER varies by orders of magnitude with TREFP and
    temperature, which would otherwise swamp the feature correlation.
    """
    groups: Dict[Tuple[float, float], Dict[str, Tuple[List[float], List[float]]]] = {}
    for row in rows:
        op_key = (round(row.operating_point.trefp_s, 6),
                  round(row.operating_point.temperature_c, 2))
        per_workload = groups.setdefault(op_key, {})
        if row.workload not in per_workload:
            features = [row.program_features[name] for name in feature_names]
            per_workload[row.workload] = (features, [])
        per_workload[row.workload][1].append(row.target)
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
        x = [features[column] for features, _targets in per_workload.values()]
        y = [float(np.mean(targets)) for _features, targets in per_workload.values()]
        coefficients.append(spearman_correlation(x, y))
    if not coefficients:
        raise DataError("not enough samples per operating point for a correlation study")
    return float(np.mean(coefficients))


def reference_run_correlation_study(
    wer_rows: Sequence[Row],
    pue_rows: Sequence[Row],
    feature_names: Optional[Sequence[str]] = None,
) -> CorrelationStudy:
    """Per-row body of ``run_correlation_study`` (one scipy call per pair)."""
    names = list(feature_names) if feature_names is not None else all_feature_names()
    wer_groups = reference_grouped_samples(wer_rows, names)
    pue_groups = reference_grouped_samples(pue_rows, names)
    points = [
        FeatureCorrelationPoint(
            feature=name,
            rs_wer=reference_grouped_spearman(wer_groups, column),
            rs_pue=reference_grouped_spearman(pue_groups, column),
        )
        for column, name in enumerate(names)
    ]
    return CorrelationStudy(points=points)


# ---------------------------------------------------------------------------
# Fig. 13 conventional constant-rate model.
# ---------------------------------------------------------------------------
def _op_key(op: OperatingPoint) -> OpKey:
    return (round(op.trefp_s, 6), round(op.vdd_v, 4), round(op.temperature_c, 2))


def reference_conventional_rates(
    rows: Sequence[Row], reference_workload: str = "data-pattern-random"
) -> Dict[OpKey, float]:
    """Per-operating-point mean target of the reference workload's rows."""
    grouped: Dict[OpKey, List[float]] = {}
    for row in rows:
        if row.workload != reference_workload:
            continue
        grouped.setdefault(_op_key(row.operating_point), []).append(row.target)
    if not grouped:
        raise DataError(f"no rows of the reference workload {reference_workload!r}")
    return {key: float(np.mean(values)) for key, values in grouped.items()}


def reference_conventional_scores(
    model: ConventionalErrorModel, rows: Sequence[Row]
) -> Dict[str, float]:
    """``model.evaluate`` with one ``predict`` call per real-workload row."""
    targets = []
    predictions = []
    for row in rows:
        if row.workload == model.reference_workload:
            continue
        targets.append(row.target)
        predictions.append(model.predict(row.operating_point, row.workload))
    if not targets:
        raise DataError("no real-workload rows to evaluate against")
    targets_arr = np.asarray(targets)
    predictions_arr = np.asarray(predictions)
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
