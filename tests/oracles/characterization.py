"""Scalar reference implementation of a characterization run.

The free functions below are the per-operating-point, per-rank form of
:class:`~repro.dram.statistical.StatisticalErrorModel`: one
``stats.norm.cdf`` retention-CDF call per point
(:func:`bit_failure_probability`) and one ``math.exp``/``np.exp`` per
rank, with the same multiplication order as the grid engine.  They call
the model's shared per-point arithmetic (``_word_ce_probability_from_p_ret``,
``_expected_ue_count_from_p_ret``) and its idiosyncratic factor, but
none of its grid code, so the grid engine is checked cell by cell
against them.

:func:`reference_scalar_run` is the pre-grid-engine body of
:meth:`CharacterizationExperiment.run`, built purely from these scalar
functions.  It exists so the equivalence tests and the throughput
benchmark check :meth:`CharacterizationExperiment.run_grid_columns` —
the one grid path, which every campaign and every scalar ``run`` goes
through — against an *independent* implementation rather than against
itself: each grid cell must stay bit-identical to this function for the
same seed and repetition index.  Any change to the run contract must
update this reference and the pinning suites
(``tests/test_campaign_grid.py``, ``benchmarks/test_campaign_throughput.py``)
together.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

from repro import units
from repro.characterization.experiment import CharacterizationExperiment
from repro.dram.calibration import DEFAULT_CALIBRATION, RetentionCalibration
from repro.dram.geometry import RankLocation
from repro.dram.operating import OperatingPoint
from repro.dram.retention import _failure_z_score
from repro.dram.statistical import StatisticalErrorModel, WorkloadBehavior
from repro.profiling.profile import WorkloadProfile


def bit_failure_probability(
    effective_refresh_s: float,
    temperature_c: float,
    vdd_v: float = 1.5,
    calibration: Optional[RetentionCalibration] = None,
) -> float:
    """Lognormal retention CDF of one operating point, via ``stats.norm.cdf``."""
    from scipy import stats

    cal = calibration or DEFAULT_CALIBRATION.retention
    z = _failure_z_score(effective_refresh_s, temperature_c, vdd_v, cal)
    return float(stats.norm.cdf(z))


def retention_bit_failure_probability(
    model: StatisticalErrorModel, op: OperatingPoint
) -> float:
    """Probability a bit's retention time is below the configured TREFP."""
    return bit_failure_probability(
        op.trefp_s, op.temperature_c, op.vdd_v, model.calibration.retention
    )


def word_ce_probability(
    model: StatisticalErrorModel, op: OperatingPoint, behavior: WorkloadBehavior
) -> float:
    """Probability that a 64-bit word manifests a (unique) CE in a run."""
    return model._word_ce_probability_from_p_ret(
        retention_bit_failure_probability(model, op), op, behavior
    )


def expected_rank_wer(
    model: StatisticalErrorModel,
    op: OperatingPoint,
    behavior: WorkloadBehavior,
    rank: RankLocation,
    workload: str = "",
) -> float:
    """Expected WER on one DIMM/rank (Fig. 8 granularity)."""
    base = word_ce_probability(model, op, behavior)
    factor = model.variation.wer_factor(rank)
    return base * factor * model._idiosyncratic_factor(workload, rank)


def sample_rank_wer(
    model: StatisticalErrorModel,
    op: OperatingPoint,
    behavior: WorkloadBehavior,
    rank: RankLocation,
    workload: str = "",
    *,
    rng: np.random.Generator,
) -> float:
    """One measured per-rank WER, with run-to-run (VRT) noise applied.

    The noise kernel is ``np.exp`` (not ``math.exp``): the grid path
    exponentiates whole arrays, and the two libms differ in the last ulp
    for a few percent of arguments.
    """
    expected = expected_rank_wer(model, op, behavior, rank, workload)
    noise = float(np.exp(
        model.calibration.workload.run_to_run_sigma * rng.standard_normal()
    ))
    return expected * noise


def expected_ue_count(
    model: StatisticalErrorModel,
    op: OperatingPoint,
    behavior: WorkloadBehavior,
    workload: str = "",
) -> float:
    """Expected number of detected multi-bit words in one 2-hour run."""
    return model._expected_ue_count_from_p_ret(
        retention_bit_failure_probability(model, op),
        op,
        behavior,
        model._idiosyncratic_factor(workload, None),
    )


def probability_of_ue(
    model: StatisticalErrorModel,
    op: OperatingPoint,
    behavior: WorkloadBehavior,
    workload: str = "",
) -> float:
    """PUE (Eq. 3): probability that a run triggers at least one UE."""
    lam = expected_ue_count(model, op, behavior, workload)
    return float(1.0 - math.exp(-lam))


def sample_ue_event(
    model: StatisticalErrorModel,
    op: OperatingPoint,
    behavior: WorkloadBehavior,
    workload: str = "",
    *,
    rng: np.random.Generator,
) -> Optional[RankLocation]:
    """Sample whether a run crashes with a UE and, if so, on which rank."""
    if rng.random() >= probability_of_ue(model, op, behavior, workload):
        return None
    weights = model.variation.normalized_ue_weights()
    ranks = list(weights.keys())
    probabilities = np.array([weights[rank] for rank in ranks])
    index = rng.choice(len(ranks), p=probabilities)
    return ranks[index]


def reference_scalar_run(
    experiment: CharacterizationExperiment,
    workload: str,
    op: OperatingPoint,
    profile: Optional[WorkloadProfile] = None,
    repetition: int = 0,
    duration_s: float = units.CHARACTERIZATION_DURATION_S,
) -> Tuple[Dict[RankLocation, float], Optional[RankLocation]]:
    """One scalar characterization run; returns ``(rank_wer, ue_rank)``."""
    behavior = experiment._behavior(workload, profile)
    configured = experiment.server.configure(op)
    model = experiment.server.error_model
    rng = experiment._run_rng(workload, configured, repetition)
    rank_wer = {
        rank: sample_rank_wer(model, configured, behavior, rank, workload, rng=rng)
        for rank in experiment.server.geometry.iter_ranks()
    }
    maturity = 1.0 - float(np.exp(-duration_s / model.calibration.convergence_tau_s))
    rank_wer = {rank: wer * maturity for rank, wer in rank_wer.items()}
    ue_rank = sample_ue_event(model, configured, behavior, workload, rng=rng)
    return rank_wer, ue_rank
