"""Scalar reference implementation of a characterization run.

:func:`reference_scalar_run` is the pre-grid-engine body of
:meth:`CharacterizationExperiment.run`, built purely from the model's
scalar sampling API.  It exists so the equivalence tests and the
throughput benchmarks check the vectorized grid engine against an
*independent* implementation rather than against itself — the grid
engine must stay bit-identical to this function for the same seed and
repetition index.  Any change to the scalar run contract must update
this reference and the pinning suites (``tests/test_campaign_grid.py``,
``benchmarks/test_campaign_throughput.py``) together.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro import units
from repro.characterization.experiment import CharacterizationExperiment
from repro.dram.geometry import RankLocation
from repro.dram.operating import OperatingPoint
from repro.profiling.profile import WorkloadProfile


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
        rank: model.sample_rank_wer(configured, behavior, rank, workload, rng=rng)
        for rank in experiment.server.geometry.iter_ranks()
    }
    maturity = 1.0 - float(np.exp(-duration_s / model.calibration.convergence_tau_s))
    rank_wer = {rank: wer * maturity for rank, wer in rank_wer.items()}
    ue_rank = model.sample_ue_event(configured, behavior, workload, rng=rng)
    return rank_wer, ue_rank
