"""Campaign grid engine: batch-vs-scalar equivalence and throughput floor.

The Section V campaign is a dense grid sweep (workloads x TREFP x
temperature x repetitions plus the 70 C UE study).  These benchmarks pin
two properties of the batched grid engine, mirroring how
``test_ecc_throughput.py`` pins the SECDED batch engine against the
scalar codec:

* ``run_grid`` reproduces the scalar reference loop — per-run calls of
  the model's scalar sampling API, the pre-grid implementation of
  ``CharacterizationExperiment.run`` — *bit for bit* on the paper's
  default grid;
* the batched sweep is at least 10x faster than that scalar loop.
"""

import time

import pytest

from repro.characterization.campaign import CampaignConfig
from repro.characterization.experiment import CharacterizationExperiment
from repro.workloads.registry import campaign_workload_names

from tests.oracles.characterization import reference_scalar_run

pytestmark = pytest.mark.slow

CONFIG = CampaignConfig()


def _default_grid():
    """The default campaign's operating points: CE sweep + UE study."""
    return CONFIG.wer_operating_points(), CONFIG.ue_operating_points()


def _scalar_sweep(experiment, profiles):
    wer_ops, ue_ops = _default_grid()
    out = []
    for workload in campaign_workload_names():
        profile = profiles[workload]
        for op in wer_ops:
            for repetition in range(CONFIG.repetitions):
                out.append(reference_scalar_run(
                    experiment, workload, op, profile, repetition
                ))
        for op in ue_ops:
            for repetition in range(CONFIG.ue_repetitions):
                out.append(reference_scalar_run(
                    experiment, workload, op, profile, repetition
                ))
    return out


def _batched_sweep(experiment, profiles):
    wer_ops, ue_ops = _default_grid()
    out = []
    for workload in campaign_workload_names():
        profile = profiles[workload]
        for grid in (
            experiment.run_grid(
                workload, wer_ops, repetitions=CONFIG.repetitions, profile=profile
            ),
            experiment.run_grid(
                workload, ue_ops, repetitions=CONFIG.ue_repetitions, profile=profile
            ),
        ):
            for point_runs in grid:
                for run in point_runs:
                    out.append((run.rank_wer, run.ue_rank))
    return out


def test_default_grid_batch_matches_scalar_exactly(campaign_profiles):
    experiment = CharacterizationExperiment(seed=7)
    scalar = _scalar_sweep(experiment, campaign_profiles)
    batched = _batched_sweep(experiment, campaign_profiles)
    assert len(scalar) == len(batched) > 500
    mismatches = sum(
        1 for (s_wer, s_ue), (b_wer, b_ue) in zip(scalar, batched)
        if s_wer != b_wer or s_ue != b_ue
    )
    assert mismatches == 0


def test_campaign_grid_at_least_10x_scalar(campaign_profiles, bench_report):
    experiment = CharacterizationExperiment(seed=7)
    _batched_sweep(experiment, campaign_profiles)      # warm caches/imports

    # Min-of-N timing on both sides: the floor must hold on noisy shared CI
    # runners, where a single scheduling stall would skew a lone measurement.
    scalar_s = min(
        _timed(lambda: _scalar_sweep(experiment, campaign_profiles))
        for _ in range(3)
    )
    batch_s = min(
        _timed(lambda: _batched_sweep(experiment, campaign_profiles))
        for _ in range(5)
    )
    wer_ops, ue_ops = _default_grid()
    runs = len(campaign_workload_names()) * (
        len(wer_ops) * CONFIG.repetitions + len(ue_ops) * CONFIG.ue_repetitions
    )
    speedup = bench_report.record(
        "campaign_grid", floor=10.0, scalar_s=scalar_s, batch_s=batch_s,
        units_label="runs", work_items=runs,
    )
    assert speedup >= 10.0


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
