"""Figure regeneration helpers.

Each function returns the data series behind one figure of the paper as
plain Python structures (dicts / lists), so the benchmark harness can
print the same rows the paper plots without any plotting dependency.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import units
from repro.characterization.campaign import CampaignResult
from repro.characterization.experiment import CharacterizationExperiment
from repro.dram.operating import OperatingPoint
from repro.errors import DataError


def fig2_wer_over_time(
    workloads: Sequence[str] = ("memcached", "backprop(par)", "data-pattern-random"),
    trefp_s: float = 2.283,
    temperature_c: float = 70.0,
    experiment: Optional[CharacterizationExperiment] = None,
) -> Dict[str, List[Tuple[float, float]]]:
    """Fig. 2: WER vs time for memcached, backprop and the random micro."""
    runner = experiment or CharacterizationExperiment()
    op = OperatingPoint.relaxed(trefp_s, temperature_c)
    series = {}
    for workload in workloads:
        series[workload] = sorted(runner.wer_time_series(workload, op).items())
    return series


def fig4_wer_over_time(
    workloads: Sequence[str],
    trefp_s: float = 2.283,
    temperature_c: float = 50.0,
    experiment: Optional[CharacterizationExperiment] = None,
) -> Dict[str, List[Tuple[float, float]]]:
    """Fig. 4: WER vs time for every benchmark at 2.283 s / 50 C."""
    return fig2_wer_over_time(workloads, trefp_s, temperature_c, experiment)


def convergence_check(series: List[Tuple[float, float]], window_s: float = 600.0) -> float:
    """Relative WER change over the last ``window_s`` of a time series.

    The paper verifies this is below 3 % for 2-hour runs (Section V.A).
    """
    if len(series) < 2:
        raise DataError("time series needs at least two points")
    final_time, final_value = series[-1]
    earlier = [value for t, value in series if t <= final_time - window_s]
    if not earlier or final_value == 0:
        raise DataError("time series too short for a convergence check")
    return abs(final_value - earlier[-1]) / final_value


def fig7_wer_bars(
    campaign: CampaignResult,
    trefp_values_s: Sequence[float] = units.TREFP_SWEEP_S,
    temperature_c: float = 50.0,
) -> Dict[float, Dict[str, float]]:
    """Fig. 7a-e: WER per benchmark for each refresh period at one temperature."""
    return {
        trefp: campaign.wer_by_workload(trefp, temperature_c) for trefp in trefp_values_s
    }


def fig7f_mean_wer_curve(
    campaign: CampaignResult,
    temperatures_c: Sequence[float] = (50.0, 60.0),
    trefp_values_s: Sequence[float] = units.TREFP_SWEEP_S,
) -> Dict[float, List[Tuple[float, float]]]:
    """Fig. 7f: benchmark-averaged WER vs TREFP per temperature."""
    return {
        temperature: [(trefp, campaign.mean_wer(trefp, temperature)) for trefp in trefp_values_s]
        for temperature in temperatures_c
    }


def fig8_wer_per_rank(
    campaign: CampaignResult, trefp_s: float = 2.283, temperature_c: float = 50.0
) -> Dict[str, Dict[str, float]]:
    """Fig. 8: per-workload, per-DIMM/rank WER at 2.283 s / 50 C."""
    raw = campaign.wer_by_rank(trefp_s, temperature_c)
    return {
        workload: {rank.label: wer for rank, wer in sorted(ranks.items())}
        for workload, ranks in raw.items()
    }


def fig9a_pue_bars(
    campaign: CampaignResult, trefp_values_s: Sequence[float] = units.TREFP_UE_SWEEP_S
) -> Dict[float, Dict[str, float]]:
    """Fig. 9a: PUE per benchmark for each refresh period of the 70 C study."""
    return {trefp: campaign.pue_by_workload(trefp) for trefp in trefp_values_s}


def fig9b_ue_rank_distribution(campaign: CampaignResult) -> Dict[str, float]:
    """Fig. 9b: probability a UE lands on each DIMM/rank."""
    return {rank.label: p for rank, p in sorted(campaign.ue_rank_distribution().items())}


def exponential_growth_factor(curve: List[Tuple[float, float]]) -> float:
    """Fitted exponential growth rate of a WER-vs-TREFP curve (1/s).

    A strictly positive value confirms the exponential trend of Fig. 7f.
    """
    if len(curve) < 2:
        raise DataError("need at least two points to fit a growth rate")
    x = np.array([t for t, _ in curve])
    y = np.array([w for _, w in curve])
    if np.any(y <= 0):
        raise DataError("WER values must be positive to fit an exponential")
    slope, _intercept = np.polyfit(x, np.log(y), 1)
    return float(slope)
