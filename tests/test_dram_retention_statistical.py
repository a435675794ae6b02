"""Tests for the retention physics, variation profile and statistical model."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import units
from repro.dram.geometry import DramGeometry, RankLocation
from repro.dram.operating import OperatingPoint
from repro.dram.calibration import DEFAULT_CALIBRATION
from repro.dram.retention import (
    _failure_z_score,
    bit_failure_probability_grid,
    log_median_retention,
    sample_retention_times,
)
from repro.dram.statistical import StatisticalErrorModel, WorkloadBehavior
from repro.dram.variation import VariationProfile
from repro.errors import ConfigurationError

from tests.oracles.characterization import (
    expected_rank_wer,
    probability_of_ue,
    sample_rank_wer,
    sample_ue_event,
)


def behavior(accesses_per_cycle=0.01, reuse_time_s=1.0, entropy=10.0,
             footprint_words=10 ** 9, wait=0.5):
    return WorkloadBehavior(
        accesses_per_cycle=accesses_per_cycle,
        reuse_time_s=reuse_time_s,
        data_entropy_bits=entropy,
        footprint_words=footprint_words,
        wait_cycle_fraction=wait,
    )


class TestRetentionPhysics:
    def test_bit_failure_probability_increases_with_trefp(self):
        p1 = bit_failure_probability_grid(0.618, 50.0)
        p2 = bit_failure_probability_grid(2.283, 50.0)
        assert p2 > p1 > 0

    def test_bit_failure_probability_increases_with_temperature(self):
        assert bit_failure_probability_grid(2.283, 70.0) > bit_failure_probability_grid(2.283, 50.0)

    def test_vdd_effect_is_small(self):
        # The paper found 1.5 V -> 1.428 V to have a negligible effect.
        nominal = bit_failure_probability_grid(2.283, 50.0, vdd_v=1.5)
        lowered = bit_failure_probability_grid(2.283, 50.0, vdd_v=1.428)
        assert lowered >= nominal
        assert lowered / nominal < 1.5

    def test_nominal_refresh_is_essentially_error_free(self):
        assert bit_failure_probability_grid(units.NOMINAL_TREFP_S, 70.0) < 1e-9

    def test_retention_halves_roughly_every_nine_degrees(self):
        slope = DEFAULT_CALIBRATION.retention.temperature_slope_per_c
        assert math.log(2.0) / slope == pytest.approx(8.7, abs=1.0)

    def test_median_retention_decreases_with_temperature(self):
        assert log_median_retention(70.0, 1.5) < log_median_retention(50.0, 1.5)

    def test_sample_retention_times_match_median(self):
        rng = np.random.default_rng(1)
        samples = sample_retention_times(200_000, 50.0, rng=rng)
        median = math.exp(log_median_retention(50.0, 1.5))
        assert np.median(samples) == pytest.approx(median, rel=0.05)

    def test_invalid_refresh_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            bit_failure_probability_grid(0.0, 50.0)

    def test_failure_probability_is_the_normal_cdf_bit_for_bit(self):
        from scipy import stats

        cal = DEFAULT_CALIBRATION.retention
        refresh = np.geomspace(0.05, 60.0, 40)
        temperatures = np.linspace(30.0, 90.0, 7)
        grid = bit_failure_probability_grid(refresh[None, :], temperatures[:, None], 1.428)
        z = np.array([[_failure_z_score(r, t, 1.428, cal) for r in refresh]
                      for t in temperatures])
        assert np.array_equal(grid, stats.norm.cdf(z))

    def test_import_repro_does_not_load_scipy_stats(self):
        code = "import sys, repro; print('scipy.stats' in sys.modules)"
        source_root = str(Path(repro.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": source_root},
        )
        assert result.stdout.strip() == "False"


class TestVariationProfile:
    def test_default_profile_has_188x_spread(self):
        factors = [p.wer_factor for p in VariationProfile.default().ranks.values()]
        assert max(factors) / min(factors) == pytest.approx(188.0, rel=0.05)

    def test_default_profile_covers_all_ranks(self):
        profile = VariationProfile.default()
        assert set(profile.ranks) == set(DramGeometry().iter_ranks())

    def test_ue_weights_normalise(self):
        weights = VariationProfile.default().normalized_ue_weights()
        assert sum(weights.values()) == pytest.approx(1.0)
        # DIMM2/rank0 dominates and DIMM3/rank1 never produces a UE (Fig. 9b).
        assert max(weights, key=weights.get) == RankLocation(2, 0)
        assert weights[RankLocation(3, 1)] == 0.0

    def test_sampled_profile_is_reproducible(self):
        a = VariationProfile.sampled(seed=3)
        b = VariationProfile.sampled(seed=3)
        assert all(
            a.wer_factor(r) == pytest.approx(b.wer_factor(r)) for r in a.geometry.iter_ranks()
        )

    def test_unknown_rank_rejected(self):
        with pytest.raises(ConfigurationError):
            VariationProfile.default().wer_factor(RankLocation(7, 1))


class TestWorkloadBehavior:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            behavior(reuse_time_s=0.0)
        with pytest.raises(ConfigurationError):
            behavior(entropy=40.0)
        with pytest.raises(ConfigurationError):
            behavior(footprint_words=0)


class TestStatisticalErrorModel:
    @pytest.fixture(scope="class")
    def model(self):
        return StatisticalErrorModel()

    def test_wer_grows_with_trefp(self, model):
        wers = [
            model.expected_wer(OperatingPoint.relaxed(t, 50.0), behavior())
            for t in units.TREFP_SWEEP_S
        ]
        assert all(b > a for a, b in zip(wers, wers[1:]))

    def test_wer_growth_is_exponential_like(self, model):
        # Log-WER should grow roughly linearly with TREFP (Fig. 7f).
        wers = [
            model.expected_wer(OperatingPoint.relaxed(t, 50.0), behavior())
            for t in units.TREFP_SWEEP_S
        ]
        ratios = [b / a for a, b in zip(wers, wers[1:])]
        assert all(r > 2.0 for r in ratios)

    def test_wer_grows_with_temperature(self, model):
        op50 = OperatingPoint.relaxed(2.283, 50.0)
        op60 = OperatingPoint.relaxed(2.283, 60.0)
        assert model.expected_wer(op60, behavior()) > 5 * model.expected_wer(op50, behavior())

    def test_short_reuse_time_suppresses_errors(self, model):
        op = OperatingPoint.relaxed(2.283, 50.0)
        frequent = model.expected_wer(op, behavior(reuse_time_s=0.05))
        rare = model.expected_wer(op, behavior(reuse_time_s=50.0))
        assert frequent < rare

    def test_access_rate_increases_interference_errors(self, model):
        op = OperatingPoint.relaxed(2.283, 50.0)
        idle = model.expected_wer(op, behavior(accesses_per_cycle=0.0005))
        busy = model.expected_wer(op, behavior(accesses_per_cycle=0.05))
        assert busy > idle

    def test_entropy_increases_errors(self, model):
        op = OperatingPoint.relaxed(2.283, 50.0)
        solid = model.expected_wer(op, behavior(entropy=0.0))
        random_pattern = model.expected_wer(op, behavior(entropy=32.0))
        assert random_pattern > solid

    def test_rank_variation_follows_profile(self, model):
        op = OperatingPoint.relaxed(2.283, 50.0)
        strongest = RankLocation(3, 1)
        weakest = RankLocation(2, 0)
        ratio = expected_rank_wer(model, op, behavior(), weakest) / \
            expected_rank_wer(model, op, behavior(), strongest)
        assert ratio > 100

    def test_pue_zero_at_low_temperature(self, model):
        op = OperatingPoint.relaxed(2.283, 50.0)
        assert probability_of_ue(model, op, behavior()) < 0.01

    def test_pue_saturates_at_max_trefp_and_70c(self, model):
        op = OperatingPoint.relaxed(2.283, 70.0)
        assert probability_of_ue(model, op, behavior()) > 0.95

    def test_pue_monotone_in_trefp_at_70c(self, model):
        values = [
            probability_of_ue(model, OperatingPoint.relaxed(t, 70.0), behavior())
            for t in units.TREFP_UE_SWEEP_S
        ]
        assert values[0] < values[1] < values[2]

    def test_sampled_wer_close_to_expectation(self, model):
        op = OperatingPoint.relaxed(2.283, 50.0)
        rank = RankLocation(0, 0)
        rng = np.random.default_rng(0)
        samples = [
            sample_rank_wer(model, op, behavior(), rank, rng=rng) for _ in range(200)
        ]
        expected = expected_rank_wer(model, op, behavior(), rank)
        assert np.mean(samples) == pytest.approx(expected, rel=0.05)

    def test_idiosyncratic_factor_is_deterministic(self, model):
        op = OperatingPoint.relaxed(2.283, 50.0)
        rank = RankLocation(1, 0)
        a = expected_rank_wer(model, op, behavior(), rank, workload="backprop")
        b = expected_rank_wer(model, op, behavior(), rank, workload="backprop")
        c = expected_rank_wer(model, op, behavior(), rank, workload="memcached")
        assert a == pytest.approx(b)
        assert a != pytest.approx(c)

    def test_ue_event_sampling_respects_rank_weights(self, model):
        op = OperatingPoint.relaxed(2.283, 70.0)
        rng = np.random.default_rng(42)
        ranks = [
            sample_ue_event(model, op, behavior(), rng=rng) for _ in range(300)
        ]
        observed = [r for r in ranks if r is not None]
        assert observed, "expected UEs at the most aggressive operating point"
        # DIMM3/rank1 has zero UE weight and must never be blamed.
        assert RankLocation(3, 1) not in observed

    def test_time_series_saturates_within_two_hours(self, model):
        op = OperatingPoint.relaxed(2.283, 50.0)
        series = model.wer_time_series(op, behavior())
        times = sorted(series)
        final = series[times[-1]]
        ten_minutes_earlier = series[times[-2]]
        assert abs(final - ten_minutes_earlier) / final < 0.03

    def test_time_series_grid_keeps_final_sample(self, model):
        # Regression: accumulating `t += step_s` drifts for non-dyadic steps;
        # a 7200 s run sampled every 0.3 s used to lose its final sample
        # (23999 points instead of 24000).
        op = OperatingPoint.relaxed(2.283, 50.0)
        series = model.wer_time_series(op, behavior(), duration_s=7200.0, step_s=0.3)
        assert len(series) == 24000
        assert max(series) == pytest.approx(7200.0)

    def test_time_series_grid_is_exact_multiples_of_step(self, model):
        op = OperatingPoint.relaxed(2.283, 50.0)
        series = model.wer_time_series(op, behavior(), duration_s=2.1, step_s=0.7)
        assert sorted(series) == [1 * 0.7, 2 * 0.7, 3 * 0.7]
        values = [series[t] for t in sorted(series)]
        assert values == sorted(values)   # cumulative WER is monotone
