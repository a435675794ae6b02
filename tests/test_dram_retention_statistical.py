"""Tests for the retention physics, variation profile and statistical model."""

import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

import repro
from repro import units
from repro.dram.geometry import DramGeometry, RankLocation
from repro.dram.operating import OperatingPoint
from repro.dram.calibration import DEFAULT_CALIBRATION
from repro.dram.retention import (
    _MAXLOG,
    _SQRT1_2,
    _erf,
    _erfc,
    _failure_z_score,
    _ndtr,
    bit_failure_probability_grid,
    log_median_retention,
)
from repro.dram.statistical import StatisticalErrorModel, WorkloadBehavior
from repro.dram.variation import RankProfile, VariationProfile
from repro.errors import ConfigurationError

from tests.oracles.cells import sample_retention_times
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

    def test_import_and_cold_fit_load_no_scipy(self):
        code = textwrap.dedent("""
            import json, sys

            def scipy_modules():
                return sorted(m for m in sys.modules
                              if m == "scipy" or m.startswith("scipy."))

            import repro
            print(json.dumps(scipy_modules()))
            campaign = repro.run_default_campaign(["memcached"])
            repro.WorkloadAwarePredictor().fit(campaign)
            print(json.dumps(scipy_modules()))
        """)
        source_root = str(Path(repro.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": source_root},
        )
        after_import, after_fit = (json.loads(line) for line in result.stdout.splitlines())
        assert after_import == []
        # A cold campaign plus the default (KNN) fit never needs the
        # optimiser or the distance module either.
        assert after_fit == []


def _bits(values: np.ndarray) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


def _ulp_neighbourhood(centre: float, steps: int = 40) -> np.ndarray:
    """``centre`` and the ``steps`` floats on either side of it."""
    points = [centre]
    below = above = centre
    for _ in range(steps):
        below = math.nextafter(below, -math.inf)
        above = math.nextafter(above, math.inf)
        points += [below, above]
    return np.array(points)


def _branch_edges(edges: Sequence[float]) -> np.ndarray:
    """Every edge and its negation, each with its ulp neighbourhood."""
    return np.concatenate([_ulp_neighbourhood(sign * edge)
                           for edge in edges for sign in (1.0, -1.0)])


_SPECIAL_VALUES = np.array([0.0, -0.0, math.inf, -math.inf, math.nan])
# Where erf/erfc switch branch: erf's polynomial ends at |x| = 1, erfc's
# P/Q pair hands over to R/S at 8 and underflows past sqrt(MAXLOG).
_ERF_EDGES = [_SQRT1_2, 1.0, 8.0, math.sqrt(_MAXLOG)]


class TestNormalCdf:
    """The in-repo Cephes port returns scipy's bits, NaN included."""

    @staticmethod
    def ndtr(values: np.ndarray) -> np.ndarray:
        return np.array([_ndtr(float(v)) for v in values])

    def test_dense_sweep_is_bit_identical(self):
        x = np.linspace(-40.0, 40.0, 1_000_001)
        assert np.array_equal(_bits(self.ndtr(x)), _bits(special.ndtr(x)))

    def test_branch_edges_are_bit_identical(self):
        # ndtr's argument is sqrt(2) times its erf/erfc argument.
        x = _branch_edges([math.sqrt(2.0) * e for e in _ERF_EDGES])
        assert np.array_equal(_bits(self.ndtr(x)), _bits(special.ndtr(x)))

    def test_signed_zeros_infinities_and_nan(self):
        got = self.ndtr(_SPECIAL_VALUES)
        assert np.array_equal(_bits(got), _bits(special.ndtr(_SPECIAL_VALUES)))

    @pytest.mark.parametrize("ours, scipys", [(_erf, special.erf), (_erfc, special.erfc)])
    def test_erf_and_erfc_match_scipy_on_every_branch(self, ours, scipys):
        x = np.concatenate([np.linspace(-30.0, 30.0, 60_001),
                            _branch_edges(_ERF_EDGES), _SPECIAL_VALUES[:4]])
        got = np.array([ours(float(v)) for v in x])
        assert np.array_equal(_bits(got), _bits(scipys(x)))

    @settings(max_examples=300, deadline=None)
    @given(st.floats())
    def test_any_float_is_bit_identical(self, a):
        assert np.array_equal(_bits(np.array([_ndtr(a)])), _bits(special.ndtr(np.array([a]))))


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


    def test_rank_profile_validation(self):
        with pytest.raises(ConfigurationError, match="wer_factor"):
            RankProfile(RankLocation(0, 0), wer_factor=0.0, ue_weight=0.1)
        with pytest.raises(ConfigurationError, match="ue_weight"):
            RankProfile(RankLocation(0, 0), wer_factor=1.0, ue_weight=-0.1)

    def test_non_default_geometry_uses_a_sampled_profile(self):
        geometry = DramGeometry(num_dimms=2)
        profile = VariationProfile.default(geometry)
        assert set(profile.ranks) == set(geometry.iter_ranks())
        sampled = VariationProfile.sampled(geometry, seed=2019)
        for rank in geometry.iter_ranks():
            assert profile.wer_factor(rank) == sampled.wer_factor(rank)
            assert profile.ue_weight(rank) == sampled.ue_weight(rank)

    def test_all_zero_ue_weights_rejected(self):
        geometry = DramGeometry()
        profile = VariationProfile(geometry=geometry, ranks={
            rank: RankProfile(rank, wer_factor=1.0, ue_weight=0.0)
            for rank in geometry.iter_ranks()
        })
        with pytest.raises(ConfigurationError, match="positive ue_weight"):
            profile.normalized_ue_weights()

class TestWorkloadBehavior:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            behavior(reuse_time_s=0.0)
        with pytest.raises(ConfigurationError):
            behavior(entropy=40.0)
        with pytest.raises(ConfigurationError):
            behavior(footprint_words=0)


    def test_rate_and_stall_fraction_validation(self):
        with pytest.raises(ConfigurationError, match="accesses_per_cycle"):
            behavior(accesses_per_cycle=-0.1)
        with pytest.raises(ConfigurationError, match="wait_cycle_fraction"):
            behavior(wait=1.5)

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

    def test_grid_engine_rejects_invalid_arguments(self, model):
        ops = [OperatingPoint.relaxed(1.173, 50.0), OperatingPoint.relaxed(2.283, 50.0)]
        with pytest.raises(ConfigurationError, match="at least one operating point"):
            model.expected_rank_wer_grid([], behavior())
        with pytest.raises(ConfigurationError, match="at least one operating point"):
            model.probability_of_ue_grid([], behavior())
        for sample in (model.sample_rank_wer_grid, model.sample_ue_events_grid):
            # Seeded streams are required: there is no unseeded fallback.
            with pytest.raises(TypeError, match="rngs"):
                sample(ops, behavior())
        rngs = [[np.random.default_rng(1), np.random.default_rng(2)],
                [np.random.default_rng(3)]]
        with pytest.raises(ConfigurationError, match="same length"):
            model.sample_rank_wer_grid(ops, behavior(), rngs=rngs)
        for duration_s, step_s in ((0.0, 60.0), (3600.0, 0.0)):
            with pytest.raises(ConfigurationError, match="must be positive"):
                model.wer_time_series(ops[0], behavior(), duration_s=duration_s,
                                      step_s=step_s)

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
