"""Tests for SLIMpro, the server model, experiments and campaigns."""

import pytest

from repro import units
from repro.characterization.campaign import (
    CampaignConfig,
    CampaignResult,
    CharacterizationCampaign,
)
from repro.characterization.experiment import CharacterizationExperiment
from repro.characterization.metrics import (
    PueSummary,
    UeObservation,
    WerMeasurement,
    probability_of_uncorrectable,
    rank_ue_distribution,
    word_error_rate,
)
from repro.characterization.server import XGene2Server
from repro.characterization.slimpro import Slimpro
from repro.dram.ecc import ErrorClass
from repro.dram.geometry import CellLocation, RankLocation
from repro.dram.operating import OperatingPoint
from repro.errors import CharacterizationError, ConfigurationError, DataError


class TestMetrics:
    def test_word_error_rate(self):
        assert word_error_rate(5, 1000) == pytest.approx(0.005)

    def test_word_error_rate_validation(self):
        with pytest.raises(DataError):
            word_error_rate(10, 0)
        with pytest.raises(DataError):
            word_error_rate(11, 10)

    def test_probability_of_uncorrectable(self):
        assert probability_of_uncorrectable(3, 10) == pytest.approx(0.3)
        with pytest.raises(DataError):
            probability_of_uncorrectable(5, 4)

    def test_ue_observation_consistency(self):
        with pytest.raises(DataError):
            UeObservation("w", 1.45, 70.0, crashed=True, rank=None)
        with pytest.raises(DataError):
            UeObservation("w", 1.45, 70.0, crashed=False, rank=RankLocation(0, 0))

    def test_pue_summary_accumulates(self):
        summary = PueSummary("w", 1.45, 70.0)
        summary.add(UeObservation("w", 1.45, 70.0, True, RankLocation(2, 0)))
        summary.add(UeObservation("w", 1.45, 70.0, False))
        assert summary.pue == pytest.approx(0.5)
        assert summary.crashes_by_rank[RankLocation(2, 0)] == 1

    def test_pue_summary_rejects_foreign_observation(self):
        summary = PueSummary("w", 1.45, 70.0)
        with pytest.raises(DataError):
            summary.add(UeObservation("other", 1.45, 70.0, False))

    def test_rank_ue_distribution_normalises(self):
        s1 = PueSummary("a", 1.45, 70.0)
        s1.add(UeObservation("a", 1.45, 70.0, True, RankLocation(2, 0)))
        s2 = PueSummary("b", 1.45, 70.0)
        s2.add(UeObservation("b", 1.45, 70.0, True, RankLocation(0, 1)))
        dist = rank_ue_distribution([s1, s2])
        assert sum(dist.values()) == pytest.approx(1.0)


class TestSlimpro:
    def test_parameter_limits_enforced(self):
        slimpro = Slimpro()
        with pytest.raises(ConfigurationError):
            slimpro.set_refresh_period(3.0)
        with pytest.raises(ConfigurationError):
            slimpro.set_supply_voltage(1.3)

    def test_operating_point_reflects_configuration(self):
        slimpro = Slimpro()
        slimpro.set_refresh_period(2.283)
        slimpro.set_supply_voltage(1.428)
        for dimm in range(4):
            slimpro.record_dimm_temperature(dimm, 60.0)
        op = slimpro.operating_point
        assert op.trefp_s == pytest.approx(2.283)
        assert op.temperature_c == pytest.approx(60.0)

    def test_error_reporting_with_location(self):
        slimpro = Slimpro()
        record = slimpro.report_error(
            ErrorClass.CORRECTED, CellLocation(1, 0, 2, 100, 5), timestamp_s=12.0,
            workload="backprop",
        )
        assert record.rank_location == RankLocation(1, 0)
        assert slimpro.errors_for_rank(RankLocation(1, 0)) == 1
        assert slimpro.errors_for_rank(RankLocation(0, 0)) == 0

    def test_invalid_error_location_rejected(self):
        with pytest.raises(ConfigurationError):
            Slimpro().report_error(ErrorClass.CORRECTED,
                                   CellLocation(9, 0, 0, 0, 0), 0.0)


class TestServer:
    def test_describe_matches_platform(self):
        info = XGene2Server().describe()
        assert info["dram_chips"] == 72
        assert info["dimms"] == 4
        assert info["total_memory_gib"] == pytest.approx(32.0)

    def test_configure_applies_operating_point(self):
        server = XGene2Server()
        op = OperatingPoint.relaxed(1.727, 60.0)
        configured = server.configure(op)
        assert configured.trefp_s == pytest.approx(1.727)
        assert configured.temperature_c == pytest.approx(60.0)

    def test_configure_with_thermal_settling(self):
        server = XGene2Server()
        configured = server.configure(OperatingPoint.relaxed(1.173, 50.0),
                                      settle_thermals=True)
        assert configured.temperature_c == pytest.approx(50.0, abs=1.5)


class TestExperiment:
    def test_run_produces_per_rank_wer(self):
        experiment = CharacterizationExperiment(seed=1)
        result = experiment.run("backprop", OperatingPoint.relaxed(2.283, 50.0))
        assert len(result.rank_wer) == 8
        assert result.memory_wer > 0
        assert not result.crashed   # UEs do not occur at 50 C

    def test_runs_are_reproducible(self):
        a = CharacterizationExperiment(seed=3).run("kmeans", OperatingPoint.relaxed(2.283, 50.0))
        b = CharacterizationExperiment(seed=3).run("kmeans", OperatingPoint.relaxed(2.283, 50.0))
        assert a.memory_wer == pytest.approx(b.memory_wer)

    def test_repetitions_differ(self):
        experiment = CharacterizationExperiment(seed=3)
        op = OperatingPoint.relaxed(2.283, 50.0)
        a = experiment.run("kmeans", op, repetition=0)
        b = experiment.run("kmeans", op, repetition=1)
        assert a.memory_wer != pytest.approx(b.memory_wer)

    def test_shorter_run_sees_fewer_errors(self):
        experiment = CharacterizationExperiment(seed=5)
        op = OperatingPoint.relaxed(2.283, 50.0)
        short = experiment.run("srad(par)", op, duration_s=20 * units.MINUTE)
        full = experiment.run("srad(par)", op, duration_s=2 * units.HOUR)
        assert short.memory_wer < full.memory_wer

    def test_time_series_collection(self):
        experiment = CharacterizationExperiment(seed=5)
        result = experiment.run("memcached", OperatingPoint.relaxed(2.283, 50.0),
                                collect_time_series=True)
        assert len(result.wer_time_series) == 12
        values = [v for _t, v in sorted(result.wer_time_series.items())]
        assert values == sorted(values)

    def test_crash_at_extreme_operating_point(self):
        experiment = CharacterizationExperiment(seed=5)
        result = experiment.run("srad(par)", OperatingPoint.relaxed(2.283, 70.0))
        assert result.crashed
        assert result.ue_observation().rank is not None

    def test_invalid_duration_rejected(self):
        with pytest.raises(CharacterizationError):
            CharacterizationExperiment().run("backprop", OperatingPoint.nominal(),
                                             duration_s=0.0)


class TestCampaign:
    def test_small_campaign_covers_grid(self, small_campaign):
        config = small_campaign.config
        expected_rows = (
            len(config.resolved_workloads())
            * len(config.trefp_values_s) * len(config.temperatures_c) * 8
            + len(config.resolved_workloads()) * len(config.ue_trefp_values_s) * 8
        )
        assert len(small_campaign.wer_measurements) == expected_rows

    def test_wer_by_workload_has_every_benchmark(self, small_campaign):
        per_workload = small_campaign.wer_by_workload(2.283, 50.0)
        assert set(per_workload) == set(small_campaign.config.resolved_workloads())
        assert all(v > 0 for v in per_workload.values())

    def test_memcached_is_least_error_prone(self, small_campaign):
        per_workload = small_campaign.wer_by_workload(2.283, 50.0)
        assert min(per_workload, key=per_workload.get) == "memcached"

    def test_mean_wer_grows_with_trefp(self, small_campaign):
        assert small_campaign.mean_wer(2.283, 50.0) > small_campaign.mean_wer(1.173, 50.0)

    def test_mean_wer_grows_with_temperature(self, small_campaign):
        assert small_campaign.mean_wer(2.283, 60.0) > small_campaign.mean_wer(2.283, 50.0)

    def test_pue_by_workload(self, small_campaign):
        pue = small_campaign.pue_by_workload(2.283)
        assert all(0.0 <= v <= 1.0 for v in pue.values())
        assert small_campaign.mean_pue(2.283) > small_campaign.mean_pue(1.450)

    def test_ue_rank_distribution_skips_immune_rank(self, small_campaign):
        distribution = small_campaign.ue_rank_distribution()
        assert distribution, "expected at least one UE in the small campaign"
        assert RankLocation(3, 1) not in distribution

    def test_unknown_operating_point_rejected(self, small_campaign):
        with pytest.raises(CharacterizationError):
            small_campaign.wer_by_workload(0.1, 50.0)

    def test_campaign_without_ue_study(self):
        config = CampaignConfig(workloads=("memcached",), trefp_values_s=(2.283,),
                                temperatures_c=(50.0,))
        result = CharacterizationCampaign(config=config).run(include_ue_study=False)
        assert result.pue_summaries == []
        assert len(result.wer_measurements) == 8
        # The record is a read-only view of the columnar store: an append
        # raises instead of being silently lost.
        with pytest.raises(AttributeError):
            result.wer_measurements.append(result.wer_measurements[0])
        assert result.num_wer_measurements == 8


class TestSpreadAggregations:
    @staticmethod
    def _result(workload_wers):
        return CampaignResult(config=CampaignConfig(), wer_measurements=[
            WerMeasurement(
                workload=workload, trefp_s=0.618, vdd_v=units.MIN_VDD_V,
                temperature_c=50.0, rank=RankLocation(0, 0), wer=wer,
            )
            for workload, wer in workload_wers
        ])

    def test_workload_spread_ratio(self):
        result = self._result([("a", 1e-6), ("b", 8e-6), ("c", 2e-6)])
        assert result.workload_spread(0.618, 50.0) == pytest.approx(8.0)

    def test_workload_spread_ignores_zero_wer_workloads(self):
        # Regression: a workload measuring WER = 0 at a mild operating point
        # used to raise ZeroDivisionError; the ratio is taken over the
        # measurable workloads instead.
        result = self._result([("a", 0.0), ("b", 2e-6), ("c", 6e-6)])
        assert result.workload_spread(0.618, 50.0) == pytest.approx(3.0)

    def test_workload_spread_undefined_without_two_positive(self):
        result = self._result([("a", 0.0), ("b", 2e-6)])
        with pytest.raises(CharacterizationError):
            result.workload_spread(0.618, 50.0)
        all_zero = self._result([("a", 0.0), ("b", 0.0)])
        with pytest.raises(CharacterizationError):
            all_zero.workload_spread(0.618, 50.0)


class TestMechanismCheck:
    def test_mechanism_check_observes_real_ecc_events(self):
        experiment = CharacterizationExperiment(seed=5)
        op = OperatingPoint.relaxed(2.283, 70.0)
        check = experiment.mechanism_check(op, num_words=2048)
        assert check.words == 2048
        assert sum(check.counts.values()) == 2048
        assert check.counts[ErrorClass.CORRECTED] > 0
        assert 0.0 < check.measured_wer <= 1.0

    def test_mechanism_check_entropy_sensitivity(self):
        # A zero-entropy pattern stores mostly discharge-polarity bits, so
        # fewer decays are visible than for a dense pattern (Fig. 5 trend).
        # A stronger-than-default cell population keeps the tiny array away
        # from saturation, where every word errors regardless of pattern.
        from repro.dram.calibration import DramCalibration, RetentionCalibration
        from repro.dram.statistical import WorkloadBehavior
        experiment = CharacterizationExperiment(seed=5)
        op = OperatingPoint.relaxed(2.283, 70.0)
        calibration = DramCalibration(
            retention=RetentionCalibration(log_median_retention_50c=5.0, log_sigma=1.3)
        )
        low = WorkloadBehavior(accesses_per_cycle=0.01, reuse_time_s=1.0,
                               data_entropy_bits=0.0, footprint_words=10 ** 6)
        sparse = experiment.mechanism_check(op, behavior=low, num_words=2048,
                                            calibration=calibration)
        dense = experiment.mechanism_check(op, num_words=2048,
                                           calibration=calibration)
        def total(check):
            return sum(
                count for cls, count in check.counts.items()
                if cls is not ErrorClass.NO_ERROR
            )
        assert total(sparse) < 0.6 * total(dense)

    def test_mechanism_check_validates_arguments(self):
        experiment = CharacterizationExperiment()
        op = OperatingPoint.relaxed(2.283, 70.0)
        with pytest.raises(CharacterizationError):
            experiment.mechanism_check(op, num_words=0)
        with pytest.raises(CharacterizationError):
            experiment.mechanism_check(op, idle_s=0.0)
