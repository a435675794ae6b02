"""Tests for SLIMpro, the server model, experiments and campaigns."""

import numpy as np
import pytest

from repro import units
from repro.characterization.campaign import (
    CampaignConfig,
    CampaignResult,
    CharacterizationCampaign,
)
from repro.characterization.experiment import (
    CharacterizationExperiment,
    ExperimentResult,
)
from repro.characterization.metrics import (
    PueSummary,
    UeObservation,
    WerColumnStore,
    probability_of_uncorrectable,
    rank_ue_distribution,
)
from repro.characterization.server import XGene2Server
from repro.characterization.slimpro import Slimpro
from repro.dram.calibration import DramCalibration, RetentionCalibration
from repro.dram.ecc import ErrorClass
from repro.dram.geometry import DramGeometry, RankLocation
from repro.dram.operating import OperatingPoint
from repro.errors import (
    CharacterizationError,
    ConfigurationError,
    DataError,
    SimulationError,
)

from tests.oracles.cells import (
    CellArrayConfig,
    CellArraySimulator,
    CellLocation,
    ErrorLog,
    small_geometry,
    validate_cell,
)
from tests.oracles.ecc import bits_to_words


class TestMetrics:
    def test_probability_of_uncorrectable(self):
        assert probability_of_uncorrectable(3, 10) == pytest.approx(0.3)
        with pytest.raises(DataError):
            probability_of_uncorrectable(5, 4)

    def test_memory_wer_is_the_mean_over_ranks(self):
        result = ExperimentResult(
            workload="w", operating_point=OperatingPoint.relaxed(2.283, 50.0),
            duration_s=units.CHARACTERIZATION_DURATION_S,
            rank_wer={RankLocation(0, 1): 3e-6, RankLocation(0, 0): 1e-6},
        )
        assert result.memory_wer == pytest.approx(2e-6)

    def test_wer_validation(self):
        empty = ExperimentResult(workload="w", operating_point=OperatingPoint(),
                                 duration_s=1.0)
        with pytest.raises(CharacterizationError):
            assert empty.memory_wer
        with pytest.raises(DataError):
            WerColumnStore.from_grid("w", [OperatingPoint.relaxed(0.618, 50.0)],
                                     np.full((1, 1, 1), -1e-9), [RankLocation(0, 0)])

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


    def test_error_record_carries_its_rank(self):
        # SLIMpro reports each ECC event with its full coordinates; the
        # error log keeps them and derives the DIMM/rank from them.
        log = ErrorLog()
        log.append_batch([ErrorClass.CORRECTED], [CellLocation(1, 0, 2, 100, 5)],
                         timestamp_s=12.0, workload="backprop")
        (record,) = list(log)
        assert record.rank_location == RankLocation(1, 0)
        assert (record.timestamp_s, record.workload) == (12.0, "backprop")

    def test_unknown_dimm_rejected(self):
        with pytest.raises(ConfigurationError):
            Slimpro().record_dimm_temperature(9, 50.0)
        with pytest.raises(ConfigurationError):
            validate_cell(DramGeometry(), CellLocation(9, 0, 0, 0, 0))

class TestServer:
    def test_platform_matches_paper(self):
        server = XGene2Server()
        assert server.geometry.num_dimms == 4
        assert server.geometry.num_ranks == 8
        assert server.geometry.num_ranks * units.CHIPS_PER_RANK == 72
        total_bytes = server.geometry.total_words * server.geometry.word_bytes
        assert total_bytes == 32 * units.GIB
        assert server.error_model.geometry is server.geometry

    def test_configure_applies_operating_point(self):
        server = XGene2Server()
        op = OperatingPoint.relaxed(1.727, 60.0)
        configured = server.configure(op)
        assert configured.trefp_s == pytest.approx(1.727)
        assert configured.temperature_c == pytest.approx(60.0)


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
        assert result.ue_rank is not None

    def test_invalid_duration_rejected(self):
        with pytest.raises(CharacterizationError):
            CharacterizationExperiment().run("backprop", OperatingPoint(),
                                             duration_s=0.0)


class TestCampaign:
    def test_small_campaign_covers_grid(self, small_campaign):
        config = small_campaign.config
        expected_rows = (
            len(config.resolved_workloads())
            * len(config.trefp_values_s) * len(config.temperatures_c) * 8
            + len(config.resolved_workloads()) * len(config.ue_trefp_values_s) * 8
        )
        assert small_campaign.num_wer_measurements == expected_rows

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
        assert result.num_wer_measurements == 8


class TestWerAggregations:
    @staticmethod
    def _result(workload_wers):
        result = CampaignResult(config=CampaignConfig())
        result.extend_wer_columns([
            WerColumnStore.from_grid(
                workload, [OperatingPoint.relaxed(0.618, 50.0)],
                np.full((1, 1, 1), wer), [RankLocation(0, 0)],
            )
            for workload, wer in workload_wers
        ])
        return result

    def test_wer_by_workload_keeps_each_workload(self):
        result = self._result([("a", 1e-6), ("b", 8e-6), ("c", 2e-6)])
        per_workload = result.wer_by_workload(0.618, 50.0)
        assert list(per_workload) == ["a", "b", "c"]
        assert per_workload["b"] / per_workload["a"] == pytest.approx(8.0)

    def test_zero_wer_workload_counts_in_the_mean(self):
        # A workload measuring WER = 0 at a mild operating point is a
        # measurement like any other, not a division hazard.
        result = self._result([("a", 0.0), ("b", 2e-6), ("c", 6e-6)])
        assert result.wer_by_workload(0.618, 50.0)["a"] == 0.0
        assert result.mean_wer(0.618, 50.0) == pytest.approx(8e-6 / 3)

    def test_unmeasured_point_raises_for_every_aggregation(self):
        result = self._result([("a", 0.0), ("b", 2e-6)])
        with pytest.raises(CharacterizationError):
            result.wer_by_rank(1.173, 50.0)
        with pytest.raises(CharacterizationError):
            result.mean_wer(0.618, 60.0)


def _leak_and_read(op, charged_fraction=1.0, num_words=2048, calibration=None):
    """Write a pattern at ``op`` on a tiny cell array, let it leak, read it back.

    ``charged_fraction`` sets the share of 1 bits, which is how a
    workload's data entropy reaches the cells.  The default cell
    population is deliberately weak so a small array shows failures.
    """
    sim = CellArraySimulator(CellArrayConfig(
        geometry=small_geometry(), trefp_s=op.trefp_s, vdd_v=op.vdd_v,
        temperature_c=op.temperature_c,
        calibration=calibration or DramCalibration(
            retention=RetentionCalibration(log_median_retention_50c=3.0, log_sigma=1.3)
        ),
        seed=5,
    ))
    rng = np.random.default_rng(5)
    bits = (rng.random((num_words, units.WORD_BITS)) < charged_fraction).astype(np.uint8)
    words = np.arange(num_words, dtype=np.int64)
    sim.write_batch(words, bits_to_words(bits))
    sim.idle(600.0)
    return sim, sim.read_batch(words, workload="cross-check").counts()


class TestCellArrayCrossCheck:
    """An operating point run through the cell array and real SECDED decoding."""

    def test_relaxed_point_shows_real_ecc_events(self):
        sim, counts = _leak_and_read(OperatingPoint.relaxed(2.283, 70.0))
        assert sum(counts.values()) == 2048
        assert counts[ErrorClass.CORRECTED] > 0
        assert 0.0 < sim.measured_wer(2048) <= 1.0

    def test_low_entropy_pattern_shows_fewer_errors(self):
        # A zero-entropy pattern stores mostly discharge-polarity bits, so
        # fewer decays are visible than for a dense pattern (Fig. 5 trend).
        # A stronger-than-default cell population keeps the tiny array away
        # from saturation, where every word errors regardless of pattern.
        op = OperatingPoint.relaxed(2.283, 70.0)
        calibration = DramCalibration(
            retention=RetentionCalibration(log_median_retention_50c=5.0, log_sigma=1.3)
        )
        _sim, sparse = _leak_and_read(op, 0.0, calibration=calibration)
        _sim, dense = _leak_and_read(op, 1.0, calibration=calibration)

        def errors(counts):
            return sum(n for cls, n in counts.items() if cls is not ErrorClass.NO_ERROR)

        assert errors(sparse) < 0.6 * errors(dense)

    def test_invalid_sweeps_rejected(self):
        with pytest.raises(ConfigurationError):
            CellArrayConfig(geometry=small_geometry(), trefp_s=0.0)
        sim = CellArraySimulator(CellArrayConfig(geometry=small_geometry()))
        with pytest.raises(SimulationError):
            sim.idle(-1.0)
        with pytest.raises(SimulationError):
            sim.measured_wer()
        with pytest.raises(ConfigurationError):
            sim.read_batch(np.array([sim.geometry.total_words]))
