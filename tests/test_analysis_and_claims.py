"""Tests for the analysis helpers and the paper's headline claims.

These integration tests run on the reduced session campaign (6 workloads)
and check the qualitative shape of every major claim; the benchmark
harness repeats them at full scale.
"""

import pytest

from repro.errors import DataError

from repro.analysis.figures import (
    convergence_check,
    exponential_growth_factor,
    fig2_wer_over_time,
    fig7_wer_bars,
    fig7f_mean_wer_curve,
    fig8_wer_per_rank,
    fig9a_pue_bars,
    fig9b_ue_rank_distribution,
)
from repro.analysis.tables import table1_error_classes, table2_reuse_times, table3_input_sets
from repro.characterization.experiment import CharacterizationExperiment


class TestTables:
    def test_table1_rows(self):
        rows = table1_error_classes()
        assert [row["abbreviation"] for row in rows] == ["CE", "UE", "SDC"]

    def test_table2_reuse_times_subset(self):
        table = table2_reuse_times(["backprop", "backprop(par)", "memcached"])
        assert table["backprop"] > table["backprop(par)"]
        assert table["memcached"] < table["backprop"]

    def test_table3_lists_three_sets(self):
        rows = table3_input_sets()
        assert [row["input_set"] for row in rows] == ["set1", "set2", "set3"]
        assert int(rows[2]["num_inputs"]) == 252


class TestFigureHelpers:
    def test_fig2_time_series_converges(self):
        series = fig2_wer_over_time(
            workloads=("memcached", "backprop(par)"), trefp_s=2.283, temperature_c=50.0,
        )
        for workload, points in series.items():
            assert len(points) == 12
            assert convergence_check(points) < 0.03, workload

    def test_fig7f_growth_is_exponential(self, small_campaign):
        curves = fig7f_mean_wer_curve(small_campaign, temperatures_c=(50.0,),
                                      trefp_values_s=(1.173, 2.283))
        growth = exponential_growth_factor(curves[50.0])
        assert growth > 1.0   # WER grows by more than e per extra second of TREFP

    def test_fig7_bars_are_the_campaign_aggregation(self, small_campaign):
        bars = fig7_wer_bars(small_campaign, trefp_values_s=(1.173, 2.283),
                             temperature_c=60.0)
        assert list(bars) == [1.173, 2.283]
        for trefp, per_workload in bars.items():
            assert per_workload == small_campaign.wer_by_workload(trefp, 60.0)

    def test_convergence_check_rejects_short_series(self):
        with pytest.raises(DataError, match="at least two points"):
            convergence_check([(600.0, 1e-6)])
        # Both points fall inside the last 10-minute window.
        with pytest.raises(DataError, match="too short"):
            convergence_check([(60.0, 1e-6), (120.0, 2e-6)])
        with pytest.raises(DataError, match="too short"):
            convergence_check([(600.0, 0.0), (1200.0, 0.0)])
        assert convergence_check([(600.0, 1.0), (1200.0, 1.0)]) == 0.0

    def test_growth_factor_rejects_unfittable_curves(self):
        with pytest.raises(DataError, match="at least two points"):
            exponential_growth_factor([(1.173, 1e-6)])
        with pytest.raises(DataError, match="positive"):
            exponential_growth_factor([(1.173, 0.0), (2.283, 1e-6)])

    def test_fig8_rank_table_shape(self, small_campaign):
        table = fig8_wer_per_rank(small_campaign, trefp_s=2.283, temperature_c=50.0)
        assert set(table) == set(small_campaign.config.resolved_workloads())
        assert all(len(ranks) == 8 for ranks in table.values())

    def test_fig9_helpers(self, small_campaign):
        bars = fig9a_pue_bars(small_campaign, trefp_values_s=(1.450, 2.283))
        assert set(bars) == {1.450, 2.283}
        distribution = fig9b_ue_rank_distribution(small_campaign)
        assert sum(distribution.values()) == pytest.approx(1.0)


class TestPaperClaims:
    def test_wer_varies_across_workloads(self, small_campaign):
        """Section V.A: WER varies severalfold across workloads (8x in the paper)."""
        per_workload = small_campaign.wer_by_workload(2.283, 50.0)
        positive = [wer for wer in per_workload.values() if wer > 0]
        assert max(positive) / min(positive) > 3.0

    def test_wer_varies_strongly_across_ranks(self, small_campaign):
        """Section V.A / Fig. 8: up to ~188x variation across DIMM/ranks."""
        spreads = []
        for per_rank in small_campaign.wer_by_rank(2.283, 50.0).values():
            positive = [wer for wer in per_rank.values() if wer > 0]
            if len(positive) >= 2:
                spreads.append(max(positive) / min(positive))
        assert max(spreads) > 50.0

    def test_no_ue_at_50c(self):
        """Section V.B: no uncorrectable errors at 50 C."""
        from repro.dram.operating import OperatingPoint

        experiment = CharacterizationExperiment(seed=2)
        for repetition in range(3):
            result = experiment.run("srad(par)", OperatingPoint.relaxed(2.283, 50.0),
                                    repetition=repetition)
            assert not result.crashed

    def test_pue_grows_with_trefp_and_saturates(self, small_campaign):
        """Fig. 9a: mean PUE grows with TREFP and reaches ~1 at 2.283 s."""
        assert small_campaign.mean_pue(1.450) < small_campaign.mean_pue(2.283)
        assert small_campaign.mean_pue(2.283) > 0.9

    def test_serial_backprop_more_error_prone_than_parallel(self, small_campaign):
        """Section V.A: backprop(serial) has a higher WER than backprop(par)."""
        per_workload = small_campaign.wer_by_workload(2.283, 50.0)
        assert per_workload["backprop"] > per_workload["backprop(par)"]

    def test_temperature_dominates_wer(self, small_campaign):
        """Fig. 7: raising the DIMM temperature by 10 C raises WER severalfold."""
        assert small_campaign.mean_wer(2.283, 60.0) > 5 * small_campaign.mean_wer(2.283, 50.0)
