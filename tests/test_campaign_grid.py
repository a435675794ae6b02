"""Equivalence and determinism tests for the campaign grid engine.

The vectorized grid path (``StatisticalErrorModel.sample_rank_wer_grid``
/ ``sample_ue_events_grid`` / ``CharacterizationExperiment.run_grid``)
must be *bit-identical* to the scalar reference path: the scalar oracle
functions (``sample_rank_wer`` / ``sample_ue_event`` in
``tests/oracles/characterization.py``) are independent implementations,
and ``reference_scalar_run`` (the pre-grid scalar ``run`` body, shared
with the throughput benchmark) reproduces a run on top of them.  Every comparison in this file is exact (``==`` on
floats), not approximate — that is the scalar-vs-batch API contract.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.characterization.campaign import (
    CampaignConfig,
    CampaignResult,
    CharacterizationCampaign,
)
from repro.characterization.experiment import CharacterizationExperiment
from repro.characterization.metrics import WerColumnStore
from repro.dram.operating import OperatingPoint
from repro.dram.statistical import StatisticalErrorModel
from repro.errors import CharacterizationError
from repro.profiling.profiler import profile_workload

from tests.oracles.characterization import (
    expected_rank_wer,
    probability_of_ue,
    reference_scalar_run,
    sample_rank_wer,
    sample_ue_event,
    word_ce_probability,
)
from tests.oracles.dataset import same_wer_columns

#: Palettes the property tests draw grid subsets from (all within the
#: platform's configurable TREFP / temperature ranges).
TREFP_PALETTE = (0.064, 0.618, 1.173, 1.450, 1.727, 2.283)
TEMPERATURE_PALETTE = (30.0, 50.0, 60.0, 70.0)


class TestModelGridEquivalence:
    """Grid sampling on the statistical model vs the scalar oracle."""

    def setup_method(self):
        self.model = StatisticalErrorModel()
        self.behavior = profile_workload("backprop").behavior()
        self.ops = [
            OperatingPoint.relaxed(trefp, temperature)
            for temperature in (50.0, 70.0)
            for trefp in (1.173, 2.283)
        ]

    def _rng_grid(self, repetitions):
        return [
            [np.random.default_rng(1000 * p + k) for k in range(repetitions)]
            for p in range(len(self.ops))
        ]

    def test_expected_grid_matches_scalar_exactly(self):
        grid = self.model.expected_rank_wer_grid(self.ops, self.behavior, "backprop")
        for p, op in enumerate(self.ops):
            for r, rank in enumerate(self.model.geometry.iter_ranks()):
                assert grid[p, r] == expected_rank_wer(
                    self.model, op, self.behavior, rank, "backprop"
                )

    def test_ce_and_ue_probability_grids_match_scalar_exactly(self):
        ce = self.model.word_ce_probability_grid(self.ops, self.behavior)
        pue = self.model.probability_of_ue_grid(self.ops, self.behavior, "backprop")
        for p, op in enumerate(self.ops):
            assert ce[p] == word_ce_probability(self.model, op, self.behavior)
            assert pue[p] == probability_of_ue(self.model, op, self.behavior, "backprop")

    def test_sampled_wer_grid_matches_scalar_stream_exactly(self):
        sampled = self.model.sample_rank_wer_grid(
            self.ops, self.behavior, "backprop", rngs=self._rng_grid(3)
        )
        reference = self._rng_grid(3)
        for p, op in enumerate(self.ops):
            for k in range(3):
                rng = reference[p][k]
                for r, rank in enumerate(self.model.geometry.iter_ranks()):
                    assert sampled[p, k, r] == sample_rank_wer(
                        self.model, op, self.behavior, rank, "backprop", rng=rng
                    )

    def test_sampled_ue_grid_matches_scalar_stream_exactly(self):
        # The UE draws must follow the per-rank normals on the same stream,
        # exactly as one scalar run consumes its generator.
        num_ranks = self.model.geometry.num_ranks
        events = []
        for row in self._rng_grid(4):
            for rng in row:
                rng.standard_normal(num_ranks)
            events.append(row)
        sampled = self.model.sample_ue_events_grid(
            self.ops, self.behavior, "srad(par)", rngs=events
        )
        reference = self._rng_grid(4)
        for p, op in enumerate(self.ops):
            for k in range(4):
                rng = reference[p][k]
                rng.standard_normal(num_ranks)
                assert sampled[p][k] == sample_ue_event(
                    self.model, op, self.behavior, "srad(par)", rng=rng
                )

    def test_default_rng_grids_honour_repetitions(self):
        wer = self.model.sample_rank_wer_grid(self.ops, self.behavior, repetitions=3)
        assert wer.shape == (len(self.ops), 3, self.model.geometry.num_ranks)
        ue = self.model.sample_ue_events_grid(self.ops, self.behavior, repetitions=3)
        assert [len(row) for row in ue] == [3] * len(self.ops)

    def test_mismatched_rng_grid_rejected(self):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            self.model.sample_rank_wer_grid(
                self.ops, self.behavior, rngs=[[np.random.default_rng(0)]]
            )
        with pytest.raises(ConfigurationError):
            self.model.sample_rank_wer_grid([], self.behavior)


class TestExperimentGridEquivalence:
    """run_grid vs the independent scalar reference implementation."""

    def test_grid_reproduces_reference_scalar_runs(self):
        experiment = CharacterizationExperiment(seed=11)
        profile = profile_workload("kmeans")
        ops = [
            OperatingPoint.relaxed(trefp, temperature)
            for temperature in (50.0, 60.0, 70.0)
            for trefp in (0.618, 1.727, 2.283)
        ]
        grid = experiment.run_grid("kmeans", ops, repetitions=3, profile=profile)
        for p, op in enumerate(ops):
            for k in range(3):
                rank_wer, ue_rank = reference_scalar_run(
                    experiment, "kmeans", op, profile, repetition=k
                )
                assert grid[p][k].rank_wer == rank_wer
                assert grid[p][k].ue_rank == ue_rank

    def test_scalar_run_is_one_point_grid(self):
        experiment = CharacterizationExperiment(seed=5)
        profile = profile_workload("bfs")
        op = OperatingPoint.relaxed(2.283, 60.0)
        single = experiment.run("bfs", op, profile=profile, repetition=2)
        grid = experiment.run_grid("bfs", [op], repetitions=(2,), profile=profile)
        assert single.rank_wer == grid[0][0].rank_wer
        assert single.ue_rank == grid[0][0].ue_rank
        assert single.operating_point == grid[0][0].operating_point

    @given(
        trefps=st.lists(st.sampled_from(TREFP_PALETTE), min_size=1, max_size=3,
                        unique=True),
        temperatures=st.lists(st.sampled_from(TEMPERATURE_PALETTE), min_size=1,
                              max_size=2, unique=True),
        repetitions=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2 ** 16),
    )
    @settings(max_examples=15, deadline=None)
    def test_random_grid_subsets_match_scalar_exactly(
        self, trefps, temperatures, repetitions, seed
    ):
        experiment = CharacterizationExperiment(seed=seed)
        profile = profile_workload("memcached")
        ops = [
            OperatingPoint.relaxed(trefp, temperature)
            for temperature in temperatures
            for trefp in trefps
        ]
        grid = experiment.run_grid(
            "memcached", ops, repetitions=repetitions, profile=profile
        )
        for p, op in enumerate(ops):
            for k in range(repetitions):
                rank_wer, ue_rank = reference_scalar_run(
                    experiment, "memcached", op, profile, repetition=k
                )
                assert grid[p][k].rank_wer == rank_wer
                assert grid[p][k].ue_rank == ue_rank

    def test_zero_repetitions_yield_empty_batches(self):
        experiment = CharacterizationExperiment()
        ops = [OperatingPoint.relaxed(1.173, 50.0)]
        assert experiment.run_grid("backprop", ops, repetitions=0) == [[]]

    def test_invalid_grid_arguments_rejected(self):
        experiment = CharacterizationExperiment()
        op = OperatingPoint.relaxed(1.173, 50.0)
        with pytest.raises(CharacterizationError):
            experiment.run_grid("backprop", [])
        with pytest.raises(CharacterizationError):
            experiment.run_grid("backprop", [op], duration_s=0.0)
        with pytest.raises(CharacterizationError):
            experiment.run_grid("backprop", [op], repetitions=-1)


class TestCampaignDeterminism:
    def test_same_seed_produces_identical_campaigns(self):
        config = CampaignConfig(
            workloads=("backprop", "memcached"),
            trefp_values_s=(1.173, 2.283),
            temperatures_c=(50.0,),
            ue_trefp_values_s=(2.283,),
            ue_repetitions=3,
        )
        a = CharacterizationCampaign(config=config, seed=23).run()
        b = CharacterizationCampaign(config=config, seed=23).run()
        assert same_wer_columns(a, b)
        assert a.pue_summaries == b.pue_summaries

    def test_campaign_reproduces_scalar_reference_sweep(self):
        """The batched sweeps yield the exact measurements of the scalar loop."""
        config = CampaignConfig(
            workloads=("kmeans", "bfs"),
            trefp_values_s=(1.173, 2.283),
            temperatures_c=(50.0, 60.0),
            ue_trefp_values_s=(1.450, 2.283),
            ue_repetitions=2,
        )
        campaign = CharacterizationCampaign(config=config, seed=13)
        result = campaign.run()

        reference = CharacterizationCampaign(config=config, seed=13)
        expected = []
        expected_pue = []
        for workload in config.workloads:
            profile = profile_workload(workload)
            for op in config.wer_operating_points():
                rank_wer, _ue = reference_scalar_run(
                    reference.experiment, workload, op, profile, repetition=0
                )
                expected.extend(sorted(rank_wer.items(), key=lambda kv: kv[0].label))
        for workload in config.workloads:
            profile = profile_workload(workload)
            for op in config.ue_operating_points():
                crashes = 0
                for repetition in range(config.ue_repetitions):
                    rank_wer, ue_rank = reference_scalar_run(
                        reference.experiment, workload, op, profile, repetition
                    )
                    crashes += ue_rank is not None
                    if repetition == 0:
                        expected.extend(
                            sorted(rank_wer.items(), key=lambda kv: kv[0].label)
                        )
                expected_pue.append((workload, op.trefp_s, crashes))

        store = result.wer_columns()
        assert [
            (store.ranks[code], wer)
            for code, wer in zip(store.rows["rank"].tolist(), store.rows["wer"].tolist())
        ] == expected
        assert [
            (s.workload, s.trefp_s, s.crashed_runs) for s in result.pue_summaries
        ] == expected_pue

    def test_different_seeds_differ(self):
        config = CampaignConfig(
            workloads=("backprop",), trefp_values_s=(2.283,), temperatures_c=(50.0,)
        )
        a = CharacterizationCampaign(config=config, seed=1).run(include_ue_study=False)
        b = CharacterizationCampaign(config=config, seed=2).run(include_ue_study=False)
        assert not same_wer_columns(a, b)


class TestColumnarAggregations:
    """The columnar reductions must match the old list-scan implementations."""

    @staticmethod
    def _scan(result):
        """(workload, trefp, temperature, rank, wer) per WER row, in order."""
        store = result.wer_columns()
        rows = store.rows
        return zip(
            [store.workloads[code] for code in rows["workload"].tolist()],
            rows["trefp_s"].tolist(), rows["temperature_c"].tolist(),
            [store.ranks[code] for code in rows["rank"].tolist()],
            rows["wer"].tolist(),
        )

    @classmethod
    def _list_scan_by_workload(cls, result, trefp_s, temperature_c, tol=1e-9):
        values = {}
        for workload, trefp, temperature, _rank, wer in cls._scan(result):
            if abs(trefp - trefp_s) <= tol and abs(temperature - temperature_c) <= tol:
                values.setdefault(workload, []).append(wer)
        return {workload: float(np.mean(v)) for workload, v in values.items()}

    @classmethod
    def _list_scan_by_rank(cls, result, trefp_s, temperature_c, tol=1e-9):
        table = {}
        for workload, trefp, temperature, rank, wer in cls._scan(result):
            if abs(trefp - trefp_s) <= tol and abs(temperature - temperature_c) <= tol:
                table.setdefault(workload, {}).setdefault(rank, []).append(wer)
        return {
            workload: {rank: float(np.mean(v)) for rank, v in ranks.items()}
            for workload, ranks in table.items()
        }

    def test_columnar_matches_list_scan_on_campaign_fixture(self, small_campaign):
        config = small_campaign.config
        points = [
            (trefp, temperature)
            for temperature in config.temperatures_c
            for trefp in config.trefp_values_s
        ] + [(trefp, config.ue_temperature_c) for trefp in config.ue_trefp_values_s]
        for trefp, temperature in points:
            assert small_campaign.wer_by_workload(trefp, temperature) == (
                self._list_scan_by_workload(small_campaign, trefp, temperature)
            )
            assert small_campaign.wer_by_rank(trefp, temperature) == (
                self._list_scan_by_rank(small_campaign, trefp, temperature)
            )

    def test_store_group_means_preserve_record_order(self):
        store = WerColumnStore.empty()
        assert len(store) == 0
        with pytest.raises(CharacterizationError):
            store.mean_wer_by_workload(1.173, 50.0)


class TestEmptyPointContract:
    """Regression: wer_by_rank used to return {} where wer_by_workload raised."""

    def test_both_aggregations_raise_on_unknown_operating_point(self, small_campaign):
        with pytest.raises(CharacterizationError):
            small_campaign.wer_by_workload(0.1, 50.0)
        with pytest.raises(CharacterizationError):
            small_campaign.wer_by_rank(0.1, 50.0)

    def test_both_raise_on_empty_result(self):
        result = CampaignResult(config=CampaignConfig())
        with pytest.raises(CharacterizationError):
            result.wer_by_workload(1.173, 50.0)
        with pytest.raises(CharacterizationError):
            result.wer_by_rank(1.173, 50.0)
