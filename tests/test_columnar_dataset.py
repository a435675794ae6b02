"""Columnar dataset builders: equivalence with the per-row oracle.

``build_wer_dataset`` / ``build_pue_dataset`` stream a campaign's
columnar store straight into an :class:`ErrorDataset`; the pre-columnar
per-row builders and the row-by-row matrix assembly
(``reference_matrices``) live in ``tests/oracles/dataset.py`` as the
independent reference.  Every matrix comparison in this file is exact
(``tobytes()`` on floats) — that is the columnar-vs-per-row API
contract, mirroring the grid engine's scalar-vs-batch contract.

Also pinned here: the dataset error paths (missing profiles list every
absent workload, empty campaigns raise for both builders, rank-less
datasets raise from ``ranks()``, columns of unequal length raise), and
that ``workloads()``/``ranks()`` find the distinct codes without a plain
``np.unique``, so a cold fit never imports ``numpy.ma``.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.characterization.campaign import CampaignConfig, CampaignResult
from repro.core.dataset import ErrorDataset, build_pue_dataset, build_wer_dataset
from repro.core.features import INPUT_SET_1, INPUT_SET_2, INPUT_SET_3
from repro.errors import DataError

from tests.oracles.dataset import (
    assert_matches_rows,
    campaign_subset,
    encode_rows,
    reference_build_pue_dataset,
    reference_build_wer_dataset,
)


class TestColumnarEquivalence:
    @pytest.mark.parametrize("feature_set", [INPUT_SET_1, INPUT_SET_2, INPUT_SET_3],
                             ids=lambda fs: fs.name)
    def test_wer_matrices_bit_identical(self, small_campaign, small_profiles,
                                        feature_set):
        columnar = build_wer_dataset(small_campaign, small_profiles)
        reference = reference_build_wer_dataset(small_campaign, small_profiles)
        assert_matches_rows(columnar, reference, feature_set)

    def test_pue_matrices_bit_identical(self, small_campaign, small_profiles):
        columnar = build_pue_dataset(small_campaign, small_profiles)
        reference = reference_build_pue_dataset(small_campaign, small_profiles)
        assert_matches_rows(columnar, reference, INPUT_SET_2)

    def test_group_accessors_match(self, small_campaign, small_profiles):
        columnar = build_wer_dataset(small_campaign, small_profiles)
        reference = reference_build_wer_dataset(small_campaign, small_profiles)
        assert columnar.workloads() == sorted({s.workload for s in reference})
        assert columnar.ranks() == sorted({s.rank for s in reference})

    def test_filter_rank_stays_columnar_and_matches(self, small_campaign,
                                                    small_profiles):
        columnar = build_wer_dataset(small_campaign, small_profiles)
        reference = reference_build_wer_dataset(small_campaign, small_profiles)
        for rank in sorted({s.rank for s in reference})[:3]:
            filtered = columnar.filter_rank(rank)
            assert filtered.ranks() == [rank]
            assert_matches_rows(
                filtered, [s for s in reference if s.rank == rank], INPUT_SET_1
            )

    @given(seed=st.integers(min_value=0, max_value=2 ** 16),
           keep=st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=15, deadline=None)
    def test_measurement_subsets_match_reference(self, small_campaign,
                                                 small_profiles, seed, keep):
        """Hypothesis: any campaign subset builds identical matrices."""
        count = small_campaign.num_wer_measurements
        rng = np.random.default_rng(seed)
        mask = rng.random(count) < keep
        if not mask.any():
            mask[int(rng.integers(count))] = True
        campaign = campaign_subset(small_campaign, mask)
        columnar = build_wer_dataset(campaign, small_profiles)
        reference = reference_build_wer_dataset(campaign, small_profiles)
        assert_matches_rows(columnar, reference, INPUT_SET_1)
        # Hand-built rows are encoded into the same columns.
        assert_matches_rows(encode_rows(reference), reference, INPUT_SET_1)


class TestDatasetErrorPaths:
    def test_missing_profiles_error_lists_all_missing_workloads(
        self, small_campaign, small_profiles
    ):
        partial = {"backprop": small_profiles["backprop"]}
        with pytest.raises(DataError) as excinfo:
            build_wer_dataset(small_campaign, partial)
        message = str(excinfo.value)
        for workload in ("bfs", "kmeans", "memcached", "srad(par)"):
            assert workload in message

    def test_empty_campaign_raises_for_both_builders(self):
        empty = CampaignResult(config=CampaignConfig())
        with pytest.raises(DataError):
            build_wer_dataset(empty)
        with pytest.raises(DataError):
            build_pue_dataset(empty)

    def test_pue_only_dataset_ranks_raises(self, small_campaign, small_profiles):
        pue = build_pue_dataset(small_campaign, small_profiles)
        with pytest.raises(DataError):
            pue.ranks()

    def test_empty_dataset_ranks_raises(self, small_wer_dataset):
        empty = small_wer_dataset.subset(np.zeros(len(small_wer_dataset), dtype=bool))
        with pytest.raises(DataError):
            empty.ranks()

    def test_unknown_rank_filter_raises(self, small_wer_dataset):
        from repro.dram.geometry import RankLocation

        with pytest.raises(DataError):
            small_wer_dataset.filter_rank(RankLocation(7, 1))

    def test_empty_columnar_dataset_matrices_raise(self, small_campaign,
                                                   small_profiles):
        dataset = build_wer_dataset(small_campaign, small_profiles)
        with pytest.raises(DataError):
            dataset.subset(
                np.zeros(len(dataset), dtype=bool)
            ).matrices(INPUT_SET_1)

    def test_columns_of_unequal_length_raise(self, small_wer_dataset):
        dataset = small_wer_dataset
        with pytest.raises(DataError, match="one entry per row"):
            ErrorDataset(
                workload_table=dataset.workload_table,
                workload_codes=dataset.workload_codes[:-1],
                operating_columns=dataset.operating_columns,
                targets=dataset.targets,
                features_by_workload=dataset.features_by_workload,
            )


class TestDistinctCodes:
    def test_workloads_and_ranks_match_unique_codes(self, small_wer_dataset):
        for keep in (slice(None), slice(0, None, 3), slice(5, 6)):
            mask = np.zeros(len(small_wer_dataset), dtype=bool)
            mask[keep] = True
            dataset = small_wer_dataset.subset(mask)
            codes = np.unique(dataset.workload_codes)
            assert dataset.workloads() == sorted(dataset.workload_table[c] for c in codes)
            ranks = np.unique(dataset.rank_codes)
            assert dataset.ranks() == sorted(dataset.rank_table[c] for c in ranks[ranks >= 0])

    def test_cold_fit_and_ranks_load_no_numpy_ma(self):
        # A plain np.unique imports numpy.ma (~15 ms) on its first call.
        code = textwrap.dedent("""
            import sys
            import repro
            from repro.core.dataset import build_wer_dataset

            campaign = repro.run_default_campaign(["memcached"])
            repro.WorkloadAwarePredictor().fit(campaign)
            dataset = build_wer_dataset(campaign)
            dataset.ranks()
            dataset.workloads()
            print("numpy.ma" in sys.modules)
        """)
        source_root = str(Path(repro.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": source_root},
        )
        assert result.stdout.split() == ["False"]
