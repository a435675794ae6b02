"""Columnar dataset builders: equivalence with the per-sample reference.

``build_wer_dataset`` / ``build_pue_dataset`` stream a campaign's
columnar store straight into a :class:`ColumnarDataset`, and
``ErrorDataset(samples=...)`` encodes a sample list into one; the
pre-columnar per-``Sample`` builders and the row-by-row matrix assembly
(``reference_matrices``) live on in ``repro.core.reference`` as the
independent reference.  Every matrix comparison in this file is exact
(``tobytes()`` on floats) — that is the columnar-vs-per-sample API
contract, mirroring the grid engine's scalar-vs-batch contract.

Also pinned here: the dataset error paths (missing profiles list every
absent workload, empty campaigns raise for both builders, rank-less
datasets raise from ``ranks()``), the read-only sample view, and the
rejection of conflicting per-workload program features.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.characterization.campaign import CampaignConfig, CampaignResult
from repro.core.dataset import ErrorDataset, build_pue_dataset, build_wer_dataset
from repro.core.features import INPUT_SET_1, INPUT_SET_2, INPUT_SET_3
from repro.core.reference import (
    reference_build_pue_dataset,
    reference_build_wer_dataset,
    reference_matrices,
)
from repro.errors import DataError


def _assert_identical_matrices(columnar, reference, feature_set):
    """``columnar`` is an ErrorDataset, ``reference`` a list of samples."""
    Xc, yc, gc = columnar.matrices(feature_set)
    Xr, yr, gr = reference_matrices(reference, feature_set)
    assert Xc.dtype == Xr.dtype and Xc.shape == Xr.shape
    assert Xc.tobytes() == Xr.tobytes()
    assert yc.tobytes() == yr.tobytes()
    assert bool((gc == gr).all())


class TestColumnarEquivalence:
    @pytest.mark.parametrize("feature_set", [INPUT_SET_1, INPUT_SET_2, INPUT_SET_3],
                             ids=lambda fs: fs.name)
    def test_wer_matrices_bit_identical(self, small_campaign, small_profiles,
                                        feature_set):
        columnar = build_wer_dataset(small_campaign, small_profiles)
        reference = reference_build_wer_dataset(small_campaign, small_profiles)
        _assert_identical_matrices(columnar, reference, feature_set)

    def test_pue_matrices_bit_identical(self, small_campaign, small_profiles):
        columnar = build_pue_dataset(small_campaign, small_profiles)
        reference = reference_build_pue_dataset(small_campaign, small_profiles)
        _assert_identical_matrices(columnar, reference, INPUT_SET_2)

    def test_materialized_samples_equal_reference(self, small_campaign,
                                                  small_profiles):
        columnar = build_wer_dataset(small_campaign, small_profiles)
        reference = reference_build_wer_dataset(small_campaign, small_profiles)
        assert list(columnar.samples) == reference
        pue = build_pue_dataset(small_campaign, small_profiles)
        assert list(pue.samples) == reference_build_pue_dataset(
            small_campaign, small_profiles
        )
        # The sample view is read-only: an append raises instead of
        # silently diverging from the columns.
        with pytest.raises(AttributeError):
            columnar.samples.append(reference[0])
        assert len(columnar) == len(reference)

    def test_group_accessors_match(self, small_campaign, small_profiles):
        columnar = build_wer_dataset(small_campaign, small_profiles)
        reference = reference_build_wer_dataset(small_campaign, small_profiles)
        assert columnar.workloads() == sorted({s.workload for s in reference})
        assert columnar.ranks() == sorted({s.rank for s in reference})
        by_workload = {}
        for sample in reference:
            by_workload.setdefault(sample.workload, []).append(sample.target)
        assert columnar.targets_by_workload() == by_workload

    def test_filter_rank_stays_columnar_and_matches(self, small_campaign,
                                                    small_profiles):
        columnar = build_wer_dataset(small_campaign, small_profiles)
        reference = reference_build_wer_dataset(small_campaign, small_profiles)
        for rank in sorted({s.rank for s in reference})[:3]:
            filtered = columnar.filter_rank(rank)
            assert len(filtered.columns()) == len(filtered)
            _assert_identical_matrices(
                filtered, [s for s in reference if s.rank == rank], INPUT_SET_1
            )

    @given(seed=st.integers(min_value=0, max_value=2 ** 16),
           keep=st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=15, deadline=None)
    def test_measurement_subsets_match_reference(self, small_campaign,
                                                 small_profiles, seed, keep):
        """Hypothesis: any campaign subset builds identical matrices."""
        measurements = small_campaign.wer_measurements
        rng = np.random.default_rng(seed)
        mask = rng.random(len(measurements)) < keep
        if not mask.any():
            mask[int(rng.integers(len(measurements)))] = True
        subset = [m for m, kept in zip(measurements, mask) if kept]
        campaign = CampaignResult(config=small_campaign.config,
                                  wer_measurements=subset)
        columnar = build_wer_dataset(campaign, small_profiles)
        reference = reference_build_wer_dataset(campaign, small_profiles)
        _assert_identical_matrices(columnar, reference, INPUT_SET_1)
        assert list(columnar.samples) == reference
        # Hand-built datasets are encoded into the same columns.
        from_samples = ErrorDataset(samples=reference)
        _assert_identical_matrices(from_samples, reference, INPUT_SET_1)
        assert list(from_samples.samples) == reference


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

    def test_empty_dataset_ranks_raises(self):
        with pytest.raises(DataError):
            ErrorDataset().ranks()

    def test_unknown_rank_filter_raises(self, small_wer_dataset):
        from repro.dram.geometry import RankLocation

        with pytest.raises(DataError):
            small_wer_dataset.filter_rank(RankLocation(7, 1))

    def test_empty_columnar_dataset_matrices_raise(self, small_campaign,
                                                   small_profiles):
        dataset = build_wer_dataset(small_campaign, small_profiles)
        with pytest.raises(DataError):
            dataset.columns().subset(
                np.zeros(len(dataset), dtype=bool)
            ).matrices(INPUT_SET_1)


class TestMutationSemantics:
    def test_samples_and_columns_are_mutually_exclusive(
        self, small_campaign, small_profiles
    ):
        columnar = build_wer_dataset(small_campaign, small_profiles)
        with pytest.raises(DataError):
            ErrorDataset(samples=[], columns=columnar.columns())

    def test_conflicting_program_features_raise(self, small_campaign,
                                                small_profiles):
        samples = reference_build_wer_dataset(small_campaign, small_profiles)[:2]
        assert samples[0].workload == samples[1].workload
        altered = dict(samples[1].program_features)
        altered["ipc"] = altered["ipc"] + 1.0
        conflicting = replace(samples[1], program_features=altered)
        with pytest.raises(DataError, match="conflicting program features"):
            ErrorDataset(samples=[samples[0], conflicting])
        # Equal features in distinct dict objects are not a conflict.
        equal = replace(samples[1], program_features=dict(samples[1].program_features))
        assert len(ErrorDataset(samples=[samples[0], equal])) == 2
