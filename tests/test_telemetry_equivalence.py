"""Telemetry must observe, never perturb.

Two contracts pinned here:

* results are bit-identical with telemetry enabled, disabled, and across
  sequential vs parallel execution;
* a parallel campaign merges worker snapshots into one run report whose
  span counts equal the sequential run's, span for span.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.characterization.campaign import CampaignConfig, CharacterizationCampaign
from repro.core.dataset import build_wer_dataset
from repro.profiling.profiler import profile_workload
from repro.telemetry import RunReport, telemetry_session

from tests.oracles.telemetry import find_span, span_counts

WORKLOADS = ("backprop", "kmeans", "bfs", "memcached")


def _make_campaign():
    config = CampaignConfig(
        workloads=WORKLOADS,
        trefp_values_s=(1.173, 2.283),
        temperatures_c=(50.0,),
        ue_trefp_values_s=(2.283,),
        ue_repetitions=3,
    )
    return CharacterizationCampaign(config=config, seed=11)


def _run(parallel=None, telemetry_on=False):
    campaign = _make_campaign()
    if telemetry_on:
        with telemetry_session() as telemetry:
            result = campaign.run(include_ue_study=True, parallel=parallel)
        return result, telemetry.snapshot()
    result = campaign.run(include_ue_study=True, parallel=parallel)
    return result, None


@pytest.fixture(scope="module")
def sequential_off():
    return _run()[0]


@pytest.fixture(scope="module")
def sequential_on():
    return _run(telemetry_on=True)


def _assert_results_equal(a, b):
    assert np.array_equal(a.wer_columns().rows, b.wer_columns().rows)
    assert a.pue_summaries == b.pue_summaries


def test_enabled_vs_disabled_bit_identical(sequential_off, sequential_on):
    _assert_results_equal(sequential_off, sequential_on[0])


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_parallel_bit_identical_and_report_matches(
    workers, sequential_off, sequential_on
):
    result, snapshot = _run(parallel=workers, telemetry_on=True)
    _assert_results_equal(sequential_off, result)

    _, seq_snapshot = sequential_on
    # One sweep path: the merged parallel tree equals the in-process one
    # span for span, not only under the per-workload prefixes.
    seq_counts = span_counts(seq_snapshot)
    for sweep in ("campaign.wer_sweep", "campaign.ue_sweep"):
        for workload in WORKLOADS:
            assert f"campaign.run/{sweep}/workload:{workload}" in seq_counts
    assert span_counts(snapshot) == seq_counts

    # Work counters describe the same computation either way.
    assert snapshot.counters == {
        name: value for name, value in seq_snapshot.counters.items()
    }


def test_parallel_report_renders_one_merged_tree():
    _, snapshot = _run(parallel=2, telemetry_on=True)
    assert [span.name for span in snapshot.spans] == ["campaign.run"]
    report = RunReport(snapshot=snapshot, environment={})
    text = report.render()
    for workload in WORKLOADS:
        assert f"workload:{workload}" in text


def test_dataset_build_unaffected_by_telemetry(sequential_off):
    profiles = {name: profile_workload(name) for name in WORKLOADS}
    baseline = build_wer_dataset(sequential_off, profiles)
    with telemetry_session() as telemetry:
        instrumented = build_wer_dataset(sequential_off, profiles)
    assert np.array_equal(baseline.targets, instrumented.targets)
    assert np.array_equal(
        baseline.operating_columns, instrumented.operating_columns
    )
    snapshot = telemetry.snapshot()
    assert snapshot.counters["dataset.wer_rows"] == len(baseline)
    assert find_span(snapshot, "dataset.build_wer").count == 1
