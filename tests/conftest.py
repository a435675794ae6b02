"""Shared fixtures for the test suite.

Heavyweight artefacts (workload profiles, a characterization campaign and
the datasets built from it) are session-scoped: they are deterministic,
so every test can share them without re-running the simulation.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.characterization.campaign import CampaignConfig, CharacterizationCampaign
from repro.core.dataset import build_pue_dataset, build_wer_dataset
from repro.profiling.profiler import profile_workload
from repro.telemetry import RunReport, telemetry_session

#: A representative subset of the campaign benchmarks used by fast tests.
SMALL_WORKLOAD_SET = (
    "backprop",
    "backprop(par)",
    "kmeans",
    "srad(par)",
    "memcached",
    "bfs",
)


@pytest.fixture(scope="session")
def small_profiles():
    """Profiles of the small workload set (plus the random micro-benchmark)."""
    names = SMALL_WORKLOAD_SET + ("data-pattern-random",)
    return {name: profile_workload(name) for name in names}


@pytest.fixture(scope="session")
def small_campaign(small_profiles):
    """A reduced but complete campaign: 6 workloads, 2 TREFP, 2 temperatures."""
    config = CampaignConfig(
        workloads=SMALL_WORKLOAD_SET,
        trefp_values_s=(1.173, 2.283),
        temperatures_c=(50.0, 60.0),
        ue_trefp_values_s=(1.450, 2.283),
        ue_repetitions=4,
    )
    campaign = CharacterizationCampaign(config=config, seed=11)
    # The fixture doubles as the tier-1 run report: set RUN_REPORT_JSON to
    # capture the campaign's telemetry as a JSON artifact (CI uploads it).
    with telemetry_session() as telemetry:
        result = campaign.run(include_ue_study=True)
    report_path = os.environ.get("RUN_REPORT_JSON")
    if report_path:
        with open(report_path, "w", encoding="utf-8") as handle:
            json.dump(RunReport.capture(telemetry).to_json_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    return result


@pytest.fixture(scope="session")
def small_wer_dataset(small_campaign, small_profiles):
    return build_wer_dataset(small_campaign, small_profiles)


@pytest.fixture(scope="session")
def small_pue_dataset(small_campaign, small_profiles):
    return build_pue_dataset(small_campaign, small_profiles)


@pytest.fixture(scope="session")
def backprop_profile(small_profiles):
    return small_profiles["backprop"]


@pytest.fixture(scope="session")
def memcached_profile(small_profiles):
    return small_profiles["memcached"]
