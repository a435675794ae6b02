"""Profiling front end: registry pin against the object oracle, and a floor.

Profiling a workload (record the trace, simulate the cache hierarchy,
assemble the 249 features) is nearly all of a cold campaign.  The
library runs it on :class:`~repro.memsys.access.AccessColumns`; the
oracle in ``tests/oracles/profiling.py`` runs the same workload with one
``MemoryAccess`` object per access, an ``OrderedDict`` LRU per cache set,
one scalar ``map_address`` per DRAM command and dict/``Counter``
reuse and entropy loops.  This benchmark pins:

* every registered workload's feature dict equals the oracle's bit for
  bit, key order included;
* the 14 campaign workloads record 643,349 accesses and miss the L2
  39,816 times, on both paths;
* the columnar profile of every registered workload is at least
  ``SPEEDUP_FLOOR`` times faster than the oracle (best of alternating
  rounds on each side);
* recording the 14 campaign traces (``record_trace().columns``) with the
  block-recorded kernels is at least ``RECORDING_FLOOR`` times faster
  than with the scalar oracle kernels of ``tests/oracles/workloads.py``
  (best of alternating rounds, timed in a fresh interpreter).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.profiling.profiler import WorkloadProfiler
from repro.workloads.registry import ALL_WORKLOADS, campaign_workload_names, create_workload

from tests.oracles.memsys import simulate_objects
from tests.oracles.profiling import feature_bytes, profile_objects, record_object_trace

pytestmark = pytest.mark.slow

SPEEDUP_FLOOR = 3.0
ROUNDS = 2
RECORDING_FLOOR = 3.0
RECORDING_ROUNDS = 3
CAMPAIGN_ACCESSES = 643_349
CAMPAIGN_L2_MISSES = 39_816


def _profile_all(profile):
    start = time.perf_counter()
    profiles = {name: profile(create_workload(name)) for name in ALL_WORKLOADS}
    return time.perf_counter() - start, profiles


@pytest.fixture(scope="module")
def timed_profiles():
    """Columnar and oracle profiles of every workload, best time per side."""
    best = {"columnar": float("inf"), "oracle": float("inf")}
    profiles = {}
    sides = {"columnar": lambda w: WorkloadProfiler().profile(w), "oracle": profile_objects}
    for round_index in range(ROUNDS):
        order = ("columnar", "oracle") if round_index % 2 == 0 else ("oracle", "columnar")
        for side in order:
            elapsed, profiles[side] = _profile_all(sides[side])
            best[side] = min(best[side], elapsed)
    return best, profiles


def test_every_registered_workload_matches_oracle_bit_for_bit(timed_profiles):
    _, profiles = timed_profiles
    for name in ALL_WORKLOADS:
        assert feature_bytes(profiles["columnar"][name]) == \
            feature_bytes(profiles["oracle"][name]), name


def test_campaign_access_and_l2_miss_counts():
    profiler = WorkloadProfiler()
    accesses = l2_misses = oracle_accesses = oracle_l2_misses = 0
    for name in campaign_workload_names():
        workload = create_workload(name)
        recorder = workload.record_trace()
        accesses += recorder.num_accesses
        l2_misses += profiler._build_hierarchy(workload.threads).simulate(
            recorder.columns
        ).l2_misses
        hierarchy = profiler._build_hierarchy(workload.threads)
        objects = record_object_trace(workload)
        oracle_accesses += objects.num_accesses
        oracle_l2_misses += simulate_objects(
            objects.accesses, geometry=hierarchy.geometry, l1_config=hierarchy.l1_config,
            l2_config=hierarchy.l2_config, num_threads=workload.threads,
        ).l2_misses
    assert accesses == oracle_accesses == CAMPAIGN_ACCESSES
    assert l2_misses == oracle_l2_misses == CAMPAIGN_L2_MISSES


def test_columnar_profiling_floor(timed_profiles, bench_report):
    best, _ = timed_profiles
    speedup = bench_report.record(
        "profiling_registry", floor=SPEEDUP_FLOOR,
        scalar_s=best["oracle"], batch_s=best["columnar"],
        units_label="workloads", work_items=len(ALL_WORKLOADS),
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"columnar profiling only {speedup:.1f}x the object oracle "
        f"(floor {SPEEDUP_FLOOR:.0f}x)"
    )


#: Times both sides of the recording floor, alternating, in a fresh
#: interpreter and prints ``{"block": s, "scalar": s}`` (best round each).
_RECORDING_SCRIPT = """
import json, sys, time
from repro.workloads.registry import campaign_workload_names, create_workload
from tests.oracles.workloads import record_scalar_trace

def record_campaign(record):
    start = time.perf_counter()
    for name in campaign_workload_names():
        record(create_workload(name)).columns
    return time.perf_counter() - start

sides = {"block": lambda workload: workload.record_trace(), "scalar": record_scalar_trace}
best = {"block": float("inf"), "scalar": float("inf")}
for round_index in range(int(sys.argv[1])):
    for side in (("block", "scalar") if round_index % 2 == 0 else ("scalar", "block")):
        best[side] = min(best[side], record_campaign(sides[side]))
print(json.dumps(best))
"""


def test_block_recording_floor(bench_report):
    # A fresh interpreter: the rounds allocate and free ~250 MB of trace
    # buffers, and run inside the pytest process that heap churn slowed the
    # later serving floor's cache-hit loop ~5x.
    root = Path(__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-c", _RECORDING_SCRIPT, str(RECORDING_ROUNDS)],
        capture_output=True, text=True, check=True, cwd=root,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root)])},
    )
    best = json.loads(result.stdout)
    speedup = bench_report.record(
        "trace_recording", floor=RECORDING_FLOOR,
        scalar_s=best["scalar"], batch_s=best["block"],
        units_label="accesses", work_items=CAMPAIGN_ACCESSES,
    )
    assert speedup >= RECORDING_FLOOR, (
        f"block-recorded kernels only {speedup:.1f}x the scalar oracle kernels "
        f"(floor {RECORDING_FLOOR:.0f}x)"
    )
