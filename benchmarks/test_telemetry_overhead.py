"""Telemetry overhead: an instrumented hot path stays within 1.05x.

The statistical campaign grid sweep, the inner loop of every campaign,
is timed with telemetry fully enabled vs the default disabled registry
on identical work (the same experiment grid).  It must remain
bit-identical and within ``OVERHEAD_CEILING`` of the uninstrumented
run: off and on rounds alternate, and each side keeps its fastest round.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.characterization.experiment import CharacterizationExperiment
from repro.dram.operating import OperatingPoint
from repro.profiling.profiler import profile_workload
from repro.telemetry import Telemetry, set_telemetry

pytestmark = pytest.mark.slow

OVERHEAD_CEILING = 1.05


def _grid_sweep():
    experiment = CharacterizationExperiment(seed=7)
    ops = [
        OperatingPoint.relaxed(trefp, temperature)
        for trefp in (1.173, 2.283)
        for temperature in (50.0, 70.0)
    ]
    profile = profile_workload("memcached")
    grid = experiment.run_grid_columns(
        "memcached", ops, repetitions=4, profile=profile
    )
    return grid.wer_block().rows


def _measure(workload_fn, rounds):
    """(min seconds, last result) for each of telemetry off/on.

    Off and on rounds interleave, and the side that runs first alternates
    from round to round, so a drift in host speed lands on both sides
    instead of on whichever side happened to run later.  Each side keeps
    its fastest round; many short rounds give both sides the same chance
    to land in a quiet moment of a shared host.
    """
    registries = {"off": Telemetry(enabled=False), "on": Telemetry(enabled=True)}
    timings = {mode: float("inf") for mode in registries}
    results = {}

    def run(mode):
        previous = set_telemetry(registries[mode])
        try:
            start = time.perf_counter()
            results[mode] = workload_fn()
            return time.perf_counter() - start
        finally:
            set_telemetry(previous)

    for mode in registries:
        run(mode)    # warm imports/caches outside the timed rounds
    for round_index in range(rounds):
        order = ("off", "on") if round_index % 2 == 0 else ("on", "off")
        for mode in order:
            timings[mode] = min(timings[mode], run(mode))
    return timings, results


@pytest.mark.parametrize(
    "name, workload_fn, rounds",
    [
        ("telemetry_overhead_grid", _grid_sweep, 1000),
    ],
)
def test_overhead_within_ceiling(name, workload_fn, rounds, bench_report):
    timings, results = _measure(workload_fn, rounds)

    # Instrumentation must never perturb the computation.
    assert np.array_equal(results["off"], results["on"])

    ratio = timings["on"] / timings["off"]
    # record() reports scalar/batch; here scalar=instrumented and
    # batch=baseline, so "speedup" is the overhead ratio itself.
    bench_report.record(
        name, floor=1.0 / OVERHEAD_CEILING,
        scalar_s=timings["on"], batch_s=timings["off"],
    )
    assert ratio <= OVERHEAD_CEILING, (
        f"telemetry overhead {ratio:.3f}x exceeds {OVERHEAD_CEILING}x ceiling"
    )
