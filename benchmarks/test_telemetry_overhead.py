"""Telemetry overhead: instrumented hot paths stay within 1.05x.

Two hot paths are timed with telemetry fully enabled vs the default
disabled registry, on identical work (fresh simulators with the same
seed; the same experiment grid):

* the streamed cell-array write/read sweep, whose per-burst accounting
  (corrected/uncorrectable/scrub counts) is the costliest instrumentation
  in the library;
* the statistical campaign grid sweep, the inner loop of every campaign.

Both must remain bit-identical and within ``OVERHEAD_CEILING`` of the
uninstrumented run: off and on rounds alternate, and each side keeps
its fastest round.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.characterization.experiment import CharacterizationExperiment
from repro.dram.cells import CellArrayConfig, CellArraySimulator
from repro.dram.geometry import DramGeometry
from repro.dram.operating import OperatingPoint
from repro.profiling.profiler import profile_workload
from repro.telemetry import Telemetry, set_telemetry

pytestmark = pytest.mark.slow

OVERHEAD_CEILING = 1.05
NUM_WORDS = 65_536
SWEEP_READS = 4


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _cell_sweep():
    """One write burst + several read bursts over a fresh simulator."""
    geometry = DramGeometry(
        num_dimms=2, ranks_per_dimm=2, banks_per_rank=2,
        rows_per_bank=256, columns_per_row=32, word_bytes=8,
    )
    config = CellArrayConfig(
        geometry=geometry, trefp_s=2.283, temperature_c=70.0, seed=5
    )
    simulator = CellArraySimulator(config)
    locations = [
        simulator.geometry.cell_from_word_index(i) for i in range(NUM_WORDS)
    ]
    rng = np.random.default_rng(5)
    data = rng.integers(0, 1 << 62, size=NUM_WORDS, dtype=np.uint64)
    simulator.write_batch(locations, data)
    outputs = []
    for _ in range(SWEEP_READS):
        result = simulator.read_batch(locations, workload="bench")
        outputs.append(
            (result.decode.data_words.copy(), result.decode.error_codes.copy())
        )
    return outputs


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
        ("telemetry_overhead_cells", _cell_sweep, 8),
        ("telemetry_overhead_grid", _grid_sweep, 1000),
    ],
)
def test_overhead_within_ceiling(name, workload_fn, rounds, bench_report):
    timings, results = _measure(workload_fn, rounds)

    # Instrumentation must never perturb the computation.
    off, on = results["off"], results["on"]
    if isinstance(off, list):
        assert len(off) == len(on)
        for (off_words, off_codes), (on_words, on_codes) in zip(off, on):
            assert np.array_equal(off_words, on_words)
            assert np.array_equal(off_codes, on_codes)
    else:
        assert np.array_equal(off, on)

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
