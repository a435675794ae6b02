"""Data-pattern micro-benchmarks.

The conventional way to characterise DRAM retention is to write a
worst-case data pattern (typically random data [39]) across the whole
array, wait, and read it back.  The paper uses exactly such a random
data-pattern micro-benchmark as the baseline that the workload-aware
model is compared against (Fig. 2 and Fig. 13).  A solid (all-zeros)
pattern variant is included for data-pattern ablations.
"""

from __future__ import annotations

import numpy as np

from repro.workloads.base import TraceRecorder, Workload


class DataPatternWorkload(Workload):
    """Write a data pattern over the footprint, idle, then sweep-read it."""

    name = "data-pattern"
    suite = "micro"
    description = "Conventional retention-characterization micro-benchmark"

    def __init__(self, threads: int = 1, seed: int = 31, words: int = 4096,
                 sweeps: int = 3, pattern: str = "random",
                 idle_instructions: int = 400_000, **kwargs: int) -> None:
        super().__init__(threads=threads, seed=seed, **kwargs)
        if pattern not in ("random", "solid", "checkerboard"):
            raise ValueError(f"unknown pattern {pattern!r}")
        self.words = words
        self.sweeps = sweeps
        self.pattern = pattern
        self.idle_instructions = idle_instructions

    @property
    def display_name(self) -> str:
        return f"data-pattern-{self.pattern}"

    def _pattern(self, rng: np.random.Generator) -> np.ndarray:
        if self.pattern == "random":
            # A random 52-bit mantissa pattern: maximum data entropy.
            return rng.integers(0, 2 ** 52, size=self.words).astype(np.float64)
        if self.pattern == "solid":
            return np.zeros(self.words)
        # checkerboard
        return np.where(np.arange(self.words) % 2 == 0, 0x5555555555555, 0xAAAAAAAAAAAAA
                        ).astype(np.float64)

    def run(self, recorder: TraceRecorder) -> None:
        buffer = recorder.alloc(self.words, "pattern_buffer")
        # Every access is followed by one compute instruction.
        buffer.fill(self._pattern(self._rng), compute=1)

        sweep = buffer.load(np.arange(self.words), compute=1)
        for _sweep in range(self.sweeps):
            # The micro-benchmark spends most of its time waiting for cells to
            # decay; compute-only instructions model that idle period.
            recorder.compute(self.idle_instructions)
            recorder.record_block(sweep)
