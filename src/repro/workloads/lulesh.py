"""LULESH-style shock-hydrodynamics proxy with two compiler variants.

Section VI.C of the paper uses ``lulesh`` compiled with default (-O2)
and aggressive (-F) optimizations to show that compiler flags implicitly
change DRAM error behaviour (about 29 % difference in WER).  The two
variants below model that: the aggressively optimised build executes
fewer arithmetic instructions per memory access (vectorisation/fusion),
so its memory-access *rate* is higher and its run time shorter.
"""

from __future__ import annotations

import numpy as np

from repro.workloads.base import TraceRecorder, Workload, interleave, sequence


class LuleshWorkload(Workload):
    """Explicit hydrodynamics time-stepping over a 3-D structured mesh."""

    name = "lulesh"
    suite = "hpc"
    description = "Stencil-heavy hydrodynamics proxy (Fig. 13 case study)"

    #: arithmetic instructions accounted per stencil point for each variant
    COMPUTE_PER_POINT = {"O2": 14, "F": 5}

    def __init__(self, threads: int = 8, seed: int = 37, edge: int = 9,
                 steps: int = 4, optimization: str = "O2", **kwargs: int) -> None:
        super().__init__(threads=threads, seed=seed, **kwargs)
        if optimization not in self.COMPUTE_PER_POINT:
            raise ValueError(f"unknown optimization level {optimization!r}")
        self.edge = edge
        self.steps = steps
        self.optimization = optimization

    @property
    def display_name(self) -> str:
        return f"lulesh({self.optimization})"

    def run(self, recorder: TraceRecorder) -> None:
        rng = self._rng
        n = self.edge
        num_elements = n * n * n
        energy = recorder.alloc(num_elements, "energy")
        pressure = recorder.alloc(num_elements, "pressure")
        volume = recorder.alloc(num_elements, "volume")
        compute_cost = self.COMPUTE_PER_POINT[self.optimization]

        elements = np.arange(num_elements)[:, None]
        recorder.record_block(interleave(
            energy.store(elements, np.abs(rng.normal(size=elements.shape)) + 1.0),
            volume.store(elements, 1.0)))

        yz = np.arange(n * n)
        neighbour_compute = np.r_[np.zeros(6, dtype=np.int64), compute_cost]
        for _step in range(self.steps):
            # Both sweeps walk the same schedule of x planes, y and z in order.
            planes, threads = self.interleaved_schedule(n)
            x, y, z = np.repeat(planes, n * n), np.tile(yz // n, n), np.tile(yz % n, n)
            thread = np.repeat(threads, n * n)[:, None]
            # Per element: its energy and its six face neighbours' energies,
            # the pressure write, then the volume read and write.
            stencil = np.stack([(np.clip(x + dx, 0, n - 1) * n + np.clip(y + dy, 0, n - 1)) * n
                                + np.clip(z + dz, 0, n - 1)
                                for dx, dy, dz in ((0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0),
                                                   (0, -1, 0), (0, 0, 1), (0, 0, -1))], axis=1)
            index = stencil[:, :1]
            reads = energy.load(stencil, compute=neighbour_compute)
            energies = reads["value"]
            neighbours = np.zeros((num_elements, 1))
            for k in range(1, 7):       # the neighbour sum runs in order
                neighbours = neighbours + energies[:, k:k + 1]
            new_pressure = 0.4 * energies[:, :1] + 0.05 * neighbours
            recorder.record_block(sequence(
                reads, pressure.store(index, new_pressure), volume.load(index),
                volume.store(index, volume.values[index] * (1.0 - 0.001 * new_pressure)),
            ), thread)
            # Lagrange nodal update sweep.
            recorder.record_block(sequence(
                energy.load(index), pressure.load(index),
                energy.store(index, energies[:, :1] - 0.01 * new_pressure,
                             compute=compute_cost // 2 + 1),
            ), thread)
            if self.threads > 1:
                recorder.compute(80 * self.threads)
