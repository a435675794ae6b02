"""Scalar workload kernels: the oracle of the block-recorded library kernels.

Each function is the per-access formulation of one library kernel: every
access is one ``InstrumentedArray.read``/``write`` call and every
non-memory instruction one ``TraceRecorder.compute`` call, in program
order, with the work items walked through the list-of-tuples round-robin
:func:`schedule`.  The library kernels emit the same loops as column
blocks; tests pin the five trace columns, ``instruction_count``,
``allocated_bytes`` and the final array contents against these bit for
bit.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Dict, List, Tuple, Type

import numpy as np

from repro.errors import WorkloadError
from repro.workloads.analytics import (
    BetweennessCentralityWorkload,
    BfsWorkload,
    PagerankWorkload,
)
from repro.workloads.base import InstrumentedArray, TraceRecorder, Workload
from repro.workloads.caching import MemcachedWorkload
from repro.workloads.compute import (
    BackpropWorkload,
    FmmWorkload,
    KmeansWorkload,
    NeedlemanWunschWorkload,
    SradWorkload,
)
from repro.workloads.lulesh import LuleshWorkload
from repro.workloads.micro import DataPatternWorkload


def thread_chunks(workload: Workload, num_items: int) -> List[range]:
    """Split ``num_items`` work items into one contiguous chunk per thread."""
    if num_items <= 0:
        raise WorkloadError("num_items must be positive")
    base, extra = divmod(num_items, workload.threads)
    chunks = []
    start = 0
    for thread in range(workload.threads):
        size = base + (1 if thread < extra else 0)
        chunks.append(range(start, start + size))
        start += size
    return chunks


def schedule(workload: Workload, num_items: int, block: int = 8) -> List[Tuple[int, int]]:
    """Round-robin ``(item, thread)`` list: each thread's chunk, ``block`` items a turn."""
    chunks = thread_chunks(workload, num_items)
    positions = [0] * workload.threads
    order: List[Tuple[int, int]] = []
    remaining = num_items
    while remaining > 0:
        for thread, chunk in enumerate(chunks):
            taken = 0
            while positions[thread] < len(chunk) and taken < block:
                order.append((chunk[positions[thread]], thread))
                positions[thread] += 1
                taken += 1
                remaining -= 1
    return order


# -- compute.py ---------------------------------------------------------------
def backprop(w: BackpropWorkload, recorder: TraceRecorder) -> None:
    rng = w._rng
    inputs = recorder.alloc(w.samples * w.input_size, "inputs")
    targets = recorder.alloc(w.samples, "targets")
    w_hidden = recorder.alloc(w.input_size * w.hidden_size, "w_hidden")
    w_out = recorder.alloc(w.hidden_size, "w_out")
    hidden = recorder.alloc(w.samples * w.hidden_size, "hidden")

    for i in range(w.samples * w.input_size):
        inputs.write(i, rng.normal())
        recorder.compute(2)
    for i in range(w.samples):
        targets.write(i, rng.random())
    for i in range(w.input_size * w.hidden_size):
        w_hidden.write(i, rng.normal() * 0.1)
    for i in range(w.hidden_size):
        w_out.write(i, rng.normal() * 0.1)

    learning_rate = 0.05
    for _epoch in range(w.epochs):
        for sample, thread in schedule(w, w.samples):
            for h in range(w.hidden_size):
                acc = 0.0
                for i in range(w.input_size):
                    acc += (
                        inputs.read(sample * w.input_size + i, thread)
                        * w_hidden.read(i * w.hidden_size + h, thread)
                    )
                    recorder.compute(2)
                activation = 1.0 / (1.0 + math.exp(-max(min(acc, 30.0), -30.0)))
                hidden.write(sample * w.hidden_size + h, activation, thread)
                recorder.compute(4)
            output = 0.0
            for h in range(w.hidden_size):
                output += hidden.read(sample * w.hidden_size + h, thread) * \
                    w_out.read(h, thread)
                recorder.compute(2)
            error = targets.read(sample, thread) - output
            recorder.compute(3)
            for h in range(w.hidden_size):
                gradient = error * hidden.read(sample * w.hidden_size + h, thread)
                w_out.write(h, w_out.read(h, thread) + learning_rate * gradient, thread)
                recorder.compute(4)


def kmeans(w: KmeansWorkload, recorder: TraceRecorder) -> None:
    rng = w._rng
    data = recorder.alloc(w.points * w.dims, "points")
    centroids = recorder.alloc(w.clusters * w.dims, "centroids")
    assignments = recorder.alloc(w.points, "assignments")
    sums = recorder.alloc(w.clusters * w.dims, "sums")
    counts = recorder.alloc(w.clusters, "counts")

    for i in range(w.points * w.dims):
        data.write(i, rng.normal())
    for i in range(w.clusters * w.dims):
        centroids.write(i, rng.normal())

    for _iteration in range(w.iterations):
        for i in range(w.clusters * w.dims):
            sums.write(i, 0.0)
        for c in range(w.clusters):
            counts.write(c, 0.0)

        for point, thread in schedule(w, w.points):
            best_cluster = 0
            best_distance = float("inf")
            for c in range(w.clusters):
                distance = 0.0
                for d in range(w.dims):
                    diff = data.read(point * w.dims + d, thread) - \
                        centroids.read(c * w.dims + d, thread)
                    distance += diff * diff
                    recorder.compute(3)
                if distance < best_distance:
                    best_distance = distance
                    best_cluster = c
                recorder.compute(2)
            assignments.write(point, float(best_cluster), thread)
            counts.write(best_cluster, counts.read(best_cluster, thread) + 1.0, thread)
            for d in range(w.dims):
                index = best_cluster * w.dims + d
                sums.write(index, sums.read(index, thread) +
                           data.read(point * w.dims + d, thread), thread)
                recorder.compute(1)

        recorder.compute(200 * w.threads)
        for c in range(w.clusters):
            count = max(counts.read(c), 1.0)
            for d in range(w.dims):
                index = c * w.dims + d
                centroids.write(index, sums.read(index) / count)
                recorder.compute(2)


def nw(w: NeedlemanWunschWorkload, recorder: TraceRecorder) -> None:
    rng = w._rng
    n = w.length
    seq_a = recorder.alloc(n, "seq_a")
    seq_b = recorder.alloc(n, "seq_b")
    matrix = recorder.alloc((n + 1) * (n + 1), "dp_matrix")
    reference = recorder.alloc((n + 1) * (n + 1), "reference")

    for i in range(n):
        seq_a.write(i, float(rng.integers(0, 4)))
        seq_b.write(i, float(rng.integers(0, 4)))
    for i in range((n + 1) * (n + 1)):
        reference.write(i, float(rng.integers(-2, 3)))
        matrix.write(i, 0.0)
        recorder.compute(1)
    for i in range(n + 1):
        matrix.write(i * (n + 1), -w.gap_penalty * i)
        matrix.write(i, -w.gap_penalty * i)

    for diagonal in range(2, 2 * n + 1):
        cells = [
            (i, diagonal - i)
            for i in range(max(1, diagonal - n), min(n, diagonal - 1) + 1)
        ]
        order = schedule(w, len(cells)) if w.threads > 1 else \
            [(k, 0) for k in range(len(cells))]
        for cell_index, thread in order:
            i, j = cells[cell_index]
            match = 1.0 if seq_a.read(i - 1, thread) == seq_b.read(j - 1, thread) else -1.0
            match += reference.read(i * (n + 1) + j, thread)
            recorder.compute(2)
            diag = matrix.read((i - 1) * (n + 1) + (j - 1), thread) + match
            up = matrix.read((i - 1) * (n + 1) + j, thread) - w.gap_penalty
            left = matrix.read(i * (n + 1) + (j - 1), thread) - w.gap_penalty
            matrix.write(i * (n + 1) + j, max(diag, up, left), thread)
            recorder.compute(4)
        if w.threads > 1:
            recorder.compute(50 * w.threads)


def srad(w: SradWorkload, recorder: TraceRecorder) -> None:
    rng = w._rng
    image = recorder.alloc(w.rows * w.cols, "image")
    coefficients = recorder.alloc(w.rows * w.cols, "coefficients")

    for i in range(w.rows * w.cols):
        image.write(i, abs(rng.normal()) + 1.0)

    for _iteration in range(w.iterations):
        for row, thread in schedule(w, w.rows):
            for col in range(w.cols):
                index = row * w.cols + col
                center = image.read(index, thread)
                north = image.read(max(row - 1, 0) * w.cols + col, thread)
                south = image.read(min(row + 1, w.rows - 1) * w.cols + col, thread)
                west = image.read(row * w.cols + max(col - 1, 0), thread)
                east = image.read(row * w.cols + min(col + 1, w.cols - 1), thread)
                gradient = (north + south + west + east) - 4.0 * center
                coefficient = 1.0 / (1.0 + abs(gradient) / max(center, 1e-6))
                coefficients.write(index, coefficient, thread)
                recorder.compute(8)
        for row, thread in schedule(w, w.rows):
            for col in range(w.cols):
                index = row * w.cols + col
                update = coefficients.read(index, thread) * w.lam
                image.write(index, image.read(index, thread) * (1.0 - 0.1 * update), thread)
                recorder.compute(4)
        if w.threads > 1:
            recorder.compute(50 * w.threads)


def fmm(w: FmmWorkload, recorder: TraceRecorder) -> None:
    rng = w._rng
    n = w.particles
    positions = recorder.alloc(n * 2, "positions")
    masses = recorder.alloc(n, "masses")
    forces = recorder.alloc(n * 2, "forces")
    num_cells = w.grid * w.grid
    cell_mass = recorder.alloc(num_cells, "cell_mass")
    cell_center = recorder.alloc(num_cells * 2, "cell_center")

    for i in range(n):
        positions.write(i * 2, rng.random())
        positions.write(i * 2 + 1, rng.random())
        masses.write(i, rng.random() + 0.5)

    for _step in range(w.steps):
        for c in range(num_cells):
            cell_mass.write(c, 0.0)
            cell_center.write(c * 2, 0.0)
            cell_center.write(c * 2 + 1, 0.0)
        for i in range(n):
            x = positions.read(i * 2)
            y = positions.read(i * 2 + 1)
            cell = min(int(x * w.grid), w.grid - 1) * w.grid + \
                min(int(y * w.grid), w.grid - 1)
            mass = masses.read(i)
            cell_mass.write(cell, cell_mass.read(cell) + mass)
            cell_center.write(cell * 2, cell_center.read(cell * 2) + x * mass)
            cell_center.write(cell * 2 + 1, cell_center.read(cell * 2 + 1) + y * mass)
            recorder.compute(8)

        for i, thread in schedule(w, n):
            x = positions.read(i * 2, thread)
            y = positions.read(i * 2 + 1, thread)
            fx = fy = 0.0
            for c in range(num_cells):
                mass = cell_mass.read(c, thread)
                if mass <= 0.0:
                    recorder.compute(1)
                    continue
                cx = cell_center.read(c * 2, thread) / mass
                cy = cell_center.read(c * 2 + 1, thread) / mass
                dx, dy = cx - x, cy - y
                dist_sq = dx * dx + dy * dy + 1e-3
                fx += mass * dx / dist_sq
                fy += mass * dy / dist_sq
                recorder.compute(10)
            for j in range(max(0, i - 2), min(n, i + 3)):
                if j == i:
                    continue
                dx = positions.read(j * 2, thread) - x
                dy = positions.read(j * 2 + 1, thread) - y
                dist_sq = dx * dx + dy * dy + 1e-3
                fx += masses.read(j, thread) * dx / dist_sq
                fy += masses.read(j, thread) * dy / dist_sq
                recorder.compute(10)
            forces.write(i * 2, fx, thread)
            forces.write(i * 2 + 1, fy, thread)

        for i in range(n):
            positions.write(i * 2, min(max(positions.read(i * 2) +
                                           1e-4 * forces.read(i * 2), 0.0), 1.0))
            positions.write(i * 2 + 1, min(max(positions.read(i * 2 + 1) +
                                               1e-4 * forces.read(i * 2 + 1), 0.0), 1.0))
            recorder.compute(6)


# -- analytics.py -------------------------------------------------------------
def _load_graph(w, recorder: TraceRecorder) -> Tuple[InstrumentedArray, InstrumentedArray]:
    row_ptr, col_idx = w._csr()
    row_array = recorder.alloc(len(row_ptr), "row_ptr")
    col_array = recorder.alloc(max(len(col_idx), 1), "col_idx")
    for i, value in enumerate(row_ptr):
        row_array.write(i, float(value))
    for i, value in enumerate(col_idx):
        col_array.write(i, float(value))
    return row_array, col_array


def _neighbors(row_array, col_array, node: int, thread: int) -> List[int]:
    start = int(row_array.read(node, thread))
    end = int(row_array.read(node + 1, thread))
    return [int(col_array.read(i, thread)) for i in range(start, end)]


def pagerank(w: PagerankWorkload, recorder: TraceRecorder) -> None:
    row_array, col_array = _load_graph(w, recorder)
    ranks = recorder.alloc(w.nodes, "ranks")
    new_ranks = recorder.alloc(w.nodes, "new_ranks")
    degrees = recorder.alloc(w.nodes, "degrees")

    for node in range(w.nodes):
        ranks.write(node, 1.0 / w.nodes)
        start = int(row_array.read(node))
        end = int(row_array.read(node + 1))
        degrees.write(node, float(max(end - start, 1)))
        recorder.compute(3)

    for _iteration in range(w.iterations):
        for node in range(w.nodes):
            new_ranks.write(node, (1.0 - w.damping) / w.nodes)
        for node, thread in schedule(w, w.nodes):
            contribution = w.damping * ranks.read(node, thread) / \
                degrees.read(node, thread)
            recorder.compute(3)
            for neighbour in _neighbors(row_array, col_array, node, thread):
                new_ranks.write(neighbour,
                                new_ranks.read(neighbour, thread) + contribution,
                                thread)
                recorder.compute(2)
        for node in range(w.nodes):
            ranks.write(node, new_ranks.read(node))
        if w.threads > 1:
            recorder.compute(100 * w.threads)


def bfs(w: BfsWorkload, recorder: TraceRecorder) -> None:
    row_array, col_array = _load_graph(w, recorder)
    distances = recorder.alloc(w.nodes, "distances")
    for node in range(w.nodes):
        distances.write(node, -1.0)

    distances.write(0, 0.0)
    frontier = [0]
    level = 0
    while frontier:
        next_frontier: List[int] = []
        for index, thread in schedule(w, len(frontier)):
            node = frontier[index]
            for neighbour in _neighbors(row_array, col_array, node, thread):
                if distances.read(neighbour, thread) < 0.0:
                    distances.write(neighbour, float(level + 1), thread)
                    next_frontier.append(neighbour)
                recorder.compute(2)
        frontier = next_frontier
        level += 1
        if w.threads > 1:
            recorder.compute(60 * w.threads)


def bc(w: BetweennessCentralityWorkload, recorder: TraceRecorder) -> None:
    row_array, col_array = _load_graph(w, recorder)
    centrality = recorder.alloc(w.nodes, "centrality")
    sigma = recorder.alloc(w.nodes, "sigma")
    distance = recorder.alloc(w.nodes, "distance")
    delta = recorder.alloc(w.nodes, "delta")

    for node in range(w.nodes):
        centrality.write(node, 0.0)

    source_nodes = list(range(0, w.nodes, max(1, w.nodes // w.sources)))[: w.sources]
    for source_index, thread in schedule(w, len(source_nodes)):
        source = source_nodes[source_index]
        stack: List[int] = []
        predecessors: List[List[int]] = [[] for _ in range(w.nodes)]
        for node in range(w.nodes):
            sigma.write(node, 0.0, thread)
            distance.write(node, -1.0, thread)
            delta.write(node, 0.0, thread)
        sigma.write(source, 1.0, thread)
        distance.write(source, 0.0, thread)

        queue = deque([source])
        while queue:
            node = queue.popleft()
            stack.append(node)
            node_distance = distance.read(node, thread)
            node_sigma = sigma.read(node, thread)
            for neighbour in _neighbors(row_array, col_array, node, thread):
                if distance.read(neighbour, thread) < 0.0:
                    distance.write(neighbour, node_distance + 1.0, thread)
                    queue.append(neighbour)
                if distance.read(neighbour, thread) == node_distance + 1.0:
                    sigma.write(neighbour, sigma.read(neighbour, thread) + node_sigma,
                                thread)
                    predecessors[neighbour].append(node)
                recorder.compute(4)

        while stack:
            node = stack.pop()
            for predecessor in predecessors[node]:
                share = (sigma.read(predecessor, thread) /
                         max(sigma.read(node, thread), 1.0)) * \
                    (1.0 + delta.read(node, thread))
                delta.write(predecessor, delta.read(predecessor, thread) + share, thread)
                recorder.compute(4)
            if node != source:
                centrality.write(node, centrality.read(node, thread) +
                                 delta.read(node, thread), thread)


# -- caching.py, lulesh.py, micro.py ------------------------------------------
def memcached(w: MemcachedWorkload, recorder: TraceRecorder) -> None:
    rng = w._rng
    table_keys = recorder.alloc(w.table_slots, "table_keys")
    table_values = recorder.alloc(w.table_slots, "table_values")
    statistics = recorder.alloc(4, "stats")

    ranks = np.arange(1, w.keys + 1, dtype=float)
    weights = 1.0 / np.power(ranks, w.zipf_exponent)
    weights /= weights.sum()
    key_stream = rng.choice(w.keys, size=w.requests, p=weights) + 1
    op_stream = rng.random(w.requests) < w.get_fraction

    for request_index, thread in schedule(w, w.requests):
        key = int(key_stream[request_index])
        is_get = bool(op_stream[request_index])
        slot = (key * 2654435761) % w.table_slots
        recorder.compute(6)
        for probe in range(8):
            probe_slot = (slot + probe) % w.table_slots
            stored = table_keys.read(probe_slot, thread)
            recorder.compute(2)
            if stored == float(key):  # repro-lint: disable=REP004
                if is_get:
                    table_values.read(probe_slot, thread)
                    statistics.write(0, statistics.read(0, thread) + 1.0, thread)
                else:
                    table_values.write(probe_slot, float(key) * 3.0 + 1.0, thread)
                    statistics.write(1, statistics.read(1, thread) + 1.0, thread)
                break
            if stored == 0.0:  # repro-lint: disable=REP004
                table_keys.write(probe_slot, float(key), thread)
                table_values.write(probe_slot, float(key) * 3.0 + 1.0, thread)
                statistics.write(2, statistics.read(2, thread) + 1.0, thread)
                break
        recorder.compute(4)


def lulesh(w: LuleshWorkload, recorder: TraceRecorder) -> None:
    rng = w._rng
    n = w.edge
    num_elements = n * n * n
    energy = recorder.alloc(num_elements, "energy")
    pressure = recorder.alloc(num_elements, "pressure")
    volume = recorder.alloc(num_elements, "volume")
    compute_cost = w.COMPUTE_PER_POINT[w.optimization]

    for i in range(num_elements):
        energy.write(i, abs(rng.normal()) + 1.0)
        volume.write(i, 1.0)

    def element(x: int, y: int, z: int) -> int:
        return (x * n + y) * n + z

    for _step in range(w.steps):
        for x, thread in schedule(w, n):
            for y in range(n):
                for z in range(n):
                    index = element(x, y, z)
                    local_energy = energy.read(index, thread)
                    neighbours = 0.0
                    for dx, dy, dz in ((1, 0, 0), (-1, 0, 0), (0, 1, 0),
                                       (0, -1, 0), (0, 0, 1), (0, 0, -1)):
                        nx = min(max(x + dx, 0), n - 1)
                        ny = min(max(y + dy, 0), n - 1)
                        nz = min(max(z + dz, 0), n - 1)
                        neighbours += energy.read(element(nx, ny, nz), thread)
                    recorder.compute(compute_cost)
                    new_pressure = 0.4 * local_energy + 0.05 * neighbours
                    pressure.write(index, new_pressure, thread)
                    volume.write(index, volume.read(index, thread) *
                                 (1.0 - 0.001 * new_pressure), thread)
        for x, thread in schedule(w, n):
            for y in range(n):
                for z in range(n):
                    index = element(x, y, z)
                    energy.write(index, energy.read(index, thread) -
                                 0.01 * pressure.read(index, thread), thread)
                    recorder.compute(compute_cost // 2 + 1)
        if w.threads > 1:
            recorder.compute(80 * w.threads)


def data_pattern(w: DataPatternWorkload, recorder: TraceRecorder) -> None:
    rng = w._rng
    buffer = recorder.alloc(w.words, "pattern_buffer")

    for index in range(w.words):
        if w.pattern == "random":
            value = float(rng.integers(0, 2 ** 52))
        elif w.pattern == "solid":
            value = 0.0
        else:
            value = float(0x5555555555555 if index % 2 == 0 else 0xAAAAAAAAAAAAA)
        buffer.write(index, value)
        recorder.compute(1)

    for _sweep in range(w.sweeps):
        recorder.compute(w.idle_instructions)
        for index in range(w.words):
            buffer.read(index)
            recorder.compute(1)


KERNELS: Dict[Type[Workload], Callable[..., None]] = {
    BackpropWorkload: backprop,
    KmeansWorkload: kmeans,
    NeedlemanWunschWorkload: nw,
    SradWorkload: srad,
    FmmWorkload: fmm,
    PagerankWorkload: pagerank,
    BfsWorkload: bfs,
    BetweennessCentralityWorkload: bc,
    MemcachedWorkload: memcached,
    LuleshWorkload: lulesh,
    DataPatternWorkload: data_pattern,
}


class KeepingRecorder(TraceRecorder):
    """A :class:`TraceRecorder` that keeps every array it allocates, in order."""

    def __init__(self) -> None:
        super().__init__()
        self.arrays: List[InstrumentedArray] = []

    def alloc(self, num_words: int, name: str = "") -> InstrumentedArray:
        allocation = super().alloc(num_words, name)
        self.arrays.append(allocation)
        return allocation


def run_scalar(workload: Workload, recorder: TraceRecorder) -> TraceRecorder:
    """Run ``workload``'s scalar kernel from a fresh seed into ``recorder``."""
    workload._rng = np.random.default_rng(workload.seed)
    KERNELS[type(workload)](workload, recorder)
    return recorder


def record_scalar_trace(workload: Workload) -> TraceRecorder:
    """The oracle of ``workload.record_trace()``."""
    return run_scalar(workload, TraceRecorder())
