"""Compute-intensive benchmarks (Rodinia / Parsec miniatures).

Each class re-implements the algorithmic core of the original benchmark
on instrumented arrays: ``backprop`` (neural-network training), ``kmeans``
(clustering), ``nw`` (Needleman-Wunsch sequence alignment), ``srad``
(speckle-reducing anisotropic diffusion stencil) and ``fmm`` (an
N-body solver with a far-field cell approximation).  Every benchmark has
a single-threaded and an 8-thread ``(par)`` variant, selected through the
``threads`` constructor argument exactly as in the paper.
"""

from __future__ import annotations

import math

import numpy as np

from repro.workloads.base import (
    TraceRecorder,
    Workload,
    interleave,
    running_sums,
    sequence,
)


class BackpropWorkload(Workload):
    """Two-layer perceptron training (Rodinia ``backprop``)."""

    name = "backprop"
    suite = "rodinia"
    description = "MLP forward/backward passes over a synthetic data set"

    def __init__(self, threads: int = 1, seed: int = 7,
                 input_size: int = 12, hidden_size: int = 16,
                 samples: int = 28, epochs: int = 2, **kwargs: int) -> None:
        super().__init__(threads=threads, seed=seed, **kwargs)
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.samples = samples
        self.epochs = epochs

    def run(self, recorder: TraceRecorder) -> None:
        rng = self._rng
        n_in, n_hid, samples = self.input_size, self.hidden_size, self.samples
        inputs = recorder.alloc(samples * n_in, "inputs")
        targets = recorder.alloc(samples, "targets")
        w_hidden = recorder.alloc(n_in * n_hid, "w_hidden")
        w_out = recorder.alloc(n_hid, "w_out")
        hidden = recorder.alloc(samples * n_hid, "hidden")

        # Initialisation phase (data set + weights).
        inputs.fill(rng.normal(size=inputs.length), compute=2)
        targets.fill(rng.random(samples))
        w_hidden.fill(rng.normal(size=w_hidden.length) * 0.1)
        w_out.fill(rng.normal(size=n_hid) * 0.1)

        # Forward pass: hidden = sigmoid(W_h . x).  W_h never changes, so a
        # sample's activations are the same in every epoch.
        x = inputs.values.reshape(samples, n_in)
        w_h = w_hidden.values.reshape(n_in, n_hid)
        acc = np.zeros((samples, n_hid))
        for i in range(n_in):            # each dot product sums over i in order
            acc = acc + x[:, i:i + 1] * w_h[i]
        activation = np.array([1.0 / (1.0 + math.exp(-max(min(a, 30.0), -30.0)))
                               for a in acc.ravel().tolist()]).reshape(samples, n_hid)

        # Output + backward pass on the output layer: w_out changes after
        # every sample, so this part walks the samples in schedule order.
        schedules = [self.interleaved_schedule(samples) for _epoch in range(self.epochs)]
        order = np.concatenate([items for items, _threads in schedules])
        threads = np.concatenate([threads for _items, threads in schedules])
        learning_rate = 0.05
        w_before = np.empty((len(order), n_hid))
        w_after = np.empty((len(order), n_hid))
        weights = w_out.values.copy()
        for step, sample in enumerate(order.tolist()):
            w_before[step] = weights
            output = 0.0
            for a, w in zip(activation[sample].tolist(), weights.tolist()):
                output += a * w
            error = targets.values[sample] - output
            weights = weights + learning_rate * (error * activation[sample])
            w_after[step] = weights

        # One row per scheduled sample: for h {for i {x, W_h}, hidden write},
        # for h {hidden, w_out}, target, for h {hidden, w_out, w_out write}.
        sample, unit, feature = order[:, None], np.arange(n_hid), np.arange(n_in)
        hidden_index = sample * n_hid + unit
        recorder.record_block(sequence(
            sequence(
                interleave(inputs.load(sample[:, :, None] * n_in + feature),
                           w_hidden.load(feature * n_hid + unit[:, None], compute=2)),
                hidden.store(hidden_index[:, :, None], activation[order][:, :, None], compute=4),
            ).reshape(len(order), -1),
            interleave(hidden.load(hidden_index), w_out.load(unit, w_before, compute=2)),
            targets.load(sample, compute=3),
            interleave(hidden.load(hidden_index), w_out.load(unit, w_before),
                       w_out.store(unit, w_after, compute=4)),
        ), threads[:, None])
        w_out.values[:] = weights


class KmeansWorkload(Workload):
    """K-means clustering (Rodinia ``kmeans``)."""

    name = "kmeans"
    suite = "rodinia"
    description = "Lloyd iterations over a synthetic point cloud"

    def __init__(self, threads: int = 1, seed: int = 11,
                 points: int = 360, dims: int = 4, clusters: int = 5,
                 iterations: int = 3, **kwargs: int) -> None:
        super().__init__(threads=threads, seed=seed, **kwargs)
        self.points = points
        self.dims = dims
        self.clusters = clusters
        self.iterations = iterations

    def run(self, recorder: TraceRecorder) -> None:
        rng = self._rng
        points, dims, clusters = self.points, self.dims, self.clusters
        data = recorder.alloc(points * dims, "points")
        centroids = recorder.alloc(clusters * dims, "centroids")
        assignments = recorder.alloc(points, "assignments")
        sums = recorder.alloc(clusters * dims, "sums")
        counts = recorder.alloc(clusters, "counts")

        data.fill(rng.normal(size=data.length))
        centroids.fill(rng.normal(size=centroids.length))

        x = data.values.reshape(points, dims)
        dim, cluster = np.arange(dims), np.arange(clusters)[:, None]
        # Per point: for c {for d {x, centroid}}, the assignment, the count
        # read and write, for d {sum read, x, sum write}; each cluster's
        # distance ends with a compare (compute(2) after its last pair).
        distance_compute = np.full((clusters, dims), 3)
        distance_compute[:, -1] += 2
        for _iteration in range(self.iterations):
            sums.fill(0.0)
            counts.fill(0.0)

            order, threads = self.interleaved_schedule(points)
            point, xs = order[:, None], x[order]
            # The centroids are fixed during the sweep; each distance sums
            # over d in order, and the first minimum wins as with `<`.
            diff = xs[:, None, :] - centroids.values.reshape(clusters, dims)
            distance = np.zeros((points, clusters))
            for d in range(dims):
                distance = distance + diff[:, :, d] * diff[:, :, d]
            best = np.argmin(distance, axis=1)[:, None]
            # The counts and sums accumulate in schedule order.
            before, after, totals = running_sums(
                best[:, 0], np.hstack([np.ones((points, 1)), xs]),
                np.hstack([counts.values[:, None], sums.values.reshape(clusters, dims)]))
            sum_index = best * dims + dim
            recorder.record_block(sequence(
                interleave(data.load(point[:, :, None] * dims + dim),
                           centroids.load(cluster * dims + dim, compute=distance_compute),
                           ).reshape(points, -1),
                assignments.store(point, best),
                counts.load(best, before[:, :1]), counts.store(best, after[:, :1]),
                interleave(sums.load(sum_index, before[:, 1:]), data.load(point * dims + dim),
                           sums.store(sum_index, after[:, 1:], compute=1)),
            ), threads[:, None])
            counts.values[:] = totals[:, 0]
            sums.values[:] = totals[:, 1:].ravel()

            # Centroid update (done by one thread after a barrier).
            recorder.compute(200 * self.threads)   # barrier / reduction overhead
            count = np.maximum(counts.values, 1.0)[:, None]
            recorder.record_block(sequence(
                counts.load(cluster),
                interleave(sums.load(cluster * dims + dim),
                           centroids.store(cluster * dims + dim,
                                           sums.values.reshape(clusters, dims) / count, compute=2)),
            ))


class NeedlemanWunschWorkload(Workload):
    """Needleman-Wunsch dynamic-programming alignment (Rodinia ``nw``)."""

    name = "nw"
    suite = "rodinia"
    description = "DP matrix fill for global sequence alignment"

    def __init__(self, threads: int = 1, seed: int = 13, length: int = 88,
                 gap_penalty: float = 2.0, **kwargs: int) -> None:
        super().__init__(threads=threads, seed=seed, **kwargs)
        self.length = length
        self.gap_penalty = gap_penalty

    def run(self, recorder: TraceRecorder) -> None:
        rng = self._rng
        n = self.length
        width = n + 1
        seq_a = recorder.alloc(n, "seq_a")
        seq_b = recorder.alloc(n, "seq_b")
        matrix = recorder.alloc(width * width, "dp_matrix")
        reference = recorder.alloc(width * width, "reference")

        # Rodinia's nw fills both the similarity (reference) matrix and the DP
        # matrix with initial values before the wavefront starts; the long gap
        # between this initialisation and the later use of each cell is what
        # gives nw the largest average DRAM reuse time of the suite (Table II).
        draws = rng.integers(0, 4, size=(n, 2))
        residue = np.arange(n)[:, None]
        recorder.record_block(interleave(seq_a.store(residue, draws[:, :1]),
                                         seq_b.store(residue, draws[:, 1:])))
        cells = np.arange(width * width)[:, None]
        recorder.record_block(interleave(
            reference.store(cells, rng.integers(-2, 3, size=cells.shape)),
            matrix.store(cells, 0.0, compute=1)))
        edge = np.arange(width)[:, None]
        recorder.record_block(interleave(matrix.store(edge * width, -self.gap_penalty * edge),
                                         matrix.store(edge, -self.gap_penalty * edge)))

        # Anti-diagonal wavefront: the unit of parallel work in Rodinia's nw.
        diagonals = np.arange(2, 2 * n + 1)
        first = np.maximum(1, diagonals - n)
        sizes = np.minimum(n, diagonals - 1) - first + 1
        ends = np.cumsum(sizes)
        i = np.arange(int(ends[-1])) - np.repeat(ends - sizes - first, sizes)
        j = np.repeat(diagonals, sizes) - i
        # Per cell: a, b, reference, then the diag, up and left reads and the DP write.
        cell = i * width + j
        reads = np.stack([(i - 1) * width + (j - 1), (i - 1) * width + j, i * width + (j - 1)],
                         axis=1)
        match = np.where(seq_a.values[i - 1] == seq_b.values[j - 1], 1.0, -1.0) + \
            reference.values[cell]
        # Each cell is written once, after the cells it reads: run the DP one
        # diagonal at a time, then every read sees its cell's final value.
        for lo, hi in zip((ends - sizes).tolist(), ends.tolist()):
            diag, up, left = matrix.values[reads[lo:hi].T]
            best = diag + match[lo:hi]
            up = up - self.gap_penalty
            left = left - self.gap_penalty
            best = np.where(up > best, up, best)      # max() keeps the first maximum
            matrix.values[cell[lo:hi]] = np.where(left > best, left, best)

        order, threads = self.interleaved_schedule(sizes)
        i, j, cell = i[order, None], j[order, None], cell[order, None]
        barrier = np.zeros_like(cell)
        if self.threads > 1:
            barrier[ends - 1] = 50 * self.threads   # after each diagonal's last cell
        recorder.record_block(sequence(
            seq_a.load(i - 1), seq_b.load(j - 1), reference.load(cell, compute=2),
            matrix.load(reads[order]), matrix.store(cell, matrix.values[cell], compute=4 + barrier),
        ), threads[:, None])


class SradWorkload(Workload):
    """Speckle-reducing anisotropic diffusion stencil (Rodinia ``srad``)."""

    name = "srad"
    suite = "rodinia"
    description = "Iterative 4-point diffusion stencil over a 2-D image"

    def __init__(self, threads: int = 1, seed: int = 17, rows: int = 44,
                 cols: int = 44, iterations: int = 3, lam: float = 0.5, **kwargs: int) -> None:
        super().__init__(threads=threads, seed=seed, **kwargs)
        self.rows = rows
        self.cols = cols
        self.iterations = iterations
        self.lam = lam

    def run(self, recorder: TraceRecorder) -> None:
        rng = self._rng
        image = recorder.alloc(self.rows * self.cols, "image")
        coefficients = recorder.alloc(self.rows * self.cols, "coefficients")

        image.fill(np.abs(rng.normal(size=image.length)) + 1.0)

        col = np.arange(self.cols)
        for _iteration in range(self.iterations):
            # Both sweeps walk the same schedule; a row's pixels run in order.
            rows, threads = self.interleaved_schedule(self.rows)
            row = rows[:, None]
            thread = np.repeat(threads, self.cols)[:, None]
            stencil = np.stack(np.broadcast_arrays(
                row * self.cols + col,
                np.maximum(row - 1, 0) * self.cols + col,
                np.minimum(row + 1, self.rows - 1) * self.cols + col,
                row * self.cols + np.maximum(col - 1, 0),
                row * self.cols + np.minimum(col + 1, self.cols - 1),
            ), axis=-1).reshape(-1, 5)
            pixel = stencil[:, :1]
            reads = image.load(stencil)
            center, north, south, west, east = reads["value"].T[:, :, None]
            gradient = (north + south + west + east) - 4.0 * center
            coefficient = 1.0 / (1.0 + np.abs(gradient) / np.maximum(center, 1e-6))
            recorder.record_block(sequence(reads, coefficients.store(pixel, coefficient, compute=8)),
                                  thread)
            update = coefficient * self.lam
            recorder.record_block(sequence(
                coefficients.load(pixel), image.load(pixel),
                image.store(pixel, center * (1.0 - 0.1 * update), compute=4),
            ), thread)
            if self.threads > 1:
                recorder.compute(50 * self.threads)   # per-iteration barrier


class FmmWorkload(Workload):
    """N-body solver with a far-field cell approximation (Parsec ``fmm``)."""

    name = "fmm"
    suite = "parsec"
    description = "Particle-particle near field plus particle-cell far field"

    def __init__(self, threads: int = 1, seed: int = 19, particles: int = 176,
                 grid: int = 6, steps: int = 2, **kwargs: int) -> None:
        super().__init__(threads=threads, seed=seed, **kwargs)
        self.particles = particles
        self.grid = grid
        self.steps = steps

    def run(self, recorder: TraceRecorder) -> None:
        rng = self._rng
        n = self.particles
        positions = recorder.alloc(n * 2, "positions")
        masses = recorder.alloc(n, "masses")
        forces = recorder.alloc(n * 2, "forces")
        num_cells = self.grid * self.grid
        cell_mass = recorder.alloc(num_cells, "cell_mass")
        cell_center = recorder.alloc(num_cells * 2, "cell_center")

        particle = np.arange(n)[:, None]
        coordinate = particle * 2 + [0, 1]
        draws = rng.random((n, 3))
        recorder.record_block(sequence(positions.store(coordinate, draws[:, :2]),
                                       masses.store(particle, draws[:, 2:] + 0.5)))

        cells = np.arange(num_cells)[:, None]
        offsets = np.array([-2, -1, 1, 2])
        mass = masses.values
        for _step in range(self.steps):
            # Upward pass: aggregate particles into cells, in particle order.
            recorder.record_block(sequence(cell_mass.store(cells, 0.0),
                                           cell_center.store(cells * 2 + [0, 1], 0.0)))
            x, y = positions.values[0::2].copy(), positions.values[1::2].copy()
            cell = np.minimum((x * self.grid).astype(np.int64), self.grid - 1) * self.grid + \
                np.minimum((y * self.grid).astype(np.int64), self.grid - 1)
            before, after, totals = running_sums(
                cell, np.stack([mass, x * mass, y * mass], axis=1),
                np.hstack([cell_mass.values[:, None], cell_center.values.reshape(num_cells, 2)]))
            cell = cell[:, None]
            recorder.record_block(sequence(
                positions.load(coordinate), masses.load(particle),
                cell_mass.load(cell, before[:, :1]), cell_mass.store(cell, after[:, :1]),
                interleave(cell_center.load(cell * 2 + [0, 1], before[:, 1:]),
                           cell_center.store(cell * 2 + [0, 1], after[:, 1:], compute=[0, 8])),
            ))
            cell_mass.values[:] = totals[:, 0]
            cell_center.values[:] = totals[:, 1:].ravel()

            # Force evaluation: far field from the occupied cells, near field
            # from the particle's neighbours i-2..i+2; both sum in order.
            order, threads = self.interleaved_schedule(n)
            px, py = x[order], y[order]
            fx, fy = np.zeros(n), np.zeros(n)
            occupied = cell_mass.values > 0.0
            for c in np.flatnonzero(occupied).tolist():
                mass_c = cell_mass.values[c]
                dx = cell_center.values[c * 2] / mass_c - px
                dy = cell_center.values[c * 2 + 1] / mass_c - py
                dist_sq = dx * dx + dy * dy + 1e-3
                fx = fx + mass_c * dx / dist_sq
                fy = fy + mass_c * dy / dist_sq
            neighbour = order[:, None] + offsets
            present = (neighbour >= 0) & (neighbour < n)
            neighbour = np.where(present, neighbour, order[:, None])
            for k in range(len(offsets)):
                j = neighbour[:, k]
                dx = x[j] - px
                dy = y[j] - py
                dist_sq = dx * dx + dy * dy + 1e-3
                fx = np.where(present[:, k], fx + mass[j] * dx / dist_sq, fx)
                fy = np.where(present[:, k], fy + mass[j] * dy / dist_sq, fy)

            # Per particle: x, y; per cell its mass, then its centre if it is
            # occupied; per neighbour x, y and its mass twice; the force.
            row, neighbour = order[:, None], neighbour[:, :, None]
            recorder.record_block(sequence(
                positions.load(row * 2 + [0, 1]),
                sequence(cell_mass.load(cells, compute=np.where(occupied, 0, 1)[:, None]),
                         cell_center.load(cells * 2 + [0, 1], compute=[0, 10])).reshape(1, -1),
                sequence(positions.load(neighbour * 2 + [0, 1]), masses.load(neighbour),
                         masses.load(neighbour, compute=10)).reshape(n, -1),
                forces.store(row * 2 + [0, 1], np.stack([fx, fy], axis=1)),
            ), threads[:, None], np.hstack([
                np.ones((n, 2), dtype=bool),
                np.broadcast_to(np.stack([np.ones(num_cells, dtype=bool), occupied, occupied],
                                         axis=1).ravel(), (n, num_cells * 3)),
                np.repeat(present, 4, axis=1), np.ones((n, 2), dtype=bool),
            ]))

            # Position update.
            moved = positions.values + 1e-4 * forces.values
            moved = np.where(0.0 > moved, 0.0, moved)      # min(max(., 0.0), 1.0)
            moved = np.where(1.0 < moved, 1.0, moved)
            recorder.record_block(interleave(
                positions.load(coordinate), forces.load(coordinate),
                positions.store(coordinate, moved.reshape(n, 2), compute=[0, 6])))
