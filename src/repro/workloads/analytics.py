"""Graph-analytics benchmarks: pagerank, bfs and betweenness centrality.

The paper runs these with the Ligra/GraphGrind frameworks on 8 GB
inputs; here they operate on synthetic scale-free (Barabási–Albert)
graphs stored in instrumented CSR arrays, so the access trace has the
irregular, index-chasing character of real graph analytics.
"""

from __future__ import annotations

import random
from collections import deque
from typing import List, Set, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.workloads.base import (
    InstrumentedArray,
    TraceRecorder,
    Workload,
    interleave,
    running_sums,
    sequence,
)


def barabasi_albert_neighbours(nodes: int, attach: int, seed: int) -> List[List[int]]:
    """Sorted neighbour lists of a Barabási–Albert preferential-attachment graph.

    The same graph as networkx 3.6.1's ``barabasi_albert_graph(nodes,
    attach, seed)``, drawn from the same ``random.Random(seed)`` stream: a
    star on ``attach + 1`` nodes, then each new node links to ``attach``
    distinct targets drawn from the degree-weighted (repeated) node list.
    """
    if not 1 <= attach < nodes:
        raise WorkloadError(f"Barabási–Albert graph needs 1 <= attach < nodes, "
                            f"got attach={attach}, nodes={nodes}")
    rng = random.Random(seed)
    neighbours: List[Set[int]] = [set() for _ in range(nodes)]
    repeated = [0] * attach + list(range(1, attach + 1))
    for spoke in range(1, attach + 1):
        neighbours[0].add(spoke)
        neighbours[spoke].add(0)
    for source in range(attach + 1, nodes):
        targets: Set[int] = set()
        while len(targets) < attach:
            targets.add(rng.choice(repeated))
        for target in targets:
            neighbours[source].add(target)
            neighbours[target].add(source)
        repeated.extend(targets)
        repeated.extend([source] * attach)
    return [sorted(adjacent) for adjacent in neighbours]


class _GraphWorkload(Workload):
    """Shared CSR setup for the graph benchmarks."""

    suite = "graph"
    suffix_parallel = False   #: always run with 8 threads under their plain name

    def __init__(self, threads: int = 1, seed: int = 23, nodes: int = 320,
                 attach_edges: int = 3, **kwargs: int) -> None:
        super().__init__(threads=threads, seed=seed, **kwargs)
        self.nodes = nodes
        self.attach_edges = attach_edges

    def _csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """Row-pointer / column-index CSR arrays of the workload's graph."""
        neighbours = barabasi_albert_neighbours(self.nodes, self.attach_edges, self.seed)
        row_ptr = np.cumsum([0] + [len(adjacent) for adjacent in neighbours])
        col_idx = np.array([node for adjacent in neighbours for node in adjacent],
                           dtype=np.int64)
        return row_ptr, col_idx

    def _load_graph(self, recorder: TraceRecorder) -> Tuple[InstrumentedArray, InstrumentedArray]:
        """Generate the graph and store it into instrumented CSR arrays."""
        row_ptr, col_idx = self._csr()
        row_array = recorder.alloc(len(row_ptr), "row_ptr")
        col_array = recorder.alloc(max(len(col_idx), 1), "col_idx")
        row_array.fill(row_ptr)
        recorder.record_block(col_array.store(np.arange(len(col_idx)), col_idx))
        return row_array, col_array

    def _neighbors(self, row_array, col_array, node: int, thread: int) -> List[int]:
        start = int(row_array.read(node, thread))
        end = int(row_array.read(node + 1, thread))
        return [int(col_array.read(i, thread)) for i in range(start, end)]


class PagerankWorkload(_GraphWorkload):
    """Power-iteration PageRank."""

    name = "pagerank"
    description = "Push-style PageRank power iterations over a scale-free graph"

    def __init__(self, threads: int = 8, iterations: int = 4, damping: float = 0.85,
                 **kwargs: int) -> None:
        super().__init__(threads=threads, **kwargs)
        self.iterations = iterations
        self.damping = damping

    def run(self, recorder: TraceRecorder) -> None:
        row_array, col_array = self._load_graph(recorder)
        ranks = recorder.alloc(self.nodes, "ranks")
        new_ranks = recorder.alloc(self.nodes, "new_ranks")
        degrees = recorder.alloc(self.nodes, "degrees")

        node = np.arange(self.nodes)[:, None]
        start, end = row_array.values[:-1].astype(np.int64), row_array.values[1:].astype(np.int64)
        recorder.record_block(sequence(
            ranks.store(node, 1.0 / self.nodes), row_array.load(node), row_array.load(node + 1),
            degrees.store(node, np.maximum(end - start, 1)[:, None], compute=3)))

        # Per node: rank, degree, the CSR row bounds, every neighbour index,
        # then one read-modify-write of new_ranks per neighbour; rows are
        # padded to the largest degree and masked.
        slot = np.arange(int((end - start).max()))
        for _iteration in range(self.iterations):
            new_ranks.fill((1.0 - self.damping) / self.nodes)
            order, threads = self.interleaved_schedule(self.nodes)
            row = order[:, None]
            present = start[row] + slot < end[row]
            edge = np.where(present, start[row] + slot, 0)
            neighbour = col_array.values[edge].astype(np.int64)
            contribution = self.damping * ranks.values[row] / degrees.values[row]
            pushes = np.zeros(present.shape + (2,))
            before, after, totals = running_sums(
                neighbour[present], np.broadcast_to(contribution, present.shape)[present],
                new_ranks.values)
            pushes[present] = np.stack([before, after], axis=1)
            recorder.record_block(sequence(
                ranks.load(row), degrees.load(row, compute=3),
                row_array.load(row), row_array.load(row + 1), col_array.load(edge),
                interleave(new_ranks.load(neighbour, pushes[:, :, 0]),
                           new_ranks.store(neighbour, pushes[:, :, 1], compute=2)),
            ), threads[:, None], np.hstack([np.ones((self.nodes, 4), dtype=bool), present,
                                            np.repeat(present, 2, axis=1)]))
            new_ranks.values[:] = totals
            recorder.record_block(interleave(new_ranks.load(node),
                                             ranks.store(node, new_ranks.values[node])))
            if self.threads > 1:
                recorder.compute(100 * self.threads)


class BfsWorkload(_GraphWorkload):
    """Breadth-first search from a single source."""

    name = "bfs"
    description = "Level-synchronous BFS over a scale-free graph"

    def __init__(self, threads: int = 8, **kwargs: int) -> None:
        super().__init__(threads=threads, **kwargs)

    def run(self, recorder: TraceRecorder) -> None:
        row_array, col_array = self._load_graph(recorder)
        distances = recorder.alloc(self.nodes, "distances")
        distances.fill(-1.0)

        distances.write(0, 0.0)
        frontier = [0]
        level = 0
        while frontier:
            next_frontier: List[int] = []
            order, threads = self.interleaved_schedule(len(frontier))
            for index, thread in zip(order.tolist(), threads.tolist()):
                node = frontier[index]
                for neighbour in self._neighbors(row_array, col_array, node, thread):
                    if distances.read(neighbour, thread) < 0.0:
                        distances.write(neighbour, float(level + 1), thread)
                        next_frontier.append(neighbour)
                    recorder.compute(2)
            frontier = next_frontier
            level += 1
            if self.threads > 1:
                recorder.compute(60 * self.threads)


class BetweennessCentralityWorkload(_GraphWorkload):
    """Brandes betweenness centrality from a sample of source vertices."""

    name = "bc"
    description = "Brandes BC accumulation from sampled sources"

    def __init__(self, threads: int = 8, sources: int = 5, **kwargs: int) -> None:
        kwargs.setdefault("nodes", 220)
        super().__init__(threads=threads, **kwargs)
        self.sources = sources

    def run(self, recorder: TraceRecorder) -> None:
        row_array, col_array = self._load_graph(recorder)
        centrality = recorder.alloc(self.nodes, "centrality")
        sigma = recorder.alloc(self.nodes, "sigma")
        distance = recorder.alloc(self.nodes, "distance")
        delta = recorder.alloc(self.nodes, "delta")

        centrality.fill(0.0)
        nodes = np.arange(self.nodes)[:, None]

        source_nodes = list(range(0, self.nodes, max(1, self.nodes // self.sources)))[: self.sources]
        order, threads = self.interleaved_schedule(len(source_nodes))
        for source_index, thread in zip(order.tolist(), threads.tolist()):
            source = source_nodes[source_index]
            stack: List[int] = []
            predecessors: List[List[int]] = [[] for _ in range(self.nodes)]
            recorder.record_block(interleave(sigma.store(nodes, 0.0), distance.store(nodes, -1.0),
                                             delta.store(nodes, 0.0)), thread)
            sigma.write(source, 1.0, thread)
            distance.write(source, 0.0, thread)

            queue = deque([source])
            while queue:
                node = queue.popleft()
                stack.append(node)
                node_distance = distance.read(node, thread)
                node_sigma = sigma.read(node, thread)
                for neighbour in self._neighbors(row_array, col_array, node, thread):
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
