"""Cache hierarchy + memory channel simulation of an access trace.

The simulation is columnar.  Each level is one :func:`lru_pass` over the
rows that reach it:

* **L1** (private per thread): threads become disjoint groups of sets of
  one pass over every access.  The kernel itself drops rows that repeat
  the previous line of their set (MRU hits that change nothing).
* **L2** (shared): one pass over the L1-miss rows, tracking dirty lines
  so that evictions of written lines become DRAM writes.
* **MCUs/ranks**: every DRAM command is routed through one
  ``np.bincount`` over the :class:`AddressMapper` rank index.

A dirty eviction's DRAM write is accounted to the rank of the *missing*
address, not the victim's, matching the profiles the rest of the
pipeline was calibrated on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro import units
from repro.dram.address_map import AddressMapper
from repro.dram.geometry import DramGeometry, RankLocation
from repro.errors import ConfigurationError
from repro.memsys.access import Trace, as_access_columns
from repro.memsys.cache import (
    CacheConfig,
    lru_pass,
    xgene2_l1_config,
    xgene2_l2_config,
)


@dataclass
class HierarchyStats:
    """Aggregate statistics of simulating one workload trace."""

    total_accesses: int = 0
    read_accesses: int = 0
    write_accesses: int = 0
    l1_accesses: int = 0
    l1_misses: int = 0
    l2_accesses: int = 0
    l2_misses: int = 0
    dram_reads: int = 0
    dram_writes: int = 0
    writebacks: int = 0
    per_mcu_reads: Dict[int, int] = field(default_factory=dict)
    per_mcu_writes: Dict[int, int] = field(default_factory=dict)
    per_rank_accesses: Dict[RankLocation, int] = field(default_factory=dict)

    @property
    def dram_accesses(self) -> int:
        return self.dram_reads + self.dram_writes

    @property
    def l1_miss_rate(self) -> float:
        return self.l1_misses / self.l1_accesses if self.l1_accesses else 0.0

    @property
    def l2_miss_rate(self) -> float:
        return self.l2_misses / self.l2_accesses if self.l2_accesses else 0.0


class MemoryHierarchy:
    """Two-level cache hierarchy in front of the MCUs.

    Every workload access is filtered through a private L1 (per thread)
    and a shared L2; L2 misses and dirty writebacks become DRAM commands
    routed to the MCU that owns the target DIMM.  Each :meth:`simulate`
    call starts from cold caches and zeroed counters.
    """

    def __init__(
        self,
        geometry: Optional[DramGeometry] = None,
        l1_config: Optional[CacheConfig] = None,
        l2_config: Optional[CacheConfig] = None,
        num_threads: int = 1,
    ) -> None:
        if num_threads <= 0:
            raise ConfigurationError("num_threads must be positive")
        self.geometry = geometry or DramGeometry()
        if self.geometry.num_dimms % units.NUM_MCUS != 0:
            raise ConfigurationError("num_dimms must be divisible by the MCU count")
        self.num_threads = num_threads
        self.l1_config = l1_config or xgene2_l1_config()
        self.l2_config = l2_config or xgene2_l2_config()
        self.mapper = AddressMapper(self.geometry)

    def simulate(self, trace: Trace) -> HierarchyStats:
        """Run the whole trace through the hierarchy and collect statistics."""
        columns = as_access_columns(trace)
        address = columns.address
        is_write = columns.is_write
        total = len(columns)
        writes = int(np.count_nonzero(is_write))

        # L1: per-thread sets, one pass over every access.
        l1 = self.l1_config
        lines = address // l1.line_bytes
        threads = columns.thread_id % self.num_threads
        l1_sets = threads * l1.num_sets + lines % l1.num_sets
        l1_miss, _ = lru_pass(l1_sets, lines // l1.num_sets, l1.associativity)
        rows = np.flatnonzero(l1_miss)

        # L2: shared, dirty-tracking when write-back.
        l2 = self.l2_config
        lines = address[rows] // l2.line_bytes
        row_writes = is_write[rows]
        l2_miss, dirty_victim = lru_pass(
            lines % l2.num_sets, lines // l2.num_sets, l2.associativity,
            writes=row_writes if l2.write_back else None,
        )
        read_rows = rows[l2_miss]
        dram_write = dirty_victim if l2.write_back else l2_miss & row_writes
        write_rows = rows[dram_write]

        stats = HierarchyStats(
            total_accesses=total,
            read_accesses=total - writes,
            write_accesses=writes,
            l1_accesses=total,
            l1_misses=int(rows.size),
            l2_accesses=int(rows.size),
            l2_misses=int(read_rows.size),
            dram_reads=int(read_rows.size),
            dram_writes=int(write_rows.size),
            writebacks=int(np.count_nonzero(dirty_victim)),
        )
        self._route(stats, address[read_rows], address[write_rows])
        return stats

    def _route(self, stats: HierarchyStats, read_addresses: np.ndarray,
               write_addresses: np.ndarray) -> None:
        """Per-MCU and per-rank DRAM command counts, in one bincount."""
        num_ranks = self.geometry.num_ranks
        ranks = np.concatenate([
            self.mapper.rank_indices(read_addresses),
            self.mapper.rank_indices(write_addresses) + num_ranks,
        ])
        counts = np.bincount(ranks, minlength=2 * num_ranks).reshape(2, num_ranks)
        reads, writes = counts[0].tolist(), counts[1].tolist()
        stats.per_mcu_reads = {mcu: 0 for mcu in range(units.NUM_MCUS)}
        stats.per_mcu_writes = {mcu: 0 for mcu in range(units.NUM_MCUS)}
        for index, rank in enumerate(self.geometry.iter_ranks()):
            mcu = rank.dimm % units.NUM_MCUS
            stats.per_mcu_reads[mcu] += reads[index]
            stats.per_mcu_writes[mcu] += writes[index]
            stats.per_rank_accesses[rank] = reads[index] + writes[index]
