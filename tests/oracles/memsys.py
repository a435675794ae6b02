"""Per-access cache hierarchy: the oracle of ``MemoryHierarchy.simulate``.

``SetAssociativeCache`` keeps one ``OrderedDict`` per set (tag -> dirty
flag, least recently used first), ``MemoryChannelSystem`` maps every
DRAM command through :func:`map_address` (the full-coordinate scalar
form of ``AddressMapper.rank_indices``) one at a time, and
:func:`simulate_objects` walks an object trace through both exactly as
the library did before it became columnar.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from repro import units
from repro.dram.address_map import AddressMapper
from repro.dram.geometry import DramGeometry, RankLocation
from repro.errors import ConfigurationError
from repro.memsys.access import MemoryAccess
from repro.memsys.cache import CacheConfig, xgene2_l1_config, xgene2_l2_config
from repro.memsys.hierarchy import HierarchyStats

from tests.oracles.cells import CellLocation


def map_address(mapper: AddressMapper, byte_address: int) -> CellLocation:
    """Translate a physical byte address into DRAM word coordinates."""
    if byte_address < 0:
        raise ConfigurationError("byte_address must be non-negative")
    geometry = mapper.geometry
    word = (byte_address // units.WORD_BYTES) % geometry.total_words

    chunk, offset = divmod(word, mapper.words_per_interleave)
    rank_index = chunk % geometry.num_ranks
    chunk_within_rank = chunk // geometry.num_ranks

    word_within_rank = chunk_within_rank * mapper.words_per_interleave + offset
    word_within_rank %= geometry.words_per_rank

    bank, rest = divmod(word_within_rank, geometry.words_per_bank)
    row, column = divmod(rest, geometry.columns_per_row)

    rank = geometry.rank_from_index(rank_index)
    return CellLocation(rank.dimm, rank.rank, bank, row, column)


@dataclass
class CacheStats:
    """Hit/miss counters of one cache level."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    writebacks: int = 0

    @property
    def miss_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    @property
    def hit_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses


class SetAssociativeCache:
    """A single cache level with true-LRU replacement.

    ``access`` returns True on a hit.  Dirty evictions are counted as
    writebacks (they become DRAM write traffic in the hierarchy model).
    """

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.config = config
        self.name = name
        self.stats = CacheStats()
        # One LRU-ordered dict per set: line_tag -> dirty flag.
        self._sets: Dict[int, OrderedDict] = {}

    def _locate(self, address: int):
        line = address // self.config.line_bytes
        set_index = line % self.config.num_sets
        tag = line // self.config.num_sets
        return set_index, tag

    def access(self, address: int, is_write: bool = False) -> bool:
        """Perform one access; returns True on hit, False on miss."""
        if address < 0:
            raise ConfigurationError("address must be non-negative")
        set_index, tag = self._locate(address)
        cache_set = self._sets.setdefault(set_index, OrderedDict())
        self.stats.accesses += 1

        if tag in cache_set:
            self.stats.hits += 1
            cache_set.move_to_end(tag)
            if is_write and self.config.write_back:
                cache_set[tag] = True
            return True

        self.stats.misses += 1
        if len(cache_set) >= self.config.associativity:
            _victim_tag, victim_dirty = cache_set.popitem(last=False)
            if victim_dirty:
                self.stats.writebacks += 1
        cache_set[tag] = bool(is_write and self.config.write_back)
        return False

    def reset_stats(self) -> None:
        self.stats = CacheStats()

    def flush(self) -> int:
        """Drop every line; returns the number of dirty lines written back."""
        dirty = sum(1 for s in self._sets.values() for d in s.values() if d)
        self.stats.writebacks += dirty
        self._sets.clear()
        return dirty


@dataclass
class McuStats:
    """Command counters of one MCU."""

    read_commands: int = 0
    write_commands: int = 0

    @property
    def total_commands(self) -> int:
        return self.read_commands + self.write_commands


class MemoryControllerUnit:
    """One memory channel: command accounting for the attached DIMM."""

    def __init__(self, index: int) -> None:
        if index < 0:
            raise ConfigurationError("MCU index must be non-negative")
        self.index = index
        self.stats = McuStats()

    def issue(self, is_write: bool) -> None:
        if is_write:
            self.stats.write_commands += 1
        else:
            self.stats.read_commands += 1

    def reset(self) -> None:
        self.stats = McuStats()


class MemoryChannelSystem:
    """All MCUs plus the per-command address mapping onto DIMMs/ranks."""

    def __init__(
        self,
        geometry: Optional[DramGeometry] = None,
        num_mcus: int = units.NUM_MCUS,
    ) -> None:
        if num_mcus <= 0:
            raise ConfigurationError("num_mcus must be positive")
        self.geometry = geometry or DramGeometry()
        if self.geometry.num_dimms % num_mcus != 0:
            raise ConfigurationError("num_dimms must be divisible by num_mcus")
        self.num_mcus = num_mcus
        self.mcus = [MemoryControllerUnit(i) for i in range(num_mcus)]
        self.mapper = AddressMapper(self.geometry)
        self.rank_accesses: Dict[RankLocation, int] = {
            rank: 0 for rank in self.geometry.iter_ranks()
        }

    def mcu_for_dimm(self, dimm: int) -> MemoryControllerUnit:
        return self.mcus[dimm % self.num_mcus]

    def access(self, address: int, is_write: bool) -> CellLocation:
        """Route one DRAM access; returns the DRAM coordinates it hit."""
        location = map_address(self.mapper, address)
        self.mcu_for_dimm(location.dimm).issue(is_write)
        self.rank_accesses[location.rank_location] += 1
        return location

    def total_commands(self) -> int:
        return sum(mcu.stats.total_commands for mcu in self.mcus)

    def per_mcu_commands(self) -> Dict[int, McuStats]:
        return {mcu.index: mcu.stats for mcu in self.mcus}

    def reset(self) -> None:
        for mcu in self.mcus:
            mcu.reset()
        for rank in self.rank_accesses:
            self.rank_accesses[rank] = 0


def simulate_objects(
    trace: Iterable[MemoryAccess],
    geometry: Optional[DramGeometry] = None,
    l1_config: Optional[CacheConfig] = None,
    l2_config: Optional[CacheConfig] = None,
    num_threads: int = 1,
) -> HierarchyStats:
    """Walk an object trace through private L1s, the shared L2 and the MCUs."""
    if num_threads <= 0:
        raise ConfigurationError("num_threads must be positive")
    l1_config = l1_config or xgene2_l1_config()
    l2_config = l2_config or xgene2_l2_config()
    l1_caches = [SetAssociativeCache(l1_config, name=f"L1-{t}") for t in range(num_threads)]
    l2_cache = SetAssociativeCache(l2_config, name="L2")
    channels = MemoryChannelSystem(geometry or DramGeometry())

    stats = HierarchyStats()
    for access in trace:
        stats.total_accesses += 1
        if access.is_write:
            stats.write_accesses += 1
        else:
            stats.read_accesses += 1

        l1 = l1_caches[access.thread_id % num_threads]
        stats.l1_accesses += 1
        if l1.access(access.address, access.is_write):
            continue
        stats.l1_misses += 1

        stats.l2_accesses += 1
        writebacks_before = l2_cache.stats.writebacks
        if l2_cache.access(access.address, access.is_write):
            continue
        stats.l2_misses += 1

        # L2 miss: fetch the line from DRAM (a read command), and account
        # a write command for the dirty line this miss may have evicted.
        channels.access(access.address, is_write=False)
        stats.dram_reads += 1
        new_writebacks = l2_cache.stats.writebacks - writebacks_before
        if new_writebacks > 0 or (access.is_write and not l2_config.write_back):
            channels.access(access.address, is_write=True)
            stats.dram_writes += 1
            stats.writebacks += new_writebacks

    for index, mcu_stats in channels.per_mcu_commands().items():
        stats.per_mcu_reads[index] = mcu_stats.read_commands
        stats.per_mcu_writes[index] = mcu_stats.write_commands
    stats.per_rank_accesses = dict(channels.rank_accesses)
    return stats
