"""Tests for access columns, the LRU kernel and the memory-hierarchy model.

``SetAssociativeCache`` and ``MemoryChannelSystem`` are the per-access
oracles in ``tests/oracles``; their unit tests live here next to the
columnar kernel they pin.
"""

import numpy as np
import pytest

from repro.dram.address_map import AddressMapper
from repro.dram.geometry import DramGeometry
from repro.errors import ConfigurationError
from repro.memsys.access import AccessColumns, AccessType, MemoryAccess
from repro.memsys.cache import CacheConfig, lru_pass, xgene2_l1_config
from repro.memsys.hierarchy import MemoryHierarchy

from tests.oracles.cells import small_geometry
from tests.oracles.memsys import MemoryChannelSystem, SetAssociativeCache, map_address


def make_access(address, write=False, index=0, thread=0):
    return MemoryAccess(
        address=address,
        access_type=AccessType.WRITE if write else AccessType.READ,
        instruction_index=index,
        value=0,
        thread_id=thread,
    )


class TestMemoryAccess:
    def test_word_address_alignment(self):
        assert make_access(17).word_address == 16

    def test_negative_address_rejected(self):
        with pytest.raises(ConfigurationError):
            make_access(-1)

    def test_read_write_flags(self):
        assert make_access(0, write=True).is_write
        assert not make_access(0, write=False).is_write


class TestAccessColumns:
    def test_from_accesses_round_trips_every_field(self):
        trace = [make_access(64, write=True, index=3, thread=2), make_access(9, index=7)]
        columns = AccessColumns.from_accesses(trace)
        assert len(columns) == 2
        assert columns.address.tolist() == [64, 9]
        assert columns.is_write.tolist() == [True, False]
        assert columns.instruction_index.tolist() == [3, 7]
        assert columns.thread_id.tolist() == [2, 0]
        assert columns.word_address.tolist() == [64, 8]

    def test_columns_are_read_only(self):
        columns = AccessColumns.from_accesses([make_access(0)])
        with pytest.raises(ValueError):
            columns.address[0] = 8

    def test_negative_thread_rejected_once_per_column(self):
        ints = np.zeros(2, dtype=np.int64)
        with pytest.raises(ConfigurationError):
            AccessColumns(
                address=ints, is_write=np.zeros(2, dtype=bool),
                value=np.zeros(2, dtype=np.uint64), instruction_index=ints,
                thread_id=np.array([0, -1], dtype=np.int64),
            )

    def test_mismatched_lengths_and_dtypes_rejected(self):
        ints = np.zeros(2, dtype=np.int64)
        with pytest.raises(ConfigurationError):
            AccessColumns(address=ints, is_write=np.zeros(2, dtype=bool),
                          value=np.zeros(2, dtype=np.uint64), instruction_index=ints,
                          thread_id=np.zeros(3, dtype=np.int64))
        with pytest.raises(ConfigurationError):
            AccessColumns(address=ints.astype(float), is_write=np.zeros(2, dtype=bool),
                          value=np.zeros(2, dtype=np.uint64), instruction_index=ints,
                          thread_id=ints)


class TestLruPass:
    def test_lru_eviction_and_dirty_victims(self):
        # One 2-way set: lines 0, 1, touch 0, then 2 evicts 1 (clean), then 1
        # evicts 0 (dirty from the first write).
        tags = np.array([0, 1, 0, 2, 1])
        writes = np.array([True, False, False, False, False])
        miss, dirty = lru_pass(np.zeros(5, dtype=np.int64), tags, 2, writes=writes)
        assert miss.tolist() == [True, True, False, True, True]
        assert dirty.tolist() == [False, False, False, False, True]

    def test_sets_are_independent(self):
        miss, dirty = lru_pass(np.array([0, 1, 0, 1]), np.array([5, 5, 5, 6]), 1)
        assert miss.tolist() == [True, True, False, True]
        assert not dirty.any()

    def test_empty_stream(self):
        miss, dirty = lru_pass(np.array([], dtype=np.int64), np.array([], dtype=np.int64), 4)
        assert miss.size == dirty.size == 0


class TestAddressMapperColumns:
    @pytest.mark.parametrize("geometry", [DramGeometry(), small_geometry()])
    def test_rank_indices_match_scalar_mapping(self, geometry):
        mapper = AddressMapper(geometry)
        rng = np.random.default_rng(3)
        addresses = rng.integers(0, 4 * geometry.total_words * geometry.word_bytes, size=500)
        expected = [
            geometry.rank_index(map_address(mapper, int(a)).rank_location) for a in addresses
        ]
        assert mapper.rank_indices(addresses).tolist() == expected


class TestSetAssociativeCache:
    def test_first_access_misses_then_hits(self):
        cache = SetAssociativeCache(CacheConfig(size_bytes=1024, associativity=2))
        assert cache.access(0x100) is False
        assert cache.access(0x100) is True
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1

    def test_lru_eviction(self):
        # 2-way cache: three lines mapping to the same set evict the oldest.
        config = CacheConfig(size_bytes=2 * 64, associativity=2, line_bytes=64)
        cache = SetAssociativeCache(config)
        assert config.num_sets == 1
        cache.access(0 * 64)
        cache.access(1 * 64)
        cache.access(0 * 64)          # touch line 0 so line 1 is LRU
        cache.access(2 * 64)          # evicts line 1
        assert cache.access(0 * 64) is True
        assert cache.access(1 * 64) is False

    def test_dirty_eviction_counts_writeback(self):
        config = CacheConfig(size_bytes=2 * 64, associativity=2, line_bytes=64)
        cache = SetAssociativeCache(config)
        cache.access(0, is_write=True)
        cache.access(64)
        cache.access(128)             # evicts dirty line 0
        assert cache.stats.writebacks == 1

    def test_flush_reports_dirty_lines(self):
        cache = SetAssociativeCache(CacheConfig(size_bytes=1024, associativity=4))
        cache.access(0, is_write=True)
        cache.access(64, is_write=False)
        assert cache.flush() == 1

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(size_bytes=1000, associativity=3, line_bytes=64)

    def test_xgene2_config_sizes(self):
        config = xgene2_l1_config()
        assert config.size_bytes == 32 * 1024
        assert config.num_sets == 64

    def test_miss_rate_property(self):
        cache = SetAssociativeCache(CacheConfig(size_bytes=1024, associativity=2))
        cache.access(0)
        cache.access(0)
        assert cache.stats.miss_rate == pytest.approx(0.5)


class TestMemoryChannelSystem:
    def test_accesses_are_spread_over_mcus(self):
        channels = MemoryChannelSystem(DramGeometry())
        for i in range(64):
            channels.access(i * 256, is_write=(i % 2 == 0))
        per_mcu = channels.per_mcu_commands()
        assert len(per_mcu) == 4
        assert all(stats.total_commands > 0 for stats in per_mcu.values())
        assert channels.total_commands() == 64

    def test_rank_accesses_accounted(self):
        channels = MemoryChannelSystem(DramGeometry())
        for i in range(128):
            channels.access(i * 256, is_write=False)
        assert sum(channels.rank_accesses.values()) == 128
        assert all(count > 0 for count in channels.rank_accesses.values())

    def test_reset_clears_counters(self):
        channels = MemoryChannelSystem(DramGeometry())
        channels.access(0, is_write=True)
        channels.reset()
        assert channels.total_commands() == 0


class TestMemoryHierarchy:
    def _trace(self, num_lines, repeats=2, stride=64):
        trace = []
        index = 0
        for _ in range(repeats):
            for line in range(num_lines):
                index += 1
                trace.append(make_access(line * stride, write=(line % 4 == 0), index=index))
        return trace

    def test_small_working_set_hits_in_l1(self):
        hierarchy = MemoryHierarchy()
        stats = hierarchy.simulate(self._trace(num_lines=16, repeats=10))
        assert stats.l1_miss_rate < 0.2
        assert stats.dram_accesses <= 16 * 2

    def test_streaming_working_set_reaches_dram(self):
        hierarchy = MemoryHierarchy()
        # 64 MiB of distinct lines cannot fit in 32 KB + 256 KB of cache.
        stats = hierarchy.simulate(self._trace(num_lines=4096, repeats=2, stride=16384))
        assert stats.dram_reads > 0
        assert stats.l2_miss_rate > 0.5

    def test_per_thread_l1_caches(self):
        hierarchy = MemoryHierarchy(num_threads=2)
        trace = [make_access(0, index=1, thread=0), make_access(0, index=2, thread=1)]
        stats = hierarchy.simulate(trace)
        # Each thread has its own L1, so the second access misses L1 but hits L2.
        assert stats.l1_misses == 2
        assert stats.l2_misses == 1

    def test_totals_are_consistent(self):
        hierarchy = MemoryHierarchy()
        trace = self._trace(num_lines=64, repeats=3)
        stats = hierarchy.simulate(trace)
        assert stats.total_accesses == len(trace)
        assert stats.read_accesses + stats.write_accesses == stats.total_accesses
        assert stats.dram_accesses == stats.dram_reads + stats.dram_writes
        assert sum(stats.per_rank_accesses.values()) == stats.dram_accesses

    def test_invalid_thread_count_rejected(self):
        with pytest.raises(ConfigurationError):
            MemoryHierarchy(num_threads=0)
