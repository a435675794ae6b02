"""Set-associative cache geometry and the columnar LRU kernel.

Used to derive the cache-related program features (L1/L2 accesses and
misses per cycle) and to decide which accesses actually reach DRAM.
:func:`lru_pass` simulates one true-LRU cache level over a whole stream
of (set, tag) rows at once and reports which rows miss and which misses
evict a dirty line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

import numpy as np

from repro.errors import ConfigurationError


@dataclass
class CacheConfig:
    """Geometry of one cache level."""

    size_bytes: int
    associativity: int
    line_bytes: int = 64
    write_back: bool = True

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.associativity <= 0 or self.line_bytes <= 0:
            raise ConfigurationError("cache geometry values must be positive")
        if self.size_bytes % (self.associativity * self.line_bytes) != 0:
            raise ConfigurationError(
                "size_bytes must be a multiple of associativity * line_bytes"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.associativity * self.line_bytes)


def lru_pass(
    sets: np.ndarray,
    tags: np.ndarray,
    associativity: int,
    writes: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Run a stream of accesses through cold true-LRU sets.

    ``sets`` holds small non-negative set indices and ``tags`` the line
    tags, one row per access in program order.  Returns ``(miss,
    dirty_victim)`` boolean masks: ``miss[i]`` when row ``i`` misses,
    ``dirty_victim[i]`` when that miss evicts a line written since it was
    filled.  Without ``writes`` no line is ever dirty (a write-through
    cache), and the pass runs a leaner loop that skips dirty tracking.
    """
    if associativity <= 0:
        raise ConfigurationError("associativity must be positive")
    n = int(np.asarray(sets).size)
    miss = np.zeros(n, dtype=np.bool_)
    dirty_victim = np.zeros(n, dtype=np.bool_)
    if n == 0:
        return miss, dirty_victim
    set_list = np.asarray(sets, dtype=np.int64).tolist()
    tag_list = np.asarray(tags, dtype=np.int64).tolist()
    # Each set is a list of tags from least to most recently used.
    ways: List[List[int]] = [[] for _ in range(max(set_list) + 1)]
    miss_rows: List[int] = []
    if writes is None:
        for row, (s, tag) in enumerate(zip(set_list, tag_list)):
            lru = ways[s]
            if tag in lru:
                if lru[-1] != tag:
                    lru.remove(tag)
                    lru.append(tag)
                continue
            miss_rows.append(row)
            if len(lru) == associativity:
                del lru[0]
            lru.append(tag)
        miss[miss_rows] = True
        return miss, dirty_victim

    write_list = np.asarray(writes, dtype=np.bool_).tolist()
    dirty: List[Set[int]] = [set() for _ in ways]
    victim_rows: List[int] = []
    for row, (s, tag, write) in enumerate(zip(set_list, tag_list, write_list)):
        lru = ways[s]
        if tag in lru:
            if lru[-1] != tag:
                lru.remove(tag)
                lru.append(tag)
            if write:
                dirty[s].add(tag)
            continue
        miss_rows.append(row)
        if len(lru) == associativity:
            victim = lru.pop(0)
            dirty_lines = dirty[s]
            if victim in dirty_lines:
                dirty_lines.remove(victim)
                victim_rows.append(row)
        lru.append(tag)
        if write:
            dirty[s].add(tag)
    miss[miss_rows] = True
    dirty_victim[victim_rows] = True
    return miss, dirty_victim


def xgene2_l1_config() -> CacheConfig:
    """32 KB, 8-way L1 data cache (per core) of the X-Gene2."""
    return CacheConfig(size_bytes=32 * 1024, associativity=8)


def xgene2_l2_config() -> CacheConfig:
    """256 KB, 8-way shared L2 slice of the X-Gene2."""
    return CacheConfig(size_bytes=256 * 1024, associativity=8)
