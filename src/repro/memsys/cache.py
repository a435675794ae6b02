"""Set-associative cache geometry and the columnar LRU kernel.

Used to derive the cache-related program features (L1/L2 accesses and
misses per cycle) and to decide which accesses actually reach DRAM.
:func:`lru_pass` simulates one true-LRU cache level over a whole stream
of (set, tag) rows at once and reports which rows miss and which misses
evict a dirty line.

It runs no per-access loop.  True LRU is a stack algorithm (Mattson et
al., "Evaluation techniques for storage hierarchies", IBM Sys. J. 1970):
a set holds the ``A`` most recently used distinct lines of its stream,
``A`` being the associativity.  So a row hits iff fewer than ``A``
distinct lines of its set were touched since the previous access to its
line, and a miss evicts the ``A``-th most recently used line.  The kernel
sorts rows by set (radix passes), drops rows that repeat their set's
previous line, links each row to the previous and next access of its
line, and decides the rows that need it with bounded backward scans:
O(``A`` x rows) in all.  The per-access oracle is ``SetAssociativeCache``
in ``tests/oracles/memsys.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

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


#: Element bound of one (window x rows) block of a backward scan.
_SCAN_ELEMENTS = 1 << 16


def lru_pass(
    sets: np.ndarray,
    tags: np.ndarray,
    associativity: int,
    writes: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Run a stream of accesses through cold true-LRU sets.

    ``sets`` holds non-negative set indices and ``tags`` the line tags,
    one row per access in program order.  Returns ``(miss, dirty_victim)``
    boolean masks: ``miss[i]`` when row ``i`` misses, ``dirty_victim[i]``
    when that miss evicts a line written since it was filled.  Without
    ``writes`` no line is ever dirty (a write-through cache) and no victim
    is looked up.  Columns that are not 1-D, columns of different lengths
    and negative set indices raise :class:`ConfigurationError`.
    """
    if associativity <= 0:
        raise ConfigurationError("associativity must be positive")
    sets = np.asarray(sets, dtype=np.int64)
    tags = np.asarray(tags, dtype=np.int64)
    if writes is not None:
        writes = np.asarray(writes, dtype=np.bool_)
    if sets.ndim != 1 or tags.shape != sets.shape or (
            writes is not None and writes.shape != sets.shape):
        raise ConfigurationError("sets, tags and writes must be 1-D columns of one length")
    n = sets.size
    if n > np.iinfo(np.int32).max:
        raise ConfigurationError("lru_pass takes fewer than 2**31 rows")
    miss = np.zeros(n, dtype=np.bool_)
    dirty_victim = np.zeros(n, dtype=np.bool_)
    if n == 0:
        return miss, dirty_victim
    if sets.min() < 0:
        raise ConfigurationError("set indices must be non-negative")
    rows, head_writes = _run_heads(sets, tags, writes)
    head_miss, head_dirty = _decide(sets[rows], tags[rows], associativity, head_writes)
    miss[rows[head_miss]] = True
    if head_dirty is not None:
        dirty_victim[rows[head_dirty]] = True
    return miss, dirty_victim


def _run_heads(
    sets: np.ndarray, tags: np.ndarray, writes: Optional[np.ndarray]
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Rows that do not repeat their set's previous line, in set order.

    A repeat is an MRU hit that changes nothing, so only these run heads
    are decided; each carries the OR of its run's ``writes``.  Set order
    is program order within each set.
    """
    order = _stable_order(sets.view(np.uint64))
    set_of = sets[order]
    tag_of = tags[order]
    head = np.ones(order.size, dtype=np.bool_)
    head[1:] = (set_of[1:] != set_of[:-1]) | (tag_of[1:] != tag_of[:-1])
    heads = np.flatnonzero(head)
    head_writes = None if writes is None else np.logical_or.reduceat(writes[order], heads)
    return order[heads], head_writes


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """Stable argsort of unsigned keys, one radix pass per 16-bit digit.

    numpy sorts 16-bit integers stably by radix, in linear time.
    """
    high = int(keys.max())
    order = np.argsort(keys.astype(np.uint16), kind="stable")
    shift = 16
    while high >> shift:
        digits = (keys[order] >> shift).astype(np.uint16)
        order = order[np.argsort(digits, kind="stable")]
        shift += 16
    return order


def _decide(
    set_of: np.ndarray,
    tag_of: np.ndarray,
    associativity: int,
    writes: Optional[np.ndarray],
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """``(miss, dirty_victim)`` of run heads in set order.

    A row with no previous access to its line is a compulsory miss, and a
    row whose previous access is at most ``associativity`` rows back is a
    hit.  Any other row is decided by :func:`_scan_back`.  With
    ``writes``, compulsory misses into a full set are scanned too, to find
    their victim, and ``dirty_victim`` is returned (else ``None``).
    """
    m = set_of.size
    pos = np.arange(m, dtype=np.int32)
    by_line, prev, nxt = _link(set_of, tag_of)
    new_set = np.ones(m, dtype=np.bool_)
    new_set[1:] = set_of[1:] != set_of[:-1]
    set_start = np.maximum.accumulate(np.where(new_set, pos, 0))
    first = prev < 0
    stop = np.where(first, set_start - 1, prev)
    miss = first.copy()
    pending = ~first & (pos - prev > associativity)
    victim = None
    if writes is not None:
        # A compulsory miss evicts a line only once its set holds
        # ``associativity`` lines.
        lines_before = np.cumsum(first, dtype=np.int32)
        pending |= first & (lines_before - lines_before[set_start] >= associativity)
        victim = np.full(m, -1, dtype=np.int32)
    _scan_back(np.flatnonzero(pending).astype(np.int32), stop, nxt, associativity,
               miss, victim)
    if victim is None:
        return miss, None

    # Dirty after each row: a running OR of its line's writes that
    # restarts at each fill (every line's first access is one).
    line_writes = writes[by_line]
    fills = miss[by_line]
    written = np.cumsum(line_writes, dtype=np.int32)
    before_fill = (written - line_writes)[fills]
    dirty = np.empty(m, dtype=np.bool_)
    dirty[by_line] = written > before_fill[np.cumsum(fills) - 1]
    evicts = victim >= 0
    dirty_victim = np.zeros(m, dtype=np.bool_)
    dirty_victim[evicts] = dirty[victim[evicts]]
    return miss, dirty_victim


def _link(
    set_of: np.ndarray, tag_of: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows grouped by line, and each row's previous and next access of its line.

    A row with no previous access gets -1; a line never touched again
    points one past the end.
    """
    m = set_of.size
    by_line = _stable_order((tag_of - tag_of.min()).view(np.uint64)).astype(np.int32)
    line_tag = tag_of[by_line]
    line_set = set_of[by_line]
    same = (line_tag[1:] == line_tag[:-1]) & (line_set[1:] == line_set[:-1])
    earlier = by_line[:-1][same]
    later = by_line[1:][same]
    prev = np.full(m, -1, dtype=np.int32)
    prev[later] = earlier
    nxt = np.full(m, m, dtype=np.int32)
    nxt[earlier] = later
    return by_line, prev, nxt


def _scan_back(
    todo: np.ndarray,
    stop: np.ndarray,
    nxt: np.ndarray,
    associativity: int,
    miss: np.ndarray,
    victim: Optional[np.ndarray],
) -> None:
    """Decide ``todo`` rows by scanning back towards their ``stop`` row.

    Each row counts the rows behind it whose next access is at or after
    it: each is the last touch of a distinct line, most recent first.
    Reaching ``associativity`` of them before ``stop`` marks a miss, and
    the last one counted is its LRU victim (written to ``victim`` when
    given).  Reaching ``stop`` (the previous access) first leaves a hit.
    Every row lies in the scans of at most ``associativity`` hits and as
    many misses, so the work is O(associativity * rows).  The windows
    double (2A, 4A, ... rows, capped at ``_SCAN_ELEMENTS``) and are laid
    out ``(offset, row)`` so that counts add contiguous rows, in blocks
    of at most ``_SCAN_ELEMENTS`` elements.
    """
    hi = todo.copy()  # each row's unscanned rows end before ``hi``
    count = np.zeros(todo.size, dtype=np.int32)
    span = min(2 * associativity, _SCAN_ELEMENTS)
    while todo.size:
        offsets = np.arange(1, span + 1, dtype=np.int32)[:, None]
        block = max(1, _SCAN_ELEMENTS // span)
        more = np.zeros(todo.size, dtype=np.bool_)
        for lo in range(0, todo.size, block):
            part = slice(lo, lo + block)
            row, top, seen = todo[part], hi[part], count[part]
            idx = top - offsets
            last_touch = (idx > stop[row]) & (nxt.take(idx, mode="clip") >= row)
            total = seen + np.add.reduce(last_touch, axis=0, dtype=np.int32)
            full = total >= associativity
            if full.any():
                miss[row[full]] = True
                if victim is not None:
                    ranks = np.cumsum(last_touch[:, full], axis=0, dtype=np.int32)
                    ranks += seen[full]
                    at = np.argmax(ranks >= associativity, axis=0)
                    victim[row[full]] = idx[at, np.flatnonzero(full)]
            more[part] = ~full & (top - span > stop[row] + 1)
            seen[:] = total
        todo, hi, count = todo[more], hi[more] - span, count[more]
        span = min(2 * span, _SCAN_ELEMENTS)


def xgene2_l1_config() -> CacheConfig:
    """32 KB, 8-way L1 data cache (per core) of the X-Gene2."""
    return CacheConfig(size_bytes=32 * 1024, associativity=8)


def xgene2_l2_config() -> CacheConfig:
    """256 KB, 8-way shared L2 slice of the X-Gene2."""
    return CacheConfig(size_bytes=256 * 1024, associativity=8)
