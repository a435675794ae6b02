"""Physical-address to DRAM-rank mapping.

The memory controller interleaves physical addresses across MCUs
(and hence DIMMs), ranks, banks, rows and columns.  The library needs
only the rank of each DRAM access: fixed-size chunks of consecutive
words rotate across the ranks, which is what spreads a workload's
footprint across every DIMM/rank — and why the paper can report
per-rank WER for every benchmark (Fig. 8).  The full-coordinate form of
the mapping is the oracle ``map_address`` in ``tests/oracles/memsys.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import units
from repro.dram.geometry import DramGeometry
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class AddressMapper:
    """Map byte addresses to the DRAM rank that holds them."""

    geometry: DramGeometry
    interleave_bytes: int = 256     #: contiguous bytes per channel before rotating

    def __post_init__(self) -> None:
        if self.interleave_bytes % units.WORD_BYTES != 0:
            raise ConfigurationError("interleave_bytes must be a multiple of the word size")
        if self.interleave_bytes <= 0:
            raise ConfigurationError("interleave_bytes must be positive")

    @property
    def words_per_interleave(self) -> int:
        return self.interleave_bytes // units.WORD_BYTES

    def rank_indices(self, byte_addresses: np.ndarray) -> np.ndarray:
        """Flat rank index (see :meth:`DramGeometry.rank_index`) of each address.

        Addresses must be non-negative: word ``w`` lands in interleave
        chunk ``w // words_per_interleave``, and chunks rotate across the
        ranks.
        """
        words = (np.asarray(byte_addresses, dtype=np.int64) // units.WORD_BYTES) % \
            self.geometry.total_words
        return (words // self.words_per_interleave) % self.geometry.num_ranks
