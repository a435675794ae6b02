"""Physical-address to DRAM-coordinate mapping.

The memory controller interleaves physical addresses across MCUs
(and hence DIMMs), ranks, banks, rows and columns.  The mapping below
follows the usual open-page-friendly layout: consecutive cache lines hit
the same row but rotate across channels, which is what spreads a
workload's footprint across every DIMM/rank — and why the paper can
report per-rank WER for every benchmark (Fig. 8).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import units
from repro.dram.geometry import CellLocation, DramGeometry
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class AddressMapper:
    """Map byte addresses to (dimm, rank, bank, row, column) word coordinates."""

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

    def map_address(self, byte_address: int) -> CellLocation:
        """Translate a physical byte address into DRAM word coordinates."""
        if byte_address < 0:
            raise ConfigurationError("byte_address must be non-negative")
        word = (byte_address // units.WORD_BYTES) % self.geometry.total_words

        chunk, offset = divmod(word, self.words_per_interleave)
        rank_index = chunk % self.geometry.num_ranks
        chunk_within_rank = chunk // self.geometry.num_ranks

        word_within_rank = chunk_within_rank * self.words_per_interleave + offset
        word_within_rank %= self.geometry.words_per_rank

        bank, rest = divmod(word_within_rank, self.geometry.words_per_bank)
        row, column = divmod(rest, self.geometry.columns_per_row)

        rank = self.geometry.rank_from_index(rank_index)
        return CellLocation(rank.dimm, rank.rank, bank, row, column)

    def rank_indices(self, byte_addresses: np.ndarray) -> np.ndarray:
        """Flat rank index (see :meth:`DramGeometry.rank_index`) of each address.

        The columnar form of ``map_address(a).rank_location``; addresses
        must be non-negative.
        """
        words = (np.asarray(byte_addresses, dtype=np.int64) // units.WORD_BYTES) % \
            self.geometry.total_words
        return (words // self.words_per_interleave) % self.geometry.num_ranks

    def map_word_index(self, word_index: int) -> CellLocation:
        """Translate a flat word index (address / 8) into coordinates."""
        return self.map_address(word_index * units.WORD_BYTES)

    def footprint_words_per_rank(self, footprint_bytes: int) -> dict:
        """How many words of a contiguous allocation land on each rank.

        The channel interleaving spreads large allocations essentially
        evenly, which matches the paper's observation that every DIMM/rank
        records errors for every benchmark.
        """
        if footprint_bytes < 0:
            raise ConfigurationError("footprint_bytes must be non-negative")
        total_words = footprint_bytes // units.WORD_BYTES
        chunks = total_words // self.words_per_interleave
        remainder_words = total_words % self.words_per_interleave

        base, extra = divmod(chunks, self.geometry.num_ranks)
        counts = {}
        for index, rank in enumerate(self.geometry.iter_ranks()):
            words = base * self.words_per_interleave
            if index < extra:
                words += self.words_per_interleave
            elif index == extra:
                words += remainder_words
            counts[rank] = words
        return counts
