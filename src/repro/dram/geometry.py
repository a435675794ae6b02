"""DRAM geometry: DIMMs, ranks, banks, rows and columns.

The experimental platform has four DDR3 DIMMs (one per MCU), each with
two ranks of nine x8 chips (eight data chips plus one ECC chip).  The
geometry objects here provide the rank arithmetic shared by the address
mapper, the variation profile and the statistical error model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro import units
from repro.errors import ConfigurationError


@dataclass(frozen=True, order=True)
class RankLocation:
    """A (dimm, rank) pair — the granularity of reliability variation."""

    dimm: int
    rank: int

    def __post_init__(self) -> None:
        if self.dimm < 0 or self.rank < 0:
            raise ConfigurationError("dimm and rank indices must be non-negative")

    @property
    def label(self) -> str:
        """Human readable label matching the paper's figures, e.g. ``DIMM2/rank0``."""
        return f"DIMM{self.dimm}/rank{self.rank}"

    def __str__(self) -> str:
        return self.label


@dataclass(frozen=True)
class DramGeometry:
    """Shape of the memory system used for characterisation."""

    num_dimms: int = units.NUM_MCUS * units.DIMMS_PER_MCU
    ranks_per_dimm: int = units.RANKS_PER_DIMM
    banks_per_rank: int = 8
    rows_per_bank: int = 65536
    columns_per_row: int = 1024
    word_bytes: int = units.WORD_BYTES

    def __post_init__(self) -> None:
        for name in ("num_dimms", "ranks_per_dimm", "banks_per_rank", "rows_per_bank",
                     "columns_per_row", "word_bytes"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")

    # -- counts -----------------------------------------------------------
    @property
    def num_ranks(self) -> int:
        return self.num_dimms * self.ranks_per_dimm

    @property
    def words_per_bank(self) -> int:
        return self.rows_per_bank * self.columns_per_row

    @property
    def words_per_rank(self) -> int:
        return self.banks_per_rank * self.words_per_bank

    @property
    def total_words(self) -> int:
        return self.num_ranks * self.words_per_rank

    # -- iteration / addressing --------------------------------------------
    def iter_ranks(self) -> Iterator[RankLocation]:
        """All (dimm, rank) pairs in platform order."""
        for dimm in range(self.num_dimms):
            for rank in range(self.ranks_per_dimm):
                yield RankLocation(dimm, rank)

    def rank_index(self, location: RankLocation) -> int:
        """Flat index of a rank (0 .. num_ranks-1)."""
        self.validate_rank(location)
        return location.dimm * self.ranks_per_dimm + location.rank

    def rank_from_index(self, index: int) -> RankLocation:
        """Inverse of :meth:`rank_index`."""
        if not 0 <= index < self.num_ranks:
            raise ConfigurationError(f"rank index {index} out of range")
        return RankLocation(index // self.ranks_per_dimm, index % self.ranks_per_dimm)

    def validate_rank(self, location: RankLocation) -> None:
        if location.dimm >= self.num_dimms or location.rank >= self.ranks_per_dimm:
            raise ConfigurationError(
                f"{location.label} outside geometry with {self.num_dimms} DIMMs x "
                f"{self.ranks_per_dimm} ranks"
            )
