"""Memory access records emitted by instrumented workloads.

A trace has one representation on the hot path: :class:`AccessColumns`,
five parallel numpy columns with one row per dynamic access.  The
per-access :class:`MemoryAccess` object remains the convenient form for
hand-written traces; :meth:`AccessColumns.from_accesses` converts such a
trace once, so the simulators and estimators have a single code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, List, Union

import numpy as np

from repro.errors import ConfigurationError


class AccessType(Enum):
    """Kind of memory operation."""

    READ = "read"
    WRITE = "write"


@dataclass(frozen=True)
class MemoryAccess:
    """One dynamic memory access of a workload.

    ``instruction_index`` is the position of the access in the dynamic
    instruction stream — the quantity DynamoRIO gives the paper for the
    reuse-distance computation (Eq. 4).  ``value`` is the 64-bit data
    written (for writes), used for the data-entropy estimate (Eq. 5).
    """

    address: int
    access_type: AccessType
    instruction_index: int
    value: int = 0
    thread_id: int = 0

    def __post_init__(self) -> None:
        if self.address < 0:
            raise ConfigurationError("address must be non-negative")
        if self.instruction_index < 0:
            raise ConfigurationError("instruction_index must be non-negative")
        if self.thread_id < 0:
            raise ConfigurationError("thread_id must be non-negative")

    @property
    def is_write(self) -> bool:
        return self.access_type is AccessType.WRITE

    @property
    def word_address(self) -> int:
        """Address rounded down to the 64-bit word the access touches."""
        return self.address & ~0x7


@dataclass(frozen=True)
class AccessColumns:
    """A whole access trace as read-only columns, one row per access.

    * ``address`` — int64 byte address;
    * ``is_write`` — bool, True for stores;
    * ``value`` — uint64 raw bit pattern of the loaded/stored 64-bit word;
    * ``instruction_index`` — int64 position in the dynamic instruction
      stream;
    * ``thread_id`` — int64 issuing thread.

    Rows are in program order.  The dataclass holds read-only views of
    the arrays it is given.  Validation (non-negative address,
    instruction index and thread) runs once per column.
    """

    address: np.ndarray
    is_write: np.ndarray
    value: np.ndarray
    instruction_index: np.ndarray
    thread_id: np.ndarray

    def __post_init__(self) -> None:
        dtypes = {
            "address": np.int64, "is_write": np.bool_, "value": np.uint64,
            "instruction_index": np.int64, "thread_id": np.int64,
        }
        size = None
        for name, dtype in dtypes.items():
            column = np.asarray(getattr(self, name)).view()
            if column.dtype != dtype or column.ndim != 1:
                raise ConfigurationError(
                    f"{name} must be a 1-D {np.dtype(dtype).name} column"
                )
            if size is None:
                size = column.size
            elif column.size != size:
                raise ConfigurationError("access columns must have equal lengths")
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        for name in ("address", "instruction_index", "thread_id"):
            column = getattr(self, name)
            if column.size and column.min() < 0:
                raise ConfigurationError(f"{name} must be non-negative")

    def __len__(self) -> int:
        return int(self.address.size)

    @property
    def word_address(self) -> np.ndarray:
        """Addresses rounded down to the 64-bit word each access touches."""
        return self.address & ~0x7

    @classmethod
    def from_accesses(cls, accesses: Iterable[MemoryAccess]) -> "AccessColumns":
        """Columns of an object trace, in iteration order."""
        rows: List[MemoryAccess] = list(accesses)
        return cls(
            address=np.array([a.address for a in rows], dtype=np.int64),
            is_write=np.array([a.is_write for a in rows], dtype=np.bool_),
            value=np.array([a.value for a in rows], dtype=np.uint64),
            instruction_index=np.array([a.instruction_index for a in rows], dtype=np.int64),
            thread_id=np.array([a.thread_id for a in rows], dtype=np.int64),
        )


#: Anything the simulators accept as a trace.
Trace = Union[AccessColumns, Iterable[MemoryAccess]]


def as_access_columns(trace: Trace) -> AccessColumns:
    """``trace`` itself if columnar, else its one-time columnar conversion."""
    if isinstance(trace, AccessColumns):
        return trace
    return AccessColumns.from_accesses(trace)
