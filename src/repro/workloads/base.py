"""Workload abstraction and the instrumentation layer.

The paper instruments real benchmarks with DynamoRIO to capture every
memory access (address, read/write, written data) and the dynamic
instruction count.  Here each benchmark is re-implemented as a miniature
Python kernel operating on :class:`InstrumentedArray` objects: real
computations produce a real access trace with real data values, from
which the profiler derives the program-inherent features
(Section III.D).

The trace is columnar from the start.  :class:`TraceRecorder` appends
each access to five ``array.array`` buffers — address (``q``), is_write
(``b``), the loaded/stored float (``d``), instruction index (``q``) and
thread (``q``) — and :attr:`TraceRecorder.columns` turns them into one
frozen :class:`~repro.memsys.access.AccessColumns` of numpy arrays.  The
64-bit word that sits in DRAM is the float column viewed as ``uint64``
(the columnar form of :func:`float_to_word`).

Footprints are miniature (tens of kilobytes instead of the paper's 8 GB)
so that traces stay tractable; the profiler scales footprint-dependent
quantities (reuse time, footprint words) up to the workload's
``nominal_footprint_bytes`` — a documented modelling substitution, see
DESIGN.md.
"""

from __future__ import annotations

import struct
from abc import ABC, abstractmethod
from array import array
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro import units
from repro.errors import WorkloadError
from repro.memsys.access import AccessColumns


def float_to_word(value: float) -> int:
    """Raw 64-bit pattern of a float — what actually sits in DRAM."""
    return struct.unpack("<Q", struct.pack("<d", float(value)))[0]


class InstrumentedArray:
    """A heap allocation whose every element access is recorded.

    Elements are 64-bit words (one float or integer each), matching the
    ECC protection granularity used for the WER metric.
    """

    def __init__(self, recorder: "TraceRecorder", base_address: int, length: int,
                 name: str = "") -> None:
        if length <= 0:
            raise WorkloadError("array length must be positive")
        self._record = recorder.record_access
        self.base_address = base_address
        self.length = length
        self.name = name
        self._data = array("d", bytes(length * units.WORD_BYTES))

    def __len__(self) -> int:
        return self.length

    def _out_of_bounds(self, index: int) -> WorkloadError:
        return WorkloadError(
            f"index {index} out of bounds for array {self.name!r} of length {self.length}"
        )

    def read(self, index: int, thread_id: int = 0) -> float:
        """Load one element, recording the access."""
        if not 0 <= index < self.length:
            raise self._out_of_bounds(index)
        value = self._data[index]
        self._record(self.base_address + index * units.WORD_BYTES, False, value, thread_id)
        return value

    def write(self, index: int, value: float, thread_id: int = 0) -> None:
        """Store one element, recording the access and the written data."""
        if not 0 <= index < self.length:
            raise self._out_of_bounds(index)
        stored = float(value)
        self._data[index] = stored
        self._record(self.base_address + index * units.WORD_BYTES, True, stored, thread_id)

    def raw(self) -> np.ndarray:
        """Un-instrumented view of the data (for result verification only)."""
        return np.frombuffer(self._data, dtype=np.float64)


class TraceRecorder:
    """Collects the dynamic memory-access trace and instruction count."""

    #: virtual base address of the instrumented heap
    HEAP_BASE = 0x1000_0000

    def __init__(self) -> None:
        self.instruction_count = 0
        self.allocated_bytes = 0
        self._next_address = self.HEAP_BASE
        self._addresses = array("q")
        self._writes = array("b")
        self._values = array("d")
        self._instructions = array("q")
        self._threads = array("q")
        self._columns: Optional[AccessColumns] = None

    # -- allocation ---------------------------------------------------------
    def alloc(self, num_words: int, name: str = "") -> InstrumentedArray:
        """Allocate an instrumented array of ``num_words`` 64-bit words."""
        allocation = InstrumentedArray(self, self._next_address, num_words, name=name)
        size = num_words * units.WORD_BYTES
        self._next_address += size
        # Keep allocations page-aligned like a real allocator would.
        remainder = self._next_address % 4096
        if remainder:
            self._next_address += 4096 - remainder
        self.allocated_bytes += size
        return allocation

    # -- event recording ------------------------------------------------------
    def record_access(self, address: int, is_write: bool, value: float,
                      thread_id: int = 0) -> None:
        """Append one access; ``value`` is the float loaded or stored."""
        self.instruction_count += 1
        self._addresses.append(address)
        self._writes.append(is_write)
        self._values.append(value)
        self._instructions.append(self.instruction_count)
        self._threads.append(thread_id)

    def compute(self, instructions: int = 1) -> None:
        """Account non-memory (ALU/branch) instructions."""
        if instructions < 0:
            raise WorkloadError("instruction count cannot be negative")
        self.instruction_count += instructions

    # -- summary ------------------------------------------------------------
    @property
    def columns(self) -> AccessColumns:
        """The trace recorded so far as frozen numpy columns (built once)."""
        if self._columns is None or len(self._columns) != len(self._addresses):
            self._columns = AccessColumns(
                address=np.array(self._addresses, dtype=np.int64),
                is_write=np.array(self._writes, dtype=np.bool_),
                value=np.array(self._values, dtype=np.float64).view(np.uint64),
                instruction_index=np.array(self._instructions, dtype=np.int64),
                thread_id=np.array(self._threads, dtype=np.int64),
            )
        return self._columns

    @property
    def num_accesses(self) -> int:
        return len(self._addresses)

    @property
    def memory_instruction_fraction(self) -> float:
        if self.instruction_count == 0:
            return 0.0
        return self.num_accesses / self.instruction_count


@dataclass(frozen=True)
class WorkloadMetadata:
    """Static description of a workload."""

    name: str
    suite: str                      #: e.g. "rodinia", "parsec", "cloud", "graph", "micro"
    threads: int = 1
    nominal_footprint_bytes: int = units.BENCHMARK_FOOTPRINT_BYTES
    description: str = ""

    @property
    def is_parallel(self) -> bool:
        return self.threads > 1


class Workload(ABC):
    """A benchmark that can be executed to produce an instrumented trace."""

    #: subclasses set these
    name: str = "workload"
    suite: str = "generic"
    description: str = ""
    #: whether the parallel variant is labelled "(par)" in figures; the cloud
    #: and graph benchmarks always run with 8 threads and keep their plain name
    suffix_parallel: bool = True

    def __init__(self, threads: int = 1, seed: int = 7,
                 nominal_footprint_bytes: int = units.BENCHMARK_FOOTPRINT_BYTES) -> None:
        if threads < 1:
            raise WorkloadError("threads must be >= 1")
        self.threads = threads
        self.seed = seed
        self.nominal_footprint_bytes = nominal_footprint_bytes
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    @property
    def metadata(self) -> WorkloadMetadata:
        return WorkloadMetadata(
            name=self.display_name,
            suite=self.suite,
            threads=self.threads,
            nominal_footprint_bytes=self.nominal_footprint_bytes,
            description=self.description,
        )

    @property
    def display_name(self) -> str:
        """Name as used in the paper's figures, e.g. ``backprop(par)``."""
        if self.threads > 1 and self.suffix_parallel:
            return f"{self.name}(par)"
        return self.name

    @abstractmethod
    def run(self, recorder: TraceRecorder) -> None:
        """Execute the kernel, emitting accesses into ``recorder``."""

    def record_trace(self) -> TraceRecorder:
        """Run the workload from scratch and return the filled recorder."""
        recorder = TraceRecorder()
        self._rng = np.random.default_rng(self.seed)
        self.run(recorder)
        if recorder.num_accesses == 0:
            raise WorkloadError(f"workload {self.display_name} produced no memory accesses")
        return recorder

    # -- helpers for parallel kernels ----------------------------------------
    def thread_chunks(self, num_items: int) -> List[range]:
        """Split ``num_items`` work items into one contiguous chunk per thread."""
        if num_items <= 0:
            raise WorkloadError("num_items must be positive")
        base, extra = divmod(num_items, self.threads)
        chunks = []
        start = 0
        for thread in range(self.threads):
            size = base + (1 if thread < extra else 0)
            chunks.append(range(start, start + size))
            start += size
        return chunks

    def interleaved_schedule(self, num_items: int, block: int = 8) -> List[tuple]:
        """Round-robin (item, thread) schedule approximating parallel execution.

        Parallel threads execute simultaneously; in the single global
        dynamic instruction stream this shows up as their accesses being
        interleaved block by block, which is what shortens the reuse
        distance of shared data structures for the ``(par)`` versions.
        """
        chunks = self.thread_chunks(num_items)
        positions = [0] * self.threads
        schedule: List[tuple] = []
        remaining = num_items
        while remaining > 0:
            for thread, chunk in enumerate(chunks):
                taken = 0
                while positions[thread] < len(chunk) and taken < block:
                    schedule.append((chunk[positions[thread]], thread))
                    positions[thread] += 1
                    taken += 1
                    remaining -= 1
        return schedule
