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

``InstrumentedArray.read``/``write`` record one access each; kernels
that branch on the data they read (memcached probing, the bfs/bc
traversals) use them.  Every loop without a dependence inside one sweep
is block-recorded instead: the kernel computes its values with numpy on
``InstrumentedArray.values`` and :meth:`TraceRecorder.record_block`
appends the whole loop — one row per iteration, one column per access of
the body, ravelled in program order — to the same buffers.  Sequential
float accumulations keep their order (:func:`running_sums`), so the
trace is bit-identical to the per-access kernels kept as the oracle in
``tests/oracles/workloads.py``.

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
from typing import Optional, Sequence, Tuple, Union

import numpy as np
from numpy.typing import ArrayLike

from repro import units
from repro.errors import WorkloadError
from repro.memsys.access import AccessColumns


def float_to_word(value: float) -> int:
    """Raw 64-bit pattern of a float — what actually sits in DRAM."""
    return struct.unpack("<Q", struct.pack("<d", float(value)))[0]


#: One access of a block-recorded loop body: its byte address, whether it
#: writes, the float loaded or stored, and the ``compute()`` instructions
#: retired right after it.
ACCESS = np.dtype([("address", np.int64), ("is_write", np.bool_),
                   ("value", np.float64), ("compute", np.int64)], align=True)
#: the same records as opaque bytes: numpy copies these ~10x faster than
#: field by field, so blocks are moved around in this view
_RAW = np.dtype((np.void, ACCESS.itemsize))


def _common_shape(*shapes: Tuple[int, ...]) -> Tuple[int, ...]:
    try:
        return np.broadcast_shapes(*shapes)
    except ValueError:
        raise WorkloadError(f"access block shapes {shapes} do not broadcast") from None


def _accesses(address: np.ndarray, is_write: bool, value: ArrayLike,
              compute: ArrayLike) -> np.ndarray:
    shape = _common_shape(address.shape, np.shape(value), np.shape(compute))
    accesses = np.empty(shape, dtype=ACCESS)
    accesses["address"] = address
    accesses["is_write"] = is_write
    accesses["value"] = value
    accesses["compute"] = compute
    return accesses


def sequence(*statements: np.ndarray) -> np.ndarray:
    """One loop body from statements that run one after another.

    Each statement is an :data:`ACCESS` block whose last axis holds its
    accesses in order; the leading (iteration) axes broadcast.
    """
    shape = _common_shape(*(statement.shape[:-1] for statement in statements))
    return np.concatenate([np.broadcast_to(statement.view(_RAW), shape + statement.shape[-1:])
                           for statement in statements], axis=-1).view(ACCESS)


def interleave(*statements: np.ndarray) -> np.ndarray:
    """One loop body from statements that alternate inside an inner loop.

    The statements broadcast to one shape ``(..., n)`` whose last axis is
    the inner loop; the result runs all of them for each of its ``n`` steps.
    """
    shape = _common_shape(*(statement.shape for statement in statements))
    stacked = np.stack([np.broadcast_to(statement.view(_RAW), shape) for statement in statements],
                       axis=-1)
    return stacked.reshape(stacked.shape[:-2] + (-1,)).view(ACCESS)


class InstrumentedArray:
    """A heap allocation whose every element access is recorded.

    Elements are 64-bit words (one float or integer each), matching the
    ECC protection granularity used for the WER metric.
    """

    def __init__(self, recorder: "TraceRecorder", base_address: int, length: int,
                 name: str = "") -> None:
        if length <= 0:
            raise WorkloadError("array length must be positive")
        self._recorder = recorder
        self._record = recorder.record_access
        self.base_address = base_address
        self.length = length
        self.name = name
        self._data = array("d", bytes(length * units.WORD_BYTES))
        #: writable numpy view of the data, for block kernels (not recorded)
        self.values = np.frombuffer(self._data, dtype=np.float64)

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

    def addresses(self, indices: ArrayLike) -> np.ndarray:
        """Byte addresses of ``indices`` (any shape), bounds-checked like ``read``."""
        indices = np.asarray(indices, dtype=np.int64)
        outside = (indices < 0) | (indices >= self.length)
        if outside.any():
            raise self._out_of_bounds(int(indices[outside].flat[0]))
        return self.base_address + indices * units.WORD_BYTES

    def load(self, indices: ArrayLike, values: Optional[ArrayLike] = None,
             compute: ArrayLike = 0) -> np.ndarray:
        """:data:`ACCESS` reads of ``indices``; ``values`` default to the data now."""
        address = self.addresses(indices)
        if values is None:
            values = self.values[np.asarray(indices, dtype=np.int64)]
        return _accesses(address, False, values, compute)

    def store(self, indices: ArrayLike, values: ArrayLike, compute: ArrayLike = 0) -> np.ndarray:
        """:data:`ACCESS` writes of ``values`` to ``indices``, applied to the data now.

        Where ``indices`` repeat, the caller sets the final data itself
        (accumulating kernels take it from :func:`running_sums`).
        """
        accesses = _accesses(self.addresses(indices), True, values, compute)
        indices = np.broadcast_to(np.asarray(indices, dtype=np.int64), accesses.shape)
        self.values[indices] = accesses["value"]
        return accesses

    def fill(self, values: ArrayLike, compute: int = 0) -> None:
        """Store ``values`` into every element in index order, recording each write."""
        self._recorder.record_block(self.store(np.arange(self.length), values, compute))


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

    def record_block(self, accesses: np.ndarray, thread: ArrayLike = 0,
                     present: Optional[ArrayLike] = None) -> None:
        """Append an ``(m, k)`` :data:`ACCESS` block: row = iteration, column = access.

        ``thread`` and the optional ``present`` mask broadcast to the
        block.  A slot whose ``present`` is False does not execute: it
        records no access and retires no instructions (ragged bodies).
        The block is ravelled in C order, i.e. program order.
        """
        accesses = np.asarray(accesses, dtype=ACCESS)
        try:
            thread = np.broadcast_to(np.asarray(thread, dtype=np.int64), accesses.shape)
            if present is not None:
                present = np.broadcast_to(np.asarray(present, dtype=np.bool_), accesses.shape)
                accesses, thread = accesses.view(_RAW)[present].view(ACCESS), thread[present]
        except ValueError:
            raise WorkloadError(
                f"record_block thread/present do not broadcast to the block {accesses.shape}"
            ) from None
        accesses, thread = accesses.ravel(), thread.ravel()
        compute = accesses["compute"]
        if (compute < 0).any():
            raise WorkloadError("instruction count cannot be negative")
        if accesses.size == 0:
            return
        retired = self.instruction_count + np.cumsum(compute + 1)
        self.instruction_count = int(retired[-1])
        self._addresses.frombytes(accesses["address"].tobytes())
        self._writes.frombytes(accesses["is_write"].tobytes())
        self._values.frombytes(accesses["value"].tobytes())
        self._instructions.frombytes((retired - compute).tobytes())
        self._threads.frombytes(thread.tobytes())

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
    def interleaved_schedule(self, num_items: Union[int, Sequence[int]],
                             block: int = 8) -> Tuple[np.ndarray, np.ndarray]:
        """Round-robin ``(items, threads)`` schedule approximating parallel execution.

        Parallel threads execute simultaneously; in the single global
        dynamic instruction stream this shows up as their accesses being
        interleaved block by block, which is what shortens the reuse
        distance of shared data structures for the ``(par)`` versions.
        Each thread owns one contiguous chunk (the first ``n % threads``
        chunks one item longer) and takes ``block`` items of it per round:
        items are ordered by (round, thread, position).  A sequence of
        sizes schedules consecutive sweeps (nw's anti-diagonals) one after
        the other, with the items numbered across all of them.
        """
        sizes = np.atleast_1d(np.asarray(num_items, dtype=np.int64))
        if (sizes <= 0).any():
            raise WorkloadError("num_items must be positive")
        sweep = np.repeat(np.arange(len(sizes)), sizes)
        offsets = np.cumsum(sizes) - sizes
        position = np.arange(int(sizes.sum())) - offsets[sweep]
        base, extra = np.divmod(sizes, self.threads)
        base, extra = base[sweep], extra[sweep]
        in_big = position < extra * (base + 1)
        threads = np.where(in_big, position // (base + 1),
                           extra + (position - extra * (base + 1)) // np.maximum(base, 1))
        chunk_start = np.where(in_big, threads * (base + 1),
                               extra * (base + 1) + (threads - extra) * base)
        items = np.lexsort((position, threads, (position - chunk_start) // block, sweep))
        return items.astype(np.int64), threads[items]


def running_sums(groups: np.ndarray, values: np.ndarray,
                 start: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sequential per-group accumulation, as a scalar ``acc[g] += v`` loop does it.

    Element ``i`` adds ``values[i]`` (a number or a row) to accumulator
    ``groups[i]``, which starts at ``start[groups[i]]``.  Returns every
    accumulator's value just before and just after each element, and the
    final accumulators.  Each group is one row of a table — its start
    value, then its elements in order, padded with ``-0.0`` (``x + -0.0``
    is ``x`` for every ``x``) — and ``np.cumsum`` along a row adds in order.
    """
    groups = np.asarray(groups, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    start = np.asarray(start, dtype=np.float64)
    if groups.size == 0:
        return np.empty_like(values), np.empty_like(values), start.copy()
    order = np.argsort(groups, kind="stable")
    row = groups[order]
    column = np.arange(groups.size) - np.searchsorted(row, row) + 1
    table = np.full((len(start), int(column.max()) + 1) + values.shape[1:], -0.0)
    table[:, 0] = start
    table[row, column] = values[order]
    sums = np.cumsum(table, axis=1)
    before, after = np.empty_like(values), np.empty_like(values)
    before[order] = sums[row, column - 1]
    after[order] = sums[row, column]
    return before, after, sums[:, -1]
