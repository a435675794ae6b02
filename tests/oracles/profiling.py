"""Object-trace profiling: the oracle of the columnar profiling front end.

:class:`ObjectTraceRecorder` stores one ``MemoryAccess`` per access (the
stored float converted with the scalar :func:`float_to_word`) of the scalar
oracle kernels in :mod:`tests.oracles.workloads`,
:func:`reuse_statistics_objects` is the dict-based reuse loop,
:func:`entropy_objects` the ``Counter`` estimate, and
:func:`profile_objects` chains them with :func:`simulate_objects` into
the same 249-feature assembly the library uses.
"""

from __future__ import annotations

import struct
from collections import Counter
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.errors import DataError
from repro.memsys.access import AccessType, MemoryAccess
from repro.profiling.entropy import DataEntropyEstimator, shannon_entropy_bits
from repro.profiling.profile import WorkloadProfile
from repro.profiling.profiler import WorkloadProfiler, scaled_profiling_cache_configs
from repro.profiling.reuse import ReuseStatistics
from repro.workloads.base import TraceRecorder, Workload

from tests.oracles.memsys import simulate_objects
from tests.oracles.workloads import run_scalar


def float_to_word(value: float) -> int:
    """Raw 64-bit pattern of a float — what actually sits in DRAM."""
    return struct.unpack("<Q", struct.pack("<d", float(value)))[0]


class ObjectTraceRecorder(TraceRecorder):
    """A recorder that keeps the trace as a list of ``MemoryAccess`` objects."""

    def __init__(self) -> None:
        super().__init__()
        self.accesses: List[MemoryAccess] = []

    def record_access(self, address: int, is_write: bool, value: float,
                      thread_id: int = 0) -> None:
        self.instruction_count += 1
        self.accesses.append(
            MemoryAccess(
                address=address,
                access_type=AccessType.WRITE if is_write else AccessType.READ,
                instruction_index=self.instruction_count,
                value=float_to_word(value),
                thread_id=thread_id,
            )
        )

    @property
    def num_accesses(self) -> int:
        return len(self.accesses)


def record_object_trace(workload: Workload) -> ObjectTraceRecorder:
    """The workload's scalar oracle kernel, into an :class:`ObjectTraceRecorder`."""
    recorder = ObjectTraceRecorder()
    run_scalar(workload, recorder)
    return recorder


def reuse_statistics_objects(trace: Iterable[MemoryAccess]) -> ReuseStatistics:
    """Word-granularity reuse distances, one dict lookup per access."""
    last_seen: Dict[int, int] = {}
    total_distance = 0.0
    reused = 0
    total = 0
    for access in trace:
        total += 1
        word = access.word_address
        previous = last_seen.get(word)
        if previous is not None:
            total_distance += access.instruction_index - previous
            reused += 1
        last_seen[word] = access.instruction_index
    if total == 0:
        raise DataError("cannot compute reuse statistics of an empty trace")
    mean_distance = total_distance / reused if reused else float(total)
    return ReuseStatistics(
        mean_reuse_distance_instructions=mean_distance,
        reused_access_fraction=reused / total,
        unique_words=len(last_seen),
        total_accesses=total,
    )


def entropy_objects(trace: Iterable[MemoryAccess],
                    estimator: Optional[DataEntropyEstimator] = None) -> float:
    """``HDP`` of the first ``max_samples`` writes, counted with a ``Counter``."""
    estimator = estimator or DataEntropyEstimator()
    shift = 64 - estimator.value_bits
    mask = (1 << estimator.value_bits) - 1
    counter: Counter = Counter()
    samples = 0
    for access in trace:
        if not access.is_write:
            continue
        counter[(access.value >> shift) & mask] += 1
        samples += 1
        if samples >= estimator.max_samples:
            break
    if samples == 0:
        return 0.0
    return shannon_entropy_bits(list(counter.values()))


def feature_bytes(profile: WorkloadProfile):
    """Feature names in order plus the raw bytes of their values."""
    return list(profile.features), np.array(list(profile.features.values())).tobytes()


def profile_objects(workload: Workload,
                    profiler: Optional[WorkloadProfiler] = None) -> WorkloadProfile:
    """The 249-feature profile computed entirely on the object trace."""
    profiler = profiler or WorkloadProfiler()
    recorder = record_object_trace(workload)
    configs = scaled_profiling_cache_configs()
    stats = simulate_objects(
        recorder.accesses, geometry=profiler.geometry,
        l1_config=configs["l1"], l2_config=configs["l2"], num_threads=workload.threads,
    )
    return profiler._assemble_profile(
        workload, recorder, stats,
        reuse_statistics_objects(recorder.accesses),
        entropy_objects(recorder.accesses, profiler._entropy_estimator),
    )
