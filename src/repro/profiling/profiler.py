"""The workload profiler: trace -> 249 program features.

This is the software equivalent of the paper's profiling phase (Fig. 3):
DynamoRIO supplies the access trace and perf supplies the hardware
counters; here both come from the instrumented workload execution and a
cache-hierarchy simulation.

The trace stays columnar from recording through feature assembly (see
:class:`~repro.memsys.access.AccessColumns`).  With telemetry enabled,
every profile records a ``profile`` span whose children
``profile.trace``, ``profile.cache_sim`` and ``profile.features`` split
its time between the three phases.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Dict, Optional

from repro import units
from repro.dram.geometry import DramGeometry
from repro.errors import DataError
from repro.memsys.cache import CacheConfig
from repro.memsys.hierarchy import HierarchyStats, MemoryHierarchy
from repro.profiling.counters import (
    CORE_COUNTER_FEATURES,
    MCU_FEATURES,
    RANK_FEATURES,
    synthesize_tail_counters,
)
from repro.profiling.entropy import DataEntropyEstimator
from repro.profiling.profile import WorkloadProfile
from repro.profiling.reuse import ReuseStatistics, ReuseTimeEstimator, reuse_statistics
from repro.telemetry import get_telemetry
from repro.workloads.base import TraceRecorder, Workload


@dataclass(frozen=True)
class TimingModel:
    """Simple analytical core-timing model used to derive cycle counts.

    The miniature kernels execute far fewer instructions than the real
    benchmarks, but rate-style features (events per cycle) only need a
    consistent cycle model, not absolute durations.
    """

    base_cpi: float = 0.6               #: issue-limited CPI of the OoO core
    l2_hit_penalty_cycles: float = 9.0  #: extra cycles per L1 miss that hits L2
    dram_penalty_cycles: float = 170.0  #: extra cycles per access that goes to DRAM
    parallel_efficiency: float = 0.85   #: exponent of the thread-count speedup

    def speedup(self, threads: int) -> float:
        if threads <= 1:
            return 1.0
        return float(threads ** self.parallel_efficiency)


def scaled_profiling_cache_configs() -> Dict[str, CacheConfig]:
    """Cache sizes scaled down to match the miniature footprints.

    The real benchmarks allocate 8 GB against a 32 KB L1 / 256 KB L2; the
    miniature kernels allocate tens of kilobytes, so the profiler shrinks
    the caches proportionally.  This preserves each benchmark's *relative*
    cache behaviour (hot structures hit, large sweeps miss), which is what
    the per-cycle features depend on.
    """
    return {
        "l1": CacheConfig(size_bytes=1024, associativity=4, line_bytes=64),
        "l2": CacheConfig(size_bytes=8192, associativity=8, line_bytes=64),
    }


class WorkloadProfiler:
    """Run a workload, simulate the memory hierarchy and extract features."""

    def __init__(
        self,
        timing: Optional[TimingModel] = None,
        geometry: Optional[DramGeometry] = None,
        cpu_frequency_hz: float = units.CPU_FREQ_HZ,
        num_cores: int = units.NUM_CORES,
    ) -> None:
        self.timing = timing or TimingModel()
        self.geometry = geometry or DramGeometry()
        self.cpu_frequency_hz = cpu_frequency_hz
        self.num_cores = num_cores
        self._reuse_estimator = ReuseTimeEstimator(cpu_frequency_hz)
        self._entropy_estimator = DataEntropyEstimator()

    # ------------------------------------------------------------------
    def profile(self, workload: Workload) -> WorkloadProfile:
        """Produce the full 249-feature profile of a workload."""
        telemetry = get_telemetry()
        with telemetry.span("profile"):
            with telemetry.span("profile.trace"):
                recorder = workload.record_trace()
                columns = recorder.columns
            with telemetry.span("profile.cache_sim"):
                stats = self._build_hierarchy(workload.threads).simulate(columns)
            with telemetry.span("profile.features"):
                return self._assemble_profile(
                    workload, recorder, stats,
                    reuse_statistics(columns), self._entropy_estimator.estimate(columns),
                )

    # ------------------------------------------------------------------
    def _build_hierarchy(self, threads: int) -> MemoryHierarchy:
        configs = scaled_profiling_cache_configs()
        return MemoryHierarchy(
            geometry=self.geometry,
            l1_config=configs["l1"],
            l2_config=configs["l2"],
            num_threads=threads,
        )

    def _cycles(self, recorder: TraceRecorder, stats: HierarchyStats, threads: int):
        """Return (wall_cycles, core_cycles, stall_cycles)."""
        instructions = recorder.instruction_count
        if instructions <= 0:
            raise DataError("workload executed no instructions")
        compute_cycles = instructions * self.timing.base_cpi
        l2_hits = max(stats.l1_misses - stats.dram_reads, 0)
        stall_cycles = (
            l2_hits * self.timing.l2_hit_penalty_cycles
            + stats.dram_accesses * self.timing.dram_penalty_cycles
        )
        core_cycles = compute_cycles + stall_cycles
        wall_cycles = core_cycles / self.timing.speedup(threads)
        return wall_cycles, core_cycles, stall_cycles

    def _assemble_profile(
        self,
        workload: Workload,
        recorder: TraceRecorder,
        stats: HierarchyStats,
        reuse_stats: ReuseStatistics,
        hdp: float,
    ) -> WorkloadProfile:
        threads = workload.threads
        instructions = recorder.instruction_count
        wall_cycles, core_cycles, stall_cycles = self._cycles(recorder, stats, threads)
        cpi_wall = wall_cycles / instructions

        footprint_scale = workload.nominal_footprint_bytes / max(recorder.allocated_bytes, 1)
        treuse = self._reuse_estimator.estimate(reuse_stats, cpi_wall, footprint_scale)

        features: Dict[str, float] = {
            "treuse": treuse,
            "hdp": hdp,
            "memory_accesses_per_cycle": stats.dram_accesses / wall_cycles,
            "wait_cycles": stall_cycles / core_cycles if core_cycles else 0.0,
            "ipc": instructions / wall_cycles,
            "cpi": cpi_wall,
            "cpu_utilization": min(threads / self.num_cores, 1.0),
            "memory_instruction_fraction": recorder.memory_instruction_fraction,
            "read_fraction": stats.read_accesses / stats.total_accesses
            if stats.total_accesses else 0.0,
            "write_fraction": stats.write_accesses / stats.total_accesses
            if stats.total_accesses else 0.0,
            "l1_accesses_per_cycle": stats.l1_accesses / wall_cycles,
            "l1_misses_per_cycle": stats.l1_misses / wall_cycles,
            "l1_miss_rate": stats.l1_miss_rate,
            "l2_accesses_per_cycle": stats.l2_accesses / wall_cycles,
            "l2_misses_per_cycle": stats.l2_misses / wall_cycles,
            "l2_miss_rate": stats.l2_miss_rate,
            "dram_reads_per_cycle": stats.dram_reads / wall_cycles,
            "dram_writes_per_cycle": stats.dram_writes / wall_cycles,
            "writebacks_per_cycle": stats.writebacks / wall_cycles,
            "unique_words_touched": float(reuse_stats.unique_words),
            "accesses_per_word": reuse_stats.accesses_per_word,
            "reuse_distance_instructions": reuse_stats.mean_reuse_distance_instructions,
            "reused_access_fraction": reuse_stats.reused_access_fraction,
            "footprint_words_log10": math.log10(
                max(workload.nominal_footprint_bytes // units.WORD_BYTES, 1)
            ),
            "threads": float(threads),
        }
        self._add_mcu_features(features, stats, wall_cycles)
        self._add_rank_features(features, stats, wall_cycles)
        features.update(synthesize_tail_counters(workload.display_name, features))

        missing_core = [name for name in CORE_COUNTER_FEATURES if name not in features]
        if missing_core:
            raise DataError(f"profiler did not compute core features: {missing_core}")

        return WorkloadProfile(
            workload=workload.display_name,
            metadata=workload.metadata,
            features=features,
        )

    def _add_mcu_features(
        self, features: Dict[str, float], stats: HierarchyStats, wall_cycles: float
    ) -> None:
        for name in MCU_FEATURES:
            features[name] = 0.0
        for mcu, reads in stats.per_mcu_reads.items():
            features[f"mcu{mcu}_read_cmds_per_cycle"] = reads / wall_cycles
        for mcu, writes in stats.per_mcu_writes.items():
            features[f"mcu{mcu}_write_cmds_per_cycle"] = writes / wall_cycles

    def _add_rank_features(
        self, features: Dict[str, float], stats: HierarchyStats, wall_cycles: float
    ) -> None:
        for name in RANK_FEATURES:
            features[name] = 0.0
        for rank, count in stats.per_rank_accesses.items():
            key = f"dimm{rank.dimm}_rank{rank.rank}_accesses_per_cycle"
            if key in features:
                features[key] = count / wall_cycles


# ---------------------------------------------------------------------------
# Profile cache: profiling is deterministic, so every caller shares results.
# A lock around cold profiles makes concurrent first touches of one workload
# (e.g. two serving clients) profile it once and share the same object.
# ---------------------------------------------------------------------------
_PROFILE_CACHE: Dict[str, WorkloadProfile] = {}
_PROFILE_LOCK = threading.Lock()


def profile_workload(name: str, profiler: Optional[WorkloadProfiler] = None) -> WorkloadProfile:
    """Profile a registered workload by name, with caching."""
    from repro.workloads.registry import create_workload

    if profiler is not None:
        return profiler.profile(create_workload(name))
    cached = _PROFILE_CACHE.get(name)
    if cached is not None:
        return cached
    with _PROFILE_LOCK:
        if name not in _PROFILE_CACHE:
            _PROFILE_CACHE[name] = WorkloadProfiler().profile(create_workload(name))
        return _PROFILE_CACHE[name]


def clear_profile_cache() -> None:
    """Drop cached profiles (used by tests that tweak profiler settings)."""
    _PROFILE_CACHE.clear()
