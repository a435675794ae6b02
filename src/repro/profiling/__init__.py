"""Profiling substrate: program-inherent feature extraction (Section III.D)."""

from repro.profiling.counters import (
    CORE_COUNTER_FEATURES,
    MCU_FEATURES,
    NOVEL_FEATURES,
    RANK_FEATURES,
    TOTAL_FEATURE_COUNT,
    all_feature_names,
    synthesize_tail_counters,
    tail_feature_names,
)
from repro.profiling.entropy import DataEntropyEstimator, shannon_entropy_bits
from repro.profiling.profile import WorkloadProfile
from repro.profiling.profiler import (
    TimingModel,
    WorkloadProfiler,
    clear_profile_cache,
    profile_workload,
    scaled_profiling_cache_configs,
)
from repro.profiling.reuse import ReuseStatistics, ReuseTimeEstimator, reuse_statistics

__all__ = [
    "CORE_COUNTER_FEATURES",
    "MCU_FEATURES",
    "NOVEL_FEATURES",
    "RANK_FEATURES",
    "TOTAL_FEATURE_COUNT",
    "all_feature_names",
    "synthesize_tail_counters",
    "tail_feature_names",
    "DataEntropyEstimator",
    "shannon_entropy_bits",
    "WorkloadProfile",
    "TimingModel",
    "WorkloadProfiler",
    "clear_profile_cache",
    "profile_workload",
    "scaled_profiling_cache_configs",
    "ReuseStatistics",
    "ReuseTimeEstimator",
    "reuse_statistics",
]
