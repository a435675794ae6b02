"""Instrumented miniature implementations of the paper's benchmarks."""

from repro.workloads.analytics import (
    BetweennessCentralityWorkload,
    BfsWorkload,
    PagerankWorkload,
)
from repro.workloads.base import (
    InstrumentedArray,
    TraceRecorder,
    Workload,
    WorkloadMetadata,
)
from repro.workloads.caching import MemcachedWorkload
from repro.workloads.compute import (
    BackpropWorkload,
    FmmWorkload,
    KmeansWorkload,
    NeedlemanWunschWorkload,
    SradWorkload,
)
from repro.workloads.lulesh import LuleshWorkload
from repro.workloads.micro import DataPatternWorkload
from repro.workloads.registry import (
    ALL_WORKLOADS,
    CAMPAIGN_WORKLOADS,
    EXTRA_WORKLOADS,
    available_workloads,
    campaign_workload_names,
    create_workload,
)

__all__ = [
    "BetweennessCentralityWorkload",
    "BfsWorkload",
    "PagerankWorkload",
    "InstrumentedArray",
    "TraceRecorder",
    "Workload",
    "WorkloadMetadata",
    "MemcachedWorkload",
    "BackpropWorkload",
    "FmmWorkload",
    "KmeansWorkload",
    "NeedlemanWunschWorkload",
    "SradWorkload",
    "LuleshWorkload",
    "DataPatternWorkload",
    "ALL_WORKLOADS",
    "CAMPAIGN_WORKLOADS",
    "EXTRA_WORKLOADS",
    "available_workloads",
    "campaign_workload_names",
    "create_workload",
]
