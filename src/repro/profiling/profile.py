"""The :class:`WorkloadProfile` container produced by the profiler."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro import units
from repro.dram.statistical import WorkloadBehavior
from repro.errors import DataError
from repro.profiling.counters import all_feature_names
from repro.workloads.base import WorkloadMetadata


@dataclass
class WorkloadProfile:
    """All program-inherent features extracted for one workload.

    This is the "Profiling phase" output of Fig. 3: one row of the model
    input per workload, before the DRAM operating parameters are appended.
    """

    workload: str
    metadata: WorkloadMetadata
    features: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        expected = all_feature_names()
        missing = [name for name in expected if name not in self.features]
        if missing:
            raise DataError(
                f"profile of {self.workload!r} is missing {len(missing)} features "
                f"(first missing: {missing[0]!r})"
            )

    # ------------------------------------------------------------------
    def feature(self, name: str) -> float:
        """Value of one named feature."""
        try:
            return self.features[name]
        except KeyError:
            raise DataError(f"unknown feature {name!r}") from None

    # ------------------------------------------------------------------
    def behavior(self) -> WorkloadBehavior:
        """The workload-behaviour summary consumed by the DRAM error model."""
        footprint_words = max(
            1, self.metadata.nominal_footprint_bytes // units.WORD_BYTES
        )
        return WorkloadBehavior(
            accesses_per_cycle=max(self.feature("memory_accesses_per_cycle"), 0.0),
            reuse_time_s=max(self.feature("treuse"), 1e-6),
            data_entropy_bits=min(max(self.feature("hdp"), 0.0), 32.0),
            footprint_words=int(footprint_words),
            wait_cycle_fraction=min(max(self.feature("wait_cycles"), 0.0), 1.0),
        )

    def summary(self) -> Dict[str, float]:
        """The headline features the paper discusses, for quick inspection."""
        return {
            name: self.feature(name)
            for name in (
                "treuse",
                "hdp",
                "memory_accesses_per_cycle",
                "wait_cycles",
                "ipc",
                "l2_miss_rate",
            )
        }
