"""Picklable telemetry state: histogram summaries, span trees, snapshots.

These are the objects that cross process boundaries: a
``ProcessPoolExecutor`` worker builds its own live
:class:`~repro.telemetry.core.Telemetry`, reduces it to a
:class:`TelemetrySnapshot` and ships that home; the parent merges worker
snapshots (in workload order) into its own registry.  Everything here is
plain-dataclass state with well-defined, associative ``merge``
semantics:

* counters add;
* gauges take the right-hand (most recently merged) value;
* histogram summaries combine count/sum/min/max;
* span trees merge recursively by name — counts and total wall time
  add, min/max widen — with deterministic child order (left operand's
  order first, unseen names appended in right-operand order).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass(frozen=True)
class HistogramSummary:
    """Summary statistics of every value observed under one name."""

    count: int
    sum: float
    min: float
    max: float

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def including(self, value: float) -> "HistogramSummary":
        return HistogramSummary(
            count=self.count + 1,
            sum=self.sum + value,
            min=min(self.min, value),
            max=max(self.max, value),
        )

    def merge(self, other: "HistogramSummary") -> "HistogramSummary":
        if not other.count:
            return self
        if not self.count:
            return other
        return HistogramSummary(
            count=self.count + other.count,
            sum=self.sum + other.sum,
            min=min(self.min, other.min),
            max=max(self.max, other.max),
        )

    def to_json_dict(self) -> Dict[str, float]:
        return {
            "count": self.count, "sum": self.sum,
            "min": self.min, "max": self.max, "mean": self.mean,
        }


@dataclass(frozen=True)
class SpanSnapshot:
    """One aggregated node of a frozen span tree."""

    name: str
    count: int
    total_s: float
    min_s: float
    max_s: float
    children: List["SpanSnapshot"] = field(default_factory=list)

    def merge(self, other: "SpanSnapshot") -> "SpanSnapshot":
        if other.name != self.name:
            raise ValueError(
                f"cannot merge span {other.name!r} into {self.name!r}"
            )
        return SpanSnapshot(
            name=self.name,
            count=self.count + other.count,
            total_s=self.total_s + other.total_s,
            min_s=(
                min(self.min_s, other.min_s)
                if self.count and other.count
                else (self.min_s if self.count else other.min_s)
            ),
            max_s=max(self.max_s, other.max_s),
            children=_merge_span_lists(self.children, other.children),
        )

    def to_json_dict(self) -> Dict:
        return {
            "name": self.name,
            "count": self.count,
            "total_s": self.total_s,
            "min_s": self.min_s,
            "max_s": self.max_s,
            "children": [child.to_json_dict() for child in self.children],
        }


def _merge_span_lists(
    left: List[SpanSnapshot], right: List[SpanSnapshot]
) -> List[SpanSnapshot]:
    by_name = {span.name: span for span in left}
    merged = list(left)
    for span in right:
        existing = by_name.get(span.name)
        if existing is None:
            by_name[span.name] = span
            merged.append(span)
        else:
            combined = existing.merge(span)
            by_name[span.name] = combined
            merged[merged.index(existing)] = combined
    return merged


@dataclass(frozen=True)
class TelemetrySnapshot:
    """Immutable, picklable copy of one registry's metrics and span tree."""

    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, HistogramSummary] = field(default_factory=dict)
    spans: List[SpanSnapshot] = field(default_factory=list)

    def merge(self, other: "TelemetrySnapshot") -> "TelemetrySnapshot":
        """Combine two snapshots (associative; see the module docstring)."""
        counters = dict(self.counters)
        for name, value in other.counters.items():
            counters[name] = counters.get(name, 0) + value
        gauges = dict(self.gauges)
        gauges.update(other.gauges)
        histograms = dict(self.histograms)
        for name, summary in other.histograms.items():
            existing = histograms.get(name)
            histograms[name] = (
                summary if existing is None else existing.merge(summary)
            )
        return TelemetrySnapshot(
            counters=counters,
            gauges=gauges,
            histograms=histograms,
            spans=_merge_span_lists(self.spans, other.spans),
        )
