"""Thread-safe runtime telemetry: counters, gauges, histograms and spans.

A :class:`Telemetry` object is a registry of named metrics plus an
aggregated span tree:

* **counters** accumulate (``incr``) — dataset rows, grid points
  sampled, CV folds run;
* **gauges** record the latest value (``gauge``) — array sizes,
  worker counts;
* **histograms** keep summary statistics (count/sum/min/max) of every
  observed value (``observe`` / ``observe_array``) — dataset
  targets, serving batch sizes;
* **spans** (``span``) are monotonic-clock timed scopes that nest into a
  tree; spans with the same name under the same parent aggregate
  (count, total/min/max wall time), so a campaign that sweeps the same
  workload grid twice shows one node with ``count == 2``.

No-op mode
----------
The default registry is *disabled*: every mutator returns after one
attribute check and ``span`` hands back a shared null context manager,
so instrumented hot paths run within noise of their uninstrumented
selves (pinned by ``benchmarks/test_telemetry_overhead.py``).
Instrumentation must never change results either way — telemetry draws
no random numbers and imposes no ordering (pinned by
``tests/test_telemetry_equivalence.py``).

Cross-process use
-----------------
A :class:`Telemetry` holds locks and thread-local state, so it does not
pickle.  Workers build their own registry, run, and ship home a
picklable :class:`~repro.telemetry.snapshot.TelemetrySnapshot`; the
parent grafts it under its current span with :meth:`merge_snapshot`.

The process-wide *active* registry is managed by :func:`get_telemetry` /
:func:`set_telemetry` / :func:`telemetry_session`; library code always
looks the registry up at call time, never at import time.
"""

from __future__ import annotations

import contextlib
import threading
import time
from types import TracebackType
from typing import Dict, Iterator, Optional, Type, Union

import numpy as np
import numpy.typing as npt

from repro.telemetry.snapshot import (
    HistogramSummary,
    SpanSnapshot,
    TelemetrySnapshot,
)


class _SpanNode:
    """One node of the live (mutable) aggregated span tree."""

    __slots__ = ("name", "count", "total_s", "min_s", "max_s", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total_s = 0.0
        self.min_s = float("inf")
        self.max_s = 0.0
        self.children: Dict[str, "_SpanNode"] = {}

    def snapshot(self) -> SpanSnapshot:
        return SpanSnapshot(
            name=self.name,
            count=self.count,
            total_s=self.total_s,
            min_s=self.min_s if self.count else 0.0,
            max_s=self.max_s,
            children=[child.snapshot() for child in self.children.values()],
        )


class _Span:
    """Context manager for one timed scope of an enabled registry."""

    __slots__ = ("_telemetry", "_name", "_node", "_parent", "_start")

    def __init__(self, telemetry: "Telemetry", name: str) -> None:
        self._telemetry = telemetry
        self._name = name

    def __enter__(self) -> "_Span":
        telemetry = self._telemetry
        parent = telemetry._current_node()
        with telemetry._lock:
            node = parent.children.get(self._name)
            if node is None:
                node = parent.children[self._name] = _SpanNode(self._name)
        self._parent = parent
        self._node = node
        telemetry._tls.node = node
        self._start = time.perf_counter()
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        elapsed = time.perf_counter() - self._start
        telemetry = self._telemetry
        telemetry._tls.node = self._parent
        node = self._node
        with telemetry._lock:
            node.count += 1
            node.total_s += elapsed
            if elapsed < node.min_s:
                node.min_s = elapsed
            if elapsed > node.max_s:
                node.max_s = elapsed
        return False


class _NullSpan:
    """Shared no-op context manager handed out by disabled registries."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Telemetry:
    """Thread-safe registry of counters, gauges, histograms and spans."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._root = _SpanNode("")
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, HistogramSummary] = {}

    # -- span tree ---------------------------------------------------------
    def _current_node(self) -> _SpanNode:
        node = getattr(self._tls, "node", None)
        return node if node is not None else self._root

    def span(self, name: str) -> Union["_Span", "_NullSpan"]:
        """Timed scope context manager; spans nest into the registry's tree."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name)

    # -- metrics -----------------------------------------------------------
    def incr(self, name: str, value: float = 1) -> None:
        """Add ``value`` to the named counter."""
        if not self.enabled:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Record the latest value of the named gauge."""
        if not self.enabled:
            return
        with self._lock:
            self._gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Fold one value into the named histogram summary."""
        if not self.enabled:
            return
        value = float(value)
        with self._lock:
            summary = self._histograms.get(name)
            if summary is None:
                self._histograms[name] = HistogramSummary(
                    count=1, sum=value, min=value, max=value
                )
            else:
                self._histograms[name] = summary.including(value)

    def observe_array(self, name: str, values: npt.ArrayLike) -> None:
        """Fold a whole array of values into the named histogram summary."""
        if not self.enabled:
            return
        arr = np.asarray(values, dtype=float).ravel()
        if not arr.size:
            return
        batch = HistogramSummary(
            count=int(arr.size), sum=float(arr.sum()),
            min=float(arr.min()), max=float(arr.max()),
        )
        with self._lock:
            summary = self._histograms.get(name)
            self._histograms[name] = batch if summary is None else summary.merge(batch)

    # -- snapshots ---------------------------------------------------------
    def snapshot(self) -> TelemetrySnapshot:
        """Picklable, immutable copy of every metric and the span tree."""
        with self._lock:
            return TelemetrySnapshot(
                counters=dict(self._counters),
                gauges=dict(self._gauges),
                histograms=dict(self._histograms),
                spans=[child.snapshot() for child in self._root.children.values()],
            )

    def merge_snapshot(self, snapshot: Optional[TelemetrySnapshot]) -> None:
        """Graft a worker's snapshot under the caller's current span.

        Counters add, gauges take the snapshot's value, histograms
        combine, and the snapshot's root spans merge into the children
        of the currently active span (the root if none is active) — so a
        parent that merges worker snapshots inside ``span("campaign.run")``
        reconstructs the tree shape an in-process run would have produced.
        Merging is deterministic: existing names keep their order,
        unseen names append in snapshot order.
        """
        if snapshot is None or not self.enabled:
            return
        parent = self._current_node()
        with self._lock:
            for name, value in snapshot.counters.items():
                self._counters[name] = self._counters.get(name, 0) + value
            self._gauges.update(snapshot.gauges)
            for name, summary in snapshot.histograms.items():
                existing = self._histograms.get(name)
                self._histograms[name] = (
                    summary if existing is None else existing.merge(summary)
                )
            for span in snapshot.spans:
                self._merge_span(parent, span)

    @staticmethod
    def _merge_span(parent: _SpanNode, span: SpanSnapshot) -> None:
        node = parent.children.get(span.name)
        if node is None:
            node = parent.children[span.name] = _SpanNode(span.name)
        node.count += span.count
        node.total_s += span.total_s
        if span.count and span.min_s < node.min_s:
            node.min_s = span.min_s
        if span.max_s > node.max_s:
            node.max_s = span.max_s
        for child in span.children:
            Telemetry._merge_span(node, child)

    def reset(self) -> None:
        """Drop every metric and span (the enabled flag is unchanged)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._root = _SpanNode("")
            self._tls = threading.local()


#: The default registry: always present, permanently disabled, so library
#: code can call ``get_telemetry().incr(...)`` unconditionally.
_DISABLED = Telemetry(enabled=False)
_active = _DISABLED
_active_lock = threading.Lock()


def get_telemetry() -> Telemetry:
    """The process-wide active registry (a disabled no-op by default)."""
    return _active


def set_telemetry(telemetry: Optional[Telemetry]) -> Telemetry:
    """Install ``telemetry`` as the active registry; returns the previous one.

    ``None`` restores the built-in disabled registry.
    """
    global _active
    with _active_lock:
        previous = _active
        _active = telemetry if telemetry is not None else _DISABLED
    return previous


@contextlib.contextmanager
def telemetry_session(enabled: bool = True) -> Iterator[Telemetry]:
    """Scoped registry: install a fresh :class:`Telemetry`, restore on exit.

    >>> with telemetry_session() as tel:
    ...     campaign.run()
    >>> report = RunReport.capture(tel)
    """
    telemetry = Telemetry(enabled=enabled)
    previous = set_telemetry(telemetry)
    try:
        yield telemetry
    finally:
        set_telemetry(previous)
