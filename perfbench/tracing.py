"""In-memory span recorder and the layer wrappers of the traced run.

The traced run times each layer from the benchmark side: ``instrument``
wraps the public entry points of the ``workloads``, ``memsys``,
``profiling`` and ``ml`` layers for the duration of a ``with`` block and
restores them afterwards, so library code is never edited.  Every call
becomes one span (name, phase, thread, start, end, parent span) held in
memory and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


class SpanRecorder:
    """Thread-safe list of finished spans plus counters, keyed by phase.

    ``phase`` names the pipeline unit running when a span starts
    (``cold_campaign``, ``accuracy_study`` or ``serve_mixed``); the
    service's worker thread shares it, so spans it opens land in the
    phase of the traffic that caused them.
    """

    def __init__(self) -> None:
        self.phase = ""
        self.spans: List[Dict[str, Any]] = []
        self.counts: Dict[Tuple[str, str], int] = {}
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._ids = itertools.count(1)
        self._origin = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        phase = self.phase
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append({
                    "id": span_id, "parent": parent, "name": name, "phase": phase,
                    "thread": threading.current_thread().name,
                    "start_s": start - self._origin, "end_s": end - self._origin,
                })

    def add(self, name: str, value: int) -> None:
        with self._lock:
            key = (self.phase, name)
            self.counts[key] = self.counts.get(key, 0) + int(value)

    # -- queries -----------------------------------------------------------
    def _matching(self, name: str, phase: str) -> List[Dict[str, Any]]:
        return [s for s in self.spans if s["name"] == name and s["phase"] == phase]

    def total_s(self, name: str, phase: str) -> float:
        return sum(s["end_s"] - s["start_s"] for s in self._matching(name, phase))

    def self_s(self, name: str, phase: str) -> float:
        """Time in ``name`` spans not covered by their direct child spans."""
        ids = {s["id"] for s in self._matching(name, phase)}
        children = sum(
            s["end_s"] - s["start_s"] for s in self.spans if s["parent"] in ids
        )
        return self.total_s(name, phase) - children

    def count(self, name: str, phase: str) -> int:
        return self.counts.get((phase, name), 0)

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "spans": sorted(self.spans, key=lambda s: s["id"]),
            "counts": [
                {"phase": phase, "name": name, "value": value}
                for (phase, name), value in sorted(self.counts.items())
            ],
        }


def _wrap(
    recorder: SpanRecorder,
    function: Callable[..., Any],
    span_name: Callable[..., str],
    count: Optional[Callable[[Any], Dict[str, int]]] = None,
) -> Callable[..., Any]:
    @functools.wraps(function)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with recorder.span(span_name(*args)):
            result = function(*args, **kwargs)
        if count is not None:
            for name, value in count(result).items():
                recorder.add(name, value)
        return result
    return wrapper


@contextlib.contextmanager
def instrument(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap each layer's public entry points in spans; restore on exit."""
    from repro.core.model import DramErrorModel
    from repro.memsys.hierarchy import MemoryHierarchy
    from repro.profiling import profiler
    from repro.profiling.entropy import DataEntropyEstimator
    from repro.workloads.base import Workload

    patches = [
        (Workload, "record_trace", lambda *a: "workloads.record_trace",
         lambda trace: {"workloads.accesses": trace.num_accesses}),
        (MemoryHierarchy, "simulate", lambda *a: "memsys.simulate",
         lambda stats: {"memsys.l2_misses": stats.l2_misses}),
        (profiler, "reuse_statistics", lambda *a: "profiling.reuse", None),
        (DataEntropyEstimator, "estimate", lambda *a: "profiling.entropy", None),
        (profiler.WorkloadProfiler, "profile", lambda *a: "profiling.profile", None),
        (DramErrorModel, "fit_matrices", lambda model, *a: f"ml.fit.{model.family}",
         lambda model: {"ml.fits": 1}),
        (DramErrorModel, "predict_matrix", lambda *a: "ml.predict", None),
    ]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in patches]
    try:
        for owner, attr, span_name, count in patches:
            setattr(owner, attr, _wrap(recorder, getattr(owner, attr), span_name, count))
        yield recorder
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)
