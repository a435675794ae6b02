"""In-process prediction service: LRU cache + request-batching facade.

:class:`PredictionService` wraps a fitted (typically registry-loaded)
:class:`~repro.core.predictor.WorkloadAwarePredictor` behind a
request/response API shaped like a serving front-end:

* requests are typed frozen dataclasses keyed by
  ``(workload, TREFP, VDD, temperature)``;
* an LRU operating-point cache answers repeated requests without
  touching the model;
* cache misses are queued and a single worker thread coalesces every
  request that arrives within ``batch_window_s`` into **one**
  :meth:`~repro.core.predictor.WorkloadAwarePredictor.predict_batch`
  call (the web-app-plus-worker split, folded into one process);
* telemetry records spans (``serving.batch``), counters (requests,
  hits, misses, batches, predictions) and the batch-size histogram.

The facade never changes numbers: a response carries exactly the values
a direct ``predict_batch``/``predict_grid`` call produces for the same
points (pinned under concurrent load by ``tests/test_serving.py``).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.predictor import WorkloadAwarePredictor
from repro.dram.geometry import RankLocation
from repro.dram.operating import OperatingPoint
from repro.errors import ConfigurationError, WorkloadError
from repro.telemetry import get_telemetry
from repro.workloads.registry import ALL_WORKLOADS

#: Cache / coalescing key of one request.
RequestKey = Tuple[str, float, float, float]


@dataclass(frozen=True)
class PredictRequest:
    """One prediction request: a workload name at an operating point."""

    workload: str
    trefp_s: float
    vdd_v: float
    temperature_c: float

    def __post_init__(self) -> None:
        if not isinstance(self.workload, str) or not self.workload:
            raise ConfigurationError("request workload must be a registry name")
        # Rejected here, on the caller's thread: an unknown name reaching a
        # coalesced batch would fail every other request in it.
        if self.workload not in ALL_WORKLOADS:
            raise WorkloadError(f"unknown workload {self.workload!r}")
        # Constructing the operating point validates the parameter ranges.
        self.operating_point()

    @classmethod
    def at(cls, workload: str, operating_point: OperatingPoint) -> "PredictRequest":
        """Build a request from an :class:`OperatingPoint`."""
        return cls(
            workload=workload,
            trefp_s=operating_point.trefp_s,
            vdd_v=operating_point.vdd_v,
            temperature_c=operating_point.temperature_c,
        )

    def operating_point(self) -> OperatingPoint:
        return OperatingPoint(
            trefp_s=self.trefp_s, vdd_v=self.vdd_v,
            temperature_c=self.temperature_c,
        )

    @property
    def key(self) -> RequestKey:
        return (self.workload, self.trefp_s, self.vdd_v, self.temperature_c)


@dataclass(frozen=True)
class PredictResponse:
    """One prediction: per-rank WER, PUE, and how the service answered."""

    request: PredictRequest
    ranks: Tuple[RankLocation, ...]
    wer: Tuple[float, ...]
    pue: Optional[float]
    #: answered from the LRU cache (no model call)
    cached: bool
    #: how many unique predictions shared the model call that produced this
    batch_size: int

    @property
    def memory_wer(self) -> float:
        return sum(self.wer) / len(self.wer)

    @property
    def wer_by_rank(self) -> Dict[RankLocation, float]:
        return dict(zip(self.ranks, self.wer))


@dataclass(frozen=True)
class ServiceStats:
    """Monotonic counters of one service's lifetime."""

    requests: int
    cache_hits: int
    cache_misses: int
    batches: int
    predictions: int
    max_batch_size: int

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


class PredictionService:
    """Cached, batching serving facade over a fitted predictor.

    Parameters
    ----------
    predictor:
        A fitted :class:`WorkloadAwarePredictor` (e.g. from
        :func:`repro.serving.registry.load_model`).
    cache_size:
        Maximum number of (workload, operating point) responses kept in
        the LRU cache; ``0`` disables caching.
    batch_window_s:
        How long the worker waits after the first queued request for
        more to coalesce into the same model call; ``0`` batches only
        what is already queued.
    max_batch_size:
        Upper bound on requests drained into one model call.
    """

    def __init__(
        self,
        predictor: WorkloadAwarePredictor,
        *,
        cache_size: int = 4096,
        batch_window_s: float = 0.002,
        max_batch_size: int = 256,
    ) -> None:
        if cache_size < 0:
            raise ConfigurationError("cache_size must be >= 0")
        if batch_window_s < 0:
            raise ConfigurationError("batch_window_s must be >= 0")
        if max_batch_size < 1:
            raise ConfigurationError("max_batch_size must be >= 1")
        if not predictor.is_fitted:
            raise ConfigurationError(
                "PredictionService requires a fitted WorkloadAwarePredictor"
            )
        self.predictor = predictor
        self.cache_size = cache_size
        self.batch_window_s = batch_window_s
        self.max_batch_size = max_batch_size

        self._cond = threading.Condition()
        self._pending: List[Tuple[PredictRequest, "Future[PredictResponse]"]] = []
        self._cache: "OrderedDict[RequestKey, PredictResponse]" = OrderedDict()
        self._closed = False
        self._requests = 0
        self._hits = 0
        self._misses = 0
        self._batches = 0
        self._predictions = 0
        self._max_batch = 0
        self._worker = threading.Thread(
            target=self._run, name="repro-prediction-service", daemon=True
        )
        self._worker.start()

    # ------------------------------------------------------------------
    def __enter__(self) -> "PredictionService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Drain pending requests, stop the worker and reject new work."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        self._worker.join()

    # ------------------------------------------------------------------
    def _cache_get(self, key: RequestKey) -> Optional[PredictResponse]:
        """LRU lookup; caller must hold the lock."""
        response = self._cache.get(key)
        if response is not None:
            self._cache.move_to_end(key)
        return response

    def _cache_put(self, key: RequestKey, response: PredictResponse) -> None:
        """LRU insert + eviction; caller must hold the lock."""
        if self.cache_size == 0:
            return
        self._cache[key] = response
        self._cache.move_to_end(key)
        while len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)

    # ------------------------------------------------------------------
    def submit(self, request: PredictRequest) -> "Future[PredictResponse]":
        """Enqueue one request; cache hits resolve immediately."""
        telemetry = get_telemetry()
        future: "Future[PredictResponse]" = Future()
        with self._cond:
            if self._closed:
                raise ConfigurationError("PredictionService is closed")
            self._requests += 1
            cached = self._cache_get(request.key)
            if cached is not None:
                self._hits += 1
                if telemetry.enabled:
                    telemetry.incr("serving.requests")
                    telemetry.incr("serving.cache_hits")
                future.set_result(replace(cached, request=request, cached=True))
                return future
            self._misses += 1
            if telemetry.enabled:
                telemetry.incr("serving.requests")
                telemetry.incr("serving.cache_misses")
            self._pending.append((request, future))
            self._cond.notify_all()
        return future

    def predict(
        self, workload: str, operating_point: OperatingPoint
    ) -> PredictResponse:
        """Blocking convenience wrapper: one request, one response."""
        return self.submit(PredictRequest.at(workload, operating_point)).result()

    def predict_many(
        self, requests: Sequence[PredictRequest]
    ) -> List[PredictResponse]:
        """Submit a burst of requests, then wait for every response."""
        futures = [self.submit(request) for request in requests]
        return [future.result() for future in futures]

    def stats(self) -> ServiceStats:
        """Counters of this service's lifetime (thread-safe snapshot)."""
        with self._cond:
            return ServiceStats(
                requests=self._requests,
                cache_hits=self._hits,
                cache_misses=self._misses,
                batches=self._batches,
                predictions=self._predictions,
                max_batch_size=self._max_batch,
            )

    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._closed:
                    self._cond.wait()
                if not self._pending:
                    return      # closed and drained
            # Coalescing window: let concurrent callers pile onto this batch.
            if self.batch_window_s > 0:
                time.sleep(self.batch_window_s)
            with self._cond:
                batch = self._pending[: self.max_batch_size]
                del self._pending[: self.max_batch_size]
            if batch:
                self._process(batch)

    def _process(
        self, batch: Sequence[Tuple[PredictRequest, "Future[PredictResponse]"]]
    ) -> None:
        telemetry = get_telemetry()
        # Coalesce duplicate keys: one model row answers every waiter.
        waiters: "OrderedDict[RequestKey, List[Future[PredictResponse]]]" = OrderedDict()
        requests: Dict[RequestKey, PredictRequest] = {}
        for request, future in batch:
            waiters.setdefault(request.key, []).append(future)
            requests.setdefault(request.key, request)
        keys = list(waiters)
        try:
            with telemetry.span("serving.batch"):
                result = self.predictor.predict_batch(
                    [requests[key].workload for key in keys],
                    [requests[key].operating_point() for key in keys],
                )
                if telemetry.enabled:
                    telemetry.incr("serving.batches")
                    telemetry.incr("serving.predictions", len(keys))
                    telemetry.observe("serving.batch_size", len(keys))
        except Exception as error:   # surface model failures to every waiter
            for futures in waiters.values():
                for future in futures:
                    future.set_exception(error)
            return

        responses: List[PredictResponse] = []
        for index, key in enumerate(keys):
            responses.append(PredictResponse(
                request=requests[key],
                ranks=result.ranks,
                wer=tuple(float(v) for v in result.wer[:, index]),
                pue=float(result.pue[index]) if result.pue is not None else None,
                cached=False,
                batch_size=len(keys),
            ))
        with self._cond:
            self._batches += 1
            self._predictions += len(keys)
            if len(keys) > self._max_batch:
                self._max_batch = len(keys)
            for key, response in zip(keys, responses):
                self._cache_put(key, response)
        for key, response in zip(keys, responses):
            for future in waiters[key]:
                future.set_result(response)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"PredictionService(cache_size={self.cache_size}, "
            f"batch_window_s={self.batch_window_s}, "
            f"requests={stats.requests}, hit_rate={stats.hit_rate:.2f})"
        )
