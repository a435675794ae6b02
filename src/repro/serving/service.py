"""In-process prediction service: an LRU cache in front of ``predict_batch``.

:class:`PredictionService` wraps a fitted (typically registry-loaded)
:class:`~repro.core.predictor.WorkloadAwarePredictor` behind a
request/response API shaped like a serving front-end:

* requests are typed frozen dataclasses keyed by
  ``(workload, TREFP, VDD, temperature)``;
* an LRU operating-point cache answers repeated requests without
  touching the model;
* everything runs on the caller's thread, with no worker and no batching
  window: :meth:`PredictionService.predict_many` takes one locked pass
  over the cache, then answers the burst's distinct missing keys with
  **one** :meth:`~repro.core.predictor.WorkloadAwarePredictor.predict_batch`
  call made with the lock released, so concurrent callers never wait on
  each other's model calls;
* if that call raises, each missing key is retried alone, so a failing
  key fails only its own requests;
* after a model call, a caller yields the interpreter
  (``time.sleep(0)``) if no caller has done so for
  :data:`HANDOFF_INTERVAL_S`, so concurrent callers interleave at
  request boundaries instead of stalling mid-request for CPython's 5 ms
  thread-switch interval;
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
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union, cast

import numpy as np

from repro.core.predictor import WorkloadAwarePredictor
from repro.dram.geometry import RankLocation
from repro.dram.operating import OperatingPoint
from repro.errors import ConfigurationError, WorkloadError
from repro.telemetry import get_telemetry
from repro.workloads.registry import ALL_WORKLOADS

#: Cache key of one request.
RequestKey = Tuple[str, float, float, float]

#: Longest stretch of model calls (seconds) after which a caller yields
#: the interpreter to other threads.  A miss is a chain of short numpy
#: calls; each one that releases the GIL wakes a waiting thread, which
#: usually loses the race to re-take it and then waits a fresh switch
#: interval, so without a yield a concurrent caller can stall for 5 ms or
#: more in the middle of its request.
HANDOFF_INTERVAL_S = 1e-3


@dataclass(frozen=True, slots=True)
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
        # batched model call would make every other key in it retry alone.
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


@dataclass(frozen=True, slots=True)
class PredictResponse:
    """One prediction: per-rank WER, PUE, and how the service answered.

    The per-rank WERs are stored packed as float64 bytes (~100 B against
    ~310 B for a tuple of floats), since callers often keep every
    response; :attr:`wer` unpacks them.  A cache hit returns the cached
    response of its key itself, so its ``request`` equals the caller's
    request but need not be the same object.
    """

    request: PredictRequest
    ranks: Tuple[RankLocation, ...]
    packed_wer: bytes = field(repr=False)
    pue: Optional[float]
    #: answered from the LRU cache (no model call)
    cached: bool
    #: how many unique predictions shared the model call that produced this
    batch_size: int

    @property
    def wer(self) -> Tuple[float, ...]:
        return tuple(memoryview(self.packed_wer).cast("d"))

    @property
    def memory_wer(self) -> float:
        return sum(self.wer) / len(self.ranks)

    @property
    def wer_by_rank(self) -> Dict[RankLocation, float]:
        return dict(zip(self.ranks, self.wer))


# A request's answer, or the exception its model call raised.
_Outcome = Union[PredictResponse, Exception]


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
    """Cached serving facade over a fitted predictor.

    Parameters
    ----------
    predictor:
        A fitted :class:`WorkloadAwarePredictor` (e.g. from
        :func:`repro.serving.registry.load_model`).
    cache_size:
        Maximum number of (workload, operating point) responses kept in
        the LRU cache; ``0`` disables caching.
    """

    def __init__(
        self, predictor: WorkloadAwarePredictor, *, cache_size: int = 4096
    ) -> None:
        if cache_size < 0:
            raise ConfigurationError("cache_size must be >= 0")
        if not predictor.is_fitted:
            raise ConfigurationError(
                "PredictionService requires a fitted WorkloadAwarePredictor"
            )
        self.predictor = predictor
        self.cache_size = cache_size

        self._lock = threading.Lock()
        #: ``perf_counter`` time of the last interpreter hand-off (any caller)
        self._last_handoff = 0.0
        self._cache: "OrderedDict[RequestKey, PredictResponse]" = OrderedDict()
        self._closed = False
        self._requests = 0
        self._hits = 0
        self._misses = 0
        self._batches = 0
        self._predictions = 0
        self._max_batch = 0

    # ------------------------------------------------------------------
    def __enter__(self) -> "PredictionService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Reject new work; calls already running finish normally."""
        with self._lock:
            self._closed = True

    # ------------------------------------------------------------------
    def submit(self, request: PredictRequest) -> "Future[PredictResponse]":
        """Answer one request now; the returned future is already resolved."""
        outcome = self._serve([request])[0]
        future: "Future[PredictResponse]" = Future()
        if isinstance(outcome, Exception):
            future.set_exception(outcome)
        else:
            future.set_result(outcome)
        return future

    def predict(
        self, workload: str, operating_point: OperatingPoint
    ) -> PredictResponse:
        """Blocking convenience wrapper: one request, one response."""
        return self.predict_many([PredictRequest.at(workload, operating_point)])[0]

    def predict_many(self, requests: Sequence[PredictRequest]) -> List[PredictResponse]:
        """Answer a burst: cache hits, then one model call for the misses.

        Every request is answered, and every valid key cached, before the
        first failure is raised.  The burst's distinct misses go to the
        model in one call, whose memory grows with their number (KNN
        builds a misses x training-rows distance matrix), so very large
        sweeps should be sent in chunks or through ``predict_grid``.
        """
        outcomes = self._serve(requests)
        for outcome in outcomes:
            if isinstance(outcome, Exception):
                raise outcome
        return cast(List[PredictResponse], outcomes)

    def stats(self) -> ServiceStats:
        """Counters of this service's lifetime (thread-safe snapshot)."""
        with self._lock:
            return ServiceStats(
                requests=self._requests,
                cache_hits=self._hits,
                cache_misses=self._misses,
                batches=self._batches,
                predictions=self._predictions,
                max_batch_size=self._max_batch,
            )

    # ------------------------------------------------------------------
    def _serve(self, requests: Sequence[PredictRequest]) -> List[_Outcome]:
        outcomes: List[Optional[_Outcome]] = [None] * len(requests)
        # Positions of each distinct missing key, in first-seen order.
        missing: Dict[RequestKey, List[int]] = {}
        with self._lock:
            if self._closed:
                raise ConfigurationError("PredictionService is closed")
            for index, request in enumerate(requests):
                key = request.key
                cached = self._cache.get(key)
                if cached is None:
                    missing.setdefault(key, []).append(index)
                else:
                    self._cache.move_to_end(key)
                    outcomes[index] = cached
            misses = sum(len(positions) for positions in missing.values())
            self._requests += len(requests)
            self._hits += len(requests) - misses
            self._misses += misses
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.incr("serving.requests", len(requests))
            telemetry.incr("serving.cache_hits", len(requests) - misses)
            telemetry.incr("serving.cache_misses", misses)
        if missing:
            firsts = [requests[positions[0]] for positions in missing.values()]
            for positions, outcome in zip(missing.values(), self._predict(firsts)):
                for index in positions:
                    outcomes[index] = outcome
            now = time.perf_counter()
            if now - self._last_handoff >= HANDOFF_INTERVAL_S:
                self._last_handoff = now
                time.sleep(0)
        return cast(List[_Outcome], outcomes)     # every slot is filled

    def _predict(self, requests: List[PredictRequest]) -> List[_Outcome]:
        """One model call for distinct keys; if it raises, each key alone."""
        try:
            return list(self._predict_batch(requests))
        except Exception as error:
            if len(requests) == 1:
                return [error]
        return [outcome for request in requests for outcome in self._predict([request])]

    def _predict_batch(self, requests: List[PredictRequest]) -> List[PredictResponse]:
        telemetry = get_telemetry()
        count = len(requests)
        with telemetry.span("serving.batch"):
            result = self.predictor.predict_batch(
                [request.workload for request in requests],
                [request.operating_point() for request in requests],
            )
            if telemetry.enabled:
                telemetry.incr("serving.batches")
                telemetry.incr("serving.predictions", count)
                telemetry.observe("serving.batch_size", count)
        # One row of float64 per request, sliced from one packed block.
        wer = np.ascontiguousarray(result.wer.T, dtype=np.float64).tobytes()
        width = len(result.ranks) * 8
        pue: List[Optional[float]] = (
            [None] * count if result.pue is None
            else [float(value) for value in result.pue]
        )
        responses = [
            PredictResponse(
                request=request, ranks=result.ranks,
                packed_wer=wer[index * width: (index + 1) * width],
                pue=pue[index], cached=False, batch_size=count,
            )
            for index, request in enumerate(requests)
        ]
        with self._lock:
            self._batches += 1
            self._predictions += count
            self._max_batch = max(self._max_batch, count)
            if self.cache_size:
                for r in responses:
                    key = r.request.key
                    self._cache[key] = PredictResponse(
                        r.request, r.ranks, r.packed_wer, r.pue, cached=True, batch_size=count
                    )
                    self._cache.move_to_end(key)
                while len(self._cache) > self.cache_size:
                    self._cache.popitem(last=False)
        return responses

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"PredictionService(cache_size={self.cache_size}, "
            f"requests={stats.requests}, hit_rate={stats.hit_rate:.2f})"
        )
