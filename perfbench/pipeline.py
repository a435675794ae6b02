"""The three benchmark workloads: set-ups, timed units and output checks.

Each workload is built from the public ``repro`` API only:

* ``cold_campaign`` — train from scratch: cold ``run_default_campaign``,
  the WER/PUE datasets, ``WorkloadAwarePredictor.fit``;
* ``accuracy_study`` — Fig. 11 ``evaluate_wer`` (set1) and Fig. 12
  ``evaluate_pue`` (set2) for svm, knn and rdf on a prepared campaign;
* ``serve_mixed`` — a two-client closed loop against one
  ``PredictionService`` with a seeded mix of cache hits, fresh points and
  first touches of unprofiled workloads.

Each ``*_unit`` function is the timed work; its ``check_*`` partner
returns the mismatches against the recorded reference
(``reference.json``) or a direct recomputation, and a non-empty list
marks the operation as failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import (
    AccuracyEvaluator,
    PredictionService,
    PredictRequest,
    WorkloadAwarePredictor,
    build_pue_dataset,
    build_wer_dataset,
    get_feature_set,
    load_model,
    profile_workload,
    run_default_campaign,
    save_model,
    units,
)
from repro.profiling import clear_profile_cache
from repro.workloads import campaign_workload_names

from tracing import SpanRecorder

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

#: ``--seed`` picks the characterization campaign's seed from this table,
#: so every input a run can see has a recorded reference.
CAMPAIGN_SEEDS = (7, 11, 13, 17, 19, 23, 29, 31)

#: Closed-loop clients of ``serve_mixed``.
CLIENTS = 2
#: Share of ``serve_mixed`` requests that repeat a hot (pre-warmed) key.
HOT_SHARE = 0.4
HOT_KEYS = 8
#: Relative tolerance of the response and accuracy checks (the serving
#: tests pin batch-vs-grid predictions to the same bound; the result of
#: a model call can differ in the last bits with batch composition).
RTOL = 1e-9


@dataclass(frozen=True)
class Size:
    """How much work one unit of each workload does."""

    name: str
    #: campaign workloads; empty means the registry's 14
    workloads: Tuple[str, ...]
    families: Tuple[str, ...]
    #: leading ranks of the Fig. 11 study
    ranks: int
    #: unprofiled workloads first touched inside the service
    extras: Tuple[str, ...]
    #: stream positions of those first touches
    cold_positions: Tuple[int, ...]
    #: requests of a fixed-size serve unit (traced run and its reference)
    unit_requests: int
    #: requests per ``wall_s`` block of ``serve_mixed``
    block_requests: int
    #: set-ups per run; ``setup_s`` is their median
    setups: int

    def campaign_workloads(self) -> List[str]:
        return list(self.workloads) or campaign_workload_names()


SIZES = {
    "full": Size(
        name="full", workloads=(), families=("svm", "knn", "rdf"), ranks=1,
        extras=("lulesh(O2)", "lulesh(F)", "data-pattern-random", "data-pattern-solid"),
        cold_positions=(150, 450, 750, 1050), unit_requests=2000,
        block_requests=1000, setups=3,
    ),
    "smoke": Size(
        name="smoke", workloads=("backprop(par)", "memcached", "bfs", "bc"),
        families=("svm", "knn", "rdf"), ranks=1,
        extras=("data-pattern-random",), cold_positions=(10,), unit_requests=60,
        block_requests=20, setups=2,
    ),
}


def campaign_seed(seed: int) -> int:
    return CAMPAIGN_SEEDS[seed % len(CAMPAIGN_SEEDS)]


def run_campaign(size: Size, seed: int) -> Any:
    """``run_default_campaign`` over the size's workloads, seeded from ``seed``."""
    return run_default_campaign(workloads=size.workloads or None, seed=campaign_seed(seed))


# ---------------------------------------------------------------------------
# Digests and the recorded reference
# ---------------------------------------------------------------------------
def _fmt(value: float) -> str:
    # Ten significant digits: immune to last-bit differences between
    # SIMD code paths, far finer than any real behaviour change.
    return f"{value:.9e}"


def _digest(lines: Sequence[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def profile_digest(profile: Any) -> str:
    return _digest([f"{k}={_fmt(v)}" for k, v in sorted(profile.features.items())])


def campaign_digests(campaign: Any) -> Dict[str, str]:
    rows = campaign.wer_columns().rows
    wer = [
        f"{w} {r} {_fmt(t)} {_fmt(v)} {_fmt(c)} {_fmt(e)}"
        for w, t, v, c, r, e in rows.tolist()
    ]
    pue = [
        f"{s.workload} {_fmt(s.trefp_s)} {_fmt(s.temperature_c)} "
        f"{s.total_runs} {s.crashed_runs} "
        + ",".join(f"{k.dimm}.{k.rank}:{n}" for k, n in sorted(
            s.crashes_by_rank.items(), key=lambda kv: (kv[0].dimm, kv[0].rank)))
        for s in campaign.pue_summaries
    ]
    return {"wer": _digest(wer), "pue": _digest(pue)}


def _rank_label(rank: Any) -> str:
    return f"dimm{rank.dimm}_rank{rank.rank}"


def accuracy_values(reports: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    """Flatten the study's reports into ``{report: {key: MPE}}``."""
    values: Dict[str, Dict[str, float]] = {}
    for family, (wer, pue) in reports.items():
        values[f"wer.{family}"] = {
            **{f"rank:{_rank_label(r)}": e for r, e in wer.error_by_rank.items()},
            **{f"workload:{w}": e for w, e in wer.error_by_workload.items()},
        }
        values[f"pue.{family}"] = {f"workload:{w}": e for w, e in pue.error_by_workload.items()}
    return values


def load_reference() -> Dict[str, Any]:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _same(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=1e-12)


def compare_accuracy(got: Dict[str, Dict[str, float]],
                     want: Dict[str, Dict[str, float]]) -> List[str]:
    errors = []
    if set(got) != set(want):
        return [f"accuracy reports {sorted(got)} != recorded {sorted(want)}"]
    for report, values in want.items():
        if set(got[report]) != set(values):
            errors.append(f"{report}: keys differ from the recorded report")
            continue
        for key, value in values.items():
            if not _same(got[report][key], value):
                errors.append(f"{report} {key}: MPE {got[report][key]!r} != recorded {value!r}")
    return errors


# ---------------------------------------------------------------------------
# cold_campaign
# ---------------------------------------------------------------------------
def cold_unit(size: Size, seed: int, recorder: Optional[SpanRecorder] = None
              ) -> Tuple[Any, WorkloadAwarePredictor]:
    """Train from scratch in a process with no profiled workload."""
    clear_profile_cache()
    campaign = run_campaign(size, seed)
    with _span(recorder, "core.dataset"):
        wer = build_wer_dataset(campaign)
        pue = build_pue_dataset(campaign)
        wer.matrices(get_feature_set("set1"))
        pue.matrices(get_feature_set("set2"))
    with _span(recorder, "core.fit"):
        predictor = WorkloadAwarePredictor().fit(campaign)
    return campaign, predictor


def check_cold(size: Size, seed: int, campaign: Any, predictor: WorkloadAwarePredictor,
               reference: Dict[str, Any]) -> List[str]:
    errors = []
    profiles = reference["profiles"]
    for name in size.campaign_workloads():
        got = profile_digest(profile_workload(name))
        if got != profiles.get(name):
            errors.append(f"profile {name}: digest {got} != recorded {profiles.get(name)}")
    want = reference[size.name]["campaigns"][str(campaign_seed(seed))]
    got = campaign_digests(campaign)
    for key in ("wer", "pue"):
        if got[key] != want[key]:
            errors.append(f"campaign {key} columns: digest {got[key]} != recorded {want[key]}")
    if not predictor.is_fitted:
        errors.append("predictor is not fitted")
    return errors


# ---------------------------------------------------------------------------
# accuracy_study
# ---------------------------------------------------------------------------
def accuracy_setup(size: Size, seed: int) -> Tuple[Any, Any]:
    clear_profile_cache()
    campaign = run_campaign(size, seed)
    return build_wer_dataset(campaign), build_pue_dataset(campaign)


def accuracy_unit(size: Size, datasets: Tuple[Any, Any],
                  recorder: Optional[SpanRecorder] = None) -> Dict[str, Any]:
    """Fig. 11 (set1, leading ranks) and Fig. 12 (set2) per family."""
    wer, pue = datasets
    evaluator = AccuracyEvaluator()
    ranks = wer.ranks()[: size.ranks]
    reports = {}
    for family in size.families:
        with _span(recorder, "core.evaluation"):
            wer_report = evaluator.evaluate_wer(wer, family, "set1", ranks=ranks)
        with _span(recorder, "core.evaluation"):
            pue_report = evaluator.evaluate_pue(pue, family, "set2")
        reports[family] = (wer_report, pue_report)
    return reports


def check_accuracy(size: Size, seed: int, reports: Dict[str, Any],
                   reference: Dict[str, Any]) -> List[str]:
    want = reference[size.name]["accuracy"][str(campaign_seed(seed))]
    return compare_accuracy(accuracy_values(reports), want)


# ---------------------------------------------------------------------------
# serve_mixed
# ---------------------------------------------------------------------------
@dataclass
class ServeSetup:
    predictor: WorkloadAwarePredictor
    service: PredictionService
    hot: List[PredictRequest]
    roundtrip_s: float


def serve_setup(size: Size, seed: int, scratch: Path) -> ServeSetup:
    """Profile and characterize from cold, fit, then :func:`start_service`."""
    clear_profile_cache()
    fitted = WorkloadAwarePredictor().fit(run_campaign(size, seed))
    return start_service(size, seed, fitted, scratch)


def start_service(size: Size, seed: int, fitted: WorkloadAwarePredictor,
                  scratch: Path) -> ServeSetup:
    """Round-trip through the registry, start the service, warm the hot keys."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(dir=scratch) as bundle:
        save_model(fitted, bundle)
        predictor = load_model(bundle)
    roundtrip_s = time.perf_counter() - start
    hot = hot_requests(size, seed)
    service = PredictionService(predictor)
    service.predict_many(hot)
    return ServeSetup(predictor, service, hot, roundtrip_s)


def hot_requests(size: Size, seed: int) -> List[PredictRequest]:
    rng = np.random.default_rng([seed % 2**64, 1])
    names = size.campaign_workloads()
    keys: List[Tuple[str, float, float]] = []
    while len(keys) < HOT_KEYS:
        key = (
            names[int(rng.integers(len(names)))],
            units.TREFP_SWEEP_S[int(rng.integers(len(units.TREFP_SWEEP_S)))],
            (50.0, 60.0)[int(rng.integers(2))],
        )
        if key not in keys:
            keys.append(key)
    return [PredictRequest(w, t, units.MIN_VDD_V, c) for w, t, c in keys]


@dataclass
class Stream:
    """A seeded request sequence; clients take requests strictly in order."""

    requests: List[PredictRequest]
    kinds: List[str]          # "hot", "fresh" or "cold"


def make_stream(size: Size, seed: int, count: int, hot: List[PredictRequest]) -> Stream:
    """``count`` requests: hot repeats, fresh points and the first touches."""
    rng = np.random.default_rng([seed % 2**64, 2])
    names = size.campaign_workloads()
    is_hot = rng.random(count) < HOT_SHARE
    hot_pick = rng.integers(len(hot), size=count)
    name_pick = rng.integers(len(names), size=count)
    trefp = np.round(rng.uniform(units.TREFP_SWEEP_S[0], units.MAX_TREFP_S, size=count), 6)
    temp = np.round(rng.uniform(50.0, 70.0, size=count), 4)
    cold = dict(zip(size.cold_positions, size.extras))
    seen = {request.key for request in hot}
    requests, kinds = [], []
    for i in range(count):
        if i in cold:
            request = PredictRequest(cold[i], float(trefp[i]), units.MIN_VDD_V, float(temp[i]))
            kind = "cold"
        elif is_hot[i]:
            request, kind = hot[int(hot_pick[i])], "hot"
        else:
            request = PredictRequest(
                names[int(name_pick[i])], float(trefp[i]), units.MIN_VDD_V, float(temp[i])
            )
            kind = "fresh"
        if kind != "hot":
            if request.key in seen:     # keep fresh keys fresh
                continue
            seen.add(request.key)
        requests.append(request)
        kinds.append(kind)
    return Stream(requests, kinds)


@dataclass
class ServeOutcome:
    issued: int
    start: float
    sent: np.ndarray            # per request, perf_counter seconds
    done: np.ndarray
    responses: List[Any]
    errors: List[str]

    def latencies_s(self) -> np.ndarray:
        return self.done - self.sent

    def busy_s(self) -> float:
        """From the loop's start to its last reply."""
        return float(self.done.max() - self.start)

    def block_durations_s(self, block: int) -> np.ndarray:
        """Time taken by each run of ``block`` consecutive replies."""
        finished = np.sort(self.done)
        return np.diff(np.concatenate([[self.start], finished[block - 1::block]]))


def serve_unit(service: PredictionService, stream: Stream,
               deadline_s: Optional[float] = None) -> ServeOutcome:
    """Closed loop: each client sends its next request after its reply.

    Clients take requests in stream order until the stream or
    ``deadline_s`` runs out, so the requests sent are always a prefix.
    """
    total = len(stream.requests)
    sent = np.zeros(total)
    done = np.zeros(total)
    responses: List[Any] = [None] * total
    errors: List[str] = []
    lock = threading.Lock()
    position = [0]
    start = time.perf_counter()
    stop_at = None if deadline_s is None else start + deadline_s

    def take() -> Optional[int]:
        with lock:
            index = position[0]
            if index >= total or (stop_at is not None and time.perf_counter() >= stop_at):
                return None
            position[0] += 1
            return index

    def client() -> None:
        while True:
            index = take()
            if index is None:
                return
            sent[index] = time.perf_counter()
            try:
                responses[index] = service.submit(stream.requests[index]).result()
            except Exception as error:    # one failed request, keep serving
                with lock:
                    errors.append(f"request {index}: {error!r}")
            done[index] = time.perf_counter()

    threads = [threading.Thread(target=client, name=f"client-{i}") for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    issued = position[0]
    return ServeOutcome(issued, start, sent[:issued], done[:issued],
                        responses[:issued], errors)


#: Rows per reference ``predict_batch`` call in :func:`check_serve`.
REFERENCE_CHUNK = 256


def _prediction(batch: Any, column: int) -> Tuple[Tuple[float, ...], Optional[float]]:
    pue = None if batch.pue is None else float(batch.pue[column])
    return tuple(float(v) for v in batch.wer[:, column]), pue


def _matches(response: Any, expected: Tuple[Tuple[float, ...], Optional[float]]) -> bool:
    wer, pue = expected
    return (
        len(response.wer) == len(wer)
        and all(_same(a, b) for a, b in zip(response.wer, wer))
        and (pue is None) == (response.pue is None)
        and (pue is None or _same(response.pue, pue))
    )


def _one_row(predictor: WorkloadAwarePredictor, request: PredictRequest) -> Any:
    return predictor.predict_batch([request.workload], [request.operating_point()])


def check_serve(setup: ServeSetup, stream: Stream, outcome: ServeOutcome,
                replay: bool = False) -> Tuple[List[str], List[float]]:
    """Each response against a direct ``predict_batch``; stats against the stream.

    The reference for a key is ``predict_batch`` over every distinct key
    (in chunks of at least two rows) or, failing that, the key alone: a
    KNN neighbour can flip between the one-row and the multi-row distance
    kernels, so the service may legitimately return either.  With
    ``replay`` the one-row call is timed for every distinct key; the
    latencies are returned.
    """
    errors = list(outcome.errors)
    keys: Dict[Any, PredictRequest] = {}
    for index, response in enumerate(outcome.responses):
        if response is not None:
            keys.setdefault(stream.requests[index].key, stream.requests[index])
    requests = list(keys.values())
    starts = list(range(0, len(requests), REFERENCE_CHUNK))
    if len(starts) > 1 and len(requests) - starts[-1] < 2:
        starts.pop()            # never leave a one-row chunk
    expected: Dict[Any, Tuple[Tuple[float, ...], Optional[float]]] = {}
    for n, first in enumerate(starts):
        chunk = requests[first: starts[n + 1] if n + 1 < len(starts) else len(requests)]
        batch = setup.predictor.predict_batch(
            [r.workload for r in chunk], [r.operating_point() for r in chunk]
        )
        for column, request in enumerate(chunk):
            expected[request.key] = _prediction(batch, column)
    replay_s: List[float] = []
    if replay:
        for request in requests:
            start = time.perf_counter()
            _one_row(setup.predictor, request)
            replay_s.append(time.perf_counter() - start)
    for index, response in enumerate(outcome.responses):
        request = stream.requests[index]
        if response is None:
            continue
        same = response.request == request and (
            _matches(response, expected[request.key])
            or _matches(response, _prediction(_one_row(setup.predictor, request), 0))
        )
        if not same:
            errors.append(f"request {index} ({request.workload}): response differs from predict_batch")
    hits = sum(1 for kind in stream.kinds[: outcome.issued] if kind == "hot")
    stats = setup.service.stats()
    want_requests = len(setup.hot) + outcome.issued
    if stats.requests != want_requests or stats.cache_hits != hits:
        errors.append(
            f"service stats requests={stats.requests} hits={stats.cache_hits}, "
            f"stream says requests={want_requests} hits={hits}"
        )
    return errors, replay_s


# ---------------------------------------------------------------------------
def _span(recorder: Optional[SpanRecorder], name: str) -> Any:
    return contextlib.nullcontext() if recorder is None else recorder.span(name)


def run_unit_subprocess(root: Path, workload: str, size: Size, seed: int) -> Dict[str, Any]:
    """Run one unit in a fresh interpreter (``unit.py``) and return its report."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "unit.py"), workload, size.name, str(seed)],
        cwd=root, capture_output=True, text=True, timeout=170, check=False,
    )
    if completed.returncode != 0:
        return {"errors": [f"unit process exited {completed.returncode}: {completed.stderr[-2000:]}"]}
    return json.loads(completed.stdout.strip().splitlines()[-1])


def scratch_dir(root: Path) -> Path:
    path = root / ".perfbench_out"
    path.mkdir(exist_ok=True)
    return path


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
