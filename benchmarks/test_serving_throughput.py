"""Serving layer: batched grid floors and facade throughput.

The ISSUE-10 serving stack is only worth its API surface if the batched
path actually beats per-point prediction, so these benchmarks pin — the
same way the ECC, dataset and ML benchmarks pin their batch engines —

* ``WorkloadAwarePredictor.predict_grid`` against the per-point oracle
  (``tests.oracles.predictor.reference_predict_grid``, one independently
  fitted model per rank): at least 10x faster over a campaign-scale
  operating grid, agreeing to 1e-9 relative tolerance;
* a one-row ``predict_batch`` — the service's cache-miss path — against
  the per-rank oracle's one-row batch (one ``predict_matrix`` per rank):
  at least 3x faster, bit-identical, because the ranks are the output
  columns of one model and KNN answers them with one neighbour search;
* :class:`repro.serving.PredictionService` throughput: a warm service
  answers a request sweep at least 10x faster than fresh scalar
  ``predict`` calls (the cache and burst batching at work), with an
  absolute predictions-per-second floor.

Every floor lands in the benchmark artifact (``BENCH_10.json``).
"""

import time

import numpy as np
import pytest

from repro.core.predictor import WorkloadAwarePredictor
from repro.dram.operating import OperatingPoint
from repro.serving import PredictionService, PredictRequest
from repro.workloads.registry import campaign_workload_names

from tests.oracles.predictor import PerRankPredictor, reference_predict_grid

pytestmark = pytest.mark.slow

TREFPS = (0.618, 1.173, 1.450, 1.727, 2.283)
TEMPERATURES = (50.0, 60.0, 70.0)

#: Absolute facade floor: a warm in-process service must answer at least
#: this many predictions per second (cache hits dominate a steady state).
SERVICE_PREDICTIONS_PER_S_FLOOR = 2_000.0


#: One-row ``predict_batch`` calls per timed round, and rounds per side.
ONE_ROW_CALLS = 200
ONE_ROW_ROUNDS = 5

#: Interleaved timed rounds per side of the service throughput floor.
SERVICE_ROUNDS = 5


def test_predict_grid_at_least_10x_per_point(bench_report, full_campaign,
                                             campaign_profiles):
    predictor = WorkloadAwarePredictor().fit(full_campaign, campaign_profiles)
    per_rank = PerRankPredictor().fit(full_campaign, campaign_profiles)
    workloads = list(campaign_workload_names())

    # Warm both paths (profile cache, BLAS thread pools) on a tiny grid.
    predictor.predict_grid(workloads[:2], TREFPS[:1], TEMPERATURES[:1])
    reference_predict_grid(per_rank, workloads[:2], TREFPS[:1],
                           TEMPERATURES[:1], (1.428,))

    start = time.perf_counter()
    grid = predictor.predict_grid(workloads, TREFPS, TEMPERATURES)
    batch_s = time.perf_counter() - start

    start = time.perf_counter()
    ref_wer, ref_pue = reference_predict_grid(
        per_rank, workloads, TREFPS, TEMPERATURES, grid.vdd_v
    )
    scalar_s = time.perf_counter() - start

    np.testing.assert_allclose(grid.wer, ref_wer, rtol=1e-9)
    assert grid.pue is not None and ref_pue is not None
    np.testing.assert_allclose(grid.pue, ref_pue, rtol=1e-9)

    speedup = bench_report.record(
        "predict_grid", floor=10.0, scalar_s=scalar_s, batch_s=batch_s,
        units_label="predictions", work_items=grid.num_predictions,
    )
    assert speedup >= 10.0


def test_one_row_predict_at_least_3x_per_rank(bench_report, full_campaign,
                                              campaign_profiles):
    predictor = WorkloadAwarePredictor().fit(full_campaign, campaign_profiles)
    per_rank = PerRankPredictor().fit(full_campaign, campaign_profiles)
    keys = [
        (campaign_profiles[name], OperatingPoint.relaxed(trefp, temp))
        for name in campaign_workload_names()
        for trefp in TREFPS
        for temp in TEMPERATURES
    ]
    calls = [keys[i % len(keys)] for i in range(ONE_ROW_CALLS)]

    for profile, op in keys:
        batch = predictor.predict_batch([profile], [op])
        wer, pue = per_rank.predict_batch([profile], [op])
        assert np.array_equal(batch.wer, wer)
        assert batch.pue is not None and np.array_equal(batch.pue, pue)

    # Interleave the sides and keep each one's fastest round, so a slow
    # stretch of the host hits both.
    multi_s, per_rank_s = [], []
    for _ in range(ONE_ROW_ROUNDS):
        start = time.perf_counter()
        for profile, op in calls:
            per_rank.predict_batch([profile], [op])
        per_rank_s.append(time.perf_counter() - start)
        start = time.perf_counter()
        for profile, op in calls:
            predictor.predict_batch([profile], [op])
        multi_s.append(time.perf_counter() - start)

    speedup = bench_report.record(
        "predict_one_row", floor=3.0, scalar_s=min(per_rank_s),
        batch_s=min(multi_s), units_label="predictions", work_items=ONE_ROW_CALLS,
    )
    assert speedup >= 3.0


def test_service_throughput_floor(bench_report, full_campaign,
                                  campaign_profiles):
    predictor = WorkloadAwarePredictor().fit(full_campaign, campaign_profiles)
    requests = [
        PredictRequest.at(name, OperatingPoint.relaxed(trefp, temp))
        for name in campaign_workload_names()
        for trefp in TREFPS
        for temp in TEMPERATURES
    ]
    # Profiles are resolved per call on the scalar path; warm the registry
    # cache so both sides measure prediction, not profiling.
    profiles = {r.workload: campaign_profiles[r.workload] for r in requests}

    # Interleave the sides and keep each one's fastest round, so a slow
    # stretch of the host (or a benchmark run just before this one) hits
    # both.  Scalar side: one predict() per request (no cache, no
    # batching); service side: ``repeats`` warm predict_many sweeps.
    repeats = 4
    scalar_s, batch_s = [], []
    with PredictionService(predictor) as service:
        service.predict_many(requests)          # warm: populate the cache
        for _ in range(SERVICE_ROUNDS):
            start = time.perf_counter()
            for request in requests:
                predictor.predict(profiles[request.workload], request.operating_point())
            scalar_s.append(time.perf_counter() - start)
            start = time.perf_counter()
            for _ in range(repeats):
                service.predict_many(requests)
            batch_s.append(time.perf_counter() - start)
        stats = service.stats()

    served = repeats * len(requests)
    predictions_per_s = served / min(batch_s)
    speedup = bench_report.record(
        "prediction_service", floor=10.0,
        scalar_s=min(scalar_s) * repeats, batch_s=min(batch_s),
        units_label="predictions", work_items=served,
    )
    # The steady state is all hits.
    assert stats.cache_hits >= SERVICE_ROUNDS * served
    assert predictions_per_s >= SERVICE_PREDICTIONS_PER_S_FLOOR
    assert speedup >= 10.0
