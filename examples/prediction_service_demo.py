#!/usr/bin/env python3
"""Prediction-as-a-service: registry round-trip + cached serving facade.

The paper's end product is a fitted WER/PUE predictor; this demo shows
the serving layer that keeps it alive past the training process:

1. train a predictor on a reduced characterization campaign;
2. persist it to a versioned on-disk model registry
   (``<root>/<name>/v<N>/{manifest.json, arrays.npz}``) and load it back
   — predictions survive the round-trip bit-identically;
3. sweep a whole operating-point grid in one batched ``predict_grid``
   call (the columnar path, >=10x the per-point oracle);
4. stand up a :class:`~repro.serving.PredictionService` over the loaded
   model: an LRU cache answers repeated operating points, and each
   burst's distinct misses share one batched model call.
"""

import tempfile

import numpy as np

from repro import (
    ModelRegistry,
    OperatingPoint,
    PredictionService,
    PredictRequest,
    WorkloadAwarePredictor,
)
from repro.characterization.campaign import CampaignConfig, CharacterizationCampaign

WORKLOADS = ("backprop", "backprop(par)", "kmeans", "srad(par)", "memcached", "bfs")
TREFPS = (1.173, 1.450, 2.283)
TEMPERATURES = (50.0, 60.0, 70.0)


def main() -> None:
    print("== 1. Train ==")
    config = CampaignConfig(workloads=WORKLOADS)
    campaign = CharacterizationCampaign(config=config, seed=7).run()
    predictor = WorkloadAwarePredictor().fit(campaign)
    print(f"  fitted per-rank WER models: {len(predictor.ranks)}")

    with tempfile.TemporaryDirectory() as root:
        print("\n== 2. Registry round-trip ==")
        registry = ModelRegistry(root)
        version = registry.save("wer-pue", predictor)
        bundle = registry.path("wer-pue")
        print(f"  saved as wer-pue/{version}/ "
              f"({', '.join(sorted(p.name for p in bundle.iterdir()))})")
        loaded = registry.load("wer-pue")
        op = OperatingPoint.relaxed(TREFPS[-1], TEMPERATURES[0])
        original = predictor.predict(WORKLOADS[0], op)
        restored = loaded.predict(WORKLOADS[0], op)
        exact = original.wer_by_rank == restored.wer_by_rank
        print(f"  reloaded predictions bit-identical: {exact}")

        print("\n== 3. Batched grid sweep ==")
        grid = loaded.predict_grid(WORKLOADS, TREFPS, TEMPERATURES)
        print(f"  {grid.num_predictions} predictions in {grid.latency_s * 1000:.1f} ms "
              f"(grid shape {grid.shape})")
        surface = grid.memory_wer  # (workload, trefp, temperature, vdd)
        for index, name in enumerate(grid.workloads):
            worst = float(np.max(surface[index]))
            print(f"  {name:15s} worst-case WER over the grid: {worst:.3e}")

        print("\n== 4. Serving facade ==")
        requests = [
            PredictRequest.at(name, OperatingPoint.relaxed(trefp, temp))
            for name in WORKLOADS
            for trefp in TREFPS
            for temp in TEMPERATURES
        ]
        with PredictionService(loaded) as service:
            # A cold burst that asks for every point twice: its distinct
            # misses share one batched model call.
            cold = service.predict_many(requests + requests)
            stats = service.stats()
            print(f"  cold burst: {stats.requests} requests -> "
                  f"{stats.batches} model call over {stats.predictions} distinct points")
            # A warm pass over the same points: the LRU cache answers.
            warm = service.predict_many(requests)
            stats = service.stats()
        assert cold[0].wer == cold[len(requests)].wer == warm[0].wer
        print(f"  warm pass: all {len(warm)} answered from cache "
              f"(hit rate now {stats.hit_rate:.0%}, "
              f"{stats.predictions} model predictions total)")


if __name__ == "__main__":
    main()
