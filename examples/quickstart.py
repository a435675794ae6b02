#!/usr/bin/env python3
"""Quickstart: characterize, train and predict in a few lines.

This walks the full pipeline of the paper on a reduced campaign:

1. profile a few workloads (program-inherent features, Section III.D);
2. characterize the simulated X-Gene2 server under relaxed refresh
   period / lowered VDD / elevated temperature (Section V);
3. train the workload-aware KNN error model (Section VI);
4. predict the WER and PUE of a workload the model has, and has not,
   seen — in milliseconds instead of a 2-hour characterization run.
"""

from repro import OperatingPoint, WorkloadAwarePredictor, profile_workload
from repro.characterization.campaign import CampaignConfig, CharacterizationCampaign

WORKLOADS = ("backprop", "backprop(par)", "kmeans", "srad(par)", "memcached", "bfs", "pagerank")


def main() -> None:
    print("== 1. Profiling workloads (DynamoRIO + perf equivalent) ==")
    for name in WORKLOADS:
        profile = profile_workload(name)
        summary = profile.summary()
        print(f"  {name:15s} Treuse={summary['treuse']:8.3f}s  HDP={summary['hdp']:5.2f}b  "
              f"mem-accesses/cycle={summary['memory_accesses_per_cycle']:.4f}  "
              f"wait-cycles={summary['wait_cycles']:.2f}")

    print("\n== 2. Characterization campaign (simulated X-Gene2, 8 GB per benchmark) ==")
    config = CampaignConfig(workloads=WORKLOADS)
    campaign = CharacterizationCampaign(config=config, seed=7).run()
    for trefp in (0.618, 2.283):
        per_workload = campaign.wer_by_workload(trefp, 50.0)
        worst = max(per_workload, key=per_workload.get)
        best = min(per_workload, key=per_workload.get)
        print(f"  TREFP={trefp:5.3f}s @50C: WER spans {per_workload[best]:.2e} ({best}) "
              f"to {per_workload[worst]:.2e} ({worst})")
    print(f"  mean PUE @70C, TREFP=1.45s : {campaign.mean_pue(1.450):.2f}")
    print(f"  mean PUE @70C, TREFP=2.283s: {campaign.mean_pue(2.283):.2f}")

    print("\n== 3. Training the workload-aware model (KNN, input set 1) ==")
    predictor = WorkloadAwarePredictor().fit(campaign)
    print(f"  ranks predicted by the WER model: {len(predictor.ranks)}")

    print("\n== 4. Predictions ==")
    # 1.45 s at 70 C: the operating point where PUE starts to vary across
    # workloads (Fig. 9a), so both predictions are informative.
    op = OperatingPoint.relaxed(1.450, 70.0)
    for name in ("memcached", "srad(par)", "fmm(par)"):
        result = predictor.predict(name, op)
        print(f"  {name:12s} @ {op.trefp_s}s/{op.temperature_c:.0f}C -> "
              f"WER={result.memory_wer:.3e}  PUE={result.pue:.2f}  "
              f"({result.latency_s * 1000:.1f} ms)")
    print("\n(fmm(par) was never part of the training campaign: the model predicts it "
          "purely from its program features.)")


if __name__ == "__main__":
    main()
