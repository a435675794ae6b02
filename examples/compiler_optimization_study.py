#!/usr/bin/env python3
"""Case study: do compiler optimizations change DRAM reliability?

Reproduces the Section VI.C use case: the lulesh proxy application is
"compiled" with default (-O2) and aggressive (-F) optimizations, both
variants are profiled, and the workload-aware model predicts their WER
under relaxed refresh — without any new characterization run.  The
conventional constant-rate model (calibrated with a random data-pattern
micro-benchmark) is shown for comparison.
"""

import numpy as np

from repro import OperatingPoint, profile_workload
from repro.characterization.campaign import CampaignConfig, CharacterizationCampaign
from repro.core.conventional import ConventionalErrorModel
from repro.core.dataset import build_wer_dataset
from repro.core.model import DramErrorModel, ModelConfig
from repro.workloads.registry import campaign_workload_names

TARGET_OP = OperatingPoint.relaxed(0.618, 70.0)
VARIANTS = ("lulesh(O2)", "lulesh(F)")


def main() -> None:
    print("== Characterizing the training workloads (plus the data-pattern micro) ==")
    config = CampaignConfig(
        workloads=tuple(campaign_workload_names()) + VARIANTS + ("data-pattern-random",),
        temperatures_c=(50.0, 60.0, 70.0),
    )
    campaign = CharacterizationCampaign(config=config, seed=7).run(include_ue_study=False)
    dataset = build_wer_dataset(campaign)

    measured = campaign.wer_by_workload(TARGET_OP.trefp_s, TARGET_OP.temperature_c)

    print("\n== Training one KNN model (a WER column per rank) without the lulesh variants ==")
    model = DramErrorModel(ModelConfig(family="knn", feature_set="set1"))
    X, Y, groups = dataset.rank_matrices(model.feature_set)
    training = ~np.isin(groups, VARIANTS)
    model.fit_matrices(X[training], Y[training])

    conventional = ConventionalErrorModel().fit(dataset)

    print(f"\n== WER at TREFP={TARGET_OP.trefp_s}s, {TARGET_OP.temperature_c:.0f}C ==")
    per_rank = model.predict_matrix(np.stack([
        model.feature_set.build_row(TARGET_OP, profile_workload(variant).features)
        for variant in VARIANTS
    ]))
    for variant, rank_wers in zip(VARIANTS, per_rank):
        predicted = float(np.mean(rank_wers))
        constant = conventional.predict(TARGET_OP)
        error = abs(predicted - measured[variant]) / measured[variant] * 100
        constant_error = abs(constant - measured[variant]) / measured[variant] * 100
        print(f"  {variant:11s} measured={measured[variant]:.3e}  "
              f"workload-aware={predicted:.3e} ({error:.0f}% off)  "
              f"conventional={constant:.3e} ({constant_error:.0f}% off)")

    o2, aggressive = measured["lulesh(O2)"], measured["lulesh(F)"]
    delta = abs(o2 - aggressive) / min(o2, aggressive) * 100
    print(f"\nCompiler flags change the measured WER by {delta:.0f}% "
          "(the paper reports ~29%): software-level decisions do affect DRAM reliability, "
          "and the workload-aware model resolves the difference without re-characterizing.")


if __name__ == "__main__":
    main()
