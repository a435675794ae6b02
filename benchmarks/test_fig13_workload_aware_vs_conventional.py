"""Fig. 13: the workload-aware model vs the conventional constant-rate model.

The case study predicts the WER of two compiler variants of lulesh
(-O2 and aggressive -F) at 0.618 s / 70 C with a KNN model that never saw
lulesh during training, and compares that against the conventional
approach of assuming the rate measured with a random data-pattern
micro-benchmark.
"""

import numpy as np

from repro.core.conventional import ConventionalErrorModel
from repro.core.model import DramErrorModel, ModelConfig
from repro.dram.operating import OperatingPoint
from repro.ml.metrics import prediction_ratio
from repro.profiling.profiler import profile_workload

TARGET_OP = OperatingPoint.relaxed(0.618, 70.0)
LULESH_VARIANTS = ("lulesh(O2)", "lulesh(F)")


def _measured_wer(campaign, workload):
    return campaign.wer_by_workload(TARGET_OP.trefp_s, TARGET_OP.temperature_c)[workload]


def _train_and_predict(extended_wer_dataset):
    """One KNN model trained without lulesh, its rank columns averaged per workload."""
    model = DramErrorModel(ModelConfig(family="knn", feature_set="set1"))
    X, Y, groups = extended_wer_dataset.rank_matrices(model.feature_set)
    training = ~np.isin(groups, LULESH_VARIANTS)
    model.fit_matrices(X[training], Y[training])
    per_rank = model.predict_matrix(np.stack([
        model.feature_set.build_row(TARGET_OP, profile_workload(workload).features)
        for workload in LULESH_VARIANTS
    ]))
    return {
        workload: float(np.mean(row))
        for workload, row in zip(LULESH_VARIANTS, per_rank)
    }


def test_fig13_workload_aware_vs_conventional(benchmark, extended_campaign,
                                              extended_wer_dataset, print_table):
    predictions = benchmark.pedantic(
        _train_and_predict, args=(extended_wer_dataset,), rounds=1, iterations=1
    )

    measured = {w: _measured_wer(extended_campaign, w)
                for w in LULESH_VARIANTS + ("data-pattern-random",)}
    conventional = ConventionalErrorModel().fit(extended_wer_dataset)
    conventional_scores = conventional.evaluate(extended_wer_dataset)

    rows = []
    for workload in LULESH_VARIANTS:
        error = abs(predictions[workload] - measured[workload]) / measured[workload] * 100
        rows.append((workload, f"measured {measured[workload]:.3e}",
                     f"KNN predicted {predictions[workload]:.3e}", f"error {error:.0f}%"))
    rows.append(("data-pattern-random (conventional rate)",
                 f"measured {measured['data-pattern-random']:.3e}", "", ""))
    rows.append(("conventional model, all workloads",
                 f"mean misestimation {conventional_scores['estimation_factor']:.2f}x "
                 "[paper: 2.9x]", "", ""))
    print_table("Fig. 13: workload-aware vs conventional model (0.618 s, 70 C)", rows)

    # The workload-aware model tracks the measured WER to within a factor of
    # ~2, while the conventional constant-rate model is off by a much larger
    # multiplicative factor on average.
    for workload in LULESH_VARIANTS:
        assert prediction_ratio([measured[workload]], [predictions[workload]]) < 2.5
    assert conventional_scores["estimation_factor"] > 1.5
    knn_factor = np.mean([
        prediction_ratio([measured[w]], [predictions[w]]) for w in LULESH_VARIANTS
    ])
    assert conventional_scores["estimation_factor"] > knn_factor
    # The two compiler variants of lulesh have measurably different WER
    # (the paper reports ~29 %): the study's point is that the model can
    # resolve software-level effects of this size.
    o2, aggressive = measured["lulesh(O2)"], measured["lulesh(F)"]
    assert abs(o2 - aggressive) / min(o2, aggressive) > 0.02
