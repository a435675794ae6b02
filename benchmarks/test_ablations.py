"""Ablation benches for the design choices called out in DESIGN.md.

These quantify how much each modelled mechanism contributes to the
reproduced behaviour: the implicit-refresh (access-driven recharge)
effect, the access-rate-driven interference term, and the KNN
hyper-parameters of the error model.
"""

from repro.core.dataset import build_wer_dataset
from repro.core.evaluation import AccuracyEvaluator
from repro.dram.calibration import (
    DEFAULT_CALIBRATION,
    DramCalibration,
    WorkloadEffectCalibration,
)
from repro.dram.operating import OperatingPoint
from repro.dram.statistical import StatisticalErrorModel
from repro.profiling.profiler import profile_workload
from repro.workloads.registry import campaign_workload_names

from tests.oracles.dataset import spearman_correlation

OP = OperatingPoint.relaxed(2.283, 50.0)


def _calibration_with(**overrides) -> DramCalibration:
    base = DEFAULT_CALIBRATION.workload
    params = {field: getattr(base, field) for field in base.__dataclass_fields__}
    params.update(overrides)
    return DramCalibration(
        retention=DEFAULT_CALIBRATION.retention,
        workload=WorkloadEffectCalibration(**params),
        ue=DEFAULT_CALIBRATION.ue,
        convergence_tau_s=DEFAULT_CALIBRATION.convergence_tau_s,
    )


def _per_workload_wer(calibration) -> dict:
    model = StatisticalErrorModel(calibration=calibration)
    return {
        name: model.expected_wer(OP, profile_workload(name).behavior(), name)
        for name in campaign_workload_names()
    }


def test_ablation_implicit_refresh(benchmark, print_table):
    """Without access-driven recharge, memcached stops being the safest workload."""
    def run():
        with_refresh = _per_workload_wer(DEFAULT_CALIBRATION)
        without_refresh = _per_workload_wer(
            _calibration_with(implicit_refresh_residual=1.0)
        )
        return with_refresh, without_refresh

    with_refresh, without_refresh = benchmark.pedantic(run, rounds=1, iterations=1)
    ratio = without_refresh["memcached"] / with_refresh["memcached"]
    spread_with = max(with_refresh.values()) / min(with_refresh.values())
    spread_without = max(without_refresh.values()) / min(without_refresh.values())
    print_table("Ablation: implicit refresh (access-driven recharge)",
                [("memcached WER without/with refresh effect", f"{ratio:.1f}x"),
                 ("workload spread with effect", f"{spread_with:.1f}x"),
                 ("workload spread without effect", f"{spread_without:.1f}x")])

    # The refresh effect is what keeps the short-reuse-time workloads safe.
    assert ratio > 2.0
    assert spread_with > spread_without


def test_ablation_interference(benchmark, print_table):
    """Without the disturbance term, the access rate loses its predictive power."""
    def correlation(calibration):
        wers = _per_workload_wer(calibration)
        rates = [profile_workload(name).feature("memory_accesses_per_cycle")
                 for name in wers]
        return spearman_correlation(rates, list(wers.values()))

    def run():
        return (
            correlation(DEFAULT_CALIBRATION),
            correlation(_calibration_with(interference_per_access_per_kcycle=0.0)),
        )

    with_interference, without_interference = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table("Ablation: access-rate interference term",
                [("rs(access rate, WER) with interference", f"{with_interference:+.2f}"),
                 ("rs(access rate, WER) without interference", f"{without_interference:+.2f}")])

    assert with_interference > without_interference


def test_ablation_knn_hyperparameters(benchmark, full_campaign, campaign_profiles,
                                      print_table):
    """Sensitivity of the KNN error model to the neighbour count."""
    import repro.core.model as model_module

    dataset = build_wer_dataset(full_campaign, campaign_profiles)
    rank = dataset.ranks()[0]
    rank_dataset = dataset.filter_rank(rank)
    evaluator = AccuracyEvaluator()

    def sweep():
        from repro.ml.knn import KNeighborsRegressor

        results = {}
        original = model_module._build_estimator
        try:
            for k in (1, 2, 3, 5, 7):
                model_module._build_estimator = (
                    lambda family, rs, num_inputs=10, _k=k:
                    KNeighborsRegressor(n_neighbors=_k, weights="distance")
                    if family == "knn" else original(family, rs, num_inputs)
                )
                report = evaluator.evaluate_wer(dataset, "knn", "set1", ranks=[rank])
                results[k] = report.average_rank_error
        finally:
            model_module._build_estimator = original
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table("Ablation: KNN neighbour count (leave-one-workload-out error, one rank)",
                [(f"k={k}", f"{error:.1f}%") for k, error in results.items()])

    assert all(error > 0 for error in results.values())
    # Very large neighbourhoods average across dissimilar workloads and hurt.
    assert min(results.values()) <= results[7]
    assert len(rank_dataset) > 0
