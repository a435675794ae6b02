"""Tests for the workload-aware error model: features, datasets, models, baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.conventional import ConventionalErrorModel
from repro.core.correlation import (
    CorrelationStudy,
    FeatureCorrelationPoint,
    run_correlation_study,
)
from repro.core.dataset import build_pue_dataset, build_wer_dataset
from repro.core.evaluation import AccuracyEvaluator, best_configuration
from repro.core.features import (
    INPUT_SET_1,
    INPUT_SET_2,
    INPUT_SET_3,
    FeatureSet,
    feature_set_table,
    get_feature_set,
)
from repro.core.model import DramErrorModel, ModelConfig
from repro.core.predictor import WorkloadAwarePredictor
from repro.dram.operating import OperatingPoint
from repro.errors import ConfigurationError, DataError, NotFittedError

from tests.oracles.dataset import (
    Row,
    assert_matches_rows,
    encode_rows,
    reference_build_pue_dataset,
    reference_build_wer_dataset,
    reference_conventional_rates,
    reference_conventional_scores,
)


class TestFeatureSets:
    def test_table3_input_sets(self):
        assert INPUT_SET_1.program_features == (
            "memory_accesses_per_cycle", "wait_cycles", "hdp", "treuse",
        )
        assert INPUT_SET_2.program_features == ("memory_accesses_per_cycle", "wait_cycles")
        assert len(INPUT_SET_3.program_features) == 249

    def test_input_names_start_with_operating_parameters(self):
        assert INPUT_SET_1.input_names[:3] == ["trefp_s", "vdd_v", "temperature_c"]
        assert INPUT_SET_1.num_inputs == 7
        assert INPUT_SET_3.num_inputs == 252

    def test_build_row(self, backprop_profile):
        op = OperatingPoint.relaxed(2.283, 50.0)
        row = INPUT_SET_1.build_row(op, backprop_profile.features)
        assert row.shape == (7,)
        assert row[0] == pytest.approx(2.283)
        assert row[6] == pytest.approx(backprop_profile.feature("treuse"))

    def test_missing_program_feature_rejected(self):
        with pytest.raises(ConfigurationError):
            INPUT_SET_1.build_row(OperatingPoint(), {"treuse": 1.0})

    def test_unknown_feature_set_name_rejected(self):
        with pytest.raises(ConfigurationError):
            get_feature_set("set9")

    def test_unknown_program_feature_rejected(self):
        with pytest.raises(ConfigurationError):
            FeatureSet(name="bad", program_features=("not_a_counter",))

    def test_feature_set_table_has_three_rows(self):
        assert len(feature_set_table()) == 3


class TestDatasets:
    def test_wer_dataset_size_and_targets(self, small_campaign, small_profiles,
                                          small_wer_dataset):
        rows = reference_build_wer_dataset(small_campaign, small_profiles)
        assert len(small_wer_dataset) == len(rows) == len(small_campaign.wer_measurements)
        assert_matches_rows(small_wer_dataset, rows, INPUT_SET_1)
        assert (small_wer_dataset.targets > 0).all()
        assert (small_wer_dataset.rank_codes >= 0).all()

    def test_pue_dataset_targets_in_unit_interval(self, small_campaign, small_profiles,
                                                  small_pue_dataset):
        rows = reference_build_pue_dataset(small_campaign, small_profiles)
        assert_matches_rows(small_pue_dataset, rows, INPUT_SET_2)
        targets = small_pue_dataset.targets
        assert ((0.0 <= targets) & (targets <= 1.0)).all()
        assert (small_pue_dataset.rank_codes == -1).all()

    def test_matrices_shapes(self, small_wer_dataset):
        X, y, groups = small_wer_dataset.matrices(INPUT_SET_1)
        assert X.shape == (len(small_wer_dataset), 7)
        assert y.shape[0] == groups.shape[0] == len(small_wer_dataset)

    def test_filter_rank(self, small_campaign, small_profiles, small_wer_dataset):
        rank = small_wer_dataset.ranks()[0]
        subset = small_wer_dataset.filter_rank(rank)
        assert subset.ranks() == [rank]
        assert len(subset) == len(small_wer_dataset) // 8
        rows = reference_build_wer_dataset(small_campaign, small_profiles)
        assert_matches_rows(subset, [r for r in rows if r.rank == rank], INPUT_SET_1)

    def test_workloads_listed(self, small_wer_dataset):
        assert "memcached" in small_wer_dataset.workloads()
        assert len(small_wer_dataset.workloads()) == 6

    def test_missing_profile_rejected(self, small_campaign):
        with pytest.raises(DataError):
            build_wer_dataset(small_campaign, profiles={})

    def test_pue_dataset_requires_ue_study(self, small_campaign, small_profiles):
        assert len(build_pue_dataset(small_campaign, small_profiles)) == \
            len(small_campaign.pue_summaries)


class TestDramErrorModel:
    @pytest.fixture(scope="class")
    def rank_dataset(self, small_wer_dataset):
        return small_wer_dataset.filter_rank(small_wer_dataset.ranks()[0])

    @pytest.mark.parametrize("family", ["knn", "svm", "rdf"])
    def test_fit_predict_round_trip(self, family, rank_dataset):
        model = DramErrorModel(ModelConfig(family=family, feature_set="set1"))
        model.fit(rank_dataset)
        X, _y, _groups = rank_dataset.matrices(model.feature_set)
        predictions = model.predict_matrix(X)
        assert predictions.shape == (len(rank_dataset),)
        assert np.all(predictions > 0)

    def test_training_set_accuracy_is_good(self, rank_dataset):
        model = DramErrorModel(ModelConfig(family="knn", feature_set="set1"))
        model.fit(rank_dataset)
        X, y, _groups = rank_dataset.matrices(model.feature_set)
        predictions = model.predict_matrix(X)
        ratio = np.abs(np.log10(predictions) - np.log10(y))
        assert np.median(ratio) < 0.2

    def test_single_prediction_interface(self, rank_dataset, backprop_profile):
        model = DramErrorModel(ModelConfig(family="knn", feature_set="set1"))
        model.fit(rank_dataset)
        op = OperatingPoint.relaxed(2.283, 50.0)
        value = model.predict(op, backprop_profile.features)
        assert value > 0

    def test_prediction_before_fit_raises(self, backprop_profile):
        model = DramErrorModel()
        with pytest.raises(NotFittedError):
            model.predict(OperatingPoint(), backprop_profile.features)

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigurationError):
            ModelConfig(family="xgboost")

    def test_clone_preserves_configuration(self):
        model = DramErrorModel(ModelConfig(family="rdf", feature_set="set2"))
        clone = model.clone()
        assert clone.config == model.config
        assert clone is not model


class TestEvaluation:
    def test_knn_set1_beats_conventional_baseline(self, small_wer_dataset, small_campaign,
                                                  small_profiles):
        evaluator = AccuracyEvaluator()
        ranks = small_wer_dataset.ranks()[:2]
        report = evaluator.evaluate_wer(small_wer_dataset, "knn", "set1", ranks=ranks)
        assert 0 < report.average_rank_error < 100

        # Conventional model: constant rate from the random data-pattern micro.
        config = small_campaign.config
        from repro.characterization.campaign import CampaignConfig, CharacterizationCampaign
        micro_config = CampaignConfig(
            workloads=("data-pattern-random",) + config.workloads,
            trefp_values_s=config.trefp_values_s,
            temperatures_c=config.temperatures_c,
        )
        micro_campaign = CharacterizationCampaign(config=micro_config, seed=11).run(
            include_ue_study=False
        )
        dataset = build_wer_dataset(micro_campaign)
        baseline = ConventionalErrorModel().fit(dataset)
        scores = baseline.evaluate(dataset)
        assert scores["mean_percentage_error"] > report.average_rank_error

    def test_report_has_every_rank_and_workload(self, small_wer_dataset):
        evaluator = AccuracyEvaluator()
        ranks = small_wer_dataset.ranks()[:2]
        report = evaluator.evaluate_wer(small_wer_dataset, "knn", "set1", ranks=ranks)
        assert set(report.error_by_rank) == set(ranks)
        assert set(report.error_by_workload) == set(small_wer_dataset.workloads())
        assert report.max_workload_error == max(report.error_by_workload.values()) > 0

    def test_pue_evaluation(self, small_pue_dataset):
        evaluator = AccuracyEvaluator()
        report = evaluator.evaluate_pue(small_pue_dataset, "knn", "set2")
        assert 0 <= report.average_error < 200

    def test_best_configuration_selection(self, small_wer_dataset):
        evaluator = AccuracyEvaluator()
        ranks = small_wer_dataset.ranks()[:1]
        study = evaluator.wer_study(
            small_wer_dataset, families=("knn",), feature_sets=("set1", "set2"), ranks=ranks
        )
        best = best_configuration(study)
        assert best.family == "knn"
        assert best.feature_set in ("set1", "set2")

    def test_missing_rank_information_rejected(self, small_pue_dataset):
        with pytest.raises(DataError):
            AccuracyEvaluator().evaluate_wer(small_pue_dataset, "knn", "set1")


class TestCorrelationStudy:
    def test_study_covers_all_features(self, small_wer_dataset, small_pue_dataset):
        study = run_correlation_study(small_wer_dataset, small_pue_dataset)
        assert len(study.points) == 249
        assert all(-1.0 <= p.rs_wer <= 1.0 for p in study.points)

    def test_memory_access_rate_is_positively_correlated(self, small_wer_dataset,
                                                          small_pue_dataset):
        study = run_correlation_study(small_wer_dataset, small_pue_dataset)
        assert study.rs_wer("memory_accesses_per_cycle") > 0.2
        assert study.rs_pue("memory_accesses_per_cycle") > 0.0

    def test_unknown_feature_rejected(self, small_wer_dataset, small_pue_dataset):
        study = run_correlation_study(small_wer_dataset, small_pue_dataset,
                                      feature_names=["treuse", "hdp"])
        with pytest.raises(DataError):
            study.rs_wer("ipc")

    def test_top_wer_features_orders_by_strength(self):
        study = CorrelationStudy(points=[
            FeatureCorrelationPoint("weak", rs_wer=0.3, rs_pue=0.9),
            FeatureCorrelationPoint("negative", rs_wer=-0.9, rs_pue=0.0),
            FeatureCorrelationPoint("strong", rs_wer=0.7, rs_pue=-0.2),
        ])
        ranked = [point.feature for point in study.top_wer_features()]
        assert ranked == ["negative", "strong", "weak"]
        assert [p.feature for p in study.top_wer_features(1)] == ["negative"]

    def test_empty_study_rejected(self):
        with pytest.raises(DataError):
            CorrelationStudy(points=[])

    def test_named_feature_summary_skips_absent_features(self):
        study = CorrelationStudy(points=[
            FeatureCorrelationPoint("hdp", rs_wer=0.4, rs_pue=0.1),
            FeatureCorrelationPoint("l2_miss_rate", rs_wer=0.2, rs_pue=0.3),
        ])
        assert study.named_feature_summary() == {"hdp": (0.4, 0.1)}

    def test_constant_feature_correlates_to_exactly_zero(self):
        # Zero-variance contract: a feature that never varies across
        # workloads has no ranking information, so its coefficient must be
        # exactly 0.0 — not a NaN that would silently poison the study mean.
        workloads = [f"w{i}" for i in range(4)]
        features = {
            w: {"f_const": 7.5, "f_varying": float(i)}
            for i, w in enumerate(workloads)
        }

        def build(seed):
            r = np.random.default_rng(seed)
            return encode_rows([
                Row(
                    workload=workload,
                    operating_point=OperatingPoint(
                        trefp_s=trefp, vdd_v=1.45, temperature_c=50.0
                    ),
                    target=float(abs(r.normal()) + 0.1),
                    program_features=features[workload],
                )
                for trefp in (1.173, 2.283)
                for workload in workloads
            ])

        study = run_correlation_study(
            build(1), build(2), feature_names=["f_const", "f_varying"]
        )
        assert study.rs_wer("f_const") == 0.0
        assert study.rs_pue("f_const") == 0.0
        assert -1.0 <= study.rs_wer("f_varying") <= 1.0

    def test_constant_targets_within_groups_yield_zero_not_nan(self):
        # Constant per-group targets are the other zero-variance direction.
        def build():
            return encode_rows([
                Row(
                    workload=f"w{i}",
                    operating_point=OperatingPoint(
                        trefp_s=trefp, vdd_v=1.45, temperature_c=50.0
                    ),
                    target=0.25,
                    program_features={"f": float(i)},
                )
                for trefp in (1.173, 2.283)
                for i in range(4)
            ])

        study = run_correlation_study(build(), build(), feature_names=["f"])
        assert study.rs_wer("f") == 0.0
        assert not np.isnan(study.rs_wer("f"))


class TestConventionalModel:
    def test_requires_reference_workload(self, small_wer_dataset):
        with pytest.raises(DataError):
            ConventionalErrorModel().fit(small_wer_dataset)

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            ConventionalErrorModel().predict(OperatingPoint())

    # The columnar fit/evaluate must give the per-row loop's bits.  The
    # small campaign has no data-pattern micro-benchmark, so one of its
    # workloads stands in as the reference.
    @staticmethod
    def _assert_matches_oracle(fitted_on, evaluated_on):
        dataset, rows = fitted_on
        try:
            expected = reference_conventional_rates(rows, "kmeans")
        except DataError:
            with pytest.raises(DataError):
                ConventionalErrorModel(reference_workload="kmeans").fit(dataset)
            return
        model = ConventionalErrorModel(reference_workload="kmeans").fit(dataset)
        assert list(model._rates.items()) == list(expected.items())
        for data, data_rows in evaluated_on:
            try:
                reference = reference_conventional_scores(model, data_rows)
            except DataError:
                with pytest.raises(DataError):
                    model.evaluate(data)
                continue
            scores = model.evaluate(data)
            assert list(scores) == list(reference)
            assert np.array_equal(np.array(list(scores.values())),
                                  np.array(list(reference.values())), equal_nan=True)

    def test_fit_and_evaluate_match_per_row_loop(self, small_campaign, small_profiles,
                                                 small_wer_dataset):
        rows = reference_build_wer_dataset(small_campaign, small_profiles)
        self._assert_matches_oracle((small_wer_dataset, rows), [(small_wer_dataset, rows)])

    @given(seed=st.integers(min_value=0, max_value=2 ** 16),
           keep=st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=15, deadline=None)
    def test_row_subsets_match_per_row_loop(self, small_campaign, small_profiles,
                                            small_wer_dataset, seed, keep):
        """Hypothesis: fit on any row subset; evaluating on every row also
        exercises the closest-operating-point fallback."""
        rows = reference_build_wer_dataset(small_campaign, small_profiles)
        mask = np.random.default_rng(seed).random(len(rows)) < keep
        subset = (small_wer_dataset.subset(mask),
                  [row for row, kept in zip(rows, mask) if kept])
        self._assert_matches_oracle(
            subset, [subset, (small_wer_dataset, rows)]
        )


class TestWorkloadAwarePredictor:
    @pytest.fixture(scope="class")
    def predictor(self, small_campaign, small_profiles):
        return WorkloadAwarePredictor().fit(small_campaign, small_profiles)

    def test_prediction_structure(self, predictor, memcached_profile):
        result = predictor.predict(memcached_profile, OperatingPoint.relaxed(2.283, 50.0))
        assert len(result.wer_by_rank) == 8
        assert result.memory_wer > 0
        assert 0.0 <= result.pue <= 1.0

    def test_prediction_is_fast(self, predictor, memcached_profile):
        result = predictor.predict(memcached_profile, OperatingPoint.relaxed(2.283, 50.0))
        # The paper quotes < 300 ms per prediction; the reproduction is far faster.
        assert result.latency_s < 0.3

    def test_memcached_predicted_below_srad(self, predictor, small_profiles):
        op = OperatingPoint.relaxed(2.283, 50.0)
        memcached = predictor.predict_wer(small_profiles["memcached"], op)
        srad = predictor.predict_wer(small_profiles["srad(par)"], op)
        assert memcached < srad

    def test_unfitted_predictor_raises(self, memcached_profile):
        with pytest.raises(NotFittedError):
            WorkloadAwarePredictor().predict(memcached_profile, OperatingPoint())

    def test_invalid_workload_type_rejected(self, predictor):
        with pytest.raises(ConfigurationError):
            predictor.predict(123, OperatingPoint())
