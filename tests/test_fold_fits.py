"""Fold-aware fitting: ``fit_many``, ``Pipeline.fit_many`` and ``fit_folds``.

Leave-one-workload-out evaluation fits one model per training fold.
``RandomForestRegressor.fit_many`` grows every fold's trees in one
lockstep over a stacked row matrix; these tests pin each fold's forest,
bit for bit, against a separate ``fit`` on that fold (and, on a small
case, against the recursive oracle builder), check the chunk rule that
bounds a stacked pass, the fold-level ``DramErrorModel.fit_folds`` for
all three families, the boundary validation, and the telemetry the fold
fits and the SVR solver report.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import DramErrorModel, ModelConfig
from repro.errors import ConfigurationError, DataError
from repro.ml import forest as forest_module
from repro.ml import tree as tree_module
from repro.ml.cross_validation import LeaveOneGroupOut, cross_val_predict_groups
from repro.ml.forest import RandomForestRegressor
from repro.ml.knn import KNeighborsRegressor
from repro.ml.pipeline import Pipeline
from repro.ml.scaling import StandardScaler
from repro.ml.svm import SVR, _smoothed_epsilon_insensitive
from repro.ml.tree import lockstep_chunks
from repro.telemetry import telemetry_session

from tests.oracles.ml import fit_forest_oracle
from tests.oracles.telemetry import find_span


def _forest_arrays(forest):
    return (
        forest._roots_, forest._feature_, forest._threshold_,
        forest._left_, forest._right_, forest._value_,
    )


def _assert_same_forest(got, want):
    assert got.n_features_ == want.n_features_
    assert got.n_outputs_ == want.n_outputs_
    for a, b in zip(_forest_arrays(got), _forest_arrays(want)):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)
    assert len(got.estimators_) == len(want.estimators_)
    for a, b in zip(got.estimators_, want.estimators_):
        assert a.random_state == b.random_state
        for x, y in zip(
            (a.feature_, a.threshold_, a.children_left_, a.children_right_, a.value_),
            (b.feature_, b.threshold_, b.children_left_, b.children_right_, b.value_),
        ):
            assert np.array_equal(x, y)


@st.composite
def _fold_sets(draw):
    """Training sets of one width, unequal sizes, 1-D or ``(n, R)`` targets."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = draw(st.integers(1, 12))
    outputs = draw(st.sampled_from([None, 1, 3]))
    sizes = draw(st.lists(st.integers(2, 60), min_size=1, max_size=5))
    sets = []
    for n in sizes:
        if draw(st.booleans()):
            X = rng.integers(0, 3, size=(n, d)).astype(float)
        else:
            X = rng.normal(size=(n, d))
        shape = (n,) if outputs is None else (n, outputs)
        sets.append((X, rng.normal(size=shape)))
    return sets


class TestForestFitMany:
    @settings(max_examples=40, deadline=None)
    @given(
        sets=_fold_sets(),
        n_estimators=st.integers(1, 5),
        max_depth=st.one_of(st.none(), st.integers(0, 8)),
        min_samples_leaf=st.integers(1, 4),
        max_features=st.one_of(
            st.none(), st.sampled_from(["sqrt", "log2"]), st.integers(1, 8),
            st.floats(0.05, 1.0),
        ),
        bootstrap=st.booleans(),
        seed=st.integers(0, 2 ** 31 - 1),
    )
    def test_each_forest_equals_its_own_fit(
        self, sets, n_estimators, max_depth, min_samples_leaf, max_features,
        bootstrap, seed,
    ):
        template = RandomForestRegressor(
            n_estimators=n_estimators, max_depth=max_depth,
            min_samples_leaf=min_samples_leaf, max_features=max_features,
            bootstrap=bootstrap, random_state=seed,
        )
        stacked = template.fit_many(sets)
        assert len(stacked) == len(sets)
        for forest, (X, y) in zip(stacked, sets):
            alone = template.clone().fit(X, y)
            _assert_same_forest(forest, alone)
            assert np.array_equal(forest.predict(X), alone.predict(X))

    def test_stacked_forests_match_the_recursive_builder(self):
        rng = np.random.default_rng(5)
        sets = [(rng.normal(size=(n, 4)), rng.normal(size=n)) for n in (30, 30, 41)]
        template = RandomForestRegressor(
            n_estimators=3, max_depth=5, max_features=0.5, random_state=9
        )
        for forest, (X, y) in zip(template.fit_many(sets), sets):
            oracle = fit_forest_oracle(forest, X, y)
            for got, want in zip(
                _forest_arrays(forest),
                (oracle.roots, oracle.feature, oracle.threshold,
                 oracle.left, oracle.right, oracle.value),
            ):
                assert np.array_equal(got, want)

    def test_mixed_widths_and_targets_group_apart(self):
        rng = np.random.default_rng(2)
        sets = [
            (rng.normal(size=(20, 3)), rng.normal(size=20)),
            (rng.normal(size=(20, 5)), rng.normal(size=20)),
            (rng.normal(size=(20, 3)), rng.normal(size=(20, 2))),
            (rng.normal(size=(25, 3)), rng.normal(size=25)),
        ]
        template = RandomForestRegressor(n_estimators=4, max_depth=4, random_state=1)
        for forest, (X, y) in zip(template.fit_many(sets), sets):
            _assert_same_forest(forest, template.clone().fit(X, y))

    def test_forests_wider_than_one_pass_still_match(self, monkeypatch):
        # A bound of two trees per pass splits every 5-tree forest in
        # three, stacked or not; each tree still comes out the same.
        rng = np.random.default_rng(12)
        sets = [(rng.normal(size=(40, 6)), rng.normal(size=40)) for _ in range(3)]
        template = RandomForestRegressor(
            n_estimators=5, max_depth=6, max_features=0.5, random_state=3
        )
        expected = [template.clone().fit(X, y) for X, y in sets]
        monkeypatch.setattr(tree_module, "_LOCKSTEP_ELEMENTS", 2 * 7 * 40)
        for forest, want in zip(template.fit_many(sets), expected):
            _assert_same_forest(forest, want)

    def test_one_lockstep_per_target_column(self, monkeypatch):
        calls = []
        grow = forest_module.grow_trees

        def counting(X, y, samples, *args, **kwargs):
            calls.append(samples.shape)
            return grow(X, y, samples, *args, **kwargs)

        monkeypatch.setattr(forest_module, "grow_trees", counting)
        rng = np.random.default_rng(0)
        sets = [(rng.normal(size=(30, 3)), rng.normal(size=(30, 2))) for _ in range(4)]
        RandomForestRegressor(n_estimators=6, max_depth=3, random_state=0).fit_many(sets)
        assert calls == [(24, 30), (24, 30)]


class TestLockstepChunks:
    @settings(max_examples=200, deadline=None)
    @given(
        forest_size=st.integers(1, 120),
        n_forests=st.integers(1, 16),
        n_features=st.integers(1, 300),
        n_rows=st.integers(1, 400),
    )
    def test_never_splits_a_forest_more_finely_than_alone(
        self, forest_size, n_forests, n_features, n_rows
    ):
        n_trees = forest_size * n_forests
        chunks = lockstep_chunks(n_trees, forest_size, n_features, n_rows)
        # The chunks tile the trees in order.
        assert chunks[0][0] == 0 and chunks[-1][1] == n_trees
        assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
        assert all(first < stop for first, stop in chunks)
        # How a lone forest has always been chunked: as many trees per
        # pass as fit under the lockstep bound.
        per_tree = (n_features + 1) * n_rows
        widest = max(1, tree_module._LOCKSTEP_ELEMENTS // per_tree)
        alone = [
            (first, min(first + widest, forest_size))
            for first in range(0, forest_size, widest)
        ]
        assert lockstep_chunks(forest_size, forest_size, n_features, n_rows) == alone
        for forest in range(0, n_trees, forest_size):
            pieces = [
                (max(first, forest) - forest, min(stop, forest + forest_size) - forest)
                for first, stop in chunks
                if first < forest + forest_size and stop > forest
            ]
            assert pieces == alone
        # No pass is wider than a lone forest's, and a pass of several
        # forests stays under the stacked bound.
        for first, stop in chunks:
            assert stop - first <= widest
            if stop - first > forest_size:
                assert (stop - first) * per_tree <= tree_module._STACKED_ELEMENTS

    def test_narrow_forests_stack_under_the_stacked_bound(self):
        # The set1 WER shape: 14 folds of a 30-tree forest, 143 rows x 7
        # inputs; three forests (90 trees) share a pass.
        chunks = lockstep_chunks(14 * 30, 30, 7, 143)
        assert [stop - first for first, stop in chunks] == [90, 90, 90, 90, 60]
        per_pass = 90 * 8 * 143
        assert per_pass <= tree_module._STACKED_ELEMENTS

    def test_lone_forest_chunks_are_unchanged(self):
        # A lone forest splits only when wider than one pass.
        assert lockstep_chunks(30, 30, 7, 143) == [(0, 30)]
        widest = tree_module._LOCKSTEP_ELEMENTS // (250 * 143)
        chunks = lockstep_chunks(100, 100, 249, 143)
        assert chunks[0] == (0, widest) and chunks[-1][1] == 100


def _lowo_data(seed=3, n_groups=5, rows=6, outputs=None):
    rng = np.random.default_rng(seed)
    n = n_groups * rows
    X = np.column_stack([
        rng.choice([0.128, 0.512, 1.024, 2.048], size=n),   # trefp_s
        rng.choice([1.35, 1.428, 1.5], size=n),              # vdd_v
        rng.choice([50.0, 60.0, 70.0], size=n),              # temperature_c
        rng.uniform(1e-4, 1e-1, size=(n, 4)),                # program features
    ])
    shape = (n,) if outputs is None else (n, outputs)
    y = 10.0 ** rng.uniform(-9, -5, size=shape)
    groups = np.repeat(np.arange(n_groups), rows)
    folds = [train for train, _ in LeaveOneGroupOut().split(X, groups)]
    return X, y, folds


class TestFitFolds:
    @pytest.mark.parametrize("family", ["svm", "knn", "rdf"])
    @pytest.mark.parametrize("outputs", [None, 2])
    @pytest.mark.parametrize("log_target", [True, False])
    def test_each_fold_equals_clone_fit_matrices(self, family, outputs, log_target):
        X, y, folds = _lowo_data(outputs=outputs)
        if not log_target:
            y = np.minimum(y * 1e5, 1.0)
        model = DramErrorModel(
            ModelConfig(family=family, feature_set="set1", log_target=log_target)
        )
        fitted = model.fit_folds(X, y, folds)
        assert len(fitted) == len(folds)
        for fold_model, train in zip(fitted, folds):
            alone = model.clone().fit_matrices(X[train], y[train])
            assert fold_model.config == model.config
            assert np.array_equal(fold_model.predict_matrix(X), alone.predict_matrix(X))
        if family == "rdf":
            for fold_model, train in zip(fitted, folds):
                alone = model.clone().fit_matrices(X[train], y[train])
                _assert_same_forest(
                    fold_model._pipeline.steps[-1][1], alone._pipeline.steps[-1][1]
                )

    def test_unequal_folds(self):
        X, y, _ = _lowo_data(n_groups=4, rows=5)
        folds = [np.arange(0, 12), np.arange(3, 20), np.array([0, 5, 7, 9, 11, 13])]
        model = DramErrorModel(ModelConfig(family="rdf", feature_set="set1"))
        for fold_model, train in zip(model.fit_folds(X, y, folds), folds):
            alone = model.clone().fit_matrices(X[train], y[train])
            assert np.array_equal(fold_model.predict_matrix(X), alone.predict_matrix(X))

    @pytest.mark.parametrize("family", ["svm", "knn", "rdf"])
    def test_every_family_fits_its_folds_in_one_ml_fit_span(self, family):
        X, y, folds = _lowo_data()
        with telemetry_session() as telemetry:
            DramErrorModel(ModelConfig(family=family, feature_set="set1")).fit_folds(X, y, folds)
        snapshot = telemetry.snapshot()
        assert find_span(snapshot, "ml.fit").count == 1
        assert snapshot.counters["ml.fit_rows"] == sum(len(fold) for fold in folds)

    def test_fold_fit_runs_inside_one_fit_matrices_call(self, monkeypatch):
        # Whatever wraps fit_matrices (a timer, a counter) sees the whole
        # stacked fold fit, and fit_matrices returns the fold models.
        calls = []
        original = DramErrorModel.fit_matrices

        def recording(model, X, y, train_indices=None):
            calls.append(train_indices is not None)
            return original(model, X, y, train_indices)

        monkeypatch.setattr(DramErrorModel, "fit_matrices", recording)
        X, y, folds = _lowo_data()
        model = DramErrorModel(ModelConfig(family="rdf", feature_set="set1"))
        fitted = model.fit_folds(X, y, folds)
        assert calls == [True]
        assert not hasattr(model, "fitted_")
        direct = model.fit_matrices(X, y, folds)
        for via_folds, via_matrices in zip(fitted, direct):
            assert np.array_equal(via_folds.predict_matrix(X), via_matrices.predict_matrix(X))


class TestBoundaryValidation:
    @pytest.mark.parametrize("estimator", [
        RandomForestRegressor(n_estimators=2, random_state=0),
        KNeighborsRegressor(n_neighbors=1),
        SVR(),
        Pipeline([("scaler", StandardScaler()), ("model", KNeighborsRegressor(1))]),
    ])
    def test_fit_many_rejects_an_empty_list(self, estimator):
        with pytest.raises(DataError, match="at least one"):
            estimator.fit_many([])

    @pytest.mark.parametrize("estimator", [
        RandomForestRegressor(n_estimators=2, random_state=0),
        KNeighborsRegressor(n_neighbors=1),
        Pipeline([("scaler", StandardScaler()), ("model", KNeighborsRegressor(1))]),
    ])
    def test_fit_many_rejects_a_length_mismatch(self, estimator):
        rng = np.random.default_rng(0)
        good = (rng.normal(size=(6, 2)), rng.normal(size=6))
        with pytest.raises(DataError, match="inconsistent"):
            estimator.fit_many([good, (rng.normal(size=(6, 2)), rng.normal(size=5))])

    def test_fit_many_rejects_an_empty_set(self):
        rng = np.random.default_rng(0)
        good = (rng.normal(size=(6, 2)), rng.normal(size=6))
        with pytest.raises(DataError, match="empty"):
            RandomForestRegressor(n_estimators=2).fit_many([good, (np.zeros((0, 2)), [])])

    def test_a_bad_set_fails_before_any_growth(self, monkeypatch):
        def no_growth(*args, **kwargs):
            raise AssertionError("a tree grew before validation finished")

        monkeypatch.setattr(forest_module, "grow_trees", no_growth)
        rng = np.random.default_rng(1)
        good = (rng.normal(size=(8, 3)), rng.normal(size=8))
        bad = (rng.normal(size=(8, 3)), np.full(8, np.nan))
        with pytest.raises(DataError):
            RandomForestRegressor(n_estimators=2).fit_many([good, good, bad])

    def test_fit_folds_rejects_no_folds(self):
        X, y, _ = _lowo_data()
        with pytest.raises(DataError, match="at least one"):
            DramErrorModel(ModelConfig(family="rdf")).fit_folds(X, y, [])

    @pytest.mark.parametrize("family", ["svm", "knn", "rdf"])
    def test_fit_folds_rejects_an_empty_fold(self, family, monkeypatch):
        monkeypatch.setattr(forest_module, "grow_trees", None)
        X, y, folds = _lowo_data()
        with pytest.raises(DataError, match="non-empty"):
            DramErrorModel(ModelConfig(family=family)).fit_folds(
                X, y, [folds[0], np.array([], dtype=int)]
            )

    @pytest.mark.parametrize("family", ["svm", "knn", "rdf"])
    def test_fit_folds_rejects_a_length_mismatch(self, family):
        X, y, folds = _lowo_data()
        with pytest.raises(DataError, match="inconsistent"):
            DramErrorModel(ModelConfig(family=family)).fit_folds(X, y[:-1], folds)

    @pytest.mark.parametrize("fold", [
        np.array([0.0, 1.0, 2.0]), np.array([0, 1, 30]), np.array([-1, 0, 1]),
        np.array([[0, 1], [2, 3]]),
    ])
    def test_fit_folds_rejects_bad_indices(self, fold):
        X, y, _ = _lowo_data()
        with pytest.raises(DataError):
            DramErrorModel(ModelConfig(family="rdf")).fit_folds(X, y, [fold])


class TestCrossValidationThroughFitMany:
    def test_forest_predictions_equal_per_fold_fits(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(48, 3))
        y = rng.normal(size=48)
        groups = np.repeat(np.arange(4), 12)
        template = RandomForestRegressor(n_estimators=5, max_depth=4, random_state=2)
        with telemetry_session() as telemetry:
            predictions = cross_val_predict_groups(template, X, y, groups)
        expected = np.empty_like(y)
        for train, test in LeaveOneGroupOut().split(X, groups):
            expected[test] = template.clone().fit(X[train], y[train]).predict(X[test])
        assert np.array_equal(predictions, expected)
        snapshot = telemetry.snapshot()
        assert find_span(snapshot, "ml.cross_validation").count == 1
        assert snapshot.counters["ml.cv_folds"] == 4


class TestSvrObjective:
    @pytest.mark.parametrize("smoothing", [0.0, -1e-3])
    def test_smoothing_must_be_positive(self, smoothing):
        with pytest.raises(ConfigurationError, match="smoothing"):
            SVR(smoothing=smoothing)

    def test_loss_and_gradient_by_region(self):
        # Inside the tube, on the quadratic ramp, on the linear part, and
        # at the signs of each.
        residual = np.array([0.0, 0.005, -0.0105, 0.0105, -2.0, 2.0])
        loss, grad = _smoothed_epsilon_insensitive(residual.copy(), 0.01, 1e-3)
        pos = np.maximum(np.abs(residual) - 0.01, 0.0)
        assert np.array_equal(loss[:2], [0.0, 0.0])
        assert np.array_equal(loss[2:4], 0.5 * pos[2:4] ** 2 / 1e-3)
        assert np.array_equal(loss[4:], pos[4:] - 0.5e-3)
        assert np.array_equal(grad, [0.0, 0.0, -pos[2] / 1e-3, pos[3] / 1e-3, -1.0, 1.0])


class TestSvrIterationCounters:
    def test_capped_fits_are_counted(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(30, 3))
        Y = rng.normal(size=(30, 2))
        with telemetry_session() as telemetry:
            model = SVR(C=10.0, max_iter=5).fit(X, Y)
        counters = telemetry.snapshot().counters
        assert list(model.n_iter_) == [5, 5]
        assert counters["ml.svr_capped_fits"] == 2
        assert counters["ml.svr_iterations"] == 10

    def test_convergence_at_the_iteration_limit_is_not_capped(self):
        # The start point is already optimal: L-BFGS converges after zero
        # iterations, which is also max_iter.
        X = np.linspace(0.0, 1.0, 8)[:, None]
        with telemetry_session() as telemetry:
            model = SVR(epsilon=0.5, max_iter=0).fit(X, np.zeros(8))
        counters = telemetry.snapshot().counters
        assert model.n_iter_ == model.max_iter == 0
        assert counters["ml.svr_capped_fits"] == 0

    def test_a_converged_fit_is_not_capped(self):
        X = np.linspace(0.0, 1.0, 8)[:, None]
        with telemetry_session() as telemetry:
            model = SVR(epsilon=0.5, max_iter=500).fit(X, np.zeros(8))
        counters = telemetry.snapshot().counters
        assert model.n_iter_ < 500
        assert counters["ml.svr_capped_fits"] == 0
        assert counters["ml.svr_iterations"] == model.n_iter_
