import numpy as np
import pytest

from perturbpred.errors import NonConvergenceError, ZeroVarianceError
from perturbpred.fit import FitConfig
from perturbpred.ode import OdeModel
from perturbpred.simulate import SimSpec, build_design, build_targets, simulate_responses
from perturbpred.types import ConditionMatrix, InteractionMatrix, ResponseMatrix, TargetMap
from perturbpred.validate import (
    CausalLinearFamily,
    CausalOdeFamily,
    MetricReport,
    RegressionFamily,
    SplitPlan,
    averaged_random_fold_eval,
    lodo_eval,
    mae,
    make_lodo_splits,
    make_random_folds,
    pearson,
)


class TestMetrics:
    def test_perfect_correlation(self):
        x = np.array([1.0, 2.0, 3.0])
        assert pearson(x, x) == pytest.approx(1.0)
        assert mae(x, x) == 0.0

    def test_perfect_anticorrelation(self):
        x = np.array([1.0, 2.0, 3.0])
        assert pearson(x, -x) == pytest.approx(-1.0)

    def test_hand_computed_values(self):
        x = np.array([1.0, 2.0, 3.0])
        y = np.array([2.0, 2.0, 5.0])
        # centered: x = (-1,0,1), y = (-1,-1,2); r = 3/sqrt(2*6)
        assert pearson(x, y) == pytest.approx(3.0 / np.sqrt(12.0), abs=1e-12)
        assert pearson(x, y) == pytest.approx(0.866, abs=5e-4)
        assert mae(x, y) == pytest.approx(1.0)

    def test_zero_variance_errors(self):
        with pytest.raises(ZeroVarianceError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_checks(self):
        with pytest.raises(ValueError):
            pearson([1.0], [2.0])
        with pytest.raises(ValueError):
            mae([1.0, 2.0], [1.0])

    def test_affine_invariance(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=30)
        y = rng.normal(size=30)
        base = pearson(x, y)
        assert abs(pearson(3.5 * x + 2.0, y) - base) <= 1e-12
        assert abs(pearson(x, 0.1 * y - 7.0) - base) <= 1e-12

    def test_matrix_inputs_pool_over_entries(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(4, 3))
        Y = rng.normal(size=(4, 3))
        assert pearson(X, Y) == pearson(X.ravel(), Y.ravel())


class TestRandomFolds:
    def test_documented_split_sizes(self):
        plan = make_random_folds(89, 0.7, 3, seed=0)
        for train, test in plan.folds:
            assert len(train) == 62
            assert len(test) == 27

    def test_reps_recorded(self):
        plan = make_random_folds(50, 0.7, 1000, seed=1)
        assert plan.repetitions == 1000
        # splits should actually differ across repetitions
        assert len({tuple(tr) for tr, _ in plan.folds}) > 900

    def test_same_seed_identical(self):
        a = make_random_folds(40, 0.6, 5, seed=3)
        b = make_random_folds(40, 0.6, 5, seed=3)
        for (t1, s1), (t2, s2) in zip(a.folds, b.folds):
            assert np.array_equal(t1, t2) and np.array_equal(s1, s2)

    def test_partition_soundness(self):
        plan = make_random_folds(23, 0.5, 10, seed=4)
        for train, test in plan.folds:
            assert len(np.intersect1d(train, test)) == 0
            assert np.array_equal(
                np.sort(np.concatenate([train, test])), np.arange(23)
            )

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(ValueError):
            make_random_folds(3, 0.1, 1, seed=0)  # zero training rows
        with pytest.raises(ValueError):
            make_random_folds(10, 1.5, 1, seed=0)
        with pytest.raises(ValueError):
            make_random_folds(10, 0.5, 0, seed=0)

    def test_bad_partition_rejected_by_plan(self):
        with pytest.raises(ValueError):
            SplitPlan(
                kind="random-fold",
                n=4,
                folds=((np.array([0, 1]), np.array([1, 2])),),
            )


class TestLodoSplits:
    def test_sim_design_gives_15_plans(self):
        plans = make_lodo_splits(build_design())
        assert len(plans) == 15
        D = build_design().values
        for plan in plans:
            train, test = plan.folds[0]
            assert len(test) == 14
            assert np.all(D[train, plan.held_out_drug] == 0.0)
            assert np.all(D[test, plan.held_out_drug] != 0.0)

    def test_unused_drug_rejected(self):
        D = ConditionMatrix(np.array([[1.0, 0.0], [2.0, 0.0]]), ["a", "b"])
        with pytest.raises(ValueError, match="b"):
            make_lodo_splits(D)


class _TruthFamily:
    """Fake model family that returns the true responses for the test rows."""

    tag = "regression"

    def __init__(self, X_full, D_full):
        self.X_full = X_full
        self.D_full = D_full

    def fit_predict(self, D_train, X_train, D_test, held_out_drug=None):
        # look test rows up by matching condition rows (unique in the design)
        preds = []
        for row in D_test.values:
            idx = np.flatnonzero(np.all(self.D_full == row, axis=1))[0]
            preds.append(self.X_full[idx])
        return np.array(preds)


class _ZeroFamily:
    tag = "regression"

    def fit_predict(self, D_train, X_train, D_test, held_out_drug=None):
        return np.zeros((D_test.n_conditions, X_train.n_responses))


class TestAveragedRandomFoldEval:
    def test_perfect_model(self):
        D = build_design()
        X = simulate_responses(SimSpec(seed=0), D)
        plan = make_random_folds(105, 2.0 / 3.0, 20, seed=0)
        report = averaged_random_fold_eval(
            _TruthFamily(X.values, D.values), D, X, plan
        )
        assert report.pearson_r == pytest.approx(1.0, abs=1e-12)
        assert report.mae == pytest.approx(0.0, abs=1e-12)
        assert report.metadata["status"] == "ok"

    def test_zero_variance_reported_as_status(self):
        D = build_design()
        X = simulate_responses(SimSpec(seed=0), D)
        plan = make_random_folds(105, 2.0 / 3.0, 30, seed=0)
        report = averaged_random_fold_eval(_ZeroFamily(), D, X, plan)
        assert "zero-variance" in report.metadata["status"]
        assert np.isnan(report.pearson_r)
        assert report.mae >= 0.0

    def test_uncovered_conditions_warn(self):
        D = build_design()
        X = simulate_responses(SimSpec(seed=0), D)
        plan = make_random_folds(105, 2.0 / 3.0, 1, seed=0)
        with pytest.warns(UserWarning, match="never appeared"):
            report = averaged_random_fold_eval(
                _TruthFamily(X.values, D.values), D, X, plan
            )
        assert report.metadata["excluded_conditions"] == 70

    def test_jobs_do_not_change_results(self):
        D = build_design()
        X = simulate_responses(SimSpec(seed=0), D)
        plan = make_random_folds(105, 2.0 / 3.0, 8, seed=1)
        fam = RegressionFamily()
        serial = averaged_random_fold_eval(fam, D, X, plan, jobs=1)
        threaded = averaged_random_fold_eval(fam, D, X, plan, jobs=4)
        assert serial.pearson_r == threaded.pearson_r
        assert serial.mae == threaded.mae

    def test_wrong_plan_kind_rejected(self):
        D = build_design()
        X = simulate_responses(SimSpec(seed=0), D)
        plans = make_lodo_splits(D)
        with pytest.raises(ValueError):
            averaged_random_fold_eval(RegressionFamily(), D, X, plans[0])

    def test_averaging_reduces_seed_variance(self):
        D = build_design()
        fam = RegressionFamily()
        r_few, r_many = [], []
        for master_seed in range(5):
            X = simulate_responses(SimSpec(seed=master_seed), D)
            plan_few = make_random_folds(105, 2.0 / 3.0, 10, seed=100 + master_seed)
            plan_many = make_random_folds(105, 2.0 / 3.0, 1000, seed=100 + master_seed)
            r_few.append(averaged_random_fold_eval(fam, D, X, plan_few).pearson_r)
            r_many.append(averaged_random_fold_eval(fam, D, X, plan_many).pearson_r)
        assert np.std(r_many) < np.std(r_few)


class TestLodoEval:
    def test_regression_monotherapy_points_zero(self):
        # held-out drug never dosed in training: its coefficients are 0, so a
        # monotherapy condition of that drug predicts exactly 0
        D = ConditionMatrix(
            np.array(
                [[0.0, 1.0], [0.0, 2.0], [1.0, 0.0], [1.0, 1.0]]
            ),
            ["a", "b"],
        )
        X = ResponseMatrix(np.array([[0.5], [1.0], [0.7], [1.3]]))
        plans = make_lodo_splits(D)
        plan_a = [p for p in plans if p.drug_name == "a"][0]
        fam = RegressionFamily()
        train, test = plan_a.folds[0]
        D_train = ConditionMatrix(D.values[train], D.drug_names)
        X_train = ResponseMatrix(X.values[train], X.response_names)
        mono = ConditionMatrix(np.array([[1.0, 0.0]]), ["a", "b"])
        preds = fam.fit_predict(D_train, X_train, mono, held_out_drug=0)
        assert np.all(preds == 0.0)

    def test_sim_causal_beats_regression(self):
        D = build_design()
        X = simulate_responses(SimSpec(seed=0), D)
        plans = make_lodo_splits(D)
        _, reg_mean = lodo_eval(RegressionFamily(), D, X, plans, jobs=4)
        _, causal_mean = lodo_eval(
            CausalLinearFamily(build_targets()), D, X, plans, jobs=4
        )
        assert causal_mean >= 0.9
        assert reg_mean < causal_mean

    def test_report_structure(self):
        D = build_design()
        X = simulate_responses(SimSpec(seed=0), D)
        plans = make_lodo_splits(D)[:2]
        reports, mean_r = lodo_eval(RegressionFamily(), D, X, plans)
        assert len(reports) == 2
        for rep, plan in zip(reports, plans):
            assert rep.metadata["held_out_drug"] == plan.drug_name
            assert rep.n_points == 14 * 5
        assert mean_r == pytest.approx(np.mean([r.pearson_r for r in reports]))

    def test_wrong_plan_kind_rejected(self):
        D = build_design()
        X = simulate_responses(SimSpec(seed=0), D)
        plan = make_random_folds(105, 0.5, 1, seed=0)
        with pytest.raises(ValueError):
            lodo_eval(RegressionFamily(), D, X, [plan])


def test_causal_ode_family_refuses_unsettled_test_condition():
    # zero training data leaves the slow initial W in place; a dosed test
    # condition under it is still moving at t_max
    B = TargetMap(np.eye(2))
    template = OdeModel(InteractionMatrix(-np.eye(2)), B, 1.0)
    cfg = FitConfig(max_iter=5, w_init=InteractionMatrix(-0.01 * np.eye(2)))
    family = CausalOdeFamily(B, template, cfg)
    D_train = ConditionMatrix(np.zeros((2, 2)))
    X_train = ResponseMatrix(np.zeros((2, 2)))
    D_test = ConditionMatrix([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(NonConvergenceError, match="condition row 1"):
        family.fit_predict(D_train, X_train, D_test)


def test_metric_report_serialization():
    rep = MetricReport(0.9, 0.1, 10, per_fold=({"repetition": 0, "pearson_r": 0.9},),
                       metadata={"model": "regression"})
    d = rep.to_dict()
    assert d["pearson_r"] == 0.9
    assert d["per_fold"][0]["repetition"] == 0
    assert d["metadata"]["model"] == "regression"
