from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import perturbpred.fit as fit_module
import perturbpred.validate as validate_module
from perturbpred.errors import (
    DimensionError,
    NonConvergenceError,
    SingularMatrixError,
    ZeroVarianceError,
)
from perturbpred.fit import FitConfig, fit_regression
from perturbpred.linear import predict_causal_linear
from perturbpred.ode import OdeModel
from perturbpred.simulate import SimSpec, build_design, build_targets, simulate_responses
from perturbpred.types import ConditionMatrix, InteractionMatrix, ResponseMatrix, TargetMap
from perturbpred.validate import (
    CausalLinearFamily,
    CausalOdeFamily,
    MetricReport,
    ModelFamily,
    RegressionFamily,
    SplitPlan,
    averaged_random_fold_eval,
    fit_folds,
    lodo_eval,
    mae,
    make_lodo_splits,
    make_random_folds,
    pearson,
    pearson_rows,
    select_lambda_cv,
)


def reference_pearson_rows(x, y):
    """pearson_rows as it was before rows were scaled by powers of two."""
    xc = x - x.mean(axis=1, keepdims=True)
    yc = y - y.mean(axis=1, keepdims=True)
    denom = np.sqrt(np.sum(xc * xc, axis=1) * np.sum(yc * yc, axis=1))
    defined = denom != 0.0
    r = np.divide(np.sum(xc * yc, axis=1), denom, out=np.zeros_like(denom), where=defined)
    return [v if ok else None for v, ok in zip(r.tolist(), defined.tolist())]


# entries that stay normal floats when scaled by 2^k for |k| <= 900
_ENTRIES = st.one_of(st.just(0.0), st.floats(2.0**-60, 1e3), st.floats(-1e3, -(2.0**-60)))


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

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        xy=st.tuples(st.integers(1, 4), st.integers(2, 8)).flatmap(
            lambda shape: st.tuples(arrays(float, shape, elements=_ENTRIES),
                                    arrays(float, shape, elements=_ENTRIES))),
        k=st.integers(-900, 900),
        j=st.integers(-900, 900),
    )
    def test_rows_do_not_depend_on_powers_of_two(self, xy, k, j):
        # r does not depend on scale, and 2^k scales exactly: beyond about
        # 2^+-255 the raw rows' sums of squares, or their product, overflow
        # or underflow, and must still score as the rows at scale 1, which
        # keep the bits of the unscaled formula
        x, y = xy
        want = pearson_rows(x, y)
        assert want == reference_pearson_rows(x, y)
        assert pearson_rows(np.ldexp(x, k), np.ldexp(y, j)) == want

    @pytest.mark.parametrize("scale", [1e80, 1e-160, 1e300, 1e-300])
    def test_extreme_scales_score_as_scale_one(self, scale):
        # at 1e80 sxx * syy overflows and r read 0.0; at 1e-160 it underflows
        # and r read as undefined
        rng = np.random.default_rng(2)
        x = rng.normal(size=50)
        y = x + rng.normal(size=50)
        assert pearson(scale * x, scale * y) == pytest.approx(pearson(x, y), abs=1e-14)
        assert pearson(scale * x, y) == pytest.approx(pearson(x, y), abs=1e-14)


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

    @pytest.mark.parametrize("n,reps,seed", [(2, 1, 0), (23, 16, 4), (105, 40, 3), (300, 17, 9)])
    def test_folds_match_one_permutation_per_rep(self, n, reps, seed):
        # each block's rows are permuted in one call, drawing what one
        # rng.permutation(n) per rep, in order, draws from the same stream
        plan = make_random_folds(n, 0.7, reps, seed)
        rng = np.random.default_rng(seed)
        n_train = int(np.floor(0.7 * n))
        for train, test in plan.folds:
            perm = rng.permutation(n)
            assert np.array_equal(train, np.sort(perm[:n_train]))
            assert np.array_equal(test, np.sort(perm[n_train:]))

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

    def test_non_integer_indices_rejected_by_plan(self):
        # float rows partition the rows by value, but cannot index them
        with pytest.raises(ValueError, match="integer indices, got float64"):
            SplitPlan(kind="random-fold", n=4,
                      folds=((np.array([0.0, 1.0, 2.0]), np.array([3.0])),))


_FAULTS = ("repeated row", "missing row", "row n", "row -1", "float rows")


@st.composite
def _fold_lists(draw):
    """(n, folds): 1-12 folds of n rows, of one training size or of mixed
    sizes, each a partition, sorted or not, or with one of _FAULTS."""
    n = draw(st.integers(1, 10))
    one_size = draw(st.booleans())
    size = draw(st.integers(0, n))
    folds = []
    for _ in range(draw(st.integers(1, 12))):
        perm = draw(st.permutations(range(n)))
        s = size if one_size else draw(st.integers(0, n))
        parts = [list(perm[:s]), list(perm[s:])]
        if draw(st.booleans()):
            parts = [sorted(part) for part in parts]
        dtype = draw(st.sampled_from([np.int64, np.int32]))
        fault = draw(st.sampled_from((None, None, None) + _FAULTS))
        part = parts[draw(st.booleans())]
        if fault == "repeated row":
            part.append(draw(st.sampled_from(perm)))
        elif fault == "float rows":
            dtype = np.float64
        elif fault is not None:
            part = max(parts, key=len)  # n >= 1, so one part holds a row
            k = draw(st.integers(0, len(part) - 1))
            if fault == "missing row":
                del part[k]
            else:
                part[k] = n if fault == "row n" else -1
        folds.append(tuple(np.array(part, dtype=dtype) for part in parts))
    return n, folds


def _partitions(n, train, test):
    """The per-fold reference: integer rows that are range(n) once each."""
    return (all(np.issubdtype(rows.dtype, np.integer) for rows in (train, test))
            and sorted(np.concatenate([train, test]).tolist()) == list(range(n)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_fold_lists(), block=st.sampled_from([1, 2, 3, validate_module._BLOCK]))
def test_plan_refuses_exactly_the_folds_that_do_not_partition(case, block):
    # the plan checks its folds in blocks of consecutive folds of one size;
    # it must raise exactly when some fold fails the per-fold reference,
    # whatever the block size and wherever that fold sits
    n, folds = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(validate_module, "_BLOCK", block)
        if all(_partitions(n, train, test) for train, test in folds):
            SplitPlan(kind="random-fold", n=n, folds=tuple(folds))
        else:
            with pytest.raises(ValueError):
                SplitPlan(kind="random-fold", n=n, folds=tuple(folds))


def _one_drug_per_row(n):
    """n conditions, each dosed with one of three drugs in turn, and random
    responses: every drug has a LODO fold."""
    D = ConditionMatrix(np.eye(3)[np.arange(n) % 3])
    return D, ResponseMatrix(np.random.default_rng(n).normal(size=(n, 2)))


class TestPlanForOtherRows:
    # a plan built for more rows would index past the data, and one built for
    # fewer would score a subset of it; both protocols refuse either
    @pytest.mark.parametrize("n", [20, 8])
    def test_random_fold_plan_refused(self, n):
        D, X = _one_drug_per_row(12)
        plan = make_random_folds(n, 0.75, 4, seed=0)
        with pytest.raises(DimensionError, match=f"partitions {n} rows, but there are 12 cond"):
            averaged_random_fold_eval(RegressionFamily(), D, X, plan)

    @pytest.mark.parametrize("n", [20, 8])
    def test_lodo_plans_refused(self, n):
        D, X = _one_drug_per_row(12)
        plans = make_lodo_splits(_one_drug_per_row(n)[0])
        with pytest.raises(DimensionError, match=f"partitions {n} rows, but there are 12 cond"):
            lodo_eval(RegressionFamily(), D, X, plans)


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

    def test_drug_in_every_condition_rejected(self):
        D = ConditionMatrix(np.array([[1.0, 1.0], [0.0, 2.0]]), ["a", "b"])
        with pytest.raises(ValueError, match="'b' is used in every condition"):
            make_lodo_splits(D)


class _TruthFamily(ModelFamily):
    """Fake model family that returns the true responses for the test rows."""

    tag = "regression"

    def __init__(self, X_full, D_full):
        self.X_full = X_full
        self.D_full = D_full

    def fit(self, D_train, X_train):
        return None, None

    def predict(self, params, D_test):
        # look test rows up by matching condition rows (unique in the design)
        preds = []
        for row in D_test.values:
            idx = np.flatnonzero(np.all(self.D_full == row, axis=1))[0]
            preds.append(self.X_full[idx])
        return np.array(preds)


class _ZeroFamily(ModelFamily):
    """Fake model family that predicts 0 for every response."""

    tag = "regression"

    def fit(self, D_train, X_train):
        return X_train.n_responses, None

    def predict(self, n_responses, D_test):
        return np.zeros((D_test.n_conditions, n_responses))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), p=st.integers(1, 4),
       blocks=st.lists(st.tuples(st.integers(1, 9), st.integers(1, 12)), min_size=1, max_size=4))
def test_pooling_adds_as_np_add_at(seed, n, p, blocks):
    # blocks of F folds of t test rows, drawn with repeats within and across
    # folds, and predictions among 0.0, -0.0, +-1e300, +-1e-300 and normal
    # values: bincount pooling must give np.add.at's sums bit for bit
    rng = np.random.default_rng(seed)
    special = np.array([0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300])
    pooled, want = np.zeros((n, p)), np.zeros((n, p))
    for F, t in blocks:
        tests = rng.integers(0, n, size=(F, t))
        preds = np.where(rng.uniform(size=(F, t, p)) < 0.5,
                         rng.choice(special, size=(F, t, p)), rng.normal(size=(F, t, p)))
        pooled = validate_module._pooled(pooled, tests, preds)
        np.add.at(want, tests, preds)
        assert pooled.tobytes() == want.tobytes()


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

    def test_wrong_plan_kind_rejected(self):
        D = build_design()
        X = simulate_responses(SimSpec(seed=0), D)
        plans = make_lodo_splits(D)
        with pytest.raises(ValueError):
            averaged_random_fold_eval(RegressionFamily(), D, X, plans[0])

    def test_report_carries_predictions_and_fit_summary(self):
        D = build_design()
        X = simulate_responses(SimSpec(seed=0), D)
        plan = make_random_folds(105, 2.0 / 3.0, 30, seed=2)
        report = averaged_random_fold_eval(RegressionFamily(), D, X, plan)
        assert len(report.rows) == 105
        assert report.pearson_r == pearson(X.values[report.rows], report.predicted)
        assert len(report.fits) == 30
        assert report.metadata["fits"] == {
            "folds": 30, "unconverged": 0, "iterations_min": 1,
            "iterations_median": 1.0, "iterations_max": 1, "status": [],
        }
        assert "rows" not in report.to_dict()

    @pytest.mark.filterwarnings("ignore:.*never appeared in a test set")
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
        # held-out drug never dosed in training: its coefficients are 0, so
        # the monotherapy condition of that drug predicts exactly 0, while
        # its combination with b predicts what b alone does
        D = ConditionMatrix(
            np.array(
                [[0.0, 1.0], [0.0, 2.0], [1.0, 0.0], [1.0, 1.0]]
            ),
            ["a", "b"],
        )
        X = ResponseMatrix(np.array([[0.5], [1.0], [0.7], [1.3]]))
        plan_a = [p for p in make_lodo_splits(D) if p.drug_name == "a"]
        [report], _ = lodo_eval(RegressionFamily(), D, X, plan_a)
        assert report.rows.tolist() == [2, 3]
        R_b, _ = fit_regression(ConditionMatrix(D.values[:2, 1:], ["b"]),
                                ResponseMatrix(X.values[:2]))
        assert report.predicted[0, 0] == 0.0
        assert report.predicted[1, 0] == R_b.values[0, 0]

    def test_sim_causal_beats_regression(self):
        D = build_design()
        X = simulate_responses(SimSpec(seed=0), D)
        plans = make_lodo_splits(D)
        _, reg_mean = lodo_eval(RegressionFamily(), D, X, plans)
        _, causal_mean = lodo_eval(CausalLinearFamily(build_targets()), D, X, plans)
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

    def test_regression_fits_at_the_given_lambda(self):
        D = build_design()
        X = simulate_responses(SimSpec(seed=0), D)
        plans = make_lodo_splits(D)[:3]
        unpenalized, _ = lodo_eval(RegressionFamily(), D, X, plans)
        cfg = FitConfig(lam=0.5)
        reports, _ = lodo_eval(RegressionFamily(cfg), D, X, plans)
        for rep, rep_0, plan in zip(reports, unpenalized, plans):
            train, test = plan.folds[0]
            keep = [j for j in range(D.n_drugs) if j != plan.held_out_drug]
            D_red = ConditionMatrix(D.values[np.ix_(train, keep)])
            R, _ = fit_regression(D_red, ResponseMatrix(X.values[train]), cfg)
            R = np.insert(R.values, plan.held_out_drug, 0.0, axis=0)
            assert np.array_equal(rep.predicted, D.values[test] @ R)
            assert not np.allclose(rep.predicted, rep_0.predicted)

    def test_wrong_plan_kind_rejected(self):
        D = build_design()
        X = simulate_responses(SimSpec(seed=0), D)
        plan = make_random_folds(105, 0.5, 1, seed=0)
        with pytest.raises(ValueError):
            lodo_eval(RegressionFamily(), D, X, [plan])

    def test_zero_variance_drug_reported_as_status(self):
        D = build_design()
        X = simulate_responses(SimSpec(seed=0), D)
        plans = make_lodo_splits(D)[:3]
        reports, mean_r = lodo_eval(_ZeroFamily(), D, X, plans)
        assert all(np.isnan(rep.pearson_r) for rep in reports)
        assert all("zero-variance" in rep.metadata["status"] for rep in reports)
        assert np.isnan(mean_r)

    def test_mean_skips_undefined_drugs(self):
        D = build_design()
        X = simulate_responses(SimSpec(seed=0), D)
        truth = _TruthFamily(X.values, D.values)

        class FirstDrugZero(ModelFamily):
            tag = "regression"

            def fit(self, D_train, X_train):
                # the held-out drug is the one no training row doses
                return (np.all(D_train.values == 0.0, axis=0), X_train.n_responses), None

            def predict(self, params, D_test):
                undosed, n_responses = params
                if undosed[0]:
                    return _ZeroFamily().predict(n_responses, D_test)
                return truth.predict(None, D_test)

        reports, mean_r = lodo_eval(FirstDrugZero(), D, X, make_lodo_splits(D)[:3])
        assert np.isnan(reports[0].pearson_r)
        assert [rep.metadata["status"] for rep in reports[1:]] == ["ok", "ok"]
        assert mean_r == pytest.approx(1.0, abs=1e-12)

    def test_reports_carry_test_rows_and_predictions(self):
        D = build_design()
        X = simulate_responses(SimSpec(seed=0), D)
        plans = make_lodo_splits(D)[:2]
        reports, _ = lodo_eval(CausalLinearFamily(build_targets()), D, X, plans)
        for rep, plan in zip(reports, plans):
            assert np.array_equal(rep.rows, plan.folds[0][1])
            assert rep.pearson_r == pearson(X.values[rep.rows], rep.predicted)
            assert len(rep.fits) == 1 and rep.fits[0].converged


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
    model, _ = family.fit(D_train, X_train)
    with pytest.raises(NonConvergenceError, match="condition row 1"):
        family.predict(model, D_test)


class _CallLog(ModelFamily):
    """Records the order of its fit and predict calls."""

    tag = "call-log"

    def __init__(self):
        self.calls = []

    def fit(self, D_train, X_train):
        self.calls.append(("fit", D_train.n_conditions))
        return None, None

    def predict(self, params, D_test):
        self.calls.append(("predict", D_test.n_conditions))
        return np.zeros((D_test.n_conditions, 1))


def test_model_family_predicts_each_fold_before_fitting_the_next():
    D = ConditionMatrix([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 2.0]])
    X = ResponseMatrix(np.ones((4, 1)))
    random = SplitPlan(kind="random-fold", n=4, folds=((np.arange(3), np.array([3])),))
    family = _CallLog()
    assert [preds.shape for preds, _ in fit_folds(family, D, X, [random])] == [(1, 1)]
    reports, _ = lodo_eval(family, D, X, make_lodo_splits(D))
    assert [rep.predicted.shape for rep in reports] == [(2, 1), (3, 1)]
    assert family.calls == [("fit", 3), ("predict", 1), ("fit", 2), ("predict", 2),
                            ("fit", 1), ("predict", 3)]


def test_metric_report_serialization():
    rep = MetricReport(0.9, 0.1, 10, per_fold=({"repetition": 0, "pearson_r": 0.9},),
                       metadata={"model": "regression"})
    d = rep.to_dict()
    assert d["pearson_r"] == 0.9
    assert d["per_fold"][0]["repetition"] == 0
    assert d["metadata"]["model"] == "regression"


def reference_select_lambda_cv(D, X, B, grid, n_folds, seed, cfg):
    """The fold loop select_lambda_cv kept before it ran on fit_folds."""
    perm = np.random.default_rng(seed).permutation(D.n_conditions)
    folds = np.array_split(perm, n_folds)
    scores = {}
    for lam in grid:
        sse = []
        for fold in folds:
            train = np.setdiff1d(perm, fold)
            Dtr = ConditionMatrix(D.values[train], D.drug_names)
            Xtr = ResponseMatrix(X.values[train], X.response_names)
            Dte = ConditionMatrix(D.values[fold], D.drug_names)
            try:
                W, _ = validate_module.fit_causal_linear(Dtr, Xtr, B, replace(cfg, lam=float(lam)))
                pred = predict_causal_linear(W, B, Dte).predicted
            except (SingularMatrixError, NonConvergenceError):
                sse.append(np.inf)
                continue
            diff = X.values[fold] - pred
            sse.append(float(np.sum(diff * diff)))
        scores[float(lam)] = float(np.mean(sse))
    return min(scores, key=scores.get), scores


class TestSelectLambdaCv:
    GRID = [0.01, 0.1, 1.0]
    CFG = FitConfig(max_iter=150, tol=1e-7)

    def instance(self, seed):
        # q < p: the unregularized causal fit is not identified
        rng = np.random.default_rng(seed)
        p, q, n = 4, 2, 13
        B = TargetMap(rng.normal(size=(p, q)))
        D = ConditionMatrix(rng.uniform(0, 1, (n, q)))
        X = ResponseMatrix(D.values @ B.values.T + 0.1 * rng.normal(size=(n, p)))
        return D, X, B

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_reference_loop(self, seed):
        D, X, B = self.instance(seed)
        got = select_lambda_cv(D, X, B, grid=self.GRID, n_folds=5, seed=seed, cfg=self.CFG)
        assert got == reference_select_lambda_cv(D, X, B, self.GRID, 5, seed, self.CFG)
        assert all(np.isfinite(v) for v in got[1].values())

    def test_a_failing_fold_scores_inf(self, monkeypatch):
        fit = validate_module.fit_causal_linear
        calls = {}

        def second_fold_of_lambda_0_1_raises(D, X, B, cfg):
            calls[cfg.lam] = calls.get(cfg.lam, 0) + 1
            if cfg.lam == 0.1 and calls[cfg.lam] == 2:
                raise NonConvergenceError("forced")
            return fit(D, X, B, cfg)

        monkeypatch.setattr(validate_module, "fit_causal_linear", second_fold_of_lambda_0_1_raises)
        D, X, B = self.instance(0)
        got = select_lambda_cv(D, X, B, grid=self.GRID, n_folds=5, seed=0, cfg=self.CFG)
        calls.clear()
        assert got == reference_select_lambda_cv(D, X, B, self.GRID, 5, 0, self.CFG)
        assert got[1][0.1] == np.inf
        assert sum(np.isfinite(v) for v in got[1].values()) == len(self.GRID) - 1

    def test_fits_start_from_minus_identity_or_the_callers_w_init(self, monkeypatch):
        fit, loss = validate_module.fit_causal_linear, fit_module.causal_loss_and_gradient
        starts = []  # the first W each fit evaluates its loss at

        def fit_spy(D, X, B, cfg):
            starts.append(None)
            return fit(D, X, B, cfg)

        def loss_spy(W, *args):
            if starts[-1] is None:
                starts[-1] = W.copy()
            return loss(W, *args)

        monkeypatch.setattr(validate_module, "fit_causal_linear", fit_spy)
        monkeypatch.setattr(fit_module, "causal_loss_and_gradient", loss_spy)
        # q > p, so every training fold has a least-squares warm start not taken
        rng = np.random.default_rng(0)
        B = TargetMap(rng.normal(size=(4, 5)))
        D = ConditionMatrix(rng.uniform(0, 1, (13, 5)))
        X = ResponseMatrix(D.values @ B.values.T + 0.1 * rng.normal(size=(13, 4)))
        w_init = InteractionMatrix(-1.5 * np.eye(4) + 0.1)
        for cfg, start in [(self.CFG, -np.eye(4)), (replace(self.CFG, w_init=w_init), w_init.values)]:
            starts.clear()
            select_lambda_cv(D, X, B, grid=self.GRID, n_folds=5, seed=0, cfg=cfg)
            assert len(starts) == 5 * len(self.GRID)
            assert all(np.array_equal(W, start) for W in starts)
