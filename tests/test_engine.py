"""The one-pass CV engine against the per-fold loop it replaced.

The reference below is the fold loop the protocols ran before folds were
handed to the families in blocks: one fit per fold through the one-fold
estimators, predictions averaged per condition, metrics per fold.  The
engine stacks closed-form solves across folds, so it must agree with that
loop fold for fold, including which folds are rank-deficient.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from perturbpred.errors import PerturbpredError, SingularMatrixError, ZeroVarianceError
from perturbpred.fit import (
    FitConfig,
    causal_loss_and_gradient,
    fit_causal_linear,
    fit_causal_ode,
    fit_regression,
    fit_regression_lodo,
    fit_regression_stack,
    least_squares_w_init,
    least_squares_w_init_stack,
)
from perturbpred.linear import predict_causal_linear, predict_regression
from perturbpred.ode import OdeModel, steady_states
from perturbpred.types import ConditionMatrix, InteractionMatrix, ResponseMatrix, TargetMap
from perturbpred.validate import (
    CausalLinearFamily,
    CausalOdeFamily,
    RegressionFamily,
    SplitPlan,
    averaged_random_fold_eval,
    fit_folds,
    lodo_eval,
    mae,
    make_lodo_splits,
    make_random_folds,
    pearson,
)

TOL = 1e-12

# small random plans leave some conditions untested; the warning is expected
pytestmark = pytest.mark.filterwarnings("ignore:.*never appeared in a test set")


def reference_fold(family, D, X, train, test, held_out_drug=None):
    """(predictions, FitReport) of one fold through the one-fold estimators."""
    D_train = ConditionMatrix(D.values[train], D.drug_names)
    X_train = ResponseMatrix(X.values[train], X.response_names)
    D_test = ConditionMatrix(D.values[test], D.drug_names)
    if isinstance(family, RegressionFamily):
        if held_out_drug is not None:
            R, report = fit_regression_lodo(D_train, X_train, held_out_drug, family.cfg)
        else:
            R, report = fit_regression(D_train, X_train, family.cfg)
        return predict_regression(R, D_test).predicted, report
    if isinstance(family, CausalLinearFamily):
        cfg = family.cfg
        if cfg.w_init is None:
            init = least_squares_w_init(D_train, X_train, family.B)
            if init is not None:
                cfg = replace(cfg, w_init=init)
        W, report = fit_causal_linear(D_train, X_train, family.B, cfg)
        return predict_causal_linear(W, family.B, D_test).predicted, report
    model, report = fit_causal_ode(D_train, X_train, family.B, family.template, family.cfg)
    return steady_states(model, D_test.values).require_converged(), report


def reference_random_folds(family, D, X, plan):
    """(averaged predictions, per-fold (r, mae), reports) of the old loop."""
    n, p = X.values.shape
    pred_sum = np.zeros((n, p))
    pred_count = np.zeros(n, dtype=int)
    per_fold, reports = [], []
    for train, test in plan.folds:
        preds, report = reference_fold(family, D, X, train, test)
        pred_sum[test] += preds
        pred_count[test] += 1
        try:
            fold_r = pearson(X.values[test], preds)
        except ZeroVarianceError:
            fold_r = None
        per_fold.append((fold_r, mae(X.values[test], preds)))
        reports.append(report)
    covered = pred_count > 0
    return pred_sum[covered] / pred_count[covered, None], per_fold, reports


def outcome(fn):
    """fn's result, or the type and message of the package error it raised."""
    try:
        return fn()
    except PerturbpredError as exc:
        return type(exc), str(exc)


def assert_close(a, b):
    np.testing.assert_allclose(a, b, rtol=TOL, atol=TOL)


def assert_same_reports(engine, reference):
    assert len(engine) == len(reference)
    for got, want in zip(engine, reference):
        assert got.iterations == want.iterations
        assert got.converged == want.converged
        assert got.status == want.status
        assert_close(got.final_objective, want.final_objective)


def instance(seed, n, q, p, rare_drug):
    """Random doses, target map and linear responses.  With rare_drug, drug 0
    is dosed in two conditions only, so folds that train without both are
    rank-deficient (an all-zero design column)."""
    rng = np.random.default_rng(seed)
    Dv = rng.uniform(0.0, 1.0, size=(n, q)) * (rng.uniform(size=(n, q)) < 0.7)
    Dv[np.arange(n), rng.integers(0, q, size=n)] += 0.5  # every row dosed
    if rare_drug:
        Dv[:, 0] = 0.0
        Dv[:2, 0] = 1.0
    B = rng.normal(size=(p, q))
    W = -np.eye(p) + 0.3 * rng.normal(size=(p, p)) * ~np.eye(p, dtype=bool)
    X = Dv @ B.T @ -np.linalg.inv(W) + 0.05 * rng.normal(size=(n, p))
    return ConditionMatrix(Dv), ResponseMatrix(X), TargetMap(B)


def random_plan(seed, n, n_train, reps):
    rng = np.random.default_rng(seed)
    folds = []
    for _ in range(reps):
        perm = rng.permutation(n)
        folds.append((np.sort(perm[:n_train]), np.sort(perm[n_train:])))
    return SplitPlan(kind="random-fold", n=n, folds=tuple(folds))


class TestEngineMatchesPerFoldLoop:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**16),
        n_train=st.sampled_from([3, 4, 7, 9]),
        reps=st.integers(1, 25),
        rare_drug=st.booleans(),
    )
    def test_linear_families_random_folds(self, seed, n_train, reps, rare_drug):
        n = 12
        D, X, B = instance(seed, n, 3, 3, rare_drug)
        plan = random_plan(seed + 1, n, n_train, reps)
        families = (
            RegressionFamily(),
            CausalLinearFamily(B, FitConfig(max_iter=50)),
            CausalLinearFamily(B, FitConfig(lam=0.05, max_iter=50)),
        )
        for family in families:
            got = outcome(lambda: averaged_random_fold_eval(family, D, X, plan))
            want = outcome(lambda: reference_random_folds(family, D, X, plan))
            if isinstance(want[0], type):
                assert got == want  # the same error from the same fold
                continue
            avg, per_fold, reports = want
            assert_close(got.predicted, avg)
            for entry, (fold_r, fold_mae) in zip(got.per_fold, per_fold):
                assert (entry["pearson_r"] is None) == (fold_r is None)
                if fold_r is not None:
                    assert_close(entry["pearson_r"], fold_r)
                assert_close(entry["mae"], fold_mae)
            assert_same_reports(got.fits, reports)

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16))
    def test_lodo_all_linear_families(self, seed):
        D, X, B = instance(seed, 14, 4, 3, rare_drug=False)
        plans = make_lodo_splits(D)
        for family in (RegressionFamily(), CausalLinearFamily(B, FitConfig(max_iter=200))):
            got = outcome(lambda: lodo_eval(family, D, X, plans))
            want = outcome(lambda: [
                reference_fold(family, D, X, *plan.folds[0], plan.held_out_drug)
                for plan in plans
            ])
            if isinstance(want[0], type):
                assert got == want
                continue
            reports, _ = got
            for rep, (preds, fit) in zip(reports, want):
                assert_close(rep.predicted, preds)
                assert_same_reports(rep.fits, [fit])

    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16), reps=st.integers(1, 3))
    def test_causal_ode_random_folds(self, seed, reps):
        D, X, B = instance(seed, 6, 2, 2, rare_drug=False)
        template = OdeModel(InteractionMatrix(-np.eye(2)), B, np.ones(2), envelope="sigmoid")
        family = CausalOdeFamily(B, template, FitConfig(max_iter=3))
        plan = random_plan(seed + 1, 6, 4, reps)
        got = outcome(lambda: averaged_random_fold_eval(family, D, X, plan))
        want = outcome(lambda: reference_random_folds(family, D, X, plan))
        if isinstance(want[0], type):
            assert got == want
            return
        avg, _, reports = want
        assert_close(got.predicted, avg)
        assert_same_reports(got.fits, reports)

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16), rare_drug=st.booleans())
    def test_blocks_mixing_closed_form_and_proximal_gradient(self, seed, rare_drug):
        # tol at the gradient's round-off level, between the warm starts'
        # stationarity ratios: in each block some folds take the closed form
        # and the others run the proximal-gradient fit (from -I where the
        # warm start is unavailable)
        D, X, B = instance(seed, 12, 3, 3, rare_drug)
        plan = random_plan(seed + 1, 12, 9, 32)
        ratios = []
        for train, _ in plan.folds:
            D_train = ConditionMatrix(D.values[train])
            X_train = ResponseMatrix(X.values[train])
            init = least_squares_w_init(D_train, X_train, B)
            if init is not None:
                loss, grad = causal_loss_and_gradient(init.values, D_train, X_train, B)
                ratios.append(np.sum(grad * grad) / max(1.0, loss))
        family = CausalLinearFamily(B, FitConfig(tol=float(np.median(ratios)), max_iter=20))
        got = outcome(lambda: averaged_random_fold_eval(family, D, X, plan))
        want = outcome(lambda: reference_random_folds(family, D, X, plan))
        if isinstance(want[0], type):
            assert got == want
            return
        avg, per_fold, reports = want
        # every fold runs the same arithmetic as in the loop, so the results are equal
        np.testing.assert_array_equal(got.predicted, avg)
        assert [(entry["pearson_r"], entry["mae"]) for entry in got.per_fold] == per_fold
        assert_same_reports(got.fits, reports)
        for start in range(0, plan.repetitions, 16):
            closed = {fit.iterations == 0 for fit in got.fits[start:start + 16]}
            assert closed == {True, False}

    def test_mixed_train_sizes_run_fold_by_fold(self):
        D, X, B = instance(3, 12, 3, 3, rare_drug=False)
        folds = [(np.arange(0, 8), np.arange(8, 12), None),
                 (np.arange(0, 9), np.arange(9, 12), None),
                 (np.arange(2, 12), np.arange(0, 2), None)]
        for family in (RegressionFamily(), CausalLinearFamily(B)):
            for (preds, report), fold in zip(fit_folds(family, D, X, folds), folds):
                want_preds, want_report = reference_fold(family, D, X, *fold)
                assert_close(preds, want_preds)
                assert_same_reports([report], [want_report])


class TestRandomFoldPlan:
    @pytest.mark.parametrize("n, train_fraction, reps, seed",
                             [(105, 0.7, 1000, 5), (12, 0.75, 37, 0), (5, 0.5, 1, 3)])
    def test_plan_equals_the_per_fold_loop(self, n, train_fraction, reps, seed):
        plan = make_random_folds(n, train_fraction, reps, seed)
        want = random_plan(seed, n, int(np.floor(train_fraction * n)), reps)
        assert len(plan.folds) == len(want.folds)
        for (train, test), (want_train, want_test) in zip(plan.folds, want.folds):
            assert train.dtype == want_train.dtype and test.dtype == want_test.dtype
            np.testing.assert_array_equal(train, want_train)
            np.testing.assert_array_equal(test, want_test)

    @pytest.mark.parametrize("fold", [
        (np.array([0, 1, 2, 2]), np.array([4, 5])),  # a row twice, one missing
        (np.array([0, 1, 2, 3]), np.array([3, 5])),  # a row in train and test
        (np.array([0, 1, 2, 3]), np.array([4, 6])),  # a row out of range
        (np.array([0, 1, 2]), np.array([3, 4])),  # a row missing, folds of mixed sizes
    ])
    @pytest.mark.parametrize("at", [0, 37])
    def test_a_non_partition_raises(self, fold, at):
        folds = list(random_plan(1, 6, 4, 40).folds)
        folds[at] = fold
        with pytest.raises(ValueError, match="partition"):
            SplitPlan(kind="random-fold", n=6, folds=tuple(folds))


def test_stacked_fold_scores_equal_the_one_fold_metrics():
    # rows 0-8 observe the same value everywhere, so a fold testing only
    # those rows has zero variance; the mixed plan scores fold by fold
    D, X, B = instance(4, 12, 3, 3, rare_drug=False)
    Xv = X.values.copy()
    Xv[:9] = 1.0
    X = ResponseMatrix(Xv)
    equal = random_plan(5, 12, 9, 48)
    mixed = SplitPlan(kind="random-fold", n=12,
                      folds=random_plan(6, 12, 8, 8).folds + equal.folds[:8])
    for family in (RegressionFamily(), CausalLinearFamily(B, FitConfig(max_iter=50))):
        for plan in (equal, mixed):
            report = averaged_random_fold_eval(family, D, X, plan)
            preds = fit_folds(family, D, X, [(train, test, None) for train, test in plan.folds])
            for entry, (_, test), (pred, _) in zip(report.per_fold, plan.folds, preds):
                observed = X.values[test]
                assert entry["mae"] == mae(observed, pred)
                if np.all(observed == 1.0):
                    assert entry["pearson_r"] is None
                else:
                    assert entry["pearson_r"] == pearson(observed, pred)
            for start in range(0, plan.repetitions, 16):
                block = report.per_fold[start:start + 16]
                assert {entry["pearson_r"] is None for entry in block} == {True, False}


class TestStackedSolvers:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**16),
        folds=st.integers(1, 20),
        n=st.sampled_from([2, 3, 5, 10]),
        rare_drug=st.booleans(),
    )
    def test_stacks_match_one_fold_calls(self, seed, folds, n, rare_drug):
        D, X, B = instance(seed, 12, 3, 3, rare_drug)
        rng = np.random.default_rng(seed)
        rows = np.array([np.sort(rng.permutation(12)[:n]) for _ in range(folds)])
        Ds, Xs = D.values[rows], X.values[rows]

        inits = least_squares_w_init_stack(Ds, Xs, B)
        for k, init in enumerate(inits):
            one = least_squares_w_init(ConditionMatrix(Ds[k]), ResponseMatrix(Xs[k]), B)
            assert (init is None) == (one is None)
            if one is not None:
                assert_close(init.values, one.values)

        def one_fold_calls():
            fits = [fit_regression(ConditionMatrix(Ds[k]), ResponseMatrix(Xs[k]))
                    for k in range(folds)]
            return np.array([R.values for R, _ in fits]), [rep for _, rep in fits]

        got = outcome(lambda: fit_regression_stack(Ds, Xs, D.drug_names))
        want = outcome(one_fold_calls)
        if isinstance(want[0], type):
            assert got == want
        else:
            assert_close(got[0], want[0])
            assert_same_reports(got[1], want[1])

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16), n=st.sampled_from([2, 3, 5, 10]), rare_drug=st.booleans())
    def test_warm_start_matches_lstsq_route(self, seed, n, rare_drug):
        # the warm start as it was computed one fold at a time with lstsq
        def lstsq_w_init(Dv, Xv, B):
            C = Dv @ B.T
            if np.linalg.matrix_rank(C) < C.shape[1]:
                return None
            M = np.linalg.lstsq(C, Xv, rcond=None)[0]
            sv = np.linalg.svd(M, compute_uv=False)
            if sv[0] == 0.0 or sv[-1] / sv[0] < 1e-8:
                return None
            return -np.linalg.inv(M)

        D, X, B = instance(seed, 12, 3, 3, rare_drug)
        rng = np.random.default_rng(seed)
        rows = np.array([np.sort(rng.permutation(12)[:n]) for _ in range(8)])
        for k, init in enumerate(least_squares_w_init_stack(D.values[rows], X.values[rows], B)):
            want = lstsq_w_init(D.values[rows[k]], X.values[rows[k]], B.values)
            assert (init is None) == (want is None)
            if want is not None:
                np.testing.assert_allclose(init.values, want, rtol=1e-9, atol=1e-9)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16), n=st.integers(4, 30), k=st.integers(1, 4))
    def test_least_squares_matches_lstsq(self, seed, n, k):
        # well-posed systems: QR and numpy's SVD-based lstsq agree
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(3, n, k))
        Y = rng.normal(size=(3, n, 2))
        R, _ = fit_regression_stack(A, Y, [f"d{j}" for j in range(k)])
        for f in range(3):
            want = np.linalg.lstsq(A[f], Y[f], rcond=None)[0]
            np.testing.assert_allclose(R[f], want, rtol=1e-9, atol=1e-10)


def test_near_singular_warm_start_refused():
    # fold 1's responses only span one direction, so its M is singular
    D = np.array([[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]] * 2)
    X = D @ np.array([[1.0, 0.2], [0.3, 1.0]])
    X[1] = D[1] @ np.array([[1.0, 2.0], [1.0, 2.0]])
    inits = least_squares_w_init_stack(D, X, TargetMap(np.eye(2)))
    assert inits[0] is not None and inits[1] is None


def test_rank_deficient_stack_names_the_zero_column():
    D = np.array([[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 2.0]]] * 2)
    D[1, :, 1] = 0.0
    with pytest.raises(SingularMatrixError, match="deficient design columns: b$"):
        fit_regression_stack(D, np.ones((2, 4, 1)), ["a", "b"])
