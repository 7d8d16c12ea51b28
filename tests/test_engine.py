"""The one-pass CV engine against the per-fold loop it replaced.

The reference below is the fold loop the protocols ran before folds were
handed to the families in blocks: one fit per fold through the one-fold
estimators, predictions averaged per condition, metrics per fold.  The
engine stacks closed-form solves across folds, so it must agree with that
loop fold for fold, including which folds are rank-deficient; a fold that no
stack settles runs the family's own fit, so it must equal that fit bit for
bit.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import perturbpred.validate as validate_module
from perturbpred.errors import (
    DivergenceError,
    PerturbpredError,
    SingularMatrixError,
    ZeroVarianceError,
)
from perturbpred.fit import (
    BASIS_DELTA,
    CLOSED_FORM,
    FitConfig,
    FitReport,
    _basis_lstsq,
    _lstsq,
    factor_design,
    fit_causal_linear,
    fit_causal_ode,
    fit_least_squares_folds,
    fit_regression,
    least_squares_w_init,
)
from perturbpred.linear import predict_causal_linear, predict_regression
from perturbpred.ode import OdeModel, steady_states
from perturbpred.simulate import SimSpec, build_design, build_targets, simulate_responses
from perturbpred.types import (
    W_FORM,
    ConditionMatrix,
    EdgeMask,
    InteractionMatrix,
    RegressionCoefficients,
    ResponseMatrix,
    TargetMap,
)
from perturbpred.validate import (
    CausalLinearFamily,
    CausalOdeFamily,
    MetricReport,
    RegressionFamily,
    SplitPlan,
    averaged_random_fold_eval,
    fit_blocks,
    fit_folds,
    lodo_eval,
    mae,
    make_lodo_splits,
    make_random_folds,
    pearson,
)

from conftest import planted_matrix

TOL = 1e-12

# small random plans leave some conditions untested; the warning is expected
pytestmark = pytest.mark.filterwarnings("ignore:.*never appeared in a test set")


def dosed_fit(fit, D_train, X_train):
    """fit(D, X) on the drugs that some training row doses, with coefficient
    0 for every other drug: regression's rule for a drug it has never seen,
    as a LODO fold drops its drug's column.  A fold that doses every drug,
    or none, is fitted as it is."""
    keep = np.flatnonzero(np.any(D_train.values != 0.0, axis=0))
    if len(keep) in (0, D_train.n_drugs):
        return fit(D_train, X_train)
    R, report = fit(ConditionMatrix(D_train.values[:, keep],
                                    [D_train.drug_names[j] for j in keep]), X_train)
    full = np.zeros((D_train.n_drugs, X_train.n_responses))
    full[keep] = R.values
    return RegressionCoefficients(full), report


def reference_fold(family, D, X, train, test):
    """(predictions, FitReport) of one fold through the one-fold estimators."""
    D_train = ConditionMatrix(D.values[train], D.drug_names)
    X_train = ResponseMatrix(X.values[train], X.response_names)
    D_test = ConditionMatrix(D.values[test], D.drug_names)
    if isinstance(family, RegressionFamily):
        R, report = dosed_fit(lambda D, X: fit_regression(D, X, family.cfg), D_train, X_train)
        return predict_regression(R, D_test).predicted, report
    if isinstance(family, CausalLinearFamily):
        W, report = fit_causal_linear(D_train, X_train, family.B, family.cfg)
        return predict_causal_linear(W, family.B, D_test).predicted, report
    model, report = fit_causal_ode(D_train, X_train, family.B, family.template, family.cfg)
    return steady_states(model, D_test.values).require_converged(), report


def family_fold(family, D, X, train, test):
    """(predictions, FitReport) of one fold through the family's own fit and
    predict, as `perturbpred fit` and `predict` run them, a regression fold
    under the unseen-drug rule (:func:`dosed_fit`)."""
    D_train = ConditionMatrix(D.values[train], D.drug_names)
    X_train = ResponseMatrix(X.values[train], X.response_names)
    if isinstance(family, RegressionFamily):
        params, report = dosed_fit(family.fit, D_train, X_train)
    else:
        params, report = family.fit(D_train, X_train)
    return family.predict(params, ConditionMatrix(D.values[test], D.drug_names)), report


def reference_random_folds(family, D, X, plan, fold=reference_fold):
    """(averaged predictions, per-fold (r, mae), reports) of the old loop,
    fitting each fold by fold(family, D, X, train, test)."""
    n, p = X.values.shape
    pred_sum = np.zeros((n, p))
    pred_count = np.zeros(n, dtype=int)
    per_fold, reports = [], []
    for train, test in plan.folds:
        preds, report = fold(family, D, X, train, test)
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
        everywhere = [name for name, col in zip(D.drug_names, D.values.T) if np.all(col != 0.0)]
        if everywhere:
            # such a drug has no LODO fold: the design is refused, naming it
            with pytest.raises(ValueError, match=f"{everywhere[0]!r} is used in every condition"):
                make_lodo_splits(D)
            assume(False)
        plans = make_lodo_splits(D)
        for family in (RegressionFamily(), CausalLinearFamily(B, FitConfig(max_iter=200))):
            got = outcome(lambda: lodo_eval(family, D, X, plans))
            want = outcome(lambda: [
                reference_fold(family, D, X, *plan.folds[0])
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
    @given(seed=st.integers(0, 2**16))
    def test_blocks_mixing_closed_form_and_proximal_gradient(self, seed):
        # drug 0 is dosed in rows 0 and 1 only, so a fold that trains on
        # neither has D B^T of rank 2 < p; every fourth fold does.  In each
        # block some folds take the closed form in the basis of D B^T and the
        # others run the family's own fit, the proximal gradient from -I.  The loop
        # settles each fold as a stack of one and fits every other fold with
        # family.fit, so the two must agree bit for bit, and the loop pins
        # how the blocks interleave the closed form with the
        # proximal-gradient fits.
        D, X, B = instance(seed, 12, 3, 3, rare_drug=True)
        rng = np.random.default_rng(seed + 1)
        folds = []
        for f in range(32):
            perm = rng.permutation(12)
            if f % 4 == 0:
                perm = np.concatenate([perm[perm >= 2], [0, 1]])
            folds.append((np.sort(perm[:9]), np.sort(perm[9:])))
        plan = SplitPlan(kind="random-fold", n=12, folds=tuple(folds))
        basis = factor_design(D.values @ B.values.T)
        family = CausalLinearFamily(B, FitConfig(max_iter=20))

        def fold(family, D, X, train, test):
            preds, reports = fit_least_squares_folds(basis, X.values, test[None], 0,
                                                     (CLOSED_FORM,), screen=True)
            if reports[0] is not None:
                return preds[0], reports[0]
            return family_fold(family, D, X, train, test)

        got = outcome(lambda: averaged_random_fold_eval(family, D, X, plan))
        want = outcome(lambda: reference_random_folds(family, D, X, plan, fold))
        if isinstance(want[0], type):
            assert got == want
            return
        avg, per_fold, reports = want
        # every fold runs the same arithmetic as in the loop, so the results
        # are equal, and every block holds both kinds of fold
        np.testing.assert_array_equal(got.predicted, avg)
        assert [(entry["pearson_r"], entry["mae"]) for entry in got.per_fold] == per_fold
        assert_equal_reports(got.fits, reports)
        size = validate_module._BLOCK
        for start in range(0, plan.repetitions, size):
            closed = {fit.status == (CLOSED_FORM,) for fit in got.fits[start:start + size]}
            assert closed == {True, False}
        # the folds left to family.fit are the rank-deficient ones
        for (train, _), fit in zip(plan.folds, got.fits):
            assert (fit.iterations > 0) == (not {0, 1} & set(train.tolist()))
            assert (fit.iterations > 0) == fit.status[0].startswith("non-unique-solution")

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16), rare_drug=st.booleans())
    def test_folds_without_a_closed_form_run_the_familys_fit(self, seed, rare_drug):
        # with a mask, lambda > 0 or a given w_init no causal-linear fold has
        # the closed form, so every fold must equal family.fit bit for bit:
        # the masked fold starts from its own least-squares warm start
        D, X, B = instance(seed, 12, 3, 3, rare_drug)
        plan = random_plan(seed + 1, 12, 9, 20)
        mask = EdgeMask(np.random.default_rng(seed).uniform(size=(3, 3)) < 0.6)
        w_init = InteractionMatrix(-np.eye(3) + 0.1 * np.ones((3, 3)), form=W_FORM)
        for cfg in (FitConfig(mask=mask, max_iter=50), FitConfig(lam=0.05, max_iter=50),
                    FitConfig(w_init=w_init, max_iter=50)):
            family = CausalLinearFamily(B, cfg)
            assert family.design(D, X) is None
            got = outcome(lambda: averaged_random_fold_eval(family, D, X, plan))
            want = outcome(lambda: reference_random_folds(family, D, X, plan, family_fold))
            if isinstance(want[0], type):
                assert got == want
                continue
            avg, per_fold, reports = want
            np.testing.assert_array_equal(got.predicted, avg)
            assert [(entry["pearson_r"], entry["mae"]) for entry in got.per_fold] == per_fold
            assert_equal_reports(got.fits, reports)

    def test_mixed_train_sizes_run_fold_by_fold(self):
        # consecutive folds of different sizes go to the family one by one
        D, X, B = instance(3, 12, 3, 3, rare_drug=False)
        plan = SplitPlan(kind="random-fold", n=12, folds=(
            (np.arange(0, 8), np.arange(8, 12)),
            (np.arange(0, 9), np.arange(9, 12)),
            (np.arange(2, 12), np.arange(0, 2))))
        for family in (RegressionFamily(), CausalLinearFamily(B)):
            for (preds, report), fold in zip(fit_folds(family, D, X, [plan]), plan.folds):
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
            preds = fit_folds(family, D, X, [plan])
            for entry, (_, test), (pred, _) in zip(report.per_fold, plan.folds, preds):
                observed = X.values[test]
                assert entry["mae"] == mae(observed, pred)
                if np.all(observed == 1.0):
                    assert entry["pearson_r"] is None
                else:
                    assert entry["pearson_r"] == pearson(observed, pred)
            size = validate_module._BLOCK
            for start in range(0, plan.repetitions, size):
                block = report.per_fold[start:start + size]
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
        # a block of folds of one design against a loop of the single fits:
        # the causal-linear folds that the basis of D B^T settles, each the
        # closed form of its own fit, and the regression block, which must
        # give the same predictions and reports, or the same error from the
        # same fold
        D, X, B = instance(seed, 12, 3, 3, rare_drug)
        rng = np.random.default_rng(seed)
        rows = np.array([np.sort(rng.permutation(12)[:n]) for _ in range(folds)])
        tests = np.array([np.setdiff1d(np.arange(12), train) for train in rows])
        Ds, Xs = D.values[rows], X.values[rows]

        basis = factor_design(D.values @ B.values.T)
        certified = _basis_lstsq(basis, X.values, tests)[1]
        preds, closed = fit_least_squares_folds(basis, X.values, tests, 0, (CLOSED_FORM,),
                                                screen=True)
        for k, report in enumerate(closed):
            if not certified[k]:
                assert report is None
                continue
            one = least_squares_w_init(ConditionMatrix(Ds[k]), ResponseMatrix(Xs[k]), B)
            assert (report is None) == (one is None)
            if one is not None:
                want_preds, want_report = reference_fold(CausalLinearFamily(B), D, X,
                                                         rows[k], tests[k])
                assert want_report.status == (CLOSED_FORM,)
                assert_close(preds[k], want_preds)
                assert_same_reports([report], [want_report])

        def one_fold_calls():
            return [reference_fold(RegressionFamily(), D, X, train, test)
                    for train, test in zip(rows, tests)]

        plan = SplitPlan(kind="random-fold", n=12, folds=tuple(zip(rows, tests)))
        got = outcome(lambda: list(fit_folds(RegressionFamily(), D, X, [plan])))
        want = outcome(one_fold_calls)
        if isinstance(want[0], type):
            assert got == want
        else:
            for (preds, report), (want_preds, want_report) in zip(got, want):
                assert_close(preds, want_preds)
                assert_same_reports([report], [want_report])

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
        for train in rows:
            init = least_squares_w_init(ConditionMatrix(D.values[train]),
                                        ResponseMatrix(X.values[train]), B)
            want = lstsq_w_init(D.values[train], X.values[train], B.values)
            assert (init is None) == (want is None)
            if want is not None:
                np.testing.assert_allclose(init.values, want, rtol=1e-9, atol=1e-9)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16), n=st.integers(4, 30), k=st.integers(1, 4))
    def test_least_squares_matches_lstsq(self, seed, n, k):
        # well-posed systems: QR and numpy's SVD-based lstsq agree; doses are
        # nonnegative, so each design is |A|
        rng = np.random.default_rng(seed)
        A = np.abs(rng.normal(size=(3, n, k)))
        Y = rng.normal(size=(3, n, 2))
        for f in range(3):
            R, _ = fit_regression(ConditionMatrix(A[f]), ResponseMatrix(Y[f]))
            want = np.linalg.lstsq(A[f], Y[f], rcond=None)[0]
            np.testing.assert_allclose(R.values, want, rtol=1e-9, atol=1e-10)


DESIGN_KINDS = ("random", "binary", "planted", "boundary", "zero-column", "duplicate-column")


def design_matrix(rng, kind, n, k):
    """An n x k design of one kind: Gaussian, sparse 0/1 doses (often
    rank-deficient), rcond from 1e-16 to 1e-6, rcond within 5x of
    matrix_rank's tolerance max(n, k) * eps, an all-zero column (an exact
    zero on R's diagonal) or a repeated column."""
    if kind == "planted":
        return planted_matrix(rng, n, k, 10.0 ** rng.uniform(6, 16))
    if kind == "boundary":
        return planted_matrix(rng, n, k, rng.uniform(0.2, 5.0) / (max(n, k) * np.finfo(float).eps))
    if kind == "binary":
        return (rng.uniform(size=(n, k)) < 0.3).astype(float)
    A = rng.normal(size=(n, k))
    if kind == "zero-column":
        A[:, rng.integers(k)] = 0.0
    elif kind == "duplicate-column" and k > 1:
        A[:, rng.integers(1, k)] = A[:, 0]
    return A


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 12),
    k=st.integers(1, 6),
    kinds=st.lists(st.sampled_from(DESIGN_KINDS), min_size=1, max_size=8),
    scale=st.sampled_from([1.0, 1e-160, 1e160]),
)
def test_lstsq_matches_matrix_rank_then_qr(seed, n, k, kinds, scale):
    # the route it replaces: matrix_rank of the design, then QR where it has
    # full column rank; fewer rows than columns is never full rank
    rng = np.random.default_rng(seed)
    designs = [scale * design_matrix(rng, kind, n, k) for kind in kinds]
    Ys = rng.normal(size=(len(designs), n, 2))
    for A, Y in zip(designs, Ys):
        M = _lstsq(A, Y)
        full = np.linalg.matrix_rank(A) == k
        assert (M is not None) == full
        if full:
            Q, R = np.linalg.qr(A)
            assert np.array_equal(M, np.linalg.solve(R, Q.T @ Y))


def rare_drug_design(rng, n, k, faint):
    """A Gaussian design whose column 0 is dosed at 1 in two rows and at
    faint (up to 1e-4, or 0) in the others: a fold that trains without both
    rows is ill-conditioned or rank-deficient."""
    A = rng.normal(size=(n, k))
    A[:, 0] = faint * rng.uniform(size=n)
    A[rng.choice(n, 2, replace=False), 0] = 1.0
    return A


BASIS_KINDS = ("random", "binary", "rare-drug", "faint-drug", "duplicate-column", "boundary")


def assert_equal_reports(got, want):
    for a, b in zip(got, want):
        assert (a.final_objective, a.iterations, a.converged, a.status) == (
            b.final_objective, b.iterations, b.converged, b.status)
        np.testing.assert_array_equal(a.objective_trace, b.objective_trace)


def settled_folds(family, D, X, tests):
    """(predictions, reports) of fit.fit_least_squares_folds on a block of
    folds, in the basis of the family's design, with its closed_form."""
    basis = factor_design(family.design(D, X))
    return fit_least_squares_folds(basis, X.values, tests, *family.closed_form)


def fit_one_block(family, D, X, train, tests):
    """(predictions, reports) of fit_blocks on a plan that is one block of
    folds."""
    plan = SplitPlan(kind="random-fold", n=D.n_conditions, folds=tuple(zip(train, tests)))
    ((_, result),) = fit_blocks(family, D, X, [plan])
    return result


def assert_unsettled_folds_fit_alone(family, D, X, train, tests):
    """Run one block of folds through the engine, fit_blocks.  Each fold
    that the basis of the family's design leaves alone must equal family.fit
    and predict on that fold's rows, bit for bit, and the first of those
    that fails must raise its error; a settled fold keeps the bits of
    fit.fit_least_squares_folds."""
    settled_preds, settled = settled_folds(family, D, X, tests)
    got = outcome(lambda: fit_one_block(family, D, X, train, tests))
    want = outcome(lambda: [None if settled[f] is not None
                            else family_fold(family, D, X, train[f], tests[f])
                            for f in range(len(train))])
    if isinstance(want, tuple):
        assert got == want  # the same error from the same fold
        return
    preds, reports = got
    for f, fold in enumerate(want):
        if fold is None:
            np.testing.assert_array_equal(preds[f], settled_preds[f])
            assert_equal_reports([reports[f]], [settled[f]])
        else:
            np.testing.assert_array_equal(preds[f], fold[0])
            assert_equal_reports([reports[f]], [fold[1]])


def basis_block(seed, n, k, kind, scale):
    """(A, X, train, tests): an n x k design of one of BASIS_KINDS (or
    "planted") times scale, Gaussian responses, and a block of 16 folds that
    each train on s of its n rows and test on the rest.  The block is handed
    straight to the route, whose decisions and results do not depend on how
    many folds share it, so it stays at 16: validate._BLOCK (64) would
    quadruple the single fits that the unsettled folds run."""
    rng = np.random.default_rng(seed)
    if kind in ("rare-drug", "faint-drug"):
        design = rare_drug_design(rng, n, k, 1e-4 if kind == "faint-drug" else 0.0)
    else:
        design = design_matrix(rng, kind, n, k)
    X = rng.normal(size=(n, k))
    s = int(rng.integers(min(max(1, k - 1), n - 1), n))
    perms = np.array([rng.permutation(n) for _ in range(16)])
    return scale * design, X, np.sort(perms[:, :s], axis=1), np.sort(perms[:, s:], axis=1)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(4, 20),
    k=st.integers(1, 5),
    kind=st.sampled_from(BASIS_KINDS),
    scale=st.sampled_from([1.0, 1e-160, 1e160]),
)
def test_basis_route_matches_matrix_rank_and_the_qr_route(seed, n, k, kind, scale):
    A, X, train, tests = basis_block(seed, n, k, kind, scale)

    # a fold the basis route takes is full rank; the others keep the QR
    # route's decision, which is matrix_rank's
    basis = factor_design(A)
    certified = _basis_lstsq(basis, X, tests)[1]
    full = np.linalg.matrix_rank(A[train]) == k
    assert np.array_equal(certified | [_lstsq(A[S], X[S]) is not None for S in train], full)

    # regression: certified folds agree with QR within TOL; the block leaves
    # every other fold to the family's own fit
    preds, reports = fit_least_squares_folds(basis, X, tests, 1, ())
    assert [report is not None for report in reports] == certified.tolist()
    for f in np.flatnonzero(certified):
        R = _lstsq(A[train[f]], X[train[f]])
        resid = X[train[f]] - A[train[f]] @ R
        objective = float(np.sum(resid * resid))
        assert_close(preds[f], A[tests[f]] @ R)
        assert_same_reports([reports[f]], [FitReport(objective, 1, True, [objective])])

    # causal-linear with B = I, so that D B^T is the design itself: the
    # closed form predicts A[T] M.  Doses are nonnegative, so the one-fold
    # fits see A = A+ - A- as D = [A+, A-] with B = [I, -I].  A certified
    # fold takes the closed form where its M passes the screen, as its own
    # fit decides it, at every scale
    signed = TargetMap(np.hstack([np.eye(k), -np.eye(k)]))
    D = ConditionMatrix(np.hstack([np.maximum(A, 0.0), np.maximum(-A, 0.0)]))
    assert np.array_equal(D.values @ signed.values.T, A)
    preds, closed = fit_least_squares_folds(basis, X, tests, 0, (CLOSED_FORM,), screen=True)
    for f, (S, T) in enumerate(zip(train, tests)):
        if not certified[f]:
            assert closed[f] is None
            continue
        D_S, X_S = ConditionMatrix(D.values[S]), ResponseMatrix(X[S])
        want_init = least_squares_w_init(D_S, X_S, signed)
        assert (closed[f] is None) == (want_init is None)
        if want_init is not None:
            W, report = fit_causal_linear(D_S, X_S, signed)
            assert report.status == (CLOSED_FORM,)
            assert np.array_equal(W.values, want_init.values)
            D_T = ConditionMatrix(D.values[T])
            assert_close(preds[f], predict_causal_linear(W, signed, D_T).predicted)
            assert_same_reports([closed[f]], [report])

    # every fold the block leaves alone runs the family's own fit, bit for
    # bit, or raises its error: the regression design is |A|, and the
    # causal-linear one is D, at every scale
    Xm = ResponseMatrix(X)
    assert_unsettled_folds_fit_alone(RegressionFamily(), ConditionMatrix(np.abs(A)), Xm,
                                     train, tests)
    assert_unsettled_folds_fit_alone(CausalLinearFamily(signed, FitConfig(max_iter=10)), D,
                                     Xm, train, tests)


def training_row_route(basis, X, train):
    """(y, certified) of the route that the test-row route replaced, fold by
    fold: it gathered each fold's training rows QS = Q0[S], certified the
    fold by a Cholesky factorization of QS^T QS - BASIS_DELTA I, under the
    same rcond bound, and solved (QS^T QS) y = QS^T X[S]."""
    F, s = train.shape
    n, k = basis.A.shape
    y = np.full((F, k, X.shape[1]), np.nan)
    certified = np.zeros(F, dtype=bool)
    eps = np.finfo(float).eps
    if s < k or np.sqrt(BASIS_DELTA) * basis.rcond <= (max(s, k) + 8 * n * k) * eps:
        return y, certified
    for f, S in enumerate(train):
        QS = basis.Q0[S]
        G = QS.T @ QS
        try:
            np.linalg.cholesky(G - BASIS_DELTA * np.eye(k))
        except np.linalg.LinAlgError:
            continue
        certified[f] = True
        y[f] = np.linalg.solve(G, QS.T @ X[S])
    return y, certified


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(4, 20),
    k=st.integers(1, 5),
    kind=st.sampled_from(BASIS_KINDS + ("planted",)),
    scale=st.sampled_from([1.0, 1e-160, 1e160]),
)
@example(seed=0, n=12, k=4, kind="faint-drug", scale=1.0)  # 15 of 16 folds ill-conditioned
def test_test_row_route_matches_the_training_row_route(seed, n, k, kind, scale):
    # the route downdates each fold's Gram matrix from its held-out rows:
    # it must certify the folds that the training-row route certified, each
    # one that matrix_rank calls full rank, and give their predictions and
    # objectives within 1e-12 relative.  On the faint-drug designs, a
    # certificate without its BASIS_DELTA margin certifies ill-conditioned
    # folds that the training-row route refuses
    A, X, train, tests = basis_block(seed, n, k, kind, scale)
    basis = factor_design(A)
    certified = _basis_lstsq(basis, X, tests)[1]
    y, want = training_row_route(basis, X, train)
    assert np.array_equal(certified, want)
    assert not np.any(certified & (np.linalg.matrix_rank(A[train]) < k))

    preds, reports = fit_least_squares_folds(basis, X, tests, 1, ())
    for f in np.flatnonzero(certified):
        S, T = train[f], tests[f]
        resid = X[S] - basis.Q0[S] @ y[f]
        np.testing.assert_allclose(preds[f], basis.Q0[T] @ y[f], rtol=TOL, atol=TOL)
        # relative to ||X[S]||^2, the scale of the objective's rounding: a
        # fold that fits its rows exactly has an objective of pure rounding
        np.testing.assert_allclose(reports[f].final_objective, np.sum(resid * resid),
                                   rtol=TOL, atol=TOL * np.sum(X[S] * X[S]))


def test_omega_bounds_the_departure_of_q0_from_orthonormal():
    # omega bounds ||Q0^T Q0 - I||_2, and is of the order of rounding
    rng = np.random.default_rng(0)
    D, B = build_design(), build_targets()
    for A in (D.values, D.values @ B.values.T, planted_matrix(rng, 40, 6, 1e12)):
        basis = factor_design(A)
        k = A.shape[1]
        departure = np.linalg.norm(basis.Q0.T @ basis.Q0 - np.eye(k), 2)
        assert departure <= basis.omega < 1e-12


def test_omega_shifts_the_certificate():
    # a fold passes where lambda_min(I - H) >= BASIS_DELTA + omega: raising
    # omega to put that threshold between two folds' least eigenvalues must
    # refuse exactly the folds below it
    D = build_design()
    X = simulate_responses(SimSpec(seed=5), D).values
    plan = make_random_folds(D.n_conditions, 0.7, 16, 0)
    tests = np.array([test for _, test in plan.folds])
    basis = factor_design(D.values)
    QT = basis.Q0[tests]
    least = np.linalg.eigvalsh(np.eye(D.n_drugs) - np.swapaxes(QT, 1, 2) @ QT)[:, 0]
    low, high = np.sort(least)[7:9]
    threshold = (low + high) / 2
    assert high - low > 1e-6 and threshold > 2 * BASIS_DELTA
    assert _basis_lstsq(basis, X, tests)[1].all()
    shifted = basis._replace(omega=threshold - BASIS_DELTA)
    assert np.array_equal(_basis_lstsq(shifted, X, tests)[1], least > threshold)


def snapshot(result):
    """A protocol's result, or the error outcome() caught, as values that
    compare equal only bit for bit: predictions as bytes, floats by repr."""
    if isinstance(result, MetricReport):
        reports, mean_r = [result], None
    elif isinstance(result[0], type):
        return result
    else:
        reports, mean_r = result
    return [(rep.predicted.tobytes(), rep.rows.tobytes(), repr(rep.per_fold),
             repr((rep.pearson_r, rep.mae)),
             [(repr(fit.final_objective), fit.iterations, fit.converged,
               fit.objective_trace.tobytes(), fit.status) for fit in rep.fits])
            for rep in reports], repr(mean_r)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), faint=st.sampled_from([1e-4, 0.0]))
def test_results_do_not_depend_on_the_block_size(seed, faint):
    # drug 0 is dosed at 1 in two conditions and at faint in the others, so
    # blocks mix folds that the basis certificate passes with folds it does
    # not (faint 1e-4: ill-conditioned, solved by QR), or closed-form folds
    # with rank-deficient ones whose causal-linear fit runs the proximal
    # gradient from -I (faint 0, where the regression folds raise instead).
    # Every fold must give the same bits whatever the block size.
    # Drugs 1 and 2 are each left out of a third of the conditions, so at
    # faint 0 every drug has a LODO fold; at faint 1e-4 drug 0 is used in
    # every condition, which LODO refuses, so only random folds are run.
    rng = np.random.default_rng(seed)
    n = 14
    Dv = rng.uniform(0.5, 1.0, size=(n, 3)) * (np.arange(n)[:, None] % 3 != np.arange(3) - 1)
    Dv[:, 0] = faint * rng.uniform(size=n)
    Dv[rng.choice(n, 2, replace=False), 0] = 1.0
    D = ConditionMatrix(Dv)
    B = TargetMap(rng.normal(size=(3, 3)))
    W = -np.eye(3) + 0.3 * rng.normal(size=(3, 3)) * ~np.eye(3, dtype=bool)
    X = ResponseMatrix(Dv @ B.values.T @ -np.linalg.inv(W) + 0.05 * rng.normal(size=(n, 3)))
    plan = random_plan(seed + 1, n, 9, 48)
    families = (RegressionFamily(), CausalLinearFamily(B, FitConfig(max_iter=20)))
    runs = []
    for block in (1, 7, 16, 64, 128, 1000):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(validate_module, "_BLOCK", block)
            got = [snapshot(outcome(lambda: averaged_random_fold_eval(family, D, X, plan)))
                   for family in families]
            if faint == 0.0:
                got += [snapshot(outcome(lambda: lodo_eval(family, D, X, make_lodo_splits(D))))
                        for family in families]
            runs.append(got)
    assert all(run == runs[0] for run in runs[1:])
    tests = np.array([test for _, test in plan.folds])
    certified = _basis_lstsq(factor_design(Dv), X.values, tests)[1]
    assert 0 < certified.sum() < len(certified)
    if faint == 0.0:
        fits = averaged_random_fold_eval(families[1], D, X, plan).fits
        assert {fit.iterations == 0 for fit in fits} == {True, False}


def test_every_simulated_random_fold_takes_the_basis_route():
    # the 1000-rep plan of `cv --scheme rf` on `simulate --seed 5` certified
    # for the regression and causal-linear designs, and the LODO folds for
    # the causal-linear one: the basis route cannot fall back to QR there
    # unnoticed.  No LODO fold passes for regression: the held-out drug's
    # all-zero training column leaves its basis rank-deficient
    D = build_design()
    B = build_targets()
    X = simulate_responses(SimSpec(seed=5), D).values
    plan = make_random_folds(D.n_conditions, 0.7, 1000, 0)
    tests = np.array([test for _, test in plan.folds])
    lodo = np.array([p.folds[0][1] for p in make_lodo_splits(D)])
    size = validate_module._BLOCK
    for design in (D.values, D.values @ B.values.T):
        basis = factor_design(design)
        for start in range(0, len(tests), size):
            assert _basis_lstsq(basis, X, tests[start:start + size])[1].all()
    assert _basis_lstsq(factor_design(D.values @ B.values.T), X, lodo)[1].all()
    assert not _basis_lstsq(factor_design(D.values), X, lodo)[1].any()


def test_near_singular_warm_start_refused():
    # fold 1's responses only span one direction, so its M is singular: the
    # single fit and the basis route, which certifies the fold, both refuse
    # it the closed form
    D = ConditionMatrix([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    B = TargetMap(np.eye(2))
    basis = factor_design(D.values @ B.values.T)
    test = np.zeros((1, 0), dtype=int)  # one fold, training on all three rows
    for M, refused in (([[1.0, 0.2], [0.3, 1.0]], False), ([[1.0, 2.0], [1.0, 2.0]], True)):
        X = ResponseMatrix(D.values @ np.array(M))
        init = least_squares_w_init(D, X, B)
        assert (init is None) == refused
        assert _basis_lstsq(basis, X.values, test)[1].all()
        _, closed = fit_least_squares_folds(basis, X.values, test, 0, (CLOSED_FORM,),
                                            screen=True)
        assert (closed[0] is None) == refused
        _, report = fit_causal_linear(D, X, B, FitConfig(max_iter=5))
        assert (report.status == (CLOSED_FORM,)) == (not refused)


def test_folds_whose_objective_overflows_fit_alone():
    # responses near 1e160: every fold's closed-form objective overflows, so
    # the block route settles none of them, and the first fold's own fit
    # raises DivergenceError without a numpy warning, as `perturbpred fit` does
    D, X, B = instance(0, 12, 3, 3, rare_drug=False)
    X = ResponseMatrix(1e160 * X.values)
    train, tests = (np.array(part) for part in zip(*random_plan(1, 12, 9, 4).folds))
    family = CausalLinearFamily(B)
    assert _basis_lstsq(factor_design(family.design(D, X)), X.values, tests)[1].all()
    assert settled_folds(family, D, X, tests)[1] == [None] * 4
    with pytest.raises(DivergenceError, match="overflows at the starting W"):
        fit_one_block(family, D, X, train, tests)


def test_rank_deficient_stack_names_the_zero_column():
    # fold 0 trains on a full-rank design and fold 1 on rows that never dose
    # b.  fit_regression on fold 1's rows refuses b at lambda = 0, naming it,
    # but the engine fits fold 1 on a alone with b's coefficient 0, at any
    # lambda: bit for bit the reduced fit with a zero row inserted
    D = ConditionMatrix([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 2.0],
                         [1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0]], ["a", "b"])
    X = ResponseMatrix(np.random.default_rng(0).normal(size=(8, 2)))
    plan = SplitPlan(kind="random-fold", n=8, folds=((np.arange(4), np.arange(4, 8)),
                                                     (np.arange(4, 8), np.arange(4))))
    with pytest.raises(SingularMatrixError, match="deficient design columns: b$"):
        fit_regression(ConditionMatrix(D.values[4:], ["a", "b"]), ResponseMatrix(X.values[4:]))
    for cfg in (FitConfig(), FitConfig(lam=0.5)):
        (_, full), (preds, reduced) = fit_folds(RegressionFamily(cfg), D, X, [plan])
        R, report = fit_regression(ConditionMatrix(D.values[4:][:, [0]], ["a"]),
                                   ResponseMatrix(X.values[4:]), cfg)
        np.testing.assert_array_equal(preds, D.values[:4] @ np.insert(R.values, 1, 0.0, axis=0))
        assert_equal_reports([reduced], [report])
        assert full.converged
