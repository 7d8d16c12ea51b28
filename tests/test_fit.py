import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import perturbpred.fit as fit_module
import perturbpred.linear as linear_module
import perturbpred.ode as ode_module
from perturbpred.errors import (
    DimensionError,
    DivergenceError,
    NonConvergenceError,
    SingularMatrixError,
)
from perturbpred.fit import (
    LINEAR_FIRST_STEP,
    MAX_ITER_REACHED,
    FitConfig,
    FitReport,
    causal_loss_and_gradient,
    causal_objective,
    causal_ode_loss_and_gradient,
    fit_causal_linear,
    fit_causal_ode,
    fit_regression,
    least_squares_w_init,
    soft_threshold,
)
from perturbpred.linear import dag_to_w, predict_causal_linear
from perturbpred.ode import ENVELOPES, OdeModel, linearize, steady_state, steady_states
from perturbpred.simulate import (
    SimSpec,
    build_dag,
    build_design,
    build_targets,
    simulate_responses,
)
from perturbpred.types import (
    A_FORM,
    RCOND_MIN,
    ConditionMatrix,
    EdgeMask,
    InteractionMatrix,
    ResponseMatrix,
    TargetMap,
)
from perturbpred.validate import (
    CausalLinearFamily,
    CausalOdeFamily,
    RegressionFamily,
    averaged_random_fold_eval,
    make_lodo_splits,
    make_random_folds,
    select_lambda_cv,
)

from conftest import continuation_instance, random_stable_w


def fd_gradient(W, D, X, B, h=1e-6):
    """Central-difference oracle for the smooth causal loss."""
    g = np.zeros_like(W)
    for i in range(W.shape[0]):
        for j in range(W.shape[1]):
            Wp = W.copy()
            Wm = W.copy()
            Wp[i, j] += h
            Wm[i, j] -= h
            lp, _ = causal_loss_and_gradient(Wp, D, X, B)
            lm, _ = causal_loss_and_gradient(Wm, D, X, B)
            g[i, j] = (lp - lm) / (2 * h)
    return g


def test_names_the_benchmark_uses_stay_bound():
    # perfbench/workloads.py recomputes a lasso fit's objective with
    # causal_objective(W, D, X, B, lam); perfbench/tracing.py counts the
    # spans of the fits, the loss evaluations and the warm starts by their
    # names in this module; perfbench/selftest.py checks that steady_state,
    # bound here, is wrapped.  A name lost here would only show as a failed
    # benchmark run.
    for name in ("fit_regression", "fit_causal_linear", "fit_causal_ode",
                 "causal_loss_and_gradient", "least_squares_w_init"):
        assert callable(getattr(fit_module, name))
    assert fit_module.steady_state is steady_state
    rng = np.random.default_rng(0)
    D = ConditionMatrix(rng.uniform(0, 1, (6, 2)))
    X = ResponseMatrix(rng.normal(size=(6, 2)))
    B = TargetMap(np.eye(2))
    W = np.array([[-1.0, 0.5], [0.0, -2.0]])
    loss, _ = causal_loss_and_gradient(W, D, X, B)
    assert causal_objective(W, D, X, B, 0.1) == loss + 0.1 * 0.5


def test_the_penalty_and_the_proximal_map_skip_the_diagonal_in_any_layout():
    # the off-diagonal penalty and the proximal map leave W's diagonal out
    # whether W is stored by rows, by columns or as a transposed view
    rng = np.random.default_rng(3)
    D = ConditionMatrix(rng.uniform(0, 1, (6, 3)))
    X = ResponseMatrix(rng.normal(size=(6, 3)))
    B = TargetMap(np.eye(3))
    W = random_stable_w(rng, 3)
    grad = rng.normal(size=(3, 3))
    cfg = FitConfig(lam=0.3)
    for V, G in ((W, grad), (np.asfortranarray(W), np.asfortranarray(grad)), (W.T, grad.T)):
        C, Gc = np.ascontiguousarray(V), np.ascontiguousarray(G)
        off = np.abs(C[~np.eye(3, dtype=bool)]).sum()
        assert fit_module._penalty(V, 0.3) == 0.3 * off
        assert causal_objective(V, D, X, B, 0.3) == causal_objective(C, D, X, B, 0.3)
        shrunk = fit_module._proximal_map(V, G, 0.5, cfg)
        assert np.array_equal(shrunk, fit_module._proximal_map(C, Gc, 0.5, cfg))
        assert np.array_equal(shrunk.diagonal(), (C - 0.5 * Gc).diagonal())



def test_fits_take_their_warm_start_through_least_squares_w_init(monkeypatch):
    # perfbench/tracing.py counts the warm starts by the spans of this
    # module's least_squares_w_init, so a fit that starts from the
    # least-squares W calls it by that name; the lambda = 0 closed form and
    # a given w_init take no warm start
    calls = []
    warm_start = fit_module.least_squares_w_init

    def counted(*args):
        calls.append(None)
        return warm_start(*args)

    monkeypatch.setattr(fit_module, "least_squares_w_init", counted)
    rng = np.random.default_rng(1)
    D = ConditionMatrix(rng.uniform(0, 1, (12, 3)))
    X = ResponseMatrix(rng.normal(size=(12, 3)))
    B = TargetMap(np.eye(3))
    diagonal = EdgeMask(np.eye(3, dtype=bool))
    cold = InteractionMatrix(-np.eye(3))
    for cfg, expected in ((FitConfig(lam=0.1), 1), (FitConfig(mask=diagonal), 1),
                          (FitConfig(), 0), (FitConfig(lam=0.1, w_init=cold), 0)):
        calls.clear()
        fit_causal_linear(D, X, B, dataclasses.replace(cfg, max_iter=5))
        assert len(calls) == expected, cfg

class TestSoftThreshold:
    def test_matches_brute_force_scalar_prox(self):
        # prox of thr*|.|: argmin_z 0.5*(z - v)^2 + thr*|z|
        grid = np.linspace(-5, 5, 200001)
        for v in (-2.3, -0.4, 0.0, 0.1, 1.7):
            for thr in (0.0, 0.3, 1.0):
                objective = 0.5 * (grid - v) ** 2 + thr * np.abs(grid)
                brute = grid[np.argmin(objective)]
                assert abs(soft_threshold(v, thr) - brute) < 1e-4

    def test_vectorized(self):
        out = soft_threshold(np.array([-2.0, -0.5, 0.5, 2.0]), 1.0)
        assert np.array_equal(out, [-1.0, 0.0, 0.0, 1.0])


class TestFitRegression:
    def test_exact_recovery_noiseless(self):
        rng = np.random.default_rng(0)
        D = ConditionMatrix(rng.uniform(0, 2, (30, 4)))
        R_true = rng.normal(size=(4, 3))
        X = ResponseMatrix(D.values @ R_true)
        R, report = fit_regression(D, X)
        assert np.allclose(R.values, R_true, atol=1e-10)
        assert report.converged

    def test_huge_lambda_zeroes_everything(self):
        rng = np.random.default_rng(1)
        D = ConditionMatrix(rng.uniform(0, 2, (20, 3)))
        X = ResponseMatrix(rng.normal(size=(20, 2)))
        R, _ = fit_regression(D, X, FitConfig(lam=1e6))
        assert np.all(R.values == 0.0)

    def test_objective_beats_zero_solution(self):
        rng = np.random.default_rng(2)
        D = ConditionMatrix(rng.uniform(0, 2, (25, 4)))
        X = ResponseMatrix(rng.normal(size=(25, 3)))
        for lam in (0.0, 0.5, 5.0):
            R, report = fit_regression(D, X, FitConfig(lam=lam))
            at_zero = float(np.sum(X.values**2))
            assert report.final_objective <= at_zero + 1e-12

    def test_normal_equations_satisfied(self):
        rng = np.random.default_rng(3)
        D = ConditionMatrix(rng.uniform(0, 2, (40, 5)))
        X = ResponseMatrix(rng.normal(size=(40, 4)))
        R, _ = fit_regression(D, X)
        resid_grad = D.values.T @ (X.values - D.values @ R.values)
        assert np.max(np.abs(resid_grad)) <= 1e-8 * np.max(np.abs(D.values.T @ X.values))

    def test_rank_deficient_names_columns(self):
        D = ConditionMatrix(
            np.array([[1.0, 0.0], [2.0, 0.0]]), ["used", "never_dosed"]
        )
        X = ResponseMatrix(np.ones((2, 1)))
        with pytest.raises(SingularMatrixError, match="never_dosed"):
            fit_regression(D, X)

    def test_recovers_bench_total_effects_from_noisy_data(self):
        # noisy benchmark data: coefficients land near the true drug ->
        # response totals (entrywise within 0.1 at this noise level)
        D = build_design()
        X = simulate_responses(SimSpec(seed=5), D)
        A = build_dag().values
        R_true = build_targets().values.T @ np.linalg.inv(np.eye(5) - A).T
        R, _ = fit_regression(D, X)
        err = np.abs(R.values - R_true)
        # per-entry sampling sd is ~0.045 at this noise level, so most entries
        # land within 0.1 but the max over all 75 routinely does not
        assert np.quantile(err, 0.9) < 0.1
        assert np.max(err) < 0.25

    def test_lasso_determinism(self):
        rng = np.random.default_rng(4)
        D = ConditionMatrix(rng.uniform(0, 2, (20, 4)))
        X = ResponseMatrix(rng.normal(size=(20, 3)))
        R1, _ = fit_regression(D, X, FitConfig(lam=0.7))
        R2, _ = fit_regression(D, X, FitConfig(lam=0.7))
        assert np.array_equal(R1.values, R2.values)

    def test_lasso_independent_of_memory_layout(self):
        # the LODO folds of the simulated benchmark: D[train][:, keep] is
        # Fortran-ordered, D[ix_(train, keep)] C-ordered, with equal entries
        D = build_design()
        X = simulate_responses(SimSpec(seed=0), D)
        for plan in make_lodo_splits(D):
            train, _ = plan.folds[0]
            keep = [j for j in range(D.n_drugs) if j != plan.held_out_drug]
            Xt = ResponseMatrix(X.values[train])
            by_c, _ = fit_regression(ConditionMatrix(D.values[np.ix_(train, keep)]), Xt,
                                     FitConfig(lam=0.5))
            by_f, _ = fit_regression(ConditionMatrix(D.values[train][:, keep]), Xt,
                                     FitConfig(lam=0.5))
            assert np.array_equal(by_c.values, by_f.values)

    @pytest.mark.parametrize("lam", [0.01, 1.0, 100.0])
    def test_never_dosed_drug_row_stays_exactly_zero(self, lam):
        # the row's gradient is exactly 0, so from R = 0 no step moves it
        rng = np.random.default_rng(5)
        Dv = rng.uniform(0, 2, (20, 4))
        Dv[:, 2] = 0.0
        X = ResponseMatrix(Dv @ rng.normal(size=(4, 3)) + rng.normal(size=(20, 3)))
        R, report = fit_regression(ConditionMatrix(Dv), X, FitConfig(lam=lam))
        assert report.converged and report.iterations > 0
        assert np.all(R.values[2] == 0.0)


class TestCausalLossAndGradient:
    def _instance(self, rng, p=3, q=5, n=6):
        W = random_stable_w(rng, p)
        D = ConditionMatrix(rng.uniform(0, 1, (n, q)))
        X = ResponseMatrix(rng.normal(size=(n, p)))
        B = TargetMap(rng.normal(size=(p, q)))
        return W, D, X, B

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        W, D, X, B = self._instance(rng)
        _, grad = causal_loss_and_gradient(W, D, X, B)
        fd = fd_gradient(W, D, X, B)
        scale = np.maximum(np.abs(fd), 1.0)
        assert np.max(np.abs(grad - fd) / scale) <= 1e-5

    def test_gradient_vanishes_at_interpolating_solution(self):
        rng = np.random.default_rng(7)
        W_true = random_stable_w(rng, 3)
        D = ConditionMatrix(rng.uniform(0, 1, (10, 5)))
        B = TargetMap(rng.normal(size=(3, 5)))
        X = ResponseMatrix(D.values @ B.values.T @ (-np.linalg.inv(W_true)))
        loss, grad = causal_loss_and_gradient(W_true, D, X, B)
        assert loss <= 1e-20
        assert np.max(np.abs(grad)) <= 1e-6

    def test_quadratic_homogeneity(self):
        rng = np.random.default_rng(8)
        W, D, X, B = self._instance(rng)
        c = 3.0
        loss, _ = causal_loss_and_gradient(W, D, X, B)
        loss_scaled, _ = causal_loss_and_gradient(
            W,
            D,
            ResponseMatrix(c * X.values),
            TargetMap(c * B.values),
        )
        assert np.isclose(loss_scaled, c * c * loss, rtol=1e-10)

    def test_singular_w_rejected(self):
        rng = np.random.default_rng(9)
        _, D, X, B = self._instance(rng)
        with pytest.raises(SingularMatrixError):
            causal_loss_and_gradient(np.zeros((3, 3)), D, X, B)


class TestFitCausalLinear:
    def test_noiseless_bench_reaches_zero_objective(self, bench_dag, bench_targets):
        D = build_design()
        W_true = dag_to_w(bench_dag)
        X = ResponseMatrix(
            D.values @ bench_targets.values.T @ (-np.linalg.inv(W_true.values))
        )
        # from the cold -I start the accelerated fit is below 1e-6 within about
        # 1,000 iterations; tol 1e-16 then runs it until a step no longer
        # lowers the objective, a few thousand iterations, well inside the budget
        cold = InteractionMatrix(-np.eye(bench_targets.n_responses))
        W_hat, report = fit_causal_linear(
            D, X, bench_targets, FitConfig(max_iter=100000, tol=1e-16, w_init=cold)
        )
        assert report.iterations > 0
        assert report.final_objective <= 1e-6
        pred = predict_causal_linear(W_hat, bench_targets, D).predicted
        assert np.max(np.abs(pred - X.values)) <= 1e-4

    def test_huge_lambda_kills_off_diagonals(self):
        rng = np.random.default_rng(10)
        D = ConditionMatrix(rng.uniform(0, 1, (20, 4)))
        B = TargetMap(rng.normal(size=(3, 4)))
        X = ResponseMatrix(rng.normal(size=(20, 3)))
        W, _ = fit_causal_linear(D, X, B, FitConfig(lam=1e5, max_iter=500))
        off = W.values - np.diag(np.diag(W.values))
        assert np.max(np.abs(off)) <= 1e-8

    def test_objective_trace_nonincreasing(self):
        rng = np.random.default_rng(11)
        D = ConditionMatrix(rng.uniform(0, 1, (25, 5)))
        B = TargetMap(rng.normal(size=(4, 5)))
        X = ResponseMatrix(rng.normal(size=(25, 4)))
        for lam in (0.0, 0.5):
            # from -I: with no w_init the lambda = 0 fit is the closed form
            cold = InteractionMatrix(-np.eye(4)) if lam == 0.0 else None
            _, report = fit_causal_linear(D, X, B, FitConfig(lam=lam, max_iter=300, w_init=cold))
            assert report.iterations > 0
            trace = report.objective_trace
            assert np.all(np.diff(trace) <= 1e-10 * np.maximum(1.0, np.abs(trace[:-1])))

    def test_mask_respected(self):
        rng = np.random.default_rng(12)
        D = ConditionMatrix(rng.uniform(0, 1, (20, 4)))
        B = TargetMap(rng.normal(size=(3, 4)))
        X = ResponseMatrix(rng.normal(size=(20, 3)))
        allowed = np.eye(3, dtype=bool)
        allowed[0, 1] = True  # only one off-diagonal edge free
        mask = EdgeMask(allowed)
        for max_iter in (1, 3, 50):
            W, _ = fit_causal_linear(
                D, X, B, FitConfig(mask=mask, max_iter=max_iter)
            )
            assert np.all(W.values[~mask.allowed] == 0.0)

    def test_non_unique_status_when_underdetermined(self):
        # fewer drugs than responses with no penalty: not identified
        rng = np.random.default_rng(13)
        D = ConditionMatrix(rng.uniform(0, 1, (10, 2)))
        B = TargetMap(rng.normal(size=(3, 2)))
        X = ResponseMatrix(rng.normal(size=(10, 3)))
        _, report = fit_causal_linear(D, X, B, FitConfig(max_iter=20))
        assert any("non-unique" in s for s in report.status)

    def test_singular_w_init_rejected(self):
        rng = np.random.default_rng(14)
        D = ConditionMatrix(rng.uniform(0, 1, (10, 3)))
        B = TargetMap(rng.normal(size=(3, 3)))
        X = ResponseMatrix(rng.normal(size=(10, 3)))
        cfg = FitConfig(w_init=InteractionMatrix(np.zeros((3, 3))))
        with pytest.raises(SingularMatrixError, match="w_init, the starting W, is singular"):
            fit_causal_linear(D, X, B, cfg)

    def test_w_init_screened_as_masked(self):
        # w_init is singular, but the mask zeroes its off-diagonal and the fit
        # starts from -I: it runs exactly as the fit from the default start,
        # while a mask that keeps the start singular still raises
        rng = np.random.default_rng(14)
        D = ConditionMatrix(rng.uniform(0, 1, (10, 2)))
        B = TargetMap(rng.normal(size=(2, 2)))
        X = ResponseMatrix(rng.normal(size=(10, 2)))
        singular = InteractionMatrix(np.array([[-1.0, 1.0], [1.0, -1.0]]))
        diagonal = EdgeMask(np.eye(2, dtype=bool))
        W, report = fit_causal_linear(D, X, B, FitConfig(mask=diagonal, w_init=singular))
        minus_identity = InteractionMatrix(-np.eye(2))
        W_ref, ref = fit_causal_linear(D, X, B, FitConfig(mask=diagonal, w_init=minus_identity))
        assert report.converged
        assert np.array_equal(W.values, W_ref.values)
        assert np.array_equal(report.objective_trace, ref.objective_trace)
        everywhere = EdgeMask(np.ones((2, 2), dtype=bool))
        with pytest.raises(SingularMatrixError, match="w_init after the mask, the starting W"):
            fit_causal_linear(D, X, B, FitConfig(mask=everywhere, w_init=singular))

    def test_warm_start_hits_global_optimum_noiselessly(self, bench_dag, bench_targets):
        D = build_design()
        W_true = dag_to_w(bench_dag)
        X = ResponseMatrix(
            D.values @ bench_targets.values.T @ (-np.linalg.inv(W_true.values))
        )
        init = least_squares_w_init(D, X, bench_targets)
        assert init is not None
        assert np.allclose(init.values, W_true.values, atol=1e-8)
        obj = causal_objective(init.values, D, X, bench_targets, 0.0)
        assert obj <= 1e-16

    def test_least_squares_warm_start_returned_in_closed_form(self, bench_targets):
        # at lambda = 0 with no w_init and no mask the fit returns the
        # least-squares W itself, with the objective of its M
        D = build_design()
        X = simulate_responses(SimSpec(seed=5), D)
        init = least_squares_w_init(D, X, bench_targets)
        W, report = fit_causal_linear(D, X, bench_targets)
        assert np.array_equal(W.values, init.values)
        assert (report.iterations, report.converged) == (0, True)
        assert report.status == ("closed-form: the least-squares minimizer at lambda = 0",)
        C = D.values @ bench_targets.values.T
        resid = X.values - C @ fit_module._lstsq(C, X.values)
        assert report.final_objective == float((resid * resid).sum())
        # the loop runs where the closed form does not apply: a given w_init,
        # even the least-squares W, is always just a start
        nudged = InteractionMatrix(init.values + 1e-3)
        everywhere = EdgeMask(np.ones((5, 5), dtype=bool))
        capped = (MAX_ITER_REACHED.format(3),)
        for cfg, status in ((FitConfig(w_init=nudged), capped),
                            (FitConfig(w_init=init), ()),
                            (FitConfig(mask=everywhere), ()),
                            (FitConfig(lam=1e-3), ()),
                            (FitConfig(w_init=InteractionMatrix(-np.eye(5))), capped)):
            _, report = fit_causal_linear(D, X, bench_targets, dataclasses.replace(cfg, max_iter=3))
            assert report.iterations > 0 and report.status == status
            assert report.converged == (status == ())

    def test_closed_form_needs_d_bt_of_full_rank(self):
        # q < p: every M = M0 + N with D B^T N = 0 minimizes the loss, so
        # W = -inv(M) is stationary, but W is not identified
        rng = np.random.default_rng(15)
        D = ConditionMatrix(rng.uniform(0, 1, (10, 2)))
        B = TargetMap(rng.normal(size=(3, 2)))
        X = ResponseMatrix(rng.normal(size=(10, 3)))
        C = D.values @ B.values.T
        M0 = np.linalg.lstsq(C, X.values, rcond=None)[0]
        null = np.linalg.svd(C)[2][2:]
        init = InteractionMatrix(-np.linalg.inv(M0 + null.T @ rng.normal(size=(1, 3))))
        loss, grad = causal_loss_and_gradient(init.values, D, X, B)
        assert np.sum(grad * grad) < 1e-8 * max(1.0, loss)
        _, report = fit_causal_linear(D, X, B, FitConfig(w_init=init, max_iter=3))
        assert report.iterations > 0
        assert len(report.status) == 1 and report.status[0].startswith("non-unique-solution")

    def test_each_candidate_screened_once(self, monkeypatch):
        # one screened inverse per loss evaluation, and on this
        # well-conditioned instance the inverse's bound settles every screen
        rng = np.random.default_rng(15)
        D = ConditionMatrix(rng.uniform(0, 1, (20, 4)))
        B = TargetMap(rng.normal(size=(3, 4)))
        X = ResponseMatrix(rng.normal(size=(20, 3)))
        calls = {"screen": 0, "svd": 0, "loss": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(
            fit_module, "_screened_inverse", counted("screen", fit_module._screened_inverse)
        )
        monkeypatch.setattr(linear_module, "_rcond", counted("svd", linear_module._rcond))
        monkeypatch.setattr(
            fit_module, "causal_loss_and_gradient",
            counted("loss", fit_module.causal_loss_and_gradient),
        )
        cfg = FitConfig(lam=0.1, max_iter=50, w_init=InteractionMatrix(-np.eye(3)))
        _, report = fit_causal_linear(D, X, B, cfg)
        assert calls["loss"] > report.iterations
        assert calls["screen"] == calls["loss"]
        assert calls["svd"] == 0

    def test_start_inverted_once(self, monkeypatch):
        # the first loss evaluation's inverse also gives the metric, so the
        # start is inverted once before the first step is tried.  D B^T
        # (20 x 3) has full column rank, but a given w_init is only a start,
        # so the fit at lambda = 0 from w_init = -I runs the loop.  An
        # inversion counts in any shape, a stack of one included
        rng = np.random.default_rng(15)
        D = ConditionMatrix(rng.uniform(0, 1, (20, 4)))
        B = TargetMap(rng.normal(size=(3, 4)))
        X = ResponseMatrix(rng.normal(size=(20, 3)))
        assert np.linalg.matrix_rank(D.values @ B.values.T) == 3
        inverted = []
        inv = np.linalg.inv

        def counted(M):
            inverted.append(np.array(M))
            return inv(M)

        def starts():
            return sum(np.array_equal(M, -np.eye(3))
                       for stack in inverted for M in stack.reshape(-1, *stack.shape[-2:]))

        monkeypatch.setattr(np.linalg, "inv", counted)
        minus_identity = InteractionMatrix(-np.eye(3))
        for cfg in (FitConfig(lam=0.1, max_iter=5, w_init=minus_identity),
                    FitConfig(w_init=minus_identity, max_iter=5)):
            inverted.clear()
            _, report = fit_causal_linear(D, X, B, cfg)
            assert report.iterations == 5 and report.status == (MAX_ITER_REACHED.format(5),)
            assert starts() == 1

    def test_overflowing_start_raises_a_package_error(self):
        # columns a and 2a scaled by 1e160, B = I and no warm start: the loss
        # at -I overflows, which the fit reports without a numpy warning.  So
        # does a full-rank design whose responses are scaled by 1e160: the
        # closed form's objective overflows
        rng = np.random.default_rng(0)
        a = rng.uniform(0, 1, 6)
        X = ResponseMatrix(rng.normal(size=(6, 2)))
        for D, X in ((ConditionMatrix(1e160 * np.column_stack([a, 2 * a])), X),
                     (ConditionMatrix(rng.uniform(0, 1, (6, 2))), ResponseMatrix(1e160 * X.values))):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DivergenceError, match="overflows at the starting W"):
                    fit_causal_linear(D, X, TargetMap(np.eye(2)))

    def test_tiny_warm_start_takes_the_unit_metric(self):
        # a Gaussian 4 x 1 design at 1e-160 (seed 0) as D = [A+, A-] with
        # B = [I, -I], trained on rows 0 and 2: the least-squares W is near
        # 1e-160, so its inverse squared overflows.  The metric falls back to
        # 1 without a numpy warning.  In the thin-QR basis of D B^T the
        # least-squares start leaves no residual that W reaches, so the fit
        # stops there, converged (a start whose rounding leaves one is the
        # next test)
        rng = np.random.default_rng(0)
        A = 1e-160 * rng.normal(size=(4, 1))
        rows = [0, 2]
        D = ConditionMatrix(np.hstack([np.maximum(A, 0.0), np.maximum(-A, 0.0)])[rows])
        X = ResponseMatrix(rng.normal(size=(4, 1))[rows])
        B = TargetMap(np.array([[1.0, -1.0]]))
        w_init = least_squares_w_init(D, X, B)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            metric = fit_module._causal_metric(np.linalg.inv(w_init.values), A[rows])
            assert np.array_equal(metric, np.ones((1, 1)))
            W, report = fit_causal_linear(D, X, B, FitConfig(w_init=w_init, max_iter=10))
        C = D.values @ B.values.T
        least_squares = np.linalg.lstsq(C, X.values, rcond=None)[1][0]
        assert report.converged and report.status == ()
        assert np.array_equal(W.values, w_init.values)
        assert report.final_objective == pytest.approx(least_squares, rel=1e-12)

    def test_rounded_gradient_at_a_tiny_start_exhausts_the_backtracking(self):
        # a Gaussian 2 x 1 design at 1e-150 (seed 3) as D = [A+, A-] with
        # B = [I, -I]: the least-squares W, near -5e-150, is stationary, but
        # the rounding of its one-row residual in the basis, times inv(W)
        # twice, gives it a gradient near -3e133.  No step along it passes
        # the sufficient-decrease test, so the backtracking runs out and the
        # fit raises a package error, not a numpy warning
        rng = np.random.default_rng(3)
        A = 1e-150 * rng.normal(size=(2, 1))
        D = ConditionMatrix(np.hstack([np.maximum(A, 0.0), np.maximum(-A, 0.0)]))
        X = ResponseMatrix(rng.normal(size=(2, 1)))
        B = TargetMap(np.array([[1.0, -1.0]]))
        w_init = least_squares_w_init(D, X, B)
        _, grad = causal_loss_and_gradient(w_init.values, D, X, B)
        assert abs(grad[0, 0]) > 1e100
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergenceError, match="backtracking exhausted"):
                fit_causal_linear(D, X, B, FitConfig(w_init=w_init, max_iter=10))

    def test_near_singular_candidate_rejected_by_the_svd_fallback(self, monkeypatch):
        # the first trial step is replaced by a W with rcond 1e-13: its
        # inverse cannot pass the bound, the SVD screen rejects it, and the
        # line search halves the step
        rng = np.random.default_rng(15)
        D = ConditionMatrix(rng.uniform(0, 1, (20, 4)))
        B = TargetMap(rng.normal(size=(3, 4)))
        X = ResponseMatrix(rng.normal(size=(20, 3)))
        near_singular = -np.diag([1.0, 1.0, 1e-13])
        proximal_map = fit_module._proximal_map
        trials = []

        def first_trial_near_singular(W, grad, step, cfg):
            # step is the trial times the metric, whose largest entry is 1
            trials.append(float(np.max(step)))
            if len(trials) == 1:
                return near_singular.copy()
            return proximal_map(W, grad, step, cfg)

        rcond = linear_module._rcond
        screened = []

        def svd_spy(M):
            screened.append((M, rcond(M)))
            return screened[-1][1]

        monkeypatch.setattr(fit_module, "_proximal_map", first_trial_near_singular)
        monkeypatch.setattr(linear_module, "_rcond", svd_spy)
        _, report = fit_causal_linear(D, X, B, FitConfig(lam=0.1, max_iter=5))
        assert len(screened) == 1
        M, rc = screened[0]
        assert np.array_equal(M, near_singular) and rc < RCOND_MIN
        assert trials[:2] == [LINEAR_FIRST_STEP, LINEAR_FIRST_STEP / 2]
        assert np.all(np.diff(report.objective_trace) <= 0)
        with pytest.raises(SingularMatrixError):
            causal_loss_and_gradient(near_singular, D, X, B)


@pytest.mark.parametrize("fitter", ["causal-linear", "causal-ode"])
def test_mask_for_other_responses_is_dimension_error(fitter):
    # checked with the target map, before the mask is applied to any W
    D = ConditionMatrix(np.eye(3))
    X = ResponseMatrix(np.ones((3, 3)))
    B = TargetMap(np.eye(3))
    cfg = FitConfig(mask=EdgeMask(np.ones((2, 2))))
    with pytest.raises(DimensionError, match=r"edge mask has shape \(2, 2\), but the data's "
                                             r"3 responses give W the shape \(3, 3\)"):
        if fitter == "causal-linear":
            fit_causal_linear(D, X, B, cfg)
        else:
            fit_causal_ode(D, X, B, OdeModel(InteractionMatrix(-np.eye(3)), B, np.ones(3)), cfg)


def test_momentum_restarts_where_the_momentum_point_is_singular(monkeypatch):
    # the loss is evaluated at W0, at each momentum point Y2, Y3, Y4 and at
    # every trial step of the proximal map; a point that is not the trial
    # step just made is W0 or a Y, and the third of them, Y3, is made singular
    rng = np.random.default_rng(16)
    D = ConditionMatrix(rng.uniform(0, 1, (20, 4)))
    B = TargetMap(rng.normal(size=(3, 4)))
    X = ResponseMatrix(rng.normal(size=(20, 3)))
    events = []  # ("point", W) and ("trial", start, step, W_new), in call order
    loss_and_gradient = fit_module.causal_loss_and_gradient
    proximal_map = fit_module._proximal_map

    def trial_spy(W, grad, step, cfg):
        # step is the trial times the metric, whose largest entry is 1
        W_new = proximal_map(W, grad, step, cfg)
        events.append(("trial", W, float(np.max(step)), W_new))
        return W_new

    def loss_spy(W, *args):
        if not (events and events[-1][0] == "trial" and events[-1][3] is W):
            events.append(("point", W))
            if sum(e[0] == "point" for e in events) == 3:
                raise SingularMatrixError("planted")
        return loss_and_gradient(W, *args)

    monkeypatch.setattr(fit_module, "_proximal_map", trial_spy)
    monkeypatch.setattr(fit_module, "causal_loss_and_gradient", loss_spy)
    _, report = fit_causal_linear(D, X, B, FitConfig(lam=0.1, max_iter=4))
    assert report.iterations == 4
    starts = [k for k, e in enumerate(events) if e[0] == "point"]
    W0, Y2, _, Y4 = (events[k][1] for k in starts)
    # iteration k's trials run from its point to the next; the last is W_k
    trials = [events[a + 1:b] for a, b in zip(starts, starts[1:] + [len(events)])]
    W1, W2, W3 = (steps[-1][3] for steps in trials[:3])
    # after the restart t = 1 again, so Y4 extrapolates as Y2 did after the start
    t = (1.0 + np.sqrt(5.0)) / 2.0
    beta = (t - 1.0) / ((1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0)
    assert np.allclose(Y2, W1 + beta * (W1 - W0), rtol=0.0, atol=1e-14)
    assert np.allclose(Y4, W3 + beta * (W3 - W2), rtol=0.0, atol=1e-14)
    # with Y3 singular every trial of iteration 3 is a plain step from W2
    assert all(start is W2 for _, start, _, _ in trials[2])
    # in the metric of the start W0, one step per entry
    step = trials[2][-1][2] * fit_module._causal_metric(np.linalg.inv(W0), D.values @ B.values.T)
    off = ~np.eye(3, dtype=bool)
    plain = W2 - step * loss_and_gradient(W2, D, X, B)[1]
    plain[off] = soft_threshold(plain[off], step[off] * 0.1)
    assert np.allclose(W3, plain, rtol=0.0, atol=1e-14)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), k=st.integers(-60, 60))
@example(seed=5, k=-30)
@example(seed=5, k=-60)
def test_lambda_zero_fits_do_not_depend_on_dose_units(seed, k):
    # `simulate --seed seed` with its doses in units 2^-k times larger: D
    # becomes 2^k D, which scales every operation of the lambda = 0 fits
    # exactly.  The causal-linear W scales by 2^k and the regression R by
    # 2^-k, bit for bit, and the predictions and reports do not move
    D = build_design()
    X = simulate_responses(SimSpec(seed=seed), D)
    scaled = ConditionMatrix(D.values * 2.0**k, D.drug_names)
    for family, unit in ((CausalLinearFamily(build_targets()), 2.0**k),
                         (RegressionFamily(), 2.0**-k)):
        params0, report0 = family.fit(D, X)
        params, report = family.fit(scaled, X)
        assert np.array_equal(params.values, unit * params0.values)
        assert np.array_equal(family.predict(params, scaled), family.predict(params0, D))
        assert (report.iterations, report.converged, report.status, report.final_objective) == (
            report0.iterations, report0.converged, report0.status, report0.final_objective)


UNDERFLOW = re.compile(r"objective-underflow: the residual's sum of squares, (\S+) x 2\^(-?\d+),")


def underflowed(report):
    """(mantissa, exponent) of a report's objective-underflow status, or None."""
    found = [UNDERFLOW.match(s) for s in report.status if s.startswith("objective-underflow")]
    assert len(found) <= 1
    return (float(found[0][1]), int(found[0][2])) if found else None


def assert_objective_scaled(report, reference, scale):
    """report's objective is reference * scale^2: as a normal float where
    that is one, else exactly as its underflow status gives it."""
    found = underflowed(report)
    if found is None:
        assert report.final_objective == pytest.approx(reference * scale * scale, rel=1e-9)
        return
    mantissa, exponent = found
    assert report.final_objective == math.ldexp(mantissa, exponent) < np.finfo(float).tiny
    assert mantissa == pytest.approx(reference * math.ldexp(scale, -exponent // 2) ** 2, rel=1e-9)


def assert_objective_sums(report, resid, penalty):
    """report's objective is resid's sum of squares plus penalty: to rounding
    where the sum is a normal float, else with the sum exactly as its
    underflow status gives it."""
    found = underflowed(report)
    if found is None:
        assert report.final_objective == pytest.approx(np.sum(resid * resid) + penalty, rel=1e-9)
        return
    mantissa, exponent = found
    assert report.final_objective == math.ldexp(mantissa, exponent) + penalty
    scaled = np.ldexp(resid, -exponent // 2)
    assert mantissa == pytest.approx(np.sum(scaled * scaled), rel=1e-12)


@pytest.mark.parametrize("scale", [1e-150, 1e-158, 1e-170])
def test_objectives_below_the_float_range_are_not_reported_as_exact(scale):
    # `simulate --seed 5` with its responses scaled: the least-squares
    # objectives, about 12 and 0.1 unscaled, lie near 1e-299 at 1e-150,
    # normal floats; near 1e-317 at 1e-158, subnormal floats that keep a few
    # bits; and near 1e-339 at 1e-170, below every float, where summed
    # plainly they came to 0.0 and the fit looked exact
    D = build_design()
    B = build_targets()
    X = simulate_responses(SimSpec(seed=5), D)
    scaled = ResponseMatrix(X.values * scale)
    below = scale < 1e-154
    for fit in (lambda X: fit_regression(D, X), lambda X: fit_causal_linear(D, X, B)):
        _, reference = fit(X)
        _, report = fit(scaled)
        assert report.converged and report.status[:len(reference.status)] == reference.status
        assert (underflowed(report) is not None) == below
        assert_objective_scaled(report, reference.final_objective, scale)
    # the cross-validation engine's folds, each against its own fit
    plan = make_random_folds(D.n_conditions, 0.7, 4, 0)
    tests = np.array([test for _, test in plan.folds])
    basis = fit_module.factor_design(D.values)
    _, reports = fit_module.fit_least_squares_folds(basis, scaled.values, tests, 1, ())
    for (train, _), report in zip(plan.folds, reports):
        _, reference = fit_regression(ConditionMatrix(D.values[train]),
                                      ResponseMatrix(X.values[train]))
        assert (underflowed(report) is not None) == below
        assert_objective_scaled(report, reference.final_objective, scale)
    # lambda > 0 fits whose objective ends below the normal range say so,
    # and report the residual's sum summed again plus the penalty: regression,
    # and causal-linear on one response, whose W has no off-diagonal to penalize
    lam = 0.5 * scale
    R, report = fit_regression(D, scaled, FitConfig(lam=lam))
    assert (underflowed(report) is not None) == below
    assert_objective_sums(report, D.values @ R.values - scaled.values,
                          lam * float(np.abs(R.values).sum()))
    rng = np.random.default_rng(5)
    D1 = ConditionMatrix(rng.uniform(0, 1, (8, 3)))
    B1 = TargetMap(rng.normal(size=(1, 3)))
    X1 = ResponseMatrix(scale * rng.normal(size=(8, 1)))
    W, report = fit_causal_linear(D1, X1, B1, FitConfig(lam=0.1))
    assert (underflowed(report) is not None) == below
    assert_objective_sums(report, X1.values + D1.values @ B1.values.T @ np.linalg.inv(W.values),
                          0.0)


def direct_regression_loss_and_gradient(R, D, X):
    resid = D @ R - X
    return float(np.sum(resid * resid)), 2.0 * (D.T @ resid)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 12),
    p=st.integers(1, 5),
    q=st.integers(1, 7),
    deficient=st.booleans(),
    masked=st.booleans(),
    k_dose=st.integers(-40, 40),
    k_response=st.integers(-40, 40),
)
def test_reduced_losses_match_the_direct_ones(seed, n, p, q, deficient, masked, k_dose,
                                             k_response):
    # the losses that the linear fits evaluate on their design's thin-QR
    # basis equal the n-row ones: n < p and q < p (the basis of D), q >= p
    # (the basis of D B^T), rank-deficient designs with a repeated and a
    # never-dosed drug, W with masked-out entries, and data in units 2^k
    rng = np.random.default_rng(seed)
    Dv = rng.uniform(0.0, 1.0, (n, q))
    if deficient and q > 1:
        Dv[:, -1] = Dv[:, 0]
        Dv[:, 1 % (q - 1)] = 0.0
    Dv *= 2.0**k_dose
    Xv = rng.normal(size=(n, p)) * 2.0**k_response
    B = TargetMap(rng.normal(size=(p, q)))
    W = random_stable_w(rng, p)
    if masked:
        W[(rng.uniform(size=(p, p)) < 0.5) & ~np.eye(p, dtype=bool)] = 0.0
    D, X = ConditionMatrix(Dv), ResponseMatrix(Xv)

    reduced = fit_module._causal_design(Dv, B.values, Dv @ B.values.T, Xv)
    assert reduced.R.shape == (min(n, q if q < p else p), p)
    loss, grad = causal_loss_and_gradient(W, D, X, B)
    got_loss, got_grad = causal_loss_and_gradient(W, D, X, B, reduced)
    assert got_loss == pytest.approx(loss, rel=1e-12)
    assert_close_relative(got_grad, grad, 1e-12)

    R = rng.normal(size=(q, p)) * 2.0**(k_response - k_dose)
    never_dosed = ~np.any(Dv, axis=0)
    R[never_dosed] = 0.0
    loss, grad = direct_regression_loss_and_gradient(R, Dv, Xv)
    got_loss, got_grad = fit_module._regression_loss_and_gradient(R, fit_module._reduce(Dv, Xv))
    assert got_loss == pytest.approx(loss, rel=1e-12)
    assert_close_relative(got_grad, grad, 1e-12)
    assert np.all(got_grad[never_dosed] == 0.0)


# Iterations of `fit --model causal-linear --lam <lam>` on `simulate --seed
# <seed> --noise-sd 0.002` (perfbench's lasso-fit fixtures), keyed by
# (seed, lam), as the n-row loss gave them before the fits moved to the
# thin-QR basis.  Recorded with numpy 2.4 on OpenBLAS 0.3.31; another BLAS
# may move the last bits, and a flat stop could move by an iteration.
LASSO_FIT_ITERATIONS = {
    (0, 0.1): 280, (0, 1.0): 225, (1, 0.1): 281, (1, 1.0): 230,
    (2, 0.1): 273, (2, 1.0): 222, (3, 0.1): 285, (3, 1.0): 234,
}


@pytest.mark.parametrize("seed, lam", LASSO_FIT_ITERATIONS)
def test_lasso_fits_take_the_same_decisions_in_the_reduced_basis(seed, lam):
    D = build_design()
    X = simulate_responses(SimSpec(noise_sd=0.002, seed=seed), D)
    _, report = fit_causal_linear(D, X, build_targets(), FitConfig(lam=lam, max_iter=100000))
    assert (report.iterations, report.converged, report.status) == (
        LASSO_FIT_ITERATIONS[seed, lam], True, ())


def reference_proximal_gradient(D, X, B, cfg):
    """The plain proximal-gradient (ISTA) loop that fit_causal_linear replaced."""
    p = B.n_responses
    W = cfg.w_init.values.copy() if cfg.w_init is not None else -np.eye(p)
    W = fit_module._apply_mask(W, cfg.mask)
    loss, grad = causal_loss_and_gradient(W, D, X, B)
    obj = loss + fit_module._penalty(W, cfg.lam)
    trace = [obj]
    step = 1.0
    off_mask = ~np.eye(p, dtype=bool)
    converged = False
    it = 0
    for it in range(1, cfg.max_iter + 1):
        accepted = False
        trial = step
        while trial > 1e-20:
            W_new = W - trial * grad
            W_new[off_mask] = soft_threshold(W_new[off_mask], trial * cfg.lam)
            W_new = fit_module._apply_mask(W_new, cfg.mask)
            try:
                loss_new, grad_new = causal_loss_and_gradient(W_new, D, X, B)
            except SingularMatrixError:
                trial *= 0.5
                continue
            diff = W_new - W
            quad = loss + float(np.sum(grad * diff)) + float(np.sum(diff * diff)) / (2.0 * trial)
            if loss_new <= quad + 1e-12 * max(1.0, abs(loss)):
                accepted = True
                break
            trial *= 0.5
        if not accepted:
            raise NonConvergenceError("backtracking exhausted")
        obj_new = loss_new + fit_module._penalty(W_new, cfg.lam)
        rel_change = abs(obj - obj_new) / max(1.0, abs(obj))
        W, loss, grad, obj = W_new, loss_new, grad_new, obj_new
        trace.append(obj)
        step = trial * 2.0
        if rel_change < cfg.tol:
            converged = True
            break
    return W, FitReport(obj, it, converged, trace)


def reference_coordinate_descent(D, X, cfg):
    """The cyclic coordinate descent that fit_regression ran at lambda > 0:
    per response column, sweeps over the drugs until no coefficient moves by
    tol relative to the column's largest; a never-dosed drug is skipped."""
    Dv, Xv = D.values, X.values
    q = Dv.shape[1]
    col_sq = np.sum(Dv * Dv, axis=0)
    R = np.zeros((q, Xv.shape[1]))
    converged = True
    for col in range(Xv.shape[1]):
        r = R[:, col]
        resid = Xv[:, col] - Dv @ r
        for _ in range(cfg.max_iter):
            max_delta = 0.0
            for k in range(q):
                if col_sq[k] == 0.0:
                    continue
                old = r[k]
                new = soft_threshold(Dv[:, k] @ resid + col_sq[k] * old, cfg.lam / 2.0) / col_sq[k]
                if new != old:
                    resid += Dv[:, k] * (old - new)
                    r[k] = new
                    max_delta = max(max_delta, abs(new - old))
            if max_delta < cfg.tol * max(1.0, np.max(np.abs(r))):
                break
        else:
            converged = False
    resid = Xv - Dv @ R
    return R, converged, float(np.sum(resid * resid) + cfg.lam * np.sum(np.abs(R)))


def test_regression_fista_matches_the_coordinate_descent_it_replaced():
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 10_000),
        lam=st.sampled_from([0.01, 0.1, 1.0, 10.0]),
        never_dosed=st.booleans(),
    )
    def check(seed, lam, never_dosed):
        rng = np.random.default_rng(seed)
        q = int(rng.integers(1, 6))
        p = int(rng.integers(1, 5))
        n = 3 * q + int(rng.integers(3, 20))
        Dv = rng.uniform(0, 2, (n, q))
        if never_dosed:
            Dv[:, rng.integers(q)] = 0.0
        X = ResponseMatrix(Dv @ rng.normal(size=(q, p)) + 0.1 * rng.normal(size=(n, p)))
        D = ConditionMatrix(Dv)
        cfg = FitConfig(lam=lam, max_iter=100000, tol=1e-12)
        R_ref, ref_converged, ref_obj = reference_coordinate_descent(D, X, cfg)
        R, report = fit_regression(D, X, cfg)
        assert ref_converged and report.converged
        assert report.final_objective <= ref_obj + 1e-9 * max(1.0, ref_obj)
        assert np.max(np.abs(R.values - R_ref)) <= 1e-5
        assert np.all(R.values[~Dv.any(axis=0)] == 0.0)
        # never up, beyond the 1e-12 slack of the sufficient-decrease test
        trace = report.objective_trace
        assert np.all(np.diff(trace) <= 1e-12 * np.maximum(1.0, trace[:-1]))

    check()


def well_conditioned_instance(seed, masked):
    """A causal-linear problem whose optimum is sharply determined.

    W_true is near -I and respects the mask, doses are large relative to the
    noise, and there are 20 conditions per drug, so the loss curves strongly
    around its minimum and both solvers' stopping points pin W to ~1e-5.
    """
    rng = np.random.default_rng(seed)
    p = int(rng.integers(2, 5))
    q = p + int(rng.integers(0, 3))
    off = ~np.eye(p, dtype=bool)
    allowed = (rng.uniform(size=(p, p)) < 0.6) | ~off if masked else np.ones((p, p), dtype=bool)
    while True:
        W_true = -np.eye(p) + 0.3 * rng.normal(size=(p, p)) * off * allowed
        if np.max(np.linalg.eigvals(W_true).real) < -0.5:
            break
    B = TargetMap(np.eye(p, q) + 0.2 * rng.normal(size=(p, q)))
    D = ConditionMatrix(rng.uniform(0, 3, (20 * q, q)))
    X = ResponseMatrix(
        D.values @ B.values.T @ -np.linalg.inv(W_true) + 0.01 * rng.normal(size=(20 * q, p))
    )
    return D, X, B, EdgeMask(allowed) if masked else None


def test_fista_matches_the_proximal_gradient_it_replaced():
    iterations = []

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 10_000),
        lam=st.sampled_from([0.01, 0.1, 1.0]),
        masked=st.booleans(),
        warm=st.booleans(),
    )
    # a momentum step here gains < tol short of the minimum; stopping on it
    # would leave the objective ~1e-9 above the reference's
    @example(seed=24, lam=1.0, masked=True, warm=False)
    @example(seed=166, lam=0.01, masked=True, warm=True)
    def check(seed, lam, masked, warm):
        D, X, B, mask = well_conditioned_instance(seed, masked)
        init = least_squares_w_init(D, X, B) if warm else InteractionMatrix(-np.eye(X.n_responses))
        cfg = FitConfig(lam=lam, max_iter=100000, tol=1e-12, mask=mask, w_init=init)
        W_ref, ref = reference_proximal_gradient(D, X, B, cfg)
        W, report = fit_causal_linear(D, X, B, cfg)
        assert ref.converged and report.converged
        assert report.final_objective <= ref.final_objective + 1e-9 * max(1.0, ref.final_objective)
        assert np.max(np.abs(W.values - W_ref)) <= 1e-5
        if mask is not None:
            assert np.all(W.values[~mask.allowed] == 0.0)
        # never up, beyond the 1e-12 slack of the sufficient-decrease test
        trace = report.objective_trace
        assert np.all(np.diff(trace) <= 1e-12 * np.maximum(1.0, trace[:-1]))
        iterations.append((report.iterations, ref.iterations))

    check()
    fista, ista = np.sum(iterations, axis=0)
    assert fista < ista


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_step_growth_spares_most_rejected_trials(warm, monkeypatch):
    # each iteration evaluates the loss at its momentum point and at its
    # trial steps; a first trial that is mostly accepted keeps that near 2,
    # where re-growing the step by 2 made it about 3
    D, X, B, _ = well_conditioned_instance(0, False)
    init = least_squares_w_init(D, X, B) if warm else InteractionMatrix(-np.eye(X.n_responses))
    calls = []
    loss_and_gradient = fit_module.causal_loss_and_gradient

    def counted(*args):
        calls.append(None)
        return loss_and_gradient(*args)

    monkeypatch.setattr(fit_module, "causal_loss_and_gradient", counted)
    _, report = fit_causal_linear(D, X, B, FitConfig(lam=0.1, w_init=init))
    assert report.converged and report.iterations > 50
    assert len(calls) / report.iterations <= 2.5
    # never up, beyond the 1e-12 slack of the sufficient-decrease test
    trace = report.objective_trace
    assert np.all(np.diff(trace) <= 1e-12 * np.maximum(1.0, trace[:-1]))


class TestDiagonalMetric:
    def test_inverse_diagonal_with_largest_entry_exactly_one(self):
        h = np.array([[4.0, 0.0], [2.0, 8.0], [3.0, 7.0]])
        metric = fit_module._diagonal_metric(h)
        assert np.array_equal(metric, [[0.5, 1.0], [1.0, 0.25], [2.0 / 3.0, 2.0 / 7.0]])
        assert np.array_equal(fit_module._diagonal_metric(np.zeros(3)), np.ones(3))

    def test_causal_metric_is_the_gauss_newton_diagonal(self):
        # h_ij = ||d(X + C inv(W)) / d w_ij||^2, by central differences
        rng = np.random.default_rng(7)
        W = random_stable_w(rng, 3)
        C = rng.uniform(0, 1, (12, 4)) @ rng.normal(size=(4, 3))
        h = np.empty((3, 3))
        for i in range(3):
            for j in range(3):
                E = np.zeros((3, 3))
                E[i, j] = 1e-6
                dR = (C @ np.linalg.inv(W + E) - C @ np.linalg.inv(W - E)) / 2e-6
                h[i, j] = np.sum(dR * dR)
        metric = fit_module._causal_metric(np.linalg.inv(W), C)
        assert np.max(metric) == 1.0
        assert np.allclose(metric, h.min() / h, rtol=1e-6, atol=0.0)

    def test_singular_start_gets_the_unit_metric(self):
        # the metric comes from the inverse that the first loss evaluation
        # screened: np.linalg.inv raises on the first start, so the fit
        # refuses it before any metric, and overflows to inf on the second,
        # which gets the unit metric
        C = np.ones((5, 2))
        D = ConditionMatrix(np.ones((5, 2)))
        cfg = FitConfig(lam=0.1, w_init=InteractionMatrix(np.zeros((2, 2))))
        with pytest.raises(SingularMatrixError, match="w_init"):
            fit_causal_linear(D, ResponseMatrix(C), TargetMap(np.eye(2)), cfg)
        with np.errstate(over="ignore"):
            Q = np.linalg.inv(np.diag([1e-310, 1.0]))
        assert np.array_equal(fit_module._causal_metric(Q, C), np.ones((2, 2)))


def test_metric_fits_the_lasso_fit_instance_in_fewer_evaluations(monkeypatch):
    # `simulate --seed 0 --noise-sd 0.002`, fitted at lambda = 1 from the
    # least-squares warm start as `fit --model causal-linear` fits it.  There
    # the Gauss-Newton diagonal spans a factor of about 185 across W's entries;
    # one step for every entry took 1,102 loss evaluations to an objective of
    # 4.504983156338515
    D = build_design()
    B = build_targets()
    X = simulate_responses(SimSpec(noise_sd=0.002, seed=0), D)
    calls = []
    loss_and_gradient = fit_module.causal_loss_and_gradient

    def counted(*args):
        calls.append(None)
        return loss_and_gradient(*args)

    monkeypatch.setattr(fit_module, "causal_loss_and_gradient", counted)
    cfg = FitConfig(lam=1.0, w_init=least_squares_w_init(D, X, B))
    _, report = fit_causal_linear(D, X, B, cfg)
    assert report.converged
    assert len(calls) <= 770
    assert report.final_objective <= 4.504983156338515
    trace = report.objective_trace
    assert np.all(np.diff(trace) <= 1e-12 * np.maximum(1.0, trace[:-1]))


class TestFitCausalOde:
    def test_identity_envelope_matches_linear_fit(self):
        rng = np.random.default_rng(15)
        p, q, n = 2, 3, 8
        W_true = random_stable_w(rng, p, off_scale=0.2)
        B = TargetMap(rng.normal(size=(p, q)))
        D = ConditionMatrix(rng.uniform(0, 1, (n, q)))
        X = ResponseMatrix(
            D.values @ B.values.T @ (-np.linalg.inv(W_true))
            + 0.02 * rng.normal(size=(n, p))
        )
        _, lin_report = fit_causal_linear(D, X, B, FitConfig(max_iter=3000, tol=1e-12))
        template = OdeModel(InteractionMatrix(-np.eye(p)), B, 1.0)
        _, ode_report = fit_causal_ode(
            D, X, B, template, FitConfig(max_iter=300, tol=1e-10)
        )
        assert ode_report.final_objective <= lin_report.final_objective * 1.01 + 1e-9

    def test_zero_data_zero_loss_at_init(self):
        D = ConditionMatrix(np.zeros((2, 2)))
        X = ResponseMatrix(np.zeros((2, 2)))
        B = TargetMap(np.eye(2))
        template = OdeModel(InteractionMatrix(-np.eye(2)), B, 1.0)
        model, report = fit_causal_ode(D, X, B, template, FitConfig(max_iter=5))
        assert report.objective_trace[0] == 0.0
        assert report.final_objective <= 1e-20

    def test_sigmoid_small_amplitude_near_linear(self):
        rng = np.random.default_rng(16)
        p, q, n = 2, 3, 8
        W_true = random_stable_w(rng, p, off_scale=0.2)
        B = TargetMap(0.2 * rng.normal(size=(p, q)))
        D = ConditionMatrix(rng.uniform(0, 0.5, (n, q)))
        gen = OdeModel(InteractionMatrix(W_true), B, 1.0, envelope="sigmoid")
        rows = [steady_state(gen, D.values[k]).state for k in range(n)]
        X = ResponseMatrix(np.array(rows))
        template = OdeModel(InteractionMatrix(-np.eye(p)), B, 1.0, envelope="sigmoid")
        _, report = fit_causal_ode(D, X, B, template, FitConfig(max_iter=200, tol=1e-10))
        total_ss = float(np.sum(X.values**2))
        _, lin_report = fit_causal_linear(D, X, B, FitConfig(max_iter=3000, tol=1e-12))
        assert report.final_objective < total_ss
        # both fits bottom out near numerical noise; compare only loosely
        assert report.final_objective <= lin_report.final_objective * 2.0 + 1e-6

    def test_fit_epsilon_keeps_positivity(self):
        rng = np.random.default_rng(17)
        p, q, n = 2, 2, 5
        B = TargetMap(np.eye(2))
        D = ConditionMatrix(rng.uniform(0, 1, (n, q)))
        X = ResponseMatrix(0.3 * rng.normal(size=(n, p)))
        template = OdeModel(InteractionMatrix(-np.eye(p)), B, [0.5, 2.0], envelope="sigmoid")
        model, _ = fit_causal_ode(
            D, X, B, template, FitConfig(max_iter=30), fit_epsilon=True
        )
        assert np.all(model.epsilon > 0.0)

    def test_trace_nonincreasing(self):
        rng = np.random.default_rng(18)
        p, q, n = 2, 3, 6
        B = TargetMap(rng.normal(size=(p, q)))
        D = ConditionMatrix(rng.uniform(0, 1, (n, q)))
        X = ResponseMatrix(0.5 * rng.normal(size=(n, p)))
        template = OdeModel(InteractionMatrix(-np.eye(p)), B, 1.0)
        _, report = fit_causal_ode(D, X, B, template, FitConfig(max_iter=50))
        trace = report.objective_trace
        assert np.all(np.diff(trace) <= 1e-8 * np.maximum(1.0, np.abs(trace[:-1])))


def ode_problem(seed, envelope, p=3, q=2, n=5):
    rng = np.random.default_rng(seed)
    B = TargetMap(rng.normal(size=(p, q)))
    model = OdeModel(
        InteractionMatrix(random_stable_w(rng, p)), B, rng.uniform(0.5, 2.0, p),
        envelope=envelope, clip_bound=0.5,
    )
    D = ConditionMatrix(rng.uniform(0, 1, (n, q)))
    X = ResponseMatrix(rng.normal(size=(n, p)))
    return model, D, X


def ode_loss(model, D, X, W=None, log_eps=None):
    probe = OdeModel(
        InteractionMatrix(model.W.values if W is None else W), model.B,
        model.epsilon if log_eps is None else np.exp(log_eps),
        envelope=model.envelope, clip_bound=model.clip_bound,
    )
    return causal_ode_loss_and_gradient(probe, D, X, ss_tol=1e-12, t_max=300.0, dt=0.1)[0]


def assert_close_relative(got, want, rtol):
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


class TestCausalOdeGradient:
    H = 1e-5

    def fd_gradients(self, model, D, X, entries):
        W = model.W.values
        gW = np.zeros_like(W)
        for i, j in entries:
            Wp, Wm = W.copy(), W.copy()
            Wp[i, j] += self.H
            Wm[i, j] -= self.H
            gW[i, j] = (ode_loss(model, D, X, W=Wp) - ode_loss(model, D, X, W=Wm)) / (2 * self.H)
        log_eps = np.log(model.epsilon)
        g_eps = np.zeros_like(log_eps)
        for i in range(len(log_eps)):
            ep, em = log_eps.copy(), log_eps.copy()
            ep[i] += self.H
            em[i] -= self.H
            g_eps[i] = (ode_loss(model, D, X, log_eps=ep) - ode_loss(model, D, X, log_eps=em)) / (
                2 * self.H
            )
        return gW, g_eps

    @pytest.mark.parametrize("envelope", ENVELOPES)
    def test_adjoint_matches_finite_differences(self, envelope):
        model, D, X = ode_problem(30, envelope)
        loss, gW, g_eps = causal_ode_loss_and_gradient(model, D, X, ss_tol=1e-12, t_max=300.0, dt=0.1)
        assert loss == pytest.approx(ode_loss(model, D, X), rel=1e-12)
        fd_W, fd_eps = self.fd_gradients(model, D, X, np.argwhere(np.ones((3, 3), dtype=bool)))
        assert_close_relative(gW, fd_W, 1e-6)
        assert_close_relative(g_eps, fd_eps, 1e-6)

    def test_masked_entries_on_free_support(self):
        model, D, X = ode_problem(31, "sigmoid")
        allowed = np.array([[1, 0, 1], [0, 1, 0], [1, 1, 1]], dtype=bool)
        W = np.where(allowed, model.W.values, 0.0)
        model = OdeModel(InteractionMatrix(W), model.B, model.epsilon, envelope="sigmoid")
        _, gW, _ = causal_ode_loss_and_gradient(model, D, X, ss_tol=1e-12, t_max=300.0, dt=0.1)
        fd_W, _ = self.fd_gradients(model, D, X, np.argwhere(allowed))
        assert_close_relative(gW[allowed], fd_W[allowed], 1e-6)

        template = OdeModel(InteractionMatrix(-np.eye(3)), model.B, 1.0, envelope="sigmoid")
        fitted, report = fit_causal_ode(
            D, X, model.B, template, FitConfig(max_iter=20, mask=EdgeMask(allowed))
        )
        assert np.all(fitted.W.values[~allowed] == 0.0)
        assert report.objective_trace[-1] < report.objective_trace[0]


class TestFitCausalOdeFailures:
    def test_a_form_w_init_rejected_like_the_linear_fit(self):
        B = TargetMap(np.eye(2))
        template = OdeModel(InteractionMatrix(-np.eye(2)), B, 1.0)
        cfg = FitConfig(max_iter=3, w_init=InteractionMatrix(-0.5 * np.eye(2) + 0.1, form=A_FORM))
        D = ConditionMatrix([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        X = ResponseMatrix(0.5 * D.values)
        with pytest.raises(ValueError, match="w_init must be W-form"):
            fit_causal_linear(D, X, B, cfg)
        with pytest.raises(ValueError, match="w_init must be W-form"):
            fit_causal_ode(D, X, B, template, cfg)

    def test_diverging_candidate_rejected_not_raised(self, monkeypatch):
        # the line search tries steps whose dynamics blow up from rest; Newton
        # cannot certify their equilibria, so they must be backtracked
        rejected = []
        solve = fit_module.steady_states

        def spy(model, D, **kwargs):
            res = solve(model, D, **kwargs)
            if not res.converged.all():
                rejected.append(model)
            return res

        monkeypatch.setattr(fit_module, "steady_states", spy)
        B = TargetMap(np.eye(2))
        Dv = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        template = OdeModel(InteractionMatrix(-np.eye(2)), B, 1.0)
        _, report = fit_causal_ode(
            ConditionMatrix(Dv), ResponseMatrix(-300.0 * Dv), B, template, FitConfig(max_iter=5)
        )
        assert rejected
        for model in rejected:
            with pytest.raises(DivergenceError):
                solve(model, Dv, tol=fit_module.SS_TOL, t_max=fit_module.SS_T_MAX,
                      dt=fit_module.SS_DT)
        assert report.iterations == 5
        trace = report.objective_trace
        assert np.all(np.diff(trace) <= 1e-8 * np.maximum(1.0, np.abs(trace[:-1])))

    def test_divergence_at_initial_point_raises(self):
        B = TargetMap(np.eye(2))
        template = OdeModel(InteractionMatrix(-np.eye(2)), B, 1.0)
        cfg = FitConfig(max_iter=5, w_init=InteractionMatrix(20.0 * np.eye(2)))
        with pytest.raises(DivergenceError):
            fit_causal_ode(
                ConditionMatrix([[1.0, 0.0]]), ResponseMatrix(np.zeros((1, 2))), B, template, cfg
            )

    def test_singular_jacobian_at_initial_point_raises(self):
        # node 2 has no decay and no input: it sits at 0 with a zero Jacobian row
        B = TargetMap(np.eye(2))
        template = OdeModel(InteractionMatrix(-np.eye(2)), B, 1.0)
        cfg = FitConfig(max_iter=5, w_init=InteractionMatrix(np.diag([-1.0, 0.0])))
        with pytest.raises(SingularMatrixError, match="condition row 0"):
            fit_causal_ode(
                ConditionMatrix([[1.0, 0.0], [2.0, 0.0]]), ResponseMatrix(np.ones((2, 2))),
                B, template, cfg,
            )

    def test_exhausted_line_search_reported(self, monkeypatch):
        # every solve after the initial one is reported unsettled, so every
        # candidate is rejected until the step underflows
        solve = fit_module.steady_states
        calls = []

        def settle_once(*args, **kwargs):
            res = solve(*args, **kwargs)
            calls.append(True)
            if len(calls) == 1:
                return res
            return dataclasses.replace(res, converged=np.zeros_like(res.converged))

        monkeypatch.setattr(fit_module, "steady_states", settle_once)
        rng = np.random.default_rng(32)
        B = TargetMap(np.eye(2))
        D = ConditionMatrix(rng.uniform(0, 1, (4, 2)))
        X = ResponseMatrix(rng.normal(size=(4, 2)))
        template = OdeModel(InteractionMatrix(-np.eye(2)), B, 1.0)
        _, report = fit_causal_ode(D, X, B, template, FitConfig(max_iter=50))
        assert not report.converged
        assert report.iterations == 1
        assert len(report.objective_trace) == 1
        assert len(report.status) == 1
        assert report.status[0].startswith("line-search-exhausted")
        assert len(calls) > 40  # the step was halved down to its floor


# the steady-state solves of the causal-ODE fit
SETTLE = dict(tol=fit_module.SS_TOL, t_max=fit_module.SS_T_MAX, dt=fit_module.SS_DT)


# Seed 28 of the continuation search in test_ode: at W_near, Newton continued
# from the steady states at W settles condition 0 on a clipped-linear
# equilibrium 1.59 away from the one RK4 reaches from rest.
BRANCH_SWITCH_SEED = 28


def plant_branch_switch(monkeypatch):
    """Start every Newton solve of the fit from the steady states at the
    search's W, as a continuation from there would, instead of from the
    last accepted states."""
    model_at, W, _, _ = continuation_instance(BRANCH_SWITCH_SEED)
    solve = fit_module.steady_states

    def planted(model, D, guess=None, **kwargs):
        if guess is not None:
            guess = solve(model_at(W), D, **kwargs).states
        return solve(model, D, guess=guess, **kwargs)

    monkeypatch.setattr(fit_module, "steady_states", planted)


def branch_switch_problem(monkeypatch, from_rest=False, copies=1):
    """(family, D, X): fit the search's W_near, from a small first step, to
    the states Newton continues to there from W (or, from_rest, to the states
    RK4 reaches from rest), each condition repeated copies times."""
    monkeypatch.setattr(fit_module, "ODE_FIRST_STEP", 1e-3)
    model_at, W, W_near, D = continuation_instance(BRANCH_SWITCH_SEED)
    template = model_at(W_near)
    settle = dict(tol=1e-7, t_max=100.0, dt=0.05)
    guess = None if from_rest else steady_states(model_at(W), D, **settle).states
    X = steady_states(template, D, guess=guess, **settle).states
    cfg = FitConfig(max_iter=20, tol=1e-3, w_init=InteractionMatrix(W_near))
    family = CausalOdeFamily(template.B, template, cfg)
    return family, ConditionMatrix(np.tile(D, (copies, 1))), ResponseMatrix(np.tile(X, (copies, 1)))


class TestSteadyStateContinuation:
    def test_candidates_start_from_the_last_accepted_states(self, monkeypatch):
        solve = fit_module.steady_states
        calls = []

        def spy(model, D, guess=None, **kwargs):
            res = solve(model, D, guess=guess, **kwargs)
            calls.append((model, guess, res))
            return res

        monkeypatch.setattr(fit_module, "steady_states", spy)
        # the small-amplitude sigmoid instance of TestFitCausalOde
        rng = np.random.default_rng(16)
        W_true = random_stable_w(rng, 2, off_scale=0.2)
        B = TargetMap(0.2 * rng.normal(size=(2, 3)))
        D = ConditionMatrix(rng.uniform(0, 0.5, (8, 3)))
        gen = OdeModel(InteractionMatrix(W_true), B, 1.0, envelope="sigmoid")
        X = ResponseMatrix(steady_states(gen, D.values).states)
        template = OdeModel(InteractionMatrix(-np.eye(2)), B, 1.0, envelope="sigmoid")
        model, report = fit_causal_ode(D, X, B, template, FitConfig(max_iter=10))
        assert report.status == (MAX_ITER_REACHED.format(10),)
        # from rest at the start only: the fitted W contracts, so the end
        # confirmation is the certificate and no solve from rest follows
        assert calls[0][1] is None or not np.any(calls[0][1])
        assert all(guess is not None for _, guess, _ in calls[1:])
        fitted = next(res.states for m, _, res in calls if m is model)
        steps = fit_module._rk4_settling_steps(model, fitted)
        assert steps is not None and steps * fit_module.SS_DT < fit_module.SS_T_MAX
        rk4 = solve(model, D.values, **SETTLE)
        assert rk4.converged.all()
        assert np.max(np.abs(rk4.states - fitted)) <= fit_module.BRANCH_TOL
        sources = []  # the call whose states each candidate started from
        for k, (_, guess, res) in enumerate(calls[1:], start=1):
            j = next(j for j in range(k) if calls[j][2].states is guess)
            assert not sources or j >= sources[-1]
            sources.append(j)
            assert res.converged.all() and np.isnan(res.t_reached).all()  # certified Newton rows
        # each start is an accepted iterate, in the order of the trace
        started = sorted(set(sources))
        assert len(started) == len(report.objective_trace) - 1 == report.iterations
        for j, obj in zip(started, report.objective_trace):
            assert np.sum((X.values - calls[j][2].states) ** 2) == obj

    def test_planted_branch_switch_caught_by_confirmation(self, monkeypatch):
        family, D, X = branch_switch_problem(monkeypatch, from_rest=True)
        _, report = family.fit(D, X)
        assert report.converged and report.status == ()

        plant_branch_switch(monkeypatch)
        family, D, X = branch_switch_problem(monkeypatch)
        _, report = family.fit(D, X)
        assert report.iterations < 20  # stopped by tol, then overruled
        assert not report.converged
        assert report.status == (
            "steady-state-branch: integrating from rest at the fitted parameters "
            "does not reach the fitted steady states",
        )

    @pytest.mark.filterwarnings("ignore:.*never appeared in a test set")
    def test_branch_status_reaches_cv_fit_summary(self, monkeypatch):
        plant_branch_switch(monkeypatch)
        family, D, X = branch_switch_problem(monkeypatch, copies=4)
        plan = make_random_folds(len(D.values), 0.7, 2, seed=0)
        fits = averaged_random_fold_eval(family, D, X, plan).metadata["fits"]
        assert fits["unconverged"] == fits["folds"] == 2
        assert fits["status"] == [
            "steady-state-branch: integrating from rest at the fitted parameters "
            "does not reach the fitted steady states"
        ]

    def test_uncertified_candidate_rejected_without_rk4(self, monkeypatch):
        # the diverging instance of TestFitCausalOdeFailures: the candidates
        # Newton cannot certify are rejected, not integrated; the contracting
        # start is solved by Newton, so RK4 runs once, for the confirmation
        integrate_rows = ode_module._integrate_rows
        rk4_calls = []

        def count(*args):
            rk4_calls.append(True)
            return integrate_rows(*args)

        monkeypatch.setattr(ode_module, "_integrate_rows", count)
        B = TargetMap(np.eye(2))
        Dv = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        template = OdeModel(InteractionMatrix(-np.eye(2)), B, 1.0)
        _, report = fit_causal_ode(
            ConditionMatrix(Dv), ResponseMatrix(-300.0 * Dv), B, template, FitConfig(max_iter=5)
        )
        assert report.iterations == 5 and report.status == (MAX_ITER_REACHED.format(5),)
        assert len(rk4_calls) == 1

    def test_multistable_start_integrated_from_rest(self, monkeypatch):
        # W_near has two equilibria for condition 0 under its clipped-linear
        # envelope, so its dynamics cannot contract: the fit must start from
        # RK4 from rest, which reaches the one prediction reaches
        family, D, X = branch_switch_problem(monkeypatch, from_rest=True)
        model_at, _, W_near, _ = continuation_instance(BRANCH_SWITCH_SEED)
        assert not fit_module._contracts(W_near, model_at(W_near).epsilon)
        solve = fit_module.steady_states
        guesses = []

        def spy(model, D, guess=None, **kwargs):
            guesses.append(guess)
            return solve(model, D, guess=guess, **kwargs)

        monkeypatch.setattr(fit_module, "steady_states", spy)
        family.fit(D, X)
        assert guesses[0] is None


def contracting_instance(rng, envelope, p, margin):
    """(model, D): random dynamics whose every response j has
    w_jj + eps_j sum_{i != j} |w_ij| = -margin_j, with margin_j >= margin."""
    W = rng.normal(0.0, 0.8, (p, p)) * (rng.uniform(size=(p, p)) < 0.7)
    np.fill_diagonal(W, 0.0)
    eps = rng.uniform(0.5, 2.0, p)
    np.fill_diagonal(W, -eps * np.abs(W).sum(axis=0) - margin - rng.exponential(0.5, p))
    B = TargetMap(rng.normal(size=(p, 3)))
    model = OdeModel(InteractionMatrix(W), B, eps, envelope=envelope, clip_bound=1.5)
    return model, rng.uniform(0.0, 4.0, (int(rng.integers(1, 9)), 3))


class TestContractingStart:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        envelope=st.sampled_from(ENVELOPES),
        p=st.integers(1, 6),
        margin=st.floats(0.2, 2.0),
    )
    def test_newton_from_rest_matches_rk4_from_rest(self, seed, envelope, p, margin):
        model, D = contracting_instance(np.random.default_rng(seed), envelope, p, margin)
        W = model.W.values
        assert fit_module._contracts(W, model.epsilon)
        c = fit_module._contraction_margin(W, model.epsilon)[0]
        newton = steady_states(model, D, guess=np.zeros((len(D), p)), **SETTLE)
        rk4 = steady_states(model, D, **SETTLE)
        assert newton.converged.all() and rk4.converged.all()
        assert np.max(np.abs(newton.states - rk4.states)) <= 2.0 * fit_module.SS_TOL / c
        # the bound behind the test: every Jacobian's infinity-norm log-norm <= -c
        J = linearize(model, D, newton.states)[2]
        off = np.abs(J).sum(axis=2) - np.abs(np.diagonal(J, axis1=1, axis2=2))
        assert np.max(np.diagonal(J, axis1=1, axis2=2) + off) <= -c + 1e-12


# the regimes of rest_certificate_instance, each near one edge of the proof
REST_REGIMES = ("stiff", "slow", "branch", "drive", "any")


def rest_certificate_instance(rng, envelope, p, regime):
    """(model, D): random contracting dynamics with eps != 1.  "stiff" puts
    h |w_jj| near 1, "slow" puts rho near 1, "branch" puts c near
    2 SS_TOL / BRANCH_TOL, and "drive" takes drives up to 1e4, so that the
    step bound nears SS_T_MAX."""
    h = fit_module.SS_DT
    eps = rng.uniform(0.3, 3.0, p)
    W = rng.normal(0.0, 1.0, (p, p)) * (rng.uniform(size=(p, p)) < 0.6)
    np.fill_diagonal(W, 0.0)
    if regime == "stiff":
        W *= 0.3
    spread = eps * np.abs(W).sum(axis=0)
    if regime == "stiff":
        diag = np.minimum(-rng.uniform(0.8, 1.4, p) / h, -spread - 0.05)
    elif regime == "slow":
        diag = -spread - rng.uniform(0.01, 0.6, p)
    elif regime == "branch":
        c_edge = 2.0 * fit_module.SS_TOL / fit_module.BRANCH_TOL
        diag = -spread - c_edge * 10.0 ** rng.uniform(-0.2, 1.5, p)
    else:
        diag = -spread - rng.exponential(1.0, p)
    np.fill_diagonal(W, diag)
    model = OdeModel(
        InteractionMatrix(W), TargetMap(rng.normal(size=(p, 3))), eps,
        envelope=envelope, clip_bound=1.5,
    )
    scale = 10.0 ** rng.uniform(-6.0, 4.0 if regime == "drive" else 1.0)
    return model, scale * rng.uniform(0.0, 1.0, (int(rng.integers(1, 7)), 3))


class TestRestCertificate:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        envelope=st.sampled_from(ENVELOPES),
        p=st.integers(1, 6),
        regime=st.sampled_from(REST_REGIMES),
        nudge=st.booleans(),
    )
    def test_certified_rows_settle_from_rest(self, seed, envelope, p, regime, nudge):
        # Newton's certified states, or (nudge) states moved toward rest as
        # far as max|dx/dt| < SS_TOL allows; wherever the certificate holds,
        # RK4 from rest settles every row within its step count, within
        # BRANCH_TOL of those states
        model, D = rest_certificate_instance(np.random.default_rng(seed), envelope, p, regime)
        newton = steady_states(model, D, guess=np.zeros((len(D), p)), **SETTLE)
        if not newton.converged.all():
            return
        states = newton.states
        if nudge:
            _, diag, spread = fit_module._contraction_margin(model.W.values, model.epsilon)
            L = np.max(np.abs(diag) + spread)
            room = 0.99 * (fit_module.SS_TOL - newton.rate_norm.max()) / L
            states = np.sign(states) * np.maximum(np.abs(states) - room, 0.0)
        steps = fit_module._rk4_settling_steps(model, states)
        if steps is None or steps * fit_module.SS_DT >= fit_module.SS_T_MAX:
            return
        rk4 = steady_states(model, D, **SETTLE)
        assert rk4.converged.all()
        assert np.max(rk4.t_reached) <= steps * fit_module.SS_DT + 1e-9
        assert np.max(np.abs(rk4.states - states)) <= fit_module.BRANCH_TOL

    def test_stiff_decay_outside_the_proof_is_integrated(self, monkeypatch):
        # h |w_jj| = 1.2: rho = |1 - 1.2| + 1.2^2/2 + 1.2^3/6 + 1.2^4/24 = 1.29,
        # so the certificate does not hold and RK4 from rest judges
        model = OdeModel(InteractionMatrix(np.array([[-24.0]])), TargetMap(np.eye(1)), 1.7)
        D = ConditionMatrix(np.array([[0.5], [1.0]]))
        states = 1.7 * D.values / 24.0  # the equilibria eps u / 24
        assert fit_module._rk4_settling_steps(model, states) is None
        guesses = []
        solve = fit_module.steady_states

        def spy(model, D, guess=None, **kwargs):
            guesses.append(guess)
            return solve(model, D, guess=guess, **kwargs)

        monkeypatch.setattr(fit_module, "steady_states", spy)
        assert fit_module._reached_from_rest(model, D, states)
        assert guesses == [None]

    def test_states_that_only_meet_the_rate_tolerance(self):
        # dx/dt = u - c x with c = 0.0025 and u = 1.4 SS_TOL: from rest the
        # rate stays above SS_TOL until t = ln(1.4) / c = 135 > SS_T_MAX.  The
        # given states sit 0.99 SS_TOL / c below the equilibrium, where the
        # rate is 0.99 SS_TOL; the certificate must count that distance
        c, tol = 0.0025, fit_module.SS_TOL
        model = OdeModel(InteractionMatrix(np.array([[-c]])), TargetMap(np.eye(1)), 1.0)
        D = ConditionMatrix(np.array([[1.4 * tol]]))
        states = np.array([[(1.4 - 0.99) * tol / c]])
        steps = fit_module._rk4_settling_steps(model, states)
        assert steps is None or steps * fit_module.SS_DT >= fit_module.SS_T_MAX
        assert not fit_module._reached_from_rest(model, D, states)
        assert not steady_states(model, D.values, **SETTLE).converged.any()


def test_select_lambda_cv_returns_grid_member():
    rng = np.random.default_rng(19)
    p, q, n = 3, 2, 12
    B = TargetMap(rng.normal(size=(p, q)))
    D = ConditionMatrix(rng.uniform(0, 1, (n, q)))
    X = ResponseMatrix(rng.normal(size=(n, p)))
    grid = [0.01, 0.1, 1.0]
    best, scores = select_lambda_cv(
        D, X, B, grid=grid, n_folds=3, seed=0,
        cfg=FitConfig(max_iter=200, tol=1e-6),
    )
    assert best in grid
    assert set(scores) == set(grid)
    assert all(np.isfinite(v) or v == np.inf for v in scores.values())
