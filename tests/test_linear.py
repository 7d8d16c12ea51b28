import warnings

import numpy as np
import pytest

from perturbpred.errors import (
    DimensionError,
    NotNegativeDefiniteError,
    SingularMatrixError,
)
from perturbpred.linear import (
    _rcond,
    dag_to_w,
    matrix_exponential,
    predict_causal_dag,
    predict_causal_linear,
    predict_regression,
    verify_steady_state_limit,
    w_to_dag,
)
from perturbpred.types import (
    A_FORM,
    ConditionMatrix,
    InteractionMatrix,
    RegressionCoefficients,
    TargetMap,
)

from conftest import neumann_propagate, random_negdef_w, random_stable_w


def one_drug(j, q=15, dose=1.0):
    d = np.zeros((1, q))
    d[0, j] = dose
    return ConditionMatrix(d)


class TestPredictRegression:
    def test_zero_coefficients(self):
        R = RegressionCoefficients(np.zeros((3, 2)))
        D = ConditionMatrix(np.random.default_rng(0).uniform(0, 2, (4, 3)))
        out = predict_regression(R, D)
        assert np.all(out.predicted == 0.0)
        assert out.model_tag == "regression"

    def test_one_hot_selects_row(self):
        rng = np.random.default_rng(1)
        R = RegressionCoefficients(rng.normal(size=(4, 3)))
        D = ConditionMatrix(np.eye(4)[[2]])
        out = predict_regression(R, D)
        assert np.array_equal(out.predicted[0], R.values[2])

    def test_identity_design_returns_coefficients_exactly(self):
        rng = np.random.default_rng(2)
        R = RegressionCoefficients(rng.normal(size=(5, 4)))
        D = ConditionMatrix(np.eye(5))
        out = predict_regression(R, D)
        assert np.array_equal(out.predicted, R.values)

    def test_bench_total_effect_row(self, bench_dag, bench_targets):
        # R encoding the full drug -> steady-state map of the benchmark
        # system; applying drugs 1 and 2 together at dose 1 each.
        inv = np.linalg.inv(np.eye(5) - bench_dag.values)
        R = RegressionCoefficients((bench_targets.values.T @ inv.T))
        D = ConditionMatrix(np.eye(15)[[0]] + np.eye(15)[[1]])
        out = predict_regression(R, D)
        expected = np.array([1.0, 2.6, 1.2, 2.4, 0.0])  # frozen
        # cross-check the frozen value with the series-propagation oracle
        u = bench_targets.values @ D.values[0]
        oracle = neumann_propagate(bench_dag.values, u)
        assert np.allclose(expected, oracle, atol=1e-12)
        assert np.allclose(out.predicted[0], expected, atol=1e-10)

    def test_dimension_mismatch(self):
        R = RegressionCoefficients(np.zeros((3, 2)))
        D = ConditionMatrix(np.ones((2, 4)))
        with pytest.raises(DimensionError):
            predict_regression(R, D)


class TestPredictCausalLinear:
    def test_identity_decay(self):
        W = InteractionMatrix(-np.eye(3))
        B = TargetMap(np.eye(3))
        D = ConditionMatrix(np.eye(3)[[0]])
        out = predict_causal_linear(W, B, D)
        assert np.allclose(out.predicted[0], [1.0, 0.0, 0.0], atol=1e-12)

    def test_zero_dose_zero_response(self):
        rng = np.random.default_rng(3)
        W = InteractionMatrix(random_stable_w(rng, 4))
        B = TargetMap(rng.normal(size=(4, 6)))
        D = ConditionMatrix(np.zeros((2, 6)))
        out = predict_causal_linear(W, B, D)
        assert np.all(out.predicted == 0.0)

    def test_bench_drug_one(self, bench_dag, bench_targets):
        W = dag_to_w(bench_dag)
        out = predict_causal_linear(W, bench_targets, one_drug(0))
        assert np.allclose(out.predicted[0], [1.0, 1.6, 1.2, 2.4, 0.0], atol=1e-10)

    def test_singular_w_rejected(self):
        W = InteractionMatrix(np.zeros((2, 2)))
        B = TargetMap(np.eye(2))
        D = ConditionMatrix(np.ones((1, 2)))
        with pytest.raises(SingularMatrixError):
            predict_causal_linear(W, B, D)

    def test_requires_w_form(self, bench_dag, bench_targets):
        with pytest.raises(ValueError):
            predict_causal_linear(bench_dag, bench_targets, one_drug(0))

    def test_linearity_in_dose(self):
        rng = np.random.default_rng(4)
        W = InteractionMatrix(random_stable_w(rng, 3))
        B = TargetMap(rng.normal(size=(3, 5)))
        d1 = rng.uniform(0, 1, 5)
        d2 = rng.uniform(0, 1, 5)
        D = ConditionMatrix(np.vstack([d1, d2, d1 + d2]))
        out = predict_causal_linear(W, B, D).predicted
        assert np.allclose(out[0] + out[1], out[2], atol=1e-12)


class TestPredictCausalDag:
    def test_no_interactions(self):
        rng = np.random.default_rng(5)
        A = InteractionMatrix(np.zeros((3, 3)), form=A_FORM)
        B = TargetMap(rng.normal(size=(3, 4)))
        D = ConditionMatrix(rng.uniform(0, 1, (6, 4)))
        out = predict_causal_dag(A, B, D)
        assert np.allclose(out.predicted, D.values @ B.values.T, atol=1e-12)

    def test_bench_drug_six(self, bench_dag, bench_targets):
        # drug 6 hits responses 1 and 2 at strength 0.5 each
        out = predict_causal_dag(bench_dag, bench_targets, one_drug(5))
        assert np.allclose(out.predicted[0], [0.5, 1.3, 0.6, 1.2, 0.0], atol=1e-10)

    def test_matches_w_form_prediction(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            p, q = 4, 6
            A = InteractionMatrix(0.3 * rng.normal(size=(p, p)), form=A_FORM)
            B = TargetMap(rng.normal(size=(p, q)))
            D = ConditionMatrix(rng.uniform(0, 1, (5, q)))
            dag = predict_causal_dag(A, B, D).predicted
            lin = predict_causal_linear(dag_to_w(A), B, D).predicted
            assert np.allclose(dag, lin, atol=1e-12)

    def test_singular_i_minus_a(self):
        A = InteractionMatrix(np.eye(2), form=A_FORM)
        with pytest.raises(SingularMatrixError):
            predict_causal_dag(A, TargetMap(np.eye(2)), ConditionMatrix(np.ones((1, 2))))


class TestFormConversion:
    def test_zero_dag_gives_minus_identity(self):
        A = InteractionMatrix(np.zeros((4, 4)), form=A_FORM)
        W = dag_to_w(A)
        assert np.array_equal(W.values, -np.eye(4))

    def test_bench_positions(self, bench_dag):
        W = dag_to_w(bench_dag).values
        assert np.allclose(np.diag(W), -1.0)
        assert W[0, 1] == 1.6
        assert W[0, 2] == 1.2
        assert W[2, 3] == 2.0
        assert np.count_nonzero(W) == 5 + 3

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        A = InteractionMatrix(rng.normal(size=(5, 5)), form=A_FORM)
        back = w_to_dag(dag_to_w(A))
        # diagonal takes a -1/+1 round trip, so exactness is machine-level
        assert np.allclose(back.values, A.values, atol=1e-15, rtol=0.0)
        off = ~np.eye(5, dtype=bool)
        assert np.array_equal(back.values[off], A.values[off])
        assert back.form == A_FORM

    def test_form_checks(self, bench_dag):
        W = dag_to_w(bench_dag)
        with pytest.raises(ValueError):
            dag_to_w(W)
        with pytest.raises(ValueError):
            w_to_dag(bench_dag)


def taylor_expm(M, t, terms=200):
    """Brute-force Taylor oracle for the matrix exponential."""
    A = M * t
    out = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for k in range(1, terms):
        term = term @ A / k
        out = out + term
    return out


class TestMatrixExponential:
    def test_zero_matrix(self):
        assert np.array_equal(matrix_exponential(np.zeros((3, 3))), np.eye(3))

    def test_scalar_diagonal(self):
        E = matrix_exponential(np.diag([-1.0]), 1.0)
        assert np.allclose(E, [[np.exp(-1.0)]], rtol=1e-12)

    def test_against_taylor_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            M = rng.normal(size=(4, 4))
            got = matrix_exponential(M, 0.5)
            want = taylor_expm(M, 0.5)
            assert np.allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_group_property(self):
        rng = np.random.default_rng(9)
        M = rng.normal(size=(3, 3))
        E1 = matrix_exponential(M, 0.7)
        E2 = matrix_exponential(M, 0.3)
        E3 = matrix_exponential(M, 1.0)
        assert np.allclose(E1 @ E2, E3, rtol=1e-9, atol=1e-12)

    def test_nonsquare_rejected(self):
        with pytest.raises(DimensionError):
            matrix_exponential(np.zeros((2, 3)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            matrix_exponential(np.array([[np.inf]]))


class TestSteadyStateLimit:
    def test_identity_case(self):
        W = InteractionMatrix(-np.eye(3))
        B = TargetMap(np.eye(3))
        assert verify_steady_state_limit(W, B, 50.0) <= 1e-8

    def test_random_negative_definite(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            W = InteractionMatrix(random_negdef_w(rng, 4))
            B = TargetMap(rng.normal(size=(4, 3)))
            assert verify_steady_state_limit(W, B, 100.0) <= 1e-8

    def test_at_time_zero(self):
        # e^{A*0} = I, so the residual is the exact distance from I to the limit
        W = InteractionMatrix(-2.0 * np.eye(2))
        B = TargetMap(np.eye(2))
        q = p = 2
        limit = np.zeros((q + p, q + p))
        limit[:q, :q] = np.eye(q)
        limit[q:, :q] = 0.5 * np.eye(2)  # -inv(W) B
        expected = np.linalg.norm(np.eye(q + p) - limit, "fro")
        assert np.isclose(verify_steady_state_limit(W, B, 0.0), expected, atol=1e-12)

    def test_rejects_non_negative_definite(self):
        B = TargetMap(np.eye(2))
        with pytest.raises(NotNegativeDefiniteError):
            verify_steady_state_limit(InteractionMatrix(np.eye(2)), B, 1.0)
        asym = InteractionMatrix(np.array([[-1.0, 0.5], [0.0, -1.0]]))
        with pytest.raises(NotNegativeDefiniteError):
            verify_steady_state_limit(asym, B, 1.0)

    def test_residual_monotone_and_converged(self):
        rng = np.random.default_rng(11)
        W = InteractionMatrix(random_negdef_w(rng, 3))
        B = TargetMap(rng.normal(size=(3, 2)))
        eigvals = np.linalg.eigvalsh(W.values)
        t_star = 100.0 / abs(eigvals.max())  # slowest mode sets the clock
        grid = np.linspace(0.5, t_star, 8)
        residuals = [verify_steady_state_limit(W, B, t) for t in grid]
        assert all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:]))
        assert residuals[-1] <= 1e-8


class TestRcond:
    def test_stack_matches_each_matrix(self):
        rng = np.random.default_rng(12)
        stack = np.stack([
            rng.normal(size=(3, 3)),
            np.zeros((3, 3)),
            np.diag([2.0, 1.0, 0.0]),
            np.diag([4.0, 2.0, 1.0]),
        ])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = _rcond(stack)
            each = [_rcond(M) for M in stack]
        assert rc.shape == (4,)
        assert np.array_equal(rc, each)
        assert rc[1] == 0.0 and rc[2] == 0.0 and rc[3] == 0.25
        s = np.linalg.svd(stack[0], compute_uv=False)
        assert rc[0] == s[-1] / s[0]
