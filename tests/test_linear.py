import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from perturbpred.errors import (
    DimensionError,
    DivergenceError,
    NotNegativeDefiniteError,
    SingularMatrixError,
)
import perturbpred.linear as linear_module
from perturbpred.linear import (
    _rcond,
    _screened_inverse,
    dag_to_w,
    matrix_exponential,
    predict_causal_dag,
    predict_causal_linear,
    predict_regression,
    verify_steady_state_limit,
    w_to_dag,
)
from perturbpred.ode import ENVELOPES, OdeModel, linearize
from perturbpred.types import (
    A_FORM,
    RCOND_MIN,
    ConditionMatrix,
    InteractionMatrix,
    RegressionCoefficients,
    TargetMap,
)

from conftest import neumann_propagate, planted_matrix, random_negdef_w, random_stable_w


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


@pytest.mark.parametrize("predict", ["regression", "causal-linear", "causal-dag"])
def test_predictions_that_overflow_raise_divergence(predict):
    # every factor is finite, but each prediction sums two terms of 1e308
    D = ConditionMatrix(np.ones((1, 2)))
    B = TargetMap(np.full((2, 2), 1e308))
    args = {
        "regression": (predict_regression, RegressionCoefficients(np.full((2, 2), 1e308)), D),
        "causal-linear": (predict_causal_linear, InteractionMatrix(-np.eye(2)), B, D),
        "causal-dag": (predict_causal_dag, InteractionMatrix(np.zeros((2, 2)), form=A_FORM), B, D),
    }[predict]
    with pytest.raises(DivergenceError, match="predictions overflow the floating-point range"):
        args[0](*args[1:])


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


SQUARE_KINDS = ("random", "planted", "boundary", "zero-row", "rank-deficient", "zero", "jacobian")


def ode_jacobian(rng, k, threshold):
    """The Jacobian that ode.linearize gives at rest for a k-response model of
    a random envelope, built to equal a planted matrix: well-conditioned,
    rcond within 2x of threshold on either side, or with an exactly zero row.

    At x = 0 the Jacobian is diag(g) W_off^T + diag(w_jj), with g = eps
    phi'(u) at the drive u alone, so W_off = (M_off / g)^T reproduces M's
    off-diagonal up to rounding, and a zero row of M stays exactly zero.
    """
    plant = rng.integers(3)
    if plant == 0:
        M = rng.normal(size=(k, k))
    else:
        M = planted_matrix(rng, k, k, rng.uniform(0.5, 2.0) / threshold)
        if plant == 2:
            M[rng.integers(k)] = 0.0
    B = TargetMap(np.eye(k))
    eps = rng.uniform(0.5, 2.0, k)
    envelope = ENVELOPES[rng.integers(len(ENVELOPES))]
    u, rest = rng.uniform(-1.0, 1.0, (1, k)), np.zeros((1, k))
    diag = np.diag(np.diag(M))
    g = linearize(OdeModel(InteractionMatrix(diag), B, eps, envelope), u, rest)[1][0]
    W = ((M - diag) / g[:, None]).T + diag
    return linearize(OdeModel(InteractionMatrix(W), B, eps, envelope), u, rest)[2][0]


def square_matrix(rng, kind, k, threshold):
    """A k x k matrix of one kind: well-conditioned, rcond from 1e-16 to 1e-6,
    rcond within 5x of threshold, exactly singular for LU, singular up to
    rounding, zero, or an ODE Jacobian (:func:`ode_jacobian`)."""
    if kind == "jacobian":
        return ode_jacobian(rng, k, threshold)
    if kind == "planted":
        return planted_matrix(rng, k, k, 10.0 ** rng.uniform(6, 16))
    if kind == "boundary":
        return planted_matrix(rng, k, k, rng.uniform(0.2, 5.0) / threshold)
    if kind == "zero":
        return np.zeros((k, k))
    M = rng.normal(size=(k, k))
    if kind == "zero-row":
        M[rng.integers(k)] = 0.0
    elif kind == "rank-deficient":
        M = M[:, : k - 1] @ rng.normal(size=(k - 1, k))
    return M


class TestScreenedInverse:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 6),
        kinds=st.lists(st.sampled_from(SQUARE_KINDS), min_size=1, max_size=8),
        scale=st.sampled_from([1.0, 1e-160, 1e160]),
        threshold=st.sampled_from([RCOND_MIN, 1e-8]),
    )
    def test_matches_svd_screen_then_inv(self, seed, k, kinds, scale, threshold):
        # the screen it replaces: the SVD's rcond, then inv of what passed
        rng = np.random.default_rng(seed)
        M = scale * np.stack([square_matrix(rng, kind, k, threshold) for kind in kinds])
        want = _rcond(M) >= threshold
        inv, ok = _screened_inverse(M, threshold)
        assert np.array_equal(ok, want)
        if want.any():
            assert np.array_equal(inv[ok], np.linalg.inv(M[want]))
        for f in range(len(M)):
            one_inv, one_ok = _screened_inverse(M[f], threshold)
            assert one_ok is bool(want[f])
            if one_ok:
                assert np.array_equal(one_inv, np.linalg.inv(M[f]))

    def test_svd_only_where_the_bound_cannot_decide(self, monkeypatch):
        # rcond 1.5e-10 passes and 5e-11 fails, but the bound ||M||_F
        # ||inv(M)||_F <= 1 / (2 RCOND_MIN) settles neither: the SVD does
        rcond = linear_module._rcond
        screened = []

        def svd_spy(M):
            screened.append(M)
            return rcond(M)

        monkeypatch.setattr(linear_module, "_rcond", svd_spy)
        M = np.stack([np.diag([1.0, 1.0, s]) for s in (0.5, 1.5e-10, 5e-11)])
        inv, ok = _screened_inverse(M, RCOND_MIN)
        assert ok.tolist() == [True, True, False]
        assert len(screened) == 1 and np.array_equal(screened[0], M[1:])
        assert np.array_equal(inv[:2], np.linalg.inv(M[:2]))
        # a stack with an exactly singular matrix is screened whole, as before
        M[0, 2, 2] = 0.0
        inv, ok = _screened_inverse(M, RCOND_MIN)
        assert ok.tolist() == [False, True, False]
        assert np.array_equal(screened[-1], M)
        assert np.array_equal(inv[1], np.linalg.inv(M[1]))
