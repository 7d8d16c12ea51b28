import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from perturbpred.errors import DimensionError, DivergenceError, NonConvergenceError
from perturbpred.linear import dag_to_w, predict_causal_linear
from perturbpred.ode import (
    ENVELOPES,
    OdeModel,
    Trajectory,
    _apply_envelope,
    integrate,
    make_rhs,
    steady_state,
    steady_states,
)
from perturbpred.types import ConditionMatrix, InteractionMatrix, TargetMap

from conftest import random_stable_w


def simple_model(W, B=None, eps=1.0, envelope="identity", **kw):
    p = W.shape[0]
    if B is None:
        B = np.eye(p)
    return OdeModel(
        InteractionMatrix(W), TargetMap(B), eps, envelope=envelope, **kw
    )


class TestOdeModel:
    def test_scalar_epsilon_broadcast(self):
        m = simple_model(-np.eye(3), eps=2.0)
        assert m.epsilon.shape == (3,)
        assert np.all(m.epsilon == 2.0)

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError):
            simple_model(-np.eye(2), eps=[1.0, 0.0])

    def test_unknown_envelope(self):
        with pytest.raises(ValueError):
            simple_model(-np.eye(2), envelope="step")

    def test_clip_bound_positive(self):
        with pytest.raises(ValueError):
            simple_model(-np.eye(2), envelope="clipped-linear", clip_bound=0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            simple_model(-np.eye(2), B=np.eye(3))


class TestIntegrate:
    def test_decay_to_unit_response(self):
        m = simple_model(-np.eye(3))
        traj = integrate(m, [1.0, 0.0, 0.0], t_end=50.0)
        assert np.allclose(traj.final_state, [1.0, 0.0, 0.0], atol=1e-6)

    def test_zero_dose_stays_at_origin(self):
        rng = np.random.default_rng(0)
        m = simple_model(random_stable_w(rng, 4), B=rng.normal(size=(4, 2)))
        traj = integrate(m, [0.0, 0.0], t_end=5.0)
        assert np.all(traj.states == 0.0)

    def test_divergence_reported_with_time(self):
        m = simple_model(np.eye(2) * 5.0)  # unstable: responses blow up
        with pytest.raises(DivergenceError) as exc:
            integrate(m, [1.0, 0.0], t_end=200.0, dt=0.5)
        assert exc.value.time is not None

    def test_bad_steps(self):
        m = simple_model(-np.eye(2))
        with pytest.raises(ValueError):
            integrate(m, [0.0, 0.0], dt=0.0)
        with pytest.raises(ValueError):
            integrate(m, [0.0, 0.0], t_end=-1.0)

    def test_step_halving_fourth_order(self):
        # RK4 global error drops ~16x per halving on a smooth system
        rng = np.random.default_rng(1)
        m = simple_model(random_stable_w(rng, 3), eps=[1.0, 2.0, 0.5], envelope="sigmoid")
        d = [0.8, 0.3, 0.0]
        finals = [
            integrate(m, d, t_end=1.0, dt=dt).final_state
            for dt in (0.1, 0.05, 0.025)
        ]
        e1 = np.linalg.norm(finals[0] - finals[1])
        e2 = np.linalg.norm(finals[1] - finals[2])
        ratio = e1 / e2
        assert 8.0 <= ratio <= 24.0


class TestEnvelopes:
    def test_sigmoid_saturates_rate(self):
        # single node with no decay and no self-loop: rate = eps * tanh(dose)
        m = OdeModel(
            InteractionMatrix(np.zeros((1, 1))),
            TargetMap(np.eye(1)),
            [3.0],
            envelope="sigmoid",
        )
        rhs = make_rhs(m, [50.0])
        assert np.isclose(rhs(np.zeros(1))[0], 3.0, atol=1e-9)
        rhs_neg = make_rhs(m, [0.0])
        assert np.isclose(rhs_neg(np.zeros(1))[0], 0.0, atol=1e-12)

    def test_clipped_linear_bound(self):
        v = np.array([-30.0, -5.0, 0.0, 5.0, 30.0])
        out = _apply_envelope(v, "clipped-linear", 10.0)
        assert np.array_equal(out, [-10.0, -5.0, 0.0, 5.0, 10.0])

    def test_all_envelopes_nondecreasing(self):
        grid = np.linspace(-20.0, 20.0, 401)
        for env in ENVELOPES:
            vals = _apply_envelope(grid, env, 10.0)
            assert np.all(np.diff(vals) >= 0.0), env


class TestSteadyState:
    def test_matches_closed_form(self):
        rng = np.random.default_rng(2)
        W = random_stable_w(rng, 4)
        B = rng.normal(size=(4, 3))
        m = simple_model(W, B=B)
        d = rng.uniform(0, 1, 3)
        res = steady_state(m, d)
        assert res.converged
        closed = predict_causal_linear(
            InteractionMatrix(W), TargetMap(B), ConditionMatrix(d[None, :])
        ).predicted[0]
        assert np.max(np.abs(res.state - closed)) <= 1e-6

    def test_zero_dose(self):
        m = simple_model(-np.eye(2))
        res = steady_state(m, [0.0, 0.0])
        assert res.converged
        assert np.all(res.state == 0.0)
        assert res.t_reached == 0.0

    def test_bench_drug_one(self, bench_dag, bench_targets):
        m = OdeModel(dag_to_w(bench_dag), bench_targets, 1.0)
        d = np.zeros(15)
        d[0] = 1.0
        res = steady_state(m, d)
        assert res.converged
        assert np.allclose(res.state, [1.0, 1.6, 1.2, 2.4, 0.0], atol=1e-5)

    def test_non_convergence_flagged_not_raised(self):
        m = simple_model(-0.001 * np.eye(2))  # far too slow to settle by t_max
        res = steady_state(m, [1.0, 0.0], t_max=1.0)
        assert not res.converged
        assert res.rate_norm >= 1e-8
        assert np.all(np.isfinite(res.state))

    def test_bad_tol(self):
        m = simple_model(-np.eye(2))
        with pytest.raises(ValueError):
            steady_state(m, [0.0, 0.0], tol=0.0)


def reference_steady_state(model, d, tol, t_max, dt):
    """The per-condition RK4 loop that steady_states replaced, kept as an oracle."""
    rhs = make_rhs(model, d)
    x = np.zeros(model.size)
    t = 0.0
    rate = rhs(x)
    while t < t_max:
        if np.max(np.abs(rate)) < tol:
            return x, True, t
        h = min(dt, t_max - t)
        k1 = rate
        k2 = rhs(x + 0.5 * h * k1)
        k3 = rhs(x + 0.5 * h * k2)
        k4 = rhs(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
        rate = rhs(x)
    return x, bool(np.max(np.abs(rate)) < tol), t


def assert_rows_match_single_solves(model, D, tol, t_max, dt):
    res = steady_states(model, D, tol=tol, t_max=t_max, dt=dt)
    for k, d in enumerate(D):
        one = steady_state(model, d, tol=tol, t_max=t_max, dt=dt)
        ref_x, ref_conv, ref_t = reference_steady_state(model, d, tol, t_max, dt)
        assert res.t_reached[k] == one.t_reached == ref_t
        assert bool(res.converged[k]) == one.converged == ref_conv
        assert np.max(np.abs(res.states[k] - one.state)) <= 1e-12
        assert np.max(np.abs(res.states[k] - ref_x)) <= 1e-12
    return res


class TestSteadyStates:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        envelope=st.sampled_from(ENVELOPES),
        n=st.integers(1, 6),
        slow=st.floats(0.02, 1.0),
    )
    def test_rows_match_single_condition_solves(self, seed, envelope, n, slow):
        # a slowed W leaves some rows still moving at t_max
        rng = np.random.default_rng(seed)
        p, q = 3, 2
        W = slow * random_stable_w(rng, p)
        m = simple_model(W, B=rng.normal(size=(p, q)), eps=rng.uniform(0.5, 2.0, p),
                         envelope=envelope, clip_bound=0.5)
        D = rng.uniform(0.0, 2.0, (n, q)) * (rng.uniform(size=(n, 1)) < 0.8)
        assert_rows_match_single_solves(m, D, tol=1e-8, t_max=20.0, dt=0.05)

    def test_mixed_batch_settled_unsettled_and_at_rest(self):
        m = simple_model(np.diag([-1.0, -0.001]))
        D = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        res = assert_rows_match_single_solves(m, D, tol=1e-8, t_max=30.0, dt=0.05)
        assert res.converged.tolist() == [True, False, True]
        assert 0.0 < res.t_reached[0] < 30.0
        assert res.t_reached[1] >= 30.0
        assert res.t_reached[2] == 0.0

    def test_require_converged_names_first_unsettled_row(self):
        m = simple_model(np.diag([-1.0, -0.001]))
        res = steady_states(m, [[1.0, 0.0], [0.0, 1.0]], t_max=30.0)
        with pytest.raises(NonConvergenceError, match="condition cond_b"):
            res.require_converged(["cond_a", "cond_b"])
        with pytest.raises(NonConvergenceError, match="condition row 1"):
            res.require_converged()

    def test_divergence_raised_with_time(self):
        m = simple_model(np.eye(2) * 5.0)
        with pytest.raises(DivergenceError) as exc:
            steady_states(m, [[0.0, 0.0], [1.0, 0.0]], dt=0.5)
        assert exc.value.time is not None

    def test_bad_arguments(self):
        m = simple_model(-np.eye(2))
        with pytest.raises(ValueError):
            steady_states(m, [[1.0, 0.0]], dt=0.0)
        with pytest.raises(DimensionError):
            steady_states(m, [[1.0, 0.0, 0.0]])
        with pytest.raises(DimensionError):
            steady_state(m, [1.0, 0.0], x0=[0.0])


class TestTrajectory:
    def test_times_must_increase(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0, 1.0]), np.zeros((3, 2)))

    def test_final_state(self):
        traj = Trajectory(np.array([0.0, 1.0]), np.array([[0.0], [2.5]]))
        assert traj.final_state[0] == 2.5
