import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from perturbpred.errors import DimensionError, DivergenceError, NonConvergenceError
from perturbpred.linear import dag_to_w, predict_causal_linear
from perturbpred.ode import (
    ENVELOPES,
    OdeModel,
    Trajectory,
    _envelope,
    integrate,
    make_rhs,
    steady_state,
    steady_states,
)
from perturbpred.types import ConditionMatrix, InteractionMatrix, TargetMap

from conftest import continuation_instance, random_stable_w


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

    def test_divergence_raises_without_overflow_warnings(self):
        m = simple_model(np.eye(2) * 5.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DivergenceError):
                integrate(m, [1.0, 0.0], t_end=200.0, dt=0.5)

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


    @staticmethod
    def _plain_rk4(model, d, steps):
        """States of classical RK4 from rest on make_rhs, one step of each
        size in steps."""
        rhs = make_rhs(model, d)
        x = np.zeros(model.size)
        states = [x]
        for h in steps:
            k1 = rhs(x)
            k2 = rhs(x + 0.5 * h * k1)
            k3 = rhs(x + 0.5 * h * k2)
            k4 = rhs(x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            states.append(x)
        return np.array(states)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(dt=st.sampled_from([0.01, 0.03, 0.05, 0.07, 0.1, 0.2, 0.3]),
           k=st.integers(1, 399),
           part=st.one_of(st.just(0.0), st.floats(0.01, 0.99)))
    @example(dt=0.01, k=7, part=0.0)
    @example(dt=0.01, k=14, part=0.0)
    @example(dt=0.01, k=111, part=0.0)
    @example(dt=0.3, k=7, part=0.0)
    def test_steps_of_dt_end_at_t_end(self, dt, k, part):
        # t_end = (k + part) dt: k steps of dt when part is 0, up to the
        # rounding of t_end, else k steps of dt and one of part dt; the times
        # are j dt, the last t_end.  t_end 0.07, 1.11 and 2.1 (dt 0.3) raised
        # on times that were not increasing, and 0.14 took a 2.8e-17 step
        t_end = round((k + part) * dt, 10)
        m = simple_model(np.array([[-1.0, 0.5], [0.2, -2.0]]), envelope="sigmoid")
        traj = integrate(m, [1.0, 0.5], t_end=t_end, dt=dt)
        n_steps = k + (part > 0.0)
        np.testing.assert_array_equal(traj.times, np.append(np.arange(n_steps) * dt, t_end))
        last = t_end - traj.times[-2]
        if part > 0.0:
            assert last == pytest.approx(part * dt, rel=1e-6)
        else:
            assert last == pytest.approx(dt, rel=1e-9)
        h = np.diff(traj.times)
        h[:-1] = dt
        np.testing.assert_array_equal(traj.states, self._plain_rk4(m, [1.0, 0.5], h))

    def test_default_run_ends_at_fifty(self):
        traj = integrate(simple_model(-np.eye(2)), [1.0, 0.0])
        assert len(traj.times) == 5001
        assert traj.times[-1] == 50.0


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
        out = _envelope("clipped-linear", 10.0)[0](v)
        assert np.array_equal(out, [-10.0, -5.0, 0.0, 5.0, 10.0])

    def test_all_envelopes_nondecreasing(self):
        grid = np.linspace(-20.0, 20.0, 401)
        for env in ENVELOPES:
            vals = _envelope(env, 10.0)[0](grid)
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


def reference_batched_steady_states(model, D, tol, t_max, dt):
    """The batched RK4 loop from rest as it stood before the Newton solver,
    kept as an oracle: the paths without a guess must match it bit for bit."""
    W = model.W.values
    W_off = W - np.diag(np.diag(W))
    diag = np.diag(W).reshape(1, -1)
    eps = model.epsilon.reshape(1, -1)
    phi = _envelope(model.envelope, model.clip_bound)[0]

    def rate(x, u):
        s = np.dot(x, W_off)
        s += u
        r = phi(s)
        r *= eps
        r += diag * x
        return r

    u = np.asarray(D, dtype=float) @ model.B.values.T
    n, p = u.shape
    x = np.zeros((n, p))
    states, t_reached, rate_norm = np.empty((n, p)), np.empty(n), np.empty(n)
    rows = np.arange(n)
    t = 0.0
    k1 = rate(x, u)
    while rows.size:
        norm = np.abs(k1).max(axis=1)
        if t >= t_max or norm.min() < tol:
            stop = (norm < tol) | (t >= t_max)
            done = rows[stop]
            states[done], t_reached[done], rate_norm[done] = x[stop], t, norm[stop]
            keep = ~stop
            rows, x, u, k1 = rows[keep], x[keep], u[keep], k1[keep]
            if not rows.size:
                break
        h = min(dt, t_max - t)
        k2 = rate(x + 0.5 * h * k1, u)
        k3 = rate(x + 0.5 * h * k2, u)
        k4 = rate(x + h * k3, u)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
        k1 = rate(x, u)
    return states, t_reached, rate_norm


def certified_equilibrium(model, d, x, tol, dt):
    """Whether x is an equilibrium of dose d (max|dx/dt| < tol) whose
    Jacobian's eigenvalues all have negative real part and lie in RK4's
    stability region at dt; computed here from the model's definition."""
    W = model.W.values
    W_off = W - np.diag(np.diag(W))
    s = x @ W_off + model.B.values @ d
    phi, slope = _envelope(model.envelope, model.clip_bound)
    rate = model.epsilon * phi(s) + np.diag(W) * x
    J = np.diag(model.epsilon * slope(s)) @ W_off.T + np.diag(np.diag(W))
    z = dt * np.linalg.eigvals(J)
    R = 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24
    return np.max(np.abs(rate)) < tol and np.all(z.real < 0) and np.all(np.abs(R) < 1)


class TestNewtonSteadyStates:
    TOL, T_MAX, DT = 1e-8, 100.0, 0.05

    def solve(self, model, D, guess=None, dt=DT):
        return steady_states(model, D, tol=self.TOL, t_max=self.T_MAX, dt=dt, guess=guess)

    # seeds 28 and 385 are the two of 3,000 (4,265 clipped-linear rows) on
    # which Newton settles one clipped-linear row on another equilibrium
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    @example(seed=28)
    @example(seed=385)
    def test_newton_continues_the_branch_reached_from_rest(self, seed):
        # continuation from the steady states at W to those at a nearby W
        model_at, W, W_near, D = continuation_instance(seed)
        try:
            guess = self.solve(model_at(W), D).require_converged()
            rest = self.solve(model_at(W_near), D)
        except (DivergenceError, NonConvergenceError):
            assume(False)
        assume(rest.converged.all())
        res = self.solve(model_at(W_near), D, guess=guess)
        assert np.isnan(res.t_reached).all()
        for k in range(len(D)):
            certified = certified_equilibrium(
                model_at(W_near), D[k], res.states[k], self.TOL, self.DT
            )
            assert certified == res.converged[k]  # uncertified: reported, not integrated
            if not certified:
                continue
            if model_at(W).envelope != "clipped-linear":
                # one equilibrium within reach: Newton and RK4 agree
                assert np.max(np.abs(res.states[k] - rest.states[k])) <= 1e-6

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        envelope=st.sampled_from(ENVELOPES),
        n=st.integers(1, 6),
        slow=st.floats(0.02, 1.0),
    )
    def test_paths_without_a_guess_unchanged_bit_for_bit(self, seed, envelope, n, slow):
        rng = np.random.default_rng(seed)
        p, q = 3, 2
        m = simple_model(slow * random_stable_w(rng, p), B=rng.normal(size=(p, q)),
                         eps=rng.uniform(0.5, 2.0, p), envelope=envelope, clip_bound=0.5)
        D = rng.uniform(0.0, 2.0, (n, q)) * (rng.uniform(size=(n, 1)) < 0.8)
        res = steady_states(m, D, tol=1e-8, t_max=20.0, dt=0.05)
        states, t_reached, rate_norm = reference_batched_steady_states(m, D, 1e-8, 20.0, 0.05)
        assert np.array_equal(res.states, states)
        assert np.array_equal(res.t_reached, t_reached)
        assert np.array_equal(res.rate_norm, rate_norm)
        one = steady_state(m, D[0], tol=1e-8, t_max=20.0, dt=0.05)
        first = reference_batched_steady_states(m, D[:1], 1e-8, 20.0, 0.05)[0][0]
        assert np.array_equal(one.state, first)

    def test_unstable_equilibrium_reported_unconverged(self):
        # Newton starts on the unstable equilibrium itself; only the
        # certificate keeps it from being accepted, and nothing is integrated
        m = simple_model(np.diag([5.0, -1.0]))
        D = np.array([[1.0, 1.0]])
        res = steady_states(m, D, guess=[[-0.2, 1.0]])
        assert not res.converged[0] and np.isnan(res.t_reached[0])
        assert res.rate_norm[0] < 1e-8 and np.array_equal(res.states, [[-0.2, 1.0]])
        with pytest.raises(NonConvergenceError, match="row 0 .* not certified by Newton"):
            res.require_converged()
        with pytest.raises(DivergenceError):
            steady_states(m, D)  # from rest the dynamics blow up

    def test_unstable_equilibrium_inside_rk4_region_falls_back(self):
        # eigenvalues 0.2 +- 50i: the dynamics leave the equilibrium, though
        # dt * lam = 0.01 +- 2.5i lies inside RK4's stability region
        W = np.array([[0.2, 50.0], [-50.0, 0.2]])
        m = simple_model(W)
        D = np.array([[1.0, 0.5]])
        res = self.solve(m, D, guess=-D @ np.linalg.inv(W))
        assert res.rate_norm[0] < self.TOL
        assert not res.converged.any() and np.isnan(res.t_reached).all()

    def test_stiff_equilibrium_outside_rk4_region_falls_back(self):
        # eigenvalue -100: stable, but dt * -100 = -5 is outside RK4's region
        # at dt = 0.05 and inside it at dt = 0.01
        m = simple_model(np.diag([-100.0, -1.0]))
        D = np.array([[0.0, 1.0], [0.0, 2.0]])  # the stiff node is never driven
        guess = [[0.0, 1.0], [0.0, 2.0]]
        stiff = self.solve(m, D, guess=guess)
        assert not stiff.converged.any()
        assert np.isnan(stiff.t_reached).all()
        assert np.array_equal(stiff.states, guess)
        fine = self.solve(m, D, guess=guess, dt=0.01)
        assert fine.converged.all()
        assert np.isnan(fine.t_reached).all()
        assert np.array_equal(fine.states, guess)

    def test_singular_jacobian_row_falls_back_alone(self):
        # node 2 has no self-decay; where node 2's drive is clipped its rate
        # has zero slope in every state, so that row's Jacobian is singular
        m = simple_model(np.array([[-1.0, -1.0], [1.0, 0.0]]), envelope="clipped-linear",
                         clip_bound=1.5)
        D = np.array([[0.2, 0.3], [0.1, 0.4], [0.3, 0.2]])
        rest = self.solve(m, D)
        guess = rest.states.copy()
        guess[:, 1] += 1e-3  # off the equilibrium, so Newton must step
        guess[1] = [5.0, 0.0]  # node 2's drive -5 + 0.4 is clipped
        res = self.solve(m, D, guess=guess)
        assert res.converged.tolist() == [True, False, True]
        assert np.isnan(res.t_reached).all()
        alone = self.solve(m, D[[0, 2]], guess=guess[[0, 2]])
        assert alone.converged.all()
        assert np.array_equal(res.states[[0, 2]], alone.states)
        assert np.max(np.abs(res.states[[0, 2]] - rest.states[[0, 2]])) <= 1e-6

    def test_guess_arguments(self):
        m = simple_model(-np.eye(2))
        with pytest.raises(DimensionError, match="guess"):
            steady_states(m, [[1.0, 0.0]], guess=[0.0, 0.0])


class TestTrajectory:
    def test_times_must_increase(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0, 1.0]), np.zeros((3, 2)))

    def test_final_state(self):
        traj = Trajectory(np.array([0.0, 1.0]), np.array([[0.0], [2.5]]))
        assert traj.final_state[0] == 2.5
