"""Forward integration of the causal interaction dynamics.

The rate of change of response j under constant drug input u = d @ B.T is

    dx_j/dt = eps_j * phi( sum_{i != j} x_i * w_ij + u_j ) + w_jj * x_j

where phi is a saturating envelope (identity, clipped linear, or tanh
sigmoid) and the diagonal of W carries the (negative) self-decay.  With the
identity envelope and eps = 1 this is the linear system dx/dt = x @ W + u
whose steady state matches the closed form in :mod:`perturbpred.linear`.

Integration is fixed-step RK4: the systems of interest are small and
non-stiff, and a deterministic step sequence keeps tests reproducible.
``steady_states`` integrates a whole batch of conditions from rest in
lockstep and stops each row on its own at the first step where the rate
falls below tolerance; ``steady_state`` is its one-condition form.

Given starting states (a ``guess``, typically the steady states of a nearby
model), ``steady_states`` instead solves dx/dt = 0 by batched Newton steps
alone, the equilibrium view of the CellBox dynamics (Yuan et al. 2021; Bai
et al. 2019).  A Newton row is accepted only with a stability certificate:
every eigenvalue of its Jacobian has a negative real part and lies inside
RK4's stability region at the caller's step, so RK4 would settle there too.
Rows without one are reported unconverged, not integrated; the caller
decides what to do with them.  A certificate does not prove that the
equilibrium is the one reached from rest; the fit checks that once at its
end, by a contraction certificate where the fitted dynamics contract with
enough margin and by RK4 from rest everywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionError, DivergenceError, NonConvergenceError
from .linear import _rcond
from .types import RCOND_MIN, InteractionMatrix, TargetMap, W_FORM

DEFAULT_DT = 0.01
DEFAULT_T_MAX = 200.0
DEFAULT_TOL = 1e-8
NEWTON_MAX_ITER = 20  # Newton steps per row before it is reported unconverged

ENVELOPES = ("identity", "clipped-linear", "sigmoid")


@dataclass(frozen=True)
class OdeModel:
    """Interaction matrix, saturation rates, envelope choice, and target map."""

    W: InteractionMatrix
    B: TargetMap
    epsilon: np.ndarray
    envelope: str = "identity"
    clip_bound: float = 10.0

    def __post_init__(self):
        if self.W.form != W_FORM:
            raise ValueError("OdeModel requires a W-form interaction matrix")
        eps = np.array(self.epsilon, dtype=float)
        if eps.ndim == 0:
            eps = np.full(self.W.size, float(eps))
        if eps.shape != (self.W.size,):
            raise DimensionError(
                f"epsilon must have length {self.W.size}, got shape {eps.shape}"
            )
        if np.any(eps <= 0):
            raise ValueError("epsilon entries must be positive")
        eps.setflags(write=False)
        object.__setattr__(self, "epsilon", eps)
        if self.envelope not in ENVELOPES:
            raise ValueError(f"unknown envelope {self.envelope!r}; choose from {ENVELOPES}")
        if self.envelope == "clipped-linear" and self.clip_bound <= 0:
            raise ValueError("clip_bound must be positive")
        if self.B.n_responses != self.W.size:
            raise DimensionError(
                f"target map has {self.B.n_responses} responses, W is {self.W.size}x{self.W.size}"
            )

    @property
    def size(self):
        return self.W.size


@dataclass(frozen=True)
class Trajectory:
    """Sampled states of one integration: times (hours) and m x p states."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        s = np.asarray(self.states, dtype=float)
        if np.any(np.diff(t) <= 0):
            raise ValueError("trajectory times must be strictly increasing")
        if not np.all(np.isfinite(s)):
            raise ValueError("trajectory states must be finite")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", s)

    @property
    def final_state(self):
        return self.states[-1]


def _envelope(envelope, bound):
    """The envelope phi and its slope phi', each as a one-argument function."""
    if envelope == "identity":
        return (lambda v: v), np.ones_like
    if envelope == "clipped-linear":
        return (
            lambda v: np.clip(v, -bound, bound),
            lambda v: (np.abs(v) < bound).astype(float),
        )
    return np.tanh, lambda v: 1.0 - np.tanh(v) ** 2


def _rate_function(model: OdeModel, ndim: int):
    """dx/dt as a function of (states, drives) of rank ndim: 1 for one
    condition, 2 for rows of conditions.

    The envelope is looked up once here rather than on every evaluation, and
    the per-response coefficients are shaped like one state so the products
    do not broadcast: the steady-state loop calls this four times per RK4
    step, and on small systems those per-call costs are its whole cost.
    """
    W = model.W.values
    W_off = W - np.diag(np.diag(W))
    shape = (1,) * (ndim - 1) + (model.size,)
    diag = np.diag(W).reshape(shape)
    eps = model.epsilon.reshape(shape)
    phi, _ = _envelope(model.envelope, model.clip_bound)

    def rate(x, u):
        s = np.dot(x, W_off)
        s += u
        r = phi(s)
        r *= eps
        r += diag * x
        return r

    return rate


def _drives(model: OdeModel, D):
    """Constant drug input u = B d for each row d of the n x q dose array D."""
    D = np.asarray(D, dtype=float)
    if D.ndim != 2 or D.shape[1] != model.B.n_drugs:
        raise DimensionError(
            f"dose rows must have length {model.B.n_drugs}, got shape {D.shape}"
        )
    return D @ model.B.values.T


def make_rhs(model: OdeModel, d):
    """Right-hand side closure for a fixed dose vector d."""
    d = np.asarray(d, dtype=float)
    if d.shape != (model.B.n_drugs,):
        raise DimensionError(
            f"dose vector must have length {model.B.n_drugs}, got shape {d.shape}"
        )
    u = model.B.values @ d
    rate = _rate_function(model, 1)
    return lambda x: rate(x, u)


def integrate(model: OdeModel, d, t_end=50.0, dt=DEFAULT_DT) -> Trajectory:
    """Fixed-step RK4 integration from rest to t_end.

    Raises DivergenceError with the offending time if the state leaves the
    finite range (blow-up under an unstable W).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    rhs = make_rhs(model, d)
    x = np.zeros(model.size)

    n_steps = int(np.ceil(t_end / dt))
    times = [0.0]
    states = [x.copy()]
    t = 0.0
    # overflow on the way to a blow-up is reported as DivergenceError below
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_steps):
            h = min(dt, t_end - t)
            k1 = rhs(x)
            k2 = rhs(x + 0.5 * h * k1)
            k3 = rhs(x + 0.5 * h * k2)
            k4 = rhs(x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += h
            if not np.all(np.isfinite(x)):
                raise DivergenceError(f"trajectory diverged at t = {t:g}", time=t)
            times.append(t)
            states.append(x.copy())
    return Trajectory(np.array(times), np.array(states))


@dataclass(frozen=True)
class SteadyStateResult:
    """Final state of a run-to-equilibrium integration."""

    state: np.ndarray
    converged: bool
    t_reached: float
    rate_norm: float


@dataclass(frozen=True)
class SteadyStates:
    """Final states of a batch of run-to-equilibrium solves.

    Row k of ``states`` and entry k of the other arrays belong to dose row k.
    ``t_reached`` is NaN on every row of a Newton solve; there ``converged``
    means that Newton certified the row.
    """

    states: np.ndarray
    converged: np.ndarray
    t_reached: np.ndarray
    rate_norm: np.ndarray

    def require_converged(self, names=None):
        """The states, or NonConvergenceError naming the first unsettled row."""
        bad = np.flatnonzero(~self.converged)
        if bad.size:
            k = bad[0]
            name = names[k] if names is not None else f"row {k}"
            t = self.t_reached[k]
            where = ", not certified by Newton" if np.isnan(t) else f" at t = {t:g}"
            raise NonConvergenceError(
                f"steady state did not converge for condition {name} "
                f"(max |dx/dt| = {self.rate_norm[k]:.3g}{where})"
            )
        return self.states


def steady_states(
    model: OdeModel,
    D,
    tol: float = DEFAULT_TOL,
    t_max: float = DEFAULT_T_MAX,
    dt: float = DEFAULT_DT,
    guess=None,
) -> SteadyStates:
    """Solve every dose row of D for the steady state its rate settles at.

    Without a guess, all rows are integrated from rest in lockstep with the
    same fixed RK4 steps; a row stops at the first step where
    max|dx/dt| < tol, or at t_max.  Non-convergence is reported per row
    rather than raised: callers fitting parameters want the partial states
    to decide how to backtrack.  A non-finite state raises DivergenceError
    with the time it appeared.

    With a guess (n x p starting states), each row takes Newton steps
    x <- x - J(x)^-1 dx/dt from its guess until max|dx/dt| < tol, and is
    accepted there only if every eigenvalue lam of its Jacobian J has
    Re lam < 0 and |R(dt lam)| < 1, R being RK4's amplification factor.  A
    row that does not get there within NEWTON_MAX_ITER steps, turns
    non-finite, meets a singular Jacobian or fails that certificate is
    reported unconverged; t_max is unused and nothing is integrated.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if dt <= 0:
        raise ValueError("dt must be positive")
    u = _drives(model, D)
    n, p = u.shape
    if guess is None:
        states, t_reached, rate_norm = _integrate_rows(model, u, tol, t_max, dt)
        return SteadyStates(states, rate_norm < tol, t_reached, rate_norm)
    x = np.array(guess, dtype=float)
    if x.shape != (n, p):
        raise DimensionError(f"guess must have shape {(n, p)}, got {x.shape}")
    states, rate_norm, certified = _newton_rows(model, x, u, tol, dt)
    return SteadyStates(states, certified, np.full(n, np.nan), rate_norm)


def _integrate_rows(model: OdeModel, u, tol, t_max, dt):
    """RK4 from rest under drives u, each row until it settles or t_max.

    Returns (states, t_reached, rate_norm) per row.
    """
    rate = _rate_function(model, 2)
    x = np.zeros_like(u)
    states = np.empty_like(u)
    t_reached = np.empty(len(u))
    rate_norm = np.empty(len(u))
    rows = np.arange(len(u))  # rows still integrating, aligned with x and u
    t = 0.0
    k1 = rate(x, u)  # rate at the current states, doubles as RK4's k1
    # overflow on the way to a blow-up is reported as DivergenceError below
    with np.errstate(over="ignore", invalid="ignore"):
        while rows.size:
            norm = np.abs(k1).max(axis=1)
            if t >= t_max or norm.min() < tol:
                stop = (norm < tol) | (t >= t_max)
                done = rows[stop]
                states[done] = x[stop]
                t_reached[done] = t
                rate_norm[done] = norm[stop]
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
            if not np.isfinite(x).all():
                raise DivergenceError(f"trajectory diverged at t = {t:g}", time=t)
            k1 = rate(x, u)
    return states, t_reached, rate_norm


def _newton_rows(model: OdeModel, x, u, tol, dt):
    """Batched Newton steps on dx/dt = 0 from states x under drives u.

    Returns (states, rate_norm, certified) per row; a row that is not
    certified keeps whatever states it stopped at.
    """
    n = len(x)
    states = x.copy()
    rate_norm = np.full(n, np.inf)
    certified = np.zeros(n, dtype=bool)
    diag = np.diag(model.W.values)
    rows = np.arange(n)  # rows still iterating, aligned with x and u
    # a step may overshoot to inf; such rows are dropped below
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(NEWTON_MAX_ITER + 1):
            phi, gain, J = _linearize(model, x, u)
            f = model.epsilon * phi + diag * x
            norm = np.abs(f).max(axis=1)
            done = norm < tol
            if done.any():
                states[rows[done]] = x[done]
                rate_norm[rows[done]] = norm[done]
                certified[rows[done]] = _stability_certificate(J[done], dt)
            keep = ~done & np.isfinite(f).all(axis=1)
            if it == NEWTON_MAX_ITER or not keep.any():
                break
            keep[keep] = _rcond(J[keep]) >= RCOND_MIN
            rows, x, u, f, J = rows[keep], x[keep], u[keep], f[keep], J[keep]
            if not rows.size:
                break
            x = x - np.linalg.solve(J, f[:, :, None])[:, :, 0]
    return states, rate_norm, certified


def _stability_certificate(J, dt):
    """Per Jacobian of the stack J: every eigenvalue lam has Re lam < 0 and
    RK4's amplification |R(dt lam)| < 1, R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24."""
    z = dt * np.linalg.eigvals(J)
    amplification = 1.0 + z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))
    return np.all((z.real < 0.0) & (np.abs(amplification) < 1.0), axis=-1)


def steady_state(
    model: OdeModel,
    d,
    tol: float = DEFAULT_TOL,
    t_max: float = DEFAULT_T_MAX,
    dt: float = DEFAULT_DT,
) -> SteadyStateResult:
    """Integrate one dose vector d until max|dx/dt| < tol or t_max is hit.

    The one-row form of :func:`steady_states`; non-convergence is reported
    in the result rather than raised.
    """
    d = np.asarray(d, dtype=float)
    if d.shape != (model.B.n_drugs,):
        raise DimensionError(
            f"dose vector must have length {model.B.n_drugs}, got shape {d.shape}"
        )
    res = steady_states(model, d[None, :], tol=tol, t_max=t_max, dt=dt)
    return SteadyStateResult(
        res.states[0], bool(res.converged[0]), float(res.t_reached[0]), float(res.rate_norm[0])
    )


def _linearize(model: OdeModel, x, u):
    """phi(s), eps * phi'(s) and the Jacobians of dx/dt at states x under
    drives u, where s = x W_off + u; one row (one p x p Jacobian) per row of x.

    The Jacobian of row k is J_k = diag(eps * phi'(s_k)) W_off^T + diag(w_jj).
    """
    W = model.W.values
    diag = np.diag(W)
    W_off = W - np.diag(diag)
    s = x @ W_off + u
    phi, slope = _envelope(model.envelope, model.clip_bound)
    gain = model.epsilon * slope(s)
    return phi(s), gain, gain[:, :, None] * W_off.T + np.diag(diag)


def linearize(model: OdeModel, D, states):
    """phi(s), eps * phi'(s) and the Jacobians J_k of dx/dt at the states of
    the dose rows of D, s = x W_off + B d: what linearizing the dynamics at a
    steady state needs.  J_k = diag(eps * phi'(s_k)) W_off^T + diag(w_jj).
    """
    return _linearize(model, states, _drives(model, D))
