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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionError, DivergenceError, NonConvergenceError
from .types import InteractionMatrix, TargetMap, W_FORM

DEFAULT_DT = 0.01
DEFAULT_T_MAX = 200.0
DEFAULT_TOL = 1e-8

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


def _apply_envelope(v, envelope, bound):
    return _envelope(envelope, bound)[0](v)


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


def integrate(model: OdeModel, d, x0=None, t_end=50.0, dt=DEFAULT_DT) -> Trajectory:
    """Fixed-step RK4 integration from x0 (default 0) to t_end.

    Raises DivergenceError with the offending time if the state leaves the
    finite range (blow-up under an unstable W).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    rhs = make_rhs(model, d)
    p = model.size
    x = np.zeros(p) if x0 is None else np.array(x0, dtype=float)
    if x.shape != (p,):
        raise DimensionError(f"x0 must have length {p}, got shape {x.shape}")

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
    """Final states of a batch of run-to-equilibrium integrations.

    Row k of ``states`` and entry k of the other arrays belong to dose row k.
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
            raise NonConvergenceError(
                f"steady state did not converge for condition {name} "
                f"(max |dx/dt| = {self.rate_norm[k]:.3g} at t = {self.t_reached[k]:g})"
            )
        return self.states


def steady_states(
    model: OdeModel,
    D,
    tol: float = DEFAULT_TOL,
    t_max: float = DEFAULT_T_MAX,
    dt: float = DEFAULT_DT,
    x0=None,
) -> SteadyStates:
    """Integrate every dose row of D from rest until its rate settles.

    All rows advance in lockstep with the same fixed RK4 steps; a row stops
    at the first step where max|dx/dt| < tol, or at t_max.  Non-convergence
    is reported per row rather than raised: callers fitting parameters want
    the partial states to decide how to backtrack.  A non-finite state raises
    DivergenceError with the time it appeared.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if dt <= 0:
        raise ValueError("dt must be positive")
    u = _drives(model, D)
    n, p = u.shape
    x = np.zeros((n, p)) if x0 is None else np.array(x0, dtype=float)
    if x.shape != (n, p):
        raise DimensionError(f"x0 must have shape {(n, p)}, got {x.shape}")
    rate = _rate_function(model, 2)

    states = np.empty((n, p))
    t_reached = np.empty(n)
    rate_norm = np.empty(n)
    rows = np.arange(n)  # rows still integrating, aligned with x and u
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
    return SteadyStates(states, rate_norm < tol, t_reached, rate_norm)


def steady_state(
    model: OdeModel,
    d,
    tol: float = DEFAULT_TOL,
    t_max: float = DEFAULT_T_MAX,
    dt: float = DEFAULT_DT,
    x0=None,
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
    p = model.size
    if x0 is not None:
        x0 = np.array(x0, dtype=float)
        if x0.shape != (p,):
            raise DimensionError(f"x0 must have length {p}, got shape {x0.shape}")
        x0 = x0[None, :]
    res = steady_states(model, d[None, :], tol=tol, t_max=t_max, dt=dt, x0=x0)
    return SteadyStateResult(
        res.states[0], bool(res.converged[0]), float(res.t_reached[0]), float(res.rate_norm[0])
    )


def envelope_terms(model: OdeModel, D, states):
    """phi(s) and phi'(s) at the drives s = x W_off + B d, one row per condition.

    These are what linearizing the dynamics at a steady state needs: the
    Jacobian of condition k is diag(eps * phi'(s_k)) W_off^T + diag(w_jj).
    """
    W = model.W.values
    s = states @ (W - np.diag(np.diag(W))) + _drives(model, D)
    phi, slope = _envelope(model.envelope, model.clip_bound)
    return phi(s), slope(s)
