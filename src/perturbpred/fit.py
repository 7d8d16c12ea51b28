"""Model fitting: penalized regression and penalized causal interaction fits.

Three fitters live here:

* ``fit_regression`` solves ||X - D R||_F^2 + lambda ||R||_1 exactly
  (least squares by QR) when lambda = 0 and by per-column coordinate
  descent otherwise.
* ``fit_causal_linear`` minimizes ||X - D B^T (-inv(W))||_F^2 plus an L1
  penalty on the off-diagonal of W by accelerated proximal gradient (FISTA)
  with backtracking, restarting the momentum whenever a step would raise
  the objective; the loss is nonconvex in W with a singular set at
  det W = 0, so a candidate step that lands near it is rejected.
* ``fit_causal_ode`` fits the nonlinear dynamics by gradient descent.  Each
  loss evaluation is one batched steady-state solve over all conditions by
  Newton steps, from rest at a contracting start and from the last accepted
  iterate's states for each candidate; RK4 from rest solves only any other
  start and checks the end.  The gradient is exact: the implicit function
  theorem at the reached states gives one p x p adjoint solve per condition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DimensionError, DivergenceError, NonConvergenceError, SingularMatrixError
from .linear import _rcond, safe_inverse
# steady_state stays bound here: perfbench's tracer checks it is patched in this module
from .ode import OdeModel, linearize, steady_state, steady_states  # noqa: F401
from .types import (
    RCOND_MIN,
    W_FORM,
    ConditionMatrix,
    EdgeMask,
    InteractionMatrix,
    RegressionCoefficients,
    ResponseMatrix,
    TargetMap,
    check_paired,
)


@dataclass(frozen=True)
class FitConfig:
    """What a command sets for a fit: the L1 weight lam, the iteration cap
    max_iter, the stopping tolerance tol and an edge mask.  w_init is the
    starting W, which the model families fill with their warm or cold start.
    The step rule is not a setting: each fitter has one, in its docstring.
    """

    lam: float = 0.0
    max_iter: int = 10000
    tol: float = 1e-8
    mask: Optional[EdgeMask] = None
    w_init: Optional[InteractionMatrix] = None

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lambda must be nonnegative")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


@dataclass(frozen=True)
class FitReport:
    """Outcome of one fit: final objective, iteration count, trace, notes."""

    final_objective: float
    iterations: int
    converged: bool
    objective_trace: np.ndarray
    status: tuple = field(default=())

    def __post_init__(self):
        object.__setattr__(
            self, "objective_trace", np.asarray(self.objective_trace, dtype=float)
        )

    def to_dict(self):
        return {
            "final_objective": self.final_objective,
            "iterations": self.iterations,
            "converged": self.converged,
            "objective_trace": self.objective_trace.tolist(),
            "status": list(self.status),
        }


def soft_threshold(x, thr):
    """Closed-form proximal operator of thr * |.|: shrink toward 0 by thr."""
    return np.sign(x) * np.maximum(np.abs(x) - thr, 0.0)


# ---------------------------------------------------------------------------
# regression


def _lstsq_stack(A, Y):
    """Least-squares solutions of a stack of systems A_f M_f = Y_f.

    A is (F, n, k) and Y is (F, n, m).  Returns (M, rank): M is (F, k, m),
    solved by QR where A_f has full column rank and NaN elsewhere, and rank
    holds np.linalg.matrix_rank of each A_f.  Every LAPACK call works on one
    small fold at a time, so nothing here becomes a large threaded product.
    """
    k = A.shape[2]
    rank = np.linalg.matrix_rank(A)
    M = np.full((A.shape[0], k, Y.shape[2]), np.nan)
    full = rank == k
    if np.any(full):
        Q, R = np.linalg.qr(A[full])
        M[full] = np.linalg.solve(R, np.swapaxes(Q, 1, 2) @ Y[full])
    return M, rank


def fit_regression_stack(D, X, drug_names):
    """Unpenalized regression of a stack of folds: D is (F, n, q), X (F, n, p).

    Returns (R, reports): the (F, q, p) coefficients and one FitReport per
    fold.  The first rank-deficient fold raises SingularMatrixError naming
    its all-zero design columns, or every column when the deficiency comes
    from collinearity (the leave-one-drug-out pathology).
    """
    R, rank = _lstsq_stack(D, X)
    deficient = np.flatnonzero(rank < D.shape[2])
    if deficient.size:
        used = np.any(D[deficient[0]], axis=0)
        bad = [name for name, u in zip(drug_names, used) if not u] or list(drug_names)
        raise SingularMatrixError(
            "unregularized regression has no unique solution; deficient "
            f"design columns: {', '.join(bad)}"
        )
    resid = X - D @ R
    objectives = np.sum(resid * resid, axis=(1, 2))
    return R, [FitReport(float(obj), 1, True, [obj]) for obj in objectives]


def regression_objective(D, X, R, lam):
    resid = X - D @ R
    return float(np.sum(resid * resid) + lam * np.sum(np.abs(R)))


def fit_regression(
    D: ConditionMatrix, X: ResponseMatrix, cfg: FitConfig = FitConfig()
):
    """Penalized multivariate regression of responses on drug doses.

    lambda = 0 is the one-fold case of :func:`fit_regression_stack` and
    errors on a rank-deficient design.  lambda > 0 runs cyclic coordinate
    descent independently per response column.
    """
    check_paired(D, X)
    Dv, Xv = D.values, X.values
    q = Dv.shape[1]

    if cfg.lam == 0.0:
        R, reports = fit_regression_stack(Dv[None], Xv[None], D.drug_names)
        return RegressionCoefficients(R[0]), reports[0]

    # one layout, so equal inputs give equal column dot products
    Dv = np.asfortranarray(Dv)
    col_sq = np.sum(Dv * Dv, axis=0)
    R = np.zeros((q, Xv.shape[1]))
    trace = [regression_objective(Dv, Xv, R, cfg.lam)]
    converged = True
    total_sweeps = 0
    for col in range(Xv.shape[1]):
        x = Xv[:, col]
        r = R[:, col]
        resid = x - Dv @ r
        for sweep in range(cfg.max_iter):
            max_delta = 0.0
            for k in range(q):
                if col_sq[k] == 0.0:
                    continue
                old = r[k]
                rho = Dv[:, k] @ resid + col_sq[k] * old
                new = soft_threshold(rho, cfg.lam / 2.0) / col_sq[k]
                if new != old:
                    resid += Dv[:, k] * (old - new)
                    r[k] = new
                    max_delta = max(max_delta, abs(new - old))
            if max_delta < cfg.tol * max(1.0, np.max(np.abs(r))):
                total_sweeps += sweep + 1
                break
        else:
            converged = False
            total_sweeps += cfg.max_iter
        R[:, col] = r
    trace.append(regression_objective(Dv, Xv, R, cfg.lam))
    report = FitReport(trace[-1], total_sweeps, converged, trace)
    return RegressionCoefficients(R), report


def fit_regression_lodo(
    D: ConditionMatrix,
    X: ResponseMatrix,
    held_out_drug: int,
    cfg: FitConfig = FitConfig(),
):
    """Penalized regression with the held-out drug's coefficients forced to 0.

    The held-out drug must be absent from every training condition; its row
    of the coefficient matrix is inserted as zeros after fitting the
    remaining columns at cfg.lam.
    """
    check_paired(D, X)
    q = D.n_drugs
    if not 0 <= held_out_drug < q:
        raise IndexError(f"held_out_drug {held_out_drug} out of range for {q} drugs")
    col = D.values[:, held_out_drug]
    if np.any(col != 0.0):
        raise ValueError(
            f"held-out drug {D.drug_names[held_out_drug]!r} appears in training "
            "conditions; split plan is inconsistent"
        )
    keep = [j for j in range(q) if j != held_out_drug]
    D_red = ConditionMatrix(D.values[:, keep], [D.drug_names[j] for j in keep])
    R_red, report = fit_regression(D_red, X, cfg)
    R = np.insert(R_red.values, held_out_drug, 0.0, axis=0)
    return RegressionCoefficients(R), report


# ---------------------------------------------------------------------------
# causal linear


def causal_loss_and_gradient(W, D: ConditionMatrix, X: ResponseMatrix, B: TargetMap):
    """Smooth Frobenius loss ||X - D B^T (-inv(W))||_F^2 and its gradient in W.

    With C = D B^T and E = X + C inv(W), matrix calculus through the inverse
    gives  grad = -2 (inv(W) E^T C inv(W))^T.
    """
    W = np.asarray(W, dtype=float)
    if _rcond(W) < RCOND_MIN:
        raise SingularMatrixError("W is singular or ill-conditioned in loss evaluation")
    Winv = np.linalg.inv(W)
    C = D.values @ B.values.T
    E = X.values + C @ Winv
    loss = float(np.sum(E * E))
    grad = -2.0 * (Winv @ E.T @ C @ Winv).T
    return loss, grad


def causal_objective(W, D, X, B, lam):
    loss, _ = causal_loss_and_gradient(W, D, X, B)
    return loss + _penalty(W, lam)


def _penalty(W, lam):
    off = W - np.diag(np.diag(W))
    return lam * float(np.sum(np.abs(off)))


def _apply_mask(W, mask):
    if mask is not None:
        W = np.where(mask.allowed, W, 0.0)
    return W


def _initial_w(cfg: FitConfig, p):
    """The fit's starting W: cfg.w_init (which must be W-form) or -I, masked."""
    if cfg.w_init is not None and cfg.w_init.form != W_FORM:
        raise ValueError("w_init must be W-form")
    W = -np.eye(p) if cfg.w_init is None else cfg.w_init.values.copy()
    return _apply_mask(W, cfg.mask)


def _proximal_map(W, grad, step, cfg: FitConfig):
    """W - step * grad with its off-diagonal soft-thresholded by step * lambda
    (the diagonal is unpenalized) and masked-out entries zeroed."""
    W_new = W - step * grad
    shrunk = soft_threshold(W_new, step * cfg.lam)
    np.fill_diagonal(shrunk, W_new.diagonal())
    return _apply_mask(shrunk, cfg.mask)


CLOSED_FORM = "closed-form: w_init is the least-squares minimizer at lambda = 0"

# The first trial step of the causal-linear fit's backtracking line search.
LINEAR_FIRST_STEP = 1.0


def _closed_form_stack(C, X, inits, cfg: FitConfig):
    """The closed-form fit of each fold of a stack, where it holds.

    C is (F, n, p) with each fold's D B^T, X (F, n, p) its responses and
    inits its W-form w_init, given only where C_f has full column rank (None
    elsewhere).  Returns per fold (inv(W_f), FitReport) where the closed
    form holds, else None.  It holds at lambda = 0 with no mask, where
    W_f = w_init passes the rcond screen of safe_inverse and the loss and
    the loss is stationary at W_f by the test :func:`fit_causal_linear`
    describes.
    """
    closed = [None] * len(inits)
    folds = [f for f, init in enumerate(inits) if init is not None]
    if cfg.lam != 0.0 or cfg.mask is not None or not folds:
        return closed
    W = np.array([inits[f].values for f in folds])
    screened = _rcond(W) >= RCOND_MIN
    folds = np.array(folds)[screened]
    Winv = np.linalg.inv(W[screened])
    Cs = C[folds]
    E = X[folds] + Cs @ Winv
    loss = np.sum(E * E, axis=(1, 2))
    grad = -2.0 * np.swapaxes(Winv @ np.swapaxes(E, 1, 2) @ Cs @ Winv, 1, 2)
    gain = LINEAR_FIRST_STEP * np.sum(grad * grad, axis=(1, 2))
    stationary = gain < cfg.tol * np.maximum(1.0, loss)
    for f, inv, obj in zip(folds[stationary], Winv[stationary], loss[stationary].tolist()):
        closed[f] = (inv, FitReport(obj, 0, True, [obj], (CLOSED_FORM,)))
    return closed


def fit_causal_linear(
    D: ConditionMatrix,
    X: ResponseMatrix,
    B: TargetMap,
    cfg: FitConfig = FitConfig(),
):
    """Fit the interaction matrix W by accelerated proximal gradient (FISTA).

    Each iteration extrapolates from the last two iterates to the momentum
    point Y = W + ((t - 1) / t') (W - W_prev), t' = (1 + sqrt(1 + 4 t^2)) / 2
    (Beck & Teboulle 2009).  From Y it takes a gradient step on the smooth
    loss, soft-thresholds the off-diagonal entries by step * lambda (the
    diagonal is unpenalized) and zeroes masked-out entries, backtracking
    whenever the candidate is ill-conditioned or fails the proximal
    sufficient-decrease test at Y.  If Y is singular, no step from Y is
    feasible, or the candidate's penalized objective is above the current
    one, the momentum restarts (t = 1; O'Donoghue & Candes 2015) and the
    iteration takes a plain proximal step from W instead, so the objective
    trace never goes up.  The fit stops when a plain step changes the
    objective by less than tol (relative to max(1, objective)); a momentum
    step that gains that little can still be short of a minimum, so it
    restarts the momentum instead.  Each iteration's first trial step is
    twice the last accepted one, LINEAR_FIRST_STEP at the start.

    At lambda = 0 with no mask, D B^T of full column rank and a w_init at
    which the loss is stationary, w_init is returned unchanged after 0
    iterations.  The loss is then least squares in M = -inv(W), so the
    least-squares warm start is its global minimizer and its gradient is
    round-off.  w_init counts as stationary when step * ||grad||_F^2 <
    tol * max(1, loss) for step = LINEAR_FIRST_STEP: the loss being convex
    about its minimizer, that step could lower it by at most
    step * ||grad||_F^2, so the loop would stop after it, having moved W by
    at most step * ||grad||_F.  This early return is the one-fold case of the
    closed form that :func:`fit_causal_linear_stack` applies to a stack of
    folds.
    """
    check_paired(D, X)
    p = B.n_responses
    if B.n_drugs != D.n_drugs:
        raise DimensionError(
            f"target map has {B.n_drugs} drugs, conditions have {D.n_drugs}"
        )

    status = []
    rank = None
    if cfg.lam == 0.0:
        C = D.values @ B.values.T
        rank = np.linalg.matrix_rank(C)
        if rank < p:
            status.append(
                f"non-unique-solution: rank(D B^T) = {rank} < p = {p}; "
                "unregularized W is not identified"
            )

    W = _initial_w(cfg, p)
    if rank == p and cfg.w_init is not None:
        closed = _closed_form_stack(C[None], X.values[None], [cfg.w_init], cfg)[0]
        if closed is not None:
            return InteractionMatrix(W, form=W_FORM), closed[1]
    if cfg.w_init is not None:
        safe_inverse(cfg.w_init.values, "w_init")

    loss, grad = causal_loss_and_gradient(W, D, X, B)
    obj = loss + _penalty(W, cfg.lam)
    trace = [obj]
    step = LINEAR_FIRST_STEP

    def proximal_step(Y, loss_y, grad_y, step):
        """(W_new, loss_new, grad_new, obj_new, trial) of the accepted step from Y."""
        trial = step
        while trial > 1e-20:
            W_new = _proximal_map(Y, grad_y, trial, cfg)
            try:
                loss_new, grad_new = causal_loss_and_gradient(W_new, D, X, B)
            except SingularMatrixError:
                trial *= 0.5
                continue
            diff = W_new - Y
            quad = loss_y + float(np.sum(grad_y * diff)) + float(np.sum(diff * diff)) / (
                2.0 * trial
            )
            if loss_new <= quad + 1e-12 * max(1.0, abs(loss_y)):
                return W_new, loss_new, grad_new, loss_new + _penalty(W_new, cfg.lam), trial
            trial *= 0.5
        raise NonConvergenceError(
            "no feasible step found (backtracking exhausted near the "
            "singular set of W)"
        )

    W_prev = W
    t = 1.0
    converged = False
    it = 0

    for it in range(1, cfg.max_iter + 1):
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        new = None
        if t > 1.0:
            Y = W + ((t - 1.0) / t_next) * (W - W_prev)
            try:
                new = proximal_step(Y, *causal_loss_and_gradient(Y, D, X, B), step)
            except (SingularMatrixError, NonConvergenceError):
                pass
        momentum = new is not None and new[3] <= obj
        if not momentum:  # (re)start: t = 1, a plain proximal step from W
            new = proximal_step(W, loss, grad, step)
            t_next = (1.0 + np.sqrt(5.0)) / 2.0

        W_new, loss_new, grad_new, obj_new, trial = new
        rel_change = abs(obj - obj_new) / max(1.0, abs(obj))
        W_prev, t = W, t_next
        W, loss, grad, obj = W_new, loss_new, grad_new, obj_new
        trace.append(obj)
        step = trial * 2.0  # cautiously re-grow after a successful step
        if rel_change < cfg.tol:
            if not momentum:
                converged = True
                break
            # a momentum step can gain little far from a minimum; only a
            # plain step's small gain shows W is stationary, so take one next
            t = 1.0

    report = FitReport(obj, it, converged, trace, tuple(status))
    return InteractionMatrix(W, form=W_FORM), report


def least_squares_w_init(D: ConditionMatrix, X: ResponseMatrix, B: TargetMap):
    """Closed-form warm start for the unpenalized causal fit.

    When D B^T has full column rank, the minimizer over M = -inv(W) of
    ||X - D B^T M||_F^2 is ordinary least squares; inverting it back gives a
    W with zero (or noise-level) loss.  Returns None when the least-squares
    route is unavailable or produces a near-singular M.  This is the
    one-fold case of :func:`least_squares_w_init_stack`.
    """
    return least_squares_w_init_stack(D.values[None], X.values[None], B)[0]


def least_squares_w_init_stack(D, X, B: TargetMap):
    """The least-squares warm start of each fold of a stack.

    D is (F, n, q) and X is (F, n, p).  Returns one W-form
    InteractionMatrix per fold, or None where D_f B^T is rank-deficient or
    M_f has rcond below 1e-8.
    """
    C = D @ B.values.T
    M, rank = _lstsq_stack(C, X)
    inits = [None] * len(M)
    full = np.flatnonzero(rank == C.shape[2])
    if full.size:
        keep = full[_rcond(M[full]) >= 1e-8]
        for f, W in zip(keep, -np.linalg.inv(M[keep])):
            inits[f] = InteractionMatrix(W, form=W_FORM)
    return inits


def fit_causal_linear_stack(D, X, B: TargetMap, cfg: FitConfig):
    """Warm starts of a stack of folds, and the closed-form fit where it holds.

    D is (F, n, q) and X is (F, n, p).  Returns (inits, closed): inits as
    :func:`least_squares_w_init_stack` gives them, and per fold (inv(W_f),
    FitReport) where fit_causal_linear from that warm start would return it
    unchanged, else None.  The warm start is None wherever its least-squares
    solve found D_f B^T rank-deficient, so the closed form needs no rank of
    its own; it screens each W_f's rcond once.
    """
    inits = least_squares_w_init_stack(D, X, B)
    return inits, _closed_form_stack(D @ B.values.T, X, inits, cfg)


# ---------------------------------------------------------------------------
# causal ODE


# The steady-state solves of the causal-ODE fit: rate tolerance, horizon and
# RK4 step.
SS_TOL = 1e-7
SS_T_MAX = 100.0
SS_DT = 0.05

# The first trial step of the causal-ODE fit's halving line search.
ODE_FIRST_STEP = 0.1


def causal_ode_loss_and_gradient(
    model: OdeModel,
    D: ConditionMatrix,
    X: ResponseMatrix,
    ss_tol=SS_TOL,
    t_max=SS_T_MAX,
    dt=SS_DT,
):
    """Steady-state squared error and its exact gradients in W and log epsilon.

    The steady states are integrated from rest.  At a steady state x_k of
    condition k, f(x_k; theta) = 0, so the implicit function theorem gives
    dL/dtheta = -lambda_k^T df/dtheta, where lambda_k solves
    J_k^T lambda_k = dL/dx_k = -2 (X_k - x_k) and
    J_k = diag(eps * phi'(s_k)) W_off^T + diag(w_jj) is the Jacobian of f.

    Returns (loss, grad_W, grad_log_eps).  Raises NonConvergenceError when a
    condition's steady state is not reached, SingularMatrixError when its
    Jacobian is singular, and DivergenceError when its trajectory blows up.
    """
    solved = steady_states(model, D.values, tol=ss_tol, t_max=t_max, dt=dt)
    return _loss_and_gradient_at(model, D, X, solved.require_converged())


def _loss_and_gradient_at(model: OdeModel, D: ConditionMatrix, X: ResponseMatrix, states):
    """(loss, grad_W, grad_log_eps) of :func:`causal_ode_loss_and_gradient`
    at given steady states."""
    resid = X.values - states
    loss = float(np.sum(resid * resid))

    phi, gain, J = linearize(model, D.values, states)  # gain: d(eps_j phi(s_kj)) / d s_kj
    rcond = _rcond(J)
    bad = np.flatnonzero(rcond < RCOND_MIN)
    if bad.size:
        raise SingularMatrixError(
            f"steady-state Jacobian of condition row {bad[0]} is singular or "
            f"ill-conditioned (rcond {rcond[bad[0]]:.3g})"
        )
    adj = np.linalg.solve(np.swapaxes(J, 1, 2), (-2.0 * resid)[:, :, None])[:, :, 0]

    grad_W = -states.T @ (adj * gain)  # off-diagonal: df_j/dw_ij = eps_j phi'(s_j) x_i
    np.fill_diagonal(grad_W, -np.sum(adj * states, axis=0))  # df_j/dw_jj = x_j
    grad_log_eps = -np.sum(adj * model.epsilon * phi, axis=0)
    return loss, grad_W, grad_log_eps


BRANCH_TOL = 1e-4  # largest |fitted - from-rest| steady state on the fitted branch


def _contracts(W, eps):
    """Whether w_jj + eps_j sum_{i != j} |w_ij| < 0 for every response j.
    As 0 <= phi' <= 1, every Jacobian's infinity-norm log-norm is then below
    zero: the dynamics contract (Lohmiller & Slotine 1998), and their one
    equilibrium attracts every trajectory."""
    return bool(np.all(np.diag(W) + eps * np.abs(W - np.diag(np.diag(W))).sum(axis=0) < 0))


def _reached_from_rest(model: OdeModel, D: ConditionMatrix, states):
    """Whether every condition integrated from rest settles within BRANCH_TOL
    of the given steady states."""
    try:
        settled = steady_states(model, D.values, tol=SS_TOL, t_max=SS_T_MAX, dt=SS_DT)
    except DivergenceError:
        return False
    if not settled.converged.all():
        return False
    return float(np.max(np.abs(settled.states - states))) <= BRANCH_TOL


def fit_causal_ode(
    D: ConditionMatrix,
    X: ResponseMatrix,
    B: TargetMap,
    model_template: OdeModel,
    cfg: FitConfig = FitConfig(max_iter=200),
    fit_epsilon: bool = False,
):
    """Fit the nonlinear dynamics by proximal gradient descent on exact gradients.

    The template fixes the envelope; W starts from cfg.w_init (W-form,
    default -I) and epsilon from the template, optimized in log space when
    fit_epsilon is set so positivity holds by construction.  Every loss
    evaluation solves all conditions' steady states in one batch (to rate
    SS_TOL, within SS_T_MAX, at RK4 step SS_DT) and takes the gradient of
    :func:`causal_ode_loss_and_gradient` at them.  The initial point is
    solved by Newton from rest when its dynamics contract (:func:`_contracts`;
    the default -I does), and integrated from rest otherwise or when Newton
    cannot certify a row.  Each candidate is solved by Newton from the last
    accepted states.  A candidate with an uncertified row or a singular
    Jacobian, or that raises the objective, is rejected and the step halved;
    a start that RK4 cannot settle, or with a singular Jacobian, raises.
    Each iteration's first trial step is twice the last accepted one,
    ODE_FIRST_STEP at the start.  If no step is accepted the fit stops with
    "line-search-exhausted" in the report's status.

    Continuation can follow an equilibrium that integration from rest, as
    prediction does, would not reach.  So a fit that moved ends with one
    solve from rest at the final parameters; if a row settles more than
    BRANCH_TOL away from the fitted states, or not at all, the report gets
    status "steady-state-branch" and converged = False.
    """
    check_paired(D, X)
    p = B.n_responses
    W = _initial_w(cfg, p)
    log_eps = np.log(model_template.epsilon.copy())

    free = cfg.mask.allowed.copy() if cfg.mask is not None else np.ones((p, p), dtype=bool)

    def evaluate(Wv, log_eps_v, guess=None):
        model = OdeModel(
            InteractionMatrix(Wv, form=W_FORM),
            B,
            np.exp(log_eps_v),
            envelope=model_template.envelope,
            clip_bound=model_template.clip_bound,
        )
        solved = steady_states(model, D.values, tol=SS_TOL, t_max=SS_T_MAX, dt=SS_DT, guess=guess)
        states = solved.require_converged()
        loss, gW, g_eps = _loss_and_gradient_at(model, D, X, states)
        return model, states, loss, np.where(free, gW, 0.0), g_eps if fit_epsilon else np.zeros(p)

    start = None
    if _contracts(W, np.exp(log_eps)):
        try:
            start = evaluate(W, log_eps, guess=np.zeros(X.values.shape))
        except NonConvergenceError:
            pass
    model, states, loss, gW, g_eps = start or evaluate(W, log_eps)
    obj = loss + _penalty(W, cfg.lam)
    trace = [obj]
    status = []
    step = ODE_FIRST_STEP
    converged = False
    it = 0

    for it in range(1, cfg.max_iter + 1):
        accepted = False
        trial = step
        while trial > 1e-14:
            W_new = _proximal_map(W, gW, trial, cfg)
            eps_new = log_eps - trial * g_eps
            try:
                model_new, states_new, loss_new, gW_new, g_eps_new = evaluate(
                    W_new, eps_new, guess=states
                )
            except (NonConvergenceError, SingularMatrixError):
                trial *= 0.5
                continue
            obj_new = loss_new + _penalty(W_new, cfg.lam)
            if obj_new <= obj + 1e-10 * max(1.0, abs(obj)):
                accepted = True
                break
            trial *= 0.5
        if not accepted:
            status.append(
                f"line-search-exhausted: no acceptable step at iteration {it}"
            )
            break

        rel_change = abs(obj - obj_new) / max(1.0, abs(obj))
        W, log_eps, model, states, obj = W_new, eps_new, model_new, states_new, obj_new
        gW, g_eps = gW_new, g_eps_new
        trace.append(obj)
        step = trial * 2.0
        if rel_change < cfg.tol:
            converged = True
            break

    if len(trace) > 1 and not _reached_from_rest(model, D, states):
        status.append(
            "steady-state-branch: integrating from rest at the fitted parameters "
            "does not reach the fitted steady states"
        )
        converged = False
    report = FitReport(obj, it, converged, trace, tuple(status))
    return model, report
