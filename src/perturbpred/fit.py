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
  loss evaluation is one batched steady-state solve over all conditions, and
  the gradient is exact: the implicit function theorem at the reached
  states turns it into one p x p adjoint solve per condition.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Union

import numpy as np

from .errors import DimensionError, DivergenceError, NonConvergenceError, SingularMatrixError
from .linear import _rcond, safe_inverse
# steady_state stays bound here: perfbench's tracer checks it is patched in this module
from .ode import OdeModel, envelope_terms, steady_state, steady_states  # noqa: F401
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
    """Shared fitting knobs.

    step_size "backtracking" (the default) uses Armijo halving on the smooth
    part of the objective; a float requests that fixed step instead.
    """

    lam: float = 0.0
    max_iter: int = 10000
    tol: float = 1e-8
    step_size: Union[str, float] = "backtracking"
    mask: Optional[EdgeMask] = None
    w_init: Optional[InteractionMatrix] = None

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lambda must be nonnegative")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if isinstance(self.step_size, str) and self.step_size != "backtracking":
            raise ValueError(f"unknown step_size {self.step_size!r}")


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
    """Unregularized regression with the held-out drug's coefficients forced to 0.

    The held-out drug must be absent from every training condition; its row
    of the coefficient matrix is inserted as zeros after fitting on the
    remaining columns.
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
    R_red, report = fit_regression(D_red, X, replace(cfg, lam=0.0))
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
    restarts the momentum instead.  A fixed step_size raises only when a
    plain step crosses the singular set.

    At lambda = 0 with no mask, D B^T of full column rank and a w_init at
    which the loss is stationary, w_init is returned unchanged after 0
    iterations.  The loss is then least squares in M = -inv(W), so the
    least-squares warm start is its global minimizer and its gradient is
    round-off.  w_init counts as stationary when step * ||grad||_F^2 <
    tol * max(1, loss) for the first step size: the loss being convex about
    its minimizer, that step could lower it by at most step * ||grad||_F^2,
    so the loop would stop after it, having moved W by at most
    step * ||grad||_F.
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
        rank = np.linalg.matrix_rank(D.values @ B.values.T)
        if rank < p:
            status.append(
                f"non-unique-solution: rank(D B^T) = {rank} < p = {p}; "
                "unregularized W is not identified"
            )

    if cfg.w_init is not None:
        if cfg.w_init.form != W_FORM:
            raise ValueError("w_init must be W-form")
        W = cfg.w_init.values.copy()
        safe_inverse(W, "w_init")
    else:
        W = -np.eye(p)
    W = _apply_mask(W, cfg.mask)

    loss, grad = causal_loss_and_gradient(W, D, X, B)
    obj = loss + _penalty(W, cfg.lam)
    trace = [obj]
    step = 1.0 if cfg.step_size == "backtracking" else float(cfg.step_size)
    backtracking = cfg.step_size == "backtracking"
    if rank == p and cfg.mask is None and cfg.w_init is not None and (
        step * float(np.sum(grad * grad)) < cfg.tol * max(1.0, obj)
    ):
        status.append("closed-form: w_init is the least-squares minimizer at lambda = 0")
        return InteractionMatrix(W, form=W_FORM), FitReport(obj, 0, True, trace, tuple(status))

    off_mask = ~np.eye(p, dtype=bool)

    def proximal_step(Y, loss_y, grad_y, step):
        """(W_new, loss_new, grad_new, obj_new, trial) of the accepted step from Y."""
        trial = step
        while trial > 1e-20:
            W_new = Y - trial * grad_y
            W_new[off_mask] = soft_threshold(W_new[off_mask], trial * cfg.lam)
            W_new = _apply_mask(W_new, cfg.mask)
            try:
                loss_new, grad_new = causal_loss_and_gradient(W_new, D, X, B)
            except SingularMatrixError:
                if not backtracking:
                    raise SingularMatrixError(
                        "fixed-step iterate crossed the singular set; use backtracking"
                    ) from None
                trial *= 0.5
                continue
            diff = W_new - Y
            quad = loss_y + float(np.sum(grad_y * diff)) + float(np.sum(diff * diff)) / (
                2.0 * trial
            )
            if not backtracking or loss_new <= quad + 1e-12 * max(1.0, abs(loss_y)):
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
        if backtracking:
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
        sv = np.linalg.svd(M[full], compute_uv=False)
        rcond = np.divide(sv[:, -1], sv[:, 0], out=np.zeros(full.size), where=sv[:, 0] > 0)
        keep = full[rcond >= 1e-8]
        for f, W in zip(keep, -np.linalg.inv(M[keep])):
            inits[f] = InteractionMatrix(W, form=W_FORM)
    return inits


# ---------------------------------------------------------------------------
# causal ODE


def causal_ode_objective(
    model: OdeModel,
    D: ConditionMatrix,
    X: ResponseMatrix,
    lam: float,
    ss_tol=1e-7,
    t_max=100.0,
    dt=0.05,
):
    """Penalized steady-state squared error, or None on non-convergence."""
    res = steady_states(model, D.values, tol=ss_tol, t_max=t_max, dt=dt)
    if not res.converged.all():
        return None
    diff = X.values - res.states
    return float(np.sum(diff * diff)) + _penalty(model.W.values, lam)


def causal_ode_loss_and_gradient(
    model: OdeModel,
    D: ConditionMatrix,
    X: ResponseMatrix,
    ss_tol=1e-7,
    t_max=100.0,
    dt=0.05,
):
    """Steady-state squared error and its exact gradients in W and log epsilon.

    At a steady state x_k of condition k, f(x_k; theta) = 0, so the implicit
    function theorem gives dL/dtheta = -lambda_k^T df/dtheta, where lambda_k
    solves J_k^T lambda_k = dL/dx_k = -2 (X_k - x_k) and
    J_k = diag(eps * phi'(s_k)) W_off^T + diag(w_jj) is the Jacobian of f.

    Returns (loss, grad_W, grad_log_eps).  Raises NonConvergenceError when a
    condition's steady state is not reached, SingularMatrixError when its
    Jacobian is singular, and DivergenceError when its trajectory blows up.
    """
    W = model.W.values
    diag = np.diag(W)
    eps = model.epsilon
    states = steady_states(model, D.values, tol=ss_tol, t_max=t_max, dt=dt).require_converged()
    resid = X.values - states
    loss = float(np.sum(resid * resid))

    phi, slope = envelope_terms(model, D.values, states)
    gain = eps * slope  # n x p: d(eps_j phi(s_kj)) / d s_kj
    J = gain[:, :, None] * (W - np.diag(diag)).T + np.diag(diag)
    sv = np.linalg.svd(J, compute_uv=False)
    rcond = np.divide(sv[:, -1], sv[:, 0], out=np.zeros(len(sv)), where=sv[:, 0] > 0)
    bad = np.flatnonzero(rcond < RCOND_MIN)
    if bad.size:
        raise SingularMatrixError(
            f"steady-state Jacobian of condition row {bad[0]} is singular or "
            f"ill-conditioned (rcond {rcond[bad[0]]:.3g})"
        )
    adj = np.linalg.solve(np.swapaxes(J, 1, 2), (-2.0 * resid)[:, :, None])[:, :, 0]

    grad_W = -states.T @ (adj * gain)  # off-diagonal: df_j/dw_ij = eps_j phi'(s_j) x_i
    np.fill_diagonal(grad_W, -np.sum(adj * states, axis=0))  # df_j/dw_jj = x_j
    grad_log_eps = -np.sum(adj * eps * phi, axis=0)
    return loss, grad_W, grad_log_eps


def fit_causal_ode(
    D: ConditionMatrix,
    X: ResponseMatrix,
    B: TargetMap,
    model_template: OdeModel,
    cfg: FitConfig = FitConfig(max_iter=200),
    fit_epsilon: bool = False,
    ss_tol: float = 1e-7,
    t_max: float = 100.0,
    dt: float = 0.05,
):
    """Fit the nonlinear dynamics by proximal gradient descent on exact gradients.

    The template fixes the envelope; W starts from cfg.w_init (default -I)
    and epsilon from the template, optimized in log space when fit_epsilon
    is set so positivity holds by construction.  Every loss evaluation solves
    all conditions' steady states in one batch and takes its gradient from
    :func:`causal_ode_loss_and_gradient`.  A candidate step whose steady
    state fails to converge, diverges, or has a singular Jacobian is rejected
    and the step halved; at the initial point the same failures raise.  If
    no step is accepted the fit stops with "line-search-exhausted" in the
    report's status.
    """
    check_paired(D, X)
    p = B.n_responses
    mask = cfg.mask
    if cfg.w_init is not None:
        W = cfg.w_init.values.copy()
    else:
        W = -np.eye(p)
    W = _apply_mask(W, mask)
    log_eps = np.log(model_template.epsilon.copy())

    free = mask.allowed.copy() if mask is not None else np.ones((p, p), dtype=bool)
    off_mask = ~np.eye(p, dtype=bool)

    def evaluate(Wv, log_eps_v):
        model = OdeModel(
            InteractionMatrix(Wv, form=W_FORM),
            B,
            np.exp(log_eps_v),
            envelope=model_template.envelope,
            clip_bound=model_template.clip_bound,
        )
        loss, gW, g_eps = causal_ode_loss_and_gradient(
            model, D, X, ss_tol=ss_tol, t_max=t_max, dt=dt
        )
        return model, loss, np.where(free, gW, 0.0), g_eps if fit_epsilon else np.zeros(p)

    model, loss, gW, g_eps = evaluate(W, log_eps)
    obj = loss + _penalty(W, cfg.lam)
    trace = [obj]
    status = []
    step = 0.1 if cfg.step_size == "backtracking" else float(cfg.step_size)
    converged = False
    it = 0

    for it in range(1, cfg.max_iter + 1):
        accepted = False
        trial = step
        while trial > 1e-14:
            W_new = W - trial * gW
            W_new[off_mask] = soft_threshold(W_new[off_mask], trial * cfg.lam)
            W_new = _apply_mask(W_new, mask)
            eps_new = log_eps - trial * g_eps
            try:
                model_new, loss_new, gW_new, g_eps_new = evaluate(W_new, eps_new)
            except (NonConvergenceError, DivergenceError, SingularMatrixError):
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
        W, log_eps, model, obj = W_new, eps_new, model_new, obj_new
        gW, g_eps = gW_new, g_eps_new
        trace.append(obj)
        step = trial * 2.0
        if rel_change < cfg.tol:
            converged = True
            break

    report = FitReport(obj, it, converged, trace, tuple(status))
    return model, report
