"""Model fitting: penalized regression and penalized causal interaction fits.

Three fitters live here:

* ``fit_regression`` solves ||X - D R||_F^2 + lambda ||R||_1, exactly when
  lambda = 0: least squares by one QR of D (:func:`_lstsq`), with the rank
  decided as np.linalg.matrix_rank decides it.
* ``fit_causal_linear`` minimizes ||X - D B^T (-inv(W))||_F^2 plus an L1
  penalty on the off-diagonal of W; the loss is nonconvex in W with a
  singular set at det W = 0, so a candidate step that lands near it is
  rejected.  At lambda = 0 the loss is least squares in M = -inv(W) on the
  design D B^T, solved by the same QR: its minimizer is the closed form.
* ``fit_causal_ode`` fits the nonlinear dynamics by gradient descent.  Each
  loss evaluation is one batched steady-state solve over all conditions by
  Newton steps, from rest at a contracting start and from the last accepted
  iterate's states for each candidate; RK4 from rest solves only any other
  start, and checks the end unless a contraction certificate settles it.
  The gradient is exact: the implicit function theorem at the reached
  states gives one p x p adjoint solve per condition.

Cross-validation factors a linear model's design, D or D B^T, once per
command (:func:`factor_design`) and solves each block of lambda = 0 folds
of a SplitPlan, each training on every row it does not test, in its
orthonormal basis (:func:`fit_least_squares_folds`): one k x k system per
fold, built from the fold's test rows alone by downdating the whole
design's Gram matrix, taken only where a Cholesky certificate shows the
fold's rank and conditioning.  One (F, n, p) product in that basis gives the test
predictions of the whole block and each fold's objective.  Any other fold
is left to a single fit of its own.

Both linear fits, wherever no closed form holds, run one solver: ``_fista``,
accelerated proximal gradient with backtracking and restart, in a fixed
diagonal metric: each entry steps by the inverse of the loss's Gauss-Newton
Hessian diagonal at the start, so one trial step serves entries of very
different curvature.  Each such fit factors its design once, by a thin QR,
and evaluates every loss on the k-row problem in that basis
(:class:`ReducedDesign`): the loss sees the n design rows only through
their column space (Bjorck 1996, section 1.3).  A fit that stops at its
iteration cap says so in its report's status (MAX_ITER_REACHED).

An objective that falls below the normal floating-point range has its
residual summed again at a power-of-two scale (:func:`_sum_of_squares`);
a sum still out of range is reported rounded, with status
OBJECTIVE_UNDERFLOW, not as an exact fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

import numpy as np

from .errors import DivergenceError, NonConvergenceError, SingularMatrixError
from .linear import _rcond, _screened_inverse
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
    check_targets,
)


@dataclass(frozen=True)
class FitConfig:
    """What a command sets for a fit: the L1 weight lam, the iteration cap
    max_iter, the stopping tolerance tol and an edge mask.  w_init is the
    causal fits' starting W; left None, the causal-linear fit starts from
    its least-squares W and the causal-ODE fit from -I.  The step rule is not
    a setting: each fitter has one, in its docstring.
    """

    lam: float = 0.0
    max_iter: int = 10000
    tol: float = 1e-8
    mask: Optional[EdgeMask] = None
    w_init: Optional[InteractionMatrix] = None

    def __post_init__(self):
        if not 0.0 <= self.lam < math.inf:  # NaN fails every comparison
            raise ValueError(f"lambda must be nonnegative and finite, got {self.lam}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")


@dataclass(frozen=True)
class FitReport:
    """Outcome of one fit: final objective, iteration count, trace, notes.
    The linear fits count FISTA iterations (0 for a closed form, 1 for least
    squares), the causal-ODE fit its gradient steps."""

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


# The status of a fit that stopped at its iteration cap, unconverged; every
# fitter formats it with its cfg.max_iter.
MAX_ITER_REACHED = "max-iter-reached: the fit stopped at max_iter = {} before its stop rule held"

# The status of a causal-linear fit returned in closed form, after 0 iterations.
CLOSED_FORM = "closed-form: the least-squares minimizer at lambda = 0"

# A least-squares M gives the causal-linear fit's closed form or start,
# W = -inv(M), only where its rcond is at least this (:func:`_screened_inverse`).
_LEAST_SQUARES_RCOND = 1e-8


# The status of a fit whose residual's sum of squares lies below the normal
# floating-point range, with that sum as mantissa x 2^exponent; every fitter
# formats it.
OBJECTIVE_UNDERFLOW = ("objective-underflow: the residual's sum of squares, {:.17g} x 2^{}, "
                       "lies below the normal floating-point range; final_objective holds "
                       "it rounded, plus the penalty")

_TINY = np.finfo(float).tiny


def _sum_of_squares(total, residual, penalty=lambda: 0.0):
    """(objective, status) of a fit whose objective, the sum of squares of
    the residual residual() plus the penalty penalty(), summed to total.

    Where total is at least the smallest normal float, it stands, with no
    status, and neither function is called.  Otherwise squares that
    underflowed may have been lost, so the residual, unless it is all 0, is
    summed again scaled by the power of two that brings its largest entry
    into [1/2, 1), which is exact, and the objective is that sum scaled
    back, rounded, plus the penalty.  If the sum is still below the normal
    range, the status (OBJECTIVE_UNDERFLOW) gives it as a mantissa and its
    power of two.  Only this rare branch costs anything.
    """
    if not total < _TINY:
        return total, ()
    resid = residual()
    if not resid.any():
        return total, ()
    e = math.frexp(float(np.max(np.abs(resid))))[1]
    scaled = np.ldexp(resid, -e)
    mantissa = float(np.vdot(scaled, scaled))
    loss = math.ldexp(mantissa, 2 * e)
    status = () if loss >= _TINY else (OBJECTIVE_UNDERFLOW.format(mantissa, 2 * e),)
    return loss + penalty(), status


def soft_threshold(x, thr):
    """Closed-form proximal operator of thr * |.|: shrink toward 0 by thr.

    The shrunk magnitude takes x's sign in one copysign, in place of
    sign(x) * max(|x| - thr, 0), with the same bits: the sign comes from
    x + 0.0, so that -0.0 shrinks to +0.0 as it did there."""
    return np.copysign(np.maximum(np.abs(x) - thr, 0.0), x + 0.0)


# The first trial step of the linear fits' backtracking line search, and the
# factor by which each iteration's first trial grows the last accepted step.
# Doubling made nearly every iteration evaluate one rejected trial (about 3
# loss evaluations per iteration); a modest growth keeps the trial near the
# local Lipschitz step (Scheinberg, Goldfarb & Bai 2014).  1.1 gave the fewest
# loss evaluations over the property-test instances of tests/test_fit.py
# among the factors 1, 1.05, 1.08, 1.1, 1.12, 1.15, 1.2, 1.25, 1.3, 1.5 and 2.
LINEAR_FIRST_STEP = 1.0
LINEAR_STEP_GROWTH = 1.1


def _diagonal_metric(h):
    """The per-entry step scale of :func:`_fista` for a Gauss-Newton Hessian
    diagonal h: 1 / h, normalised so that its largest entry is exactly 1,
    and 1 where h is 0 (an entry the loss does not reach at the start)."""
    metric = np.ones_like(h)
    reached = h > 0.0
    if reached.any():
        metric[reached] = h[reached].min() / h[reached]
    return metric


def _fista(loss_and_gradient, start, first, cfg: FitConfig, penalty, proximal_map, metric):
    """(x, FitReport) of accelerated proximal gradient (FISTA) on
    loss(x) + penalty(x) from start, in a fixed diagonal metric.

    loss_and_gradient(x) raises SingularMatrixError where x is infeasible;
    both linear fits evaluate it on their design's thin-QR basis
    (:class:`ReducedDesign`), so its cost does not grow with the rows.
    first is its (loss, gradient) at start, which the caller evaluates, so
    that a start it rejects raises there, and the metric can reuse what that
    evaluation computed.  proximal_map(y, grad, step) is penalty's proximal
    step from y, where step holds one step per entry of x.  metric (from
    :func:`_diagonal_metric`, largest entry 1) is the inverse of the loss's
    Gauss-Newton Hessian diagonal at start: a trial step s moves each entry,
    and soft-thresholds it, by its own step s * metric, and the
    sufficient-decrease test measures the move in the matching norm,
    <diff, diff / metric> / (2 s), with 1 / metric formed once.  One step
    then serves entries whose curvatures differ by orders of magnitude, and
    a fixed diagonal metric keeps FISTA's guarantees (variable-metric
    forward-backward splitting; Combettes & Vu 2014).  Each iteration takes
    that step from the momentum point
    Y = x + ((t - 1) / t') (x - x_prev), t' = (1 + sqrt(1 + 4 t^2)) / 2
    (Beck & Teboulle 2009), backtracking while the candidate is infeasible
    or fails the proximal sufficient-decrease test at Y.  If Y is
    infeasible, no step from Y is, or the candidate's objective is above the
    current one, the momentum restarts (t = 1; O'Donoghue & Candes 2015)
    with a plain proximal step from x, so the objective trace never goes
    up.  The fit stops when a plain step changes the objective by less than
    tol (relative to max(1, objective)); a momentum step that gains that
    little can still be short of a minimum, so it restarts the momentum
    instead.  Each iteration's first trial step is the last accepted one
    times LINEAR_STEP_GROWTH, LINEAR_FIRST_STEP at the start.
    """
    x = start
    loss, grad = first
    obj = loss + penalty(x)
    trace = [obj]
    step = LINEAR_FIRST_STEP
    inverse_metric = 1.0 / metric

    def proximal_step(y, loss_y, grad_y, step):
        """(x_new, loss_new, grad_new, obj_new, trial) of the accepted step from y."""
        trial = step
        while trial > 1e-20:
            x_new = proximal_map(y, grad_y, trial * metric)
            try:
                loss_new, grad_new = loss_and_gradient(x_new)
            except SingularMatrixError:
                trial *= 0.5
                continue
            diff = x_new - y
            quad = loss_y + float(np.vdot(grad_y, diff)) + float(
                np.vdot(diff, diff * inverse_metric)
            ) / (2.0 * trial)
            if loss_new <= quad + 1e-12 * max(1.0, abs(loss_y)):
                return x_new, loss_new, grad_new, loss_new + penalty(x_new), trial
            trial *= 0.5
        raise NonConvergenceError("no feasible step found (backtracking exhausted)")

    x_prev = x
    t = 1.0
    converged = False
    it = 0

    for it in range(1, cfg.max_iter + 1):
        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        new = None
        if t > 1.0:
            y = x + ((t - 1.0) / t_next) * (x - x_prev)
            try:
                new = proximal_step(y, *loss_and_gradient(y), step)
            except (SingularMatrixError, NonConvergenceError):
                pass
        momentum = new is not None and new[3] <= obj
        if not momentum:  # (re)start: t = 1, a plain proximal step from x
            new = proximal_step(x, loss, grad, step)
            t_next = (1.0 + math.sqrt(5.0)) / 2.0

        x_new, loss_new, grad_new, obj_new, trial = new
        rel_change = abs(obj - obj_new) / max(1.0, abs(obj))
        x_prev, t = x, t_next
        x, loss, grad, obj = x_new, loss_new, grad_new, obj_new
        trace.append(obj)
        step = trial * LINEAR_STEP_GROWTH
        if rel_change < cfg.tol:
            if not momentum:
                converged = True
                break
            # a momentum step can gain little far from a minimum; only a
            # plain step's small gain shows x is stationary, so take one next
            t = 1.0
    status = () if converged else (MAX_ITER_REACHED.format(cfg.max_iter),)
    return x, FitReport(obj, it, converged, trace, status)


# ---------------------------------------------------------------------------
# regression


def _full_rank_qr(A):
    """(Q, R), the reduced QR of an (n, k) matrix A, when A has full column
    rank as np.linalg.matrix_rank decides it, and None otherwise (always when
    n < k).

    matrix_rank counts the singular values above max(n, k) * eps times the
    largest, so A has full column rank when its 2-norm rcond exceeds
    max(n, k) * eps.  A and R have the same singular values, so the screened
    inverse of R settles most designs; matrix_rank(A) itself settles those
    the screen's bound leaves open and any R with an exact zero on its
    diagonal, which LU cannot invert.
    """
    n, k = A.shape
    if n < k:
        return None
    Q, R = np.linalg.qr(A)
    full = _screened_inverse(R, max(n, k) * np.finfo(float).eps,
                             lambda: np.linalg.matrix_rank(A) == k)[1]
    return (Q, R) if full else None


def _lstsq(A, Y):
    """The least-squares solution M of A M = Y, by one QR of A, or None
    where A lacks full column rank (:func:`_full_rank_qr`)."""
    QR = _full_rank_qr(A)
    return None if QR is None else np.linalg.solve(QR[1], QR[0].T @ Y)


# A fold passes the certificate of :func:`_basis_lstsq` when the least
# eigenvalue of G = Q0[S]^T Q0[S] is at least BASIS_DELTA.  The fold's basis
# Q0[S] then has singular values in [1/4, 1] (to within the rounding of Q0),
# so its condition number is at most 4, and solving the normal equations in G
# adds a rounding error of about 16 u to the one that R0 carries (Bjorck
# 1996, sections 2.1-2.2), of the order of a QR's error bound.  On simulated
# designs every random fold clears it at least twice over.
BASIS_DELTA = 1.0 / 16.0


class DesignBasis(NamedTuple):
    """A whole (n, k) design A, its thin QR A = Q0 R0, rcond(R0) and omega,
    a bound on ||Q0^T Q0 - I||_2, as :func:`factor_design` gives them; Q0
    and R0 are None, and rcond and omega 0, when n < k."""

    A: np.ndarray
    Q0: Optional[np.ndarray]
    R0: Optional[np.ndarray]
    rcond: float
    omega: float


def factor_design(A):
    """The DesignBasis of a design A: one QR of A, one SVD of R0 and one
    product Q0^T Q0.

    Cross-validation factors each design once per command, and every block
    of folds of that design reuses the factorization (:func:`_basis_lstsq`).
    The computed Q0 is orthonormal only to within rounding: omega is the
    Frobenius norm of the computed Q0^T Q0 - I, which bounds its 2-norm,
    plus 2 n k eps, which bounds the rounding of that product (each entry
    errs by at most gamma_n ||q_i|| ||q_j||; Higham 2002, section 3.1).
    """
    n, k = A.shape
    if n < k:  # every fold has fewer rows than columns, so none passes
        return DesignBasis(A, None, None, 0.0, 0.0)
    Q0, R0 = np.linalg.qr(A)
    omega = float(np.linalg.norm(Q0.T @ Q0 - np.eye(k))) + 2 * n * k * np.finfo(float).eps
    return DesignBasis(A, Q0, R0, _rcond(R0), omega)


def _basis_lstsq(basis, X, tests):
    """Least squares of a block of folds of one design, in the orthonormal
    basis of the whole design, from the rows each fold holds out.

    basis is the DesignBasis of the (n, k) design A, X the (n, m) responses
    and tests an (F, t) array of each fold's held-out rows T; the fold
    trains on every other row, S.  A = Q0 R0 is factored once per design, so
    a fold's design is A[S] = Q0[S] R0 and its least-squares solution is
    M = inv(R0) y for y = solve(G, Q0[S]^T X[S]), with G = Q0[S]^T Q0[S]:
    one k x k system per fold in place of a QR of its s x k design.  Both
    come from the held-out rows, by downdating the whole design (Bjorck
    1996, section 3.3): with QT = Q0[T] and H = QT^T QT, G = I - H and
    Q0[S]^T X[S] = Q0^T X - QT^T X[T], so a fold gathers its t held-out
    rows, not its s training rows.

    Returns (y, certified): y is (F, k, m) and holds a solution only where
    certified says the fold passed, NaN elsewhere.  A fold passes when a
    Cholesky factorization of (1 - BASIS_DELTA - omega) I - H succeeds, so
    that lambda_min(I - H) >= BASIS_DELTA + omega.  The exact Gram matrix of
    the fold's basis is Q0[S]^T Q0[S] = Q0^T Q0 - H, within omega of I - H
    in 2-norm, so lambda_min(Q0[S]^T Q0[S]) >= BASIS_DELTA; and Q0[S] is a
    block of rows of Q0, so its largest singular value is at most
    sqrt(1 + omega), and rcond(A[S]) >= sqrt(BASIS_DELTA / (1 + omega))
    rcond(R0).  Folds pass only where that bound clears
    np.linalg.matrix_rank's threshold max(s, k) eps by 8 n k eps, which
    covers the rounding of the QR of A, of H and of the Cholesky factor
    (Higham 2002, Thm 19.4 and section 10.1); so every fold that passes is
    one that matrix_rank calls full rank.  When the whole design falls
    short, or s < k, no fold passes.
    """
    F, t = tests.shape
    n, k = basis.A.shape
    s = n - t
    certified = np.zeros(F, dtype=bool)
    y = np.full((F, k, X.shape[1]), np.nan)  # filled where certified
    eps = np.finfo(float).eps
    bound = math.sqrt(BASIS_DELTA / (1.0 + basis.omega)) * basis.rcond
    if s < k or bound <= (max(s, k) + 8 * n * k) * eps:
        return y, certified
    QT = basis.Q0[tests]
    QTt = np.swapaxes(QT, 1, 2)
    H = QTt @ QT
    shifted = (1.0 - BASIS_DELTA - basis.omega) * np.eye(k) - H
    try:
        np.linalg.cholesky(shifted)
        certified[:] = True
    except np.linalg.LinAlgError:  # the rare block with a failing fold: find it
        for f in range(F):
            try:
                np.linalg.cholesky(shifted[f])
                certified[f] = True
            except np.linalg.LinAlgError:
                pass
    G = np.eye(k) - H
    rhs = basis.Q0.T @ X - QTt @ X[tests]
    if certified.all():  # one solve, with no copies of the stacks
        y = np.linalg.solve(G, rhs)
    elif certified.any():
        y[certified] = np.linalg.solve(G[certified], rhs[certified])
    return y, certified


def fit_least_squares_folds(basis, X, tests, iterations, status, screen=False):
    """Unpenalized least squares A M = X of the folds of a block that the
    basis of the whole design A settles, and the predictions of their test
    rows.

    basis is the DesignBasis of the (n, k) design A (:func:`factor_design`),
    X is (n, m), and tests is an (F, t) array of each fold's test rows T; a
    fold trains on every other row, S, as the SplitPlan that made it has
    checked.  Returns (predictions, reports): the (F, t, m) test predictions
    and one FitReport per fold, with the given iterations and status, both
    only where :func:`_basis_lstsq` certifies the fold.  One product
    P = Q0 y, (F, n, m), serves the whole block: its test rows are
    the predictions A[T] M = Q0[T] y, and its training rows give the
    objective ||X[S] - Q0[S] y||^2, summed over the residual with the test
    rows zeroed (and again by :func:`_sum_of_squares` where it underflows).
    With screen, a certified fold is settled only where
    M = inv(R0) y has rcond at least _LEAST_SQUARES_RCOND, as the
    causal-linear closed form W = -inv(M) needs.  Every other fold, and one
    whose objective overflows, gets report None, and its predictions are
    not meant to be used: the family fits it on its own.
    """
    F, t = tests.shape
    rows = np.arange(F)[:, None]
    reports = [None] * F
    y, certified = _basis_lstsq(basis, X, tests)
    if screen and certified.any():
        certified[certified] = _screened_inverse(np.linalg.solve(basis.R0, y[certified]),
                                                  _LEAST_SQUARES_RCOND)[1]
    if not certified.any():
        return np.empty((F, t, X.shape[1])), reports
    P = basis.Q0 @ y
    preds = P[rows, tests]
    with np.errstate(over="ignore"):  # an overflow leaves the fold to its family
        P -= X
        P[rows, tests] = 0.0
        np.square(P, out=P)
    objectives = P.sum(axis=(1, 2))

    def residual(f):
        resid = basis.Q0 @ y[f] - X
        resid[tests[f]] = 0.0
        return resid

    for f in np.flatnonzero(certified).tolist():
        obj, underflow = _sum_of_squares(float(objectives[f]), lambda: residual(f))
        if math.isfinite(obj):
            reports[f] = FitReport(obj, iterations, True, [obj], (*status, *underflow))
    return preds, reports


class ReducedDesign(NamedTuple):
    """A linear fit's design A, (n, m), and responses X, (n, p), in the
    thin-QR basis of A, as :func:`_reduce` gives them.

    With A = Q R, where Q (n, k) has orthonormal columns and k = min(n, m),
    every residual X - A P splits into its part in Q's span, Q^T X - R P,
    and X - Q Q^T X, which no P reaches.  So ||X - A P||_F^2 =
    ||Q^T X - R P||_F^2 + rest on k rows, with rest = ||X - Q Q^T X||_F^2
    formed once (Bjorck 1996, section 1.3); the gradient A^T (A P - X) is
    R^T (R P - Q^T X).  This holds for any A, rank-deficient too.  R may
    be a product R F whose first factor came from the QR, as the
    causal-linear fit forms it (:func:`_causal_design`).
    """

    R: np.ndarray
    QtX: np.ndarray
    rest: float


def _reduce(A, X):
    """The ReducedDesign of design A and responses X: one thin QR of A."""
    Q, R = np.linalg.qr(A)
    QtX = Q.T @ X
    if Q.shape[0] == Q.shape[1]:  # Q spans every row: nothing is out of reach
        return ReducedDesign(R, QtX, 0.0)
    orth = X - Q @ QtX
    return ReducedDesign(R, QtX, float(np.vdot(orth, orth)))


def _regression_loss_and_gradient(R, reduced):
    """||X - D R||_F^2 and its gradient 2 D^T (D R - X), evaluated on the
    ReducedDesign of D and X."""
    Rd, QtX, rest = reduced
    resid = Rd @ R - QtX
    return float(np.vdot(resid, resid)) + rest, 2.0 * (Rd.T @ resid)


def fit_regression(
    D: ConditionMatrix, X: ResponseMatrix, cfg: FitConfig = FitConfig()
):
    """Penalized multivariate regression of responses on drug doses.

    lambda = 0 is least squares by one QR of D (:func:`_lstsq`).  A
    rank-deficient D raises SingularMatrixError naming its all-zero columns,
    or every column when the deficiency comes from collinearity (the
    leave-one-drug-out pathology), and an objective that overflows raises
    DivergenceError.  lambda > 0 runs :func:`_fista` from
    R = 0 on the loss ||X - D R||_F^2, evaluated as ||R_D R - Q^T X||_F^2 +
    rest on the thin QR D = Q R_D (:class:`ReducedDesign`), with every entry
    of R penalized, in the metric of its exact Hessian diagonal,
    ||D[:, i]||^2 on row i.  A never-dosed drug's column of R_D is exactly
    0, so its row of the gradient is 0 and its row of R stays 0.  Either
    objective, where it falls below the normal float range, is handled by
    :func:`_sum_of_squares`.
    """
    check_paired(D, X)
    Dv, Xv = D.values, X.values

    if cfg.lam == 0.0:
        R = _lstsq(Dv, Xv)
        if R is None:
            bad = [name for name, used in zip(D.drug_names, np.any(Dv, axis=0)) if not used]
            raise SingularMatrixError(
                "unregularized regression has no unique solution; deficient "
                f"design columns: {', '.join(bad or D.drug_names)}"
            )
        with np.errstate(over="ignore"):  # an overflow raises below
            resid = Xv - Dv @ R
            obj = float((resid * resid).sum())
        if not math.isfinite(obj):
            raise DivergenceError(
                "the least-squares objective overflows: the doses or responses are too "
                "large to fit in floating point"
            )
        obj, status = _sum_of_squares(obj, lambda: resid)
        return RegressionCoefficients(R), FitReport(obj, 1, True, [obj], status)

    reduced = _reduce(Dv, Xv)
    start = np.zeros((Dv.shape[1], Xv.shape[1]))
    R, report = _fista(
        lambda R: _regression_loss_and_gradient(R, reduced),
        start,
        _regression_loss_and_gradient(start, reduced),
        cfg,
        lambda R: cfg.lam * float(np.abs(R).sum()),
        lambda R, grad, step: soft_threshold(R - step * grad, step * cfg.lam),
        _diagonal_metric((Dv * Dv).sum(axis=0))[:, None],
    )
    obj, underflow = _sum_of_squares(report.final_objective, lambda: Dv @ R - Xv,
                                     lambda: cfg.lam * float(np.abs(R).sum()))
    return RegressionCoefficients(R), replace(report, final_objective=obj,
                                              status=(*report.status, *underflow))


# ---------------------------------------------------------------------------
# causal linear


def causal_loss_and_gradient(W, D: ConditionMatrix, X: ResponseMatrix, B: TargetMap,
                             reduced=None, with_inverse=False):
    """Smooth Frobenius loss ||X - D B^T (-inv(W))||_F^2 and its gradient in W.

    With C = D B^T and E = X + C inv(W), matrix calculus through the inverse
    gives  grad = -2 (inv(W) E^T C inv(W))^T = -2 (C inv(W))^T E inv(W)^T,
    which reuses C inv(W).  A fit passes the ReducedDesign of its fixed
    design (:func:`_causal_design`), and every evaluation then runs on its
    k <= p rows: E = Q^T X + R inv(W), and the loss adds rest.  Left None,
    the loss is evaluated on the n rows of D B^T and X themselves.  With
    with_inverse, inv(W) is returned too, as (loss, grad, inv(W)).
    """
    Winv, ok = _screened_inverse(np.asarray(W, dtype=float), RCOND_MIN)
    if not ok:
        raise SingularMatrixError("W is singular or ill-conditioned in loss evaluation")
    C, Y, rest = (D.values @ B.values.T, X.values, 0.0) if reduced is None else reduced
    CW = C @ Winv
    E = Y + CW
    loss = float(np.vdot(E, E)) + rest
    grad = -2.0 * (CW.T @ E @ Winv.T)
    return (loss, grad, Winv) if with_inverse else (loss, grad)


def causal_objective(W, D, X, B, lam):
    """The penalized objective at W; the tests and perfbench's lasso-fit check recompute it."""
    loss, _ = causal_loss_and_gradient(W, D, X, B)
    return loss + _penalty(W, lam)


def _penalty(W, lam):
    """lam times the L1 norm of W's off-diagonal, summed with the diagonal
    zeroed, as W - diag(W) would give it, in any memory layout of W."""
    off = np.abs(W)
    np.fill_diagonal(off, 0.0)
    return lam * float(off.sum())


def _apply_mask(W, mask):
    if mask is not None:
        W = np.where(mask.allowed, W, 0.0)
    return W


def _initial_w(cfg: FitConfig, p, start=None):
    """The fit's starting W, masked: cfg.w_init, else start (either must be
    W-form), else -I."""
    start = start if cfg.w_init is None else cfg.w_init
    if start is not None and start.form != W_FORM:
        raise ValueError("w_init must be W-form")
    return _apply_mask(-np.eye(p) if start is None else start.values.copy(), cfg.mask)


def _causal_metric(Q, C):
    """The :func:`_fista` metric of the causal-linear loss at a start W, from
    Q = inv(W), the inverse that the fit's first loss evaluation screened,
    and the design C = D B^T, or the R of its ReducedDesign, which has the
    same column norms of C Q.

    Moving w_ij moves the residual X + C Q by -(C Q)[:, i] Q[j, :], so the
    Gauss-Newton diagonal is h_ij = ||(C Q)[:, i]||^2 ||Q[j, :]||^2.  A Q
    that is not finite (an inverse that overflowed), or whose squares
    overflow (a start W near 1e-160, from a design at that scale), gives the
    metric 1 everywhere.
    """
    if not np.all(np.isfinite(Q)):
        return np.ones_like(Q)
    CQ = C @ Q
    with np.errstate(over="ignore", invalid="ignore"):
        column_sq, row_sq = (CQ * CQ).sum(axis=0), (Q * Q).sum(axis=1)
    if not (np.all(np.isfinite(column_sq)) and np.all(np.isfinite(row_sq))):
        return np.ones_like(Q)
    return _diagonal_metric(np.outer(column_sq, row_sq))


def _proximal_map(W, grad, step, cfg: FitConfig):
    """W - step * grad with its off-diagonal soft-thresholded by step * lambda
    (the diagonal is unpenalized) and masked-out entries zeroed; step is a
    scalar or one step per entry."""
    W_new = W - step * grad
    shrunk = soft_threshold(W_new, step * cfg.lam)
    np.fill_diagonal(shrunk, W_new.diagonal())
    return _apply_mask(shrunk, cfg.mask)


def _causal_design(D, B, C, X):
    """The ReducedDesign of the causal-linear loss ||X + C inv(W)||^2 on
    C = D B^T: from the thin QR D = Q R_D, with R = R_D B^T and k = min(n, q),
    when q < p, and from that of C, with k = min(n, p), otherwise.  Either
    spans C's columns, so the loss is the same; the fewer rows, the cheaper
    each evaluation."""
    if D.shape[1] < B.shape[0]:
        reduced = _reduce(D, X)
        return reduced._replace(R=reduced.R @ B.T)
    return _reduce(C, X)


def _least_squares_w(C, X):
    """(M, W): the least-squares M of C M = X (:func:`_lstsq`) and
    W = -inv(M).  M is None where C lacks full column rank, and W is None
    there or where M has rcond below _LEAST_SQUARES_RCOND."""
    M = _lstsq(C, X)
    if M is None:
        return None, None
    Minv, ok = _screened_inverse(M, _LEAST_SQUARES_RCOND)
    return M, (-Minv if ok else None)


def fit_causal_linear(
    D: ConditionMatrix,
    X: ResponseMatrix,
    B: TargetMap,
    cfg: FitConfig = FitConfig(),
):
    """Fit the interaction matrix W: in closed form at lambda = 0, and by
    accelerated proximal gradient (FISTA) elsewhere.

    The loss is least squares in M = -inv(W) on the design C = D B^T.  At
    lambda = 0 with no mask and no w_init, one QR of C decides C's rank as
    np.linalg.matrix_rank does and gives the least-squares M and the global
    minimizer W = -inv(M) (:func:`_least_squares_w`): it is returned after 0
    iterations, converged, with objective ||X - C M||_F^2 and status
    CLOSED_FORM, unless M fails its rcond screen or that objective
    overflows.  At lambda = 0 a C of deficient rank adds a
    "non-unique-solution" status naming its rank (computed only then).

    Everywhere else :func:`_fista` runs from the masked start: cfg.w_init,
    else the least-squares W (:func:`least_squares_w_init`), else -I, on the
    smooth loss of :func:`causal_loss_and_gradient`, in the metric of
    :func:`_causal_metric` at that start; a given w_init is always just a
    start.  Every evaluation, the start's included, runs on the k-row
    ReducedDesign of :func:`_causal_design`, factored once per fit.  Its
    proximal map soft-thresholds the off-diagonal entries by step * lambda
    (the diagonal is unpenalized) and zeroes masked-out entries; a W that
    fails the loss's rcond screen is infeasible, so a singular momentum
    point restarts the momentum and an ill-conditioned candidate halves the
    step.  Each loss evaluation inverts W once and screens it as
    safe_inverse does.
    The first evaluates the start: a singular one raises SingularMatrixError
    naming w_init, one whose loss or gradient overflows raises
    DivergenceError, and its inverse gives the metric, so the start is
    inverted once.
    """
    check_paired(D, X)
    check_targets(B, D, X, cfg.mask)
    p = B.n_responses

    C = D.values @ B.values.T
    start = None
    if cfg.w_init is None and cfg.lam == 0.0 and cfg.mask is None:
        M, W = _least_squares_w(C, X.values)
        if W is not None:
            start = InteractionMatrix(W, form=W_FORM)
            resid = X.values - C @ M
            with np.errstate(over="ignore"):  # an overflow is reported at the start below
                obj = float((resid * resid).sum())
            if math.isfinite(obj):
                obj, underflow = _sum_of_squares(obj, lambda: resid)
                return start, FitReport(obj, 0, True, [obj], (CLOSED_FORM, *underflow))
    elif cfg.w_init is None:
        start = least_squares_w_init(D, X, B)
    status = ()
    # a least-squares start shows that C has full column rank
    if cfg.lam == 0.0 and start is None and _full_rank_qr(C) is None:
        status = (f"non-unique-solution: rank(D B^T) = {np.linalg.matrix_rank(C)} < p = {p}; "
                  "unregularized W is not identified",)

    W = _initial_w(cfg, p, start)
    try:
        # the start's one inverse serves its loss evaluation and the metric;
        # an overflow there, or in the reduction, is reported below, not warned
        with np.errstate(over="ignore", invalid="ignore"):
            reduced = _causal_design(D.values, B.values, C, X.values)
            loss, grad, Winv = causal_loss_and_gradient(W, D, X, B, reduced, True)
    except SingularMatrixError as exc:
        # _fista rejects every infeasible candidate itself, so only the start
        # can raise: w_init or the least-squares W as masked (-I keeps its diagonal)
        masked = " after the mask" if cfg.mask is not None else ""
        raise SingularMatrixError(
            f"w_init{masked}, the starting W, is singular or ill-conditioned "
            f"(rcond < {RCOND_MIN:g})"
        ) from exc
    if not (math.isfinite(loss) and np.all(np.isfinite(grad))):
        raise DivergenceError(
            "the loss or its gradient overflows at the starting W: the doses or "
            "responses are too large to fit in floating point"
        )
    W, report = _fista(
        lambda W: causal_loss_and_gradient(W, D, X, B, reduced),
        W,
        (loss, grad),
        cfg,
        lambda W: _penalty(W, cfg.lam),
        lambda W, grad, step: _proximal_map(W, grad, step, cfg),
        _causal_metric(Winv, reduced.R),
    )
    obj, underflow = _sum_of_squares(report.final_objective,
                                     lambda: X.values + C @ np.linalg.inv(W),
                                     lambda: _penalty(W, cfg.lam))
    report = replace(report, final_objective=obj, status=(*status, *report.status, *underflow))
    return InteractionMatrix(W, form=W_FORM), report


def least_squares_w_init(D: ConditionMatrix, X: ResponseMatrix, B: TargetMap):
    """The least-squares W of the unpenalized causal fit, which
    fit_causal_linear with no w_init returns or starts from.

    When D B^T has full column rank, the minimizer over M = -inv(W) of
    ||X - D B^T M||_F^2 is ordinary least squares, and W = -inv(M)
    (:func:`_least_squares_w`).  Returns None when D B^T is rank-deficient
    or M has rcond below _LEAST_SQUARES_RCOND.
    """
    W = _least_squares_w(D.values @ B.values.T, X.values)[1]
    return None if W is None else InteractionMatrix(W, form=W_FORM)


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
    ok = _screened_inverse(J, RCOND_MIN)[1]
    if not ok.all():
        k = int(np.flatnonzero(~ok)[0])
        raise SingularMatrixError(
            f"steady-state Jacobian of condition row {k} is singular or "
            f"ill-conditioned (rcond {_rcond(J[k]):.3g})"
        )
    adj = np.linalg.solve(np.swapaxes(J, 1, 2), (-2.0 * resid)[:, :, None])[:, :, 0]

    grad_W = -states.T @ (adj * gain)  # off-diagonal: df_j/dw_ij = eps_j phi'(s_j) x_i
    np.fill_diagonal(grad_W, -np.sum(adj * states, axis=0))  # df_j/dw_jj = x_j
    grad_log_eps = -np.sum(adj * model.epsilon * phi, axis=0)
    return loss, grad_W, grad_log_eps


BRANCH_TOL = 1e-4  # largest |fitted - from-rest| steady state on the fitted branch


def _contraction_margin(W, eps):
    """(c, diag, spread): the diagonal w_jj of W, spread_j =
    eps_j sum_{i != j} |w_ij| and c = -max_j (w_jj + spread_j).

    As 0 <= phi' <= 1, row j of every Jacobian of the dynamics, and of any
    convex combination of them, has diagonal w_jj and off-diagonal absolute
    sum at most spread_j; so its infinity-norm log-norm is at most -c and
    its infinity norm at most max_j (|w_jj| + spread_j).
    """
    diag = np.diag(W)
    spread = eps * np.abs(W - np.diag(diag)).sum(axis=0)
    return -float(np.max(diag + spread)), diag, spread


def _contracts(W, eps):
    """Whether the margin c of :func:`_contraction_margin` is positive: every
    Jacobian's infinity-norm log-norm is then below zero, the dynamics
    contract (Lohmiller & Slotine 1998), and their one equilibrium attracts
    every trajectory."""
    return _contraction_margin(W, eps)[0] > 0


def _rk4_settling_steps(model: OdeModel, states):
    """A number of RK4 steps from rest (step SS_DT, rate SS_TOL) within
    which every condition provably settles within BRANCH_TOL of states, the
    certified steady states (max|dx/dt| < SS_TOL) of contracting dynamics;
    None where the proof below does not apply.

    With c, diag and spread from :func:`_contraction_margin`, L = max_j
    (|w_jj| + spread_j) bounds every Jacobian's infinity norm, and with
    h = SS_DT, z = h L,
        rho = max_j (|1 + h w_jj| + h spread_j) + z^2/2 + z^3/6 + z^4/24
    bounds the infinity-norm Lipschitz constant of one RK4 step: its
    Jacobian is I + h (a convex combination of Jacobians, which has their
    form) plus products of two to four stage Jacobians.  The equilibrium x*
    is within SS_TOL / c of states, so from rest
    |f(x_n)| <= L rho^n (|states| + SS_TOL / c), and where RK4 stops,
    |x_n - states| < 2 SS_TOL / c.  So the proof needs rho < 1 and
    2 SS_TOL / c <= BRANCH_TOL; the count is the step at which the bound
    first falls below SS_TOL / 2, plus one for rounding.
    """
    c, diag, spread = _contraction_margin(model.W.values, model.epsilon)
    if c <= 0 or 2.0 * SS_TOL / c > BRANCH_TOL:
        return None
    h = SS_DT
    L = float(np.max(np.abs(diag) + spread))
    z = h * L
    rho = float(np.max(np.abs(1.0 + h * diag) + h * spread)) + z**2 / 2 + z**3 / 6 + z**4 / 24
    if not rho < 1.0:
        return None
    start = L * (float(np.max(np.abs(states))) + SS_TOL / c)  # bounds |f(x_0)|
    if start < 0.5 * SS_TOL:
        return 1
    return math.floor(math.log(0.5 * SS_TOL / start) / math.log(rho)) + 2


def _reached_from_rest(model: OdeModel, D: ConditionMatrix, states):
    """Whether every condition integrated from rest settles within BRANCH_TOL
    of the given steady states.  Where :func:`_rk4_settling_steps` proves
    that RK4 does so before SS_T_MAX, nothing is integrated; everywhere else
    RK4 from rest judges."""
    steps = _rk4_settling_steps(model, states)
    if steps is not None and steps * SS_DT < SS_T_MAX:
        return True
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
    prediction does, would not reach.  So a fit that moved ends with a
    check from rest at the final parameters (:func:`_reached_from_rest`):
    where the fitted dynamics contract with enough margin, the certificate
    of :func:`_rk4_settling_steps` confirms it without integrating; any
    other fitted model is solved from rest by RK4.  If a row settles more than
    BRANCH_TOL away from the fitted states, or not at all, the report gets
    status "steady-state-branch" and converged = False.
    """
    check_paired(D, X)
    check_targets(B, D, X, cfg.mask)
    p = B.n_responses
    W = _initial_w(cfg, p)
    log_eps = np.log(model_template.epsilon)

    def evaluate(Wv, log_eps_v, guess=None):
        model = replace(model_template, W=InteractionMatrix(Wv, form=W_FORM), B=B,
                        epsilon=np.exp(log_eps_v))
        solved = steady_states(model, D.values, tol=SS_TOL, t_max=SS_T_MAX, dt=SS_DT, guess=guess)
        states = solved.require_converged()
        loss, gW, g_eps = _loss_and_gradient_at(model, D, X, states)
        return model, states, loss, gW, g_eps if fit_epsilon else np.zeros(p)

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
    else:
        status.append(MAX_ITER_REACHED.format(cfg.max_iter))

    if len(trace) > 1 and not _reached_from_rest(model, D, states):
        status.append(
            "steady-state-branch: integrating from rest at the fitted parameters "
            "does not reach the fitted steady states"
        )
        converged = False
    report = FitReport(obj, it, converged, trace, tuple(status))
    return model, report
