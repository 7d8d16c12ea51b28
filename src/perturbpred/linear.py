"""Closed-form forward prediction and matrix-exponential verification.

Implements the three prediction rules (regression, causal linear W-form,
causal A-form/DAG), conversion between the two interaction parameterizations,
and a numerical check that the linear dynamics converge to the closed-form
steady state.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NotNegativeDefiniteError, SingularMatrixError
from .types import (
    A_FORM,
    RCOND_MIN,
    W_FORM,
    ConditionMatrix,
    InteractionMatrix,
    PredictionResult,
    RegressionCoefficients,
    TargetMap,
)


def _rcond(M):
    """Reciprocal condition number in the 2-norm of a matrix, or of each
    matrix of an (F, k, k) stack (0 for a zero matrix)."""
    s = np.linalg.svd(M, compute_uv=False)
    if s.ndim == 1:  # one matrix: scalar arithmetic
        return s[-1] / s[0] if s[0] > 0 else 0.0
    largest = s[:, 0]
    return s[:, -1] / np.where(largest > 0, largest, np.inf)


def _screened_inverse(M, threshold, decide=None):
    """The inverse of a matrix, or of each matrix of an (F, k, k) stack, and
    whether its rcond (see :func:`_rcond`) is at least threshold.

    Returns (inv, ok); inv is meaningful only where ok.  Each matrix is
    inverted once, by LU, and passes without an SVD when
    ||M||_F ||inv(M)||_F <= 1 / (2 threshold): the 2-norm condition number is
    at most the Frobenius one, and the factor 2 covers the rounding of the
    inverse.  The SVD screen _rcond(M) >= threshold settles the matrices this
    bound leaves open, so ok is what that screen says of every matrix.  For
    one matrix, decide() may replace it: it settles a matrix that the bound
    leaves open or that LU cannot invert.  inv refuses a whole stack if one
    matrix in it is exactly singular; such a stack is screened whole and only
    its passing matrices are inverted.
    """
    bound = 0.25 / threshold**2
    if M.ndim == 2:  # plain floats: the causal-linear fit screens every candidate
        try:
            inv = np.linalg.inv(M)
        except np.linalg.LinAlgError:
            inv = None
        if inv is not None and float(np.vdot(M, M)) * float(np.vdot(inv, inv)) <= bound:
            return inv, True
        if _rcond(M) < threshold if decide is None else not decide():
            return inv, False
        return (np.linalg.inv(M) if inv is None else inv), True

    try:
        inv = np.linalg.inv(M)
    except np.linalg.LinAlgError:
        ok = _rcond(M) >= threshold
        inv = np.full(M.shape, np.nan)
        inv[ok] = np.linalg.inv(M[ok])
        return inv, ok
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN leaves a matrix open
        ok = np.sum(M * M, axis=(1, 2)) * np.sum(inv * inv, axis=(1, 2)) <= bound
    open_ = np.flatnonzero(~ok)
    if open_.size:
        ok[open_] = _rcond(M[open_]) >= threshold
    return inv, ok


def safe_inverse(M, what="matrix"):
    """Invert M, refusing near-singular input instead of silently degrading.

    M is refused when its rcond is below RCOND_MIN, as :func:`_screened_inverse`
    decides it: an SVD runs only where the inverse does not bound the
    condition number well enough.
    """
    inv, ok = _screened_inverse(M, RCOND_MIN)
    if not ok:
        raise SingularMatrixError(
            f"{what} is singular or ill-conditioned (rcond < {RCOND_MIN:g}); "
            "refusing to invert"
        )
    return inv


def predict_regression(R: RegressionCoefficients, D: ConditionMatrix) -> PredictionResult:
    """Predicted responses D @ R for a fitted regression coefficient matrix."""
    if R.values.shape[0] != D.n_drugs:
        raise DimensionError(
            f"coefficients expect {R.values.shape[0]} drugs, conditions have {D.n_drugs}"
        )
    return PredictionResult(D.values @ R.values, "regression")


def predict_causal_linear(
    W: InteractionMatrix, B: TargetMap, D: ConditionMatrix
) -> PredictionResult:
    """Steady-state predictions of the linear causal model.

    Row k of the result is ``d_k @ B.T @ (-inv(W))``: the direct drug effects
    ``d_k @ B.T`` propagated through the interaction network.
    """
    if W.form != W_FORM:
        raise ValueError("predict_causal_linear requires a W-form interaction matrix")
    _check_causal_dims(W, B, D)
    Winv = safe_inverse(W.values, "interaction matrix W")
    return PredictionResult(D.values @ B.values.T @ (-Winv), "causal-linear")


def predict_causal_dag(
    A: InteractionMatrix, B: TargetMap, D: ConditionMatrix
) -> PredictionResult:
    """Predictions of the structural equation model x = A x + B d.

    Per condition the solution is ``inv(I - A) @ B @ d``; acyclicity is not
    required, only invertibility of I - A.
    """
    if A.form != A_FORM:
        raise ValueError("predict_causal_dag requires an A-form interaction matrix")
    _check_causal_dims(A, B, D)
    p = A.size
    inv = safe_inverse(np.eye(p) - A.values, "I - A")
    return PredictionResult(D.values @ B.values.T @ inv.T, "causal-linear")


def _check_causal_dims(M: InteractionMatrix, B: TargetMap, D: ConditionMatrix):
    if B.n_responses != M.size:
        raise DimensionError(
            f"target map has {B.n_responses} responses, interaction matrix is {M.size}x{M.size}"
        )
    if B.n_drugs != D.n_drugs:
        raise DimensionError(
            f"target map has {B.n_drugs} drugs, conditions have {D.n_drugs}"
        )


def dag_to_w(A: InteractionMatrix) -> InteractionMatrix:
    """Convert A-form to the equivalent W-form: W = (A - I)^T."""
    if A.form != A_FORM:
        raise ValueError("dag_to_w expects an A-form matrix")
    return InteractionMatrix((A.values - np.eye(A.size)).T, form=W_FORM)


def w_to_dag(W: InteractionMatrix) -> InteractionMatrix:
    """Convert W-form to the equivalent A-form: A = W^T + I."""
    if W.form != W_FORM:
        raise ValueError("w_to_dag expects a W-form matrix")
    return InteractionMatrix(W.values.T + np.eye(W.size), form=A_FORM)


def matrix_exponential(M, t=1.0):
    """e^{M t} by scaling-and-squaring with a Taylor-series core.

    The scaled matrix has 1-norm <= 0.5, where the truncated Taylor series
    converges to well below 1e-10 relative error; squaring then undoes the
    scaling.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"matrix_exponential needs a square matrix, got {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix_exponential: non-finite entries")
    A = M * t
    nrm = np.linalg.norm(A, 1)
    s = 0
    if nrm > 0.5:
        s = int(np.ceil(np.log2(nrm / 0.5)))
        A = A / (2.0 ** s)
    n = A.shape[0]
    E = np.eye(n)
    term = np.eye(n)
    for k in range(1, 40):
        term = term @ A / k
        E = E + term
        if np.linalg.norm(term, 1) < 1e-18 * max(np.linalg.norm(E, 1), 1.0):
            break
    for _ in range(s):
        E = E @ E
    return E


def _check_symmetric_negdef(W, tol=1e-10):
    if not np.allclose(W, W.T, atol=1e-12, rtol=0.0):
        raise NotNegativeDefiniteError("W must be symmetric")
    eigvals = np.linalg.eigvalsh(W)
    if eigvals.max() >= -tol:
        raise NotNegativeDefiniteError(
            f"W must be negative definite; largest eigenvalue {eigvals.max():g}"
        )
    return eigvals


def verify_steady_state_limit(W: InteractionMatrix, B: TargetMap, t_large) -> float:
    """Distance between e^{At} and its t -> infinity limit for the augmented system.

    The drug nodes are appended to the state so the forced linear dynamics
    become autonomous with block matrix [[0, 0], [B, W]]; as t grows the
    exponential converges to [[I, 0], [-inv(W) B, 0]] whenever W is symmetric
    negative definite.  Returns the Frobenius norm of the difference at
    t = t_large.
    """
    if W.form != W_FORM:
        raise ValueError("verify_steady_state_limit expects a W-form matrix")
    Wv = W.values
    _check_symmetric_negdef(Wv)
    Bv = B.values
    if Bv.shape[0] != Wv.shape[0]:
        raise DimensionError(
            f"target map has {Bv.shape[0]} responses, W is {Wv.shape[0]}x{Wv.shape[0]}"
        )
    p, q = Bv.shape
    aug = np.zeros((q + p, q + p))
    aug[q:, :q] = Bv
    aug[q:, q:] = Wv
    expo = matrix_exponential(aug, t_large)
    limit = np.zeros((q + p, q + p))
    limit[:q, :q] = np.eye(q)
    limit[q:, :q] = -np.linalg.solve(Wv, Bv)
    return float(np.linalg.norm(expo - limit, "fro"))
