"""Train/test split machinery and prediction-quality metrics.

Two validation protocols:

* repeated random folds, with per-point predictions averaged across every
  repetition in which the point fell in the test set, and
* leave-one-drug-out (LODO), which partitions conditions by whether the
  held-out drug was applied at all.

Both protocols, and the choice of lambda by inner cross-validation, run on
one engine, :func:`fit_blocks`, which fits every fold exactly once through a
model family, a block of folds at a time.  The families are the one place
that says how each model is fitted and predicts; the command line fits
through them too.  Pearson correlation and MAE are pooled over all
(condition, response) pairs; per-fold values and each fold's FitReport are
kept for diagnostics.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import NonConvergenceError, SingularMatrixError, ZeroVarianceError
from .fit import (
    FitConfig,
    fit_causal_linear,
    fit_causal_linear_stack,
    fit_causal_ode,
    fit_regression,
    fit_regression_lodo,
    fit_regression_stack,
    least_squares_w_init,
)
from .linear import predict_causal_linear, predict_regression
from .ode import OdeModel, steady_states
from .types import ConditionMatrix, InteractionMatrix, ResponseMatrix, TargetMap, check_paired


def pearson_rows(x, y):
    """Sample Pearson correlation of each row pair of two (F, m) arrays: a
    list of F floats, with None for a row pair where either has zero
    variance."""
    xc = x - x.mean(axis=1, keepdims=True)
    yc = y - y.mean(axis=1, keepdims=True)
    denom = np.sqrt(np.sum(xc * xc, axis=1) * np.sum(yc * yc, axis=1))
    defined = denom != 0.0
    r = np.divide(np.sum(xc * yc, axis=1), denom, out=np.zeros_like(denom), where=defined)
    return [v if ok else None for v, ok in zip(r.tolist(), defined.tolist())]


def mae_rows(x, y):
    """Mean absolute error of each row pair of two (F, m) arrays."""
    return np.mean(np.abs(x - y), axis=1)


def pearson(x, y):
    """Sample Pearson correlation; errors on zero variance instead of NaN.

    The one-row case of :func:`pearson_rows`."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape or x.size < 2:
        raise ValueError("pearson needs two equal-length vectors with >= 2 entries")
    r = pearson_rows(x[None], y[None])[0]
    if r is None:
        raise ZeroVarianceError("pearson undefined: an argument has zero variance")
    return r


def mae(x, y):
    """Mean absolute error between two equal-length vectors; the one-row
    case of :func:`mae_rows`."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise ValueError("mae needs two equal-length vectors")
    return float(mae_rows(x[None], y[None])[0])


@dataclass(frozen=True)
class SplitPlan:
    """A collection of train/test partitions of n condition rows."""

    kind: str  # "random-fold" or "lodo"
    n: int
    folds: tuple  # tuple of (train_idx, test_idx) pairs, each a np.ndarray
    held_out_drug: Optional[int] = None
    drug_name: Optional[str] = None

    def __post_init__(self):
        # folds of one size are checked as stacks of up to _BLOCK folds, which
        # bounds the copies the check makes
        sizes = {(len(train), len(test)) for train, test in self.folds}
        if len(sizes) == 1:
            groups = [self.folds[k:k + _BLOCK] for k in range(0, len(self.folds), _BLOCK)]
        else:
            groups = [(fold,) for fold in self.folds]
        for group in groups:
            trains, tests = (np.array(part) for part in zip(*group))
            combined = np.sort(np.hstack([trains, tests]), axis=1)
            if combined.shape[1] != self.n or np.any(combined != np.arange(self.n)):
                raise ValueError("train/test must partition all rows exactly")

    @property
    def repetitions(self):
        return len(self.folds)


def make_random_folds(n, train_fraction, reps, seed):
    """reps independent random splits with floor(train_fraction * n) training rows."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    n_train = int(np.floor(train_fraction * n))
    if n_train == 0 or n_train == n:
        raise ValueError(
            f"degenerate split: {n_train} training rows out of {n}"
        )
    rng = np.random.default_rng(seed)
    folds = []
    # the permutations of _BLOCK reps at a time are sorted as one array; one
    # (reps, n) array would be large enough to raise the process's peak memory
    for start in range(0, reps, _BLOCK):
        perms = np.array([rng.permutation(n) for _ in range(min(_BLOCK, reps - start))])
        perms[:, :n_train].sort(axis=1)
        perms[:, n_train:].sort(axis=1)
        folds += zip(perms[:, :n_train], perms[:, n_train:])
    return SplitPlan(kind="random-fold", n=n, folds=tuple(folds))


def make_lodo_splits(D: ConditionMatrix):
    """One SplitPlan per drug: train = conditions with zero dose of that drug."""
    plans = []
    for j, name in enumerate(D.drug_names):
        used = D.values[:, j] != 0.0
        if not np.any(used):
            raise ValueError(f"drug {name!r} is never used in any condition")
        train = np.flatnonzero(~used)
        test = np.flatnonzero(used)
        plans.append(
            SplitPlan(
                kind="lodo",
                n=D.n_conditions,
                folds=((train, test),),
                held_out_drug=j,
                drug_name=name,
            )
        )
    return plans


@dataclass(frozen=True)
class MetricReport:
    """Pooled Pearson/MAE plus a per-fold breakdown and provenance metadata.

    The protocol drivers also attach what the metrics were computed from,
    which ``to_dict`` leaves out: the scored condition ``rows``, their
    ``predicted`` responses (averaged over repetitions for random folds) and
    the FitReport of each fold behind them (None for a family that gives
    none).
    """

    pearson_r: float
    mae: float
    n_points: int
    per_fold: tuple = ()
    metadata: dict = field(default_factory=dict)
    rows: Optional[np.ndarray] = field(default=None, compare=False, repr=False)
    predicted: Optional[np.ndarray] = field(default=None, compare=False, repr=False)
    fits: tuple = field(default=(), compare=False, repr=False)

    def to_dict(self):
        return {
            "pearson_r": self.pearson_r,
            "mae": self.mae,
            "n_points": self.n_points,
            "per_fold": [dict(f) for f in self.per_fold],
            "metadata": dict(self.metadata),
        }


def summarize_fits(reports):
    """Convergence summary of fold fits, for a report's metadata.

    Folds whose family gives no FitReport (None) count in "folds" only.
    """
    folds = len(reports)
    reports = [r for r in reports if r is not None]
    iterations = [r.iterations for r in reports]
    return {
        "folds": folds,
        "unconverged": sum(not r.converged for r in reports),
        "iterations_min": min(iterations, default=None),
        "iterations_median": float(np.median(iterations)) if iterations else None,
        "iterations_max": max(iterations, default=None),
        "status": sorted({s for r in reports for s in r.status}),
    }


# ---------------------------------------------------------------------------
# model families: the one place that knows how each model is fitted
#
# Each family has fit(D_train, X_train, held_out_drug=None) -> (params,
# FitReport) and predict(params, D_test) -> predictions; ModelFamily builds
# the engine's fit_block on those two.  fit_block(D, X, block) takes a list
# of (train rows, test rows, held-out drug or None) and returns one (test
# predictions, FitReport) pair per fold.  The engine hands a family its
# folds a block at a time so closed-form solves can be stacked.  At lambda =
# 0 a block of equal-sized folds is fitted, checked and predicted as one
# stack: by stacked least squares for regression (random folds only; a
# LODO fold drops its drug's column) and by the stacked warm start and closed
# form (fit.fit_causal_linear_stack) for the causal-linear model.  Folds the
# closed form does not settle run their own fit, in order.


def _train_data(D, X, train):
    return (
        ConditionMatrix(D.values[train], D.drug_names),
        ResponseMatrix(X.values[train], X.response_names),
    )


def _train_stack(block):
    """The block's training rows as one (F, n_train) index array, or None
    when the folds differ in training size."""
    if len({len(train) for train, _, _ in block}) != 1:
        return None
    return np.array([train for train, _, _ in block])


class ModelFamily:
    """The engine's fit_block, on top of a subclass's fit and predict.

    Each fold is predicted before the next one is fitted, so the first fold
    that fails is the one that raises.  A family that can stack a block's
    fits overrides fit_block and keeps that order.
    """

    def fit_block(self, D, X, block):
        return [self._predicted(D, test, *self.fit(*_train_data(D, X, train), held))
                for train, test, held in block]

    def _predicted(self, D, test, params, report):
        """(test predictions, report) of one fitted fold."""
        return self.predict(params, ConditionMatrix(D.values[test], D.drug_names)), report


class RegressionFamily(ModelFamily):
    """Penalized regression; LODO uses the zero-coefficient convention.

    At lambda = 0 a block of equal-sized random folds is solved as one stack
    and predicted straight from the stacked coefficients: wrapping each
    fold's coefficients and test rows in checked types would cost more than
    its solve.
    """

    tag = "regression"

    def __init__(self, cfg: FitConfig = FitConfig()):
        self.cfg = cfg

    def fit(self, D_train, X_train, held_out_drug=None):
        if held_out_drug is not None:
            return fit_regression_lodo(D_train, X_train, held_out_drug, self.cfg)
        return fit_regression(D_train, X_train, self.cfg)

    def predict(self, R, D_test):
        return predict_regression(R, D_test).predicted

    def fit_block(self, D, X, block):
        train = _train_stack(block)
        if self.cfg.lam != 0.0 or train is None or any(h is not None for _, _, h in block):
            return super().fit_block(D, X, block)
        R, reports = fit_regression_stack(D.values[train], X.values[train], D.drug_names)
        return [(D.values[test] @ R_f, report)
                for (_, test, _), R_f, report in zip(block, R, reports)]


class CausalLinearFamily(ModelFamily):
    """Closed-form causal model; warm-started from least squares when possible.

    With cfg.w_init given, every fold fits from it instead.  The warm starts
    of a block of equal-sized folds are solved as one stack.  At lambda = 0
    with no mask the same stack checks, per fold, whether the fit would
    return its warm start unchanged (the closed form); those folds are
    predicted straight from the stacked inverses.  Every other fold runs its
    own proximal-gradient fit from its warm start, in order.
    """

    tag = "causal-linear"

    def __init__(self, B: TargetMap, cfg: FitConfig = FitConfig(max_iter=5000)):
        self.B = B
        self.cfg = cfg

    @property
    def _warm(self):
        return self.cfg.w_init is None

    def _fit_from(self, D_train, X_train, init):
        cfg = self.cfg if init is None else replace(self.cfg, w_init=init)
        return fit_causal_linear(D_train, X_train, self.B, cfg)

    def fit(self, D_train, X_train, held_out_drug=None):
        init = least_squares_w_init(D_train, X_train, self.B) if self._warm else None
        return self._fit_from(D_train, X_train, init)

    def predict(self, W, D_test):
        return predict_causal_linear(W, self.B, D_test).predicted

    def fit_block(self, D, X, block):
        train = _train_stack(block)
        if not self._warm or train is None:
            return super().fit_block(D, X, block)
        inits, closed = fit_causal_linear_stack(D.values[train], X.values[train], self.B, self.cfg)
        results = []
        for (_, test, _), rows, init, fold in zip(block, train, inits, closed):
            if fold is None:
                fitted = self._fit_from(*_train_data(D, X, rows), init)
                results.append(self._predicted(D, test, *fitted))
            else:
                Winv, report = fold
                results.append((D.values[test] @ self.B.values.T @ (-Winv), report))
        return results


class CausalOdeFamily(ModelFamily):
    """Nonlinear dynamics fit; predictions come from the fitted steady states.

    A test condition whose steady state does not settle raises
    NonConvergenceError instead of predicting from the unsettled state.
    """

    tag = "causal-ode"

    def __init__(self, B: TargetMap, template: OdeModel, cfg: FitConfig = FitConfig(max_iter=100),
                 fit_epsilon=False):
        self.B = B
        self.template = template
        self.cfg = cfg
        self.fit_epsilon = fit_epsilon

    def fit(self, D_train, X_train, held_out_drug=None):
        return fit_causal_ode(D_train, X_train, self.B, self.template, self.cfg, self.fit_epsilon)

    def predict(self, model, D_test):
        return steady_states(model, D_test.values).require_converged()


# ---------------------------------------------------------------------------
# the engine, the two protocols and lambda selection

# Folds handed to a family at once: bounds the stacked training data held in
# memory while keeping the per-block overhead small.
_BLOCK = 16


def fit_blocks(family, D: ConditionMatrix, X: ResponseMatrix, folds):
    """Fit every fold once, in order, and predict its test rows, a block at a time.

    folds holds (train rows, test rows, held-out drug or None) triples.
    Yields (block, results) per block of up to _BLOCK folds: results holds
    one (test predictions, FitReport) pair per fold of the block, from the
    family's fit_block.  A caller that pools predictions never holds them all.
    """
    for start in range(0, len(folds), _BLOCK):
        block = folds[start:start + _BLOCK]
        yield block, family.fit_block(D, X, block)


def fit_folds(family, D: ConditionMatrix, X: ResponseMatrix, folds):
    """The (test predictions, FitReport) pair of each fold of fit_blocks."""
    for _, results in fit_blocks(family, D, X, folds):
        yield from results


def _fold_scores(observed, predicted):
    """(Pearson r or None, MAE) of each fold, from lists of the folds' test
    responses and predictions; folds of one size are scored as one stack."""
    if len({obs.shape for obs in observed}) > 1:
        return [_fold_scores([obs], [pred])[0] for obs, pred in zip(observed, predicted)]
    x = np.reshape(observed, (len(observed), -1))
    y = np.reshape(predicted, (len(predicted), -1))
    return list(zip(pearson_rows(x, y), mae_rows(x, y).tolist()))


def _scored(observed, predicted):
    """(Pearson r, status): NaN and an error status when r is undefined."""
    try:
        return pearson(observed, predicted), "ok"
    except ZeroVarianceError:
        return float("nan"), "error: zero-variance predictions or observations"


def averaged_random_fold_eval(family, D: ConditionMatrix, X: ResponseMatrix, plan: SplitPlan):
    """Fit on each repetition's training rows, average test predictions per point.

    Conditions that never land in a test set are dropped with a warning.
    A constant prediction vector (zero variance) is reported as an error
    status in the metadata instead of propagating NaN.  The report carries
    the covered rows, their averaged predictions and every fold's FitReport;
    its metadata summarizes the fits under "fits".  Each block's folds are
    scored as one (F, m) stack of Pearson r and MAE (:func:`pearson_rows`,
    :func:`mae_rows`); a fold with zero variance gets pearson_r None.
    """
    if plan.kind != "random-fold":
        raise ValueError("averaged_random_fold_eval needs a random-fold plan")
    check_paired(D, X)
    n, p = X.values.shape
    pred_sum = np.zeros((n, p))
    pred_count = np.zeros(n, dtype=int)
    per_fold = []
    fits = []

    folds = [(train, test, None) for train, test in plan.folds]
    for block, results in fit_blocks(family, D, X, folds):
        tests = [test for _, test, _ in block]
        preds = [pred for pred, _ in results]
        scores = _fold_scores([X.values[test] for test in tests], preds)
        for test, pred, (_, fit), (fold_r, fold_mae) in zip(tests, preds, results, scores):
            fits.append(fit)
            pred_sum[test] += pred
            pred_count[test] += 1
            per_fold.append({"repetition": len(per_fold), "n_test": len(test),
                             "pearson_r": fold_r, "mae": fold_mae})

    covered = pred_count > 0
    if not np.all(covered):
        missing = np.flatnonzero(~covered)
        warnings.warn(
            f"{len(missing)} condition(s) never appeared in a test set and were "
            f"excluded: rows {missing.tolist()}"
        )
    avg = pred_sum[covered] / pred_count[covered, None]
    observed = X.values[covered]
    r, status = _scored(observed, avg)
    meta = {
        "model": family.tag,
        "pooling": "all-pairs",
        "repetitions": plan.repetitions,
        "excluded_conditions": int(np.sum(~covered)),
        "status": status,
        "fits": summarize_fits(fits),
    }
    return MetricReport(
        pearson_r=r,
        mae=mae(observed, avg),
        n_points=int(observed.size),
        per_fold=tuple(per_fold),
        metadata=meta,
        rows=np.flatnonzero(covered),
        predicted=avg,
        fits=tuple(fits),
    )


def lodo_eval(family, D: ConditionMatrix, X: ResponseMatrix, plans):
    """Evaluate one model family across all LODO folds.

    Returns (per-drug MetricReports, mean Pearson r across drugs).  A drug
    whose r is undefined (zero variance) gets r = NaN and an error status,
    and the mean is taken over the drugs whose r is defined (NaN if none).
    Each report carries its test rows, predictions and fold FitReport.
    """
    check_paired(D, X)
    for plan in plans:
        if plan.kind != "lodo":
            raise ValueError("lodo_eval needs LODO plans")

    folds = [plan.folds[0] + (plan.held_out_drug,) for plan in plans]
    reports = []
    for plan, (_, test, _), (preds, fit) in zip(plans, folds, fit_folds(family, D, X, folds)):
        observed = X.values[test]
        r, status = _scored(observed, preds)
        reports.append(MetricReport(
            pearson_r=r,
            mae=mae(observed, preds),
            n_points=int(observed.size),
            metadata={
                "model": family.tag,
                "held_out_drug": plan.drug_name,
                "pooling": "all-pairs",
                "status": status,
            },
            rows=test,
            predicted=preds,
            fits=(fit,),
        ))
    defined = [rep.pearson_r for rep in reports if not np.isnan(rep.pearson_r)]
    mean_r = float(np.mean(defined)) if defined else float("nan")
    return reports, mean_r


def select_lambda_cv(
    D: ConditionMatrix,
    X: ResponseMatrix,
    B: TargetMap,
    grid=None,
    n_folds: int = 5,
    seed: int = 0,
    cfg: FitConfig = FitConfig(max_iter=2000, tol=1e-7),
):
    """Pick lambda for the causal linear fit by k-fold cross-validation.

    Needed when q < p leaves the unregularized fit unidentified.  Every
    lambda is fitted on the same folds from the same start, cfg.w_init or
    -I (no least-squares warm start); a lambda whose fit or prediction fails
    on any fold scores inf.  Returns (best_lambda, {lambda: mean held-out
    SSE}).
    """
    if grid is None:
        grid = np.logspace(-3, 1, 9)
    perm = np.random.default_rng(seed).permutation(D.n_conditions)
    folds = [(np.setdiff1d(perm, test), test, None) for test in np.array_split(perm, n_folds)]
    if cfg.w_init is None:
        cfg = replace(cfg, w_init=InteractionMatrix(-np.eye(B.n_responses)))
    scores = {}
    for lam in grid:
        family = CausalLinearFamily(B, replace(cfg, lam=float(lam)))
        try:
            sse = [float(np.sum((X.values[test] - preds) ** 2))
                   for (_, test, _), (preds, _) in zip(folds, fit_folds(family, D, X, folds))]
        except (SingularMatrixError, NonConvergenceError):
            sse = [np.inf]
        scores[float(lam)] = float(np.mean(sse))
    best = min(scores, key=scores.get)
    return best, scores
