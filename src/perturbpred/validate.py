"""Train/test split machinery and prediction-quality metrics.

Two validation protocols:

* repeated random folds, with per-point predictions averaged across every
  repetition in which the point fell in the test set, and
* leave-one-drug-out (LODO), which partitions conditions by whether the
  held-out drug was applied at all.

Both protocols, and the choice of lambda by inner cross-validation, hand
their SplitPlans, which check each fold, to one engine, :func:`fit_blocks`,
which fits every fold exactly once, a block of equal-sized folds at a time:
in closed form in the basis of a family's design where the family states
one, and through the family's own fit elsewhere.  The families are the one
place that says how each model is fitted and predicts; the command line
fits through them too.  Pearson correlation and MAE are pooled over all
(condition, response) pairs; per-fold values and each fold's FitReport are
kept for diagnostics.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

import numpy as np

from .errors import DimensionError, NonConvergenceError, SingularMatrixError, ZeroVarianceError
from .fit import (
    CLOSED_FORM,
    FitConfig,
    factor_design,
    fit_causal_linear,
    fit_causal_ode,
    fit_least_squares_folds,
    fit_regression,
)
from .linear import predict_causal_linear, predict_regression
from .ode import OdeModel, steady_states
from .types import (
    ConditionMatrix,
    InteractionMatrix,
    RegressionCoefficients,
    ResponseMatrix,
    TargetMap,
    check_paired,
    check_targets,
)


def pearson_rows(x, y):
    """Sample Pearson correlation of each row pair of two (F, m) arrays: a
    list of F floats, with None for a row pair where either has zero
    variance.

    Each row is scored as scaled by the power of two that brings its largest
    magnitude into [0.5, 1) (:func:`_unit_rows`).  r does not depend on the
    scale, and a power of two scales exactly, so a row whose sums of squares
    stay in range keeps its bits, and one whose sums, or their product, would
    overflow or underflow (responses near 1e80 or 1e-160) is scored as if it
    were in range.
    """
    xc, yc = (v - v.mean(axis=1, keepdims=True) for v in (_unit_rows(x), _unit_rows(y)))
    denom = np.sqrt(np.sum(xc * xc, axis=1) * np.sum(yc * yc, axis=1))
    defined = denom != 0.0
    r = np.divide(np.sum(xc * yc, axis=1), denom, out=np.zeros_like(denom), where=defined)
    return [v if ok else None for v, ok in zip(r.tolist(), defined.tolist())]


def _unit_rows(v):
    """v with each row multiplied by the power of two 2^-e, where 2^e is the
    frexp exponent of the row's largest magnitude: exact, as long as no
    entry drops below the normal range."""
    return np.ldexp(v, -np.frexp(np.max(np.abs(v), axis=1, keepdims=True))[1])


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
        # checked in the blocks the engine fits (_blocks), which bounds the
        # copies the check makes; the engine checks no fold again
        for block in _blocks((self,)):
            for rows in (block.train, block.test):
                if not np.issubdtype(rows.dtype, np.integer):
                    raise ValueError(f"train/test rows must be integer indices, got {rows.dtype}")
            combined = np.sort(np.hstack([block.train, block.test]), axis=1)
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
    # the permutations of _BLOCK reps at a time are drawn and sorted as one
    # array; one (reps, n) array would be large enough to raise the process's
    # peak memory.  Permuting each row of the block in one call draws what one
    # rng.permutation(n) per rep would, from the same stream.
    for start in range(0, reps, _BLOCK):
        perms = rng.permuted(np.tile(np.arange(n), (min(_BLOCK, reps - start), 1)), axis=1)
        perms[:, :n_train].sort(axis=1)
        perms[:, n_train:].sort(axis=1)
        folds += zip(perms[:, :n_train], perms[:, n_train:])
    return SplitPlan(kind="random-fold", n=n, folds=tuple(folds))


def make_lodo_splits(D: ConditionMatrix):
    """One SplitPlan per drug: train = conditions with zero dose of that drug.

    A drug that no condition uses leaves its fold nothing to test, and one
    that every condition uses leaves it nothing to train on; either raises
    one ValueError that names every such drug.
    """
    plans = []
    refused = []
    for j, name in enumerate(D.drug_names):
        used = D.values[:, j] != 0.0
        if not np.any(used):
            refused.append(f"drug {name!r} is never used in any condition, "
                           "so leaving it out tests nothing")
        elif np.all(used):
            refused.append(f"drug {name!r} is used in every condition, "
                           "so leaving it out leaves no condition to train on")
        else:
            plans.append(SplitPlan(kind="lodo", n=D.n_conditions,
                                   folds=((np.flatnonzero(~used), np.flatnonzero(used)),),
                                   held_out_drug=j, drug_name=name))
    if refused:
        raise ValueError("; ".join(refused))
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
# Each family has fit(D_train, X_train) -> (params, FitReport) and
# predict(params, D_test) -> predictions, and fit_fold, the fit the engine
# runs on a fold: the family's own fit, so such a fold is fitted as
# `perturbpred fit` fits it, except for regression's one rule: a drug that
# no training row doses gets coefficient 0, as in every LODO fold.  A family
# whose folds have a closed form also states its design, design(D, X): D for
# regression at lambda = 0, D B^T for the causal-linear model at lambda = 0
# with no mask and no w_init, None otherwise; and closed_form, the
# (iterations, status, screen) that fit.fit_least_squares_folds gives the
# folds it settles.  The engine, fit_blocks, does the rest.


class FoldBlock(NamedTuple):
    """Folds of one training size and one test size, stacked: train is
    (F, s) and test (F, t)."""

    train: np.ndarray
    test: np.ndarray


class ModelFamily:
    """fit_fold and design, on top of a subclass's fit and predict."""

    def design(self, D, X):
        """The design whose least squares fits a fold in closed form, or
        None: here, no fold has one."""
        return None

    def fit_fold(self, D_train, X_train):
        """(params, FitReport) of a fold that no closed form settles: fit."""
        return self.fit(D_train, X_train)


class RegressionFamily(ModelFamily):
    """Penalized regression; in cross-validation, a drug that no training
    row of a fold doses gets coefficient 0.

    At lambda = 0 the folds that the basis of D certifies are solved in
    closed form by the engine and predicted straight from their
    coefficients as one stack: wrapping each fold's coefficients and test
    rows in checked types would cost more than its solve.
    """

    tag = "regression"
    closed_form = (1, (), False)

    def __init__(self, cfg: FitConfig = FitConfig()):
        self.cfg = cfg

    def fit(self, D_train, X_train):
        return fit_regression(D_train, X_train, self.cfg)

    def fit_fold(self, D_train, X_train):
        """fit on the drugs that some training row doses, with coefficient 0
        for every other drug: regression cannot predict a drug it has never
        seen, as every LODO fold's held-out drug is.  fit itself refuses such
        a drug at lambda = 0.  A fold that doses every drug, or none, is
        fitted by fit."""
        dosed = np.any(D_train.values != 0.0, axis=0)
        if dosed.all() or not dosed.any():
            return self.fit(D_train, X_train)
        keep = np.flatnonzero(dosed)
        R_kept, report = self.fit(
            ConditionMatrix(D_train.values[:, keep], [D_train.drug_names[j] for j in keep]),
            X_train)
        R = np.zeros((D_train.n_drugs, X_train.n_responses))
        R[keep] = R_kept.values
        return RegressionCoefficients(R), report

    def predict(self, R, D_test):
        return predict_regression(R, D_test).predicted

    def design(self, D, X):
        return D.values if self.cfg.lam == 0.0 else None


class CausalLinearFamily(ModelFamily):
    """The causal-linear model, fitted by fit.fit_causal_linear: in closed
    form at lambda = 0, otherwise from cfg.w_init or the least-squares W.

    At lambda = 0 with no mask and no w_init, the folds that the basis of
    D B^T certifies, and whose least-squares M passes the closed form's
    screen, are solved and predicted as one stack by the engine.
    """

    tag = "causal-linear"
    closed_form = (0, (CLOSED_FORM,), True)

    def __init__(self, B: TargetMap, cfg: FitConfig = FitConfig(max_iter=5000)):
        self.B = B
        self.cfg = cfg

    def fit(self, D_train, X_train):
        return fit_causal_linear(D_train, X_train, self.B, self.cfg)

    def predict(self, W, D_test):
        return predict_causal_linear(W, self.B, D_test).predicted

    def design(self, D, X):
        cfg = self.cfg
        check_targets(self.B, D, X, cfg.mask)
        if cfg.w_init is not None or cfg.lam != 0.0 or cfg.mask is not None:
            return None
        return D.values @ self.B.values.T


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

    def fit(self, D_train, X_train):
        return fit_causal_ode(D_train, X_train, self.B, self.template, self.cfg, self.fit_epsilon)

    def predict(self, model, D_test):
        return steady_states(model, D_test.values).require_converged()


# ---------------------------------------------------------------------------
# the engine, the two protocols and lambda selection

# Folds handed to a family at once, and drawn and checked at once by
# make_random_folds and SplitPlan.  A block's temporaries grow with it: the
# held-out rows of its folds' bases and the (F, n, p) product of
# fit.fit_least_squares_folds.  On perfbench's cv workload (2-core machine,
# two 20-s runs each) blocks of 32, 64 and 128 took 12%, 15% and 23% less
# wall time than the 16 that the earlier training-row route used, and
# raised peak memory by 0.6%, 2.0% and 4.7%; 64 keeps that rise within half
# of the benchmark's 5% bound.
_BLOCK = 64


def _blocks(plans):
    """The folds of the plans as FoldBlocks of up to _BLOCK consecutive folds
    of one training size and one test size, in order."""
    folds = (fold for plan in plans for fold in plan.folds)
    for _, run in itertools.groupby(folds, key=lambda fold: (len(fold[0]), len(fold[1]))):
        run = list(run)
        for start in range(0, len(run), _BLOCK):
            train, test = zip(*run[start:start + _BLOCK])
            yield FoldBlock(np.array(train), np.array(test))


def fit_blocks(family, D: ConditionMatrix, X: ResponseMatrix, plans):
    """Fit every fold of a sequence of SplitPlans once, in order, and predict
    its test rows, a block at a time.

    Each plan has checked that its folds partition its rows, so a fold
    trains on every row it does not test; a plan for another number of rows
    than D has raises DimensionError before any fold is fitted.  Yields
    (block, (predictions, reports)) per FoldBlock of up to _BLOCK
    consecutive folds of one size: predictions holds each fold's test
    predictions and reports its FitReport.

    Where the family states a design (its design hook), that design is
    factored once (fit.factor_design), and each block's folds that its
    orthonormal basis certifies as well-conditioned are solved as one (F, t,
    p) stack by fit.fit_least_squares_folds, reporting the family's
    closed_form.  The basis never certifies a fold that leaves a drug
    undosed: that drug's all-zero training column leaves the fold's basis
    rank-deficient.  Every other fold is fitted by the family's fit_fold and
    predicted before the next one is fitted, in order, so the first fold
    that fails is the one that raises.  Which route fits a fold depends on
    the fold alone, not on the folds that share its block, so the results do
    not depend on _BLOCK.  A caller that pools predictions never holds them
    all.
    """
    for plan in plans:
        if plan.n != D.n_conditions:
            raise DimensionError(f"the split plan partitions {plan.n} rows, "
                                 f"but there are {D.n_conditions} conditions")
    design = family.design(D, X)
    basis = None if design is None else factor_design(design)
    for block in _blocks(plans):
        if basis is None:
            preds, reports = [None] * len(block.test), [None] * len(block.test)
        else:
            preds, reports = fit_least_squares_folds(basis, X.values, block.test,
                                                     *family.closed_form)
        for f, report in enumerate(reports):
            if report is None:
                train, test = block.train[f], block.test[f]
                params, reports[f] = family.fit_fold(
                    ConditionMatrix(D.values[train], D.drug_names),
                    ResponseMatrix(X.values[train], X.response_names))
                preds[f] = family.predict(params, ConditionMatrix(D.values[test], D.drug_names))
        yield block, (preds, reports)


def fit_folds(family, D: ConditionMatrix, X: ResponseMatrix, plans):
    """The (test predictions, FitReport) pair of each fold of fit_blocks."""
    for _, (preds, reports) in fit_blocks(family, D, X, plans):
        yield from zip(preds, reports)


def _scored(observed, predicted):
    """(Pearson r, status): NaN and an error status when r is undefined."""
    try:
        return pearson(observed, predicted), "ok"
    except ZeroVarianceError:
        return float("nan"), "error: zero-variance predictions or observations"


def _pooled(pred_sum, tests, preds):
    """pred_sum, (n, p), plus each fold's (t, p) predictions preds at its
    test rows tests, (F, t), as a new array.

    One np.bincount adds the weights in the order of its index array, so
    with pred_sum itself as the first n p weights, each sum is built exactly
    as np.add.at(pred_sum, tests, preds) builds it, in fold order, bit for
    bit; bincount's zero start only turns a -0.0 that nothing is added to
    into +0.0, and a pred_sum that starts at zeros never holds one.
    """
    n, p = pred_sum.shape
    index = np.concatenate([np.arange(n * p), (tests[:, :, None] * p + np.arange(p)).ravel()])
    weights = np.concatenate([pred_sum.ravel(), preds.ravel()])
    return np.bincount(index, weights, minlength=n * p).reshape(n, p)


def averaged_random_fold_eval(family, D: ConditionMatrix, X: ResponseMatrix, plan: SplitPlan):
    """Fit on each repetition's training rows, average test predictions per point.

    Conditions that never land in a test set are dropped with a warning.
    A constant prediction vector (zero variance) is reported as an error
    status in the metadata instead of propagating NaN.  The report carries
    the covered rows, their averaged predictions and every fold's FitReport;
    its metadata summarizes the fits under "fits".  Each block's (F, t, p)
    stack of predictions is scored as one (F, m) stack of Pearson r and MAE
    (:func:`pearson_rows`, :func:`mae_rows`), and pooled with one
    np.bincount (:func:`_pooled`), which adds in fold order, as a loop over
    the folds would.  A fold with
    zero variance gets pearson_r None.
    """
    if plan.kind != "random-fold":
        raise ValueError("averaged_random_fold_eval needs a random-fold plan")
    check_paired(D, X)
    n, p = X.values.shape
    pred_sum = np.zeros((n, p))
    pred_count = np.zeros(n, dtype=int)
    per_fold = []
    fits = []

    for block, (preds, reports) in fit_blocks(family, D, X, [plan]):
        fits += reports
        tests = block.test
        preds = np.asarray(preds)
        pred_sum = _pooled(pred_sum, tests, preds)
        pred_count += np.bincount(tests.ravel(), minlength=n)
        x = X.values[tests].reshape(len(tests), -1)
        y = preds.reshape(len(tests), -1)
        for fold_r, fold_mae in zip(pearson_rows(x, y), mae_rows(x, y).tolist()):
            per_fold.append({"repetition": len(per_fold), "n_test": tests.shape[1],
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
    if any(plan.kind != "lodo" for plan in plans):
        raise ValueError("lodo_eval needs LODO plans")

    reports = []
    for plan, (preds, fit) in zip(plans, fit_folds(family, D, X, plans)):
        test = plan.folds[0][1]
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

    Needed when q < p leaves the unregularized fit unidentified.  The rows
    are split into min(n_folds, n) test sets, so that none is empty.  Every
    lambda is fitted on the same folds from the same start, cfg.w_init or
    -I (no least-squares warm start); a lambda whose fit or prediction fails
    on any fold scores inf.  Returns (best_lambda, {lambda: mean held-out
    SSE}).
    """
    if grid is None:
        grid = np.logspace(-3, 1, 9)
    n = D.n_conditions
    perm = np.random.default_rng(seed).permutation(n)
    plan = SplitPlan(kind="random-fold", n=n,
                     folds=tuple((np.setdiff1d(perm, test), test)
                                 for test in np.array_split(perm, min(n_folds, n))))
    if cfg.w_init is None:
        cfg = replace(cfg, w_init=InteractionMatrix(-np.eye(B.n_responses)))
    scores = {}
    for lam in grid:
        family = CausalLinearFamily(B, replace(cfg, lam=float(lam)))
        try:
            sse = [float(np.sum((X.values[test] - preds) ** 2))
                   for (_, test), (preds, _) in zip(plan.folds, fit_folds(family, D, X, [plan]))]
        except (SingularMatrixError, NonConvergenceError):
            sse = [np.inf]
        scores[float(lam)] = float(np.mean(sse))
    best = min(scores, key=scores.get)
    return best, scores
