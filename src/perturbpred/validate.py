"""Train/test split machinery and prediction-quality metrics.

Two validation protocols:

* repeated random folds, with per-point predictions averaged across every
  repetition in which the point fell in the test set, and
* leave-one-drug-out (LODO), which partitions conditions by whether the
  held-out drug was applied at all.

Pearson correlation and MAE are pooled over all (condition, response)
pairs; per-fold values are kept for diagnostics.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ZeroVarianceError
from .fit import FitConfig, fit_causal_linear, fit_causal_ode, fit_regression, fit_regression_lodo, least_squares_w_init
from .linear import predict_causal_linear, predict_regression
from .ode import OdeModel, steady_states
from .types import ConditionMatrix, ResponseMatrix, TargetMap, check_paired


def pearson(x, y):
    """Sample Pearson correlation; errors on zero variance instead of NaN."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape or x.size < 2:
        raise ValueError("pearson needs two equal-length vectors with >= 2 entries")
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.sqrt(np.sum(xc * xc) * np.sum(yc * yc))
    if denom == 0.0:
        raise ZeroVarianceError("pearson undefined: an argument has zero variance")
    return float(np.sum(xc * yc) / denom)


def mae(x, y):
    """Mean absolute error between two equal-length vectors."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise ValueError("mae needs two equal-length vectors")
    return float(np.mean(np.abs(x - y)))


@dataclass(frozen=True)
class SplitPlan:
    """A collection of train/test partitions of n condition rows."""

    kind: str  # "random-fold" or "lodo"
    n: int
    folds: tuple  # tuple of (train_idx, test_idx) pairs, each a np.ndarray
    seed: Optional[int] = None
    train_fraction: Optional[float] = None
    held_out_drug: Optional[int] = None
    drug_name: Optional[str] = None

    def __post_init__(self):
        for train, test in self.folds:
            combined = np.sort(np.concatenate([train, test]))
            if not np.array_equal(combined, np.arange(self.n)):
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
    for _ in range(reps):
        perm = rng.permutation(n)
        folds.append((np.sort(perm[:n_train]), np.sort(perm[n_train:])))
    return SplitPlan(
        kind="random-fold",
        n=n,
        folds=tuple(folds),
        seed=seed,
        train_fraction=train_fraction,
    )


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
    """Pooled Pearson/MAE plus a per-fold breakdown and provenance metadata."""

    pearson_r: float
    mae: float
    n_points: int
    per_fold: tuple = ()
    metadata: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "pearson_r": self.pearson_r,
            "mae": self.mae,
            "n_points": self.n_points,
            "per_fold": [dict(f) for f in self.per_fold],
            "metadata": dict(self.metadata),
        }


# ---------------------------------------------------------------------------
# model families: uniform fit/predict wrappers around the estimators


class RegressionFamily:
    """Penalized regression; LODO uses the zero-coefficient convention."""

    tag = "regression"

    def __init__(self, cfg: FitConfig = FitConfig()):
        self.cfg = cfg

    def fit_predict(self, D_train, X_train, D_test, held_out_drug=None):
        if held_out_drug is not None:
            R, _ = fit_regression_lodo(D_train, X_train, held_out_drug, self.cfg)
        else:
            R, _ = fit_regression(D_train, X_train, self.cfg)
        return predict_regression(R, D_test).predicted


class CausalLinearFamily:
    """Closed-form causal model; warm-started from least squares when possible."""

    tag = "causal-linear"

    def __init__(self, B: TargetMap, cfg: FitConfig = FitConfig(max_iter=5000), warm_start=True):
        self.B = B
        self.cfg = cfg
        self.warm_start = warm_start

    def fit(self, D_train, X_train):
        cfg = self.cfg
        if self.warm_start and cfg.w_init is None:
            init = least_squares_w_init(D_train, X_train, self.B)
            if init is not None:
                cfg = FitConfig(
                    lam=cfg.lam,
                    max_iter=cfg.max_iter,
                    tol=cfg.tol,
                    step_size=cfg.step_size,
                    mask=cfg.mask,
                    w_init=init,
                )
        return fit_causal_linear(D_train, X_train, self.B, cfg)

    def fit_predict(self, D_train, X_train, D_test, held_out_drug=None):
        W, _ = self.fit(D_train, X_train)
        return predict_causal_linear(W, self.B, D_test).predicted


class CausalOdeFamily:
    """Nonlinear dynamics fit; predictions come from the fitted steady states.

    A test condition whose steady state does not settle raises
    NonConvergenceError instead of predicting from the unsettled state.
    """

    tag = "causal-ode"

    def __init__(self, B: TargetMap, template: OdeModel, cfg: FitConfig = FitConfig(max_iter=100), **fit_kwargs):
        self.B = B
        self.template = template
        self.cfg = cfg
        self.fit_kwargs = fit_kwargs

    def fit_predict(self, D_train, X_train, D_test, held_out_drug=None):
        model, _ = fit_causal_ode(
            D_train, X_train, self.B, self.template, self.cfg, **self.fit_kwargs
        )
        return steady_states(model, D_test.values).require_converged()


# ---------------------------------------------------------------------------
# protocol drivers


def _map_folds(fn, folds, jobs):
    """Run fn over folds, optionally threaded; results come back in fold order
    so downstream accumulation is deterministic regardless of jobs."""
    if jobs == 1 or len(folds) == 1:
        return [fn(f) for f in folds]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, folds))


def averaged_random_fold_eval(
    family, D: ConditionMatrix, X: ResponseMatrix, plan: SplitPlan, jobs: int = 1
):
    """Fit on each repetition's training rows, average test predictions per point.

    Conditions that never land in a test set are dropped with a warning.
    A constant prediction vector (zero variance) is reported as an error
    status in the metadata instead of propagating NaN.
    """
    if plan.kind != "random-fold":
        raise ValueError("averaged_random_fold_eval needs a random-fold plan")
    check_paired(D, X)
    n, p = X.values.shape
    pred_sum = np.zeros((n, p))
    pred_count = np.zeros(n, dtype=int)
    per_fold = []

    def run_fold(fold):
        train, test = fold
        D_train = ConditionMatrix(D.values[train], D.drug_names)
        X_train = ResponseMatrix(X.values[train], X.response_names)
        D_test = ConditionMatrix(D.values[test], D.drug_names)
        return family.fit_predict(D_train, X_train, D_test)

    all_preds = _map_folds(run_fold, plan.folds, jobs)
    for rep, ((train, test), preds) in enumerate(zip(plan.folds, all_preds)):
        pred_sum[test] += preds
        pred_count[test] += 1
        try:
            fold_r = pearson(X.values[test], preds)
        except ZeroVarianceError:
            fold_r = None
        per_fold.append(
            {"repetition": rep, "n_test": len(test), "pearson_r": fold_r,
             "mae": mae(X.values[test], preds)}
        )

    covered = pred_count > 0
    if not np.all(covered):
        missing = np.flatnonzero(~covered)
        warnings.warn(
            f"{len(missing)} condition(s) never appeared in a test set and were "
            f"excluded: rows {missing.tolist()}"
        )
    avg = pred_sum[covered] / pred_count[covered, None]
    observed = X.values[covered]
    meta = {
        "model": family.tag,
        "pooling": "all-pairs",
        "repetitions": plan.repetitions,
        "excluded_conditions": int(np.sum(~covered)),
    }
    try:
        r = pearson(observed, avg)
        status = "ok"
    except ZeroVarianceError:
        r = float("nan")
        status = "error: zero-variance predictions or observations"
    meta["status"] = status
    return MetricReport(
        pearson_r=r,
        mae=mae(observed, avg),
        n_points=int(observed.size),
        per_fold=tuple(per_fold),
        metadata=meta,
    )


def lodo_eval(family, D: ConditionMatrix, X: ResponseMatrix, plans, jobs: int = 1):
    """Evaluate one model family across all LODO folds.

    Returns (per-drug MetricReports, mean Pearson r across drugs).
    """
    check_paired(D, X)
    for plan in plans:
        if plan.kind != "lodo":
            raise ValueError("lodo_eval needs LODO plans")

    def run_plan(plan):
        train, test = plan.folds[0]
        D_train = ConditionMatrix(D.values[train], D.drug_names)
        X_train = ResponseMatrix(X.values[train], X.response_names)
        D_test = ConditionMatrix(D.values[test], D.drug_names)
        preds = family.fit_predict(
            D_train, X_train, D_test, held_out_drug=plan.held_out_drug
        )
        observed = X.values[test]
        return MetricReport(
            pearson_r=pearson(observed, preds),
            mae=mae(observed, preds),
            n_points=int(observed.size),
            metadata={
                "model": family.tag,
                "held_out_drug": plan.drug_name,
                "pooling": "all-pairs",
            },
        )

    reports = _map_folds(run_plan, list(plans), jobs)
    mean_r = float(np.mean([rep.pearson_r for rep in reports]))
    return reports, mean_r
