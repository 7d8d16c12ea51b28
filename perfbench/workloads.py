"""Seeded inputs, command lists and output oracles of the benchmark workloads.

Each workload's ``setup(main, seed, work_dir)`` writes the workload's input
files (through ``perturbpred simulate`` where the inputs are the simulated
benchmark, otherwise with numpy) and returns the list of CLI commands the
benchmark runs in a closed loop.  Every command carries a check that reads
what the command wrote and compares it with an oracle computed here with
numpy; the check raises ``CheckError`` on a mismatch and returns the
command's quality figure (a Pearson r or a fit objective).
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

CV_REPS = 1000
CV_TRAIN_FRACTION = 0.7  # the cv default; the oracle rebuilds the same folds
LASSO_LAMBDAS = ("0.1", "1.0")
LASSO_NOISE_SD = "0.002"
LASSO_MAX_ITER = "100000"
ODE_TOL = "5e-5"
SCREEN_MAX_DRUGS = 5


class CheckError(Exception):
    """A command's output disagrees with the oracle."""


class SetupError(Exception):
    """A set-up command failed, so the workload cannot run."""


@dataclass(frozen=True)
class Command:
    label: str
    argv: list
    check: Callable[[], Optional[float]]


@dataclass(frozen=True)
class Matrix:
    ids: list
    cols: list
    values: np.ndarray


def read_matrix(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return Matrix([r[0] for r in rows[1:]], rows[0][1:],
                  np.array([[float(v) for v in r[1:]] for r in rows[1:]]))


def write_matrix(path, ids, cols, values):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + list(cols))
        for rid, row in zip(ids, values):
            writer.writerow([rid] + ["%.17g" % v for v in row])


def _run(main, argv):
    code = main(argv)
    if code != 0:
        raise SetupError(f"set-up command {' '.join(argv)} exited {code}")


def _expect(ok, message):
    if not ok:
        raise CheckError(message)


def _expect_close(got, want, what, rtol):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    _expect(got.shape == want.shape, f"{what}: shape {got.shape}, expected {want.shape}")
    scale = max(1.0, float(np.max(np.abs(want))))
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    _expect(err <= rtol * scale, f"{what}: max deviation {err:.3g} from the oracle")


def _pearson(a, b):
    return float(np.corrcoef(np.ravel(a), np.ravel(b))[0, 1])


@dataclass(frozen=True)
class Fixtures:
    conditions: str
    responses: str
    targets: str
    D: Matrix
    X: Matrix
    B: Matrix


def _simulate(main, seed, out_dir, extra=()):
    _run(main, ["simulate", "--seed", str(seed), "--out-dir", out_dir, *extra])
    paths = [os.path.join(out_dir, f"sim_{k}.csv") for k in ("conditions", "responses", "targets")]
    return Fixtures(*paths, *(read_matrix(p) for p in paths))


# ---------------------------------------------------------------------------
# cv


def _rf_folds(n, seed):
    """The random-fold plan of ``cv --scheme rf``: one permutation per rep."""
    rng = np.random.default_rng(seed)
    n_train = int(np.floor(CV_TRAIN_FRACTION * n))
    for _ in range(CV_REPS):
        perm = rng.permutation(n)
        yield np.sort(perm[:n_train]), np.sort(perm[n_train:])


def _fold_predict(model, D, X, B, train, test, drop=None):
    """Least-squares fit on train rows, predictions for test rows.

    At lambda = 0 both models have a closed form: regression is
    X = D R and the causal model is X = (D B^T) M with M = -inv(W).
    """
    if model == "regression":
        design = D if drop is None else np.delete(D, drop, axis=1)
    else:
        design = D @ B.T
    coef, *_ = np.linalg.lstsq(design[train], X[train], rcond=None)
    return design[test] @ coef


def _check_cv(fx, scheme, model, seed, out_dir):
    with open(os.path.join(out_dir, "cv_report.json")) as fh:
        report = json.load(fh)
    with open(os.path.join(out_dir, "scatter.csv"), newline="") as fh:
        scatter = list(csv.reader(fh))[1:]
    labels = [(row[0], row[1]) for row in scatter]
    observed = np.array([float(row[2]) for row in scatter])
    predicted = np.array([float(row[3]) for row in scatter])
    D, X, B = fx.D.values, fx.X.values, fx.B.values
    n, p = X.shape
    resp = fx.X.cols

    if scheme == "rf":
        pred_sum = np.zeros((n, p))
        count = np.zeros(n)
        for train, test in _rf_folds(n, seed):
            pred_sum[test] += _fold_predict(model, D, X, B, train, test)
            count[test] += 1
        covered = np.flatnonzero(count)
        want_labels = [(fx.X.ids[i], r) for i in covered for r in resp]
        want = (pred_sum[covered] / count[covered, None]).ravel()
        want_obs = X[covered].ravel()
        blocks = [len(want)]
        reported = report["pearson_r"]
    else:
        want_labels, want, want_obs, blocks = [], [], [], []
        for j, drug in enumerate(fx.D.cols):
            used = D[:, j] != 0.0
            train, test = np.flatnonzero(~used), np.flatnonzero(used)
            want_labels += [(f"{drug}:{fx.D.ids[i]}", r) for i in test for r in resp]
            want.append(_fold_predict(model, D, X, B, train, test, drop=j).ravel())
            want_obs.append(X[test].ravel())
            blocks.append(test.size * p)
        want, want_obs = np.concatenate(want), np.concatenate(want_obs)
        reported = report["mean_pearson_r"]

    _expect(labels == want_labels, f"scatter rows do not match the {scheme} plan")
    _expect_close(observed, want_obs, "scatter observed", 1e-15)
    _expect_close(predicted, want, "scatter predicted", 1e-8)
    # rf pools every point; lodo averages the per-drug r
    ends = np.cumsum(blocks)
    r = float(np.mean([_pearson(observed[e - b:e], predicted[e - b:e])
                       for b, e in zip(blocks, ends)]))
    _expect(math.isclose(r, reported, rel_tol=1e-9, abs_tol=1e-12),
            f"cv_report r {reported!r} != r {r!r} recomputed from scatter.csv")
    return reported


def setup_cv(main, seed, work_dir):
    fx = _simulate(main, seed, os.path.join(work_dir, "fixtures"))
    commands = []
    for scheme in ("rf", "lodo"):
        for model in ("regression", "causal-linear"):
            out = os.path.join(work_dir, f"cv-{scheme}-{model}")
            # --jobs 1: the default (one thread per CPU) makes wall time swing with
            # the load on the other CPUs, too much for the benchmark's bounds
            argv = ["cv", "--scheme", scheme, "--model", model, "--conditions", fx.conditions,
                    "--responses", fx.responses, "--seed", str(seed), "--jobs", "1",
                    "--out-dir", out]
            if scheme == "rf":
                argv += ["--reps", str(CV_REPS)]
            if model != "regression":
                argv += ["--targets", fx.targets]
            commands.append(Command(f"cv {scheme} {model}", argv,
                                    partial(_check_cv, fx, scheme, model, seed, out)))
    return commands


# ---------------------------------------------------------------------------
# lasso-fit


def _causal_parts(W, C, X):
    """Smooth loss ||X + C inv(W)||^2 and its gradient in W."""
    Winv = np.linalg.inv(W)
    E = X + C @ Winv
    return float(np.sum(E * E)), -2.0 * (Winv @ E.T @ C @ Winv).T


def _l1_off(W, lam):
    return lam * float(np.sum(np.abs(W - np.diag(np.diag(W)))))


def _descent_probe(W, C, X, lam, steps=50):
    """Objective after ``steps`` more proximal-gradient steps from W.

    A fit that stopped far from a minimum loses much more objective here
    than the fit's own stopping rule allows.
    """
    off = ~np.eye(W.shape[0], dtype=bool)
    loss, grad = _causal_parts(W, C, X)
    step = 1.0
    for _ in range(steps):
        while step > 1e-20:
            W_new = W - step * grad
            W_new[off] = np.sign(W_new[off]) * np.maximum(np.abs(W_new[off]) - step * lam, 0.0)
            if np.linalg.cond(W_new) < 1e12:
                loss_new, grad_new = _causal_parts(W_new, C, X)
                diff = W_new - W
                if loss_new <= loss + np.sum(grad * diff) + np.sum(diff * diff) / (2 * step):
                    break
            step *= 0.5
        else:
            break
        W, loss, grad, step = W_new, loss_new, grad_new, step * 2.0
    return loss + _l1_off(W, lam)


def _check_lasso(fx, lam, out_dir):
    from perturbpred.fit import causal_objective
    from perturbpred.types import ConditionMatrix, ResponseMatrix, TargetMap

    with open(os.path.join(out_dir, "fit_report.json")) as fh:
        report = json.load(fh)
    W = read_matrix(os.path.join(out_dir, "interaction_w.csv")).values
    reported = report["final_objective"]
    _expect(report["converged"], "fit report says not converged")
    recomputed = causal_objective(W, ConditionMatrix(fx.D.values), ResponseMatrix(fx.X.values),
                                  TargetMap(fx.B.values), lam)
    _expect(math.isclose(recomputed, reported, rel_tol=1e-9),
            f"objective {reported!r} != {recomputed!r} recomputed from interaction_w.csv")
    probed = _descent_probe(W, fx.D.values @ fx.B.values.T, fx.X.values, lam)
    _expect(probed >= reported * (1.0 - 1e-4),
            f"50 more proximal steps lower the objective from {reported:.8g} to {probed:.8g}")
    return reported


def setup_lasso_fit(main, seed, work_dir):
    fx = _simulate(main, seed, os.path.join(work_dir, "fixtures"), ["--noise-sd", LASSO_NOISE_SD])
    commands = []
    for lam in LASSO_LAMBDAS:
        out = os.path.join(work_dir, f"fit-lam{lam}")
        argv = ["fit", "--model", "causal-linear", "--lam", lam, "--max-iter", LASSO_MAX_ITER,
                "--conditions", fx.conditions, "--responses", fx.responses,
                "--targets", fx.targets, "--out-dir", out]
        commands.append(Command(f"fit causal-linear lam {lam}", argv,
                                partial(_check_lasso, fx, float(lam), out)))
    return commands


# ---------------------------------------------------------------------------
# fit-ode


def ode_instance():
    """The p=2, q=3, n=8 sigmoid instance of the small-amplitude ODE fit test.

    Drawn as tests/test_fit.py draws it, from generator seed 16: a stable W,
    B ~ 0.2 N(0, 1) and doses U(0, 0.5).  Returns (W, B, D).
    """
    rng = np.random.default_rng(16)
    p, q, n = 2, 3, 8
    while True:
        W = -np.eye(p) - np.diag(rng.uniform(0.0, 1.0, p))
        W += 0.2 * rng.normal(size=(p, p)) * (~np.eye(p, dtype=bool))
        if np.max(np.linalg.eigvals(W).real) < -0.2:
            break
    B = 0.2 * rng.normal(size=(p, q))
    return W, B, rng.uniform(0.0, 0.5, (n, q))


def _check_ode(X, out_dir):
    with open(os.path.join(out_dir, "fit_report.json")) as fh:
        report = json.load(fh)
    total_ss = float(np.sum(X * X))
    _expect(report["converged"], "fit report says not converged")
    _expect(report["final_objective"] < total_ss,
            f"objective {report['final_objective']:.6g} is not below the total sum of "
            f"squares {total_ss:.6g}")
    for name in ("interaction_w.csv", "epsilon.csv"):
        _expect(np.all(np.isfinite(read_matrix(os.path.join(out_dir, name)).values)),
                f"{name} holds non-finite values")
    return report["final_objective"]


def setup_fit_ode(main, seed, work_dir):
    from perturbpred.ode import OdeModel, steady_state
    from perturbpred.types import InteractionMatrix, TargetMap

    # The seed orders the conditions; the instance itself is fixed, because
    # the fit's iteration count (and so its time) jumps with the instance.
    W, B, D = ode_instance()
    p, q = B.shape
    order = np.random.default_rng(seed).permutation(len(D))
    D = D[order]
    truth = OdeModel(InteractionMatrix(W), TargetMap(B), 1.0, envelope="sigmoid")
    X = np.array([steady_state(truth, d).state for d in D])
    ids = [f"cond_{k + 1}" for k in order]
    drugs = [f"drug_{j + 1}" for j in range(q)]
    resp = [f"resp_{i + 1}" for i in range(p)]
    os.makedirs(work_dir, exist_ok=True)
    paths = {k: os.path.join(work_dir, f"ode_{k}.csv") for k in ("conditions", "responses", "targets")}
    write_matrix(paths["conditions"], ids, drugs, D)
    write_matrix(paths["responses"], ids, resp, X)
    write_matrix(paths["targets"], resp, drugs, B)
    out = os.path.join(work_dir, "fit-ode")
    argv = ["fit", "--model", "causal-ode", "--envelope", "sigmoid", "--tol", ODE_TOL,
            "--conditions", paths["conditions"], "--responses", paths["responses"],
            "--targets", paths["targets"], "--out-dir", out]
    return [Command("fit causal-ode sigmoid", argv, partial(_check_ode, X, out))]


# ---------------------------------------------------------------------------
# predict-screen


def screen_design(n_drugs, seed):
    """Every combination of 1..SCREEN_MAX_DRUGS drugs at unit dose, seeded order."""
    rows = [combo for k in range(1, SCREEN_MAX_DRUGS + 1)
            for combo in itertools.combinations(range(n_drugs), k)]
    D = np.zeros((len(rows), n_drugs))
    for r, combo in enumerate(rows):
        D[r, list(combo)] = 1.0
    return D[np.random.default_rng(seed).permutation(len(rows))]


def _check_predict(screen, B, params, out):
    W = read_matrix(params)
    got = read_matrix(out)
    _expect(got.ids == screen.ids, "prediction rows do not match the screen conditions")
    _expect(got.cols == W.cols, "prediction columns do not match the responses")
    want = screen.values @ B.T @ (-np.linalg.inv(W.values))
    _expect_close(got.values, want, "predictions", 1e-9)
    return None


def setup_predict_screen(main, seed, work_dir):
    fx = _simulate(main, seed, os.path.join(work_dir, "fixtures"))
    fit_dir = os.path.join(work_dir, "setup-fit")
    _run(main, ["fit", "--model", "causal-linear", "--conditions", fx.conditions,
                "--responses", fx.responses, "--targets", fx.targets, "--out-dir", fit_dir])
    params = os.path.join(fit_dir, "interaction_w.csv")
    D = screen_design(len(fx.D.cols), seed)
    screen = Matrix([f"screen_{k + 1}" for k in range(len(D))], fx.D.cols, D)
    screen_path = os.path.join(work_dir, "screen.csv")
    write_matrix(screen_path, screen.ids, screen.cols, screen.values)
    out = os.path.join(work_dir, "predict", "predictions.csv")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    argv = ["predict", "--model", "causal-linear", "--params", params,
            "--conditions", screen_path, "--targets", fx.targets, "--out", out]
    return [Command("predict causal-linear screen", argv,
                    partial(_check_predict, screen, fx.B.values, params, out))]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable
    quality: Optional[str]  # name of the figure the checks return
    combine: Optional[Callable]  # how one list's figures combine


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cv", "cv rf 1000 reps and cv lodo for both linear models, --jobs 1: the "
                 "commands run most; fold orchestration, the scatter refit and the warm start "
                 "dominate",
                 setup_cv, "cv_pearson_r", lambda xs: float(np.mean(xs))),
        Workload("lasso-fit", "causal-linear fits at lambda 0.1 and 1.0: the proximal-gradient "
                 "path, where per-iteration cost and backtracking in fit dominate",
                 setup_lasso_fit, "fit_objective", sum),
        Workload("fit-ode", "sigmoid causal-ode fit, p=2 q=3 n=8: nearly all time is RK4 "
                 "steady-state solves in ode", setup_fit_ode, "fit_objective", sum),
        Workload("predict-screen", "causal-linear predictions for a 4,943-condition screen: "
                 "the only workload where CSV reading and writing carry real volume",
                 setup_predict_screen, None, None),
    )
}
