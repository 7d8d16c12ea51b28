"""Command-line interface.

Subcommands: simulate, fit, predict, cv, export-network.  Option precedence
is CLI flag > config file (--config, flat key=value) > built-in default; the
resolved settings are logged to stderr at startup.  Numeric outputs depend
only on inputs and --seed; timestamps appear only in the log stream.

Exit codes: 0 success, 2 parse/config error, 3 dimension error, 4 fit or
steady-state non-convergence, 1 anything else.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from . import __version__
from .errors import (
    ConfigError,
    DimensionError,
    DivergenceError,
    NonConvergenceError,
    ParseError,
    PerturbpredError,
    SingularMatrixError,
)
from .fit import (
    FitConfig,
    fit_causal_linear,
    fit_causal_ode,
    fit_regression,
    least_squares_w_init,
    select_lambda_cv,
)
from .io import (
    default_output_dir,
    export_network,
    load_condition_matrix,
    load_matrix_csv,
    load_response_matrix,
    load_run_config,
    save_matrix_csv,
    write_json_report,
)
from .linear import predict_causal_linear, predict_regression, w_to_dag
from .ode import OdeModel, steady_states
from .simulate import SimSpec, build_dag, build_design, build_targets, simulate_responses
from .types import (
    A_FORM,
    W_FORM,
    ConditionMatrix,
    EdgeMask,
    InteractionMatrix,
    RegressionCoefficients,
    TargetMap,
    check_paired,
)
from .validate import (
    CausalLinearFamily,
    CausalOdeFamily,
    RegressionFamily,
    averaged_random_fold_eval,
    lodo_eval,
    make_lodo_splits,
    make_random_folds,
)

log = logging.getLogger("perturbpred")

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DIMENSION = 3
EXIT_NONCONVERGENCE = 4
EXIT_OTHER = 1


def _resolve(args, config, key, default, convert=str):
    """CLI flag > config file > built-in default."""
    cli_value = getattr(args, key.replace("-", "_"), None)
    if cli_value is not None:
        return cli_value
    if key in config:
        try:
            return convert(config[key])
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from exc
    return default


def _load_config(args, known_keys):
    if getattr(args, "config", None):
        return load_run_config(args.config, known_keys)
    return {}


def _log_settings(command, settings):
    log.info("command %s settings: %s", command, json.dumps(settings, sort_keys=True, default=str))


def _load_targets(path):
    values, _, _ = load_matrix_csv(path)
    return TargetMap(values)


def _load_interaction(path, form):
    values, _, names = load_matrix_csv(path)
    return InteractionMatrix(values, form=form), names


def _load_mask(path):
    values, _, _ = load_matrix_csv(path)
    return EdgeMask(values != 0.0)


def _ensure_outdir(path):
    os.makedirs(path, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args):
    config = _load_config(args, {"seed", "noise-sd", "out-dir"})
    seed = _resolve(args, config, "seed", 0, int)
    noise_sd = _resolve(args, config, "noise-sd", 0.2, float)
    out_dir = _ensure_outdir(_resolve(args, config, "out-dir", default_output_dir()))
    _log_settings("simulate", {"seed": seed, "noise_sd": noise_sd, "out_dir": out_dir})

    D = build_design()
    B = build_targets()
    A = build_dag()
    spec = SimSpec(noise_sd=noise_sd, seed=seed)
    X = simulate_responses(spec, D)

    cond_ids = [f"cond_{i + 1}" for i in range(D.n_conditions)]
    resp_names = X.response_names
    save_matrix_csv(
        os.path.join(out_dir, "sim_conditions.csv"), D.values, cond_ids, D.drug_names
    )
    save_matrix_csv(
        os.path.join(out_dir, "sim_targets.csv"), B.values, resp_names, D.drug_names
    )
    save_matrix_csv(
        os.path.join(out_dir, "sim_targets_misspecified.csv"),
        build_targets(misspecified=True).values,
        resp_names,
        D.drug_names,
    )
    save_matrix_csv(
        os.path.join(out_dir, "sim_network_a.csv"), A.values, resp_names, resp_names
    )
    save_matrix_csv(
        os.path.join(out_dir, "sim_responses.csv"), X.values, cond_ids, resp_names
    )
    log.info("wrote simulation fixtures to %s", out_dir)
    return EXIT_OK


# ---------------------------------------------------------------------------
# fit


def cmd_fit(args):
    keys = {"model", "conditions", "responses", "targets", "lam", "max-iter", "tol",
            "mask", "envelope", "out-dir"}
    config = _load_config(args, keys)
    model = _resolve(args, config, "model", None)
    if model not in ("regression", "causal-linear", "causal-ode"):
        raise ConfigError(f"--model must be regression|causal-linear|causal-ode, got {model!r}")
    conditions = _resolve(args, config, "conditions", None)
    responses = _resolve(args, config, "responses", None)
    if not conditions or not responses:
        raise ConfigError("fit requires --conditions and --responses")
    lam = _resolve(args, config, "lam", 0.0, float)
    max_iter = _resolve(args, config, "max-iter", 10000, int)
    tol = _resolve(args, config, "tol", 1e-8, float)
    out_dir = _ensure_outdir(_resolve(args, config, "out-dir", default_output_dir()))
    mask_path = _resolve(args, config, "mask", None)
    envelope = _resolve(args, config, "envelope", "identity")
    _log_settings("fit", {"model": model, "lam": lam, "max_iter": max_iter,
                          "tol": tol, "out_dir": out_dir})

    D, _ = load_condition_matrix(conditions)
    X, _ = load_response_matrix(responses)
    check_paired(D, X)
    mask = _load_mask(mask_path) if mask_path else None
    cfg = FitConfig(lam=lam, max_iter=max_iter, tol=tol, mask=mask)

    if model == "regression":
        R, report = fit_regression(D, X, cfg)
        save_matrix_csv(
            os.path.join(out_dir, "coefficients.csv"),
            R.values,
            D.drug_names,
            X.response_names,
            id_header="drug",
        )
    else:
        targets = _resolve(args, config, "targets", None)
        if not targets:
            raise ConfigError(f"{model} requires --targets")
        B = _load_targets(targets)
        if model == "causal-linear":
            init = least_squares_w_init(D, X, B)
            if init is not None:
                cfg = FitConfig(lam=lam, max_iter=max_iter, tol=tol, mask=mask,
                                w_init=init)
            W, report = fit_causal_linear(D, X, B, cfg)
        else:
            template = OdeModel(
                InteractionMatrix(-np.eye(B.n_responses), form=W_FORM),
                B,
                np.ones(B.n_responses),
                envelope=envelope,
            )
            ode_model, report = fit_causal_ode(
                D, X, B, template, cfg, fit_epsilon=args.fit_epsilon
            )
            W = ode_model.W
            save_matrix_csv(
                os.path.join(out_dir, "epsilon.csv"),
                ode_model.epsilon[None, :],
                ["epsilon"],
                X.response_names,
            )
        save_matrix_csv(
            os.path.join(out_dir, "interaction_w.csv"),
            W.values,
            X.response_names,
            X.response_names,
        )
    write_json_report(os.path.join(out_dir, "fit_report.json"), report.to_dict())
    log.info("fit complete: objective %.6g after %d iterations (converged=%s)",
             report.final_objective, report.iterations, report.converged)
    return EXIT_OK if report.converged else EXIT_NONCONVERGENCE


# ---------------------------------------------------------------------------
# predict


def cmd_predict(args):
    keys = {"model", "params", "conditions", "targets", "epsilon", "envelope", "out"}
    config = _load_config(args, keys)
    model = _resolve(args, config, "model", None)
    params = _resolve(args, config, "params", None)
    conditions = _resolve(args, config, "conditions", None)
    out = _resolve(args, config, "out", None)
    if model not in ("regression", "causal-linear", "causal-ode"):
        raise ConfigError(f"--model must be regression|causal-linear|causal-ode, got {model!r}")
    if not params or not conditions or not out:
        raise ConfigError("predict requires --params, --conditions, and --out")
    _log_settings("predict", {"model": model, "params": params, "out": out})

    D, cond_ids = load_condition_matrix(conditions)
    if model == "regression":
        values, _, resp_names = load_matrix_csv(params)
        result = predict_regression(RegressionCoefficients(values), D)
    else:
        targets = _resolve(args, config, "targets", None)
        if not targets:
            raise ConfigError(f"{model} requires --targets")
        B = _load_targets(targets)
        W, resp_names = _load_interaction(params, W_FORM)
        if model == "causal-linear":
            result = predict_causal_linear(W, B, D)
        else:
            envelope = _resolve(args, config, "envelope", "identity")
            eps_path = _resolve(args, config, "epsilon", None)
            if eps_path:
                eps_values, _, _ = load_matrix_csv(eps_path)
                eps = eps_values.ravel()
            else:
                eps = np.ones(W.size)
            ode_model = OdeModel(W, B, eps, envelope=envelope)
            preds = steady_states(ode_model, D.values).require_converged(cond_ids)
            save_matrix_csv(out, preds, cond_ids, resp_names)
            log.info("wrote predictions to %s", out)
            return EXIT_OK
    save_matrix_csv(out, result.predicted, cond_ids, resp_names)
    log.info("wrote predictions to %s", out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# cv


def _make_family(model, B, lam, max_iter, tol, mask, envelope):
    if model == "regression":
        return RegressionFamily(FitConfig(lam=lam, max_iter=max_iter, tol=tol))
    cfg = FitConfig(lam=lam, max_iter=max_iter, tol=tol, mask=mask)
    if model == "causal-linear":
        return CausalLinearFamily(B, cfg)
    template = OdeModel(
        InteractionMatrix(-np.eye(B.n_responses), form=W_FORM),
        B,
        np.ones(B.n_responses),
        envelope=envelope,
    )
    return CausalOdeFamily(B, template, cfg)


def cmd_cv(args):
    keys = {"scheme", "model", "conditions", "responses", "targets", "reps",
            "train-fraction", "seed", "lam", "max-iter", "tol", "mask",
            "envelope", "jobs", "out-dir"}
    config = _load_config(args, keys)
    scheme = _resolve(args, config, "scheme", None)
    model = _resolve(args, config, "model", None)
    if scheme not in ("rf", "lodo"):
        raise ConfigError(f"--scheme must be rf|lodo, got {scheme!r}")
    if model not in ("regression", "causal-linear", "causal-ode"):
        raise ConfigError(f"--model must be regression|causal-linear|causal-ode, got {model!r}")
    conditions = _resolve(args, config, "conditions", None)
    responses = _resolve(args, config, "responses", None)
    if not conditions or not responses:
        raise ConfigError("cv requires --conditions and --responses")
    reps = _resolve(args, config, "reps", 1000, int)
    train_fraction = _resolve(args, config, "train-fraction", 0.7, float)
    seed = _resolve(args, config, "seed", 0, int)
    lam = _resolve(args, config, "lam", None, float)
    max_iter = _resolve(args, config, "max-iter", 10000, int)
    tol = _resolve(args, config, "tol", 1e-8, float)
    jobs = _resolve(args, config, "jobs", os.cpu_count() or 1, int)
    out_dir = _ensure_outdir(_resolve(args, config, "out-dir", default_output_dir()))
    mask_path = _resolve(args, config, "mask", None)
    envelope = _resolve(args, config, "envelope", "identity")
    _log_settings("cv", {"scheme": scheme, "model": model, "reps": reps,
                         "train_fraction": train_fraction, "seed": seed,
                         "lam": lam, "jobs": jobs, "out_dir": out_dir})

    D, cond_ids = load_condition_matrix(conditions)
    X, resp_ids = load_response_matrix(responses)
    check_paired(D, X)
    mask = _load_mask(mask_path) if mask_path else None

    B = None
    if model != "regression":
        targets = _resolve(args, config, "targets", None)
        if not targets:
            raise ConfigError(f"{model} requires --targets")
        B = _load_targets(targets)

    lam_meta = {}
    if lam is None:
        if model == "causal-linear" and D.n_drugs < X.n_responses:
            # unregularized W unidentified when q < p: pick lambda by inner CV
            lam, scores = select_lambda_cv(D, X, B, seed=seed,
                                           cfg=FitConfig(max_iter=max_iter, tol=tol, mask=mask))
            lam_meta = {"lambda_selected_by_cv": lam, "lambda_cv_scores": scores}
            log.info("selected lambda %.4g by inner cross-validation", lam)
        else:
            lam = 0.0

    family = _make_family(model, B, lam, max_iter, tol, mask, envelope)

    if scheme == "rf":
        plan = make_random_folds(D.n_conditions, train_fraction, reps, seed)
        report = averaged_random_fold_eval(family, D, X, plan, jobs=jobs)
        payload = report.to_dict()
        payload["metadata"].update({"scheme": "rf", "lambda": lam, **lam_meta})
        # scatter: one row per averaged (condition, response) point
        scatter_path = os.path.join(out_dir, "scatter.csv")
        _write_rf_scatter(scatter_path, family, D, X, plan, cond_ids, jobs)
    else:
        plans = make_lodo_splits(D)
        reports, mean_r = lodo_eval(family, D, X, plans, jobs=jobs)
        payload = {
            "mean_pearson_r": mean_r,
            "per_drug": [rep.to_dict() for rep in reports],
            "metadata": {"scheme": "lodo", "model": model, "lambda": lam, **lam_meta},
        }
        scatter_path = os.path.join(out_dir, "scatter.csv")
        _write_lodo_scatter(scatter_path, family, D, X, plans, cond_ids, jobs)

    write_json_report(os.path.join(out_dir, "cv_report.json"), payload)
    log.info("wrote cv report and scatter data to %s", out_dir)
    return EXIT_OK


def _write_rf_scatter(path, family, D, X, plan, cond_ids, jobs):
    from .validate import _map_folds

    n, p = X.values.shape
    pred_sum = np.zeros((n, p))
    pred_count = np.zeros(n, dtype=int)

    def run_fold(fold):
        train, test = fold
        D_train = ConditionMatrix(D.values[train], D.drug_names)
        from .types import ResponseMatrix

        X_train = ResponseMatrix(X.values[train], X.response_names)
        D_test = ConditionMatrix(D.values[test], D.drug_names)
        return family.fit_predict(D_train, X_train, D_test)

    for (train, test), preds in zip(plan.folds, _map_folds(run_fold, plan.folds, jobs)):
        pred_sum[test] += preds
        pred_count[test] += 1
    _write_scatter_rows(
        path,
        [
            (cond_ids[i], X.response_names[j], X.values[i, j],
             pred_sum[i, j] / pred_count[i])
            for i in range(n)
            if pred_count[i] > 0
            for j in range(p)
        ],
    )


def _write_lodo_scatter(path, family, D, X, plans, cond_ids, jobs):
    from .types import ResponseMatrix

    rows = []
    for plan in plans:
        train, test = plan.folds[0]
        D_train = ConditionMatrix(D.values[train], D.drug_names)
        X_train = ResponseMatrix(X.values[train], X.response_names)
        D_test = ConditionMatrix(D.values[test], D.drug_names)
        preds = family.fit_predict(D_train, X_train, D_test, held_out_drug=plan.held_out_drug)
        for local, i in enumerate(test):
            for j in range(X.values.shape[1]):
                rows.append(
                    (f"{plan.drug_name}:{cond_ids[i]}", X.response_names[j],
                     X.values[i, j], preds[local, j])
                )
    _write_scatter_rows(path, rows)


def _write_scatter_rows(path, rows):
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["condition", "response", "observed", "predicted"])
        for cond, resp, obs, pred in rows:
            writer.writerow([cond, resp, "%.17g" % obs, "%.17g" % pred])


# ---------------------------------------------------------------------------
# export-network


def cmd_export_network(args):
    keys = {"network", "form", "threshold", "out-dir"}
    config = _load_config(args, keys)
    network = _resolve(args, config, "network", None)
    if not network:
        raise ConfigError("export-network requires --network")
    form = _resolve(args, config, "form", "A-form")
    threshold = _resolve(args, config, "threshold", 0.2, float)
    out_dir = _ensure_outdir(_resolve(args, config, "out-dir", default_output_dir()))
    _log_settings("export-network", {"network": network, "form": form,
                                     "threshold": threshold, "out_dir": out_dir})

    if form == W_FORM:
        W, names = _load_interaction(network, W_FORM)
        A = w_to_dag(W).values
    elif form == A_FORM:
        M, names = _load_interaction(network, A_FORM)
        A = M.values
    else:
        raise ConfigError(f"--form must be {A_FORM!r} or {W_FORM!r}, got {form!r}")

    exported = export_network(A, names, threshold)
    exported.write_csv(os.path.join(out_dir, "network_edges.csv"))
    exported.write_dot(os.path.join(out_dir, "network.dot"))
    log.info("exported %d edge(s) at threshold %g", len(exported.edges), threshold)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="perturbpred",
        description="Causal and regression models for drug perturbation response prediction",
    )
    parser.add_argument("--version", action="version", version=f"perturbpred {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write benchmark fixture matrices and simulated responses")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--noise-sd", type=float)
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit a model and write its parameters")
    p.add_argument("--config")
    p.add_argument("--model")
    p.add_argument("--conditions")
    p.add_argument("--responses")
    p.add_argument("--targets")
    p.add_argument("--lam", type=float)
    p.add_argument("--max-iter", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--mask")
    p.add_argument("--envelope")
    p.add_argument("--fit-epsilon", action="store_true")
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="predict responses for new conditions")
    p.add_argument("--config")
    p.add_argument("--model")
    p.add_argument("--params")
    p.add_argument("--conditions")
    p.add_argument("--targets")
    p.add_argument("--epsilon")
    p.add_argument("--envelope")
    p.add_argument("--out")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("cv", help="run random-fold or leave-one-drug-out validation")
    p.add_argument("--config")
    p.add_argument("--scheme")
    p.add_argument("--model")
    p.add_argument("--conditions")
    p.add_argument("--responses")
    p.add_argument("--targets")
    p.add_argument("--reps", type=int)
    p.add_argument("--train-fraction", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--lam", type=float)
    p.add_argument("--max-iter", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--mask")
    p.add_argument("--envelope")
    p.add_argument("--jobs", type=int)
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("export-network", help="threshold a fitted network into an edge list")
    p.add_argument("--config")
    p.add_argument("--network")
    p.add_argument("--form")
    p.add_argument("--threshold", type=float)
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_export_network)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(levelname)s %(message)s",
    )
    try:
        return args.func(args)
    except (ParseError, ConfigError) as exc:
        log.error("%s", exc)
        return EXIT_PARSE
    except DimensionError as exc:
        log.error("%s", exc)
        return EXIT_DIMENSION
    except (NonConvergenceError, DivergenceError, SingularMatrixError) as exc:
        log.error("%s", exc)
        return EXIT_NONCONVERGENCE
    except PerturbpredError as exc:
        log.error("%s", exc)
        return EXIT_OTHER


if __name__ == "__main__":
    sys.exit(main())
