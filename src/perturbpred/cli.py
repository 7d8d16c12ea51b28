"""Command-line interface.

Subcommands: simulate, fit, predict, cv, export-network.  Option precedence
is CLI flag > config file (--config, flat key=value, keyed by flag name) >
built-in default; every option's resolved value is logged to stderr at
startup.  Numeric outputs depend only on inputs and --seed; timestamps
appear only in the log stream.

Exit codes: 0 success, 2 parse/config error, 3 dimension error, 4 fit or
steady-state non-convergence, 1 anything else.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import replace

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
from .fit import FitConfig
from .io import (
    FLOAT_FMT,
    csv_labels,
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
from .ode import ENVELOPES, OdeModel, steady_states
from .simulate import SimSpec, build_dag, build_design, build_targets, simulate_responses
from .types import (
    A_FORM,
    W_FORM,
    EdgeMask,
    InteractionMatrix,
    RegressionCoefficients,
    TargetMap,
    check_paired,
    check_targets,
)
from .validate import (
    CausalLinearFamily,
    CausalOdeFamily,
    RegressionFamily,
    averaged_random_fold_eval,
    lodo_eval,
    make_lodo_splits,
    make_random_folds,
    select_lambda_cv,
    summarize_fits,
)

log = logging.getLogger("perturbpred")

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DIMENSION = 3
EXIT_NONCONVERGENCE = 4
EXIT_OTHER = 1


MODELS = ("regression", "causal-linear", "causal-ode")


class _Options:
    """One command's options: CLI flag > config file > built-in default.

    The config file may set any of the command's flags, by the flag's name
    without dashes.  Every value resolved is recorded, and log() writes the
    record as the command's settings line.
    """

    def __init__(self, args):
        self.args = args
        self.config = load_run_config(args.config, args.config_keys) if args.config else {}
        self.resolved = {}

    def __call__(self, key, default=None, convert=str):
        value = getattr(self.args, key.replace("-", "_"))
        if value is None and key in self.config:
            try:
                value = convert(self.config[key])
            except ValueError as exc:
                raise ConfigError(f"config key {key!r}: {exc}") from exc
        if value is None:
            value = default
        self.resolved[key.replace("-", "_")] = value
        return value

    def log(self):
        log.info("command %s settings: %s", self.args.command,
                 json.dumps(self.resolved, sort_keys=True, default=str))


def _boolean(text):
    lowered = text.lower()
    if lowered not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return lowered == "true"


def _check_model(model):
    if model not in MODELS:
        raise ConfigError(f"--model must be {'|'.join(MODELS)}, got {model!r}")


def _check_envelope(envelope):
    if envelope not in ENVELOPES:
        raise ConfigError(f"--envelope must be {'|'.join(ENVELOPES)}, got {envelope!r}")


def _refuse_unused(model, mask=None, envelope="identity", fit_epsilon=False, epsilon=None):
    """Refuse an option the chosen model would silently ignore.

    The identity envelope and a fixed epsilon are what the linear models
    already assume, so stating them is accepted; anything else is an error.
    """
    unused = [flag for flag, given in (
        ("--mask", model == "regression" and mask),
        ("--envelope", model != "causal-ode" and envelope != "identity"),
        ("--fit-epsilon", model != "causal-ode" and fit_epsilon),
        ("--epsilon", model != "causal-ode" and epsilon),
    ) if given]
    if unused:
        raise ConfigError(f"{model} does not use {', '.join(unused)}")


def _model_targets(model, targets):
    """The target map a causal model needs; None for regression."""
    if model == "regression":
        return None
    if not targets:
        raise ConfigError(f"{model} requires --targets")
    return TargetMap(load_matrix_csv(targets)[0])


def _load_interaction(path, form):
    values, _, names = load_matrix_csv(path)
    return InteractionMatrix(values, form=form), names


def _load_mask(path):
    values, _, _ = load_matrix_csv(path)
    return EdgeMask(values != 0.0)


def _built(build, *args, **kwargs):
    """build(*args, **kwargs), with the ValueError it raises for an option
    value out of range turned into a ConfigError."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _ensure_outdir(path):
    """Make the directory path, with its parents, unless it exists; a path
    that cannot be made one is a ConfigError naming it."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {path}: {exc.strerror}") from exc
    return path


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args):
    opt = _Options(args)
    seed = opt("seed", 0, int)
    noise_sd = opt("noise-sd", 0.2, float)
    out_dir = _ensure_outdir(opt("out-dir", default_output_dir()))
    opt.log()

    D = build_design()
    B = build_targets()
    A = build_dag()
    spec = _built(SimSpec, noise_sd=noise_sd, seed=seed)
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


def _fit_inputs(opt, lam_default, own=lambda: None):
    """Resolve, check and load what fit and cv share.

    Resolves the model, data, target map, lambda (default lam_default),
    max-iter, tol, mask and envelope options, and fit's --fit-epsilon, and
    refuses those the model would ignore; then own(), which resolves and
    checks the command's other options; then makes the out-dir, logs the
    settings line, loads the conditions, responses, mask and target map and
    builds the FitConfig, at lambda 0 when lam_default is None and no lambda
    is given.  Returns these as a Namespace, with own()'s result as own.
    """
    model = opt("model")
    _check_model(model)
    conditions = opt("conditions")
    responses = opt("responses")
    if not conditions or not responses:
        raise ConfigError(f"{opt.args.command} requires --conditions and --responses")
    targets = opt("targets")
    lam = opt("lam", lam_default, float)
    max_iter = opt("max-iter", 10000, int)
    tol = opt("tol", 1e-8, float)
    mask_path = opt("mask")
    envelope = opt("envelope", "identity")
    fit_epsilon = opt("fit-epsilon", False, _boolean) if opt.args.command == "fit" else False
    _refuse_unused(model, mask=mask_path, envelope=envelope, fit_epsilon=fit_epsilon)
    _check_envelope(envelope)
    own = own()
    out_dir = _ensure_outdir(opt("out-dir", default_output_dir()))
    opt.log()

    D, cond_ids = load_condition_matrix(conditions)
    X, _ = load_response_matrix(responses)
    check_paired(D, X)
    mask = _load_mask(mask_path) if mask_path else None
    B = _model_targets(model, targets)
    cfg = _built(FitConfig, lam=0.0 if lam is None else lam, max_iter=max_iter, tol=tol, mask=mask)
    return argparse.Namespace(model=model, lam=lam, envelope=envelope, fit_epsilon=fit_epsilon,
                              out_dir=out_dir, D=D, cond_ids=cond_ids, X=X, B=B, cfg=cfg, own=own)


def cmd_fit(args):
    run = _fit_inputs(_Options(args), 0.0)
    model, D, X, out_dir = run.model, run.D, run.X, run.out_dir
    params, report = _make_family(model, run.B, run.cfg, run.envelope, run.fit_epsilon).fit(D, X)

    if model == "regression":
        save_matrix_csv(
            os.path.join(out_dir, "coefficients.csv"),
            params.values,
            D.drug_names,
            X.response_names,
            id_header="drug",
        )
    else:
        W = params
        if model == "causal-ode":
            save_matrix_csv(
                os.path.join(out_dir, "epsilon.csv"),
                params.epsilon[None, :],
                ["epsilon"],
                X.response_names,
            )
            W = params.W
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
    opt = _Options(args)
    model = opt("model")
    params = opt("params")
    conditions = opt("conditions")
    targets = opt("targets")
    eps_path = opt("epsilon")
    envelope = opt("envelope", "identity")
    out = opt("out")
    _check_model(model)
    if not params or not conditions or not out:
        raise ConfigError("predict requires --params, --conditions, and --out")
    _refuse_unused(model, envelope=envelope, epsilon=eps_path)
    _check_envelope(envelope)
    _ensure_outdir(os.path.dirname(out) or os.curdir)
    opt.log()

    D, cond_ids = load_condition_matrix(conditions)
    B = _model_targets(model, targets)
    if model == "regression":
        values, _, resp_names = load_matrix_csv(params)
        predicted = predict_regression(RegressionCoefficients(values), D).predicted
    else:
        W, resp_names = _load_interaction(params, W_FORM)
        if model == "causal-linear":
            predicted = predict_causal_linear(W, B, D).predicted
        else:
            eps = load_matrix_csv(eps_path)[0].ravel() if eps_path else np.ones(W.size)
            try:
                ode_model = OdeModel(W, B, eps, envelope=envelope)
            except ValueError as exc:  # the envelope is checked, so epsilon is at fault
                raise ConfigError(f"--epsilon {eps_path}: {exc}") from exc
            predicted = steady_states(ode_model, D.values).require_converged(cond_ids)
    save_matrix_csv(out, predicted, cond_ids, resp_names)
    log.info("wrote predictions to %s", out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# cv


def _make_family(model, B, cfg, envelope, fit_epsilon=False):
    """The validate family that fits model; fit and cv both fit through it."""
    if model == "regression":
        return RegressionFamily(cfg)
    if model == "causal-linear":
        return CausalLinearFamily(B, cfg)
    template = OdeModel(
        InteractionMatrix(-np.eye(B.n_responses), form=W_FORM),
        B,
        np.ones(B.n_responses),
        envelope=envelope,
    )
    return CausalOdeFamily(B, template, cfg, fit_epsilon=fit_epsilon)


def cmd_cv(args):
    opt = _Options(args)
    scheme = opt("scheme")
    if scheme not in ("rf", "lodo"):
        raise ConfigError(f"--scheme must be rf|lodo, got {scheme!r}")

    def own():
        reps = opt("reps", 1000, int)
        train_fraction = opt("train-fraction", 0.7, float)
        seed = opt("seed", 0, int)
        # folds always run in order on one thread; --jobs is only checked and
        # logged, so existing command lines keep working
        jobs = opt("jobs", 1, int)
        if jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {jobs}")
        if seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {seed}")
        return reps, train_fraction, seed

    run = _fit_inputs(opt, None, own)
    reps, train_fraction, seed = run.own
    model, lam, D, X, B, cfg = run.model, run.lam, run.D, run.X, run.B, run.cfg
    # the folds, target map and mask are checked here, before lambda
    # selection can take long
    if scheme == "rf":
        plan = _built(make_random_folds, D.n_conditions, train_fraction, reps, seed)
    else:
        plans = _built(make_lodo_splits, D)
    if B is not None:
        check_targets(B, D, X, cfg.mask)

    lam_meta = {}
    if lam is None:
        if model == "causal-linear" and D.n_drugs < X.n_responses:
            # unregularized W unidentified when q < p: pick lambda by inner CV
            lam, scores = select_lambda_cv(D, X, B, seed=seed, cfg=cfg)
            lam_meta = {"lambda_selected_by_cv": lam, "lambda_cv_scores": scores}
            log.info("selected lambda %.4g by inner cross-validation", lam)
        else:
            lam = 0.0

    family = _make_family(model, B, replace(cfg, lam=lam), run.envelope)

    # every fold is fitted once; the report and scatter.csv share the result
    if scheme == "rf":
        report = averaged_random_fold_eval(family, D, X, plan)
        payload = report.to_dict()
        payload["metadata"].update({"scheme": "rf", "lambda": lam, **lam_meta})
        scored = [report]
        labels = [run.cond_ids[i] for i in report.rows]
    else:
        scored, mean_r = lodo_eval(family, D, X, plans)
        payload = {
            "mean_pearson_r": mean_r,
            "per_drug": [rep.to_dict() for rep in scored],
            "metadata": {
                "scheme": "lodo", "model": model, "lambda": lam, **lam_meta,
                "undefined_pearson_r": sum(bool(np.isnan(rep.pearson_r)) for rep in scored),
                "fits": summarize_fits([fit for rep in scored for fit in rep.fits]),
            },
        }
        labels = [f"{rep.metadata['held_out_drug']}:{run.cond_ids[i]}"
                  for rep in scored for i in rep.rows]

    fits = payload["metadata"]["fits"]
    if fits["unconverged"]:
        log.warning("%d of %d fold fits stopped unconverged (status: %s)",
                    fits["unconverged"], fits["folds"], "; ".join(fits["status"]) or "none")
    write_json_report(os.path.join(run.out_dir, "cv_report.json"), payload)
    # scatter: one row per scored (condition, response) point
    _write_scatter(
        os.path.join(run.out_dir, "scatter.csv"),
        labels,
        X.response_names,
        np.concatenate([X.values[rep.rows] for rep in scored]),
        np.concatenate([rep.predicted for rep in scored]),
    )
    log.info("wrote cv report and scatter data to %s", run.out_dir)
    return EXIT_OK


def _write_scatter(path, labels, response_names, observed, predicted):
    line = f"%s,%s,{FLOAT_FMT},{FLOAT_FMT}\r\n"
    response_names = csv_labels(response_names)
    with open(path, "w", newline="") as fh:
        fh.write("condition,response,observed,predicted\r\n")
        fh.writelines(
            line % (label, resp, obs, pred)
            for label, obs_row, pred_row in zip(csv_labels(labels), observed.tolist(),
                                                predicted.tolist())
            for resp, obs, pred in zip(response_names, obs_row, pred_row)
        )


# ---------------------------------------------------------------------------
# export-network


def cmd_export_network(args):
    opt = _Options(args)
    network = opt("network")
    if not network:
        raise ConfigError("export-network requires --network")
    form = opt("form", "A-form")
    threshold = opt("threshold", 0.2, float)
    out_dir = opt("out-dir", default_output_dir())
    opt.log()

    if form == W_FORM:
        W, names = _load_interaction(network, W_FORM)
        A = w_to_dag(W).values
    elif form == A_FORM:
        M, names = _load_interaction(network, A_FORM)
        A = M.values
    else:
        raise ConfigError(f"--form must be {A_FORM!r} or {W_FORM!r}, got {form!r}")

    exported = _built(export_network, A, names, threshold)
    _ensure_outdir(out_dir)
    exported.write_csv(os.path.join(out_dir, "network_edges.csv"))
    exported.write_dot(os.path.join(out_dir, "network.dot"))
    log.info("exported %d edge(s) at threshold %g", len(exported.edges), threshold)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_fit_flags(p):
    """The flags that fit and cv share, which _fit_inputs resolves."""
    for flag in ("--model", "--conditions", "--responses", "--targets", "--mask", "--envelope"):
        p.add_argument(flag)
    p.add_argument("--lam", type=float)
    p.add_argument("--max-iter", type=int)
    p.add_argument("--tol", type=float)


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
    _add_fit_flags(p)
    p.add_argument("--fit-epsilon", action="store_true", default=None)
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
    _add_fit_flags(p)
    p.add_argument("--reps", type=int)
    p.add_argument("--train-fraction", type=float)
    p.add_argument("--seed", type=int)
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

    # the config keys of a command are its flags, without the dashes
    for p in sub.choices.values():
        p.set_defaults(config_keys=frozenset(
            action.option_strings[0][2:] for action in p._actions
            if action.option_strings[0] not in ("-h", "--config")
        ))
    return parser


# main's parser, built once per process: an argparse parser can parse any
# number of command lines, and building this one costs about 1 ms
_PARSER = build_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
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
