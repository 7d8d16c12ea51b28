import json
import logging
import os
from dataclasses import replace

import numpy as np
import pytest

from perturbpred.cli import (
    EXIT_DIMENSION,
    EXIT_NONCONVERGENCE,
    EXIT_OK,
    EXIT_PARSE,
    build_parser,
    main,
)
from perturbpred.fit import (
    FitConfig,
    fit_causal_linear,
    fit_causal_ode,
    fit_regression,
    least_squares_w_init,
)
from perturbpred.io import (
    load_condition_matrix,
    load_matrix_csv,
    load_response_matrix,
    save_matrix_csv,
    write_json_report,
)
from perturbpred.ode import OdeModel, steady_states
from perturbpred.types import W_FORM, InteractionMatrix, TargetMap


@pytest.fixture
def ode_dir(tmp_path):
    """A tiny sigmoid instance: 2 responses, 3 drugs, every single and pair."""
    rng = np.random.default_rng(40)
    W = np.array([[-1.2, 0.3], [-0.2, -0.9]])
    B = 0.5 * rng.normal(size=(2, 3))
    D = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [1, 0, 1], [0, 1, 1]], float)
    truth = OdeModel(InteractionMatrix(W), TargetMap(B), [0.8, 1.5], envelope="sigmoid")
    X = steady_states(truth, D).require_converged() + 0.01 * rng.normal(size=(6, 2))
    ids = [f"c{k}" for k in range(6)]
    drugs, resp = ["d1", "d2", "d3"], ["r1", "r2"]
    save_matrix_csv(tmp_path / "cond.csv", D, ids, drugs)
    save_matrix_csv(tmp_path / "resp.csv", X, ids, resp)
    save_matrix_csv(tmp_path / "targets.csv", B, resp, drugs)
    return tmp_path


@pytest.fixture
def sim_dir(tmp_path):
    """Benchmark fixture files written once per test via the CLI itself."""
    out = tmp_path / "sim"
    code = main(["simulate", "--seed", "0", "--out-dir", str(out)])
    assert code == EXIT_OK
    return out


class TestSimulate:
    def test_writes_all_fixture_files(self, sim_dir):
        expected = {
            "sim_conditions.csv",
            "sim_targets.csv",
            "sim_targets_misspecified.csv",
            "sim_network_a.csv",
            "sim_responses.csv",
        }
        assert expected.issubset(set(os.listdir(sim_dir)))
        conditions, _, drug_names = load_matrix_csv(sim_dir / "sim_conditions.csv")
        assert conditions.shape == (105, 15)
        assert len(drug_names) == 15
        responses, _, _ = load_matrix_csv(sim_dir / "sim_responses.csv")
        assert responses.shape == (105, 5)

    def test_byte_identical_for_same_seed(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["simulate", "--seed", "3", "--out-dir", str(a)]) == EXIT_OK
        assert main(["simulate", "--seed", "3", "--out-dir", str(b)]) == EXIT_OK
        for name in os.listdir(a):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PERTURBPRED_OUT_DIR", str(tmp_path / "envout"))
        assert main(["simulate", "--seed", "0"]) == EXIT_OK
        assert (tmp_path / "envout" / "sim_responses.csv").exists()

    def test_config_file_with_cli_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed = 5\nout-dir = {tmp_path / 'cfgout'}\n")
        # config drives seed/out-dir ...
        assert main(["simulate", "--config", str(cfg)]) == EXIT_OK
        assert (tmp_path / "cfgout" / "sim_responses.csv").exists()
        # ... but an explicit flag wins over the config value
        override = tmp_path / "override"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(override)]) == EXIT_OK
        baseline = tmp_path / "seed5"
        assert main(["simulate", "--seed", "5", "--out-dir", str(baseline)]) == EXIT_OK
        assert (override / "sim_responses.csv").read_bytes() == (
            baseline / "sim_responses.csv"
        ).read_bytes()

    def test_unknown_config_key_is_parse_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("volume = 11\n")
        assert main(["simulate", "--config", str(cfg)]) == EXIT_PARSE


class TestFit:
    def test_regression_fit(self, sim_dir, tmp_path):
        out = tmp_path / "fit"
        code = main([
            "fit", "--model", "regression",
            "--conditions", str(sim_dir / "sim_conditions.csv"),
            "--responses", str(sim_dir / "sim_responses.csv"),
            "--out-dir", str(out),
        ])
        assert code == EXIT_OK
        coeffs, drug_ids, resp_names = load_matrix_csv(out / "coefficients.csv")
        assert coeffs.shape == (15, 5)
        with open(out / "fit_report.json") as fh:
            report = json.load(fh)
        assert report["converged"] is True

    def test_causal_linear_fit(self, sim_dir, tmp_path):
        out = tmp_path / "fit"
        code = main([
            "fit", "--model", "causal-linear",
            "--conditions", str(sim_dir / "sim_conditions.csv"),
            "--responses", str(sim_dir / "sim_responses.csv"),
            "--targets", str(sim_dir / "sim_targets.csv"),
            "--out-dir", str(out),
        ])
        assert code == EXIT_OK
        W, _, _ = load_matrix_csv(out / "interaction_w.csv")
        assert W.shape == (5, 5)
        assert np.all(np.diag(W) < 0)  # decay on the diagonal

    def test_nonconvergence_exit_code(self, sim_dir, tmp_path):
        out = tmp_path / "fit"
        code = main([
            "fit", "--model", "regression", "--lam", "0.5",
            "--conditions", str(sim_dir / "sim_conditions.csv"),
            "--responses", str(sim_dir / "sim_responses.csv"),
            "--max-iter", "1", "--tol", "1e-14",
            "--out-dir", str(out),
        ])
        assert code == EXIT_NONCONVERGENCE

    def test_missing_model_is_config_error(self, sim_dir):
        assert main([
            "fit",
            "--conditions", str(sim_dir / "sim_conditions.csv"),
            "--responses", str(sim_dir / "sim_responses.csv"),
        ]) == EXIT_PARSE

    def test_mismatched_rows_is_dimension_error(self, sim_dir, tmp_path):
        short = tmp_path / "short.csv"
        lines = (sim_dir / "sim_responses.csv").read_text().splitlines()
        short.write_text("\n".join(lines[:50]) + "\n")
        assert main([
            "fit", "--model", "regression",
            "--conditions", str(sim_dir / "sim_conditions.csv"),
            "--responses", str(short),
        ]) == EXIT_DIMENSION


class TestPredict:
    def test_round_trip_through_files(self, sim_dir, tmp_path):
        fit_out = tmp_path / "fit"
        assert main([
            "fit", "--model", "regression",
            "--conditions", str(sim_dir / "sim_conditions.csv"),
            "--responses", str(sim_dir / "sim_responses.csv"),
            "--out-dir", str(fit_out),
        ]) == EXIT_OK
        pred_path = tmp_path / "pred.csv"
        assert main([
            "predict", "--model", "regression",
            "--params", str(fit_out / "coefficients.csv"),
            "--conditions", str(sim_dir / "sim_conditions.csv"),
            "--out", str(pred_path),
        ]) == EXIT_OK
        preds, _, _ = load_matrix_csv(pred_path)
        # library-level cross-check
        coeffs, _, _ = load_matrix_csv(fit_out / "coefficients.csv")
        conditions, _, _ = load_matrix_csv(sim_dir / "sim_conditions.csv")
        assert np.allclose(preds, conditions @ coeffs, atol=1e-12)

    def test_causal_linear_predict(self, sim_dir, tmp_path):
        fit_out = tmp_path / "fit"
        assert main([
            "fit", "--model", "causal-linear",
            "--conditions", str(sim_dir / "sim_conditions.csv"),
            "--responses", str(sim_dir / "sim_responses.csv"),
            "--targets", str(sim_dir / "sim_targets.csv"),
            "--out-dir", str(fit_out),
        ]) == EXIT_OK
        pred_path = tmp_path / "pred.csv"
        assert main([
            "predict", "--model", "causal-linear",
            "--params", str(fit_out / "interaction_w.csv"),
            "--targets", str(sim_dir / "sim_targets.csv"),
            "--conditions", str(sim_dir / "sim_conditions.csv"),
            "--out", str(pred_path),
        ]) == EXIT_OK
        preds, _, _ = load_matrix_csv(pred_path)
        responses, _, _ = load_matrix_csv(sim_dir / "sim_responses.csv")
        # fitted model should track the data closely on the training set
        r = np.corrcoef(preds.ravel(), responses.ravel())[0, 1]
        assert r > 0.95


    def test_causal_ode_round_trip_through_files(self, ode_dir):
        fit_dir = ode_dir / "fit"
        assert main([
            "fit", "--model", "causal-ode", "--envelope", "sigmoid", "--fit-epsilon",
            "--conditions", str(ode_dir / "cond.csv"),
            "--responses", str(ode_dir / "resp.csv"),
            "--targets", str(ode_dir / "targets.csv"),
            "--max-iter", "500", "--tol", "1e-6",
            "--out-dir", str(fit_dir),
        ]) == EXIT_OK
        pred_path = ode_dir / "pred.csv"
        assert main([
            "predict", "--model", "causal-ode", "--envelope", "sigmoid",
            "--params", str(fit_dir / "interaction_w.csv"),
            "--epsilon", str(fit_dir / "epsilon.csv"),
            "--conditions", str(ode_dir / "cond.csv"),
            "--targets", str(ode_dir / "targets.csv"),
            "--out", str(pred_path),
        ]) == EXIT_OK
        W, _, _ = load_matrix_csv(fit_dir / "interaction_w.csv")
        eps, _, _ = load_matrix_csv(fit_dir / "epsilon.csv")
        B, _, _ = load_matrix_csv(ode_dir / "targets.csv")
        D, _, _ = load_matrix_csv(ode_dir / "cond.csv")
        X, _, _ = load_matrix_csv(ode_dir / "resp.csv")
        pred, ids, _ = load_matrix_csv(pred_path)
        fitted = OdeModel(InteractionMatrix(W), TargetMap(B), eps.ravel(), envelope="sigmoid")
        assert ids == [f"c{k}" for k in range(6)]
        assert np.array_equal(pred, steady_states(fitted, D).states)
        with open(fit_dir / "fit_report.json") as fh:
            report = json.load(fh)
        # the fit solves to 1e-7 at dt 0.05, predict to 1e-8 at dt 0.01
        assert np.sum((X - pred) ** 2) == pytest.approx(report["final_objective"], rel=1e-3)
        assert report["final_objective"] < 0.1 * np.sum(X**2)

    def test_causal_ode_unsettled_condition_exit_code(self, ode_dir):
        slow = ode_dir / "slow_w.csv"
        save_matrix_csv(slow, -0.001 * np.eye(2), ["r1", "r2"], ["r1", "r2"])
        assert main([
            "predict", "--model", "causal-ode",
            "--params", str(slow),
            "--conditions", str(ode_dir / "cond.csv"),
            "--targets", str(ode_dir / "targets.csv"),
            "--out", str(ode_dir / "pred.csv"),
        ]) == EXIT_NONCONVERGENCE
        assert not (ode_dir / "pred.csv").exists()


class TestCv:
    @pytest.mark.filterwarnings("ignore:.*never appeared in a test set")
    def test_rf_regression(self, sim_dir, tmp_path):
        out = tmp_path / "cv"
        code = main([
            "cv", "--scheme", "rf", "--model", "regression",
            "--conditions", str(sim_dir / "sim_conditions.csv"),
            "--responses", str(sim_dir / "sim_responses.csv"),
            "--reps", "20", "--seed", "0", "--jobs", "2",
            "--out-dir", str(out),
        ])
        assert code == EXIT_OK
        with open(out / "cv_report.json") as fh:
            report = json.load(fh)
        assert report["pearson_r"] > 0.9
        assert report["metadata"]["scheme"] == "rf"
        scatter = (out / "scatter.csv").read_text().splitlines()
        assert scatter[0] == "condition,response,observed,predicted"
        assert len(scatter) > 100

    def test_lodo_regression_vs_causal(self, sim_dir, tmp_path):
        reports = {}
        for model in ("regression", "causal-linear"):
            out = tmp_path / f"cv-{model}"
            code = main([
                "cv", "--scheme", "lodo", "--model", model,
                "--conditions", str(sim_dir / "sim_conditions.csv"),
                "--responses", str(sim_dir / "sim_responses.csv"),
                "--targets", str(sim_dir / "sim_targets.csv"),
                "--jobs", "4",
                "--out-dir", str(out),
            ])
            assert code == EXIT_OK
            with open(out / "cv_report.json") as fh:
                reports[model] = json.load(fh)
        assert len(reports["regression"]["per_drug"]) == 15
        assert (
            reports["regression"]["mean_pearson_r"]
            < reports["causal-linear"]["mean_pearson_r"]
        )

    def test_lodo_causal_ode(self, ode_dir):
        out = ode_dir / "cv"
        assert main([
            "cv", "--scheme", "lodo", "--model", "causal-ode", "--envelope", "sigmoid",
            "--conditions", str(ode_dir / "cond.csv"),
            "--responses", str(ode_dir / "resp.csv"),
            "--targets", str(ode_dir / "targets.csv"),
            "--max-iter", "10", "--jobs", "1",
            "--out-dir", str(out),
        ]) == EXIT_OK
        with open(out / "cv_report.json") as fh:
            report = json.load(fh)
        assert report["metadata"]["model"] == "causal-ode"
        assert len(report["per_drug"]) == 3
        assert np.isfinite(report["mean_pearson_r"])
        scatter = (out / "scatter.csv").read_text().splitlines()
        # each drug is held out of 3 of the 6 conditions, 2 responses each
        assert len(scatter) == 1 + 3 * 3 * 2

    def test_lodo_causal_ode_reports_unconverged_folds(self, ode_dir, caplog):
        out = ode_dir / "cv"
        assert main([
            "cv", "--scheme", "lodo", "--model", "causal-ode", "--envelope", "sigmoid",
            "--conditions", str(ode_dir / "cond.csv"),
            "--responses", str(ode_dir / "resp.csv"),
            "--targets", str(ode_dir / "targets.csv"),
            "--max-iter", "10",
            "--out-dir", str(out),
        ]) == EXIT_OK
        with open(out / "cv_report.json") as fh:
            fits = json.load(fh)["metadata"]["fits"]
        assert fits["folds"] == 3
        assert fits["unconverged"] == 3
        assert fits["iterations_max"] == 10
        assert "3 of 3 fold fits stopped unconverged" in caplog.text

    def test_report_and_scatter_from_one_pass(self, sim_dir, tmp_path):
        out = tmp_path / "cv"
        with pytest.warns(UserWarning, match="never appeared in a test set"):
            assert main([
                "cv", "--scheme", "rf", "--model", "causal-linear",
                "--conditions", str(sim_dir / "sim_conditions.csv"),
                "--responses", str(sim_dir / "sim_responses.csv"),
                "--targets", str(sim_dir / "sim_targets.csv"),
                "--reps", "3", "--seed", "1",
                "--out-dir", str(out),
            ]) == EXIT_OK
        with open(out / "cv_report.json") as fh:
            report = json.load(fh)
        assert report["metadata"]["fits"]["folds"] == 3
        assert report["metadata"]["fits"]["unconverged"] == 0
        rows = [line.split(",") for line in (out / "scatter.csv").read_text().splitlines()[1:]]
        observed = np.array([float(r[2]) for r in rows])
        predicted = np.array([float(r[3]) for r in rows])
        assert len(rows) == report["n_points"]
        assert np.corrcoef(observed, predicted)[0, 1] == pytest.approx(report["pearson_r"], abs=1e-12)
        # 3 repetitions leave conditions untested: each row must still carry
        # its own condition's label
        assert report["metadata"]["excluded_conditions"] > 0
        X, ids, names = load_matrix_csv(sim_dir / "sim_responses.csv")
        index = {cond: k for k, cond in enumerate(ids)}
        for cond, resp, obs, _ in rows:
            assert float(obs) == X[index[cond], names.index(resp)]

    @pytest.mark.filterwarnings("ignore:.*never appeared in a test set")
    def test_outputs_do_not_depend_on_jobs(self, sim_dir, tmp_path):
        outputs = []
        for jobs in ("1", "3"):
            out = tmp_path / f"cv-jobs{jobs}"
            assert main([
                "cv", "--scheme", "rf", "--model", "causal-linear",
                "--conditions", str(sim_dir / "sim_conditions.csv"),
                "--responses", str(sim_dir / "sim_responses.csv"),
                "--targets", str(sim_dir / "sim_targets.csv"),
                "--reps", "20", "--seed", "3", "--jobs", jobs,
                "--out-dir", str(out),
            ]) == EXIT_OK
            outputs.append([(out / name).read_bytes() for name in ("cv_report.json", "scatter.csv")])
        assert outputs[0] == outputs[1]

    def test_jobs_below_one_is_config_error(self, sim_dir):
        assert main([
            "cv", "--scheme", "rf", "--model", "regression",
            "--conditions", str(sim_dir / "sim_conditions.csv"),
            "--responses", str(sim_dir / "sim_responses.csv"),
            "--reps", "2", "--jobs", "0",
        ]) == EXIT_PARSE

    def test_mismatched_row_counts(self, sim_dir, tmp_path):
        short = tmp_path / "short.csv"
        lines = (sim_dir / "sim_responses.csv").read_text().splitlines()
        short.write_text("\n".join(lines[:50]) + "\n")
        assert main([
            "cv", "--scheme", "rf", "--model", "regression",
            "--conditions", str(sim_dir / "sim_conditions.csv"),
            "--responses", str(short),
            "--reps", "2",
        ]) == EXIT_DIMENSION

    def test_bad_csv_is_parse_error(self, sim_dir, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,a\nr1,not_a_number\n")
        assert main([
            "cv", "--scheme", "rf", "--model", "regression",
            "--conditions", str(bad),
            "--responses", str(sim_dir / "sim_responses.csv"),
        ]) == EXIT_PARSE


class TestExportNetwork:
    def test_exports_true_network(self, sim_dir, tmp_path):
        out = tmp_path / "net"
        code = main([
            "export-network",
            "--network", str(sim_dir / "sim_network_a.csv"),
            "--form", "A-form",
            "--threshold", "0.2",
            "--out-dir", str(out),
        ])
        assert code == EXIT_OK
        lines = (out / "network_edges.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 3  # header + the three true edges
        dot = (out / "network.dot").read_text()
        assert dot.count("->") == 3

    def test_w_form_input(self, sim_dir, tmp_path):
        # converting the A-form fixture to W-form by hand and exporting it
        # must yield the same edges
        A, ids, names = load_matrix_csv(sim_dir / "sim_network_a.csv")
        W = (A - np.eye(5)).T
        w_path = tmp_path / "w.csv"
        from perturbpred.io import save_matrix_csv

        save_matrix_csv(w_path, W, ids, names)
        out = tmp_path / "net"
        assert main([
            "export-network",
            "--network", str(w_path),
            "--form", "W-form",
            "--out-dir", str(out),
        ]) == EXIT_OK
        lines = (out / "network_edges.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 3


def reference_fit(model, conditions, responses, targets, cfg, envelope, fit_epsilon, out_dir):
    """The fitting code cmd_fit ran before it fitted through the validate
    families: the warm start and the ODE template were built here."""
    D, _ = load_condition_matrix(conditions)
    X, _ = load_response_matrix(responses)
    os.makedirs(out_dir)
    if model == "regression":
        R, report = fit_regression(D, X, cfg)
        save_matrix_csv(os.path.join(out_dir, "coefficients.csv"), R.values,
                        D.drug_names, X.response_names, id_header="drug")
    else:
        B = TargetMap(load_matrix_csv(targets)[0])
        if model == "causal-linear":
            init = least_squares_w_init(D, X, B)
            if init is not None:
                cfg = replace(cfg, w_init=init)
            W, report = fit_causal_linear(D, X, B, cfg)
        else:
            template = OdeModel(InteractionMatrix(-np.eye(B.n_responses), form=W_FORM), B,
                                np.ones(B.n_responses), envelope=envelope)
            ode_model, report = fit_causal_ode(D, X, B, template, cfg, fit_epsilon=fit_epsilon)
            W = ode_model.W
            save_matrix_csv(os.path.join(out_dir, "epsilon.csv"), ode_model.epsilon[None, :],
                            ["epsilon"], X.response_names)
        save_matrix_csv(os.path.join(out_dir, "interaction_w.csv"), W.values,
                        X.response_names, X.response_names)
    write_json_report(os.path.join(out_dir, "fit_report.json"), report.to_dict())


class TestFitThroughFamilies:
    """fit writes the same bytes through the families as the reference."""

    def check(self, data_dir, files, model, flags, cfg, envelope="identity", fit_epsilon=False):
        conditions, responses, targets = (str(data_dir / name) for name in files)
        argv = ["fit", "--model", model, "--conditions", conditions, "--responses", responses,
                "--targets", targets, "--out-dir", str(data_dir / "got")] + flags
        main(argv)
        reference_fit(model, conditions, responses, targets, cfg, envelope, fit_epsilon,
                      str(data_dir / "want"))
        written = sorted(os.listdir(data_dir / "want"))
        assert sorted(os.listdir(data_dir / "got")) == written
        for name in written:
            assert (data_dir / "got" / name).read_bytes() == (data_dir / "want" / name).read_bytes(), name

    SIM = ("sim_conditions.csv", "sim_responses.csv", "sim_targets.csv")
    ODE = ("cond.csv", "resp.csv", "targets.csv")

    def test_regression(self, sim_dir):
        self.check(sim_dir, self.SIM, "regression", [], FitConfig())

    @pytest.mark.parametrize("lam", ["0", "0.1"])
    def test_causal_linear(self, sim_dir, lam):
        self.check(sim_dir, self.SIM, "causal-linear", ["--lam", lam, "--max-iter", "3000"],
                   FitConfig(lam=float(lam), max_iter=3000))

    @pytest.mark.parametrize("fit_epsilon", [False, True])
    def test_causal_ode(self, ode_dir, fit_epsilon):
        flags = ["--envelope", "sigmoid", "--max-iter", "8"] + ["--fit-epsilon"] * fit_epsilon
        self.check(ode_dir, self.ODE, "causal-ode", flags, FitConfig(max_iter=8),
                   envelope="sigmoid", fit_epsilon=fit_epsilon)


def config_values(sim_dir, tmp_path):
    """A valid value for every config key of every command."""
    sim = {key: str(sim_dir / f"sim_{key}.csv") for key in ("conditions", "responses", "targets")}
    mask = tmp_path / "mask.csv"
    save_matrix_csv(mask, np.ones((5, 5)))
    assert main(["fit", "--model", "causal-linear", "--out-dir", str(tmp_path / "fitted"),
                 *(f"--{k}={v}" for k, v in sim.items())]) == EXIT_OK
    epsilon = tmp_path / "epsilon.csv"
    save_matrix_csv(epsilon, np.ones((1, 5)))
    common = {"out-dir": str(tmp_path / "out"), "envelope": "identity", "mask": str(mask),
              "max-iter": "50", "tol": "1e-6", "lam": "0.0"}
    return {
        "simulate": {"seed": "1", "noise-sd": "0.1", "out-dir": str(tmp_path / "sim")},
        "fit": {"model": "causal-linear", "fit-epsilon": "False", **sim, **common},
        # causal-ode: the one model that reads every predict option
        "predict": {"model": "causal-ode", "params": str(tmp_path / "fitted" / "interaction_w.csv"),
                    "conditions": sim["conditions"], "targets": sim["targets"],
                    "epsilon": str(epsilon), "envelope": "identity",
                    "out": str(tmp_path / "pred.csv")},
        "cv": {"scheme": "rf", "model": "causal-linear", "reps": "30", "train-fraction": "0.7",
               "seed": "2", "jobs": "1", **sim, **common},
        "export-network": {"network": str(sim_dir / "sim_network_a.csv"), "form": "A-form",
                           "threshold": "0.2", "out-dir": str(tmp_path / "net")},
    }


@pytest.mark.parametrize("command", ["simulate", "fit", "predict", "cv", "export-network"])
def test_config_sets_every_flag_and_settings_name_every_option(command, sim_dir, tmp_path, caplog):
    values = config_values(sim_dir, tmp_path)[command]
    keys = build_parser().parse_args([command]).config_keys
    assert set(values) == keys  # the config keys are the command's flags
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    caplog.clear()
    caplog.set_level(logging.INFO, logger="perturbpred")
    assert main([command, "--config", str(cfg)]) == EXIT_OK
    line = next(r for r in caplog.records if r.msg.startswith("command %s settings"))
    assert line.args[0] == command
    logged = json.loads(line.args[1])
    assert set(logged) == {key.replace("-", "_") for key in keys}
    out_key = "out-dir" if "out-dir" in keys else "out"
    assert logged[out_key.replace("-", "_")] == values[out_key]  # the config value applied


def test_settings_name_options_left_at_their_defaults(sim_dir, tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="perturbpred")
    assert main(["fit", "--model", "regression", "--out-dir", str(tmp_path),
                 "--conditions", str(sim_dir / "sim_conditions.csv"),
                 "--responses", str(sim_dir / "sim_responses.csv")]) == EXIT_OK
    line = next(r for r in caplog.records if r.msg.startswith("command %s settings"))
    logged = json.loads(line.args[1])
    assert len(logged) == len(build_parser().parse_args(["fit"]).config_keys)
    assert (logged["targets"], logged["mask"], logged["fit_epsilon"], logged["lam"]) == (
        None, None, False, 0.0)


class TestFitEpsilonConfig:
    def run(self, ode_dir, text, *flags):
        cfg = ode_dir / "run.cfg"
        cfg.write_text(f"fit-epsilon = {text}\n")
        return main([
            "fit", "--config", str(cfg), "--model", "causal-ode", "--envelope", "sigmoid",
            "--conditions", str(ode_dir / "cond.csv"), "--responses", str(ode_dir / "resp.csv"),
            "--targets", str(ode_dir / "targets.csv"), "--max-iter", "5",
            "--out-dir", str(ode_dir / text), *flags,
        ])

    def test_true_and_false_in_any_case(self, ode_dir):
        for text in ("TRUE", "false"):
            self.run(ode_dir, text)
        eps = {t: load_matrix_csv(ode_dir / t / "epsilon.csv")[0] for t in ("TRUE", "false")}
        assert np.array_equal(eps["false"], np.ones((1, 2)))
        assert not np.array_equal(eps["TRUE"], eps["false"])

    def test_flag_overrides_config(self, ode_dir):
        self.run(ode_dir, "false", "--fit-epsilon")
        assert not np.array_equal(load_matrix_csv(ode_dir / "false" / "epsilon.csv")[0],
                                  np.ones((1, 2)))

    def test_other_value_is_config_error(self, ode_dir):
        assert self.run(ode_dir, "yes") == EXIT_PARSE


@pytest.mark.parametrize("command, model, flag, value", [
    ("fit", "regression", "--mask", "mask.csv"),
    ("fit", "causal-linear", "--envelope", "sigmoid"),
    ("fit", "regression", "--fit-epsilon", None),
    ("predict", "causal-linear", "--epsilon", "missing.csv"),
    ("cv", "regression", "--mask", "mask.csv"),
])
def test_option_the_model_ignores_is_config_error(command, model, flag, value, sim_dir, tmp_path,
                                                   caplog):
    save_matrix_csv(tmp_path / "mask.csv", np.ones((5, 5)))
    files = {"conditions": "sim_conditions.csv", "responses": "sim_responses.csv",
             "targets": "sim_targets.csv"}
    if command == "predict":
        files["params"] = files.pop("responses")
    argv = [command, "--model", model, "--out-dir" if command != "predict" else "--out",
            str(tmp_path / "out"), *(f"--{k}={sim_dir / v}" for k, v in files.items()),
            flag, *([str(tmp_path / value)] if value else [])]
    if command == "cv":
        argv += ["--scheme", "rf", "--reps", "2"]
    caplog.set_level(logging.ERROR, logger="perturbpred")
    assert main(argv) == EXIT_PARSE
    assert [r.getMessage() for r in caplog.records] == [f"{model} does not use {flag}"]
    assert not (tmp_path / "out").exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "perturbpred" in capsys.readouterr().out
