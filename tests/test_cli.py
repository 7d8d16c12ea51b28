import csv
import hashlib
import io
import json
import logging
import os
import warnings

import numpy as np
import pytest

import perturbpred.validate as validate_module
from perturbpred.cli import (
    EXIT_DIMENSION,
    EXIT_NONCONVERGENCE,
    EXIT_OK,
    EXIT_PARSE,
    build_parser,
    main,
)
from perturbpred.fit import (
    MAX_ITER_REACHED,
    FitConfig,
    fit_causal_linear,
    fit_causal_ode,
    fit_regression,
)
from perturbpred.io import (
    _parse_matrix,
    _parse_plain,
    load_condition_matrix,
    load_matrix_csv,
    load_response_matrix,
    save_matrix_csv,
    write_json_report,
)
from perturbpred.ode import OdeModel, steady_states
from perturbpred.types import W_FORM, InteractionMatrix, TargetMap
from perturbpred.validate import make_random_folds, select_lambda_cv


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

    def test_config_file_not_text_is_parse_error(self, tmp_path, caplog):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"seed = 5\n\xff\n")
        assert main(["simulate", "--config", str(cfg)]) == EXIT_PARSE
        assert f"cannot read config {cfg}: not " in caplog.text


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
        with open(out / "fit_report.json") as fh:
            report = json.load(fh)
        assert not report["converged"]
        assert report["status"] == [MAX_ITER_REACHED.format(1)]

    def test_overflowing_causal_linear_start_exit_code(self, tmp_path, caplog):
        # columns a and 2a scaled by 1e160 and B = I: the loss at the
        # starting W overflows, which exits 4 with a message, not a traceback
        rng = np.random.default_rng(0)
        a = rng.uniform(0, 1, 6)
        save_matrix_csv(tmp_path / "cond.csv", 1e160 * np.column_stack([a, 2 * a]),
                        col_names=["a", "b"])
        save_matrix_csv(tmp_path / "resp.csv", rng.normal(size=(6, 2)), col_names=["r1", "r2"])
        save_matrix_csv(tmp_path / "targets.csv", np.eye(2), ["r1", "r2"], ["a", "b"])
        caplog.set_level(logging.ERROR, logger="perturbpred")
        assert main([
            "fit", "--model", "causal-linear",
            "--conditions", str(tmp_path / "cond.csv"),
            "--responses", str(tmp_path / "resp.csv"),
            "--targets", str(tmp_path / "targets.csv"),
            "--out-dir", str(tmp_path / "fit"),
        ]) == EXIT_NONCONVERGENCE
        [record] = caplog.records
        assert record.getMessage().startswith(
            "the loss or its gradient overflows at the starting W")

    @pytest.mark.parametrize("argv, start", [
        (["fit", "--model", "regression", "--lam", "0.5"], "R"),
        (["cv", "--scheme", "lodo", "--model", "regression", "--lam", "0.5"], "R"),
        (["fit", "--model", "causal-ode", "--envelope", "sigmoid", "--max-iter", "50"], "W"),
    ], ids=["fit-regression", "cv-lodo-regression", "fit-causal-ode"])
    def test_overflowing_start_exit_code(self, argv, start, sim_dir, tmp_path, caplog):
        # responses x1e160: every fitter refuses a start whose loss overflows,
        # with no numpy warning and no report.  The lambda > 0 regression fit
        # ran 10,000 iterations of an infinite objective and wrote a report
        # that is not JSON, its lodo cv exited 0, and the causal-ode fit
        # warned of an overflow and reported objective inf
        X, ids, names = load_matrix_csv(sim_dir / "sim_responses.csv")
        save_matrix_csv(tmp_path / "resp.csv", 1e160 * X, ids, names)
        if "causal-ode" in argv:
            argv = [*argv, "--targets", str(sim_dir / "sim_targets.csv")]
        caplog.set_level(logging.ERROR, logger="perturbpred")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([*argv, "--conditions", str(sim_dir / "sim_conditions.csv"),
                         "--responses", str(tmp_path / "resp.csv"),
                         "--out-dir", str(tmp_path / "out")]) == EXIT_NONCONVERGENCE
        [record] = caplog.records
        assert record.getMessage().startswith(
            f"the loss or its gradient overflows at the starting {start}")
        assert os.listdir(tmp_path / "out") == []

    def test_overflowing_regression_objective_exit_code(self, sim_dir, tmp_path, caplog):
        # responses x1e160: the lambda = 0 least-squares objective overflows,
        # which exits 4 with a message and no numpy warning, as the
        # causal-linear fit does; it exited 0 with objective inf, "converged"
        X, ids, names = load_matrix_csv(sim_dir / "sim_responses.csv")
        save_matrix_csv(tmp_path / "resp.csv", 1e160 * X, ids, names)
        caplog.set_level(logging.ERROR, logger="perturbpred")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([
                "fit", "--model", "regression",
                "--conditions", str(sim_dir / "sim_conditions.csv"),
                "--responses", str(tmp_path / "resp.csv"),
                "--out-dir", str(tmp_path / "fit"),
            ]) == EXIT_NONCONVERGENCE
        [record] = caplog.records
        assert record.getMessage().startswith("the least-squares objective overflows")

    def test_regression_refuses_a_drug_no_condition_doses(self, tmp_path, caplog):
        # at lambda = 0 regression has no unique coefficient for drug b, which
        # no condition doses: exit 4, naming b; cv gives such a drug 0 instead
        ids, drugs = ["c1", "c2", "c3"], ["a", "b"]
        save_matrix_csv(tmp_path / "d.csv", np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]),
                        ids, drugs)
        save_matrix_csv(tmp_path / "x.csv", np.array([[0.5], [1.1], [1.4]]), ids, ["r1"])
        caplog.set_level(logging.ERROR, logger="perturbpred")
        assert main([
            "fit", "--model", "regression",
            "--conditions", str(tmp_path / "d.csv"), "--responses", str(tmp_path / "x.csv"),
            "--out-dir", str(tmp_path / "fit"),
        ]) == EXIT_NONCONVERGENCE
        [record] = caplog.records
        assert record.getMessage().endswith("deficient design columns: b")

    def test_field_over_the_csv_limit_is_parse_error(self, sim_dir, tmp_path, caplog):
        long = tmp_path / "long.csv"
        long.write_text('id,"a"\nr1,' + " " * 140_000 + "1\n")
        caplog.set_level(logging.ERROR, logger="perturbpred")
        assert main([
            "fit", "--model", "regression",
            "--conditions", str(long),
            "--responses", str(sim_dir / "sim_responses.csv"),
            "--out-dir", str(tmp_path / "fit"),
        ]) == EXIT_PARSE
        assert f"{long}: row 2: field larger than field limit" in caplog.text

    @pytest.mark.parametrize("k", [-30, -60])
    def test_causal_linear_fit_does_not_depend_on_dose_units(self, tmp_path, k):
        # doses written in units 2^-k times larger: the lambda = 0 fit is the
        # closed form in either unit, its W scales by 2^k bit for bit, and
        # its report is the same bytes
        sim = tmp_path / "sim"
        assert main(["simulate", "--seed", "5", "--out-dir", str(sim)]) == EXIT_OK
        D, ids, drugs = load_matrix_csv(sim / "sim_conditions.csv")
        save_matrix_csv(tmp_path / "scaled.csv", D * 2.0**k, ids, drugs)
        for conditions, out in ((sim / "sim_conditions.csv", "unit"), (tmp_path / "scaled.csv", "scaled")):
            assert main([
                "fit", "--model", "causal-linear",
                "--conditions", str(conditions),
                "--responses", str(sim / "sim_responses.csv"),
                "--targets", str(sim / "sim_targets.csv"),
                "--out-dir", str(tmp_path / out),
            ]) == EXIT_OK
        W0 = load_matrix_csv(tmp_path / "unit" / "interaction_w.csv")[0]
        W = load_matrix_csv(tmp_path / "scaled" / "interaction_w.csv")[0]
        assert np.array_equal(W, 2.0**k * W0)
        report = (tmp_path / "scaled" / "fit_report.json").read_bytes()
        assert report == (tmp_path / "unit" / "fit_report.json").read_bytes()
        assert json.loads(report)["iterations"] == 0

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
    def test_written_matrices_take_the_plain_reader(self, sim_dir, tmp_path):
        # every matrix the package writes is read by numpy's reader, with the
        # csv path's bits: were the plain path never taken, the rest of the
        # suite would still pass
        conditions = str(sim_dir / "sim_conditions.csv")
        responses = str(sim_dir / "sim_responses.csv")
        targets = ["--targets", str(sim_dir / "sim_targets.csv")]
        for model, extra in (("regression", []), ("causal-linear", targets)):
            assert main(["fit", "--model", model, "--conditions", conditions,
                         "--responses", responses, *extra,
                         "--out-dir", str(tmp_path / model)]) == EXIT_OK
        assert main(["predict", "--model", "causal-linear",
                     "--params", str(tmp_path / "causal-linear" / "interaction_w.csv"),
                     *targets, "--conditions", conditions,
                     "--out", str(tmp_path / "pred.csv")]) == EXIT_OK
        written = [*sorted(sim_dir.glob("*.csv")), tmp_path / "regression" / "coefficients.csv",
                   tmp_path / "causal-linear" / "interaction_w.csv", tmp_path / "pred.csv"]
        assert len(written) == 8
        for path in written:
            with open(path, newline="") as fh:
                text = fh.read()
            plain = _parse_plain(text)
            assert plain is not None, path.name
            reader = csv.reader(io.StringIO(text, newline=""))
            values, row_ids, col_names = _parse_matrix(path, reader)
            assert plain[0].shape == values.shape and plain[0].tobytes() == values.tobytes()
            assert plain[1:] == (row_ids, col_names)

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

    # sha256 of the files `simulate --seed 5`, then `fit --model causal-linear`
    # and `predict --model causal-linear` on its fixtures write; recorded like
    # TestCv.GOLDEN, whose note applies.
    GOLDEN = {
        "sim/sim_conditions.csv": "d53233880eee093d9c708e1fa8f1567a6de1a42c9857768613613364fa3904e7",
        "sim/sim_responses.csv": "aed16165e31b13a9493674433d0e4503485d581d3dd1cf91029b1d97ca07d375",
        "fit/interaction_w.csv": "b70df77ac345bcaf141da5119b042c35119bd97f90cd5aadfd6309172be91071",
        "pred.csv": "537a8e0c991d40dbbe329ac3cf190c74d4b44da7501ca2c895d05d9a9e77d718",
    }

    def test_causal_linear_outputs_match_golden_hashes(self, tmp_path):
        sim = tmp_path / "sim"
        assert main(["simulate", "--seed", "5", "--out-dir", str(sim)]) == EXIT_OK
        inputs = [
            "--conditions", str(sim / "sim_conditions.csv"),
            "--targets", str(sim / "sim_targets.csv"),
        ]
        assert main([
            "fit", "--model", "causal-linear", *inputs,
            "--responses", str(sim / "sim_responses.csv"),
            "--out-dir", str(tmp_path / "fit"),
        ]) == EXIT_OK
        assert main([
            "predict", "--model", "causal-linear", *inputs,
            "--params", str(tmp_path / "fit" / "interaction_w.csv"),
            "--out", str(tmp_path / "pred.csv"),
        ]) == EXIT_OK
        got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in self.GOLDEN}
        assert got == self.GOLDEN


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

    def test_matrix_file_not_text_is_parse_error(self, sim_dir, tmp_path, caplog):
        fit_out = tmp_path / "fit"
        assert main([
            "fit", "--model", "regression",
            "--conditions", str(sim_dir / "sim_conditions.csv"),
            "--responses", str(sim_dir / "sim_responses.csv"),
            "--out-dir", str(fit_out),
        ]) == EXIT_OK
        conditions = tmp_path / "conditions.csv"
        conditions.write_bytes(b"id,d1\n\xff,1\n")
        assert main([
            "predict", "--model", "regression",
            "--params", str(fit_out / "coefficients.csv"),
            "--conditions", str(conditions),
            "--out", str(tmp_path / "pred.csv"),
        ]) == EXIT_PARSE
        assert f"cannot read {conditions}: not " in caplog.text
        assert not (tmp_path / "pred.csv").exists()


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
        assert fits["status"] == [MAX_ITER_REACHED.format(10)]
        assert "3 of 3 fold fits stopped unconverged" in caplog.text

    @pytest.mark.filterwarnings("ignore:.*never appeared in a test set")
    def test_lambda_selection_on_fewer_conditions_than_folds(self, tmp_path):
        # 4 conditions, 2 drugs and 3 responses: q < p, so cv selects lambda.
        # Five test sets of 4 rows would leave one empty; there are 4 of one
        # row each, so every lambda is scored on held-out rows
        rng = np.random.default_rng(3)
        ids, drugs, responses = ["c1", "c2", "c3", "c4"], ["d1", "d2"], ["r1", "r2", "r3"]
        D = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.0]])
        B = rng.normal(size=(3, 2))
        save_matrix_csv(tmp_path / "d.csv", D, ids, drugs)
        save_matrix_csv(tmp_path / "x.csv", D @ B.T + 0.1 * rng.normal(size=(4, 3)), ids,
                        responses)
        save_matrix_csv(tmp_path / "b.csv", B, responses, drugs)
        out = tmp_path / "cv"
        assert main([
            "cv", "--scheme", "rf", "--reps", "3", "--model", "causal-linear",
            "--conditions", str(tmp_path / "d.csv"), "--responses", str(tmp_path / "x.csv"),
            "--targets", str(tmp_path / "b.csv"), "--max-iter", "500",
            "--out-dir", str(out),
        ]) == EXIT_OK
        with open(out / "cv_report.json") as fh:
            metadata = json.load(fh)["metadata"]
        scores = metadata["lambda_cv_scores"]
        assert len(scores) == 9 and all(np.isfinite(v) for v in scores.values())
        assert metadata["lambda"] == metadata["lambda_selected_by_cv"]
        assert scores[str(metadata["lambda"])] == min(scores.values())

    @pytest.mark.filterwarnings("ignore:.*never appeared in a test set")
    @pytest.mark.parametrize("lam", ["0", "0.5"])
    def test_rf_regression_gives_a_drug_no_training_row_doses_coefficient_zero(
            self, tmp_path, lam):
        # b is dosed in c2-c4 only, and fold 5 of the plan trains on none of
        # them: that fold gives b coefficient 0, as a LODO fold does its
        # drug, where it exited 4 naming b at lambda = 0
        ids, drugs = [f"c{k}" for k in range(1, 9)], ["a", "b"]
        D = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 2.0],
                      [1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0]])
        save_matrix_csv(tmp_path / "d.csv", D, ids, drugs)
        save_matrix_csv(tmp_path / "x.csv", np.random.default_rng(0).normal(size=(8, 2)), ids,
                        ["r1", "r2"])
        undosed = [f for f, (train, _) in enumerate(make_random_folds(8, 0.5, 20, 0).folds)
                   if not np.any(D[train, 1])]
        assert undosed == [5]
        out = tmp_path / "cv"
        assert main([
            "cv", "--scheme", "rf", "--model", "regression", "--lam", lam,
            "--reps", "20", "--train-fraction", "0.5", "--seed", "0",
            "--conditions", str(tmp_path / "d.csv"), "--responses", str(tmp_path / "x.csv"),
            "--out-dir", str(out),
        ]) == EXIT_OK
        with open(out / "cv_report.json") as fh:
            fits = json.load(fh)["metadata"]["fits"]
        assert (fits["folds"], fits["unconverged"]) == (20, 0)

    def test_scatter_quotes_labels_as_the_csv_module_does(self, sim_dir, tmp_path):
        D, ids, drugs = load_matrix_csv(sim_dir / "sim_conditions.csv")
        X, _, responses = load_matrix_csv(sim_dir / "sim_responses.csv")
        ids = [("c,{}", 'q"{}', "n\n{}")[k % 3].format(k) for k in range(len(ids))]
        responses = ["p,1", 'p"2', *responses[2:]]
        save_matrix_csv(tmp_path / "d.csv", D, ids, drugs)
        save_matrix_csv(tmp_path / "x.csv", X, ids, responses)
        out = tmp_path / "cv"
        assert main([
            "cv", "--scheme", "lodo", "--model", "regression",
            "--conditions", str(tmp_path / "d.csv"), "--responses", str(tmp_path / "x.csv"),
            "--out-dir", str(out),
        ]) == EXIT_OK
        with open(out / "scatter.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert {row[0].split(":", 1)[1] for row in rows[1:]} == set(ids)  # drug:condition
        assert {row[1] for row in rows[1:]} == set(responses)
        rewritten = io.StringIO(newline="")
        csv.writer(rewritten).writerows(rows)
        assert (out / "scatter.csv").read_bytes() == rewritten.getvalue().encode()

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

    @pytest.mark.parametrize("scheme", ["rf", "lodo"])
    def test_overflowing_regression_folds_exit_code(self, sim_dir, tmp_path, caplog, scheme):
        # the same responses x1e160: no fold's objective is finite, so the
        # first fold runs its own fit, which raises: exit 4 and no warning
        X, ids, names = load_matrix_csv(sim_dir / "sim_responses.csv")
        save_matrix_csv(tmp_path / "resp.csv", 1e160 * X, ids, names)
        caplog.set_level(logging.ERROR, logger="perturbpred")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([
                "cv", "--scheme", scheme, "--model", "regression", "--reps", "50",
                "--conditions", str(sim_dir / "sim_conditions.csv"),
                "--responses", str(tmp_path / "resp.csv"),
                "--out-dir", str(tmp_path / "cv"),
            ]) == EXIT_NONCONVERGENCE
        [record] = caplog.records
        assert record.getMessage().startswith("the least-squares objective overflows")

    @pytest.mark.parametrize("scale", [1e80, 1e-160])
    def test_scores_do_not_depend_on_the_response_scale(self, tmp_path, scale):
        # `simulate --seed 1` with responses x1e80, where the sums of squares
        # of Pearson r overflow, or x1e-160, where they underflow: rf read
        # pearson_r 0.0 or a zero-variance error, and LODO a mean r of 0.0
        sim = tmp_path / "sim"
        assert main(["simulate", "--seed", "1", "--out-dir", str(sim)]) == EXIT_OK
        X, ids, names = load_matrix_csv(sim / "sim_responses.csv")
        save_matrix_csv(tmp_path / "scaled.csv", scale * X, ids, names)
        for scheme, key in (("rf", "pearson_r"), ("lodo", "mean_pearson_r")):
            scores = []
            for responses in (sim / "sim_responses.csv", tmp_path / "scaled.csv"):
                out = tmp_path / f"cv-{scheme}-{responses.stem}"
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    assert main([
                        "cv", "--scheme", scheme, "--model", "regression", "--reps", "50",
                        "--conditions", str(sim / "sim_conditions.csv"),
                        "--responses", str(responses), "--out-dir", str(out),
                    ]) == EXIT_OK
                with open(out / "cv_report.json") as fh:
                    scores.append(json.load(fh))
            assert scores[1][key] == pytest.approx(scores[0][key], abs=1e-12)
            assert scores[0][key] > 0.8
            if scheme == "rf":
                assert scores[1]["metadata"]["status"] == "ok"

    # sha256 of (cv_report.json, scatter.csv) on `simulate --seed 5`, keyed by
    # (scheme, model, --lam or None), recorded with numpy 2.4 on OpenBLAS
    # 0.3.31; another BLAS may move the last bits.  A change that moves these
    # outputs on purpose updates them and says so.
    GOLDEN = {
        ("rf", "regression", None): (
            "a753e61dee65e125e0c4ad6720d24de2af40beb5ffa97bc2618f1dbb0c48231a",
            "0dbc23d34b31a0b5c08aa1fb6c36828964a4f37c7cd5ee7628fdeb6303459cea",
        ),
        ("rf", "causal-linear", None): (
            "a74fcd8a728a855f72b53e926dfc72cf6c8d8cfc891f8b323efbdf86e691ed2f",
            "860b5484c6eb935c01ac125b767edf7b3c8a248922628492da9f04b828b0d739",
        ),
        ("lodo", "regression", None): (
            "f3fb02050ae135b461cd6b80433efa5c192d293f6f21d2a243c4bb6edc17c533",
            "d3e6b1c1b387d30f4d62ef20e2924d7a926c83f322057e942fd11795f2ffa64b",
        ),
        ("lodo", "causal-linear", None): (
            "4df89a369c25aa5c2773c3759206bc9d2e9410f43efc1d7b2a28112310e8d0e9",
            "065eae52a763d771c1f2aff1d8389a0f605606015ca8a7b1ff38194f6ff14cfc",
        ),
        ("rf", "causal-linear", "0.1"): (
            "93eacbaec7784ecd672986d98de37fa2c0d3be1ee7985bf8707632fb30b1b2b7",
            "0d8f34be78ab7c991ddbc840ff2170d56ab3d38d515a15a4f1ad8cc2a2ace654",
        ),
        ("lodo", "regression", "0.5"): (
            "177ff46ad639cc554257b0229ee115e05357d5bf7a8ed31054e986f8a4113fa1",
            "fcafa625d4beaf1bfb572a6549276981424607e14c341ffce4204aa4371b2e87",
        ),
    }

    @pytest.mark.parametrize(
        "scheme,model,lam",
        [pytest.param(*key, id="-".join(filter(None, key))) for key in GOLDEN],
    )
    def test_outputs_match_golden_hashes(self, scheme, model, lam, tmp_path):
        sim = tmp_path / "sim"
        assert main(["simulate", "--seed", "5", "--out-dir", str(sim)]) == EXIT_OK
        out = tmp_path / "cv"
        argv = [
            "cv", "--scheme", scheme, "--model", model,
            "--conditions", str(sim / "sim_conditions.csv"),
            "--responses", str(sim / "sim_responses.csv"),
            "--out-dir", str(out),
        ]
        if scheme == "rf":
            argv += ["--reps", "50"]
        if model != "regression":
            argv += ["--targets", str(sim / "sim_targets.csv")]
        if lam is not None:
            argv += ["--lam", lam]
        assert main(argv) == EXIT_OK
        got = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                    for name in ("cv_report.json", "scatter.csv"))
        assert got == self.GOLDEN[scheme, model, lam]

    @pytest.mark.parametrize("column, message", [
        (np.zeros(12), "drug 'd1' is never used in any condition"),
        (np.ones(12), "drug 'd1' is used in every condition"),
    ], ids=["never-used", "used-everywhere"])
    def test_lodo_refuses_a_drug_it_cannot_leave_out(self, tmp_path, caplog, column, message):
        # a 12 x 3 design whose drug d1 no condition uses, or every one does
        rng = np.random.default_rng(0)
        D = rng.uniform(0.5, 1.0, (12, 3)) * (np.arange(12)[:, None] % 3 != np.arange(3))
        D[:, 1] = column
        ids = [f"c{k}" for k in range(12)]
        save_matrix_csv(tmp_path / "d.csv", D, ids, ["d0", "d1", "d2"])
        save_matrix_csv(tmp_path / "x.csv", rng.normal(size=(12, 2)), ids, ["r1", "r2"])
        for model in ("regression", "causal-linear"):
            caplog.clear()
            argv = ["cv", "--scheme", "lodo", "--model", model,
                    "--conditions", str(tmp_path / "d.csv"),
                    "--responses", str(tmp_path / "x.csv"),
                    "--out-dir", str(tmp_path / "cv")]
            if model == "causal-linear":
                save_matrix_csv(tmp_path / "b.csv", np.ones((2, 3)), ["r1", "r2"],
                                ["d0", "d1", "d2"])
                argv += ["--targets", str(tmp_path / "b.csv")]
            assert main(argv) == EXIT_PARSE
            assert message in caplog.text

    def test_rf_factors_each_design_once(self, tmp_path, monkeypatch):
        # a 1000-rep rf command factors the full (105, k) design once, not
        # once per block of folds
        sim = tmp_path / "sim"
        assert main(["simulate", "--seed", "5", "--out-dir", str(sim)]) == EXIT_OK
        qr = np.linalg.qr
        shapes = []

        def counted(A, *args, **kwargs):
            shapes.append(np.shape(A))
            return qr(A, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counted)
        for model, k in (("regression", 15), ("causal-linear", 5)):
            shapes.clear()
            argv = ["cv", "--scheme", "rf", "--model", model, "--reps", "1000",
                    "--conditions", str(sim / "sim_conditions.csv"),
                    "--responses", str(sim / "sim_responses.csv"),
                    "--out-dir", str(tmp_path / model)]
            if model == "causal-linear":
                argv += ["--targets", str(sim / "sim_targets.csv")]
            assert main(argv) == EXIT_OK
            assert shapes.count((105, k)) == 1

    def test_lambda_is_picked_by_inner_cv_when_drugs_are_fewer_than_responses(self, tmp_path):
        # q = 3 drugs < p = 5 responses leaves the unregularized W
        # unidentified, so cv without --lam picks lambda by select_lambda_cv;
        # each drug is left out of a third of the conditions, so LODO runs
        rng = np.random.default_rng(7)
        n = 18
        D = rng.uniform(0.5, 1.0, (n, 3)) * (np.arange(n)[:, None] % 3 != np.arange(3))
        B = rng.normal(size=(5, 3))
        W = -np.eye(5) + 0.2 * rng.normal(size=(5, 5)) * ~np.eye(5, dtype=bool)
        X = D @ B.T @ -np.linalg.inv(W) + 0.05 * rng.normal(size=(n, 5))
        ids, drugs, resp = [f"c{k}" for k in range(n)], ["d1", "d2", "d3"], list("abcde")
        save_matrix_csv(tmp_path / "d.csv", D, ids, drugs)
        save_matrix_csv(tmp_path / "x.csv", X, ids, resp)
        save_matrix_csv(tmp_path / "b.csv", B, resp, drugs)
        assert main([
            "cv", "--scheme", "lodo", "--model", "causal-linear", "--max-iter", "200",
            "--conditions", str(tmp_path / "d.csv"), "--responses", str(tmp_path / "x.csv"),
            "--targets", str(tmp_path / "b.csv"), "--out-dir", str(tmp_path / "cv"),
        ]) == EXIT_OK
        with open(tmp_path / "cv" / "cv_report.json") as fh:
            meta = json.load(fh)["metadata"]
        lam, scores = select_lambda_cv(load_condition_matrix(tmp_path / "d.csv")[0],
                                       load_response_matrix(tmp_path / "x.csv")[0],
                                       TargetMap(load_matrix_csv(tmp_path / "b.csv")[0]),
                                       seed=0, cfg=FitConfig(max_iter=200))
        assert meta["lambda_selected_by_cv"] == meta["lambda"] == lam
        assert {float(key): v for key, v in meta["lambda_cv_scores"].items()} == scores
        assert np.all(np.isfinite(list(scores.values())))

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


@pytest.fixture(scope="class")
def sim5_dir(tmp_path_factory):
    """`simulate --seed 5`, written once per test class."""
    out = tmp_path_factory.mktemp("sim5")
    assert main(["simulate", "--seed", "5", "--out-dir", str(out)]) == EXIT_OK
    return out


@pytest.mark.filterwarnings("ignore:.*never appeared in a test set")
class TestCausalOdeGolden:
    # exit code and sha256 of each file written by `fit --max-iter 20` and
    # `cv --scheme rf --reps 2 --max-iter 20` with --model causal-ode on
    # `simulate --seed 5`, keyed by (command, --envelope, the name of an
    # extra flag or None); recorded like TestCv.GOLDEN, whose note applies.  Every fit
    # stops at the cap, so it exits 4 with its files written.  Identity and
    # clipped-linear write the same bytes: no drive reaches the clip bound.
    GOLDEN = {
        ("fit", "identity", None): (EXIT_NONCONVERGENCE, {
            "epsilon.csv": "03012427eb5febe18a8fe8ef831b1c94a5e4cd992313ace17c81421a82b0c905",
            "fit_report.json": "cd25a975b24e1586e1af9038d0231008e717fbfa8ba330403bec53db3b1c0531",
            "interaction_w.csv": "66fb40333094521cf4ce6f32a78191f0abde0bacb50387d880bedefe2d2bb6dc",
        }),
        ("fit", "clipped-linear", None): (EXIT_NONCONVERGENCE, {
            "epsilon.csv": "03012427eb5febe18a8fe8ef831b1c94a5e4cd992313ace17c81421a82b0c905",
            "fit_report.json": "cd25a975b24e1586e1af9038d0231008e717fbfa8ba330403bec53db3b1c0531",
            "interaction_w.csv": "66fb40333094521cf4ce6f32a78191f0abde0bacb50387d880bedefe2d2bb6dc",
        }),
        ("fit", "sigmoid", None): (EXIT_NONCONVERGENCE, {
            "epsilon.csv": "03012427eb5febe18a8fe8ef831b1c94a5e4cd992313ace17c81421a82b0c905",
            "fit_report.json": "2f72865362ddfb5667bfd4007017081278c347cd8896e6f370e48e05deca707c",
            "interaction_w.csv": "30d1aaeccec8d9d0b07702c7c10c4db1adfcd8aa7de468cfde7d542277b2fa01",
        }),
        ("fit", "sigmoid", "fit-epsilon"): (EXIT_NONCONVERGENCE, {
            "epsilon.csv": "e6bc8c3e264b3d2980344b916af17bcb4ec01125a4dc40cff0bcabac6e65d53d",
            "fit_report.json": "7610ff3901afd88910631367c6b0eaaf85fda6ff21a8f510fb5611d0ebe80a31",
            "interaction_w.csv": "0c8ceff35bc200205accd6581ea52fc0e4f59aad6dee610189790a156c448d28",
        }),
        ("cv", "identity", None): (EXIT_OK, {
            "cv_report.json": "c14c1e301cd6d2269b3bba85e0515951755215955549cd637c9864518a0632d0",
            "scatter.csv": "b6b0abd3d8c5fd23d15b3b0167ae2df31fc34b3755f70dcad7338e78e5b29d43",
        }),
        ("cv", "clipped-linear", None): (EXIT_OK, {
            "cv_report.json": "c14c1e301cd6d2269b3bba85e0515951755215955549cd637c9864518a0632d0",
            "scatter.csv": "b6b0abd3d8c5fd23d15b3b0167ae2df31fc34b3755f70dcad7338e78e5b29d43",
        }),
        ("cv", "sigmoid", None): (EXIT_OK, {
            "cv_report.json": "1d1c2836e611ee76855320048b26a773a7d31d7a203ffd8e588257afbea63aa7",
            "scatter.csv": "678fe47d03c237afb22583345a5ed83f975d59db1cdbf8985899d6578b6d34de",
        }),
    }

    @pytest.mark.parametrize(
        "command,envelope,flag",
        [pytest.param(*key, id="-".join(filter(None, key))) for key in GOLDEN],
    )
    def test_outputs_match_golden_hashes(self, command, envelope, flag, sim5_dir, tmp_path):
        argv = [
            command, "--model", "causal-ode", "--envelope", envelope, "--max-iter", "20",
            "--conditions", str(sim5_dir / "sim_conditions.csv"),
            "--responses", str(sim5_dir / "sim_responses.csv"),
            "--targets", str(sim5_dir / "sim_targets.csv"),
            "--out-dir", str(tmp_path),
        ]
        if command == "cv":
            argv += ["--scheme", "rf", "--reps", "2"]
        if flag is not None:
            argv.append("--" + flag)
        code = main(argv)
        got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in os.listdir(tmp_path)}
        assert (code, got) == self.GOLDEN[command, envelope, flag]


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

    def test_threshold_zero_exports_no_zero_weight(self, sim_dir, tmp_path):
        # threshold 0 exported every off-diagonal entry: 20 edges, 17 of
        # them of weight 0, for the three true edges
        out = tmp_path / "net"
        assert main(["export-network", "--network", str(sim_dir / "sim_network_a.csv"),
                     "--threshold", "0", "--out-dir", str(out)]) == EXIT_OK
        with open(out / "network_edges.csv", newline="") as fh:
            weights = [float(row["weight"]) for row in csv.DictReader(fh)]
        assert len(weights) == 3 and 0.0 not in weights

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
    families: the ODE template was built here, and the causal-linear fit
    is the one fit_causal_linear call."""
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
    resp = load_matrix_csv(sim["responses"])[2]
    mask = tmp_path / "mask.csv"
    save_matrix_csv(mask, np.ones((5, 5)), resp, resp)
    assert main(["fit", "--model", "causal-linear", "--out-dir", str(tmp_path / "fitted"),
                 *(f"--{k}={v}" for k, v in sim.items())]) == EXIT_OK
    epsilon = tmp_path / "epsilon.csv"
    save_matrix_csv(epsilon, np.ones((1, 5)), ["epsilon"], resp)
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


def test_a_flag_does_not_carry_over_to_the_next_command(sim_dir, tmp_path, caplog):
    # main parses every command of a process with one parser
    caplog.set_level(logging.INFO, logger="perturbpred")
    fit = ["fit", "--model", "regression", "--conditions", str(sim_dir / "sim_conditions.csv"),
           "--responses", str(sim_dir / "sim_responses.csv")]
    assert main([*fit, "--lam", "0.5", "--out-dir", str(tmp_path / "a")]) == EXIT_OK
    assert main([*fit, "--out-dir", str(tmp_path / "b")]) == EXIT_OK
    lines = [r for r in caplog.records if r.msg.startswith("command %s settings")]
    assert [json.loads(r.args[1])["lam"] for r in lines] == [0.5, 0.0]


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
    resp = load_matrix_csv(sim_dir / "sim_responses.csv")[2]
    save_matrix_csv(tmp_path / "mask.csv", np.ones((5, 5)), resp, resp)
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


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--noise-sd", "-1"], "noise_sd must be nonnegative"),
    (["simulate", "--seed", "-1"], "seed must be nonnegative"),
    (["fit", "--model", "causal-linear", "--lam", "-1"], "lambda must be nonnegative"),
    (["fit", "--model", "regression", "--max-iter", "0"], "max_iter must be positive"),
    (["fit", "--model", "causal-ode", "--tol", "0"], "tol must be positive"),
    (["cv", "--scheme", "rf", "--model", "regression", "--reps", "0"], "reps must be >= 1"),
    (["cv", "--scheme", "rf", "--model", "regression", "--train-fraction", "1.5"],
     "train_fraction must lie strictly between 0 and 1"),
    (["cv", "--scheme", "rf", "--model", "regression", "--train-fraction", "0.001"],
     "degenerate split: 0 training rows out of 105"),
    (["cv", "--scheme", "lodo", "--model", "regression", "--seed", "-1"],
     "--seed must be >= 0, got -1"),
    (["cv", "--scheme", "lodo", "--model", "causal-linear", "--lam", "-1"],
     "lambda must be nonnegative"),
    (["cv", "--scheme", "lodo", "--model", "regression", "--max-iter", "0"],
     "max_iter must be positive"),
    (["cv", "--scheme", "rf", "--model", "causal-linear", "--tol", "0"], "tol must be positive"),
])
def test_out_of_range_numeric_option_is_config_error(argv, message, sim_dir, tmp_path, caplog):
    if argv[0] != "simulate":
        argv = argv + [f"--{k}={sim_dir / f'sim_{k}.csv'}"
                       for k in ("conditions", "responses", "targets")]
    caplog.set_level(logging.ERROR, logger="perturbpred")
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == EXIT_PARSE
    [record] = caplog.records
    assert message in record.getMessage()


@pytest.mark.parametrize("bad", ["drug", "response"])
@pytest.mark.parametrize("model", ["causal-linear", "causal-ode"])
@pytest.mark.parametrize("command", [["fit"], ["cv", "--scheme", "rf", "--reps", "2"],
                                     ["cv", "--scheme", "lodo"]], ids=["fit", "cv-rf", "cv-lodo"])
def test_target_map_for_other_data_is_dimension_error(command, model, bad, sim_dir, tmp_path,
                                                      caplog):
    # a map without the last drug, (5, 14), or the last response, (4, 15):
    # the first killed lambda = 0 causal-linear cv with numpy's matmul error,
    # the second killed causal-linear fit and cv with a LinAlgError, and the
    # causal-ode commands exited 3 naming a shape of some other array
    B, rows, cols = load_matrix_csv(sim_dir / "sim_targets.csv")
    B, rows, cols = (B[:, :-1], rows, cols[:-1]) if bad == "drug" else (B[:-1], rows[:-1], cols)
    save_matrix_csv(tmp_path / "b.csv", B, rows, cols)
    argv = [*command, "--model", model, "--targets", str(tmp_path / "b.csv"),
            "--conditions", str(sim_dir / "sim_conditions.csv"),
            "--responses", str(sim_dir / "sim_responses.csv"), "--out-dir", str(tmp_path / "out")]
    if model == "causal-ode":
        argv += ["--max-iter", "2"]
    caplog.set_level(logging.ERROR, logger="perturbpred")
    assert main(argv) == EXIT_DIMENSION
    [record] = caplog.records
    assert record.getMessage() == (f"target map has shape {B.shape}, but the data have "
                                   "5 responses and 15 drugs")


@pytest.mark.parametrize("model", ["causal-linear", "causal-ode"])
@pytest.mark.parametrize("command", [["fit"], ["cv", "--scheme", "rf", "--reps", "2"],
                                     ["cv", "--scheme", "lodo"]], ids=["fit", "cv-rf", "cv-lodo"])
def test_mask_for_other_data_is_dimension_error(command, model, sim_dir, tmp_path, caplog,
                                                monkeypatch):
    # a 2 x 2 mask against 5 responses killed fit and cv with numpy's
    # broadcast error; cv now refuses it before any fold, or lambda
    # selection, runs
    def no_fold(*args, **kwargs):
        raise AssertionError("a fold ran")

    monkeypatch.setattr(validate_module, "fit_blocks", no_fold)
    save_matrix_csv(tmp_path / "mask.csv", np.ones((2, 2)))
    argv = [*command, "--model", model, "--mask", str(tmp_path / "mask.csv"),
            *(f"--{k}={sim_dir / f'sim_{k}.csv'}" for k in ("conditions", "responses", "targets")),
            "--max-iter", "2", "--out-dir", str(tmp_path / "out")]
    caplog.set_level(logging.ERROR, logger="perturbpred")
    assert main(argv) == EXIT_DIMENSION
    [record] = caplog.records
    assert record.getMessage() == ("edge mask has shape (2, 2), but the data's 5 responses "
                                   "give W the shape (5, 5)")


def reversed_copy(src, dst, axis):
    """The matrix file src written to dst with its rows (axis 0) or its
    columns (axis 1), values and labels alike, in reverse order; returns the
    labels of that axis as they were."""
    values, rows, cols = load_matrix_csv(src)
    if axis == 0:
        save_matrix_csv(dst, values[::-1], rows[::-1], cols)
        return rows
    save_matrix_csv(dst, values[:, ::-1], rows, cols[::-1])
    return cols


PREDICT_CAUSAL = ["--params", "{w}", "--conditions", "{conditions}", "--targets", "{targets}",
                  "--out", "{out}/p.csv"]
FIT_CAUSAL = ["--conditions", "{conditions}", "--responses", "{responses}",
              "--targets", "{targets}", "--out-dir", "{out}"]


@pytest.mark.parametrize("argv, reversed_file, axis, named_file, named_axis", [
    (["predict", "--model", "regression", "--params", "{coefficients}",
      "--conditions", "{conditions}", "--out", "{out}/p.csv"],
     "conditions", 1, "coefficients", "row"),
    (["fit", "--model", "causal-linear", *FIT_CAUSAL], "targets", 0, "targets", "row"),
    (["cv", "--scheme", "lodo", "--model", "causal-linear", *FIT_CAUSAL],
     "targets", 1, "targets", "column"),
    (["fit", "--model", "causal-linear", "--lam", "0.05", "--mask", "{mask}", *FIT_CAUSAL],
     "mask", 0, "mask", "row"),
    (["cv", "--scheme", "rf", "--reps", "30", "--model", "causal-ode", "--max-iter", "2",
      "--mask", "{mask}", *FIT_CAUSAL], "mask", 1, "mask", "column"),
    (["predict", "--model", "causal-linear", *PREDICT_CAUSAL], "w", 0, "w", "row"),
    (["predict", "--model", "causal-linear", *PREDICT_CAUSAL], "targets", 0, "targets", "row"),
    (["predict", "--model", "causal-ode", "--epsilon", "{epsilon}", *PREDICT_CAUSAL],
     "epsilon", 1, "epsilon", "column"),
], ids=["predict-regression-drugs", "fit-target-responses", "cv-target-drugs", "fit-mask-rows",
        "cv-mask-columns", "predict-w-rows", "predict-target-responses", "predict-epsilon"])
def test_side_matrix_labels_out_of_order_are_dimension_error(
        argv, reversed_file, axis, named_file, named_axis, sim_dir, tmp_path, caplog):
    # a side matrix whose shape agrees with the data but whose labels name
    # the data's drugs or responses in another order was read by position:
    # each command exited 0 with predictions or a network mislabelled
    files = {k: str(sim_dir / f"sim_{k}.csv") for k in ("conditions", "responses", "targets")}
    resp = load_matrix_csv(files["responses"])[2]
    files.update({k: str(tmp_path / f"{k}.csv") for k in ("mask", "w", "epsilon")})
    save_matrix_csv(files["mask"], np.ones((5, 5)), resp, resp)
    save_matrix_csv(files["w"], -np.eye(5) + 0.1 * np.eye(5, k=1), resp, resp)
    save_matrix_csv(files["epsilon"], np.linspace(0.5, 1.5, 5)[None, :], ["epsilon"], resp)
    assert main(["fit", "--model", "regression", "--conditions", files["conditions"],
                 "--responses", files["responses"], "--out-dir", str(tmp_path / "fit")]) == EXIT_OK
    files["coefficients"] = str(tmp_path / "fit" / "coefficients.csv")
    labels = reversed_copy(files[reversed_file], tmp_path / "reversed.csv", axis)
    files[reversed_file] = str(tmp_path / "reversed.csv")
    got, want = labels[-1], labels[0]
    if named_file != reversed_file:  # the data were reordered, not the side matrix
        got, want = want, got
    caplog.set_level(logging.ERROR, logger="perturbpred")
    assert main([a.format(out=tmp_path / "out", **files) for a in argv]) == EXIT_DIMENSION
    [record] = caplog.records
    assert record.getMessage() == (f"{files[named_file]}: {named_axis} 1 is labelled {got!r}, "
                                   f"where the data have {want!r}")


def test_degenerate_split_wins_over_mislabelled_targets(sim_dir, tmp_path, caplog):
    # cv checks its split before the target map, its shape and its labels
    reversed_copy(sim_dir / "sim_targets.csv", tmp_path / "b.csv", 0)
    caplog.set_level(logging.ERROR, logger="perturbpred")
    assert main(["cv", "--scheme", "rf", "--model", "causal-linear", "--train-fraction", "0.001",
                 "--conditions", str(sim_dir / "sim_conditions.csv"),
                 "--responses", str(sim_dir / "sim_responses.csv"),
                 "--targets", str(tmp_path / "b.csv"), "--out-dir", str(tmp_path / "out")]) \
        == EXIT_PARSE
    [record] = caplog.records
    assert "degenerate split" in record.getMessage()


@pytest.mark.parametrize("command", [
    ["fit", "--responses", "x.csv", "--out-dir", "out"],
    ["cv", "--scheme", "rf", "--responses", "x.csv", "--out-dir", "out"],
    ["predict", "--params", "w.csv", "--out", "out"],
], ids=["fit", "cv", "predict"])
def test_unknown_envelope_is_config_error(command, tmp_path, caplog, monkeypatch):
    # checked before any file is read: none of these files exists
    monkeypatch.chdir(tmp_path)
    argv = [*command, "--model", "causal-ode", "--envelope", "bogus",
            "--conditions", "d.csv", "--targets", "b.csv"]
    caplog.set_level(logging.ERROR, logger="perturbpred")
    assert main(argv) == EXIT_PARSE
    [record] = caplog.records
    assert record.getMessage() == ("--envelope must be identity|clipped-linear|sigmoid, "
                                   "got 'bogus'")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, message", [
    (["fit", "--model", "regression", "--lam", "nan", "{data}"], "lambda must be nonnegative"),
    (["fit", "--model", "regression", "--config", "{tmp}/nan.cfg", "{data}"],
     "lambda must be nonnegative"),
    (["fit", "--model", "regression", "--lam", "inf", "{data}"], "lambda must be nonnegative"),
    (["fit", "--model", "causal-linear", "--lam", "0.5", "--tol", "inf", "{data}"],
     "tol must be positive"),
    (["fit", "--model", "causal-linear", "--lam", "0.5", "--tol", "nan", "{data}"],
     "tol must be positive"),
    (["simulate", "--noise-sd", "nan"], "noise_sd must be nonnegative"),
    (["simulate", "--noise-sd", "inf"], "noise_sd must be nonnegative"),
    (["export-network", "--network", "{sim}/sim_network_a.csv", "--threshold", "nan"],
     "threshold must be nonnegative and finite, got nan"),
    (["export-network", "--network", "{sim}/sim_network_a.csv", "--threshold", "-1"],
     "threshold must be nonnegative and finite, got -1.0"),
], ids=["lam-nan", "lam-nan-config", "lam-inf", "tol-inf", "tol-nan", "noise-sd-nan",
        "noise-sd-inf", "threshold-nan", "threshold-negative"])
def test_nan_or_infinite_option_is_config_error(argv, message, sim_dir, tmp_path, caplog):
    # unchecked, these ran: NaN lambda or tol to exit 4, infinite tol to a
    # one-iteration "converged" fit, NaN noise to noiseless responses, and a
    # NaN or negative threshold to an edge list of no or every entry
    (tmp_path / "nan.cfg").write_text("lam = nan\n")
    data = [f"--{k}={sim_dir / f'sim_{k}.csv'}" for k in ("conditions", "responses", "targets")]
    argv = [part for arg in argv
            for part in (data if arg == "{data}" else [arg.format(sim=sim_dir, tmp=tmp_path)])]
    caplog.set_level(logging.ERROR, logger="perturbpred")
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == EXIT_PARSE
    [record] = caplog.records
    assert message in record.getMessage()
    if argv[0] == "export-network":  # the threshold is checked before the out-dir is made
        assert not (tmp_path / "out").exists()


def test_predictions_that_overflow_exit_4(sim_dir, tmp_path, caplog):
    # every coefficient 1e308: each prediction sums several of them
    drugs = load_matrix_csv(sim_dir / "sim_conditions.csv")[2]
    save_matrix_csv(tmp_path / "r.csv", np.full((15, 5), 1e308), drugs,
                    [f"X{i}" for i in range(1, 6)], id_header="drug")
    caplog.set_level(logging.ERROR, logger="perturbpred")
    assert main(["predict", "--model", "regression", "--params", str(tmp_path / "r.csv"),
                 "--conditions", str(sim_dir / "sim_conditions.csv"),
                 "--out", str(tmp_path / "p.csv")]) == EXIT_NONCONVERGENCE
    [record] = caplog.records
    assert record.getMessage() == "regression predictions overflow the floating-point range"
    assert not (tmp_path / "p.csv").exists()


def test_predict_makes_the_directory_of_its_output(sim_dir, tmp_path):
    fit_out = tmp_path / "fit"
    assert main(["fit", "--model", "regression",
                 "--conditions", str(sim_dir / "sim_conditions.csv"),
                 "--responses", str(sim_dir / "sim_responses.csv"),
                 "--out-dir", str(fit_out)]) == EXIT_OK
    out = tmp_path / "missing" / "dir" / "p.csv"
    assert main(["predict", "--model", "regression", "--params", str(fit_out / "coefficients.csv"),
                 "--conditions", str(sim_dir / "sim_conditions.csv"),
                 "--out", str(out)]) == EXIT_OK
    assert load_matrix_csv(out)[0].shape == (105, 5)


def test_predict_out_that_is_a_directory_is_config_error(tmp_path, caplog):
    # an --out that names a directory ended in an IsADirectoryError
    # traceback once the whole prediction had run; it is refused before any
    # input is read (these inputs do not exist)
    out = tmp_path / "isdir"
    out.mkdir()
    caplog.set_level(logging.ERROR, logger="perturbpred")
    assert main(["predict", "--model", "causal-linear", "--params", str(tmp_path / "w.csv"),
                 "--conditions", str(tmp_path / "d.csv"), "--targets", str(tmp_path / "b.csv"),
                 "--out", str(out)]) == EXIT_PARSE
    [record] = caplog.records
    assert record.getMessage() == f"--out {out} is a directory; it must name the predictions file"


@pytest.mark.parametrize("command", [
    ["simulate", "--out-dir", "{out}"],
    ["fit", "--model", "regression", "--conditions", "{sim}/sim_conditions.csv",
     "--responses", "{sim}/sim_responses.csv", "--out-dir", "{out}"],
    ["cv", "--scheme", "lodo", "--model", "regression", "--conditions",
     "{sim}/sim_conditions.csv", "--responses", "{sim}/sim_responses.csv", "--out-dir", "{out}"],
    ["export-network", "--network", "{sim}/sim_network_a.csv", "--out-dir", "{out}"],
    ["predict", "--model", "regression", "--params", "{sim}/sim_network_a.csv",
     "--conditions", "{sim}/sim_conditions.csv", "--out", "{out}/p.csv"],
], ids=["simulate", "fit", "cv", "export-network", "predict"])
def test_out_dir_that_cannot_be_made_is_config_error(command, sim_dir, tmp_path, caplog):
    # a path below a regular file: each command died in a NotADirectoryError
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "sub"
    argv = [arg.format(sim=sim_dir, out=out) for arg in command]
    caplog.set_level(logging.ERROR, logger="perturbpred")
    assert main(argv) == EXIT_PARSE
    [record] = caplog.records
    assert record.getMessage() == f"cannot make output directory {out}: Not a directory"


@pytest.mark.parametrize("epsilon", [[0.8, 0.0], [-1.0, 1.5], [1.0, np.nan]])
def test_nonpositive_epsilon_file_is_config_error(epsilon, ode_dir, caplog):
    # a NaN entry, unchecked, exited 4: "trajectory diverged at t = 0.01"
    save_matrix_csv(ode_dir / "w.csv", -np.eye(2), ["r1", "r2"], ["r1", "r2"])
    save_matrix_csv(ode_dir / "eps.csv", np.array([epsilon]), ["epsilon"], ["r1", "r2"])
    caplog.set_level(logging.ERROR, logger="perturbpred")
    assert main(["predict", "--model", "causal-ode", "--params", str(ode_dir / "w.csv"),
                 "--conditions", str(ode_dir / "cond.csv"), "--targets",
                 str(ode_dir / "targets.csv"), "--epsilon", str(ode_dir / "eps.csv"),
                 "--out", str(ode_dir / "p.csv")]) == EXIT_PARSE
    [record] = caplog.records
    assert record.getMessage() == (f"--epsilon {ode_dir / 'eps.csv'}: epsilon entries must be "
                                   + ("finite" if np.isnan(epsilon).any() else "positive"))
    assert not (ode_dir / "p.csv").exists()


@pytest.mark.parametrize("argv, message", [
    (["fit", "--model", "causal-linear", "--conditions", "{c}", "--responses", "{r}"],
     "causal-linear requires --targets"),
    (["fit", "--model", "regression", "--conditions", "{c}"],
     "fit requires --conditions and --responses"),
    (["predict", "--model", "regression", "--conditions", "{c}", "--out", "{out}/p.csv"],
     "predict requires --params, --conditions, and --out"),
    (["cv", "--scheme", "kfold", "--model", "regression", "--conditions", "{c}",
      "--responses", "{r}"], "--scheme must be rf|lodo, got 'kfold'"),
    (["cv", "--scheme", "rf", "--model", "regression", "--conditions", "{c}"],
     "cv requires --conditions and --responses"),
    (["export-network"], "export-network requires --network"),
    (["export-network", "--network", "{n}", "--form", "X"],
     "--form must be 'A-form' or 'W-form', got 'X'"),
], ids=["no-targets", "fit-no-responses", "predict-no-params", "cv-kfold", "cv-no-responses",
        "no-network", "export-form"])
def test_missing_or_unknown_option_is_config_error(argv, message, sim_dir, tmp_path, caplog):
    files = {"c": sim_dir / "sim_conditions.csv", "r": sim_dir / "sim_responses.csv",
             "n": sim_dir / "sim_network_a.csv", "out": tmp_path / "out"}
    argv = [arg.format(**files) for arg in argv]
    if argv[0] != "predict":
        argv += ["--out-dir", str(tmp_path / "out")]
    caplog.set_level(logging.ERROR, logger="perturbpred")
    assert main(argv) == EXIT_PARSE
    [record] = caplog.records
    assert record.getMessage() == message


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "perturbpred" in capsys.readouterr().out
