import numpy as np
import pytest

from perturbpred.errors import ConfigError, ParseError
from perturbpred.io import (
    NetworkExport,
    default_output_dir,
    export_network,
    load_condition_matrix,
    load_matrix_csv,
    load_response_matrix,
    load_run_config,
    save_matrix_csv,
    write_json_report,
)


class TestMatrixCsv:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(7, 4)) * 10.0 ** rng.integers(-8, 8, size=(7, 4))
        path = tmp_path / "m.csv"
        save_matrix_csv(path, values, col_names=["a", "b", "c", "d"])
        back, row_ids, col_names = load_matrix_csv(path)
        assert np.array_equal(back, values)  # bitwise, thanks to 17 digits
        assert col_names == ["a", "b", "c", "d"]
        assert len(row_ids) == 7

    def test_ragged_row_reported_with_position(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,a,b\nr1,1,2\nr2,3\n")
        with pytest.raises(ParseError, match="row 3"):
            load_matrix_csv(path)

    def test_non_numeric_cell_reported(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,a,b\nr1,1,oops\n")
        with pytest.raises(ParseError, match="row 2, column 3"):
            load_matrix_csv(path)

    def test_duplicate_column_labels(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,a,a\nr1,1,2\n")
        with pytest.raises(ParseError, match="duplicate column"):
            load_matrix_csv(path)

    def test_duplicate_row_labels(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,a\nr1,1\nr1,2\n")
        with pytest.raises(ParseError, match="duplicate row"):
            load_matrix_csv(path)

    def test_duplicate_labels_listed_sorted_once(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,b,a,b,a,b\nr2,1,2,3,4,5\nr1,1,2,3,4,5\nr2,1,2,3,4,5\nr1,1,2,3,4,5\n")
        with pytest.raises(ParseError, match=r"duplicate column labels: \['a', 'b'\]"):
            load_matrix_csv(path)
        path.write_text("id,a\nr2,1\nr1,2\nr2,3\nr1,4\nr2,5\n")
        with pytest.raises(ParseError, match=r"duplicate row labels: \['r1', 'r2'\]"):
            load_matrix_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError, match="empty"):
            load_matrix_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("id,a,b\n")
        with pytest.raises(ParseError, match="no data rows"):
            load_matrix_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read"):
            load_matrix_csv(tmp_path / "nope.csv")

    def test_condition_loader_rejects_negative_doses(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,a\nr1,-1\n")
        with pytest.raises(ValueError):
            load_condition_matrix(path)

    def test_response_loader(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("id,p1,p2\nc1,0.5,-0.25\nc2,1.5,0\n")
        X, row_ids = load_response_matrix(path)
        assert X.response_names == ("p1", "p2")
        assert row_ids == ["c1", "c2"]
        assert X.values[0, 1] == -0.25


class TestNetworkExport:
    def test_orientation_and_threshold(self):
        # A[i, j] is the effect of node j on node i: edge j -> i
        A = np.zeros((3, 3))
        A[1, 0] = 0.5
        A[2, 1] = -0.3
        A[0, 2] = 0.1  # below threshold, dropped
        np.fill_diagonal(A, 0.9)  # diagonal never exported
        exp = export_network(A, ["X1", "X2", "X3"], threshold=0.2)
        assert set(exp.edges) == {("X1", "X2", 0.5), ("X2", "X3", -0.3)}

    def test_write_csv_and_dot(self, tmp_path):
        exp = NetworkExport((("X1", "X2", 1.6),), 0.2)
        csv_path = tmp_path / "edges.csv"
        dot_path = tmp_path / "net.dot"
        exp.write_csv(csv_path)
        exp.write_dot(dot_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "source,target,weight"
        assert lines[1].startswith("X1,X2,1.6")
        dot = dot_path.read_text()
        assert dot.startswith("digraph")
        assert '"X1" -> "X2"' in dot


class TestRunConfig:
    def test_parse_with_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# settings\nseed = 7\nnoise-sd=0.3  # inline\n\n")
        cfg = load_run_config(path, {"seed", "noise-sd"})
        assert cfg == {"seed": "7", "noise-sd": "0.3"}

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("sneed = 7\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            load_run_config(path, {"seed"})

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("just some words\n")
        with pytest.raises(ConfigError, match="key=value"):
            load_run_config(path, {"seed"})

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_run_config(tmp_path / "nope.cfg", {"seed"})


def test_write_json_report(tmp_path):
    import json

    path = tmp_path / "report.json"
    write_json_report(path, {"pearson_r": 0.9, "nested": {"a": [1, 2]}})
    with open(path) as fh:
        back = json.load(fh)
    assert back["pearson_r"] == 0.9
    assert back["nested"]["a"] == [1, 2]


def test_default_output_dir_env(monkeypatch):
    monkeypatch.delenv("PERTURBPRED_OUT_DIR", raising=False)
    assert default_output_dir() == "."
    monkeypatch.setenv("PERTURBPRED_OUT_DIR", "/tmp/somewhere")
    assert default_output_dir() == "/tmp/somewhere"
