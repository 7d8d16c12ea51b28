import csv
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from perturbpred.errors import ConfigError, ParseError
from perturbpred.io import (
    NetworkExport,
    _parse_plain,
    default_output_dir,
    export_network,
    load_condition_matrix,
    load_matrix_csv,
    load_response_matrix,
    load_run_config,
    save_matrix_csv,
    write_json_report,
)
from perturbpred.types import duplicate_labels


def reference_load_matrix_csv(path):
    """The cell-by-cell reader load_matrix_csv replaced, kept as its oracle.

    Positions are file lines (csv.reader.line_num), as load_matrix_csv
    reports them.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, r) for r in reader if r and any(cell.strip() for cell in r)]
    if not rows:
        raise ParseError(f"{path}: file is empty")
    header = [c.strip() for c in rows[0][1]]
    if len(header) < 2:
        raise ParseError(f"{path}: header must have an ID column plus data columns")
    col_names = header[1:]
    dup = duplicate_labels(col_names)
    if dup:
        raise ParseError(f"{path}: duplicate column labels: {sorted(dup)}")

    n_cols = len(header)
    row_ids = []
    values = []
    for i, row in rows[1:]:
        if len(row) != n_cols:
            raise ParseError(
                f"{path}: row {i} has {len(row)} cells, expected {n_cols} (ragged table)"
            )
        row_ids.append(row[0].strip())
        parsed = []
        for j, cell in enumerate(row[1:], start=2):
            text = cell.strip()
            try:
                parsed.append(float(text))
            except ValueError:
                raise ParseError(
                    f"{path}: non-numeric cell {text!r} at row {i}, column {j}"
                ) from None
        values.append(parsed)
    if not values:
        raise ParseError(f"{path}: no data rows")
    dup_ids = duplicate_labels(row_ids)
    if dup_ids:
        raise ParseError(f"{path}: duplicate row labels: {sorted(dup_ids)}")
    return np.array(values), row_ids, col_names


def reference_save_matrix_csv(path, values, row_ids, col_names, id_header="id"):
    """The csv.writer loop save_matrix_csv replaced, kept as its oracle."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([id_header] + list(col_names))
        for rid, row in zip(row_ids, np.asarray(values)):
            writer.writerow([rid] + ["%.17g" % v for v in row.tolist()])


def _outcome(load, path):
    """(values' bit pattern, row ids, column names), or the ParseError text."""
    try:
        values, row_ids, col_names = load(path)
    except ParseError as exc:
        return str(exc)
    return values.shape, values.tobytes(), row_ids, col_names


# Cells that float() reads, with padding str.strip() removes: U+001C..U+001F
# are whitespace to strip() but not to float().
NUMBERS = ["0", "1", "-2.5", "1e-300", "4.9e-324", "-0.0", "nan", "-NaN", "inf",
           "-Infinity", "1_000", "1e400", ".5", "5.", "+3", "1.7976931348623157e308"]
PADDINGS = [["", " ", "\t", "  "], ["", "\xa0", "\u2003 "], ["", "\x1c", " \x1f"]]
BLANK_ROWS = [[], [""], ["   "], ["", "", ""], [" ", "\t"]]
LABEL_TEXT = st.text(st.sampled_from('ab ,"\n_'), max_size=3)


@st.composite
def tables(draw):
    """Rows of a matrix file, blank rows included, with up to two faults."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(0, 5))
    pad = st.sampled_from(draw(st.sampled_from(PADDINGS)))
    number = st.sampled_from(NUMBERS) | st.floats().map(repr)
    cell = st.builds(lambda left, x, right: left + x + right, pad, number, pad)
    rows = [["id"] + [draw(LABEL_TEXT) + f"c{j}" for j in range(m)]]
    rows += [[draw(LABEL_TEXT) + f"r{i}"] + draw(st.lists(cell, min_size=m, max_size=m))
             for i in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(rows) - 1))
        row = rows[k]
        j = draw(st.integers(0, len(row) - 1))
        fault = draw(st.sampled_from(["short", "long", "text", "empty", "same-label"]))
        if fault == "short" and len(row) > 1:
            del row[j]
        elif fault == "long":
            row.insert(j, "7")
        elif fault == "text":
            row[j] = "oops"
        elif fault == "empty":
            row[j] = " "
        elif fault == "same-label" and k == 0:
            row[j] = row[-1]
        elif fault == "same-label":
            row[0] = rows[-1][0]
    for _ in range(draw(st.integers(0, 3))):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(BLANK_ROWS)))
    return rows


PLAIN_LABEL = st.text(st.sampled_from("ab _#\u00e9"), max_size=3)


@st.composite
def plain_texts(draw):
    """The text of a matrix file with no quote, blank line or ragged row, so
    that only its numbers and their padding can keep it off numpy's reader."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 5))
    pad = st.sampled_from(draw(st.sampled_from(PADDINGS)))
    number = st.sampled_from(NUMBERS) | st.floats().map(repr)
    cell = st.builds(lambda left, x, right: left + x + right, pad, number, pad)
    lines = [",".join(["id"] + [draw(PLAIN_LABEL) + f"c{j}" for j in range(m)])]
    for i in range(n):
        cells = draw(st.lists(cell, min_size=m, max_size=m))
        lines.append(",".join([draw(PLAIN_LABEL) + f"r{i}"] + cells))
    newline = draw(st.sampled_from(["\r\n", "\n"]))
    return newline.join(lines) + draw(st.sampled_from([newline, ""]))


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

    @pytest.mark.parametrize("text,message", [
        ("id,a,b\n\n,,\nr1,1,2\nr2,1,oops\n", "non-numeric cell 'oops' at row 5, column 3"),
        ("id,a,b\n  \n\t,\nr1,1,2\n\nr2,3\n", "row 6 has 2 cells, expected 3"),
        ("\n \nid,a\nr1,x\n", "non-numeric cell 'x' at row 4, column 2"),
    ])
    def test_positions_are_file_lines_across_blank_lines(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match=message):
            load_matrix_csv(path)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(rows=tables(), newline=st.sampled_from(["\r\n", "\n"]))
    def test_reader_matches_the_cell_by_cell_reader(self, tmp_path_factory, rows, newline):
        path = tmp_path_factory.mktemp("table") / "t.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator=newline).writerows(rows)
        assert _outcome(load_matrix_csv, path) == _outcome(reference_load_matrix_csv, path)

    def test_plain_tables_match_the_cell_by_cell_reader(self, tmp_path):
        # mostly tables numpy's reader takes; each must load as the reference
        # does, bit for bit, or raise its ParseError
        path = tmp_path / "t.csv"
        took = []

        @settings(max_examples=300, deadline=None, derandomize=True)
        @given(text=plain_texts())
        @example(text="id,a,b\r\nr1,1_000,2\r\n")  # float() reads it, numpy does not
        @example(text="id,a\nr1,\u0661\n")  # an Arabic-Indic 1, likewise
        @example(text="id,a,b\nr1,\x1c1\x1f,2\nr2,\x1c3,4\x1c\n")  # float() refuses the padding
        @example(text="id,a,b\nr1,\xa01,2\xa0\n")
        @example(text="id,a,b\nr1,-NaN,1e400\n")
        @example(text="id,#a\n#r1,1\nr#2,2\n")
        @example(text='id,"a"\n"r1",1\n')  # quoted labels
        @example(text="id,a\nr1,1,\n")  # a trailing comma
        @example(text="id,a,\nr1,1,\n")
        @example(text="id,a\rr1,1\rr2,2\r")  # CR-only line ends
        @example(text="id,a\r\nr1,1\nr2,2\r\n")
        @example(text="id,a\n \t\nr1,1\n")  # a whitespace-only line
        @example(text="id,a,b\nr1,1,2\n , \n")
        @example(text="id,a,b\n")  # header only
        @example(text="id\nr1\n")  # no data column
        @example(text="id,a\nr1,1\n r1 ,2\n")  # a repeated row ID
        @example(text="id,a,b\nr1,1,2,3\n")  # a long row
        @example(text="id,a,b\nr1,1,2,3\nr2,4\n")  # one long, one short
        @example(text="id,a,b\nr1,1,2,3,4\n\n")  # a long row and a blank line
        def check(text):
            with open(path, "w", newline="") as fh:
                fh.write(text)
            took.append(_parse_plain(text) is not None)
            assert _outcome(load_matrix_csv, path) == _outcome(reference_load_matrix_csv, path)

        check()
        assert sum(took) > len(took) / 2

    @pytest.mark.parametrize("row_ids", [
        ["plain", "a,b", 'say "hi"', "cr\rin", "lf\nin", ""],
        [" padded ", "\u00e9t\u00e9", '"', ",", "\r\n", "x"],
    ])
    def test_writer_matches_the_csv_writer_loop(self, tmp_path, row_ids):
        tiny = np.nextafter(0.0, 1.0)
        values = np.array([
            [tiny, -tiny, 2.2250738585072014e-308, 1e-310],
            [0.0, -0.0, 1e308, -1e308],
            [1.0, -3.0, 2.0**53, 1e16],
            [np.nan, np.inf, -np.inf, 0.1],
            [np.pi, -1 / 3, 123456.0, 5e-324],
            [1e22, 1e-5, 12345678901234567890.0, -7.0],
        ])
        names = ["a", "b,c", 'd"e', ""]
        for header in ("id", "drug"):
            new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
            save_matrix_csv(new, values, row_ids, names, id_header=header)
            reference_save_matrix_csv(ref, values, row_ids, names, id_header=header)
            assert new.read_bytes() == ref.read_bytes()
            back, ids, cols = load_matrix_csv(new)
            assert back.tobytes() == values.tobytes()
            assert (ids, cols) == ([r.strip() for r in row_ids], [c.strip() for c in names])

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

    def test_field_over_the_csv_limit_reported_with_position(self, tmp_path):
        # the quoted label sends the table to csv.reader, whose field size
        # limit (131,072 characters) the padded cell exceeds
        path = tmp_path / "long.csv"
        path.write_text('id,"a"\nr1,' + " " * 140_000 + "1\n")
        with pytest.raises(ParseError, match=f"^{path}: row 2: field larger than field limit"):
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


JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2**80, 2**80),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 10**30]),
    st.text(max_size=6),
)
FLAT_ENTRIES = st.dictionaries(st.text(max_size=6), JSON_SCALARS, max_size=5)
JSON_VALUES = st.recursive(
    st.one_of(JSON_SCALARS, FLAT_ENTRIES),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    per_fold=st.lists(FLAT_ENTRIES, max_size=6),
    rest=st.dictionaries(st.text(max_size=6), JSON_VALUES, max_size=4),
)
@example(per_fold=[{"mae": float("nan"), "n_test": 32, "pearson_r": None, "repetition": 0},
                   {"mae": -0.0, "n_test": 10**30, "pearson_r": float("-inf"), "repetition": 1}],
         rest={"lambda_cv_scores": {0.001: float("inf"), 0.1: 2.5}, "status": [], "fits": {}})
def test_json_report_bytes_equal_json_dumps(per_fold, rest, tmp_path_factory):
    # per_fold holds the flat entries a cv report writes, rest anything else
    # json can encode, nested
    payload = {**rest, "per_fold": per_fold}
    path = tmp_path_factory.mktemp("json") / "report.json"
    write_json_report(path, payload)
    assert path.read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_write_json_report(tmp_path):
    path = tmp_path / "report.json"
    payload = {"pearson_r": 0.9, "nested": {"a": [1, 2]}, "b": [1.5, {"z": None, "a": "x"}]}
    write_json_report(path, payload)
    with open(path) as fh:
        back = json.load(fh)
    assert back["pearson_r"] == 0.9
    assert back["nested"]["a"] == [1, 2]
    # the bytes json.dump streams, written in one call
    with open(tmp_path / "streamed.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    assert path.read_bytes() == (tmp_path / "streamed.json").read_bytes()


def test_default_output_dir_env(monkeypatch):
    monkeypatch.delenv("PERTURBPRED_OUT_DIR", raising=False)
    assert default_output_dir() == "."
    monkeypatch.setenv("PERTURBPRED_OUT_DIR", "/tmp/somewhere")
    assert default_output_dir() == "/tmp/somewhere"
