"""File formats: labeled CSV matrices, JSON reports, network exports, config.

Matrices travel as comma-separated tables with a header row of column names
and a first column of condition/row IDs.  Values are written with 17
significant digits so a write/read round trip is exact.  Rows are parsed
and formatted whole, one float() pass or one format string per row; a row
that fails the whole-row parse is re-read cell by cell, so a ParseError
names the file line and column of the first bad cell.  Reports are JSON;
fitted networks export as an edge-list CSV and Graphviz dot text.
"""

from __future__ import annotations

import csv
import json
import os
import re
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ParseError
from .types import ConditionMatrix, ResponseMatrix, duplicate_labels

FLOAT_FMT = "%.17g"
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def load_matrix_csv(path):
    """Parse a labeled matrix file.

    Returns (values, row_ids, col_names).  Blank and whitespace-only lines
    are skipped.  Every structural problem is reported with its file line
    (as "row N") and column.
    """
    try:
        with open(path, newline="") as fh:
            return _parse_matrix(path, csv.reader(fh))
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not {exc.encoding} text ({exc.reason})") from exc


def _parse_matrix(path, reader):
    """load_matrix_csv on an open csv.reader, one row at a time."""
    rows = (row for row in reader if any(map(str.strip, row)))
    header = next(rows, None)
    if header is None:
        raise ParseError(f"{path}: file is empty")
    header = [c.strip() for c in header]
    if len(header) < 2:
        raise ParseError(f"{path}: header must have an ID column plus data columns")
    col_names = header[1:]
    dup = duplicate_labels(col_names)
    if dup:
        raise ParseError(f"{path}: duplicate column labels: {sorted(dup)}")

    n_cols = len(header)
    row_ids = []
    values = array("d")  # one buffer of doubles, not a float object per cell
    for row in rows:
        try:
            if len(row) != n_cols:
                raise ValueError("ragged row")
            values.fromlist([*map(float, row[1:])])
        except ValueError:
            values.fromlist(_parse_cells(path, row, reader.line_num, n_cols))
        row_ids.append(row[0].strip())
    if not row_ids:
        raise ParseError(f"{path}: no data rows")
    dup_ids = duplicate_labels(row_ids)
    if dup_ids:
        raise ParseError(f"{path}: duplicate row labels: {sorted(dup_ids)}")
    return np.frombuffer(values).reshape(len(row_ids), n_cols - 1), row_ids, col_names


def _parse_cells(path, row, line, n_cols):
    """One row checked cell by cell: ParseError at its first fault.

    Runs only where the whole-row float() pass failed, so the message names
    the same fault a cell-by-cell reader meets first.  It can also succeed:
    str.strip() removes U+001C..U+001F, which float() rejects.
    """
    if len(row) != n_cols:
        raise ParseError(
            f"{path}: row {line} has {len(row)} cells, expected {n_cols} (ragged table)"
        )
    parsed = []
    for j, cell in enumerate(row[1:], start=2):
        text = cell.strip()
        try:
            parsed.append(float(text))
        except ValueError:
            raise ParseError(
                f"{path}: non-numeric cell {text!r} at row {line}, column {j}"
            ) from None
    return parsed


def csv_labels(labels):
    """Each label as csv.writer writes it in a row of two or more fields:
    quoted, with its quotes doubled, where it holds a comma, quote or line
    break.  Called once per file, not per row: perfbench's tracer records a
    span for every call of a public io function."""
    fields = []
    for text in map(str, labels):
        if _NEEDS_QUOTES.search(text):
            text = '"' + text.replace('"', '""') + '"'
        fields.append(text)
    return fields


def save_matrix_csv(path, values, row_ids=None, col_names=None, id_header="id"):
    values = np.asarray(values)
    n, m = values.shape
    if row_ids is None:
        row_ids = [f"row_{i + 1}" for i in range(n)]
    if col_names is None:
        col_names = [f"col_{j + 1}" for j in range(m)]
    line = "%s" + ("," + FLOAT_FMT) * m + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow([id_header] + list(col_names))
        fh.writelines(  # Python floats format faster
            line % (rid, *row.tolist()) for rid, row in zip(csv_labels(row_ids), values)
        )


def load_condition_matrix(path):
    values, row_ids, names = load_matrix_csv(path)
    return ConditionMatrix(values, names), row_ids


def load_response_matrix(path):
    values, row_ids, names = load_matrix_csv(path)
    return ResponseMatrix(values, names), row_ids


def write_json_report(path, payload):
    """Write payload as the text of json.dumps(payload, indent=2,
    sort_keys=True) and a newline, in one write (json.dump would issue one
    per token).

    indent=2 makes json.dumps use its pure-Python encoder, a generator per
    value, so a cv report's list of per_fold entries, flat dicts of scalars,
    is written by :func:`_flat_dicts_json` with the C encoder instead.  The
    rest of the report is encoded with an empty list in its place, and
    '\n  "per_fold": []' can only be that top-level key: JSON text holds a
    newline only between tokens, and nested keys sit deeper.
    """
    entries = payload.get("per_fold") if isinstance(payload, dict) else None
    if entries and all(isinstance(entry, dict) and entry and _scalars_only(entry)
                       for entry in entries):
        text = json.dumps({**payload, "per_fold": []}, indent=2, sort_keys=True).replace(
            '\n  "per_fold": []', '\n  "per_fold": ' + _flat_dicts_json(entries, "  "), 1
        )
    else:
        text = json.dumps(payload, indent=2, sort_keys=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _scalars_only(entry):
    return all(isinstance(value, (str, int, float, type(None))) for value in entry.values())


def _flat_dicts_json(entries, indent):
    """json.dumps(entries, indent=2, sort_keys=True) for a non-empty list of
    non-empty dicts of scalars, with every line after the first indented by
    indent, from one call of the C encoder.

    The C encoder runs without indent, so the newline and indent of a dict's
    items go into its item separator.  That separator also falls between the
    dicts, always as "}" + separator + "{", which nothing inside a dict of
    scalars forms (no scalar ends in "}" or starts with "{"), so one replace
    indents those boundaries.
    """
    inner, items = indent + "  ", indent + "    "
    core = json.dumps(entries, sort_keys=True, separators=(",\n" + items, ": "))[2:-2]
    core = core.replace("},\n" + items + "{", "\n" + inner + "},\n" + inner + "{\n" + items)
    return "[\n" + inner + "{\n" + items + core + "\n" + inner + "}\n" + indent + "]"


@dataclass(frozen=True)
class NetworkExport:
    """Thresholded edge list of a fitted A-form network."""

    edges: tuple  # (source_name, target_name, weight)
    threshold: float

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["source", "target", "weight"])
            for src, dst, w in self.edges:
                writer.writerow([src, dst, FLOAT_FMT % w])

    def write_dot(self, path):
        with open(path, "w") as fh:
            fh.write("digraph network {\n")
            for src, dst, w in self.edges:
                fh.write(f'  "{src}" -> "{dst}" [label="{w:.3g}", weight={abs(w):.3g}];\n')
            fh.write("}\n")


def export_network(A, names=None, threshold=0.2) -> NetworkExport:
    """Edge list from an A-form matrix, dropping |weight| below threshold.

    A[i, j] is the effect of node j on node i, so the exported edge runs
    from j to i.
    """
    A = np.asarray(A)
    p = A.shape[0]
    if names is None:
        names = [f"X{i + 1}" for i in range(p)]
    edges = []
    for i in range(p):
        for j in range(p):
            if i != j and abs(A[i, j]) >= threshold:
                edges.append((names[j], names[i], float(A[i, j])))
    return NetworkExport(tuple(edges), threshold)


def load_run_config(path, known_keys):
    """Flat key=value config file; unknown keys are rejected, '#' starts a comment."""
    cfg = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"cannot read config {path}: not {exc.encoding} text ({exc.reason})"
        ) from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in known_keys:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        cfg[key] = value
    return cfg


def default_output_dir():
    """Output directory default, overridable by PERTURBPRED_OUT_DIR."""
    return os.environ.get("PERTURBPRED_OUT_DIR", ".")
