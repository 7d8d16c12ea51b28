"""File formats: labeled CSV matrices, JSON reports, network exports, config.

Matrices travel as comma-separated tables with a header row of column names
and a first column of condition/row IDs.  Values are written with 17
significant digits so a write/read round trip is exact, one format string
per row.  A matrix file is read as one text.  A plain table, one csv row per
line with no quotes and a number in every cell, is parsed by numpy's C text
reader; any other text goes through csv.reader, one float() pass per row,
and a row that fails that pass is re-read cell by cell, so a ParseError
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
from io import StringIO
from itertools import chain

import numpy as np

from .errors import ConfigError, ParseError
from .types import ConditionMatrix, ResponseMatrix, duplicate_labels

FLOAT_FMT = "%.17g"
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')
# the exact types of a per_fold value the C encoder writes as indent=2 does;
# any other (a bool, a numpy scalar) sends the report to json.dumps whole
_JSON_SCALARS = frozenset({str, int, float, type(None)})


def load_matrix_csv(path):
    """Parse a labeled matrix file.

    Returns (values, row_ids, col_names).  Blank and whitespace-only lines
    are skipped.  Every structural problem is reported with its file line
    (as "row N") and column.
    """
    try:
        with open(path, newline="") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not {exc.encoding} text ({exc.reason})") from exc
    return _parse_plain(text) or _parse_matrix(path, csv.reader(StringIO(text, newline="")))


def _parse_plain(text):
    """load_matrix_csv's result for a plain table, by numpy's C text reader,
    or None for any other text, which the csv path then reads.

    A table is plain when it holds no quote, no NUL and no CR outside a
    CRLF; its header has two or more distinct names; it has data lines, and
    each holds exactly one comma fewer than the header has names (so none is
    blank); np.loadtxt reads every cell; and no row ID repeats.  Each line is
    then one csv row, and its row ID is the text before its first comma.
    np.loadtxt reads a cell as str.strip() then float() do: it strips the
    same whitespace and parses ASCII with the same parser.  It refuses what
    only float() reads, "1_000" or non-ASCII digits, so those tables take
    the csv path.
    """
    crlf = text.count("\r\n")
    if '"' in text or "\0" in text or text.count("\r") != crlf:
        return None
    if crlf == text.count("\n"):
        lines = text.split("\r\n")
    else:
        lines = text.replace("\r\n", "\n").split("\n")
    if not lines[-1]:
        lines.pop()
    if len(lines) < 2:
        return None
    header = [name.strip() for name in lines[0].split(",")]
    n_cols, data = len(header), lines[1:]
    # one count over the text, not one per line: np.loadtxt raises on a line
    # short of a column and skips only empty lines, so once it has read a
    # row from every line (the length test below), this total leaves each
    # data line exactly n_cols - 1 commas
    if n_cols < 2 or len(set(header)) < n_cols or text.count(",") != (n_cols - 1) * len(lines):
        return None
    try:
        values = np.loadtxt(data, delimiter=",", usecols=range(1, n_cols), dtype=float,
                            comments=None, quotechar=None, ndmin=2)
    except ValueError:
        return None
    row_ids = [line.partition(",")[0].strip() for line in data]
    if len(values) != len(data) or len(set(row_ids)) < len(row_ids):
        return None
    return values, row_ids, header[1:]


def _rows(path, reader):
    """The rows of a csv.reader that hold a non-blank cell.  A csv.Error,
    such as a field over the csv module's size limit, raises ParseError
    naming the file line."""
    try:
        for row in reader:
            if any(map(str.strip, row)):
                yield row
    except csv.Error as exc:
        raise ParseError(f"{path}: row {reader.line_num}: {exc}") from None


def _parse_matrix(path, reader):
    """load_matrix_csv on an open csv.reader, one row at a time."""
    rows = _rows(path, reader)
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
    fields = list(map(str, labels))
    if not _NEEDS_QUOTES.search("".join(fields)):
        return fields
    return ['"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES.search(text) else text
            for text in fields]


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
            line % (rid, *row) for rid, row in zip(csv_labels(row_ids), values.tolist())
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
    is written by :func:`_flat_dicts_json` with the C encoder instead.  One
    pass over their exact types checks that they are non-empty dicts whose
    values are str, int, float or None.  The rest of the report is encoded
    with an empty list in its place, and '\n  "per_fold": []' can only be
    that top-level key: JSON text holds a newline only between tokens, and
    nested keys sit deeper.
    """
    entries = payload.get("per_fold") if isinstance(payload, dict) else None
    flat = entries and all(type(entry) is dict and entry for entry in entries)
    cells = chain.from_iterable(map(dict.values, entries)) if flat else ()
    if flat and _JSON_SCALARS.issuperset(map(type, cells)):
        text = json.dumps({**payload, "per_fold": []}, indent=2, sort_keys=True).replace(
            '\n  "per_fold": []', '\n  "per_fold": ' + _flat_dicts_json(entries, "  "), 1
        )
    else:
        text = json.dumps(payload, indent=2, sort_keys=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")


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
