"""CSV observation tables and JSON run sidecars.

Dialect: comma-separated, mandatory header row, '.' decimal point, CRLF
line ends.  A first column named exactly ``timestamp`` holds
ISO-8601 text and is kept out of the numeric matrix.  Numbers are written as
``%.17g`` (17 significant digits, which round-trips IEEE doubles losslessly),
so any file written here can be re-ingested by any command without drift.
The header, row labels and timestamps get the ``csv`` module's minimal
quoting: a field holding a comma, a double quote or a line break is quoted.

Rows, not cells, are the unit of Python work: a read parses a row with one
``map(float, ...)`` and checks it with one ``map(math.isfinite, ...)``, and
a write formats a row's numbers with one ``%`` on a whole-row format.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

__all__ = ["ObservationTable", "read_table", "write_table", "write_labeled_matrix", "write_sidecar"]

TIMESTAMP_COLUMN = "timestamp"


def format_float(x: float) -> str:
    return format(float(x), ".17g")


@dataclass
class ObservationTable:
    """Time-ordered numeric observations plus optional row timestamps."""

    column_names: list[str]
    data: np.ndarray
    timestamps: list[str] | None = None

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 2:
            raise ValueError(f"data must be 2-d, got shape {self.data.shape}")
        if self.data.shape[1] != len(self.column_names):
            raise ValueError(
                f"{len(self.column_names)} column names for {self.data.shape[1]} data columns"
            )
        if self.timestamps is not None and len(self.timestamps) != self.data.shape[0]:
            raise ValueError("timestamp count does not match row count")

    @property
    def n_rows(self) -> int:
        return self.data.shape[0]

    @property
    def n_cols(self) -> int:
        return self.data.shape[1]


def _cell_error(path, lineno: int, names: list[str], cells: list[str]) -> ValueError:
    """The error for the first cell of a row, in column order, that is not a
    finite number."""
    for name, cell in zip(names, cells):
        try:
            v = float(cell)
        except ValueError:
            return ValueError(
                f"{path}, line {lineno}: could not parse {cell!r} "
                f"in column {name!r} as a number"
            )
        if not math.isfinite(v):
            return ValueError(
                f"{path}, line {lineno}: non-finite value {cell!r} in column {name!r}"
            )
    raise AssertionError("row has no bad cell")


def read_table(path) -> ObservationTable:
    """Parse a CSV observation table; errors name the offending line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header:
            raise ValueError(f"{path}: missing header row")
        header = [h.strip() for h in header]
        has_ts = header[0] == TIMESTAMP_COLUMN
        names = header[1:] if has_ts else header
        if not names:
            raise ValueError(f"{path}: no numeric columns in header")
        timestamps: list[str] | None = [] if has_ts else None
        rows: list[list[float]] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"{path}, line {lineno}: expected {len(header)} fields, got {len(row)}"
                )
            cells = row[1:] if has_ts else row
            try:
                values = list(map(float, cells))
            except ValueError:
                values = None
            if values is None or not all(map(math.isfinite, values)):
                raise _cell_error(path, lineno, names, cells)
            if has_ts:
                timestamps.append(row[0])
            rows.append(values)
    data = np.array(rows, dtype=np.float64) if rows else np.zeros((0, len(names)))
    return ObservationTable(column_names=names, data=data, timestamps=timestamps)


def _write_rows(path, header: list[str], matrix: np.ndarray, labels=None) -> None:
    """Write ``header``, then one line per row of ``matrix``, led by its entry
    of ``labels`` unless that is None.  Streams row by row."""
    numbers = ",".join(["%.17g"] * matrix.shape[1]) + "\r\n"
    with open(path, "w", newline="") as fh:
        write = fh.write
        csv.writer(fh).writerow(header)
        if labels is None:
            for row in matrix:
                write(numbers % tuple(row.tolist()))
            return
        # Labels get csv's own quoting from a writer that appends the label,
        # a delimiter and the line end to ``quoted``; the line end is cut off.
        # The writer keeps the default "\r\n" line end because csv quotes a
        # line break only when the line end holds it, and the empty second
        # field keeps an empty label unquoted (csv writes a lone "" field).
        quoted: list[str] = []
        quote = csv.writer(SimpleNamespace(write=quoted.append)).writerow
        for label, row in zip(labels, matrix):
            quote((label, ""))
            write(quoted.pop()[:-2])
            write(numbers % tuple(row.tolist()))


def write_table(path, table: ObservationTable) -> None:
    if table.timestamps is None:
        _write_rows(path, table.column_names, table.data)
    else:
        _write_rows(path, [TIMESTAMP_COLUMN, *table.column_names], table.data, table.timestamps)


def write_labeled_matrix(path, matrix, row_labels, col_labels, corner: str = "") -> None:
    """Square matrix CSV with a header row and a leading label column."""
    _write_rows(path, [corner, *col_labels], np.asarray(matrix, dtype=np.float64), row_labels)


def write_sidecar(path, payload: dict) -> None:
    """JSON run-metadata sidecar; key order is fixed by the caller, so the
    output is byte-stable across identical runs."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
