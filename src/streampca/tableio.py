"""CSV observation tables and JSON run sidecars.

Dialect: comma-separated, mandatory header row, '.' decimal point, CRLF
line ends.  A first column named exactly ``timestamp`` holds
ISO-8601 text and is kept out of the numeric matrix.  Numbers are written as
``%.17g`` (17 significant digits, which round-trips IEEE doubles losslessly),
so any file written here can be re-ingested by any command without drift.
The header, row labels and timestamps get the ``csv`` module's minimal
quoting: a field holding a comma, a double quote or a line break is quoted.

Two readers give one result.  A plain table, such as any table written here
without a quoted field, has its numbers parsed by numpy's C reader
(``np.loadtxt``), which rounds each one as ``float()`` does, and its
timestamps cut off with ``str.partition``.  Plain means: ASCII text with no
``"`` and none of the separators 0x1C-0x1F, only CRLF or only LF line ends,
no blank line, and as many commas on every line as in the header.  Every
other file, and every plain one with a cell that numpy cannot parse or reads
as non-finite, goes to the ``csv`` row reader, which parses a row with one
``map(float, ...)`` and words every error.  A write formats a row's numbers
with one ``%`` on a whole-row format and writes each line as one string.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from itertools import islice, repeat
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
    # each row's file line from the row reader; None: row i is on line i + 2
    _row_lines: list[int] | None = field(default=None, init=False, repr=False, compare=False)

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

    def line_of(self, i: int) -> int:
        """The physical line, counted from 1, that row ``i`` was read from."""
        return i + 2 if self._row_lines is None else self._row_lines[i]


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
    table = _read_plain(path)
    return _read_rows(path) if table is None else table


# Characters that keep a file off numpy's reader: csv's quote, and the four
# ASCII separators that numpy strips from a number as whitespace and float()
# does not.
_NOT_PLAIN = '"\x1c\x1d\x1e\x1f'


def _read_plain(path) -> ObservationTable | None:
    """The table at ``path`` if it is a plain table that numpy's reader parses
    into finite numbers, else None.  The cells are then split exactly as the
    ``csv`` reader splits them, and every number has the bits ``float()``
    gives it, so the result equals the row reader's."""
    try:
        with open(path, newline="") as fh:
            # line by line, as the row reader reads: one string of the whole
            # file would raise the peak memory of a read
            lines = fh.readlines()
    except UnicodeDecodeError:
        return None  # the row reader raises it where its stream meets it
    if len(lines) < 2 or not all(map(str.isascii, lines)):
        return None
    if any(any(map(str.__contains__, lines, repeat(c))) for c in _NOT_PLAIN):
        return None
    # readlines ends a line at CRLF, LF or a lone CR.  Plain lines end with LF,
    # all with CRLF or none, and only the last line may have no line end.
    lf = sum(map(str.endswith, lines, repeat("\n")))
    crlf = sum(map(str.endswith, lines, repeat("\r\n")))
    if crlf not in (0, lf):
        return None
    if lf < len(lines) and (lf < len(lines) - 1 or lines[-1].endswith(("\r", "\n"))):
        return None
    # numpy skips a blank line, as the row reader does, but warns when no line is left
    if "\n" in lines or "\r\n" in lines or max(map(len, lines)) > csv.field_size_limit():
        return None
    header = [h.strip() for h in lines[0].split(",")]
    has_ts = header[0] == TIMESTAMP_COLUMN
    names = header[1:] if has_ts else header
    if not names or set(map(str.count, lines, repeat(","))) != {len(header) - 1}:
        return None
    try:
        data = np.loadtxt(
            lines,
            delimiter=",",
            comments=None,
            skiprows=1,
            ndmin=2,
            usecols=range(1, len(header)) if has_ts else None,
        )
    except ValueError:
        return None
    if not np.isfinite(data).all():
        return None
    timestamps = [line.partition(",")[0] for line in islice(lines, 1, None)] if has_ts else None
    return ObservationTable(column_names=names, data=data, timestamps=timestamps)


def _read_rows(path) -> ObservationTable:
    """The ``csv`` row reader: parses any file ``read_table`` accepts and
    words every error."""
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
        row_lines: list[int] = []
        for row in reader:
            if not row:
                continue
            # the line the record ends on: a quoted field may hold line breaks
            lineno = reader.line_num
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
            row_lines.append(lineno)
    data = np.array(rows, dtype=np.float64) if rows else np.zeros((0, len(names)))
    table = ObservationTable(column_names=names, data=data, timestamps=timestamps)
    table._row_lines = row_lines
    return table


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
        # Labels get csv's own quoting from one writer call that appends each
        # label, a delimiter and the line end to ``quoted``; the line end is
        # cut off.  The writer keeps the default "\r\n" line end because csv
        # quotes a line break only when the line end holds it, and the empty
        # second field keeps an empty label unquoted (csv writes a lone ""
        # field).
        quoted: list[str] = []
        csv.writer(SimpleNamespace(write=quoted.append)).writerows(
            (label, "") for label in labels
        )
        for label, row in zip(quoted, matrix):
            write(label[:-2] + numbers % tuple(row.tolist()))


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
