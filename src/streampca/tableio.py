"""CSV observation tables and JSON run sidecars.

Dialect: UTF-8 text, comma-separated, mandatory header row, '.' decimal
point, CRLF line ends.  A first column named exactly ``timestamp`` holds
ISO-8601 text and is kept out of the numeric matrix.  Numbers are written as
``%.17g`` (17 significant digits, which round-trips IEEE doubles losslessly),
so any file written here can be re-ingested by any command without drift.
The header, row labels and timestamps get the ``csv`` module's minimal
quoting: a field holding a comma, a double quote or a line break is quoted.
A leading byte-order mark is skipped.

One read path: a file is decoded once into lines, ``csv`` parses the header,
and one of two parsers turns the records after it into one result.  A plain
table, such as any table written here without a quoted field, has its numbers
parsed by numpy's C reader (``np.loadtxt``), which rounds each one as
``float()`` does, and its timestamps cut off with ``str.partition``.  Plain
means: ASCII text with no ``"`` and none of the separators 0x1C-0x1F, only
CRLF or only LF line ends, no blank line, and as many commas on every line as
in the header.  The lines of every other file, and of every plain one with a
cell that numpy cannot parse or reads as non-finite, go to the ``csv`` row
reader, which parses a row with one ``map(float, ...)`` and words every error.
One write path: a row is one string, its label or timestamp, if any, quoted
by the header's ``csv`` writer, then its numbers, formatted by one ``%`` on a
whole-row format.
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
    """Parse a CSV observation table; errors name the offending line, and a
    file that is not UTF-8 text is named."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            # line by line, as csv reads a file: one string of the whole file
            # would raise the peak memory of a read
            lines = fh.readlines()
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: not UTF-8 text ({err.reason})") from None
    reader = csv.reader(lines)
    try:
        header = next(reader, None)
        if not header:
            raise ValueError(f"{path}: missing header row")
        header = [h.strip() for h in header]
        has_ts = header[0] == TIMESTAMP_COLUMN
        names = header[1:] if has_ts else header
        if not names:
            raise ValueError(f"{path}: no numeric columns in header")
        table = _read_plain(lines, names, has_ts)
        return _read_rows(path, reader, names, has_ts) if table is None else table
    except csv.Error as err:
        raise ValueError(f"{path}, line {reader.line_num}: {err}") from None


# Characters that keep a file off numpy's reader: csv's quote, and the four
# ASCII separators that numpy strips from a number as whitespace and float()
# does not.
_NOT_PLAIN = '"\x1c\x1d\x1e\x1f'


def _read_plain(lines: list[str], names: list[str], has_ts: bool) -> ObservationTable | None:
    """The table of a file's ``lines``, with its parsed header, if they are a
    plain table that numpy's reader parses into finite numbers, else None.  The
    cells are then split exactly as the ``csv`` reader splits them, and every
    number has the bits ``float()`` gives it, so the result equals the row reader's."""
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
    if set(map(str.count, lines, repeat(","))) != {len(names) + has_ts - 1}:
        return None
    try:
        data = np.loadtxt(
            lines,
            delimiter=",",
            comments=None,
            skiprows=1,
            ndmin=2,
            usecols=range(1, len(names) + 1) if has_ts else None,
        )
    except ValueError:
        return None
    if not np.isfinite(data).all():
        return None
    timestamps = [line.partition(",")[0] for line in islice(lines, 1, None)] if has_ts else None
    return ObservationTable(column_names=names, data=data, timestamps=timestamps)


def _read_rows(path, reader, names: list[str], has_ts: bool) -> ObservationTable:
    """The ``csv`` row reader: parses the records after the header of any file
    ``read_table`` accepts and words every error, naming ``path``."""
    width = len(names) + has_ts
    timestamps: list[str] | None = [] if has_ts else None
    rows: list[list[float]] = []
    row_lines: list[int] = []
    for row in reader:
        if not row:
            continue
        # the line the record ends on: a quoted field may hold line breaks
        lineno = reader.line_num
        if len(row) != width:
            raise ValueError(f"{path}, line {lineno}: expected {width} fields, got {len(row)}")
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
    # One csv writer quotes the header and the labels into ``quoted``, a label
    # as a record (label, "") with its line end cut off.  The writer keeps the
    # default "\r\n" line end because csv quotes a line break only when the
    # line end holds it, and the empty second field keeps an empty label
    # unquoted (csv writes a lone "" field).
    quoted: list[str] = []
    writer = csv.writer(SimpleNamespace(write=quoted.append))
    writer.writerow(header)
    if labels is None:
        prefixes = repeat("")
    else:
        writer.writerows((label, "") for label in labels)
        prefixes = (label[:-2] for label in islice(quoted, 1, None))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        write = fh.write
        write(quoted[0])
        for prefix, row in zip(prefixes, matrix):
            write(prefix + numbers % tuple(row.tolist()))


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
        fh.write(json.dumps(payload, indent=2) + "\n")
