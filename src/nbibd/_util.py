"""The CSV codec every file of the package goes through.

write_csv and read_csv own the framing shared by the design, scores,
fit, metrics, summary and histogram files: a header row, \\n line ends,
atomic replacement, rows numbered for error messages, column-count
checks, the empty-file error, and a UTF-8 byte-order mark skipped on
reading and never written.  A column's type (int, float, bool or str)
decides how its cells are spelled and parsed: write_csv and format_cell
write a bool as true/false, a float by format_float, NaN and None as the
empty cell, and int and str as given.  The parse_* helpers turn one cell into
a value (an integer must fit int64) or a FileFormatError naming its row and column;
parse_columns turns a table's data rows into one array per column by the same rule.
"""

from __future__ import annotations

import csv
import os
from typing import Iterable, Iterator, Sequence

import numpy as np


class FileFormatError(ValueError):
    """A delimited input file violates its documented schema."""

    def __init__(self, path: str, row: int | None, message: str):
        self.path = str(path)
        self.row = row
        where = self.path if row is None else f"{self.path}:row {row}"
        super().__init__(f"{where}: {message}")


def write_csv(path: str, header: Sequence[str], types: Sequence[type], columns: Iterable[Iterable[object]]) -> None:
    """Write a header row and then the rows of columns as CSV with \\n line ends, atomically.

    The i-th column holds cells of type types[i], as parse_columns
    returns them, spelled by that type's rule as the rows are written;
    int and str cells are written as given.  The file is written to a
    sibling temp file and renamed over path, so readers never observe a
    partial file: the rename is atomic on POSIX, and a crash or a
    failing row leaves the original untouched.  The temp file has a
    random name and is created exclusively with mode 0o666, so the
    kernel applies the umask and the file gets the mode open() gives a
    new file; the process umask is never changed.
    """
    spellers = [_COLUMN_TYPES[kind][3] for kind in types]
    spelled = [
        column if spell is None else map(spell, column) for spell, column in zip(spellers, columns, strict=True)
    ]
    rows = zip(*spelled, strict=True)
    parent = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(parent, f".tmp-{os.urandom(8).hex()}.csv")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_csv(
    path: str, header: Sequence[str] | None = None
) -> tuple[list[str], Iterator[tuple[int, list[str]]]]:
    """Read a CSV file into its header and its numbered data rows.

    Rows are numbered as FileFormatError reports them: the header is row
    1, so data rows count from 2.  An empty file is rejected; when header
    is given the first row must equal it.  The data rows are yielded
    lazily, so a caller can check a variable header before any row, and
    each row must have as many cells as the header.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        raise FileFormatError(path, None, "empty file")
    if header is not None and rows[0] != list(header):
        raise FileFormatError(path, 1, f"header must be {','.join(header)}")
    width = len(rows[0])

    def numbered() -> Iterator[tuple[int, list[str]]]:
        for number, row in enumerate(rows[1:], start=2):
            if len(row) != width:
                raise FileFormatError(path, number, f"expected {width} columns, got {len(row)}")
            yield number, row

    return rows[0], numbered()


def format_float(value: float) -> str:
    """Shortest decimal string that round-trips the exact double."""
    return repr(float(value))


def _format_float_cell(value: float | None) -> str:
    # NaN is the one value unequal to itself
    return "" if value is None or value != value else format_float(value)


def parse_float(text: str, path: str, row: int, column: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise FileFormatError(path, row, f"column {column!r} is not a number: {text!r}") from None


def parse_int(text: str, path: str, row: int, column: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise FileFormatError(path, row, f"column {column!r} is not an integer: {text!r}") from None
    if not -(2**63) <= value < 2**63:
        raise FileFormatError(path, row, f"column {column!r} does not fit a 64-bit integer: {text!r}")
    return value


_BOOLS = {"true": True, "1": True, "false": False, "0": False}
_BOOL_CELLS = {True: "true", False: "false"}


def _to_bool(text: str) -> bool:
    return _BOOLS[text.strip().lower()]


def parse_bool(text: str, path: str, row: int, column: str) -> bool:
    try:
        return _to_bool(text)
    except KeyError:
        raise FileFormatError(path, row, f"column {column!r} is not a boolean: {text!r}") from None


def _parse_text(text: str, path: str, row: int, column: str) -> str:
    return text


# per column type: the conversion of one cell, the column's dtype, the
# parser naming a faulty cell, and the spelling of a written value (None:
# csv's own, which writes str(value) and None as the empty cell)
_COLUMN_TYPES = {
    int: (int, np.int64, parse_int, None),
    float: (float, np.float64, parse_float, _format_float_cell),
    bool: (_to_bool, np.bool_, parse_bool, _BOOL_CELLS.__getitem__),
    # any text is a valid cell, kept as the str it was read as
    str: (str, object, _parse_text, None),
}


def format_cell(value: object, kind: type) -> str:
    """value spelled as write_csv spells it in a column of type kind."""
    spell = _COLUMN_TYPES[kind][3]
    return spell(value) if spell else "" if value is None else str(value)


def parse_columns(
    path: str, header: Sequence[str], rows: Iterator[tuple[int, list[str]]], types: Sequence[type]
) -> list[np.ndarray]:
    """read_csv's data rows as one array per column, column i of type types[i]: int, float, bool or str.

    Each column is converted in one pass, its cells mapped through int,
    float, the parse_bool rule or str and then one np.array, whose
    OverflowError is the int64 bound of parse_int.  So a table is
    accepted, with the same values, exactly when every parse_* call on
    its cells would be.  When a cell or a row's width is at fault, the
    rows read so far are parsed again one cell at a time, so the fault
    reported is the first in row, then column order, as a per-row loop
    over parse_* would report it.
    """
    kinds = [_COLUMN_TYPES[kind] for kind in types]
    table: list[tuple[int, list[str]]] = []
    try:
        for numbered in rows:
            table.append(numbered)
        columns = list(zip(*(row for _, row in table))) or [()] * len(kinds)
        return [
            np.array(list(map(convert, column)), dtype=dtype) for (convert, dtype, _, _), column in zip(kinds, columns)
        ]
    # read_csv's width fault is a FileFormatError, and so a ValueError
    except (KeyError, ValueError, OverflowError):
        for number, row in table:
            for (_, _, parse, _), cell, name in zip(kinds, row, header):
                parse(cell, path, number, name)
        raise
