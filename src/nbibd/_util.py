"""The CSV codec every file of the package goes through.

write_csv and read_csv own the framing shared by the design, scores,
fit, metrics, summary and histogram files: a header row, \\n line ends,
atomic replacement, the empty-file error, UTF-8 text with a byte-order
mark skipped on reading and never written, and the error for a file
that is not UTF-8 or that csv cannot frame.  A column's type (int,
float, bool or str) decides how its cells are spelled and parsed:
write_csv and format_cell write a bool as true/false, a float by
format_float, NaN and None as the empty cell, and int and str as given.
parse_cell turns one cell into a value (an integer must fit int64) or a
FileFormatError naming its row and column.  parse_columns turns the
data rows read_csv returns, a plain list, into one array per column by
the same conversion and dtype; it is where a row of the wrong width or
a faulty cell is found, the first in row, then column order.

one_blas_thread runs a block with every loaded OpenBLAS at one thread,
as the study runs its iterations.
"""

from __future__ import annotations

import csv
import os
from contextlib import contextmanager
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
    int and str cells are written as given.  No columns at all, as
    zip(*rows) gives for no rows, write the header alone.  The file is
    written to a sibling temp file and renamed over path, so readers
    never observe a partial file: the rename is atomic on POSIX, and a
    crash or a failing row leaves the original untouched.  The temp file
    has a random name and is created exclusively with mode 0o666, so the
    kernel applies the umask and the file gets the mode open() gives a
    new file; the process umask is never changed.
    """
    spellers = [_COLUMN_TYPES[kind][3] for kind in types]
    columns = list(columns) or [()] * len(types)
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


def read_csv(path: str, header: Sequence[str] | None = None) -> tuple[list[str], list[list[str]]]:
    """Read a CSV file into its header row and its data rows.

    An empty file is rejected; when header is given the first row must
    equal it.  A file that is not UTF-8, or that csv cannot frame (such
    as a cell above csv's field size limit), is rejected naming path,
    and for framing the line where csv stopped.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as handle:
            reader = csv.reader(handle)
            rows = list(reader)
    except UnicodeDecodeError as error:
        byte = error.object[error.start]
        raise FileFormatError(path, None, f"not UTF-8 text ({error.reason} 0x{byte:02x})") from None
    except csv.Error as error:
        raise FileFormatError(path, None, f"line {reader.line_num}: {error}") from None
    if not rows:
        raise FileFormatError(path, None, "empty file")
    if header is not None and rows[0] != list(header):
        raise FileFormatError(path, 1, f"header must be {','.join(header)}")
    return rows[0], rows[1:]


def format_float(value: float) -> str:
    """Shortest decimal string that round-trips the exact double."""
    return repr(float(value))


def _format_float_cell(value: float | None) -> str:
    # NaN is the one value unequal to itself
    return "" if value is None or value != value else format_float(value)


_BOOLS = {"true": True, "1": True, "false": False, "0": False}
_BOOL_CELLS = {True: "true", False: "false"}


def _to_bool(text: str) -> bool:
    return _BOOLS[text.strip().lower()]


# per column type: the conversion of one cell, the column's dtype, what a
# faulty cell is not, and the spelling of a written value (None: csv's
# own, which writes str(value) and None as the empty cell)
_COLUMN_TYPES = {
    int: (int, np.int64, "an integer", None),
    float: (float, np.float64, "a number", _format_float_cell),
    bool: (_to_bool, np.bool_, "a boolean", _BOOL_CELLS.__getitem__),
    # any text is a valid cell, kept as the str it was read as
    str: (str, object, None, None),
}


def parse_cell(text: str, kind: type, path: str, row: int, column: str) -> object:
    """One cell of a column of type kind, converted as parse_columns converts it.

    The cell goes through its type's conversion and then the column's
    dtype, so an integer must fit int64; a cell either rule refuses
    raises a FileFormatError naming its row and column.
    """
    convert, dtype, noun, _ = _COLUMN_TYPES[kind]
    try:
        value = convert(text)
        np.array(value, dtype=dtype)
    except (KeyError, ValueError):
        raise FileFormatError(path, row, f"column {column!r} is not {noun}: {text!r}") from None
    except OverflowError:
        raise FileFormatError(path, row, f"column {column!r} does not fit a 64-bit integer: {text!r}") from None
    return value


def format_cell(value: object, kind: type) -> str:
    """value spelled as write_csv spells it in a column of type kind."""
    spell = _COLUMN_TYPES[kind][3]
    return spell(value) if spell else "" if value is None else str(value)


def parse_columns(path: str, header: Sequence[str], rows: list[list[str]], types: Sequence[type]) -> list[np.ndarray]:
    """read_csv's data rows as one array per column, column i of type types[i]: int, float, bool or str.

    Each column is converted in one pass, its cells mapped through their
    type's conversion and then one np.array of the column's dtype, the
    two steps parse_cell takes for one cell.  So a table is accepted,
    with the same values, exactly when each row has the header's width
    and parse_cell accepts each of its cells.  When one does not, the
    rows are scanned in order, a row's width before its cells, so the
    fault reported is the first in row, then column order.  Rows are
    numbered as FileFormatError reports them: the header is row 1.
    """
    kinds = [_COLUMN_TYPES[kind] for kind in types]
    try:
        # each column leads with its name, so a row of another width breaks the strict zip
        columns = [column[1:] for column in zip(header, *rows, strict=True)]
        return [
            np.array(list(map(convert, column)), dtype=dtype) for (convert, dtype, _, _), column in zip(kinds, columns)
        ]
    except (KeyError, ValueError, OverflowError):
        for number, row in enumerate(rows, start=2):
            if len(row) != len(header):
                raise FileFormatError(path, number, f"expected {len(header)} columns, got {len(row)}") from None
            for kind, cell, name in zip(types, row, header):
                parse_cell(cell, kind, path, number, name)
        raise


@contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run the body with every loaded OpenBLAS at one thread; on exit each gets back the count it had.

    The libraries are found in /proc/self/maps.  numpy and scipy wheels
    each carry their own OpenBLAS, whose thread symbols differ in prefix
    and in the 64-bit-integer suffix.  A process forked inside the body
    inherits the one-thread setting.  ctypes is imported only on entry,
    and where no OpenBLAS is found the body runs as it is.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            lines = [line.rstrip("\n") for line in handle if "openblas" in line]
        # the sixth field is the path, which may itself hold spaces
        paths = sorted({line.split(maxsplit=5)[5] for line in lines if line.endswith(".so")})
    except OSError:
        paths = []
    restore = []
    if paths:
        import ctypes

        for path in paths:
            lib = ctypes.CDLL(path)
            for name in ("scipy_openblas_{}64_", "scipy_openblas_{}", "openblas_{}64_", "openblas_{}"):
                get = getattr(lib, name.format("get_num_threads"), None)
                set_threads = getattr(lib, name.format("set_num_threads"), None)
                if get is not None and set_threads is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                    restore.append((set_threads, get()))
                    set_threads(1)
                    break
    try:
        yield
    finally:
        for set_threads, threads in restore:
            set_threads(threads)
