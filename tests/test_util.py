"""The shared CSV codec: file modes of what it writes, cell spellings and parsing, byte-order marks and failed
writes; and the package's public names."""

import importlib
import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nbibd
from nbibd import (
    DesignConfig,
    FileFormatError,
    ScoreTable,
    generate,
    read_design,
    read_metrics,
    read_scores,
    write_design,
    write_metrics,
    write_scores,
)
from nbibd._util import format_cell, format_float, one_blas_thread, parse_cell, parse_columns, read_csv, write_csv
from nbibd.simulate import DesignMetrics, IterationResult
from blas_threads import blas_threads, blas_threads_at


FILES = {
    "design.csv": lambda path: read_design(path).ids.tolist(),
    "scores.csv": lambda path: read_scores(path, t=8, b=4).scores.tolist(),
    "metrics.csv": read_metrics,
}


def write_files(tmp_path):
    """The design, scores and metrics files of one small nb2 design, read back by FILES."""
    design, _ = generate(DesignConfig(t=8, k=3, b=4, seed=0), "nb2")
    table = ScoreTable.from_design_matrix(design, np.full((8, 4), 70.0))
    metrics = DesignMetrics(win_prop=0.5, median_rank_dev=1.0, mean_score_dev=2.0, mean_se=3.0, disconnected=False)
    write_design(str(tmp_path / "design.csv"), design)
    write_scores(str(tmp_path / "scores.csv"), table)
    write_metrics(str(tmp_path / "metrics.csv"), [IterationResult(iteration=0, outcomes={"nb2": metrics})])


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask022", "umask077"])
def test_written_files_take_their_mode_from_the_umask(tmp_path, umask, mode):
    previous = os.umask(umask)
    try:
        write_files(tmp_path)
    finally:
        os.umask(previous)
    for name in FILES:
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode


@pytest.mark.parametrize("name", sorted(FILES))
def test_a_file_behind_a_utf8_byte_order_mark_reads_as_without_it(tmp_path, name):
    # spreadsheets export "CSV UTF-8" with EF BB BF in front of the header
    write_files(tmp_path)
    plain = (tmp_path / name).read_bytes()
    assert not plain.startswith(b"\xef\xbb\xbf")
    (tmp_path / f"bom-{name}").write_bytes(b"\xef\xbb\xbf" + plain)
    assert FILES[name](str(tmp_path / f"bom-{name}")) == FILES[name](str(tmp_path / name))


def test_a_write_never_sets_the_umask(tmp_path, monkeypatch):
    # setting the umask, even to read it, would race with files other
    # threads create; the kernel applies it to the created temp file
    def refuse(mask):
        raise AssertionError("os.umask was called")

    previous = os.umask(0o027)
    try:
        monkeypatch.setattr(os, "umask", refuse)
        write_csv(str(tmp_path / "table.csv"), ["a"], [int], [[1]])
    finally:
        monkeypatch.undo()
        os.umask(previous)
    assert stat.S_IMODE((tmp_path / "table.csv").stat().st_mode) == 0o666 & ~0o027


@pytest.mark.parametrize("value", [float("nan"), -float("nan"), float("inf"), -float("inf"), -0.0, 0.1, 1e300])
def test_format_float_is_the_shortest_round_trip_repr(value):
    text = format_float(value)
    assert text == repr(float(value))
    again = float(text)
    if math.isnan(value):
        assert math.isnan(again)
    else:
        # the same double, so -0.0 keeps its sign
        assert again == value and math.copysign(1.0, again) == math.copysign(1.0, value)


def test_a_cell_is_spelled_by_its_column_type_and_parses_back(tmp_path):
    path = str(tmp_path / "table.csv")
    header = ["i", "s", "yes", "no", "x", "nan", "none"]
    types = [int, str, bool, bool, float, float, float]
    row = [7, "nb2", True, False, 0.1, math.nan, None]
    write_csv(path, header, types, [[value] for value in row])
    assert (tmp_path / "table.csv").read_text(encoding="utf-8") == ",".join(header) + "\n7,nb2,true,false,0.1,,\n"
    # the command line's key=value fields use the same spelling
    assert [format_cell(value, kind) for value, kind in zip(row, types)] == ["7", "nb2", "true", "false", "0.1", "", ""]
    _, rows = read_csv(path, header)
    columns = parse_columns(path, header[:5], [cells[:5] for cells in rows], types[:5])
    assert [column.tolist() for column in columns] == [[7], ["nb2"], [True], [False], [0.1]]


def test_no_rows_write_the_header_alone(tmp_path):
    # zip(*rows) of no rows gives no columns at all, not empty ones
    path = tmp_path / "table.csv"
    write_csv(str(path), ["a", "b"], [int, float], zip(*[]))
    assert path.read_text(encoding="utf-8") == "a,b\n"
    with pytest.raises(ValueError):
        write_csv(str(path), ["a", "b"], [int, float], [[1]])


def test_a_failing_write_leaves_the_old_file_and_no_temp_file(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(str(path), ["a", "b"], [int, int], [[1, 3], [2, 4]])
    before = path.read_bytes()

    def cells():
        yield 5
        raise RuntimeError("cell source failed")

    with pytest.raises(RuntimeError, match="cell source failed"):
        write_csv(str(path), ["a", "b"], [int, int], [cells(), [6, 7]])
    assert path.read_bytes() == before
    assert sorted(entry.name for entry in tmp_path.iterdir()) == ["table.csv"]


CELLS = [
    " 7 ",
    "+7",
    "1_000",
    "9223372036854775807",
    "9223372036854775808",
    "-9223372036854775809",
    "7.0",
    "",
    "nan",
    "1e400",
    "TRUE",
    " 0 ",
    "yes",
]


@pytest.mark.parametrize("kind", [int, float, bool, str], ids=lambda kind: kind.__name__)
def test_a_column_takes_a_cell_exactly_as_parse_cell_does(kind):
    for text in CELLS:
        rows = [[text]]
        try:
            expected = parse_cell(text, kind, "table.csv", 2, "c")
        except FileFormatError as error:
            with pytest.raises(FileFormatError) as raised:
                parse_columns("table.csv", ["c"], rows, [kind])
            assert str(raised.value) == str(error)
        else:
            (column,) = parse_columns("table.csv", ["c"], rows, [kind])
            (value,) = column.tolist()
            # repr, so a NaN cell matches itself
            assert (type(value), repr(value)) == (type(expected), repr(expected))


def test_parse_cell_names_the_row_the_column_and_the_rule_a_cell_breaks():
    faults = [
        ("7.0", int, "is not an integer: '7.0'"),
        ("9223372036854775808", int, "does not fit a 64-bit integer: '9223372036854775808'"),
        ("-9223372036854775809", int, "does not fit a 64-bit integer: '-9223372036854775809'"),
        ("", float, "is not a number: ''"),
        ("yes", bool, "is not a boolean: 'yes'"),
    ]
    for text, kind, message in faults:
        with pytest.raises(FileFormatError) as raised:
            parse_cell(text, kind, "table.csv", 5, "c")
        assert str(raised.value) == f"table.csv:row 5: column 'c' {message}"
    assert parse_cell("9223372036854775807", int, "table.csv", 5, "c") == 2**63 - 1
    assert parse_cell(" 0 ", bool, "table.csv", 5, "c") is False
    assert parse_cell("1e400", float, "table.csv", 5, "c") == math.inf
    assert parse_cell("", str, "table.csv", 5, "c") == ""


def test_the_package_re_exports_each_public_name_of_its_modules_once():
    modules = [importlib.import_module(f"nbibd.{name}") for name in ("design", "generate", "model", "simulate")]
    names = nbibd.__all__
    assert len(set(names)) == len(names)
    assert names == ["__version__", "FileFormatError", *(name for module in modules for name in module.__all__)]
    for module in modules:
        for name in module.__all__:
            assert getattr(nbibd, name) is getattr(module, name), name
    assert nbibd.FileFormatError is importlib.import_module("nbibd._util").FileFormatError
    assert not hasattr(nbibd, "summarize_differences") and not hasattr(modules[3], "summarize_differences")


def test_one_blas_thread_nests_and_gives_back_each_count():
    if not blas_threads():
        pytest.skip("no OpenBLAS is loaded")
    with blas_threads_at(3):
        with one_blas_thread():
            with one_blas_thread():
                assert set(blas_threads()) == {1}
            assert set(blas_threads()) == {1}
        assert set(blas_threads()) == {3}


# loads a copy of numpy's OpenBLAS from the directory argv[1], then
# prints each library's path and its counts inside and after the body
_SPACED_PROBE = """
import ctypes, json, shutil, sys
import numpy
from blas_threads import blas_threads, blas_threads_at, library_paths
from nbibd._util import one_blas_thread
(original,) = library_paths()
ctypes.CDLL(shutil.copy(original, sys.argv[1]))
with blas_threads_at(2):
    with one_blas_thread():
        inside = blas_threads()
    after = blas_threads()
print(json.dumps({"paths": library_paths(), "inside": inside, "after": after}))
"""


def test_one_blas_thread_reaches_a_library_whose_path_has_a_space(tmp_path):
    if not blas_threads():
        pytest.skip("no OpenBLAS is loaded")
    spaced = tmp_path / "with space"
    spaced.mkdir()
    paths = [str(Path(nbibd.__file__).parents[1]), str(Path(__file__).parent)]
    # two threads at start, so the copy's pool stays small
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths), OPENBLAS_NUM_THREADS="2")
    done = subprocess.run(
        [sys.executable, "-c", _SPACED_PROBE, str(spaced)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    probe = json.loads(done.stdout)
    assert len(probe["paths"]) == 2 and sum(path.startswith(str(spaced)) for path in probe["paths"]) == 1
    assert probe["inside"] == [1, 1]
    assert probe["after"] == [2, 2]
