"""The shared CSV codec: file modes of what it writes, cell spellings, byte-order marks and failed writes."""

import math
import os
import stat

import numpy as np
import pytest

from nbibd import (
    DesignConfig,
    ScoreTable,
    generate,
    read_design,
    read_metrics,
    read_scores,
    write_design,
    write_metrics,
    write_scores,
)
from nbibd._util import format_cell, format_float, parse_columns, read_csv, write_csv
from nbibd.simulate import DesignMetrics, IterationResult


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
    write_metrics(str(tmp_path / "metrics.csv"), [IterationResult(iteration=0, metrics={"nb2": metrics})])


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
    columns = parse_columns(path, header[:5], ((number, cells[:5]) for number, cells in rows), types[:5])
    assert [column.tolist() for column in columns] == [[7], ["nb2"], [True], [False], [0.1]]


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
