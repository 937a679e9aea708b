"""The shared CSV codec: file modes of what it writes, float cells and failed writes."""

import math
import os
import stat

import numpy as np
import pytest

from nbibd import DesignConfig, ScoreTable, generate, write_design, write_metrics, write_scores
from nbibd._util import format_float, write_csv
from nbibd.simulate import DesignMetrics, IterationResult


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask022", "umask077"])
def test_written_files_take_their_mode_from_the_umask(tmp_path, umask, mode):
    design, _ = generate(DesignConfig(t=8, k=3, b=4, seed=0), "nb2")
    table = ScoreTable.from_design_matrix(design, np.full((8, 4), 70.0))
    metrics = DesignMetrics(win_prop=0.5, median_rank_dev=1.0, mean_score_dev=2.0, mean_se=3.0, disconnected=False)
    result = IterationResult(iteration=0, metrics={"nb2": metrics})
    previous = os.umask(umask)
    try:
        write_design(str(tmp_path / "design.csv"), design)
        write_scores(str(tmp_path / "scores.csv"), table)
        write_metrics(str(tmp_path / "metrics.csv"), [result])
    finally:
        os.umask(previous)
    for name in ("design.csv", "scores.csv", "metrics.csv"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode


def test_a_write_never_sets_the_umask(tmp_path, monkeypatch):
    # setting the umask, even to read it, would race with files other
    # threads create; the kernel applies it to the created temp file
    def refuse(mask):
        raise AssertionError("os.umask was called")

    previous = os.umask(0o027)
    try:
        monkeypatch.setattr(os, "umask", refuse)
        write_csv(str(tmp_path / "table.csv"), ["a"], [[1]])
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


def test_a_failing_write_leaves_the_old_file_and_no_temp_file(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(str(path), ["a", "b"], [[1, 2], [3, 4]])
    before = path.read_bytes()

    def rows():
        yield [5, 6]
        raise RuntimeError("row source failed")

    with pytest.raises(RuntimeError, match="row source failed"):
        write_csv(str(path), ["a", "b"], rows())
    assert path.read_bytes() == before
    assert sorted(entry.name for entry in tmp_path.iterdir()) == ["table.csv"]
