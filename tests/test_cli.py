"""End-to-end command-line checks driven through cli.main."""

import csv
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nbibd import (
    DesignMetrics,
    GeneratorKind,
    IterationResult,
    ScoreTable,
    SimParams,
    extend,
    read_design,
    run_iteration,
    write_design,
    write_metrics,
    write_scores,
)
from nbibd import cli
from nbibd.cli import build_parser, main
from nbibd.design import Block, Design, DesignConfig

design_module = importlib.import_module("nbibd.design")

GEN = ["generate", "--posters", "30", "--block-size", "4", "--judges", "12"]


def run(capsys, argv, expect=0):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == expect, f"{argv} -> {code}: {captured.err}"
    return captured


def write_pair_reuse_design(path):
    # both blocks share the pair (0, 1); everything else is legal
    config = DesignConfig(t=6, k=4, b=2, seed=0)
    blocks = [Block(0, (0, 1, 2, 3), True), Block(1, (0, 1, 4, 5), True)]
    write_design(str(path), Design.from_blocks(config, blocks))


def write_two_clique_design(path):
    config = DesignConfig(t=6, k=3, b=2, seed=0)
    blocks = [Block(0, (0, 1, 2), True), Block(1, (3, 4, 5), True)]
    write_design(str(path), Design.from_blocks(config, blocks))


def test_version_and_help_exit_zero(capsys):
    for flag in ("--version", "--help"):
        with pytest.raises(SystemExit) as excinfo:
            main([flag])
        assert excinfo.value.code == 0
    assert "nbibd" in capsys.readouterr().out


def test_unknown_arguments_exit_two(capsys):
    for argv in (["--bogus"], [], ["generate", "--bogus"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
    capsys.readouterr()


# every subcommand with valid arguments, which an unknown flag then follows
VALID_ARGV = {
    "generate": ["--posters", "20", "--block-size", "4", "--judges", "12", "--kind", "nb2", "--out", "d.csv"],
    "extend": ["--design", "d.csv", "--blocks", "1", "--kind", "nb2", "--seed", "1", "--out", "d.csv"],
    "validate": ["d.csv"],
    "score": ["--design", "d.csv", "--scores", "s.csv", "--out", "f.csv"],
    "simulate": ["--out", "m.csv"],
    "report": ["m.csv"],
}
BAD_INT = {"generate": "--posters", "extend": "--blocks", "validate": "--posters", "score": "--posters",
           "simulate": "--iterations", "report": "--hist-bins"}
BAD_CHOICE = {"generate": "--kind", "extend": "--kind", "validate": "--kind", "score": "--model", "simulate": "--preset"}
PARSER_ARGVS = [[], ["--help"], ["-h"], ["--version"], ["extnd"], ["--bogus", "validate", "d.csv"],
                ["--version", "extend"]]
for command, valid in VALID_ARGV.items():
    PARSER_ARGVS += [[command, "--help"], [command, "-h"], [command], [command, *valid, "--bogus"],
                     [command, *valid, BAD_INT[command], "x"]]
    if command in BAD_CHOICE:
        PARSER_ARGVS.append([command, *valid, BAD_CHOICE[command], "bogus"])


def parser_outcome(capsys, parse, argv):
    with pytest.raises(SystemExit) as excinfo:
        parse(argv)
    captured = capsys.readouterr()
    return excinfo.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=" ".join)
def test_main_parses_like_the_full_parser(capsys, monkeypatch, argv):
    # argparse words its messages differently across Python versions, so the full parser
    # built in this interpreter is the reference, byte for byte
    expected = parser_outcome(capsys, lambda argv: build_parser().parse_args(argv), argv)
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(command) or build_parser(command))
    assert parser_outcome(capsys, main, argv) == expected
    assert built == [argv[0] if argv and argv[0] in VALID_ARGV else None]


def test_full_parser_names_the_command_argument(capsys):
    # only a parser built for one command renames it, to print the full usage line
    assert parser_outcome(capsys, main, [])[2].endswith("the following arguments are required: command\n")
    assert "argument command: invalid choice" in parser_outcome(capsys, main, ["extnd"])[2]


def test_generate_validate_round_trip(tmp_path, capsys):
    out = tmp_path / "design.csv"
    captured = run(capsys, GEN + ["--kind", "nb1", "--seed", "5", "--out", str(out)])
    assert "command=generate" in captured.out
    assert "restarts=" in captured.out

    again = tmp_path / "again.csv"
    run(capsys, GEN + ["--kind", "nb1", "--seed", "5", "--out", str(again)])
    assert out.read_bytes() == again.read_bytes()

    captured = run(capsys, ["validate", str(out), "--kind", "nb1"])
    assert "covered=true" in captured.out
    assert "all_prefixes_connected=true" in captured.out
    assert "faculty_ok=true" in captured.out


def test_generate_infeasible_exits_one(tmp_path, capsys):
    argv = [
        "generate", "--posters", "6", "--block-size", "4", "--judges", "2",
        "--kind", "nb1", "--max-attempts", "20", "--restart-budget", "5",
        "--out", str(tmp_path / "never.csv"),
    ]
    captured = run(capsys, argv, expect=1)
    assert "error:" in captured.err
    assert not (tmp_path / "never.csv").exists()


def test_generate_rejects_negative_restart_budget(tmp_path, capsys):
    argv = GEN + ["--kind", "nb1", "--restart-budget", "-1", "--out", str(tmp_path / "never.csv")]
    captured = run(capsys, argv, expect=1)
    assert "restart_budget must be >= 0" in captured.err
    assert not (tmp_path / "never.csv").exists()


def test_generate_rejects_uncoverable_random_shape(tmp_path, capsys):
    # the unstructured baseline promises coverage, which 2 * 5 reviews
    # cannot deliver for 30 posters
    argv = [
        "generate", "--posters", "30", "--block-size", "5", "--judges", "2",
        "--kind", "random", "--out", str(tmp_path / "never.csv"),
    ]
    captured = run(capsys, argv, expect=1)
    assert "error:" in captured.err


def test_validate_enforcement_depends_on_kind(tmp_path, capsys):
    path = tmp_path / "reuse.csv"
    write_pair_reuse_design(path)

    run(capsys, ["validate", str(path)])
    run(capsys, ["validate", str(path), "--kind", "nb2"])
    captured = run(capsys, ["validate", str(path), "--kind", "nb1"], expect=1)
    assert "concurrence" in captured.err


def test_validate_flags_disconnection(tmp_path, capsys):
    path = tmp_path / "cliques.csv"
    write_two_clique_design(path)

    captured = run(capsys, ["validate", str(path)], expect=1)
    assert "connected" in captured.err
    # the unstructured baseline only promises coverage
    captured = run(capsys, ["validate", str(path), "--kind", "random"])
    assert "covered=true" in captured.out
    assert "connected=false" in captured.out


# t=4 posters, k=2 reviews per judge, so b_min = ceil(t/(k-1)) = 4 faculty blocks;
# each design breaks one rule that `validate --kind` enforces and keeps the others
VALIDATE_FAILURES = {
    # poster 2 is never reviewed, and random promises only coverage
    "unreviewed": ("random", [(0, 1), (1, 3)], "not every poster is reviewed"),
    # posters 0 and 3 are reviewed 4 and 2 times
    "spread": ("nb2", [(0, 1), (1, 2), (2, 3), (3, 0), (0, 1), (0, 2)], "replication spread 2 exceeds 1"),
    # block 1 shares no poster with block 0; block 2 joins them
    "prefix": ("nb2", [(0, 1), (2, 3), (1, 2), (3, 0)], "a block prefix is not connected"),
    # poster 3 is first reviewed in block 4, after the faculty blocks
    "faculty": (
        "nb2",
        [(0, 1), (1, 2), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)],
        "a poster is missing from the faculty blocks",
    ),
}


@pytest.mark.parametrize("kind,blocks,message", VALIDATE_FAILURES.values(), ids=VALIDATE_FAILURES)
def test_validate_reports_each_broken_rule(tmp_path, capsys, kind, blocks, message):
    path = tmp_path / "design.csv"
    rows = [f"{j},{'true' if j < 4 else 'false'},{first},{second}" for j, (first, second) in enumerate(blocks)]
    path.write_text("\n".join(["judge_index,faculty,poster_1,poster_2", *rows, ""]))
    captured = run(capsys, ["validate", str(path), "--kind", kind], expect=1)
    assert captured.err == f"error: {message}\n"


def test_validate_missing_file_exits_two(tmp_path, capsys):
    captured = run(capsys, ["validate", str(tmp_path / "absent.csv")], expect=2)
    assert "error:" in captured.err


def test_extend_cli_matches_library(tmp_path, capsys):
    base = tmp_path / "base.csv"
    run(capsys, GEN + ["--kind", "nb2", "--seed", "7", "--out", str(base)])

    cli_out = tmp_path / "cli.csv"
    captured = run(
        capsys,
        ["extend", "--design", str(base), "--blocks", "5", "--kind", "nb2",
         "--seed", "7", "--out", str(cli_out)],
    )
    assert "blocks=17" in captured.out

    lib_out = tmp_path / "lib.csv"
    write_design(str(lib_out), extend(read_design(str(base), seed=7), 5, "nb2"))
    assert cli_out.read_bytes() == lib_out.read_bytes()

    run(capsys, ["validate", str(cli_out), "--kind", "nb2"])


def test_extend_without_seed_exits_two(tmp_path, capsys):
    # the design file does not record its seed, so a default would
    # silently continue a design generated with another seed on the
    # wrong stream
    base = tmp_path / "base.csv"
    run(capsys, GEN + ["--kind", "nb2", "--seed", "7", "--out", str(base)])
    out = tmp_path / "extended.csv"
    with pytest.raises(SystemExit) as excinfo:
        main(["extend", "--design", str(base), "--blocks", "5", "--kind", "nb2", "--out", str(out)])
    assert excinfo.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_short_faculty_prefix_extends_through_a_file(tmp_path, capsys):
    # 2 of b_min=5 faculty blocks: the file reads back as still inside the
    # default faculty phase, so the extension flags blocks 2-4 as well
    path = str(tmp_path / "design.csv")
    run(capsys, ["generate", "--posters", "20", "--block-size", "5", "--judges", "2",
                 "--kind", "nb2", "--seed", "3", "--out", path])
    run(capsys, ["extend", "--design", path, "--blocks", "4", "--kind", "nb2", "--seed", "3", "--out", path])
    captured = run(capsys, ["validate", path, "--kind", "nb2"])
    assert "faculty_ok=true" in captured.out


def test_production_paths_build_no_block(tmp_path, capsys, monkeypatch):
    # generate -> extend -> validate -> score through the CLI, and one
    # study iteration, work on the design's id array alone
    def refuse(*args, **kwargs):
        raise AssertionError("a Block was built")

    monkeypatch.setattr(design_module, "Block", refuse)
    path = str(tmp_path / "design.csv")
    run(capsys, GEN + ["--kind", "nb2", "--seed", "7", "--out", path])
    run(capsys, ["extend", "--design", path, "--blocks", "3", "--kind", "nb2", "--seed", "7", "--out", path])
    run(capsys, ["validate", path, "--kind", "nb2"])
    design = read_design(path)
    scores = str(tmp_path / "scores.csv")
    write_scores(scores, ScoreTable.from_design_matrix(design, np.random.default_rng(1).normal(70.0, 8.0, (30, 15))))
    for model in ("fixed", "random"):
        run(capsys, ["score", "--design", path, "--scores", scores, "--model", model,
                     "--out", str(tmp_path / f"{model}.csv")])
    result = run_iteration(SimParams(t=20, b=12, k=4, awards=3, iterations=1, seed=1), 0)
    assert not result.failures
    with pytest.raises(AssertionError, match="Block"):
        design.blocks


# runs each argv through cli.main in this interpreter, then reports the
# exit codes and every loaded module of the scipy package
_MODULE_PROBE = """
import json, sys
from nbibd import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def fresh_run(commands):
    """(stdout lines, exit codes, scipy modules) of commands run in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", _MODULE_PROBE, json.dumps(commands)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    *lines, last = done.stdout.splitlines()
    probe = json.loads(last)
    return lines, probe["codes"], set(probe["scipy"])


def test_design_commands_load_no_scipy(tmp_path):
    # a judge arrival (extend, then validate) and generate import numpy
    # alone: scipy loads where the fits, the study and is_connected call it
    path = str(tmp_path / "design.csv")
    lines, codes, scipy_modules = fresh_run([
        GEN + ["--kind", "nb2", "--seed", "7", "--out", path],
        ["extend", "--design", path, "--blocks", "3", "--kind", "nb2", "--seed", "7", "--out", path],
        ["validate", path, "--kind", "nb2"],
    ])
    assert codes == [0, 0, 0]
    assert "all_prefixes_connected=true" in lines[-1]
    assert scipy_modules == set()


def test_score_loads_the_fit_layers_but_not_scipy_stats(tmp_path, capsys):
    path = str(tmp_path / "design.csv")
    run(capsys, GEN + ["--kind", "nb2", "--seed", "7", "--out", path])
    scores = str(tmp_path / "scores.csv")
    design = read_design(path)
    write_scores(scores, ScoreTable.from_design_matrix(design, np.random.default_rng(1).normal(70.0, 8.0, (30, 12))))
    _, codes, scipy_modules = fresh_run([
        ["score", "--design", path, "--scores", scores, "--model", model, "--out", str(tmp_path / f"{model}.csv")]
        for model in ("random", "fixed")
    ])
    assert codes == [0, 0]
    # the REML search is in-house: neither fit loads scipy.optimize, nor
    # the scipy.linalg it would bring
    assert "scipy.sparse" in scipy_modules
    packages = {".".join(module.split(".")[:2]) for module in scipy_modules}
    assert not {"scipy.optimize", "scipy.linalg", "scipy.stats"} & packages


def test_report_loads_no_scipy_stats(tmp_path):
    # the paired-t quantile comes from scipy.special, which loads neither
    # scipy.stats nor the scipy.optimize and scipy.linalg that it brings
    metrics = str(tmp_path / "metrics.csv")
    write_metrics(metrics, [
        IterationResult(
            iteration,
            {kind: DesignMetrics(0.1 * (iteration + rank), 1.0 + iteration * rank, 2.0, 3.0, False)
             for rank, kind in enumerate(GeneratorKind)},
        )
        for iteration in range(3)
    ])
    lines, codes, scipy_modules = fresh_run([
        ["report", metrics, "--out", str(tmp_path / "summary.csv"), "--hist-out", str(tmp_path / "hist.csv")]
    ])
    assert codes == [0]
    assert "iterations=3 designs=3" in lines[-1]
    assert "scipy.special" in scipy_modules
    packages = {".".join(module.split(".")[:2]) for module in scipy_modules}
    assert not {"scipy.optimize", "scipy.linalg", "scipy.stats"} & packages


def test_validate_of_a_prefix_disconnected_design_in_a_fresh_interpreter(tmp_path):
    # the first-seen rule fails on both files, so validate asks
    # is_connected, whose scipy import happens at that call
    bridged = tmp_path / "bridged.csv"
    blocks = [Block(0, (0, 1, 2), True), Block(1, (3, 4, 5), True), Block(2, (0, 3, 4), True)]
    write_design(str(bridged), Design.from_blocks(DesignConfig(t=6, k=3, b=3, seed=0), blocks))
    cliques = tmp_path / "cliques.csv"
    write_two_clique_design(cliques)
    lines, codes, scipy_modules = fresh_run([["validate", str(bridged)], ["validate", str(cliques)]])
    assert codes == [0, 1]
    assert "covered=true connected=true all_prefixes_connected=false" in lines[0]
    assert "covered=true connected=false all_prefixes_connected=false" in lines[1]
    assert "scipy.sparse.csgraph" in scipy_modules


def test_score_complete_block_recovers_raw_means(tmp_path, capsys):
    design_path = tmp_path / "complete.csv"
    run(
        capsys,
        ["generate", "--posters", "4", "--block-size", "4", "--judges", "5",
         "--kind", "nb2", "--seed", "3", "--out", str(design_path)],
    )
    design = read_design(str(design_path))
    rng = np.random.default_rng(12)
    matrix = 65.0 + rng.normal(0.0, 6.0, (4, 5))
    scores_path = tmp_path / "scores.csv"
    write_scores(str(scores_path), ScoreTable.from_design_matrix(design, matrix))
    means = matrix.mean(axis=1)

    for model in ("fixed", "random"):
        out = tmp_path / f"{model}.csv"
        captured = run(
            capsys,
            ["score", "--design", str(design_path), "--scores", str(scores_path),
             "--model", model, "--out", str(out)],
        )
        assert f"model={model}" in captured.out
        fields = dict(field.split("=", 1) for field in captured.out.split())
        assert 1.0 <= float(fields["condition"]) < 1e12
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 4
        for row in rows:
            assert float(row["pmm"]) == pytest.approx(means[int(row["poster_id"])], abs=1e-8)
        sidecar = tmp_path / f"{model}.summary.csv"
        with open(sidecar, newline="") as handle:
            summary = list(csv.DictReader(handle))[0]
        assert summary["model_kind"] == model
        assert summary["converged"] == "true"
        if model == "fixed":
            assert summary["var_judge"] == ""
        else:
            float(summary["var_judge"])


def test_score_respects_explicit_summary_path(tmp_path, capsys):
    design_path = tmp_path / "design.csv"
    run(capsys, GEN + ["--kind", "nb2", "--seed", "1", "--out", str(design_path)])
    design = read_design(str(design_path))
    rng = np.random.default_rng(4)
    scores_path = tmp_path / "scores.csv"
    write_scores(str(scores_path), ScoreTable.from_design_matrix(design, rng.normal(70.0, 5.0, (30, 12))))
    out = tmp_path / "fit.csv"
    summary = tmp_path / "elsewhere.csv"
    run(
        capsys,
        ["score", "--design", str(design_path), "--scores", str(scores_path),
         "--out", str(out), "--summary-out", str(summary)],
    )
    assert summary.exists()
    assert not (tmp_path / "fit.summary.csv").exists()


def test_score_disconnected_design_exits_one(tmp_path, capsys):
    design_path = tmp_path / "cliques.csv"
    write_two_clique_design(design_path)
    design = read_design(str(design_path))
    rng = np.random.default_rng(2)
    scores_path = tmp_path / "scores.csv"
    write_scores(str(scores_path), ScoreTable.from_design_matrix(design, rng.normal(70.0, 5.0, (6, 2))))
    captured = run(
        capsys,
        ["score", "--design", str(design_path), "--scores", str(scores_path),
         "--model", "fixed", "--out", str(tmp_path / "fit.csv")],
        expect=1,
    )
    assert "error:" in captured.err


def test_score_malformed_scores_exits_two(tmp_path, capsys):
    design_path = tmp_path / "design.csv"
    run(capsys, GEN + ["--kind", "nb2", "--seed", "2", "--out", str(design_path)])
    scores_path = tmp_path / "scores.csv"
    scores_path.write_text("not,a,scores\nfile,,\n")
    captured = run(
        capsys,
        ["score", "--design", str(design_path), "--scores", str(scores_path),
         "--out", str(tmp_path / "fit.csv")],
        expect=2,
    )
    assert "error:" in captured.err


@pytest.mark.parametrize(
    "row,column", [("18446744073709551617,2,4.0", "judge_index"), ("0,-9223372036854775809,4.0", "poster_id")]
)
def test_score_id_beyond_int64_exits_two(tmp_path, capsys, row, column):
    design_path = tmp_path / "design.csv"
    design_path.write_text("judge_index,faculty,poster_1,poster_2\n0,true,0,1\n1,true,1,2\n")
    scores_path = tmp_path / "scores.csv"
    scores_path.write_text(f"judge_index,poster_id,score\n0,0,3.0\n{row}\n")
    captured = run(
        capsys,
        ["score", "--design", str(design_path), "--scores", str(scores_path),
         "--out", str(tmp_path / "fit.csv")],
        expect=2,
    )
    assert f"{scores_path}:row 3: column '{column}' does not fit a 64-bit integer" in captured.err


def test_simulate_then_report_pipeline(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NBIBD_THREADS", "1")
    metrics = tmp_path / "metrics.csv"
    captured = run(
        capsys,
        ["simulate", "--preset", "paper", "--posters", "40", "--judges", "18",
         "--awards", "8", "--iterations", "4", "--seed", "1", "--out", str(metrics)],
    )
    assert "iterations=4" in captured.out
    assert "designs=nb1,nb2,random" in captured.out
    lines = metrics.read_text().splitlines()
    assert len(lines) == 1 + 4 * 3

    summary = tmp_path / "summary.csv"
    hist = tmp_path / "hist.csv"
    captured = run(
        capsys,
        ["report", str(metrics), "--out", str(summary), "--hist-out", str(hist),
         "--hist-bins", "4"],
    )
    assert f"hist={hist}" in captured.out
    summary_lines = summary.read_text().splitlines()
    assert len(summary_lines) == 1 + 12 + 12 + 6
    assert len(hist.read_text().splitlines()) == 1 + (3 + 3) * 4 * 4

    summary_bytes = summary.read_bytes()
    hist_bytes = hist.read_bytes()
    run(
        capsys,
        ["report", str(metrics), "--out", str(summary), "--hist-out", str(hist),
         "--hist-bins", "4"],
    )
    assert summary.read_bytes() == summary_bytes
    assert hist.read_bytes() == hist_bytes


def test_simulate_rejects_bad_overrides(tmp_path, capsys):
    captured = run(
        capsys,
        ["simulate", "--iterations", "1", "--awards", "0", "--out", str(tmp_path / "m.csv")],
        expect=1,
    )
    assert "error:" in captured.err


def test_simulate_names_a_negative_thread_variable(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NBIBD_THREADS", "-1")
    captured = run(
        capsys,
        ["simulate", "--iterations", "2", "--out", str(tmp_path / "m.csv")],
        expect=1,
    )
    assert "error: NBIBD_THREADS must be >= 0, got -1" in captured.err
    assert not (tmp_path / "m.csv").exists()


def test_report_default_output_name(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NBIBD_THREADS", "1")
    metrics = tmp_path / "metrics.csv"
    run(
        capsys,
        ["simulate", "--posters", "40", "--judges", "18", "--awards", "8",
         "--iterations", "2", "--seed", "0", "--out", str(metrics)],
    )
    monkeypatch.chdir(tmp_path)
    captured = run(capsys, ["report", str(metrics)])
    assert "out=summary.csv" in captured.out
    assert (tmp_path / "summary.csv").exists()


def test_report_missing_file_exits_two(tmp_path, capsys):
    captured = run(capsys, ["report", str(tmp_path / "absent.csv")], expect=2)
    assert "error:" in captured.err


def test_report_rejects_zero_bins_before_writing_anything(tmp_path, capsys):
    metrics = tmp_path / "metrics.csv"
    row = DesignMetrics(win_prop=0.5, median_rank_dev=1.0, mean_score_dev=2.0, mean_se=3.0, disconnected=False)
    write_metrics(str(metrics), [IterationResult(i, {GeneratorKind.NB2: row}) for i in range(2)])
    summary, hist = tmp_path / "summary.csv", tmp_path / "hist.csv"
    captured = run(
        capsys,
        ["report", str(metrics), "--out", str(summary), "--hist-out", str(hist), "--hist-bins", "0"],
        expect=1,
    )
    assert "--hist-bins must be >= 1" in captured.err
    assert not summary.exists() and not hist.exists()


def test_validate_one_poster_column_design_exits_two(tmp_path, capsys):
    path = tmp_path / "one.csv"
    path.write_text("judge_index,faculty,poster_1\n0,true,0\n1,true,1\n")
    captured = run(capsys, ["validate", str(path)], expect=2)
    assert f"{path}:row 1: a block needs at least 2 poster columns, got 1" in captured.err


def test_validate_poster_id_beyond_int64_exits_cleanly(tmp_path, capsys):
    path = tmp_path / "huge.csv"
    path.write_text(f"judge_index,faculty,poster_1,poster_2\n0,true,0,{2**64 + 1}\n")
    captured = run(capsys, ["validate", str(path)], expect=2)
    assert f"{path}:row 2: column 'poster_2' does not fit a 64-bit integer: '{2**64 + 1}'" in captured.err
    captured = run(capsys, ["validate", str(path), "--posters", str(2**70)], expect=2)
    assert f"{path}:row 2: column 'poster_2' does not fit a 64-bit integer" in captured.err
    small = tmp_path / "small.csv"
    small.write_text("judge_index,faculty,poster_1,poster_2\n0,true,0,1\n")
    captured = run(capsys, ["validate", str(small), "--posters", str(2**70)], expect=1)
    assert "does not fit a 64-bit poster count" in captured.err
