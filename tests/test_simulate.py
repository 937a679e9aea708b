"""Study harness: score synthesis, per-iteration metrics, aggregation, CSV."""

import hashlib
import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbibd import (
    METRICS,
    PRESETS,
    DesignMetrics,
    FileFormatError,
    GeneratorKind,
    IterationResult,
    NB1InfeasibleBudget,
    SimParams,
    SimStudyReport,
    aggregate_results,
    present_kinds,
    read_metrics,
    run_iteration,
    run_study,
    summarize_differences,
    synthesize_scores,
    write_histogram,
    write_metrics,
    write_summary,
)
from nbibd.cli import main
from golden_stack import stack_note

cli_module = importlib.import_module("nbibd.cli")
simulate_module = importlib.import_module("nbibd.simulate")

NB1, NB2, RANDOM = GeneratorKind.NB1, GeneratorKind.NB2, GeneratorKind.RANDOM

# fractional replication (18 * 5 = 90 reviews over 40 posters) so the
# nb1 greedy never hits its exact-replication endgame
SMALL = dict(t=40, b=18, k=5, awards=8)


def small_params(**overrides):
    merged = {**SMALL, **overrides}
    return SimParams(**merged)


def metrics_row(win=0.5, rank_dev=1.0, score_dev=2.0, se=3.0, disconnected=False):
    return DesignMetrics(
        win_prop=win,
        median_rank_dev=rank_dev,
        mean_score_dev=score_dev,
        mean_se=se,
        disconnected=disconnected,
    )


def test_synthetic_moments_match_the_generating_model():
    params = SimParams()
    true_vars, judge_vars, means = [], [], []
    for iteration in range(10):
        true, matrix = synthesize_scores(params, iteration)
        assert true.shape == (params.t,)
        assert matrix.shape == (params.t, params.b)
        true_vars.append(true.var(ddof=1))
        judge_vars.append((matrix - true[:, None]).mean(axis=0).var(ddof=1))
        means.append(true.mean())
    assert np.mean(true_vars) == pytest.approx(params.sd_poster**2, rel=0.2)
    # column means carry the judge effect plus averaged-down noise
    expected = params.sd_judge**2 + params.sd_error**2 / params.t
    assert np.mean(judge_vars) == pytest.approx(expected, rel=0.2)
    assert np.mean(means) == pytest.approx(params.mu, abs=1.5)


def test_score_synthesis_is_deterministic_per_iteration():
    params = small_params(seed=4)
    true_a, matrix_a = synthesize_scores(params, 7)
    true_b, matrix_b = synthesize_scores(params, 7)
    assert np.array_equal(true_a, true_b)
    assert np.array_equal(matrix_a, matrix_b)
    _, other = synthesize_scores(params, 8)
    assert not np.array_equal(matrix_a, other)
    with pytest.raises(ValueError):
        synthesize_scores(params, -1)


def test_zero_noise_iteration_recovers_the_truth_exactly():
    params = small_params(sd_poster=0.0, sd_judge=0.0, sd_error=0.0, iterations=1, seed=5)
    result = run_iteration(params, 0)
    assert not result.failures
    assert set(result.metrics) == set(params.designs)
    for entry in result.metrics.values():
        assert entry.win_prop == 1.0
        assert entry.median_rank_dev == 0.0
        assert entry.mean_score_dev == 0.0
        assert entry.mean_se == 0.0


def test_huge_poster_spread_makes_every_design_win():
    params = small_params(sd_poster=500.0, iterations=6, seed=3)
    report = run_study(params, workers=1)
    for kind in params.designs:
        for result in report.results:
            assert result.metrics[kind].win_prop == 1.0


def test_dropping_design_kinds_leaves_other_streams_untouched():
    solo = run_iteration(small_params(iterations=1, seed=3, designs=("nb1",)), 2)
    full = run_iteration(small_params(iterations=1, seed=3), 2)
    assert solo.metrics[NB1] == full.metrics[NB1]


def test_study_results_do_not_depend_on_worker_count():
    params = small_params(iterations=5, seed=6)
    serial = run_study(params, workers=1)
    forked = run_study(params, workers=3)
    assert serial.results == forked.results
    assert serial.design_summary == forked.design_summary
    assert serial.difference_summary == forked.difference_summary
    assert serial.disconnected_counts == forked.disconnected_counts
    assert set(serial.design_summary) == {(kind, metric) for kind in params.designs for metric in METRICS}


def test_worker_count_env_override(monkeypatch):
    from nbibd.simulate import _worker_count

    params = small_params(iterations=5, seed=0)
    monkeypatch.setenv("NBIBD_THREADS", "2")
    assert _worker_count(params, None) == 2
    monkeypatch.setenv("NBIBD_THREADS", "0")
    assert _worker_count(params, None) >= 1
    monkeypatch.setenv("NBIBD_THREADS", "abc")
    with pytest.raises(ValueError):
        _worker_count(params, None)
    monkeypatch.delenv("NBIBD_THREADS")
    assert _worker_count(params, None) >= 1
    # explicit argument wins over the environment and is clamped to the
    # iteration count
    monkeypatch.setenv("NBIBD_THREADS", "7")
    assert _worker_count(params, 1) == 1
    assert _worker_count(params, 99) == 5
    with pytest.raises(ValueError, match="worker count must be >= 0, got -1"):
        _worker_count(params, -1)


def test_difference_summary_sign_and_interval():
    params = small_params(iterations=2, seed=0)
    results = (
        IterationResult(0, {NB1: metrics_row(win=0.6), NB2: metrics_row(win=0.5)}),
        IterationResult(1, {NB1: metrics_row(win=0.7), NB2: metrics_row(win=0.9)}),
    )
    report = SimStudyReport(
        params=params, results=results, **aggregate_results(results, params.designs)
    )
    summary = summarize_differences(report, ("nb1", "nb2"), "win_prop")
    assert summary.n == 2
    assert summary.mean == pytest.approx(-0.05)
    assert summary.sd == pytest.approx(np.std([0.1, -0.2], ddof=1))
    # two paired observations leave one degree of freedom, whose
    # two-sided 97.5% quantile is 12.7062...
    half = 12.706204736174698 * summary.sd / math.sqrt(2.0)
    assert summary.ci_low == pytest.approx(summary.mean - half, rel=1e-9)
    assert summary.ci_high == pytest.approx(summary.mean + half, rel=1e-9)

    same = summarize_differences(report, (NB1, NB1), "win_prop")
    assert same.mean == 0.0 and same.ci_low == 0.0 and same.ci_high == 0.0

    empty = summarize_differences(report, ("nb1", "random"), "win_prop")
    assert empty.n == 0
    assert math.isnan(empty.mean) and math.isnan(empty.ci_low)

    with pytest.raises(ValueError):
        summarize_differences(report, ("nb1", "nb2"), "accuracy")
    with pytest.raises(ValueError):
        summarize_differences(report, ("nb1", "balanced"), "win_prop")
    narrow = SimStudyReport(
        params=small_params(iterations=2, seed=0, designs=("nb1", "nb2")),
        results=results,
        **aggregate_results(results, (NB1, NB2)),
    )
    with pytest.raises(ValueError):
        summarize_differences(narrow, ("nb1", "random"), "win_prop")


def test_params_reject_nb1_shapes_counting_rules_out():
    # ceil(bk/t)*(k-1) > t-1 rules out a pair-concurrence-1 design:
    # 10*4 > 9 at t=10, k=5, b=20 and 3*3 > 8 at t=9, k=4, b=5, where
    # every iteration used to record nb1 as a failure
    for t, k, b in ((10, 5, 20), (9, 4, 5)):
        with pytest.raises(ValueError, match=r"ceil\(bk/t\) = .* > t-1 = .*leave nb1 out"):
            SimParams(t=t, k=k, b=b, awards=3, iterations=1)
        params = SimParams(t=t, k=k, b=b, awards=3, iterations=1, designs=("nb2", "random"))
        assert params.designs == (NB2, RANDOM)


def test_infeasible_nb1_kind_is_recorded_as_failure(monkeypatch):
    # nb1 can still spend its whole restart budget on a shape the bound
    # lets through; it fails while the other kinds are still scored
    real_generate = simulate_module.generate

    def generate(config, kind):
        if GeneratorKind(kind) is NB1:
            raise NB1InfeasibleBudget("gave up after 50 restarts")
        return real_generate(config, kind)

    monkeypatch.setattr(simulate_module, "generate", generate)
    result = run_iteration(small_params(iterations=1), 0)
    assert result.failures == (NB1,)
    assert set(result.metrics) == {NB2, RANDOM}
    for entry in result.metrics.values():
        assert all(math.isfinite(entry.value(metric)) for metric in METRICS)


def test_aggregation_counts_missing_kinds_as_failures():
    results = (
        IterationResult(0, {NB1: metrics_row(), RANDOM: metrics_row(disconnected=True)}),
        IterationResult(1, {NB1: metrics_row(disconnected=True)}),
    )
    aggregates = aggregate_results(results, (NB1, NB2, RANDOM))
    assert aggregates["failure_counts"] == {NB1: 0, NB2: 2, RANDOM: 1}
    assert aggregates["disconnected_counts"] == {NB1: 1, NB2: 0, RANDOM: 1}
    assert aggregates["design_summary"][(NB2, "win_prop")].n == 0
    assert aggregates["design_summary"][(NB1, "win_prop")].n == 2
    assert aggregates["difference_summary"][(NB1, RANDOM, "win_prop")].n == 1
    assert present_kinds(results) == (NB1, RANDOM)


def test_kinds_given_out_of_order_keep_every_report_row(tmp_path):
    results = tuple(
        IterationResult(i, {NB1: metrics_row(win=0.1 * i), RANDOM: metrics_row(win=0.3, se=1.0 + i)})
        for i in range(3)
    )
    aggregates = aggregate_results(results, (RANDOM, NB1))
    assert list(aggregates["difference_summary"]) == [(NB1, RANDOM, metric) for metric in METRICS]
    path = tmp_path / "summary.csv"
    write_summary(str(path), **aggregates)
    lines = path.read_text().splitlines()
    # header, 2 kinds x 4 metrics, 1 pair x 4 metrics, 2 x 2 counts
    assert len(lines) == 17
    assert [line.split(",")[1] for line in lines[9:13]] == ["nb1-random"] * 4
    write_histogram(str(path), results, (RANDOM, NB1), bins=2)
    names = {line.split(",")[1] for line in path.read_text().splitlines()[1:]}
    assert names == {"nb1", "random", "nb1-random"}


def test_metric_value_lookup_rejects_unknown_names():
    entry = metrics_row()
    assert entry.value("mean_se") == 3.0
    with pytest.raises(ValueError):
        entry.value("rmse")


def test_metrics_csv_round_trip(tmp_path):
    params = small_params(iterations=3, seed=2)
    report = run_study(params, workers=1)
    path = tmp_path / "metrics.csv"
    write_metrics(str(path), report.results)
    again = read_metrics(str(path))
    assert len(again) == 3
    for original, copy in zip(report.results, again):
        assert copy.iteration == original.iteration
        assert copy.metrics == original.metrics
        assert copy.failures == ()
    first = path.read_bytes()
    write_metrics(str(path), again)
    assert path.read_bytes() == first


HEADER = "iteration,design,win_prop,median_rank_dev,mean_score_dev,mean_se,disconnected"


@pytest.mark.parametrize(
    "content,fragment,row",
    [
        ("", "empty file", None),
        ("iteration,design,win\n", "header must be " + HEADER, 1),
        (HEADER + "\n", "no metric rows", None),
        (HEADER + "\n0,nb1,0.5,1,2\n", "expected 7 columns, got 5", 2),
        (HEADER + "\n0,balanced,0.5,1,2,3,false\n", "unknown design kind", 2),
        (HEADER + "\n-1,nb1,0.5,1,2,3,false\n", "iteration must be >= 0", 2),
        (HEADER + "\n0,nb1,high,1,2,3,false\n", "win_prop", 2),
        (HEADER + "\n0,nb1,0.5,1,2,3,maybe\n", "disconnected", 2),
        (HEADER + "\n0,nb1,0.5,1,2,3,false\n0,nb1,0.6,1,2,3,false\n", "duplicate row", 3),
        # every cell is parsed before any row is checked, as in a design file
        (HEADER + "\n-1,nb1,0.5,1,2,3,false\n0,nb1,high,1,2,3,false\n", "column 'win_prop' is not a number", 3),
    ],
)
def test_malformed_metrics_csv(tmp_path, content, fragment, row):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    with pytest.raises(FileFormatError) as excinfo:
        read_metrics(str(path))
    assert fragment in str(excinfo.value)
    assert excinfo.value.row == row


def test_summary_csv_layout(tmp_path):
    params = small_params(iterations=4, seed=1)
    report = run_study(params, workers=1)
    path = tmp_path / "summary.csv"
    write_summary(
        str(path),
        report.design_summary,
        report.difference_summary,
        report.disconnected_counts,
        report.failure_counts,
    )
    lines = path.read_text().splitlines()
    assert lines[0] == "section,name,metric,n,mean,sd,min,max,q025,q500,q975,ci_low,ci_high"
    sections = [line.split(",")[0] for line in lines[1:]]
    assert sections == ["design"] * 12 + ["difference"] * 12 + ["count"] * 6
    design_rows = lines[1:13]
    assert [row.split(",")[1] for row in design_rows[:4]] == ["nb1"] * 4
    assert [row.split(",")[2] for row in design_rows[:4]] == list(METRICS)
    # design rows have no paired interval
    assert all(row.split(",")[11] == "" and row.split(",")[12] == "" for row in design_rows)
    difference_names = {row.split(",")[1] for row in lines[13:25]}
    assert difference_names == {"nb1-nb2", "nb1-random", "nb2-random"}
    count_rows = [line.split(",") for line in lines[25:]]
    assert {row[2] for row in count_rows} == {"disconnected", "failed"}
    assert all(row[4:] == [""] * 9 for row in count_rows)
    first = path.read_bytes()
    write_summary(
        str(path),
        report.design_summary,
        report.difference_summary,
        report.disconnected_counts,
        report.failure_counts,
    )
    assert path.read_bytes() == first


def test_histogram_csv_bins_partition_the_results(tmp_path):
    params = small_params(iterations=5, seed=8)
    report = run_study(params, workers=1)
    path = tmp_path / "hist.csv"
    write_histogram(str(path), report.results, params.designs, bins=4)
    lines = path.read_text().splitlines()
    assert lines[0] == "section,name,metric,bin_left,bin_right,count"
    # 3 designs and 3 pairs, 4 metrics each, 4 bins per series
    assert len(lines) == 1 + (3 + 3) * 4 * 4
    totals: dict[tuple[str, str, str], int] = {}
    for line in lines[1:]:
        section, name, metric, left, right, count = line.split(",")
        assert float(left) <= float(right)
        key = (section, name, metric)
        totals[key] = totals.get(key, 0) + int(count)
    assert set(totals.values()) == {5}
    with pytest.raises(ValueError):
        write_histogram(str(path), report.results, params.designs, bins=0)


def test_histogram_bins_a_series_that_differs_only_by_rounding(tmp_path):
    # nb1 - nb2 win_prop differences from a paper-preset study: their
    # 1.1e-16 range is too narrow for 20 distinct bin edges
    diffs = [0.06666666666666676] + [0.06666666666666665] * 3
    results = tuple(
        IterationResult(i, {NB1: metrics_row(win=diff), NB2: metrics_row(win=0.0)}) for i, diff in enumerate(diffs)
    )
    path = tmp_path / "hist.csv"
    write_histogram(str(path), results, (NB1, NB2), bins=20)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    for name in ("nb1", "nb1-nb2"):
        series = [row for row in rows if row[1:3] == [name, "win_prop"]]
        # the unit-wide range numpy gives a constant series, centred on it
        assert [int(row[5]) for row in series] == [0] * 10 + [4] + [0] * 9
        assert float(series[0][3]) == pytest.approx(min(diffs) - 0.5)
        assert float(series[-1][4]) == pytest.approx(max(diffs) + 0.5)


# sha256 of each study file at the shape below, re-recorded when the
# random fit's criterion dropped log det H against the same term of
# log det C, and again when the judge matrix came from a sparse
# incidence; each moves theta in its last digits.  A change to any byte
# of these formats, or to the summary arithmetic, shows up here
STUDY_GOLDEN = {
    "metrics.csv": "3d852dd587e39be90cc6d94a2e0f0e9d16acb09bdf924cc89b5d0361522632d8",
    "summary.csv": "f785ea707f8c87bc0be2fe61682ee934699a960c1746ac4b93866e5db28d93d4",
    "hist.csv": "8b7da24b89bd2e047628146d2f9d9031af7f3b7ee7aa0c3e8f63028bbfe43758",
}


def test_study_files_keep_their_bytes(tmp_path):
    params = small_params(iterations=6, seed=3)
    report = run_study(params, workers=1)
    write_metrics(str(tmp_path / "metrics.csv"), report.results)
    write_summary(
        str(tmp_path / "summary.csv"),
        report.design_summary,
        report.difference_summary,
        report.disconnected_counts,
        report.failure_counts,
    )
    write_histogram(str(tmp_path / "hist.csv"), report.results, params.designs, bins=5)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in STUDY_GOLDEN}
    assert digests == STUDY_GOLDEN, stack_note()


def test_simulate_command_builds_no_summary(tmp_path, capsys, monkeypatch):
    # the metrics file and the failure count come straight from the
    # iteration results, so the command must not aggregate them
    params = small_params(iterations=6, seed=3)
    failures = sum(run_study(params, workers=1).failure_counts.values())

    def refuse(*args, **kwargs):
        raise AssertionError("simulate built summary tables")

    for module in (cli_module, simulate_module):
        monkeypatch.setattr(module, "aggregate_results", refuse)
    monkeypatch.setenv("NBIBD_THREADS", "1")
    metrics = tmp_path / "metrics.csv"
    argv = ["simulate", "--preset", "paper", "--posters", "40", "--judges", "18", "--awards", "8"]
    assert main(argv + ["--iterations", "6", "--seed", "3", "--out", str(metrics)]) == 0
    assert f" failures={failures} " in capsys.readouterr().out
    assert hashlib.sha256(metrics.read_bytes()).hexdigest() == STUDY_GOLDEN["metrics.csv"]


def test_presets_pin_the_two_study_settings():
    paper = PRESETS["paper"]
    assert paper == SimParams()
    assert (paper.t, paper.b, paper.k, paper.awards) == (200, 100, 5, 30)
    assert (paper.sd_poster, paper.sd_judge, paper.sd_error) == (7.0, 6.0, 7.0)
    assert (paper.mu, paper.iterations, paper.seed) == (80.0, 1000, 0)
    assert paper.designs == (NB1, NB2, RANDOM)

    alternate = PRESETS["appendix555"]
    assert (alternate.sd_poster, alternate.sd_judge, alternate.sd_error) == (5.0, 5.0, 5.0)
    assert (alternate.t, alternate.b, alternate.k) == (200, 100, 5)


def test_params_validation():
    assert small_params().designs == (NB1, NB2, RANDOM)
    assert small_params(designs=("random", "nb1")).designs == (NB1, RANDOM)
    cases = [
        dict(awards=0),
        dict(awards=41),
        dict(sd_poster=-1.0),
        dict(sd_judge=float("nan")),
        dict(mu=float("inf")),
        dict(iterations=0),
        dict(seed=-1),
        dict(designs=()),
        dict(designs=("nb1", "nb1")),
        dict(designs=("balanced",)),
        dict(k=80),
        dict(b=7),
    ]
    for overrides in cases:
        with pytest.raises(ValueError):
            small_params(**overrides)


def test_params_reject_shapes_the_near_balanced_kinds_cannot_cover():
    # 45 blocks of 5 reach at most 5 + 44 * 4 = 181 of 200 posters: nb1 and
    # nb2 used to record mean_score_dev = nan on every iteration
    with pytest.raises(ValueError, match="= 181 of 200 .* at least 50 judges"):
        SimParams(t=200, b=45, k=5)
    assert SimParams(t=200, b=50, k=5).b == 50
    assert SimParams(t=200, b=45, k=5, designs=("random",)).designs == (RANDOM,)


def test_params_reject_awards_past_the_near_balanced_reach():
    # 4 blocks of 5 reach 17 of 20 posters: awarding 18 used to abort the
    # study in rank_posters with "top_m must be in [0, 17]"
    with pytest.raises(ValueError, match="= 17 of 20 .* at least 5 judges"):
        SimParams(t=20, b=4, k=5, awards=18)
    assert SimParams(t=20, b=5, k=5, awards=18).b == 5


@st.composite
def study_shapes(draw):
    """(t, k, b, awards) with b*k >= t, around the least b the near-balanced kinds need."""
    t = draw(st.integers(2, 40))
    k = draw(st.integers(2, min(t, 6)))
    least = 1 - (-(t - k) // (k - 1))
    return t, k, draw(st.integers(-(-t // k), least + 8)), draw(st.integers(1, t))


@settings(max_examples=60, deadline=None)
@given(study_shapes(), st.integers(0, 2**32 - 1))
def test_accepted_shapes_never_abort_or_report_nan(shape, seed):
    # nb1 shares nb2's faculty phase and hence its reach; a shape past
    # nb1's counting bound, such as (t, k, b) = (10, 4, 8), is still run
    # with nb2 and random, and a shape that passes the bound but burns
    # nb1's whole restart budget, such as (t, k, b) = (17, 6, 6), is a
    # recorded failure, never an abort
    t, k, b, awards = shape
    reach = k + (b - 1) * (k - 1)
    if reach < t:
        with pytest.raises(ValueError, match="reach at most"):
            SimParams(t=t, k=k, b=b, awards=awards, iterations=1, seed=seed)
        return
    kinds = {NB1, NB2, RANDOM}
    try:
        params = SimParams(t=t, k=k, b=b, awards=awards, iterations=1, seed=seed)
    except ValueError as error:
        assert "leave nb1 out of designs" in str(error)
        kinds = {NB2, RANDOM}
        params = SimParams(t=t, k=k, b=b, awards=awards, iterations=1, seed=seed, designs=tuple(kinds))
    result = run_iteration(params, 0)
    assert set(result.metrics) | set(result.failures) == kinds
    for entry in result.metrics.values():
        assert all(math.isfinite(entry.value(metric)) for metric in METRICS)
