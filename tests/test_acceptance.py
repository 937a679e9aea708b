"""Release gate: one pass/fail line per criterion, run with pytest -s to watch.

Each test checks one numbered shipping criterion at its stated tolerance
and prints a single [acceptance] line before asserting, so a plain run
leaves a readable scoreboard even when everything passes.
"""

import csv
import math
import time

import numpy as np
import pytest

from nbibd import (
    DesignConfig,
    GeneratorKind,
    ScoreTable,
    SimParams,
    fit_fixed,
    fit_random,
    generate,
    is_connected,
    lambda_of,
    reml_criterion,
    required_blocks,
    run_study,
    validate,
)
from nbibd.cli import main
from nbibd.design import Block, Design
from gls_oracle import dense_gls, dummies
from tally_oracle import tallies_match_oracle

NB1, NB2, RANDOM = GeneratorKind.NB1, GeneratorKind.NB2, GeneratorKind.RANDOM
BENCH = dict(t=200, k=5, b=100)
LOG_2PI = math.log(2.0 * math.pi)


def emit(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def design_suite():
    start = time.perf_counter()
    designs = {
        kind: [generate(DesignConfig(seed=seed, **BENCH), kind)[0] for seed in range(200)]
        for kind in (NB1, NB2)
    }
    return designs, time.perf_counter() - start


@pytest.fixture(scope="module")
def study500():
    start = time.perf_counter()
    report = run_study(SimParams(iterations=500, seed=2))
    return report, time.perf_counter() - start


def test_criterion_1_feasibility_arithmetic(capsys):
    concurrence = lambda_of(50, 5, 201)
    blocks = required_blocks(201, 50, 5)
    ok = concurrence == 1 and blocks == 2010
    emit(capsys, "criterion 1 feasibility arithmetic", ok, f"lambda={concurrence} blocks={blocks}")


def test_criterion_2_design_invariants(capsys, design_suite):
    designs, elapsed = design_suite
    violations = []
    for kind, suite in designs.items():
        for index, design in enumerate(suite):
            report = validate(design)
            if report.replication_spread > 1:
                violations.append(f"{kind.value}[{index}] spread={report.replication_spread}")
            if not report.all_prefixes_connected:
                violations.append(f"{kind.value}[{index}] prefix disconnected")
            if not report.covered:
                violations.append(f"{kind.value}[{index}] uncovered")
            if kind is NB1 and report.max_concurrence > 1:
                violations.append(f"{kind.value}[{index}] lambda={report.max_concurrence}")
            counts = np.bincount(design.replication, minlength=4)
            if counts[2] != 100 or counts[3] != 100:
                violations.append(f"{kind.value}[{index}] profile={counts[:4]}")
    ok = not violations and elapsed < 120.0
    detail = f"400 designs, {len(violations)} violations, generated in {elapsed:.1f}s (limit 120s)"
    if violations:
        detail += " first=" + violations[0]
    emit(capsys, "criterion 2 design invariants", ok, detail)


def _oracle_pieces(table):
    reviewed, x, z = dummies(table)
    eigenvalues, u = np.linalg.eigh(z @ z.T)
    eigenvalues = np.clip(eigenvalues, 0.0, None)
    return reviewed, eigenvalues, u.T @ x, u.T @ table.scores


def _oracle_grid(pieces, thetas, chunk_size=50000):
    """Profiled -2 restricted log likelihood on a grid, via the spectrum
    of the judge Gram matrix so every theta costs only a p-by-p solve."""
    _, eigenvalues, qx, qy = pieces
    n, p = qx.shape
    dof = n - p
    yy = qy * qy
    out = np.empty(thetas.size)
    for start in range(0, thetas.size, chunk_size):
        chunk = thetas[start : start + chunk_size]
        scaled = np.outer(chunk, eigenvalues)
        weights = 1.0 / (1.0 + scaled)
        information = np.einsum("ci,ip,iq->cpq", weights, qx, qx)
        projected = np.einsum("ci,i,ip->cp", weights, qy, qx)
        beta = np.linalg.solve(information, projected[..., None])[..., 0]
        rss = weights @ yy - np.einsum("cp,cp->c", projected, beta)
        _, logdet_info = np.linalg.slogdet(information)
        logdet_h = np.log1p(scaled).sum(axis=1)
        out[start : start + chunk.size] = (
            dof * (LOG_2PI + 1.0) + dof * np.log(rss / dof) + logdet_h + logdet_info
        )
    return out


def _oracle_best(table, points=20001):
    """Two-stage grid: coarse sweep of the whole ratio range, then a
    uniform refinement around the coarse argmin."""
    pieces = _oracle_pieces(table)
    coarse_u = np.linspace(0.0, math.log1p(1e6), points)
    coarse = _oracle_grid(pieces, np.expm1(coarse_u))
    at = int(np.argmin(coarse))
    fine_u = np.linspace(coarse_u[max(0, at - 1)], coarse_u[min(points - 1, at + 1)], points)
    fine = _oracle_grid(pieces, np.expm1(fine_u))
    at = int(np.argmin(fine))
    return float(np.expm1(fine_u[at])), float(fine[at])


def test_criterion_3_oracle_equivalence(capsys, design_suite):
    designs, _ = design_suite
    tally_misses = 0
    for suite in designs.values():
        for design in suite:
            if not tallies_match_oracle(design):
                tally_misses += 1

    worst_criterion = 0.0
    worst_pmm = 0.0
    for index in range(25):
        rng = np.random.default_rng(1000 + index)
        t = int(rng.integers(4, 7))
        k = int(rng.integers(2, min(t, 5) + 1))
        b_minimum = -(-t // (k - 1))
        b = int(rng.integers(max(b_minimum, 4), 11))
        design, _ = generate(
            DesignConfig(t=t, k=k, b=b, seed=int(rng.integers(0, 2**32))), "nb2"
        )
        matrix = (
            70.0
            + rng.normal(0.0, 7.0, (t, 1))
            + rng.normal(0.0, 4.0, (1, b))
            + rng.normal(0.0, 5.0, (t, b))
        )
        table = ScoreTable.from_design_matrix(design, matrix)
        fit = fit_random(design, table)
        produced = -2.0 * reml_criterion(table, fit.var_judge / fit.var_error)
        theta_star, best = _oracle_best(table)
        reviewed, beta, _, _ = dense_gls(table, theta_star)
        worst_criterion = max(worst_criterion, abs(produced - best))
        worst_pmm = max(worst_pmm, float(np.max(np.abs(fit.pmm[reviewed] - beta))))

    ok = tally_misses == 0 and worst_criterion <= 1e-6 and worst_pmm <= 1e-4
    detail = (
        f"tally oracle misses={tally_misses}/400, criterion gap {worst_criterion:.2e} "
        f"(limit 1e-6), pmm gap {worst_pmm:.2e} (limit 1e-4)"
    )
    emit(capsys, "criterion 3 oracle equivalence", ok, detail)


def test_criterion_4_balanced_case_analytics(capsys):
    worst = 0.0
    for t, b, seed in ((5, 4, 0), (8, 3, 1), (4, 7, 2)):
        config = DesignConfig(t=t, k=t, b=b, seed=seed)
        design = Design.from_blocks(config, [Block(j, tuple(range(t)), False) for j in range(b)])
        rng = np.random.default_rng(seed)
        matrix = 70.0 + rng.normal(0.0, 8.0, (t, b))
        table = ScoreTable.from_design_matrix(design, matrix)
        means = matrix.mean(axis=1)
        for fit in (fit_fixed(design, table), fit_random(design, table)):
            worst = max(worst, float(np.max(np.abs(fit.pmm - means))))
    ok = worst <= 1e-8
    emit(
        capsys,
        "criterion 4 balanced-case analytics",
        ok,
        f"max |pmm - raw mean| = {worst:.2e} over 3 complete layouts x 2 models (limit 1e-8)",
    )


def test_criterion_5_disconnection_rate(capsys):
    start = time.perf_counter()
    disconnected = 0
    for seed in range(1000):
        design, _ = generate(DesignConfig(seed=seed, **BENCH), "random")
        covered = bool(design.replication.min() >= 1)
        if not (covered and is_connected(design)):
            disconnected += 1
    elapsed = time.perf_counter() - start
    ok = 8 <= disconnected <= 55 and elapsed < 60.0
    detail = f"{disconnected}/1000 disconnected (accept [8, 55]), {elapsed:.1f}s (limit 60s)"
    emit(capsys, "criterion 5 disconnection rate", ok, detail)


def test_criterion_6_study_reproduction(capsys, study500):
    report, elapsed = study500
    problems = []
    for kind in (NB1, NB2, RANDOM):
        summary = report.design_summary[(kind, "win_prop")]
        if abs(summary.q500 - 0.6) > 0.034:
            problems.append(f"{kind.value} median {summary.q500:.4f}")
        if abs(summary.q975 - 0.733) > 0.034:
            problems.append(f"{kind.value} q975 {summary.q975:.4f}")
    low = {kind: report.design_summary[(kind, "win_prop")].q025 for kind in (NB1, NB2, RANDOM)}
    if not low[NB1] >= low[NB2] >= low[RANDOM]:
        problems.append(f"q025 order nb1={low[NB1]:.4f} nb2={low[NB2]:.4f} random={low[RANDOM]:.4f}")
    if abs(low[RANDOM] - 0.433) > 0.067:
        problems.append(f"random q025 {low[RANDOM]:.4f}")
    for first in (NB1, NB2):
        diff = report.difference_summary[(first, RANDOM, "win_prop")]
        if not 0.005 <= diff.mean <= 0.045:
            problems.append(f"{first.value}-random mean {diff.mean:.4f}")
        if not diff.ci_low > 0.0:
            problems.append(f"{first.value}-random CI [{diff.ci_low:.4f}, {diff.ci_high:.4f}]")
    if elapsed >= 1800.0:
        problems.append(f"{elapsed:.0f}s over budget")
    gaps = ", ".join(
        f"{first.value}-random={report.difference_summary[(first, RANDOM, 'win_prop')].mean:+.4f}"
        for first in (NB1, NB2)
    )
    detail = f"500 iterations in {elapsed:.0f}s (limit 1800s), win gaps {gaps}"
    if problems:
        detail += "; " + "; ".join(problems)
    emit(capsys, "criterion 6 study reproduction", not problems, detail)


def test_criterion_7_secondary_metric_directions(capsys, study500):
    report, _ = study500
    problems = []
    se_diff = report.difference_summary[(NB1, RANDOM, "mean_se")]
    if not (se_diff.mean < 0.0 and se_diff.ci_high < 0.0):
        problems.append(f"mean_se [{se_diff.ci_low:.4f}, {se_diff.ci_high:.4f}]")
    for metric in ("median_rank_dev", "mean_score_dev"):
        diff = report.difference_summary[(NB1, RANDOM, metric)]
        if not diff.mean < 0.0:
            problems.append(f"{metric} mean {diff.mean:+.4f}")
    for metric in ("win_prop", "median_rank_dev", "mean_score_dev", "mean_se"):
        diff = report.difference_summary[(NB1, NB2, metric)]
        if not diff.ci_low <= 0.0 <= diff.ci_high:
            problems.append(f"nb1-nb2 {metric} excludes 0")
    detail = (
        f"nb1-random mean_se={se_diff.mean:+.4f} "
        f"CI [{se_diff.ci_low:.4f}, {se_diff.ci_high:.4f}]"
    )
    if problems:
        detail += "; " + "; ".join(problems)
    emit(capsys, "criterion 7 secondary metric directions", not problems, detail)


def test_criterion_8_appendix_preset_schema(capsys, tmp_path):
    schemas = {}
    for preset in ("paper", "appendix555"):
        metrics = tmp_path / f"{preset}.metrics.csv"
        summary = tmp_path / f"{preset}.summary.csv"
        for argv in (
            ["simulate", "--preset", preset, "--iterations", "40", "--seed", "0",
             "--out", str(metrics)],
            ["report", str(metrics), "--out", str(summary)],
        ):
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 0, f"{argv} -> {code}: {captured.err}"
        with open(summary, newline="") as handle:
            rows = list(csv.reader(handle))
        schemas[preset] = (rows[0], [tuple(row[:3]) for row in rows[1:]])
    ok = schemas["paper"] == schemas["appendix555"]
    rows = len(schemas["appendix555"][1])
    detail = f"both presets emit {rows} summary rows with identical section/name/metric layout"
    if not ok:
        detail = "schema mismatch between presets"
    emit(capsys, "criterion 8 appendix preset schema", ok, detail)
