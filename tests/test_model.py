"""Model fits checked against dense textbook solutions built from scratch."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from nbibd import (
    DesignConfig,
    DisconnectedDesign,
    FileFormatError,
    FitResult,
    ScoreTable,
    SingularFit,
    fit_fixed,
    fit_random,
    generate,
    rank_posters,
    read_scores,
    reml_criterion,
    write_fit,
    write_fit_summary,
    write_scores,
)
from nbibd.design import Block, Design
from nbibd.model import _JudgeSpectrum


def sample_table(seed, t=18, k=4, b=12, kind="nb1", sd_judge=6.0):
    rng = np.random.default_rng(seed)
    design, _ = generate(DesignConfig(t=t, k=k, b=b, seed=seed), kind)
    matrix = (
        75.0
        + rng.normal(0.0, 7.0, (t, 1))
        + rng.normal(0.0, sd_judge, (1, b))
        + rng.normal(0.0, 5.0, (t, b))
    )
    return design, ScoreTable.from_design_matrix(design, matrix)


def dense_fixed_oracle(table):
    """Least squares on the full overparameterized dummy expansion.

    The minimum-norm solution makes every estimable function unique, so
    poster marginal means and their variances can be read off with
    contrast vectors and a pseudoinverse instead of any coding trick.
    """
    n = table.n
    x0 = np.zeros((n, 1 + table.t + table.b))
    rows = np.arange(n)
    x0[:, 0] = 1.0
    x0[rows, 1 + table.posters] = 1.0
    x0[rows, 1 + table.t + table.judges] = 1.0
    beta, _, rank, _ = np.linalg.lstsq(x0, table.scores, rcond=None)
    residuals = table.scores - x0 @ beta
    dof = n - int(rank)
    sigma2 = float(residuals @ residuals) / dof
    pinv = np.linalg.pinv(x0.T @ x0)
    judges_present = np.unique(table.judges)
    pmm = np.full(table.t, np.nan)
    se = np.full(table.t, np.nan)
    for poster in np.unique(table.posters):
        contrast = np.zeros(1 + table.t + table.b)
        contrast[0] = 1.0
        contrast[1 + poster] = 1.0
        contrast[1 + table.t + judges_present] = 1.0 / judges_present.size
        pmm[poster] = float(contrast @ beta)
        se[poster] = math.sqrt(sigma2 * float(contrast @ pinv @ contrast))
    return pmm, se, sigma2, dof


def dense_reml_neg2(table, theta):
    """Restricted -2 log likelihood evaluated with explicit n-by-n matrices."""
    n = table.n
    x = np.zeros((n, 0))
    reviewed = np.unique(table.posters)
    x = np.zeros((n, reviewed.size))
    x[np.arange(n), np.searchsorted(reviewed, table.posters)] = 1.0
    z = np.zeros((n, table.b))
    z[np.arange(n), table.judges] = 1.0
    h = np.eye(n) + theta * (z @ z.T)
    h_inv = np.linalg.inv(h)
    information = x.T @ h_inv @ x
    beta = np.linalg.solve(information, x.T @ h_inv @ table.scores)
    residuals = table.scores - x @ beta
    dof = n - reviewed.size
    sigma2 = float(residuals @ h_inv @ residuals) / dof
    _, logdet_h = np.linalg.slogdet(h)
    _, logdet_i = np.linalg.slogdet(information)
    return dof * (math.log(2.0 * math.pi) + 1.0) + dof * math.log(sigma2) + logdet_h + logdet_i


def dense_gls(table, theta):
    n = table.n
    reviewed = np.unique(table.posters)
    x = np.zeros((n, reviewed.size))
    x[np.arange(n), np.searchsorted(reviewed, table.posters)] = 1.0
    z = np.zeros((n, table.b))
    z[np.arange(n), table.judges] = 1.0
    h_inv = np.linalg.inv(np.eye(n) + theta * (z @ z.T))
    information = x.T @ h_inv @ x
    beta = np.linalg.solve(information, x.T @ h_inv @ table.scores)
    dof = n - reviewed.size
    residuals = table.scores - x @ beta
    sigma2 = float(residuals @ h_inv @ residuals) / dof
    se = np.sqrt(sigma2 * np.diag(np.linalg.inv(information)))
    return reviewed, beta, se


def two_clique_case(seed=3):
    config = DesignConfig(t=6, k=3, b=4, seed=0)
    blocks = [
        Block(0, (0, 1, 2), False),
        Block(1, (3, 4, 5), False),
        Block(2, (0, 1, 2), False),
        Block(3, (3, 4, 5), False),
    ]
    design = Design.from_blocks(config, blocks)
    rng = np.random.default_rng(seed)
    matrix = (
        70.0
        + rng.normal(0.0, 7.0, (6, 1))
        + rng.normal(0.0, 5.0, (1, 4))
        + rng.normal(0.0, 3.0, (6, 4))
    )
    return design, ScoreTable.from_design_matrix(design, matrix)


def dropped_cells_table(seed, drop=0.15):
    """Remove a share of the cells, every review of poster 0 and all of judge 1.

    Judges then score different numbers of posters, poster 0 is left
    unreviewed and judge 1 scores nothing.
    """
    design, table = sample_table(seed, t=18, k=6, b=15, kind="nb2")
    rng = np.random.default_rng(seed + 100)
    keep = (rng.random(table.n) >= drop) & (table.posters != 0) & (table.judges != 1)
    return design, ScoreTable(table.judges[keep], table.posters[keep], table.scores[keep], t=table.t, b=table.b)


def test_fixed_fit_matches_dense_least_squares():
    cases = [sample_table(seed) for seed in range(6)] + [dropped_cells_table(seed) for seed in range(6)]
    for design, table in cases:
        fit = fit_fixed(design, table)
        pmm, se, sigma2, dof = dense_fixed_oracle(table)
        assert np.array_equal(np.isnan(fit.pmm), np.isnan(pmm))
        assert np.nanmax(np.abs(fit.pmm - pmm)) < 1e-8
        assert np.nanmax(np.abs(fit.se - se)) < 1e-8
        assert fit.var_error == pytest.approx(sigma2, abs=1e-8)
        assert dof == table.n - (np.unique(table.posters).size + np.unique(table.judges).size - 1)
        assert fit.model_kind == "fixed"
        assert math.isnan(fit.var_judge)
        assert fit.converged
    for design, table in cases[6:]:
        assert np.unique(np.bincount(table.judges)).size > 1
        assert math.isnan(fit_fixed(design, table).pmm[0])


def test_fixed_residuals_are_orthogonal_to_both_factors():
    for design, table in (sample_table(21), dropped_cells_table(21)):
        fit = fit_fixed(design, table)
        scale = max(1.0, float(np.abs(table.scores).max()))
        adjusted = table.scores - fit.pmm[table.posters]
        _, judge_col, sizes = np.unique(table.judges, return_inverse=True, return_counts=True)
        judge_effects = np.bincount(judge_col, weights=adjusted) / sizes
        residuals = (adjusted - judge_effects[judge_col]) / scale
        for poster in np.unique(table.posters):
            assert abs(residuals[table.posters == poster].sum()) < 1e-8
        assert abs(judge_effects.sum()) / scale < 1e-8


def test_complete_block_estimates_are_raw_poster_means():
    t, b = 5, 4
    config = DesignConfig(t=t, k=t, b=b, seed=9)
    blocks = [Block(j, tuple(range(t)), False) for j in range(b)]
    design = Design.from_blocks(config, blocks)
    rng = np.random.default_rng(9)
    matrix = 60.0 + rng.normal(0.0, 8.0, (t, b))
    table = ScoreTable.from_design_matrix(design, matrix)
    means = matrix.mean(axis=1)
    for fit in (fit_fixed(design, table), fit_random(design, table)):
        assert np.max(np.abs(fit.pmm - means)) < 1e-8
        assert fit.grand_mean == pytest.approx(float(means.mean()), abs=1e-8)
    # every canonical efficiency factor of a complete-block design is 1
    assert fit_fixed(design, table).condition_number == pytest.approx(1.0, abs=1e-12)


def test_disconnected_design_fails_fixed_but_not_random():
    design, table = two_clique_case()
    with pytest.raises(DisconnectedDesign):
        fit_fixed(design, table)
    fit = fit_random(design, table)
    assert fit.converged
    assert np.isfinite(fit.pmm).all()
    # the shared judge variance shrinks every estimate toward data the
    # component actually produced, so no pmm can escape its component's
    # observed score range
    for component in ((0, 1, 2), (3, 4, 5)):
        observed = np.concatenate([table.scores[table.posters == p] for p in component])
        for poster in component:
            assert observed.min() - 1e-9 <= fit.pmm[poster] <= observed.max() + 1e-9


def test_disconnection_is_reported_before_missing_degrees_of_freedom():
    # two judges, two posters each, fully scored: no residual degrees of
    # freedom either, but the disconnection is the reason given
    config = DesignConfig(t=4, k=2, b=2, seed=0)
    design = Design.from_blocks(config, [Block(0, (0, 1), False), Block(1, (2, 3), False)])
    table = ScoreTable.from_design_matrix(design, np.arange(8.0).reshape(4, 2))
    with pytest.raises(DisconnectedDesign):
        fit_fixed(design, table)


def test_profiled_criterion_matches_dense_matrix_evaluation():
    design, table = sample_table(5)
    for theta in (0.0, 0.1, 0.7, 3.0, 20.0):
        dense = -0.5 * dense_reml_neg2(table, theta)
        assert reml_criterion(table, theta) == pytest.approx(dense, abs=1e-9)
    # theta = inf is the fixed fit's limit, not a variance ratio, and NaN
    # is no ratio at all: both are refused like a negative one
    for theta in (-0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="theta must be finite and >= 0"):
            reml_criterion(table, theta)


def test_estimated_ratio_beats_a_fine_grid():
    design, table = sample_table(7)
    fit = fit_random(design, table)
    theta_hat = fit.var_judge / fit.var_error
    best = max(reml_criterion(table, step * 0.01) for step in range(5001))
    assert reml_criterion(table, theta_hat) >= best - 1e-9


def test_random_estimates_match_dense_gls_at_the_estimated_ratio():
    design, table = sample_table(13)
    fit = fit_random(design, table)
    theta_hat = fit.var_judge / fit.var_error
    reviewed, beta, se = dense_gls(table, theta_hat)
    assert np.max(np.abs(fit.pmm[reviewed] - beta)) < 1e-8
    assert np.max(np.abs(fit.se[reviewed] - se)) < 1e-8
    assert fit.grand_mean == pytest.approx(float(beta.mean()), abs=1e-8)


def zero_boundary_case():
    """Judge effects absent from the truth: REML pins the ratio at zero."""
    rng = np.random.default_rng(1)
    design, _ = generate(DesignConfig(t=15, k=3, b=12, seed=1), "nb2")
    matrix = 60.0 + rng.normal(0.0, 6.0, (15, 1)) + rng.normal(0.0, 4.0, (15, 12))
    return design, ScoreTable.from_design_matrix(design, matrix)


def test_ratio_estimate_can_sit_on_the_zero_boundary():
    design, table = zero_boundary_case()
    fit = fit_random(design, table)
    assert fit.var_judge == 0.0
    assert fit.var_error > 0.0
    assert fit.converged


@pytest.mark.parametrize("case", ["nb1", "nb2", "random", "dropped cells", "zero boundary"])
def test_estimated_ratio_is_the_bounded_search_point_or_zero(case):
    # the search contract apart from the digests: bounded Brent on the
    # public criterion in u = log1p(theta) over [0, log1p(1e6)], and the
    # boundary theta = 0 wherever it ties or beats the point Brent reports
    from scipy.optimize import minimize_scalar

    if case == "dropped cells":
        design, table = dropped_cells_table(8)
    elif case == "zero boundary":
        design, table = zero_boundary_case()
    else:
        design, table = sample_table(8, t=200, k=5, b=100, kind=case, sd_judge=3.0)
    result = minimize_scalar(
        lambda u: -2.0 * reml_criterion(table, float(np.expm1(u))),
        bounds=(0.0, math.log1p(1e6)),
        method="bounded",
        options={"xatol": 1e-12},
    )
    interior = float(np.expm1(result.x))
    fit = fit_random(design, table)
    ratio = fit.var_judge / fit.var_error
    if reml_criterion(table, 0.0) >= reml_criterion(table, interior):
        assert ratio == 0.0
    else:
        assert ratio == pytest.approx(interior, rel=1e-9)
    assert (ratio == 0.0) == (case == "zero boundary")


def test_interpolating_scores_zero_both_variance_components():
    design, _ = sample_table(2)
    matrix = np.full((design.t, design.b), 42.5)
    table = ScoreTable.from_design_matrix(design, matrix)
    fit = fit_random(design, table)
    assert fit.var_judge == 0.0
    assert fit.var_error == 0.0
    assert np.all(fit.se[np.isfinite(fit.se)] == 0.0)
    assert np.allclose(fit.pmm, 42.5)
    assert fit.converged


def judge_absent_table(seed):
    """Every cell of judge 1 removed: the other judges keep size k, so b_r < b."""
    _, table = sample_table(seed, kind="nb2")
    keep = table.judges != 1
    return ScoreTable(table.judges[keep], table.posters[keep], table.scores[keep], t=table.t, b=table.b)


def cholesky_oracle(table, theta):
    """The REML pieces at one ratio from a Cholesky factorization of C(theta).

    Built from the table alone.  On scores centered at their mean, the
    poster information matrix is C = D - N S N' with right-hand side
    v - N S T: D the replication, N the poster-by-judge incidence, v and
    T the poster and judge score sums, and S = theta/(1 + theta k) for a
    judge of size k.  Returns the restricted -2 log likelihood, the
    estimates, diag(C^-1), the weighted rss, y'y and the condition
    number of C.
    """
    reviewed, poster_col = np.unique(table.posters, return_inverse=True)
    present, judge_col = np.unique(table.judges, return_inverse=True)
    y = table.scores - table.scores.mean()
    incidence = np.zeros((reviewed.size, present.size))
    incidence[poster_col, judge_col] = 1.0
    sizes = incidence.sum(axis=0)
    totals = np.bincount(judge_col, weights=y)
    shrink = theta / (1.0 + theta * sizes)
    system = np.diag(incidence.sum(axis=1)) - (incidence * shrink) @ incidence.T
    rhs = np.bincount(poster_col, weights=y) - incidence @ (shrink * totals)
    factor = cho_factor(system, lower=True)
    beta = cho_solve(factor, rhs)
    rss = float(y @ y) - float(shrink @ (totals * totals)) - float(rhs @ beta)
    dof = table.n - reviewed.size
    logdet = float(np.log1p(theta * sizes).sum()) + 2.0 * float(np.log(np.diag(factor[0])).sum())
    criterion = dof * (math.log(2.0 * math.pi) + 1.0) + dof * math.log(rss / dof) + logdet
    inverse_diagonal = np.diag(cho_solve(factor, np.eye(reviewed.size)))
    return criterion, beta, inverse_diagonal, rss, float(y @ y), float(np.linalg.cond(system))


def spectral_vs_cholesky(table, theta):
    """Relative gaps in criterion, estimates and diag(C^-1), and the gaps allowed.

    Each gap is taken relative to the larger of 1 and the Cholesky
    value's magnitude: estimates on centered data can be rounding noise
    around zero, as when a single poster is reviewed.  Each is allowed
    1e-10, or the rounding of the Cholesky reference where that is
    larger.  A solve with the p-by-p C(theta) loses up to p * eps times
    its condition number, the textbook bound for a Cholesky solve, which
    passes 1e-10 only as theta nears 1e6.  Both sides form the rss as a
    difference of sums of n terms the size of y'y, so the criterion's
    dof * log(rss) also loses up to dof * n * eps * y'y / rss, which is
    large only when the scores nearly interpolate.
    """
    spectrum = _JudgeSpectrum(table)
    criterion, beta, inverse_diagonal, rss, yy, condition = cholesky_oracle(table, theta)
    pairs = [(spectrum.profile(theta)[0], criterion)]
    pairs += list(zip(spectrum.solution(theta)[:2], (beta, inverse_diagonal)))
    gaps = [float(np.max(np.abs(ours - theirs)) / max(1.0, np.max(np.abs(theirs)))) for ours, theirs in pairs]
    eps = np.finfo(float).eps
    solve = max(1e-10, spectrum.p * eps * condition)
    rss_rounding = (spectrum.n - spectrum.p) * spectrum.n * eps * yy / rss / max(1.0, abs(criterion))
    return gaps, [max(solve, rss_rounding), solve, solve]


@pytest.mark.parametrize("case", ["nb1", "nb2", "random", "judge absent", "dropped cells"])
def test_spectral_and_cholesky_solves_agree_at_a_fixed_ratio(case):
    if case == "judge absent":
        table = judge_absent_table(4)
    elif case == "dropped cells":
        table = dropped_cells_table(4)[1]
        assert np.unique(np.unique(table.judges, return_counts=True)[1]).size > 1
    else:
        table = sample_table(4, kind=case)[1]
    assert np.unique(table.judges).size == (table.b if case in ("nb1", "nb2", "random") else table.b - 1)
    for theta in (0.0, 0.1, 1.0, 1e6):
        gaps, allowed = spectral_vs_cholesky(table, theta)
        assert allowed == [1e-10] * 3 or theta == 1e6
        assert all(gap <= limit for gap, limit in zip(gaps, allowed)), (theta, gaps, allowed)


def shapes(k_min):
    """(t, k, b) with t in 3-12, k in k_min-min(t, 5) and b in 1-12."""
    return st.integers(3, 12).flatmap(
        lambda t: st.tuples(st.just(t), st.integers(k_min, min(t, 5)), st.integers(1, 12))
    )


def random_table(shape, seed, drop):
    """b judges each scoring k random posters of t, with 15 % of cells dropped if drop.

    Returns the table and the design of the undropped assignment.
    """
    t, k, b = shape
    rng = np.random.default_rng(seed)
    assigned = [np.sort(rng.choice(t, k, replace=False)) for _ in range(b)]
    posters = np.concatenate(assigned)
    judges = np.repeat(np.arange(b), k)
    scores = rng.normal(70.0, 8.0, b * k)
    keep = rng.random(b * k) >= (0.15 if drop else 0.0)
    assume(keep.any())
    table = ScoreTable(judges[keep], posters[keep], scores[keep], t=t, b=b)
    if k < 2:
        return table, None
    blocks = [Block(judge, tuple(int(poster) for poster in ids), False) for judge, ids in enumerate(assigned)]
    return table, Design.from_blocks(DesignConfig(t=t, k=k, b=b), blocks)


@settings(max_examples=60, deadline=None)
@example(shape=(3, 1, 3), seed=4, theta=1.0, drop=False)
@given(shape=shapes(1), seed=st.integers(0, 2**32 - 1), theta=st.floats(0.0, 100.0), drop=st.booleans())
def test_spectral_and_cholesky_solves_agree_on_random_shapes(shape, seed, theta, drop):
    table, _ = random_table(shape, seed, drop)
    assume(table.n > np.unique(table.posters).size)
    gaps, allowed = spectral_vs_cholesky(table, theta)
    assert all(gap <= limit for gap, limit in zip(gaps, allowed)), (gaps, allowed)


def observed_components(table):
    """Connected components of the bipartite graph of reviewed posters and present judges."""
    reviewed, poster_col = np.unique(table.posters, return_inverse=True)
    present, judge_col = np.unique(table.judges, return_inverse=True)
    size = reviewed.size + present.size
    edges = coo_matrix((np.ones(table.n), (poster_col, reviewed.size + judge_col)), shape=(size, size))
    return connected_components(edges, directed=False)[0]


@settings(max_examples=60, deadline=None)
@given(shape=shapes(2), seed=st.integers(0, 2**32 - 1))
def test_fixed_fit_matches_dense_least_squares_on_random_shapes(shape, seed):
    table, design = random_table(shape, seed, drop=True)
    p, b_r = np.unique(table.posters).size, np.unique(table.judges).size
    assume(table.n - p - b_r + 1 >= 1)
    if observed_components(table) > 1:
        with pytest.raises(DisconnectedDesign):
            fit_fixed(design, table)
        return
    fit = fit_fixed(design, table)
    pmm, se, sigma2, _ = dense_fixed_oracle(table)
    assert np.array_equal(np.isnan(fit.pmm), np.isnan(pmm))
    assert np.nanmax(np.abs(fit.pmm - pmm)) < 1e-8
    assert np.nanmax(np.abs(fit.se - se)) < 1e-8
    assert fit.var_error == pytest.approx(sigma2, abs=1e-8)


def exact_solve(matrix, columns):
    """matrix^-1 @ columns by Gauss-Jordan elimination in rational arithmetic.

    matrix is positive definite, so every pivot is positive in order.
    """
    n = len(matrix)
    rows = [list(matrix[i]) + list(columns[i]) for i in range(n)]
    for col in range(n):
        rows[col] = [value / rows[col][col] for value in rows[col]]
        for other in range(n):
            factor = rows[other][col]
            if other != col and factor:
                rows[other] = [x - factor * y for x, y in zip(rows[other], rows[col])]
    return [row[n:] for row in rows]


@pytest.mark.parametrize("case", ["equal sizes", "dropped cells"])
def test_spectral_solve_is_exact_at_the_upper_ratio_bound(case):
    # at theta = 1e6, C is within 1/(1 + k theta) of singular, which costs
    # a Cholesky solve about six digits; the spectral solve keeps them
    table = sample_table(4)[1] if case == "equal sizes" else dropped_cells_table(4)[1]
    spectrum = _JudgeSpectrum(table)
    assert (np.unique(spectrum.sizes).size > 1) == (case == "dropped cells")
    theta = 10**6
    shrink = [Fraction(theta, 1 + int(size) * theta) for size in spectrum.sizes]
    present = np.unique(table.judges)
    judges_of = [
        np.sort(np.searchsorted(present, table.judges[table.posters == poster])) for poster in spectrum.reviewed
    ]
    # the sparse incidence lists the same judges, row by row in ascending order
    rows = np.split(spectrum.incidence.indices, spectrum.incidence.indptr[1:-1])
    assert len(rows) == len(judges_of) and all(np.array_equal(*pair) for pair in zip(rows, judges_of))
    matrix = [
        [
            int(i == j) * Fraction(spectrum.counts[i])
            - sum(shrink[g] for g in np.intersect1d(judges_of[i], judges_of[j]))
            for j in range(spectrum.p)
        ]
        for i in range(spectrum.p)
    ]
    columns = [
        [Fraction(spectrum.v0[i]) - sum(shrink[g] * Fraction(spectrum.totals[g]) for g in judges_of[i])]
        + [Fraction(int(i == j)) for j in range(spectrum.p)]
        for i in range(spectrum.p)
    ]
    solved = exact_solve(matrix, columns)
    beta = np.array([float(row[0]) for row in solved])
    diagonal = np.array([float(solved[i][1 + i]) for i in range(spectrum.p)])
    estimates, inverse_diagonal = spectrum.solution(float(theta))[:2]
    assert np.max(np.abs(estimates - beta)) <= 1e-10 * np.max(np.abs(beta))
    assert np.max(np.abs(inverse_diagonal - diagonal)) <= 1e-10 * np.max(diagonal)


def test_every_table_and_both_fits_share_one_judge_spectrum(monkeypatch):
    # equal and unequal judge sizes, both models and the public criterion
    # all build the spectrum once per call; there is no second path
    calls = []

    class Counted(_JudgeSpectrum):
        def __init__(self, scores):
            super().__init__(scores)
            calls.append(self)

    monkeypatch.setattr("nbibd.model._JudgeSpectrum", Counted)
    for design, table in (sample_table(6), dropped_cells_table(6)):
        for fitter in (fit_fixed, fit_random):
            assert np.isfinite(fitter(design, table).pmm[np.unique(table.posters)]).all()
        reml_criterion(table, 0.5)
    assert len(calls) == 6
    assert np.unique(calls[-1].sizes).size > 1


@pytest.mark.parametrize("fitter,tol", [(fit_fixed, 1e-9), (fit_random, 1e-6)])
def test_affine_score_changes_move_estimates_predictably(fitter, tol):
    design, table = sample_table(17)
    base = fitter(design, table)
    moved = fitter(design, ScoreTable(table.judges, table.posters, 3.0 * table.scores + 10.0, t=table.t, b=table.b))
    assert np.nanmax(np.abs(moved.pmm - (3.0 * base.pmm + 10.0))) < tol * 100
    assert np.nanmax(np.abs(moved.se - 3.0 * base.se)) < tol * 10
    assert moved.var_error == pytest.approx(9.0 * base.var_error, rel=1e-6)
    if not math.isnan(base.var_judge):
        assert moved.var_judge == pytest.approx(9.0 * base.var_judge, rel=1e-5, abs=1e-8)
    assert np.array_equal(moved.rank, base.rank)


@pytest.mark.parametrize("fitter,tol", [(fit_fixed, 1e-9), (fit_random, 1e-6)])
def test_relabeling_posters_relabels_estimates(fitter, tol):
    design, table = sample_table(11)
    rng = np.random.default_rng(99)
    perm = rng.permutation(design.t)
    blocks = [
        Block(blk.judge_index, tuple(sorted(int(perm[p]) for p in blk.poster_ids)), blk.faculty)
        for blk in design.blocks
    ]
    permuted_design = Design.from_blocks(design.config, blocks)
    permuted_table = ScoreTable(table.judges, perm[table.posters], table.scores, t=table.t, b=table.b)
    base = fitter(design, table)
    moved = fitter(permuted_design, permuted_table)
    assert np.nanmax(np.abs(moved.pmm[perm] - base.pmm)) < tol
    assert np.nanmax(np.abs(moved.se[perm] - base.se)) < tol
    assert np.array_equal(moved.rank[perm], base.rank)


def test_rank_posters_returns_best_first():
    fit = FitResult(
        model_kind="fixed",
        grand_mean=2.0,
        pmm=np.array([1.0, 3.0, 2.0]),
        se=np.zeros(3),
        rank=np.array([3, 1, 2]),
        var_judge=float("nan"),
        var_error=1.0,
        converged=True,
        condition_number=1.0,
    )
    assert rank_posters(fit, 2) == [1, 2]
    assert rank_posters(fit, 0) == []
    assert rank_posters(fit, 3) == [1, 2, 0]
    with pytest.raises(ValueError):
        rank_posters(fit, 4)
    with pytest.raises(ValueError):
        rank_posters(fit, -1)


def test_tied_estimates_rank_by_poster_id():
    t, b = 4, 3
    config = DesignConfig(t=t, k=t, b=b, seed=0)
    design = Design.from_blocks(config, [Block(j, tuple(range(t)), False) for j in range(b)])
    table = ScoreTable.from_design_matrix(design, np.full((t, b), 7.0))
    fit = fit_fixed(design, table)
    assert list(fit.rank) == [1, 2, 3, 4]
    assert rank_posters(fit, 2) == [0, 1]


def test_unreviewed_posters_get_nan_and_rank_zero():
    config = DesignConfig(t=5, k=3, b=3, seed=0)
    blocks = [Block(0, (0, 1, 2), False), Block(1, (1, 2, 3), False), Block(2, (0, 2, 3), False)]
    design = Design.from_blocks(config, blocks)
    rng = np.random.default_rng(6)
    table = ScoreTable.from_design_matrix(design, rng.normal(50.0, 5.0, (5, 3)))
    fit = fit_fixed(design, table)
    assert math.isnan(fit.pmm[4]) and math.isnan(fit.se[4])
    assert fit.rank[4] == 0
    assert sorted(fit.rank[:4]) == [1, 2, 3, 4]
    assert 4 not in rank_posters(fit, 4)


def test_no_residual_degrees_of_freedom_is_singular():
    config = DesignConfig(t=2, k=2, b=1, seed=0)
    design = Design.from_blocks(config, [Block(0, (0, 1), False)])
    table = ScoreTable.from_design_matrix(design, np.array([[5.0], [7.0]]))
    with pytest.raises(SingularFit):
        fit_fixed(design, table)
    with pytest.raises(SingularFit):
        fit_random(design, table)


def dense_scaled_condition(table, theta):
    """1/lambda_min of D^-1/2 C D^-1/2 over the reviewed posters, from the table alone.

    C = D - N S N' with S = theta/(1 + theta k) for a judge of size k,
    or 1/k at theta = inf, where the smallest eigenvalue, C's null
    direction, is skipped.
    """
    reviewed, poster_col = np.unique(table.posters, return_inverse=True)
    present, judge_col = np.unique(table.judges, return_inverse=True)
    incidence = np.zeros((reviewed.size, present.size))
    incidence[poster_col, judge_col] = 1.0
    sizes = incidence.sum(axis=0)
    shrink = 1.0 / sizes if math.isinf(theta) else theta / (1.0 + theta * sizes)
    root = 1.0 / np.sqrt(incidence.sum(axis=1))
    system = np.eye(reviewed.size) - root[:, None] * ((incidence * shrink) @ incidence.T) * root
    eigenvalues = np.linalg.eigvalsh(system)
    return 1.0 / eigenvalues[1 if math.isinf(theta) else 0]


@pytest.mark.parametrize("case", ["equal sizes", "dropped cells", "more judges than posters"])
@pytest.mark.parametrize("seed", [0, 2])
def test_condition_number_is_that_of_the_dense_poster_matrix(case, seed):
    if case == "equal sizes":
        design, table = sample_table(seed)
    elif case == "dropped cells":
        design, table = dropped_cells_table(seed)
    else:
        design, table = sample_table(seed, t=8, k=4, b=12, kind="nb2")
        assert design.t <= design.b
    fixed = fit_fixed(design, table)
    assert fixed.condition_number == pytest.approx(dense_scaled_condition(table, math.inf), rel=1e-8)
    random_fit = fit_random(design, table)
    theta = random_fit.var_judge / random_fit.var_error
    assert random_fit.condition_number == pytest.approx(dense_scaled_condition(table, theta), rel=1e-8)
    # the scaled system's diagonal part is at least 1/(1 + theta max(k)),
    # a bound equal judge sizes attain along the grand-mean direction
    assert random_fit.condition_number <= (1.0 + theta * np.bincount(table.judges).max()) * (1.0 + 1e-12)


def test_every_eigendecomposition_is_judge_sized(monkeypatch):
    # no poster-by-poster matrix reaches eigh or eigvalsh in either fit,
    # including a table with more judges than reviewed posters; a fit on
    # equal judge sizes, fixed or random, takes its condition in closed
    # form from the one eigh of the judge matrix, and a fit on unequal
    # sizes takes it from one more b_r x b_r eigvalsh
    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def spy(matrix, *args, name=name, original=original, **kwargs):
            calls.append((name, np.shape(matrix)))
            return original(matrix, *args, **kwargs)

        monkeypatch.setattr(f"nbibd.model.np.linalg.{name}", spy)
    cases = (sample_table(6), dropped_cells_table(6), sample_table(6, t=8, k=4, b=12, kind="nb2"))
    for design, table in cases:
        sizes = np.unique(table.judges, return_counts=True)[1]
        equal_sizes = sizes.min() == sizes.max()
        square = (sizes.size, sizes.size)
        for fitter in (fit_fixed, fit_random):
            calls.clear()
            fit = fitter(design, table)
            theta = math.inf if fitter is fit_fixed else fit.var_judge / fit.var_error
            if equal_sizes:
                assert calls == [("eigh", square)]
                assert fit.condition_number == pytest.approx(dense_scaled_condition(table, theta), rel=1e-12)
                if fitter is fit_random:
                    assert fit.condition_number == pytest.approx(1.0 + theta * sizes[0], rel=1e-12)
            else:
                assert calls == [("eigh", square), ("eigvalsh", square)]


def test_ill_conditioned_poster_matrix_is_singular(monkeypatch):
    design, table = sample_table(2)
    assert min(fit_fixed(design, table).condition_number, fit_random(design, table).condition_number) > 1.0
    monkeypatch.setattr("nbibd.model._COND_LIMIT", 1.0)
    for fitter in (fit_fixed, fit_random):
        with pytest.raises(SingularFit, match="ill-conditioned"):
            fitter(design, table)


def test_dimension_mismatch_is_rejected():
    design, _ = sample_table(0)
    other = ScoreTable(np.array([0]), np.array([0]), np.array([1.0]), t=3, b=2)
    with pytest.raises(ValueError):
        fit_fixed(design, other)
    with pytest.raises(ValueError):
        fit_random(design, other)


def check_rejects(kwargs, message):
    with pytest.raises(ValueError) as excinfo:
        ScoreTable(**kwargs)
    assert message in str(excinfo.value)


def test_score_table_validation():
    good = dict(
        judges=np.array([0, 0, 1]),
        posters=np.array([0, 1, 1]),
        scores=np.array([1.0, 2.0, 3.0]),
        t=2,
        b=2,
    )
    assert ScoreTable(**good).n == 3
    check_rejects({**good, "judges": np.array([0, 0])}, "equal-length")
    check_rejects({**good, "judges": np.array([[0], [0], [1]])}, "equal-length")
    check_rejects(
        dict(judges=np.array([], dtype=int), posters=np.array([], dtype=int), scores=np.array([]), t=2, b=2),
        "at least one observation",
    )
    check_rejects({**good, "t": 0}, "must be positive")
    check_rejects({**good, "judges": np.array([0, 0, 2])}, "judge index outside")
    check_rejects({**good, "judges": np.array([0, 0, -1])}, "judge index outside")
    check_rejects({**good, "posters": np.array([0, 1, 2])}, "poster id outside")
    check_rejects({**good, "scores": np.array([1.0, np.nan, 3.0])}, "finite")
    check_rejects({**good, "judges": np.array([0, 0, 0])}, "duplicate")
    # ids are never truncated: a non-integral or NaN id is refused, an
    # integer-valued float is the id it names
    truncated = dict(judges=[0.7, 1.2], posters=[0, 1.9], scores=[1.0, 2.0], t=3, b=2)
    check_rejects(truncated, "judge indices must be integers")
    check_rejects({**truncated, "judges": [0.0, 1.0]}, "poster ids must be integers")
    check_rejects({**good, "posters": np.array([0.0, np.nan, 1.0])}, "poster ids must be integers")
    table = ScoreTable(**{**good, "judges": np.array([0.0, 0.0, 1.0]), "posters": [0.0, 1.0, 1.0]})
    assert table.judges.dtype == table.posters.dtype == np.int64
    assert table.judges.tolist() == [0, 0, 1] and table.posters.tolist() == [0, 1, 1]


def test_from_observations_checks_design_incidence():
    config = DesignConfig(t=4, k=2, b=2, seed=0)
    design = Design.from_blocks(config, [Block(0, (0, 1), False), Block(1, (2, 3), False)])
    rows = [(0, 0, 5.0), (0, 1, 6.0), (1, 2, 7.0), (1, 3, 8.0)]
    table = ScoreTable.from_observations(rows, t=4, b=2, design=design)
    assert table.n == 4
    with pytest.raises(ValueError) as excinfo:
        ScoreTable.from_observations([(0, 0, 5.0), (0, 2, 5.0), (1, 0, 5.0)], t=4, b=2, design=design)
    assert str(excinfo.value) == "observation (judge 0, poster 2) is not in the design"


def test_from_design_matrix_rejects_wrong_shape():
    design, _ = sample_table(0, t=10, k=3, b=6)
    with pytest.raises(ValueError):
        ScoreTable.from_design_matrix(design, np.zeros((6, 10)))


def test_scores_csv_round_trip(tmp_path):
    design, table = sample_table(4)
    path = tmp_path / "scores.csv"
    write_scores(str(path), table)
    again = read_scores(str(path), t=table.t, b=table.b, design=design)
    assert np.array_equal(again.judges, table.judges)
    assert np.array_equal(again.posters, table.posters)
    assert np.array_equal(again.scores, table.scores)
    first = path.read_bytes()
    write_scores(str(path), again)
    assert path.read_bytes() == first


@pytest.mark.parametrize(
    "content,fragment,row",
    [
        ("", "empty file", None),
        ("judge,poster,score\n0,0,1.0\n", "header must be judge_index,poster_id,score", 1),
        ("judge_index,poster_id,score\n0,0\n", "expected 3 columns, got 2", 2),
        ("judge_index,poster_id,score\n0,0,high\n", "score", 2),
        ("judge_index,poster_id,score\nnope,0,1.0\n", "judge_index", 2),
        # the first faulty cell or row width in row, then column order
        ("judge_index,poster_id,score\n0,0,1.0\n1,x,high\n0,1\n", "column 'poster_id' is not an integer", 3),
        ("judge_index,poster_id,score\n0,0\n1,x,2.0\n", "expected 3 columns, got 2", 2),
        ("judge_index,poster_id,score\n", "no observations", None),
        ("judge_index,poster_id,score\n0,0,1.0\n0,0,2.0\n", "duplicate", None),
        ("judge_index,poster_id,score\n0,9,1.0\n", "poster id outside", None),
    ],
)
def test_malformed_scores_csv(tmp_path, content, fragment, row):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    with pytest.raises(FileFormatError) as excinfo:
        read_scores(str(path), t=4, b=2)
    assert fragment in str(excinfo.value)
    assert excinfo.value.row == row


def test_fit_csv_has_one_row_per_poster(tmp_path):
    config = DesignConfig(t=5, k=3, b=3, seed=0)
    blocks = [Block(0, (0, 1, 2), False), Block(1, (1, 2, 3), False), Block(2, (0, 2, 3), False)]
    design = Design.from_blocks(config, blocks)
    rng = np.random.default_rng(8)
    fit = fit_fixed(design, ScoreTable.from_design_matrix(design, rng.normal(50.0, 5.0, (5, 3))))
    path = tmp_path / "fit.csv"
    write_fit(str(path), fit)
    lines = path.read_text().splitlines()
    assert lines[0] == "poster_id,pmm,se,rank"
    assert len(lines) == 6
    assert lines[5] == "4,,,"
    for poster in range(4):
        cells = lines[1 + poster].split(",")
        assert cells[0] == str(poster)
        assert float(cells[1]) == pytest.approx(fit.pmm[poster])
        assert int(cells[3]) == fit.rank[poster]


def test_fit_summary_csv_round_trip(tmp_path):
    design, table = sample_table(3)
    path = tmp_path / "summary.csv"

    write_fit_summary(str(path), fit_fixed(design, table))
    header, row = path.read_text().splitlines()
    assert header == "model_kind,grand_mean,var_judge,var_error,converged"
    cells = row.split(",")
    assert cells[0] == "fixed"
    assert cells[2] == ""
    assert cells[4] == "true"

    fit = fit_random(design, table)
    write_fit_summary(str(path), fit)
    cells = path.read_text().splitlines()[1].split(",")
    assert cells[0] == "random"
    assert float(cells[2]) == pytest.approx(fit.var_judge)
    assert float(cells[3]) == pytest.approx(fit.var_error)


# sha256 of each file written below; poster 17 is left unreviewed so the
# fit files carry an empty row and judges score unequal numbers of
# posters.  The fit digests were re-recorded when both fits moved to the
# judge spectrum, which changes their last digits, and the random ones
# again when the judge matrix and the spread came from a sparse
# incidence, whose sums round differently; the scores digest is the one
# recorded before the writers shared one CSV codec
FIT_GOLDEN = {
    "scores.csv": "063ecbcf869c4d588c22b530d8cc89b77c4d439f81252f1bcd1791ef4e037c00",
    "fixed.csv": "f178e2f1584742a53751250aba1b3c1b3a7bb27d11857e184452902a0bc304d2",
    "fixed.summary.csv": "7ccdb2c04538ebefa3fcc6875c074516776e752b4c74b804292caf15d3eebaf3",
    "random.csv": "4ec3ad75646db33f2d793342808b21ff469189ca0827fd3a62b9f5a5a0454a83",
    "random.summary.csv": "c5a819c68b271c439b3c02302a5749cb1d9f0c09f440d0350088040c13c71cc5",
}


def test_fit_files_keep_their_bytes(tmp_path):
    design, full = sample_table(5)
    keep = full.posters != 17
    table = ScoreTable(full.judges[keep], full.posters[keep], full.scores[keep], t=full.t, b=full.b)
    write_scores(str(tmp_path / "scores.csv"), table)
    for name, fit in (("fixed", fit_fixed(design, table)), ("random", fit_random(design, table))):
        write_fit(str(tmp_path / f"{name}.csv"), fit)
        write_fit_summary(str(tmp_path / f"{name}.summary.csv"), fit)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in FIT_GOLDEN}
    assert digests == FIT_GOLDEN
