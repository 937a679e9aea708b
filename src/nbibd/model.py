"""Score models: fixed-judge and random-judge fits with population marginal means.

Both fits estimate mu + P_i for every reviewed poster under
score = mu + poster effect + judge effect + noise, identified by
sum-to-zero constraints, and both reduce the data to the same poster
system.  Each judge's block of observations is weighted by a shrink
factor on its mean: theta/(1 + theta*s) for a judge of size s in the
random fit, where theta = var_judge / var_error, and 1/s in the fixed
fit, the theta -> infinity limit that is Yates's intra-block analysis.
fit_fixed treats judges as fixed nuisance effects and therefore needs a
connected co-review graph.  fit_random treats judges as draws from
N(0, var_judge); the variance components come from restricted maximum
likelihood profiled down to theta, which keeps the search
one-dimensional, robust, and able to land on the theta = 0 boundary.

Neither the n-by-n judge covariance nor any poster-by-poster matrix is
ever formed, and the poster-by-judge incidence is held sparse.  Each
fit builds one _JudgeSpectrum from its score table: the theta-free
statistics and one eigendecomposition of a judge-by-judge matrix, for
any judge sizes and for both fits.  Asked at a theta, it prices a
candidate of the search in O(b), and yields the estimates, standard
errors and condition number at the winning theta, or at theta =
infinity for the fixed fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ._util import FileFormatError, format_float, parse_columns, read_csv, write_csv
from .design import Design

__all__ = [
    "ScoreTable",
    "FitResult",
    "DisconnectedDesign",
    "SingularFit",
    "fit_fixed",
    "fit_random",
    "rank_posters",
    "reml_criterion",
    "read_scores",
    "write_scores",
    "write_fit",
    "write_fit_summary",
]

_LOG_2PI = math.log(2.0 * math.pi)
_THETA_MAX = 1e6
_COND_LIMIT = 1e12


class DisconnectedDesign(RuntimeError):
    """The observed co-review graph splits into two or more components."""


class SingularFit(RuntimeError):
    """The model cannot be estimated from the supplied observations."""


@dataclass(frozen=True)
class ScoreTable:
    """Long-form (judge, poster, score) observations over t posters and b judges."""

    judges: np.ndarray
    posters: np.ndarray
    scores: np.ndarray
    t: int
    b: int

    def __post_init__(self) -> None:
        for ids, name in ((self.judges, "judge indices"), (self.posters, "poster ids")):
            ids = np.asarray(ids)
            # an integer-valued float is an id; any other would truncate silently
            if ids.dtype.kind == "f" and not (np.isfinite(ids) & (ids == np.trunc(ids))).all():
                raise ValueError(f"{name} must be integers")
        judges = np.asarray(self.judges, dtype=np.int64)
        posters = np.asarray(self.posters, dtype=np.int64)
        scores = np.asarray(self.scores, dtype=np.float64)
        object.__setattr__(self, "judges", judges)
        object.__setattr__(self, "posters", posters)
        object.__setattr__(self, "scores", scores)
        if judges.ndim != 1 or judges.shape != posters.shape or judges.shape != scores.shape:
            raise ValueError("judges, posters, and scores must be equal-length 1-D arrays")
        if judges.size == 0:
            raise ValueError("need at least one observation")
        if self.t < 1 or self.b < 1:
            raise ValueError("dimensions t and b must be positive")
        if judges.min() < 0 or judges.max() >= self.b:
            raise ValueError(f"judge index outside [0, {self.b})")
        if posters.min() < 0 or posters.max() >= self.t:
            raise ValueError(f"poster id outside [0, {self.t})")
        if not np.isfinite(scores).all():
            raise ValueError("scores must be finite")
        pairs = judges * self.t + posters
        if np.unique(pairs).size != pairs.size:
            raise ValueError("duplicate (judge, poster) observation")

    @property
    def n(self) -> int:
        return int(self.judges.size)

    @classmethod
    def from_observations(
        cls,
        observations: Iterable[tuple[int, int, float]],
        t: int,
        b: int,
        design: Design | None = None,
    ) -> "ScoreTable":
        """Build from (judge_index, poster_id, score) triples.

        When a design is supplied, every observation must correspond to
        one of its (judge, poster) incidences.
        """
        rows = list(observations)
        judges, posters, scores = ([row[column] for row in rows] for column in range(3))
        return cls._from_columns(judges, posters, scores, t=t, b=b, design=design)

    @classmethod
    def _from_columns(cls, judges, posters, scores, t: int, b: int, design: Design | None) -> "ScoreTable":
        """from_observations on the judge, poster and score columns."""
        table = cls(judges, posters, scores, t=t, b=b)
        if design is not None:
            # judge * base + poster, with base above every poster id on either side
            base = max(t, design.t)
            incident = np.arange(design.b)[:, None] * base + design.ids
            outside = np.flatnonzero(~np.isin(table.judges * base + table.posters, incident))
            if outside.size:
                judge, poster = table.judges[outside[0]], table.posters[outside[0]]
                raise ValueError(f"observation (judge {judge}, poster {poster}) is not in the design")
        return table

    @classmethod
    def from_design_matrix(cls, design: Design, matrix: np.ndarray) -> "ScoreTable":
        """Select the design's observed cells from a full t-by-b score matrix."""
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.shape != (design.t, design.b):
            raise ValueError(f"matrix shape {matrix.shape} does not match (t={design.t}, b={design.b})")
        judges = np.repeat(np.arange(design.b), design.k)
        posters = design.ids.ravel()
        return cls(judges, posters, matrix[posters, judges], t=design.t, b=design.b)


@dataclass(frozen=True)
class FitResult:
    """Per-poster estimates from one model fit.

    pmm and se are length-t with NaN for unreviewed posters; rank is
    length-t with 1 = best and 0 marking unranked (unreviewed) posters.
    var_judge is NaN for the fixed model, whose judge effects are not
    variance components.  condition_number is 1/lambda_min of the
    replication-scaled poster information matrix D^-1/2 C D^-1/2 at the
    estimated theta: exactly 1 + theta*k for a random fit whose judges
    all have size k, and at most 1 + theta*max(k_j) for any random fit.
    The fixed model's, at theta = inf without the null eigenvalue, is 1
    over the least canonical efficiency factor: k/mu_min for judges all
    of size k, mu_min the least non-null eigenvalue of the judge matrix.
    Either fit raises SingularFit when it exceeds 1e12.
    """

    model_kind: str
    grand_mean: float
    pmm: np.ndarray
    se: np.ndarray
    rank: np.ndarray
    var_judge: float
    var_error: float
    converged: bool
    condition_number: float


def _ranks_desc(values: np.ndarray, eligible: np.ndarray) -> np.ndarray:
    """Dense ranks, 1 = largest value, ties broken by ascending index."""
    ids = np.flatnonzero(eligible)
    order = ids[np.lexsort((ids, -values[ids]))]
    ranks = np.zeros(values.shape[0], dtype=np.int64)
    ranks[order] = np.arange(1, order.size + 1)
    return ranks


def rank_posters(fit: FitResult, top_m: int) -> list[int]:
    """Ids of the top_m posters by pmm, best first; ties go to the lower id."""
    reviewed = np.flatnonzero(fit.rank > 0)
    if not 0 <= top_m <= reviewed.size:
        raise ValueError(f"top_m must be in [0, {reviewed.size}], got {top_m}")
    order = np.empty(reviewed.size, dtype=np.int64)
    order[fit.rank[reviewed] - 1] = reviewed
    return [int(poster) for poster in order[:top_m]]


def _check_table(design: Design, scores: ScoreTable) -> None:
    if scores.t != design.t or scores.b != design.b:
        raise ValueError(
            f"score table dimensions (t={scores.t}, b={scores.b}) do not match the design "
            f"(t={design.t}, b={design.b})"
        )


class _JudgeSpectrum:
    """Theta-free statistics both fits reduce to the poster system, and their judge spectrum.

    Scores are centered at their mean.  incidence is the poster-by-judge
    0/1 matrix N over reviewed posters and present judges, held sparse:
    row i lists poster i's judges in ascending order, so it has n stored
    ones however many judges there are.  scaled is D^-1 N on the same
    rows, and spread the dense F below.  N' is built row by row, judge j's posters in ascending order,
    so products with N' need no conversion of N.  counts is the
    replication D and v0 each poster's score sum; sizes and totals are
    each present judge's block size and score total.

    Every theta's solve comes from one eigendecomposition of the judge
    matrix.  C(theta) = D - N S N' with S = diag(theta/(1 + theta k_j)),
    D the replication, N the poster-by-judge incidence and k_j the judge
    sizes.  One eigh of M = diag(k) - N' D^-1 N = V diag(mu) V' (mu >= 0)
    gives, with g = theta/(1 + theta mu), m = D^-1 v the poster means and
    delta = V'(T - N'm) the judge totals adjusted for them:

        log det C = sum log D + sum log1p(theta mu) - sum log1p(theta k_j)
        rss       = rss(0) - g'delta^2
        C^-1      = D^-1 + F diag(g) F',  F = D^-1 N V   (Woodbury)
        estimates = m - F (g delta)

    The last sum of log det C is log det H, which the REML criterion
    adds back, so profile() prices log det H + log det C without either.
    A candidate theta costs O(b), and the winner's estimates and
    diag(C^-1) need no factorization and no p-by-p inverse.  N is
    sparse, with n stored ones, and every product taken of it is sparse:
    N' D^-1 N costs O(sum of squared replications) before it fills the
    dense b_r-by-b_r M, N'm costs O(n) and F = (D^-1 N) V costs O(n b_r),
    where a dense N would cost O(p b_r^2) for each of M and F.  theta = inf
    is the fixed-judge limit: g = 1/mu off the null eigenvalues and 0 on
    them, which makes C^-1 a generalized inverse of the singular C(inf);
    M has one null eigenvalue per connected set of judges, and gain()
    raises DisconnectedDesign when there is more than one.
    With B = D^-1/2 N S^1/2, D^-1/2 C D^-1/2 = I - BB' has no eigenvalue
    above 1 and shares those below 1 with I - B'B = diag(1/(1 + theta k))
    + S^1/2 M S^1/2, whose eigvalsh gives the least; at theta = inf, S =
    diag(1/k) and it skips as many null eigenvalues as M has (Sylvester).
    When every judge has the same size k, S^1/2 M S^1/2 is a multiple of
    M, so no eigvalsh runs: at finite theta it is positive semidefinite
    with a null vector and the least is 1/(1 + theta k) exactly, and at
    theta = inf the system is M/k, whose least eigenvalue past the null
    one is mu_min/k, the least canonical efficiency factor.  Only
    unequal judge sizes take the second, b_r-by-b_r eigvalsh.
    """

    def __init__(self, scores: ScoreTable) -> None:
        # imported here: only the fits use scipy.sparse, and nbibd's design
        # commands should not pay for loading it
        from scipy.sparse import csr_array

        posters, judges, y = scores.posters, scores.judges, scores.scores
        self.reviewed, poster_col = np.unique(posters, return_inverse=True)
        judges_present, judge_col = np.unique(judges, return_inverse=True)
        p = self.p = int(self.reviewed.size)
        b_r = judges_present.size
        self.n = int(y.size)
        self.center = float(y.mean())
        centered = y - self.center

        replication = np.bincount(poster_col, minlength=p)
        self.counts = replication.astype(np.float64)
        self.v0 = np.bincount(poster_col, weights=centered, minlength=p)
        self.q0 = float(centered @ centered)
        self.sizes = np.bincount(judge_col, minlength=b_r)
        self.totals = np.bincount(judge_col, weights=centered, minlength=b_r)
        # rows from the replication, each row's judges in ascending order
        judge_order = judge_col[np.argsort(poster_col * b_r + judge_col)]
        indptr = np.concatenate(([0], np.cumsum(replication)))
        self.incidence = csr_array((np.ones(judge_order.size), judge_order, indptr), shape=(p, b_r))
        self.scaled = csr_array((np.repeat(1.0 / self.counts, replication), judge_order, indptr), shape=(p, b_r))
        # N' likewise: rows from the judge sizes, each row's posters in ascending order
        poster_order = poster_col[np.argsort(judge_col * p + poster_col)]
        indptr = np.concatenate(([0], np.cumsum(self.sizes)))
        transposed = csr_array((np.ones(poster_order.size), poster_order, indptr), shape=(b_r, p))

        self.judge_matrix = np.diag(self.sizes) - (transposed @ self.scaled).toarray()
        self.mu, self.basis = np.linalg.eigh(self.judge_matrix)
        self.means = self.v0 / self.counts
        self.delta = self.basis.T @ (self.totals - transposed @ self.means)
        self.spread = self.scaled @ self.basis
        # the null vectors are the indicators of connected sets of judges, on
        # which the adjusted totals sum to zero: pin both at exactly zero
        # where eigh leaves rounding noise, which theta would scale up
        self.null = self.mu <= self.mu.size * self.sizes.max() * np.finfo(float).eps
        self.mu[self.null] = 0.0
        self.delta[self.null] = 0.0
        self.delta_sq = self.delta * self.delta
        self.rss_zero = self.q0 - float(self.v0 @ self.means)
        self.log_counts = float(np.log(self.counts).sum())
        self.equal_sizes = self.sizes.min() == self.sizes.max()

    def gain(self, theta: float) -> np.ndarray:
        """g at theta; at theta = inf, 1/mu off the null eigenvalues and 0 on them."""
        if math.isinf(theta):
            if self.null.sum() > 1:
                raise DisconnectedDesign(
                    "the observed co-review graph is not connected; poster contrasts are not estimable"
                )
            return np.divide(1.0, self.mu, out=np.zeros_like(self.mu), where=~self.null)
        return theta / (1.0 + theta * self.mu)

    def rss(self, theta: float) -> float:
        """Residual sum of squares under H(theta)^-1 weighting."""
        return self.rss_zero - float(self.gain(theta) @ self.delta_sq)

    def profile(self, theta: float) -> tuple[float, float]:
        """Restricted -2 log likelihood profiled over the error variance at a finite theta.

        Returns (criterion, sigma2 at the REML divisor).
        """
        dof = self.n - self.p
        rss = self.rss(theta)
        if rss <= 0.0 or not np.isfinite(rss):
            raise SingularFit("residual sum of squares vanished; error variance is not estimable")
        sigma2 = rss / dof
        logdet = self.log_counts + float(np.log1p(theta * self.mu).sum())
        criterion = dof * (_LOG_2PI + 1.0) + dof * math.log(sigma2) + logdet
        return float(criterion), float(sigma2)

    def solution(self, theta: float) -> tuple[np.ndarray, np.ndarray, float]:
        """Centered estimates, diag(C^-1) and the least eigenvalue of D^-1/2 C D^-1/2.

        The least is taken on the contrast space: at theta = inf it skips
        the null eigenvalue.
        """
        gain = self.gain(theta)
        skip = int(self.null.sum()) if math.isinf(theta) else 0
        if self.equal_sizes and math.isinf(theta):
            least = float(self.mu[skip]) / float(self.sizes[0])
        elif self.equal_sizes:
            least = 1.0 / (1.0 + theta * float(self.sizes[0]))
        else:
            root = np.sqrt(1.0 / self.sizes if math.isinf(theta) else theta / (1.0 + theta * self.sizes))
            system = np.diag(1.0 / (1.0 + theta * self.sizes)) + root[:, None] * self.judge_matrix * root
            least = float(np.linalg.eigvalsh(system)[skip])
        estimates = self.means - self.spread @ (gain * self.delta)
        return estimates, 1.0 / self.counts + (self.spread * self.spread) @ gain, least

    def inverse(self, theta: float, vector: np.ndarray) -> np.ndarray:
        """C(theta)^-1 @ vector, a generalized inverse at theta = inf."""
        return vector / self.counts + self.spread @ (self.gain(theta) * (self.spread.T @ vector))


def _checked_condition(smallest: float) -> float:
    """1/smallest (infinite if <= 0); raises SingularFit above _COND_LIMIT.

    A random fit's condition is <= 1 + theta * max(k_j), so in practice
    only a nearly disconnected fixed fit trips this guard.
    """
    condition = 1.0 / smallest if smallest > 0.0 else math.inf
    if condition > _COND_LIMIT:
        raise SingularFit(f"ill-conditioned poster information matrix (condition {condition:.3e})")
    return condition


def _fit_result(
    model_kind: str,
    t: int,
    reviewed: np.ndarray,
    estimates: np.ndarray,
    variances: np.ndarray,
    var_judge: float,
    var_error: float,
    converged: bool,
    condition: float,
) -> FitResult:
    """Spread per-reviewed-poster estimates over all t posters and rank them."""
    pmm = np.full(t, np.nan)
    se = np.full(t, np.nan)
    pmm[reviewed] = estimates
    se[reviewed] = np.sqrt(np.maximum(variances, 0.0))
    eligible = np.zeros(t, dtype=bool)
    eligible[reviewed] = True
    return FitResult(
        model_kind=model_kind,
        grand_mean=float(estimates.mean()),
        pmm=pmm,
        se=se,
        rank=_ranks_desc(np.where(eligible, pmm, -np.inf), eligible),
        var_judge=var_judge,
        var_error=var_error,
        converged=converged,
        condition_number=condition,
    )


def fit_fixed(design: Design, scores: ScoreTable) -> FitResult:
    """Intra-block least squares with posters and judges as fixed factors.

    Yates's intra-block analysis: the poster system C = D - sum g g'/k
    with right-hand side Q = v - sum T g/k (g a judge's incidence
    column, T its score total), which is the random fit's system in the
    limit theta -> infinity.  The fit's _JudgeSpectrum solves it at that
    limit; C has the null vector 1 on a connected design, and the
    spectral solution uses a generalized inverse G of C.  The weights w
    below are one sparse product with the incidence, and on equal judge
    sizes k the condition number is k/mu_min, read from the judge
    spectrum the solve already took.  The constant
    is then set so the judge effects sum to zero, which makes the
    estimates mu + P_i, and the standard errors come from the same
    contrast, on which every generalized inverse agrees.  Needs a
    connected observed co-review graph (one null eigenvalue in the judge
    spectrum).  Posters without observations
    receive NaN estimates and rank 0 rather than failing the whole fit.
    """
    _check_table(design, scores)
    spectrum = _JudgeSpectrum(scores)
    rss = spectrum.rss(math.inf)
    b_r = spectrum.sizes.size
    dof = spectrum.n - spectrum.p - b_r + 1
    if dof < 1:
        raise SingularFit("no residual degrees of freedom for the error variance")
    inv_sizes = 1.0 / spectrum.sizes
    tau, diagonal, smallest = spectrum.solution(math.inf)
    sigma2 = max(rss, 0.0) / dof

    # on centered data pmm = tau + (sum T/k - w'tau)/b, where w_i sums 1/k
    # over poster i's judges; its variance is sigma2 times the diagonal of
    # (I - 1w'/b) G (I - w1'/b) + sum(1/k)/b^2
    w = spectrum.incidence @ inv_sizes
    shift = (float(inv_sizes @ spectrum.totals) - float(w @ tau)) / b_r
    gw = spectrum.inverse(math.inf, w)
    variances = diagonal - 2.0 * gw / b_r + (float(w @ gw) + inv_sizes.sum()) / b_r**2
    return _fit_result(
        "fixed",
        design.t,
        spectrum.reviewed,
        tau + shift + spectrum.center,
        sigma2 * variances,
        float("nan"),
        float(sigma2),
        True,
        _checked_condition(smallest),
    )


def reml_criterion(scores: ScoreTable, theta: float) -> float:
    """Profiled restricted log likelihood at the variance ratio theta.

    This is the exact objective fit_random maximizes, priced from the
    same judge spectrum.  Exposed so independent searches can compare
    candidate theta values.
    """
    if not math.isfinite(theta) or theta < 0:
        raise ValueError(f"theta must be finite and >= 0, got {theta}")
    spectrum = _JudgeSpectrum(scores)
    if spectrum.n - spectrum.p < 1:
        raise SingularFit("no residual degrees of freedom")
    return -0.5 * spectrum.profile(theta)[0]


def _search_theta(spectrum: _JudgeSpectrum) -> tuple[bool, float]:
    """Bounded minimization of the profiled criterion over theta >= 0.

    The search runs in u = log1p(theta) with an absolute tolerance of
    1e-12, far below the documented 1e-8 relative target on theta.  Each
    candidate costs one O(b) profile from the judge spectrum.  The point
    bounded Brent reports, the latest evaluation that ties or beats every
    earlier one, is then priced against the boundary theta = 0, which
    wins ties.  Returns (converged, theta).
    """
    # imported here: only the random fit searches, and nbibd's design
    # commands should not pay for loading scipy.optimize
    from scipy.optimize import minimize_scalar

    result = minimize_scalar(
        lambda u: spectrum.profile(float(np.expm1(u)))[0],
        bounds=(0.0, math.log1p(_THETA_MAX)),
        method="bounded",
        options={"xatol": 1e-12},
    )
    interior = float(np.expm1(result.x))
    theta = 0.0 if spectrum.profile(0.0)[0] <= spectrum.profile(interior)[0] else interior
    return bool(result.success), theta


def fit_random(design: Design, scores: ScoreTable) -> FitResult:
    """Posters fixed, judges random: REML variance components, then GLS.

    The restricted likelihood is profiled over theta = var_judge /
    var_error and maximized by a bounded one-dimensional search; theta =
    0 is an admissible boundary estimate.  The fit's _JudgeSpectrum, one
    eigendecomposition of the judge matrix, prices every candidate theta
    and yields the final estimates, for any judge sizes, including score
    files with missing cells.  Standard errors are plug-in GLS values at
    the estimated theta.  Works on disconnected designs: the random judge
    effects tie the components together.  Posters without observations
    receive NaN estimates and rank 0.
    """
    _check_table(design, scores)
    spectrum = _JudgeSpectrum(scores)
    if spectrum.n - spectrum.p < 1:
        raise SingularFit("no residual degrees of freedom")
    if spectrum.rss(0.0) <= 1e-12 * spectrum.q0:
        # interpolating data (e.g. constant scores): both variance
        # components vanish and the ratio is fixed at the boundary
        converged, theta, sigma2 = True, 0.0, 0.0
    else:
        converged, theta = _search_theta(spectrum)
        sigma2 = spectrum.profile(theta)[1]
    beta, inverse_diagonal, smallest = spectrum.solution(theta)
    return _fit_result(
        "random",
        design.t,
        spectrum.reviewed,
        beta + spectrum.center,
        sigma2 * inverse_diagonal,
        float(theta * sigma2),
        float(sigma2),
        converged,
        _checked_condition(smallest),
    )


_SCORES_HEADER = ["judge_index", "poster_id", "score"]


def write_scores(path: str, table: ScoreTable) -> None:
    """Write observations as CSV: judge_index,poster_id,score."""
    write_csv(
        path,
        _SCORES_HEADER,
        (
            [int(judge), int(poster), format_float(score)]
            for judge, poster, score in zip(table.judges, table.posters, table.scores)
        ),
    )


def read_scores(path: str, t: int, b: int, design: Design | None = None) -> ScoreTable:
    """Read a judge_index,poster_id,score CSV into a ScoreTable."""
    header, rows = read_csv(path, _SCORES_HEADER)
    judges, posters, scores = parse_columns(path, header, rows, [int, int, float])
    if not judges.size:
        raise FileFormatError(path, None, "no observations")
    try:
        return ScoreTable._from_columns(judges, posters, scores, t=t, b=b, design=design)
    except ValueError as error:
        raise FileFormatError(path, None, str(error)) from None


def write_fit(path: str, fit: FitResult) -> None:
    """Write per-poster estimates as CSV: poster_id,pmm,se,rank.

    Unreviewed posters keep their row with empty estimate cells so the
    file always has one row per poster id.
    """
    write_csv(
        path,
        ["poster_id", "pmm", "se", "rank"],
        (
            [poster, format_float(fit.pmm[poster]), format_float(fit.se[poster]), int(fit.rank[poster])]
            if fit.rank[poster] > 0
            else [poster, "", "", ""]
            for poster in range(fit.pmm.shape[0])
        ),
    )


def write_fit_summary(path: str, fit: FitResult) -> None:
    """Write the one-row sidecar: model_kind,grand_mean,var_judge,var_error,converged."""
    var_judge = "" if math.isnan(fit.var_judge) else format_float(fit.var_judge)
    write_csv(
        path,
        ["model_kind", "grand_mean", "var_judge", "var_error", "converged"],
        [
            [
                fit.model_kind,
                format_float(fit.grand_mean),
                var_judge,
                format_float(fit.var_error),
                "true" if fit.converged else "false",
            ]
        ],
    )
