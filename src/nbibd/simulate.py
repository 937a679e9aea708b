"""Monte Carlo comparison of review-assignment designs on synthetic scores.

Each iteration synthesizes one full poster-by-judge score matrix, lets
every design kind select its observed cells from that shared matrix,
fits the random-judge model, and scores the result against the known
truth.  Because all designs within an iteration see the same truth, the
comparisons are paired; summaries report per-design distributions and
within-iteration differences.

Reproducibility: every random draw comes from a stream derived from
(master seed, iteration index, role, design kind), so results do not
depend on worker count or scheduling, and adding a design kind never
perturbs the streams of existing kinds.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from ._util import FileFormatError, parse_columns, read_csv, write_csv
from .design import DesignConfig, is_connected
from .generate import GeneratorKind, NB1InfeasibleBudget, _nb1_counting_fault, generate
from .model import ScoreTable, SingularFit, _ranks_desc, fit_random, rank_posters

__all__ = [
    "METRICS",
    "SimParams",
    "PRESETS",
    "DesignMetrics",
    "IterationResult",
    "MetricSummary",
    "DifferenceSummary",
    "SimStudyReport",
    "synthesize_scores",
    "run_iteration",
    "run_iterations",
    "run_study",
    "summarize_differences",
    "write_metrics",
    "read_metrics",
    "present_kinds",
    "aggregate_results",
    "write_summary",
    "write_histogram",
]

METRICS = ("win_prop", "median_rank_dev", "mean_score_dev", "mean_se")

# report order; a kind's position is its design-seed code, so a new kind goes last
_KIND_ORDER = tuple(GeneratorKind)
_SCORE_ROLE = 0
_DESIGN_ROLE = 1


def _canonical(kinds: Iterable[GeneratorKind | str]) -> tuple[GeneratorKind, ...]:
    """Distinct design kinds in report order: nb1, nb2, random."""
    wanted = {GeneratorKind(kind) for kind in kinds}
    return tuple(kind for kind in _KIND_ORDER if kind in wanted)


@dataclass(frozen=True)
class SimParams:
    """Study configuration; defaults give the 200-poster benchmark setting."""

    t: int = 200
    b: int = 100
    k: int = 5
    awards: int = 30
    mu: float = 80.0
    sd_poster: float = 7.0
    sd_judge: float = 6.0
    sd_error: float = 7.0
    iterations: int = 1000
    seed: int = 0
    designs: tuple[GeneratorKind, ...] = _KIND_ORDER

    def __post_init__(self) -> None:
        kinds = tuple(GeneratorKind(kind) for kind in self.designs)
        if not kinds or len(set(kinds)) != len(kinds):
            raise ValueError("designs must be a non-empty collection of distinct kinds")
        object.__setattr__(self, "designs", _canonical(kinds))
        if not 1 <= self.awards <= self.t:
            raise ValueError(f"awards must be in [1, t], got {self.awards}")
        for name in ("sd_poster", "sd_judge", "sd_error"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        # the remaining (t, k, b) constraints are enforced by DesignConfig
        DesignConfig(t=self.t, k=self.k, b=self.b, seed=self.seed)
        if self.b * self.k < self.t:
            raise ValueError(
                f"{self.b} judges of {self.k} reviews each cannot cover {self.t} posters (b*k < t)"
            )
        # each near-balanced block after the first anchors on a reviewed
        # poster, so b blocks reach at most k + (b-1)(k-1) posters
        reach = self.k + (self.b - 1) * (self.k - 1)
        if reach < self.t and any(kind is not GeneratorKind.RANDOM for kind in kinds):
            least = 1 - (-(self.t - self.k) // (self.k - 1))
            raise ValueError(
                f"nb1 and nb2 reach at most k + (b-1)(k-1) = {reach} of {self.t} posters with {self.b} "
                f"judges of {self.k} reviews; they need at least {least} judges"
            )
        if GeneratorKind.NB1 in kinds:
            # generate would raise before drawing on every iteration
            fault = _nb1_counting_fault(self.t, self.k, self.b)
            if fault is not None:
                raise ValueError(f"{fault}; leave nb1 out of designs")


PRESETS: dict[str, SimParams] = {
    "paper": SimParams(),
    "appendix555": SimParams(sd_poster=5.0, sd_judge=5.0, sd_error=5.0),
}


@dataclass(frozen=True)
class DesignMetrics:
    """One design's evaluation within a single iteration."""

    win_prop: float
    median_rank_dev: float
    mean_score_dev: float
    mean_se: float
    disconnected: bool

    def value(self, metric: str) -> float:
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
        return float(getattr(self, metric))


@dataclass(frozen=True)
class IterationResult:
    """Metrics per design kind for one iteration; failed kinds are listed, not scored."""

    iteration: int
    metrics: Mapping[GeneratorKind, DesignMetrics]
    failures: tuple[GeneratorKind, ...] = ()


@dataclass(frozen=True)
class MetricSummary:
    n: int
    mean: float
    sd: float
    minimum: float
    maximum: float
    q025: float
    q500: float
    q975: float


@dataclass(frozen=True)
class DifferenceSummary(MetricSummary):
    """Paired within-iteration differences, first minus second, with a 95% interval on their mean."""

    ci_low: float
    ci_high: float


@dataclass(frozen=True)
class SimStudyReport:
    params: SimParams
    results: tuple[IterationResult, ...]
    design_summary: Mapping[tuple[GeneratorKind, str], MetricSummary]
    difference_summary: Mapping[tuple[GeneratorKind, GeneratorKind, str], DifferenceSummary]
    disconnected_counts: Mapping[GeneratorKind, int]
    failure_counts: Mapping[GeneratorKind, int]


def synthesize_scores(params: SimParams, iteration_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw one iteration's truth and full t-by-b score matrix.

    Poster effects, judge effects, and the error matrix are drawn in
    that order from the iteration's score stream.  The true score of
    poster i is mu + P_i; the matrix holds mu + P_i + J_j + eps_ij for
    every cell, and every design slices the same matrix.
    """
    if iteration_seed < 0:
        raise ValueError(f"iteration_seed must be >= 0, got {iteration_seed}")
    sequence = np.random.SeedSequence([params.seed, iteration_seed, _SCORE_ROLE])
    rng = np.random.Generator(np.random.PCG64(sequence))
    poster_effects = rng.normal(0.0, params.sd_poster, size=params.t)
    judge_effects = rng.normal(0.0, params.sd_judge, size=params.b)
    noise = rng.normal(0.0, params.sd_error, size=(params.t, params.b))
    true_scores = params.mu + poster_effects
    matrix = true_scores[:, None] + judge_effects[None, :] + noise
    return true_scores, matrix


def _design_seed(params: SimParams, iteration_seed: int, kind: GeneratorKind) -> int:
    sequence = np.random.SeedSequence([params.seed, iteration_seed, _DESIGN_ROLE, _KIND_ORDER.index(kind)])
    return int(sequence.generate_state(1, np.uint64)[0])


def run_iteration(params: SimParams, iteration_seed: int) -> IterationResult:
    """Generate each design, fit the random-judge model, score against truth.

    A kind whose nb1 generation exhausts its restart budget, or whose fit
    raises SingularFit, is recorded as a failure for this iteration and
    excluded from the metrics mapping.
    """
    true_scores, matrix = synthesize_scores(params, iteration_seed)
    true_rank = _ranks_desc(true_scores, np.ones(params.t, dtype=bool))
    true_top = np.flatnonzero(true_rank <= params.awards)
    top_set = set(int(poster) for poster in true_top)

    metrics: dict[GeneratorKind, DesignMetrics] = {}
    failures: list[GeneratorKind] = []
    for kind in params.designs:
        config = DesignConfig(
            t=params.t, k=params.k, b=params.b, seed=_design_seed(params, iteration_seed, kind)
        )
        try:
            design, _ = generate(config, kind)
        except NB1InfeasibleBudget:
            failures.append(kind)
            continue
        disconnected = not is_connected(design)
        table = ScoreTable.from_design_matrix(design, matrix)
        try:
            fit = fit_random(design, table)
        except SingularFit:
            failures.append(kind)
            continue
        winners = set(rank_posters(fit, params.awards))
        estimated = fit.rank[true_top].astype(np.float64)
        truth = true_rank[true_top].astype(np.float64)
        metrics[kind] = DesignMetrics(
            win_prop=len(top_set & winners) / params.awards,
            median_rank_dev=float(np.median(np.abs(estimated - truth))),
            mean_score_dev=float(np.mean(np.abs(fit.pmm[true_top] - true_scores[true_top]))),
            mean_se=float(np.mean(fit.se)),
            disconnected=disconnected,
        )
    return IterationResult(iteration=iteration_seed, metrics=metrics, failures=tuple(failures))


def _worker_count(params: SimParams, workers: int | None) -> int:
    source = "worker count"
    if workers is None:
        source = "NBIBD_THREADS"
        env = os.environ.get(source, "").strip()
        try:
            workers = int(env) if env else 0
        except ValueError:
            raise ValueError(f"NBIBD_THREADS must be an integer, got {env!r}") from None
    if workers < 0:
        raise ValueError(f"{source} must be >= 0, got {workers}")
    if workers == 0:
        workers = os.cpu_count() or 1
    return max(1, min(workers, params.iterations))


def run_iterations(params: SimParams, workers: int | None = None) -> list[IterationResult]:
    """Run all iterations, serially or on a pool, and return them in iteration order.

    workers = None consults NBIBD_THREADS (0 or unset = one worker per
    CPU).  Results are identical for any worker count because each
    iteration owns its deterministic sub-streams.
    """
    count = _worker_count(params, workers)
    if count == 1:
        return [run_iteration(params, index) for index in range(params.iterations)]
    # imported here: only a pooled run needs multiprocessing
    from multiprocessing import get_context

    try:
        context = get_context("fork")
    except ValueError:
        context = get_context()
    chunk = max(1, params.iterations // (count * 8))
    with context.Pool(count) as pool:
        return list(pool.imap(partial(run_iteration, params), range(params.iterations), chunksize=chunk))


def run_study(params: SimParams, workers: int | None = None) -> SimStudyReport:
    """Run all iterations and aggregate them in iteration order.

    workers is as for run_iterations; the report is identical for any
    worker count.
    """
    results = run_iterations(params, workers)
    aggregates = aggregate_results(results, params.designs)
    return SimStudyReport(params=params, results=tuple(results), **aggregates)


def _metric_summary(values: Sequence[float]) -> MetricSummary:
    data = np.asarray(values, dtype=np.float64)
    if data.size == 0:
        nan = float("nan")
        return MetricSummary(0, nan, nan, nan, nan, nan, nan, nan)
    q025, q500, q975 = np.quantile(data, [0.025, 0.5, 0.975])
    return MetricSummary(
        n=int(data.size),
        mean=float(data.mean()),
        sd=float(data.std(ddof=1)) if data.size > 1 else float("nan"),
        minimum=float(data.min()),
        maximum=float(data.max()),
        q025=float(q025),
        q500=float(q500),
        q975=float(q975),
    )


def _difference_summary(diffs: np.ndarray) -> DifferenceSummary:
    """The metric summary of paired differences plus a paired-t 95% interval on their mean."""
    # imported here, and from scipy.special: only simulate and report
    # read this quantile, and scipy.stats would load hundreds of modules
    from scipy.special import stdtrit

    summary = _metric_summary(diffs)
    half = math.nan
    if summary.n > 1:
        half = float(stdtrit(summary.n - 1, 0.975)) * summary.sd / math.sqrt(summary.n)
    return DifferenceSummary(
        **dataclasses.asdict(summary),
        ci_low=summary.mean - half,
        ci_high=summary.mean + half,
    )


def _paired_diffs(
    results: Sequence[IterationResult], first: GeneratorKind, second: GeneratorKind, metric: str
) -> np.ndarray:
    return np.array(
        [
            result.metrics[first].value(metric) - result.metrics[second].value(metric)
            for result in results
            if first in result.metrics and second in result.metrics
        ],
        dtype=np.float64,
    )


def _series(
    results: Sequence[IterationResult], designs: Sequence[GeneratorKind]
) -> Iterator[tuple[tuple[GeneratorKind, ...], str, np.ndarray]]:
    """Every (kinds, metric, values) series a report summarizes, in report order.

    First one series per design kind and metric, holding that kind's
    values in iteration order; then one per pair of kinds in canonical
    order and metric, holding the paired within-iteration differences,
    first minus second.
    """
    ordered = sorted(results, key=lambda result: result.iteration)
    kinds = _canonical(designs)
    for kind in kinds:
        for metric in METRICS:
            values = [r.metrics[kind].value(metric) for r in ordered if kind in r.metrics]
            yield (kind,), metric, np.array(values, dtype=np.float64)
    for position, first in enumerate(kinds):
        for second in kinds[position + 1 :]:
            for metric in METRICS:
                yield (first, second), metric, _paired_diffs(ordered, first, second, metric)


def aggregate_results(results: Sequence[IterationResult], designs: Sequence[GeneratorKind]) -> dict:
    """Reduce per-iteration metrics into the report's summary mappings.

    Returns the keyword arguments of write_summary (and the summary
    fields of SimStudyReport), every mapping in report order: kinds in
    canonical order whatever the order of designs, pairs as (first,
    second) in that order.  A kind's failure count is the number of
    iterations lacking a metrics entry for it, which covers both
    failures recorded by run_iteration and rows absent from a re-read
    metrics file.
    """
    design_summary: dict[tuple[GeneratorKind, str], MetricSummary] = {}
    difference_summary: dict[tuple[GeneratorKind, GeneratorKind, str], DifferenceSummary] = {}
    for kinds, metric, values in _series(results, designs):
        if len(kinds) == 1:
            design_summary[(kinds[0], metric)] = _metric_summary(values)
        else:
            difference_summary[(*kinds, metric)] = _difference_summary(values)
    kinds = _canonical(designs)
    return {
        "design_summary": design_summary,
        "difference_summary": difference_summary,
        "disconnected_counts": {
            kind: sum(1 for r in results if kind in r.metrics and r.metrics[kind].disconnected)
            for kind in kinds
        },
        "failure_counts": {kind: sum(1 for r in results if kind not in r.metrics) for kind in kinds},
    }


def summarize_differences(
    report: SimStudyReport, pair: Sequence[GeneratorKind | str], metric: str
) -> DifferenceSummary:
    """Paired difference summary for any ordered pair, including self-pairs."""
    try:
        first, second = (GeneratorKind(kind) for kind in pair)
    except ValueError as error:
        raise ValueError(f"unknown design kind in pair: {error}") from None
    for kind in (first, second):
        if kind not in report.params.designs:
            raise ValueError(f"design kind {kind.value!r} is not part of this study")
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
    diffs = _paired_diffs(report.results, first, second, metric)
    return _difference_summary(diffs)


_METRICS_HEADER = ["iteration", "design", *METRICS, "disconnected"]
_METRICS_TYPES = [int, str, *[float] * len(METRICS), bool]


def write_metrics(path: str, results: Sequence[IterationResult]) -> None:
    """One CSV row per (iteration, design) with that design's metrics."""

    def rows() -> Iterator[list]:
        for result in sorted(results, key=lambda item: item.iteration):
            for kind in _KIND_ORDER:
                if kind not in result.metrics:
                    continue
                entry = result.metrics[kind]
                metrics = [getattr(entry, metric) for metric in METRICS]
                yield [result.iteration, kind.value, *metrics, entry.disconnected]

    write_csv(path, _METRICS_HEADER, _METRICS_TYPES, zip(*rows()))


def read_metrics(path: str) -> list[IterationResult]:
    """Rebuild per-iteration results from a metrics CSV.

    Every cell is parsed first, as read_design parses; the rows are then
    checked in order for a negative iteration, an unknown design kind and
    a repeated (iteration, design).  Failure lists cannot be recovered
    from the file; kinds simply appear with no row, which
    aggregate_results counts as failures.
    """
    header, rows = read_csv(path, _METRICS_HEADER)
    columns = parse_columns(path, header, rows, _METRICS_TYPES)
    if not columns[0].size:
        raise FileFormatError(path, None, "no metric rows")
    collected: dict[int, dict[GeneratorKind, DesignMetrics]] = {}
    cells = zip(*(column.tolist() for column in columns))
    for number, (iteration, design, *metrics, disconnected) in enumerate(cells, start=2):
        if iteration < 0:
            raise FileFormatError(path, number, f"iteration must be >= 0, got {iteration}")
        try:
            kind = GeneratorKind(design)
        except ValueError:
            raise FileFormatError(path, number, f"unknown design kind {design!r}") from None
        per_iteration = collected.setdefault(iteration, {})
        if kind in per_iteration:
            raise FileFormatError(path, number, f"duplicate row for iteration {iteration}, design {kind.value}")
        per_iteration[kind] = DesignMetrics(**dict(zip(METRICS, metrics)), disconnected=disconnected)
    return [
        IterationResult(iteration=iteration, metrics=collected[iteration])
        for iteration in sorted(collected)
    ]


def present_kinds(results: Sequence[IterationResult]) -> tuple[GeneratorKind, ...]:
    """Design kinds appearing in any result, in canonical order."""
    return _canonical({kind for result in results for kind in result.metrics})


_SUMMARY_HEADER = [
    "section",
    "name",
    "metric",
    "n",
    "mean",
    "sd",
    "min",
    "max",
    "q025",
    "q500",
    "q975",
    "ci_low",
    "ci_high",
]


_SUMMARY_CELLS = ("mean", "sd", "minimum", "maximum", "q025", "q500", "q975", "ci_low", "ci_high")


def _name(kinds: Sequence[GeneratorKind]) -> str:
    return "-".join(kind.value for kind in kinds)


def write_summary(
    path: str,
    design_summary: Mapping[tuple[GeneratorKind, str], MetricSummary],
    difference_summary: Mapping[tuple[GeneratorKind, GeneratorKind, str], DifferenceSummary],
    disconnected_counts: Mapping[GeneratorKind, int],
    failure_counts: Mapping[GeneratorKind, int],
) -> None:
    """Write the quantile/CI summary CSV: design rows, difference rows, counts.

    Each mapping is written in its own iteration order, as
    aggregate_results returns them; design rows leave the interval cells
    empty, and so does any NaN statistic.
    """

    def rows() -> Iterator[list]:
        for section, mapping in (("design", design_summary), ("difference", difference_summary)):
            for (*kinds, metric), summary in mapping.items():
                cells = [getattr(summary, name, None) for name in _SUMMARY_CELLS]
                yield [section, _name(kinds), metric, summary.n, *cells]
        for label, counts in (("disconnected", disconnected_counts), ("failed", failure_counts)):
            for kind, count in counts.items():
                yield ["count", kind.value, label, count] + [None] * len(_SUMMARY_CELLS)

    write_csv(path, _SUMMARY_HEADER, [str, str, str, int] + [float] * len(_SUMMARY_CELLS), zip(*rows()))


_HISTOGRAM_HEADER = ["section", "name", "metric", "bin_left", "bin_right", "count"]


def write_histogram(
    path: str, results: Sequence[IterationResult], designs: Sequence[GeneratorKind], bins: int
) -> None:
    """Write per-design and per-pair histogram bin counts for every metric.

    The series are those aggregate_results summarizes, in the same
    order; a series with no values has no rows.  One whose values differ
    only by rounding is binned as numpy bins a constant one, over +-0.5.
    """
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")

    def rows() -> Iterator[list]:
        for kinds, metric, values in _series(results, designs):
            if values.size == 0:
                continue
            section = "design" if len(kinds) == 1 else "difference"
            low, high = float(values.min()), float(values.max())
            if np.any(np.diff(np.linspace(low, high, bins + 1)) <= 0.0):
                low, high = low - 0.5, high + 0.5
            counts, edges = np.histogram(values, bins=bins, range=(low, high))
            for left, right, count in zip(edges[:-1], edges[1:], counts):
                yield [section, _name(kinds), metric, left, right, count]

    write_csv(path, _HISTOGRAM_HEADER, [str, str, str, float, float, int], zip(*rows()))
