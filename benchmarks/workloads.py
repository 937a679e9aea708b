"""The three workloads.  Each is a closed loop run from one process.

A workload runs whole rounds of its operation until the time is up
(`run`), making each round's inputs from the seed outside the timed
calls and checking each round's outputs with the independent code in
checks.py.  The samples give the end-to-end time of one operation (`op_ms`), or
per-layer metrics when a Tracer was installed.  `final_checks` runs what
is too slow for the loop.
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
from checks import CheckFailed
from tracing import Tracer

# The paper's score model: mean 80, standard deviations 7 (posters), 6 (judges), 7 (noise).
MU, SD_POSTER, SD_JUDGE, SD_ERROR = 80.0, 7.0, 6.0, 7.0

# Per-layer metric -> span name.  Every traced run reports all of them, so
# that each workload prints the same metrics; a span that its workload never
# records (its `SPANS` say which it must) reads 0.
SPAN_METRICS = {
    "simulate.synthesize_scores_ms": "simulate.synthesize_scores",
    "generate.nb1_ms": "generate.nb1",
    "generate.nb2_ms": "generate.nb2",
    "generate.random_ms": "generate.random",
    "design.is_connected_ms": "design.is_connected",
    "model.from_design_matrix_ms": "model.from_design_matrix",
    "model.fit_random_ms": "model.fit_random",
    "simulate.run_iteration_self_ms": "simulate.run_iteration",
    "simulate.write_metrics_ms": "simulate.write_metrics",
    "design.read_design_ms": "design.read_design",
    "model.read_scores_ms": "model.read_scores",
    "model.write_fit_ms": "model.write_fit",
    "model.fit_fixed_ms": "model.fit_fixed",
    "cli.build_parser_ms": "cli.build_parser",
    "generate.extend_ms": "generate.extend",
    "design.write_design_ms": "design.write_design",
    "design.validate_ms": "design.validate",
    "cli.main_self_ms": "cli.main",
}


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run `nbibd <argv>` in this process; returns the exit code and stdout."""
    from nbibd import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def incidences(blocks) -> tuple[np.ndarray, np.ndarray]:
    """Judge and poster index of every review, block by block."""
    judges = np.array([j for j, block in enumerate(blocks) for _ in block], dtype=np.int64)
    posters = np.array([p for block in blocks for p in block], dtype=np.int64)
    return judges, posters


def draw_scores(blocks, t: int, b: int, rng: np.random.Generator):
    """Observed scores for every (judge, poster) incidence under the paper's model."""
    poster_effect = rng.normal(0.0, SD_POSTER, size=t)
    judge_effect = rng.normal(0.0, SD_JUDGE, size=b)
    judges, posters = incidences(blocks)
    y = MU + poster_effect[posters] + judge_effect[judges] + rng.normal(0.0, SD_ERROR, size=posters.size)
    return judges, posters, y


def count_fit(tracer: Tracer, args: tuple, fit) -> None:
    tracer.counts["theta_zero"] += fit.var_judge == 0.0
    tracer.counts["not_converged"] += not fit.converged


class Workload:
    name = ""
    # spans every traced run of this workload must record; every workload goes through cli.main
    SPANS: tuple[str, ...] = ("cli.main", "cli.build_parser")

    def __init__(self, workdir: Path, seed: int) -> None:
        self.workdir = workdir
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def verify(self, check, *args) -> None:
        try:
            check(*args)
        except CheckFailed as error:
            self.problems.append(f"{self.name}: {error}")

    def path(self, name: str) -> str:
        return str(self.workdir / name)

    def run(self, seconds: float, tracer: Tracer | None) -> dict:
        raise NotImplementedError

    def op_ms(self, samples: dict) -> float:
        """The end-to-end time of one operation, also the base of the tracing overhead."""
        raise NotImplementedError

    def instrument(self, tracer: Tracer) -> None:
        from nbibd import cli

        tracer.wrap(cli, "main", "cli.main")
        tracer.wrap(cli, "build_parser", "cli.build_parser")

    def per_layer(self, tracer: Tracer) -> dict[str, tuple[float, str]]:
        """Median self time per call of every span in SPAN_METRICS, and the counts."""
        times = tracer.self_times_ms()
        for span in self.SPANS:
            if not times.get(span):
                raise RuntimeError(f"no call to {span} was traced")
        metrics = {
            metric: (statistics.median(times[span]) if times.get(span) else 0.0, "ms")
            for metric, span in SPAN_METRICS.items()
        }
        designs = tracer.counts["nb1_designs"] or 1  # with no nb1 design both counts are 0
        metrics["generate.nb1_restarts"] = (tracer.counts["nb1_restarts"] / designs, "count")
        metrics["generate.nb1_rejected_blocks"] = (tracer.counts["nb1_rejected_blocks"] / designs, "count")
        metrics["model.fit_random_theta_zero"] = (tracer.counts["theta_zero"], "count")
        metrics["model.fit_random_not_converged"] = (tracer.counts["not_converged"], "count")
        return metrics

    def final_checks(self) -> None:
        pass


class PaperStudy(Workload):
    """`nbibd simulate --preset paper` in chunks, each followed by `nbibd report`."""

    name = "paper_study"
    ITERATIONS = 4  # study iterations per simulate call
    T, K, B = 200, 5, 100
    DESIGNS_PER_KIND = 3  # paper-shape designs recounted outside the timed loop
    SPANS = Workload.SPANS + (
        "simulate.synthesize_scores",
        "generate.nb1",
        "generate.nb2",
        "generate.random",
        "design.is_connected",
        "model.from_design_matrix",
        "model.fit_random",
        "simulate.run_iteration",
        "simulate.write_metrics",
    )

    def __init__(self, workdir: Path, seed: int) -> None:
        super().__init__(workdir, seed)
        self.chunks = 0
        # the documented one-worker setting: run_study iterates in this process
        os.environ["NBIBD_THREADS"] = "1"

    def run(self, seconds, tracer):
        metrics, summary = self.path("metrics.csv"), self.path("summary.csv")
        durations = []
        deadline = perf_counter() + seconds
        while perf_counter() < deadline:
            study_seed = self.seed * 1000 + self.chunks
            if tracer is not None:
                tracer.tag = f"chunk{self.chunks}"
            self.chunks += 1
            argv = ["simulate", "--preset", "paper", "--iterations", str(self.ITERATIONS)]
            start = perf_counter()
            code, out = call_cli(argv + ["--seed", str(study_seed), "--out", metrics])
            elapsed = perf_counter() - start
            self.attempted += self.ITERATIONS * len(checks.KINDS) + 1
            if code != 0:
                self.failed += self.ITERATIONS * len(checks.KINDS) + 1
                continue
            durations.append(elapsed)
            self.verify(checks.check_simulate_line, out, self.ITERATIONS)
            self.verify(checks.check_metrics_file, metrics, self.ITERATIONS)
            code, _ = call_cli(["report", metrics, "--out", summary, "--hist-out", self.path("hist.csv")])
            if code != 0:
                self.failed += 1
                continue
            self.verify(checks.check_report_file, summary)
        return {"chunk_s": durations}

    def op_ms(self, samples):
        # one study iteration: the median chunk over its iterations
        return statistics.median(samples["chunk_s"]) / self.ITERATIONS * 1e3

    def instrument(self, tracer):
        from nbibd import cli, model, simulate

        super().instrument(tracer)

        def kind_name(config, kind, *rest, **options):
            return f"generate.{getattr(kind, 'value', kind)}"

        def count_generation(tracer, args, result):
            if getattr(args[1], "value", args[1]) == "nb1":
                trace = result[1]
                tracer.counts["nb1_designs"] += 1
                tracer.counts["nb1_restarts"] += trace.restarts
                tracer.counts["nb1_rejected_blocks"] += trace.rejected_blocks

        def iteration_tag(outer, args):
            return f"{outer}/iteration{args[1]}"

        tracer.wrap(simulate, "run_iteration", "simulate.run_iteration", tag_of=iteration_tag)
        tracer.wrap(simulate, "synthesize_scores", "simulate.synthesize_scores")
        tracer.wrap(simulate, "generate", kind_name, observe=count_generation)
        tracer.wrap(simulate, "is_connected", "design.is_connected")
        tracer.wrap(model.ScoreTable, "from_design_matrix", "model.from_design_matrix")
        tracer.wrap(simulate, "fit_random", "model.fit_random", observe=count_fit)
        tracer.wrap(cli, "write_metrics", "simulate.write_metrics")

    def final_checks(self):
        from nbibd import DesignConfig, ScoreTable, fit_random, generate

        rng = np.random.default_rng([self.seed, 2])
        for kind in checks.KINDS:
            for index in range(self.DESIGNS_PER_KIND):
                config = DesignConfig(t=self.T, k=self.K, b=self.B, seed=self.seed * 100 + index)
                design, _ = generate(config, kind)
                blocks = [block.poster_ids for block in design.blocks]
                self.verify(checks.check_design, blocks, self.T, self.K, kind)
            # one fit per kind against dense GLS and REML at the full n-by-n covariance
            matrix = (
                MU
                + rng.normal(0.0, SD_POSTER, size=(self.T, 1))
                + rng.normal(0.0, SD_JUDGE, size=(1, self.B))
                + rng.normal(0.0, SD_ERROR, size=(self.T, self.B))
            )
            fit = fit_random(design, ScoreTable.from_design_matrix(design, matrix))
            judges, posters = incidences(blocks)
            theta = fit.var_judge / fit.var_error
            y = matrix[posters, judges]
            self.verify(checks.check_random_fit_dense, judges, posters, y, self.B, self.T, fit.pmm, theta)
            self.verify(checks.check_ranks, fit.pmm, fit.rank)


class LargeSession(Workload):
    """`nbibd score` on thousand-poster sessions, random then fixed model.

    How many REML steps a random fit takes depends on the data (18 to 30
    criterion evaluations at this shape), so each run scores a fresh
    session per round and reports the mean over its sessions.
    """

    name = "large_session"
    T, K, B = 1000, 5, 500  # 2.5 reviews per poster
    SPANS = Workload.SPANS + (
        "design.read_design",
        "model.read_scores",
        "model.write_fit",
        "model.fit_random",
        "model.fit_fixed",
    )

    def __init__(self, workdir: Path, seed: int) -> None:
        super().__init__(workdir, seed)
        self.sessions = 0

    def write_session(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """An nb1 design and its scores for the next session, drawn from the run's seed."""
        from nbibd import DesignConfig, generate, write_design

        session_seed = self.seed * 1000 + self.sessions
        self.sessions += 1
        design, _ = generate(DesignConfig(t=self.T, k=self.K, b=self.B, seed=session_seed), "nb1")
        write_design(self.path("design.csv"), design)
        _, blocks = checks.parse_design(self.path("design.csv"))
        self.verify(checks.check_design, blocks, self.T, self.K, "nb1")
        judges, posters, y = draw_scores(blocks, self.T, self.B, np.random.default_rng([session_seed, 1]))
        lines = ["judge_index,poster_id,score"]
        lines += [f"{j},{p},{score!r}" for j, p, score in zip(judges.tolist(), posters.tolist(), y.tolist())]
        Path(self.path("scores.csv")).write_text("\n".join(lines) + "\n", encoding="utf-8")
        return judges, posters, y

    def run(self, seconds, tracer):
        durations = {"random": [], "fixed": []}
        deadline = perf_counter() + seconds
        while perf_counter() < deadline:
            observations = self.write_session()
            for model in ("random", "fixed"):
                if tracer is not None:
                    tracer.tag = f"session{self.sessions - 1}/{model}"
                argv = ["score", "--design", self.path("design.csv"), "--scores", self.path("scores.csv")]
                start = perf_counter()
                code, _ = call_cli(argv + ["--model", model, "--out", self.path(f"fit_{model}.csv")])
                elapsed = perf_counter() - start
                self.attempted += 1
                if code != 0:
                    self.failed += 1
                    continue
                durations[model].append(elapsed)
                self.check_fit(model, *observations)
        return durations

    def check_fit(self, model: str, judges, posters, y) -> None:
        pmm, rank = checks.read_fit_file(self.path(f"fit_{model}.csv"), self.T)
        summary = checks.read_fit_summary(self.path(f"fit_{model}.summary.csv"))
        self.verify(checks.check_ranks, pmm, rank)
        if model == "random":
            theta = float(summary["var_judge"]) / float(summary["var_error"])
            self.verify(checks.check_random_fit_normal_equations, judges, posters, y, self.T, self.K, pmm, theta)
        else:
            self.verify(checks.check_fixed_fit, judges, posters, y, self.T, self.B, pmm, float(summary["var_error"]))

    def op_ms(self, samples):
        # one session scored: the random and the fixed `score` call
        return (statistics.fmean(samples["random"]) + statistics.fmean(samples["fixed"])) * 1e3

    def instrument(self, tracer):
        from nbibd import cli

        super().instrument(tracer)
        tracer.wrap(cli, "read_design", "design.read_design")
        tracer.wrap(cli, "read_scores", "model.read_scores")
        tracer.wrap(cli, "write_fit", "model.write_fit")
        tracer.wrap(cli, "fit_random", "model.fit_random", observe=count_fit)
        tracer.wrap(cli, "fit_fixed", "model.fit_fixed")


class JudgeArrivals(Workload):
    """Judges arrive one at a time: `nbibd extend --blocks 1` then `nbibd validate`."""

    name = "judge_arrivals"
    T, K = 600, 5
    B_MIN = 150  # ceil(t / (k - 1)) faculty blocks
    B_END = 400  # each round grows the design from B_MIN to B_END blocks
    SPANS = Workload.SPANS + ("design.read_design", "generate.extend", "design.write_design", "design.validate")

    def __init__(self, workdir: Path, seed: int) -> None:
        super().__init__(workdir, seed)
        self.rounds = 0

    def run(self, seconds, tracer):
        from nbibd import DesignConfig, generate, write_design

        design = self.path("design.csv")
        validate = ["validate", design, "--kind", "nb2"]
        durations = []
        deadline = perf_counter() + seconds
        while perf_counter() < deadline:
            # a new session each round: the faculty prefix, then the judges who walk in
            round_seed = self.seed * 1000 + self.rounds
            self.rounds += 1
            prefix, _ = generate(DesignConfig(t=self.T, k=self.K, b=self.B_MIN, seed=round_seed), "nb2")
            write_design(design, prefix)
            before = Path(design).read_text(encoding="utf-8")
            extend = ["extend", "--design", design, "--blocks", "1", "--kind", "nb2"]
            extend += ["--seed", str(round_seed), "--out", design]
            for arrival in range(self.B_MIN, self.B_END):
                if tracer is not None:
                    tracer.tag = f"round{self.rounds - 1}/arrival{arrival}"
                start = perf_counter()
                code, _ = call_cli(extend)
                if code == 0:
                    code, _ = call_cli(validate)
                elapsed = perf_counter() - start
                self.attempted += 1
                if code != 0:
                    self.failed += 1
                    continue
                durations.append(elapsed)
                after = Path(design).read_text(encoding="utf-8")
                self.verify(checks.check_rows_kept, before, after)
                before = after
            flags, blocks = checks.parse_design(design)
            self.verify(checks.check_design, blocks, self.T, self.K, "nb2")
            self.verify(checks.check_faculty_prefix, flags, self.B_MIN)
        return {"arrival_s": durations}

    def op_ms(self, samples):
        # one arrival; its 95th percentile spread 0.38 between runs, beyond any bound, so only the median
        return statistics.median(samples["arrival_s"]) * 1e3

    def instrument(self, tracer):
        from nbibd import cli

        super().instrument(tracer)
        tracer.wrap(cli, "read_design", "design.read_design")
        tracer.wrap(cli, "extend", "generate.extend")
        tracer.wrap(cli, "write_design", "design.write_design")
        tracer.wrap(cli, "validate", "design.validate")


WORKLOADS = {workload.name: workload for workload in (PaperStudy, LargeSession, JudgeArrivals)}
