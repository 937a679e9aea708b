"""Command-line entry point wiring the design, scoring, and study pipelines.

Every subcommand prints one machine-parsable key=value line to stdout on
success and human-readable diagnostics to stderr.  Exit codes: 0 on
success, 1 on validation failure or infeasible generation, 2 on
malformed input files (argparse also exits 2 on unknown flags).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import __version__
from ._util import FileFormatError, format_cell
from .design import DesignConfig, read_design, validate, write_design
from .generate import GeneratorKind, NB1InfeasibleBudget, extend, generate
from .model import (
    DisconnectedDesign,
    SingularFit,
    fit_fixed,
    fit_random,
    read_scores,
    write_fit,
    write_fit_summary,
)
from .simulate import (
    PRESETS,
    aggregate_results,
    read_metrics,
    run_iterations,
    write_histogram,
    write_metrics,
    write_summary,
)

_KIND_CHOICES = [kind.value for kind in GeneratorKind]
_POSTERS_HELP = "poster count if the file leaves trailing ids unreviewed"


class _ValidationFailure(RuntimeError):
    """Requested invariants do not hold; maps to exit code 1."""


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The nbibd argument parser, with every subcommand or, given one, with that one alone.

    A parser built for one command names all of them as its command
    metavar, so a top-level error after the command, such as an
    unrecognized argument, prints the full parser's usage line.  The full
    parser keeps argparse's own metavar, which its "invalid choice" and
    "required" messages depend on.
    """
    parser = argparse.ArgumentParser(
        prog="nbibd",
        description="near-balanced review assignment designs, score model fits, and design comparison studies",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    metavar = None if command is None else "{%s}" % ",".join(_HANDLERS)
    subparsers = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    if command in (None, "generate"):
        gen = subparsers.add_parser("generate", help="generate a review assignment design")
        gen.add_argument("--posters", type=int, required=True, help="number of posters t")
        gen.add_argument("--block-size", type=int, required=True, help="reviews per judge k")
        gen.add_argument("--judges", type=int, required=True, help="number of judges b")
        gen.add_argument("--kind", choices=_KIND_CHOICES, required=True)
        gen.add_argument("--seed", type=int, default=0)
        gen.add_argument("--max-attempts", type=int, default=500, help="nb1 block rejections before a restart")
        gen.add_argument("--restart-budget", type=int, default=50, help="nb1 restarts before giving up")
        gen.add_argument(
            "--faculty-count",
            type=int,
            default=None,
            help="how many leading blocks are faculty assignments (default: the coverage minimum)",
        )
        gen.add_argument("--out", required=True, help="design CSV path")

    if command in (None, "extend"):
        ext = subparsers.add_parser("extend", help="append blocks to an existing design")
        ext.add_argument("--design", required=True, help="design CSV path")
        ext.add_argument("--blocks", type=int, required=True, help="number of blocks to append")
        ext.add_argument("--kind", choices=_KIND_CHOICES, required=True)
        ext.add_argument(
            "--seed",
            type=int,
            required=True,
            help="seed the design was generated with; the continuation stream derives from it",
        )
        ext.add_argument("--posters", type=int, default=None, help=_POSTERS_HELP)
        ext.add_argument("--max-attempts", type=int, default=500)
        ext.add_argument("--out", required=True, help="extended design CSV path")

    if command in (None, "validate"):
        val = subparsers.add_parser("validate", help="check a design file's invariants")
        val.add_argument("design", help="design CSV path")
        val.add_argument("--posters", type=int, default=None, help=_POSTERS_HELP)
        val.add_argument(
            "--kind",
            choices=_KIND_CHOICES,
            default=None,
            help="also enforce this kind's invariants (default: coverage and connectivity)",
        )

    if command in (None, "score"):
        sco = subparsers.add_parser("score", help="fit a score model to observed reviews")
        sco.add_argument("--design", required=True, help="design CSV path")
        sco.add_argument("--scores", required=True, help="scores CSV path (judge_index,poster_id,score)")
        sco.add_argument("--model", choices=["fixed", "random"], default="random")
        sco.add_argument("--posters", type=int, default=None, help=_POSTERS_HELP)
        sco.add_argument("--out", required=True, help="per-poster fit CSV path")
        sco.add_argument("--summary-out", default=None, help="sidecar summary CSV path (default: <out>.summary.csv)")

    if command in (None, "simulate"):
        sim = subparsers.add_parser("simulate", help="run the design comparison study")
        sim.add_argument("--preset", choices=sorted(PRESETS), default="paper")
        # each override's dest is the SimParams field it sets
        sim.add_argument("--iterations", type=int)
        sim.add_argument("--seed", type=int)
        sim.add_argument("--posters", type=int, dest="t", metavar="POSTERS")
        sim.add_argument("--judges", type=int, dest="b", metavar="JUDGES")
        sim.add_argument("--awards", type=int)
        sim.add_argument("--sd-poster", type=float)
        sim.add_argument("--sd-judge", type=float)
        sim.add_argument("--sd-error", type=float)
        sim.add_argument("--out", required=True, help="metrics CSV path, one row per (iteration, design)")

    if command in (None, "report"):
        rep = subparsers.add_parser("report", help="summarize a metrics CSV into quantile/CI tables")
        rep.add_argument("metrics", help="metrics CSV from simulate")
        rep.add_argument("--out", default="summary.csv", help="summary CSV path")
        rep.add_argument("--hist-bins", type=int, default=20)
        rep.add_argument("--hist-out", default=None, help="histogram CSV path (omit to skip histograms)")

    return parser


def _cmd_generate(args: argparse.Namespace) -> None:
    config = DesignConfig(
        t=args.posters,
        k=args.block_size,
        b=args.judges,
        seed=args.seed,
        max_attempts=args.max_attempts,
        faculty_count=args.faculty_count,
    )
    design, trace = generate(config, args.kind, restart_budget=args.restart_budget)
    write_design(args.out, design)
    print(
        f"command=generate kind={args.kind} posters={design.t} block_size={design.k} "
        f"judges={design.b} seed={args.seed} restarts={trace.restarts} "
        f"rejected_blocks={trace.rejected_blocks} out={args.out}"
    )


def _cmd_extend(args: argparse.Namespace) -> None:
    design = read_design(args.design, t=args.posters, seed=args.seed, max_attempts=args.max_attempts)
    extended = extend(design, args.blocks, args.kind)
    write_design(args.out, extended)
    print(
        f"command=extend kind={args.kind} blocks={extended.b} added={args.blocks} out={args.out}"
    )


def _cmd_validate(args: argparse.Namespace) -> None:
    design = read_design(args.design, t=args.posters)
    report = validate(design)
    print(
        f"command=validate blocks={design.b} spread={report.replication_spread} "
        f"max_lambda={report.max_concurrence} covered={format_cell(report.covered, bool)} "
        f"connected={format_cell(report.connected, bool)} "
        f"all_prefixes_connected={format_cell(report.all_prefixes_connected, bool)} "
        f"faculty_ok={format_cell(report.faculty_coverage_ok, bool)}"
    )
    problems: list[str] = []
    kind = GeneratorKind(args.kind) if args.kind else None
    if not report.covered:
        problems.append("not every poster is reviewed")
    if kind is not GeneratorKind.RANDOM and not report.connected:
        problems.append("the co-review graph is not connected")
    if kind in (GeneratorKind.NB1, GeneratorKind.NB2):
        if report.replication_spread > 1:
            problems.append(f"replication spread {report.replication_spread} exceeds 1")
        if not report.all_prefixes_connected:
            problems.append("a block prefix is not connected")
        if not report.faculty_coverage_ok:
            problems.append("a poster is missing from the faculty blocks")
    if kind is GeneratorKind.NB1 and report.max_concurrence > 1:
        problems.append(f"max pair concurrence {report.max_concurrence} exceeds 1")
    if problems:
        raise _ValidationFailure("; ".join(problems))


def _summary_path(out: str) -> str:
    if out.endswith(".csv"):
        return out[: -len(".csv")] + ".summary.csv"
    return out + ".summary.csv"


def _cmd_score(args: argparse.Namespace) -> None:
    design = read_design(args.design, t=args.posters)
    table = read_scores(args.scores, t=design.t, b=design.b, design=design)
    fit = fit_fixed(design, table) if args.model == "fixed" else fit_random(design, table)
    write_fit(args.out, fit)
    summary_path = args.summary_out or _summary_path(args.out)
    write_fit_summary(summary_path, fit)
    print(
        f"command=score model={fit.model_kind} grand_mean={format_cell(fit.grand_mean, float)} "
        f"var_judge={format_cell(fit.var_judge, float)} var_error={format_cell(fit.var_error, float)} "
        f"converged={format_cell(fit.converged, bool)} condition={format_cell(fit.condition_number, float)} "
        f"out={args.out} summary={summary_path}"
    )


def _cmd_simulate(args: argparse.Namespace) -> None:
    params = PRESETS[args.preset]
    fields = (field.name for field in dataclasses.fields(params))
    overrides = {name: getattr(args, name) for name in fields if getattr(args, name, None) is not None}
    params = dataclasses.replace(params, **overrides)
    # the metrics file and the failure count need no summary tables
    results = run_iterations(params)
    write_metrics(args.out, results)
    failures = sum(isinstance(outcome, str) for result in results for outcome in result.outcomes.values())
    designs = ",".join(kind.value for kind in params.designs)
    print(
        f"command=simulate preset={args.preset} iterations={params.iterations} "
        f"seed={params.seed} designs={designs} failures={failures} out={args.out}"
    )


def _cmd_report(args: argparse.Namespace) -> None:
    if args.hist_bins < 1:
        raise ValueError(f"--hist-bins must be >= 1, got {args.hist_bins}")
    results = read_metrics(args.metrics)
    kinds = tuple(results[0].outcomes)
    aggregates = aggregate_results(results, kinds)
    write_summary(args.out, **aggregates)
    line = f"command=report iterations={len(results)} designs={len(kinds)} out={args.out}"
    if args.hist_out:
        write_histogram(args.hist_out, results, kinds, args.hist_bins)
        line += f" hist={args.hist_out}"
    print(line)


_HANDLERS = {
    "generate": _cmd_generate,
    "extend": _cmd_extend,
    "validate": _cmd_validate,
    "score": _cmd_score,
    "simulate": _cmd_simulate,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # only the subcommand that runs is built; no arguments, an option first or an unknown command get them all
    command = argv[0] if argv and argv[0] in _HANDLERS else None
    args = build_parser(command).parse_args(argv)
    try:
        _HANDLERS[args.command](args)
    # FileFormatError is a ValueError, so the exit-2 clause comes first
    except (FileFormatError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except (NB1InfeasibleBudget, _ValidationFailure, DisconnectedDesign, SingularFit, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
