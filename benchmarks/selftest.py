"""Show that each output check passes on real output and rejects a planted error.

    python3 benchmarks/selftest.py

Prints one line per case and exits 1 if any check lets its planted
error through or rejects the program's correct output.
"""

from __future__ import annotations

import math
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from workloads import call_cli, draw_scores  # noqa: E402

from nbibd import DesignConfig, ScoreTable, fit_fixed, fit_random, generate  # noqa: E402

T, K, B = 40, 5, 20
outcomes: list[bool] = []


def expect(label: str, check, *args, passes: bool) -> None:
    try:
        check(*args)
        ok = passes
        detail = "accepted"
    except CheckFailed as error:
        ok = not passes
        detail = f"rejected: {error}"
    outcomes.append(ok)
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {detail}")


def pair_counts(blocks) -> dict[tuple[int, int], int]:
    counts: dict[tuple[int, int], int] = {}
    for block in blocks:
        for i, a in enumerate(block):
            for b in block[i + 1 :]:
                pair = (min(a, b), max(a, b))
                counts[pair] = counts.get(pair, 0) + 1
    return counts


def exchange_repeating_a_pair(blocks):
    """Exchange one poster between two blocks so replication holds but some pair meets twice."""
    for i, first in enumerate(blocks):
        for j in range(i + 1, len(blocks)):
            second = blocks[j]
            for a in first:
                for b in second:
                    if a in second or b in first:
                        continue
                    changed = list(blocks)
                    changed[i] = tuple(b if p == a else p for p in first)
                    changed[j] = tuple(a if p == b else p for p in second)
                    if max(pair_counts(changed).values()) > 1:
                        return changed
    raise RuntimeError("no exchange repeats a pair")


def design_cases() -> None:
    for kind in checks.KINDS:
        design, _ = generate(DesignConfig(t=T, k=K, b=B, seed=3), kind)
        blocks = [block.poster_ids for block in design.blocks]
        expect(f"{kind} design recount", checks.check_design, blocks, T, K, kind, passes=True)

    design, _ = generate(DesignConfig(t=T, k=K, b=B, seed=3), "nb1")
    blocks = [block.poster_ids for block in design.blocks]
    repeated = list(blocks)
    repeated[4] = (blocks[4][0],) + blocks[4][:-1]
    expect("poster repeated in a block", checks.check_design, repeated, T, K, "nb2", passes=False)
    outside = list(blocks)
    outside[4] = blocks[4][:-1] + (T,)
    expect("poster id >= t", checks.check_design, outside, T, K, "random", passes=False)
    replication = np.bincount(np.array(blocks).ravel(), minlength=T)
    low, high = int(np.argmin(replication)), int(np.argmax(replication))
    swapped = list(blocks)
    position = next(i for i, block in enumerate(blocks) if low in block and high not in block)
    swapped[position] = tuple(high if p == low else p for p in blocks[position])
    expect("one poster swapped in a block (spread)", checks.check_design, swapped, T, K, "nb2", passes=False)
    exchanged = exchange_repeating_a_pair(blocks)
    expect("exchange repeating a pair (nb1)", checks.check_design, exchanged, T, K, "nb1", passes=False)
    first = set(blocks[0])
    late = next(i for i, block in enumerate(blocks) if i > 1 and not first & set(block))
    reordered = list(blocks)
    reordered[1], reordered[late] = blocks[late], blocks[1]
    expect("block order leaves prefix 2 disconnected", checks.check_design, reordered, T, K, "nb2", passes=False)

    b_min = design.config.b_min
    flags = [i < b_min for i in range(B)]
    expect("faculty prefix", checks.check_faculty_prefix, flags, b_min, passes=True)
    flags[2] = False
    expect("faculty flag cleared on row 3", checks.check_faculty_prefix, flags, b_min, passes=False)

    before = "judge_index,faculty\n0,true,1,2\n"
    expect("arrival appends one row", checks.check_rows_kept, before, before + "1,false,2,3\n", passes=True)
    edited = before.replace("1,2", "1,3") + "1,false,2,3\n"
    expect("arrival edits an earlier row", checks.check_rows_kept, before, edited, passes=False)
    two_rows = before + "1,false,2,3\n2,false,3,4\n"
    expect("arrival appends two rows", checks.check_rows_kept, before, two_rows, passes=False)


def study_cases(workdir: Path) -> None:
    metrics, summary = str(workdir / "metrics.csv"), str(workdir / "summary.csv")
    code, line = call_cli(["simulate", "--preset", "paper", "--iterations", "2", "--seed", "1", "--out", metrics])
    assert code == 0, line
    expect("simulate line", checks.check_simulate_line, line, 2, passes=True)
    failing = line.replace("failures=0", "failures=1")
    expect("simulate line with failures=1", checks.check_simulate_line, failing, 2, passes=False)
    expect("metrics file", checks.check_metrics_file, metrics, 2, passes=True)
    text = Path(metrics).read_text(encoding="utf-8")
    lines = text.splitlines(keepends=True)

    def planted(label: str, changed: str) -> None:
        path = workdir / "planted.csv"
        path.write_text(changed, encoding="utf-8")
        expect(label, checks.check_metrics_file, str(path), 2, passes=False)

    planted("metrics file missing a row", "".join(lines[:-1]))
    row = lines[1].rstrip("\n").split(",")
    for column, value, label in (
        (2, repr(float(row[2]) + 0.01), "win_prop off the 1/awards grid"),
        (5, "-1.0", "negative mean_se"),
        (4, "nan", "non-finite mean_score_dev"),
        (6, "true", "nb1 row disconnected"),
    ):
        changed = list(row)
        changed[column] = value
        planted(label, "".join(lines[:1] + [",".join(changed) + "\n"] + lines[2:]))

    code, _ = call_cli(["report", metrics, "--out", summary])
    assert code == 0
    expect("report file", checks.check_report_file, summary, passes=True)
    with open(summary, "a", encoding="utf-8") as handle:
        handle.write("count,nb1,failed,1" + "," * 9 + "\n")
    expect("report counting a failed fit", checks.check_report_file, summary, passes=False)


def fit_cases() -> None:
    design, _ = generate(DesignConfig(t=T, k=K, b=B, seed=5), "nb1")
    blocks = [block.poster_ids for block in design.blocks]
    judges, posters, y = draw_scores(blocks, T, B, np.random.default_rng(5))
    table = ScoreTable(judges, posters, y, t=T, b=B)
    fit = fit_random(design, table)
    theta = fit.var_judge / fit.var_error
    assert theta > 0.0, "pick a seed whose REML estimate is interior"
    shifted = fit.pmm.copy()
    shifted[7] += 1e-3
    obs = (judges, posters, y)

    dense = checks.check_random_fit_dense
    expect("random fit vs dense GLS/REML", dense, *obs, B, T, fit.pmm, theta, passes=True)
    expect("random pmm shifted 1e-3 (dense)", dense, *obs, B, T, shifted, theta, passes=False)
    wrong_theta = theta * math.exp(0.2)
    _, at_wrong = checks.dense_reml(*checks.incidence(judges, posters, B, T), y, wrong_theta)
    expect("theta moved off the REML optimum", dense, *obs, B, T, at_wrong, wrong_theta, passes=False)
    normal = checks.check_random_fit_normal_equations
    expect("random fit vs normal equations", normal, *obs, T, K, fit.pmm, theta, passes=True)
    expect("random pmm shifted 1e-3 (normal equations)", normal, *obs, T, K, shifted, theta, passes=False)

    fixed = fit_fixed(design, table)
    moved = fixed.pmm.copy()
    moved[7] += 1e-3
    var_error = fixed.var_error
    expect("fixed fit identities", checks.check_fixed_fit, *obs, T, B, fixed.pmm, var_error, passes=True)
    expect("fixed pmm shifted 1e-3", checks.check_fixed_fit, *obs, T, B, moved, var_error, passes=False)
    expect("fixed pmm shifted by a constant", checks.check_fixed_fit, *obs, T, B, fixed.pmm + 1e-3, var_error, passes=False)
    expect("fixed var_error off by 1e-6", checks.check_fixed_fit, *obs, T, B, fixed.pmm, var_error * (1 + 1e-6), passes=False)

    expect("ranks follow pmm", checks.check_ranks, fit.pmm, fit.rank, passes=True)
    swapped = fit.rank.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    expect("two ranks swapped", checks.check_ranks, fit.pmm, swapped, passes=False)


def main() -> int:
    design_cases()
    with tempfile.TemporaryDirectory(dir=ROOT) as workdir:
        study_cases(Path(workdir))
    fit_cases()
    failed = outcomes.count(False)
    print(f"{len(outcomes) - failed} of {len(outcomes)} cases behave as expected")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
