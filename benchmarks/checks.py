"""Output checks computed apart from nbibd.

Every check reads the program's outputs (CSV files or returned arrays)
and recomputes what they must satisfy with code of its own: a recount of
the blocks, a union-find, dense generalized least squares and REML, and
the fixed-judge residual identities.  A check that fails raises
CheckFailed with a message naming what went wrong.
"""

from __future__ import annotations

import csv
import math

import numpy as np

PAPER_AWARDS = 30
KINDS = ("nb1", "nb2", "random")
METRICS_HEADER = [
    "iteration",
    "design",
    "win_prop",
    "median_rank_dev",
    "mean_score_dev",
    "mean_se",
    "disconnected",
]
# pmm agreement at the same theta; a planted 1e-3 shift must stay far outside it
PMM_TOL = 1e-6
REL_TOL = 1e-8


class CheckFailed(AssertionError):
    """An output of the program does not satisfy an independent check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def key_values(line: str) -> dict[str, str]:
    """Parse one `key=value key=value` line printed by the command line tool."""
    return dict(field.split("=", 1) for field in line.split() if "=" in field)


def read_rows(path: str) -> list[list[str]]:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


# ---------------------------------------------------------------- designs


def parse_design(path: str) -> tuple[list[bool], list[tuple[int, ...]]]:
    """Faculty flags and blocks of a design CSV, read without nbibd."""
    rows = read_rows(path)
    require(len(rows) >= 2, f"{path}: no blocks")
    require(rows[0][:2] == ["judge_index", "faculty"], f"{path}: bad header {rows[0]}")
    flags, blocks = [], []
    for position, row in enumerate(rows[1:]):
        require(int(row[0]) == position, f"{path}: judge_index {row[0]} at position {position}")
        require(row[1] in ("true", "false"), f"{path}: faculty cell {row[1]!r}")
        flags.append(row[1] == "true")
        blocks.append(tuple(int(cell) for cell in row[2:]))
    return flags, blocks


def prefix_components(t: int, blocks) -> list[int]:
    """Components among reviewed posters after each block, by a union-find of our own."""
    parent = list(range(t))

    def root(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    seen: set[int] = set()
    merges = 0
    components = []
    for block in blocks:
        seen.update(block)
        for other in block[1:]:
            a, b = root(block[0]), root(other)
            if a != b:
                parent[b] = a
                merges += 1
        components.append(len(seen) - merges)
    return components


def check_design(blocks, t: int, k: int, kind: str) -> None:
    """Recount a design from its blocks and check the invariants of its kind."""
    replication = [0] * t
    pairs: dict[tuple[int, int], int] = {}
    for position, block in enumerate(blocks):
        require(len(block) == k, f"block {position} has {len(block)} posters, expected {k}")
        require(len(set(block)) == k, f"block {position} repeats a poster: {block}")
        for poster in block:
            require(0 <= poster < t, f"block {position} names poster {poster} outside [0, {t})")
            replication[poster] += 1
        for i, a in enumerate(block):
            for b in block[i + 1 :]:
                pair = (min(a, b), max(a, b))
                pairs[pair] = pairs.get(pair, 0) + 1
    require(min(replication) >= 1, f"{kind}: {replication.count(0)} posters never reviewed")
    if kind in ("nb1", "nb2"):
        spread = max(replication) - min(replication)
        require(spread <= 1, f"{kind}: replication spread {spread} exceeds 1")
        components = prefix_components(t, blocks)
        bad = [i + 1 for i, count in enumerate(components) if count != 1]
        require(not bad, f"{kind}: prefixes of length {bad[:5]} are not connected")
    if kind == "nb1":
        worst = max(pairs.values())
        require(worst <= 1, f"nb1: a pair of posters meets {worst} times")


def check_faculty_prefix(flags: list[bool], b_min: int) -> None:
    expected = [True] * b_min + [False] * (len(flags) - b_min)
    require(flags == expected, f"faculty rows are not exactly the first {b_min} rows")


def check_rows_kept(before: str, after: str) -> None:
    """After one arrival the file holds the earlier text unchanged plus one row."""
    require(after.startswith(before), "an arrival changed an earlier row of the design file")
    added = after[len(before) :]
    require(added.count("\n") == 1 and added.endswith("\n"), f"an arrival added {added!r}")


# ------------------------------------------------------------ study files


def check_simulate_line(line: str, iterations: int) -> None:
    fields = key_values(line)
    require(fields.get("command") == "simulate", f"unexpected simulate output {line!r}")
    require(fields.get("failures") == "0", f"simulate reported failures: {line!r}")
    require(fields.get("iterations") == str(iterations), f"simulate ran {fields.get('iterations')} iterations")


def check_metrics_file(path: str, iterations: int, awards: int = PAPER_AWARDS) -> None:
    rows = read_rows(path)
    require(rows and rows[0] == METRICS_HEADER, f"{path}: bad metrics header")
    body = rows[1:]
    require(len(body) == iterations * len(KINDS), f"{path}: {len(body)} rows, expected {iterations * len(KINDS)}")
    seen = set()
    for row in body:
        iteration, kind = int(row[0]), row[1]
        require(0 <= iteration < iterations and kind in KINDS, f"{path}: unexpected row {row[:2]}")
        require((iteration, kind) not in seen, f"{path}: duplicate row {row[:2]}")
        seen.add((iteration, kind))
        win = float(row[2])
        slots = win * awards
        on_grid = 0.0 <= win <= 1.0 and abs(slots - round(slots)) < 1e-9
        require(on_grid, f"{path}: win_prop {win} is not a multiple of 1/{awards} in [0, 1]")
        for column, name in ((4, "mean_score_dev"), (5, "mean_se")):
            value = float(row[column])
            require(math.isfinite(value) and value > 0.0, f"{path}: {name} {value} is not finite and positive")
        if kind in ("nb1", "nb2"):
            require(row[6] == "false", f"{path}: {kind} design disconnected at iteration {iteration}")


def check_report_file(path: str) -> None:
    rows = read_rows(path)
    require(len(rows) > 1 and rows[0][:3] == ["section", "name", "metric"], f"{path}: empty or malformed summary")
    failed = [row for row in rows[1:] if row[0] == "count" and row[2] == "failed" and row[3] != "0"]
    require(not failed, f"{path}: report counts failed fits {failed}")


# ------------------------------------------------------------------ fits


def incidence(judges: np.ndarray, posters: np.ndarray, b: int, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense n-by-t poster and n-by-b judge indicator matrices."""
    rows = np.arange(judges.size)
    x = np.zeros((judges.size, t))
    z = np.zeros((judges.size, b))
    x[rows, posters] = 1.0
    z[rows, judges] = 1.0
    return x, z


def dense_reml(x: np.ndarray, z: np.ndarray, y: np.ndarray, theta: float) -> tuple[float, np.ndarray]:
    """Profiled -2 restricted log likelihood and GLS estimate with the n-by-n covariance."""
    n, p = x.shape
    v = np.eye(n) + theta * (z @ z.T)
    v_inv = np.linalg.inv(v)
    information = x.T @ v_inv @ x
    beta = np.linalg.solve(information, x.T @ v_inv @ y)
    residual = y - x @ beta
    sigma2 = float(residual @ v_inv @ residual) / (n - p)
    logdet_v = np.linalg.slogdet(v)[1]
    logdet_a = np.linalg.slogdet(information)[1]
    criterion = (n - p) * (math.log(2 * math.pi) + 1.0 + math.log(sigma2)) + logdet_v + logdet_a
    return criterion, beta


def check_random_fit_dense(judges, posters, y, b: int, t: int, pmm: np.ndarray, theta: float) -> None:
    """pmm is the dense GLS solve at theta, and theta is a local REML optimum."""
    x, z = incidence(judges, posters, b, t)
    criterion, beta = dense_reml(x, z, y, theta)
    gap = float(np.max(np.abs(beta - pmm)))
    require(gap <= PMM_TOL, f"pmm differs from the dense GLS solve by {gap:.3e}")
    if theta == 0.0:
        return
    for factor in (math.exp(-0.01), math.exp(0.01)):
        neighbour = dense_reml(x, z, y, theta * factor)[0]
        require(
            neighbour >= criterion - REL_TOL * abs(criterion),
            f"REML at theta*{factor:.4f} beats the fitted theta={theta:.6g} ({neighbour:.9f} < {criterion:.9f})",
        )


def check_random_fit_normal_equations(judges, posters, y, t: int, k: int, pmm: np.ndarray, theta: float) -> None:
    """pmm solves the GLS normal equations built judge by judge from (I + theta J)^-1 = I - s J."""
    shrink = theta / (1.0 + k * theta)
    system = np.zeros((t, t))
    rhs = np.zeros(t)
    order = np.argsort(judges, kind="stable")
    for start in range(0, judges.size, k):
        rows = order[start : start + k]
        require(np.all(judges[rows] == judges[rows[0]]), "judges do not all score k posters")
        members = posters[rows]
        system[members, members] += 1.0
        system[np.ix_(members, members)] -= shrink
        rhs[members] += y[rows] - shrink * y[rows].sum()
    beta = np.linalg.solve(system, rhs)
    gap = float(np.max(np.abs(beta - pmm)))
    require(gap <= PMM_TOL, f"random fit pmm differs from the GLS normal equations by {gap:.3e}")


def check_fixed_fit(judges, posters, y, t: int, b: int, pmm: np.ndarray, var_error: float) -> None:
    """Judge effects as block means of y - pmm leave zero residual sums per poster."""
    deviation = y - pmm[posters]
    sizes = np.bincount(judges, minlength=b)
    effects = np.bincount(judges, weights=deviation, minlength=b) / sizes
    residual = deviation - effects[judges]
    scale = float(np.max(np.abs(y)))
    per_poster = np.bincount(posters, weights=residual, minlength=t)
    worst = float(np.max(np.abs(per_poster)))
    require(worst <= 1e-8 * scale, f"fixed fit residuals sum to {worst:.3e} on some poster")
    total = abs(float(effects.sum()))
    require(total <= 1e-8 * scale * b, f"fixed fit judge effects sum to {total:.3e}, not zero")
    rss = float(residual @ residual)
    expected = rss / (y.size - t - b + 1)
    require(
        abs(var_error - expected) <= REL_TOL * expected,
        f"var_error {var_error!r} != RSS/(n - t - b + 1) = {expected!r}",
    )


def check_ranks(pmm: np.ndarray, rank: np.ndarray) -> None:
    """Ranks are a permutation of 1..t that orders pmm from best, ties to the lower id."""
    t = pmm.size
    require(sorted(rank.tolist()) == list(range(1, t + 1)), "ranks are not a permutation of 1..t")
    order = sorted(range(t), key=lambda poster: (-pmm[poster], poster))
    expected = np.empty(t, dtype=np.int64)
    expected[order] = np.arange(1, t + 1)
    require(np.array_equal(rank, expected), "ranks do not follow pmm")


def read_fit_file(path: str, t: int) -> tuple[np.ndarray, np.ndarray]:
    rows = read_rows(path)
    require(rows and rows[0] == ["poster_id", "pmm", "se", "rank"], f"{path}: bad fit header")
    require(len(rows) == t + 1, f"{path}: {len(rows) - 1} posters, expected {t}")
    pmm = np.array([float(row[1]) for row in rows[1:]])
    rank = np.array([int(row[3]) for row in rows[1:]], dtype=np.int64)
    require([int(row[0]) for row in rows[1:]] == list(range(t)), f"{path}: poster ids out of order")
    return pmm, rank


def read_fit_summary(path: str) -> dict[str, str]:
    rows = read_rows(path)
    require(len(rows) == 2, f"{path}: expected one summary row")
    return dict(zip(rows[0], rows[1]))
