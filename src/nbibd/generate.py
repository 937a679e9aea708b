"""Sequential generators for near-balanced and random judge assignments.

All randomness flows through numpy's PCG64 bit generator, so a seed and a
kind fully determine the output on every platform.  Every kind builds
the design one judge at a time, and every block is one draw from the
least-reviewed posters upward.  The near-balanced generators group the
posters by review count; within the first b_min blocks each new judge
is also anchored to an already-reviewed poster (the faculty phase).
nb1 additionally rejects any candidate block that would let a pair of
posters meet twice, erasing everything and restarting once a single
block exhausts its attempt budget; a shape where counting alone rules
out such a design is rejected before anything is drawn.  The random
baseline only guarantees coverage: its two levels are unreviewed and
reviewed, so it drains the unreviewed pool, tops the block up from
reviewed posters, then samples blocks uniformly.  Blocks are drawn into
the rows of a preallocated (b, k) poster-id array, which becomes the
Design; block j is a faculty block when j < config.faculty_blocks.

Work whose answer is known is skipped, never the random draws: the
review-count strata are built once per block and shared by its rejected
draws, and an nb1 block whose every draw must take the same conflicting
posters draws its remaining attempts without checking them and restarts.
nb1 keeps the pairs that have met as a set of codes a*t + b (a < b),
seeded from the rows already drawn; no kind forms the t x t pair tally.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from itertools import combinations

import numpy as np

from .design import Design, DesignConfig

__all__ = [
    "GeneratorKind",
    "GenerationTrace",
    "NB1InfeasibleBudget",
    "generate",
    "extend",
]


class GeneratorKind(str, Enum):
    NB1 = "nb1"
    NB2 = "nb2"
    RANDOM = "random"


@dataclass(frozen=True)
class GenerationTrace:
    """Bookkeeping from one generate() call.

    restarts counts full from-scratch restarts (always 0 for nb2 and
    random); rejected_blocks counts candidate blocks discarded by the
    pair-concurrence check; seed_used echoes the stream seed.
    """

    restarts: int
    rejected_blocks: int
    seed_used: int


class NB1InfeasibleBudget(RuntimeError):
    """No nb1 design: counting rules out the shape, or the restart budget ran out first."""


class _RestartSignal(Exception):
    def __init__(self, rejected: int):
        self.rejected = rejected


def _new_stream(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _strata(replication: np.ndarray, k: int) -> list[np.ndarray]:
    """Posters grouped by review count, least-reviewed group first, each in ascending id order.

    Built once per block; every draw for the block, accepted or
    rejected, reads the same groups.  The all-zero tally of block 0
    gives the one group arange(t).  The random baseline passes its tally
    clipped at 1, so its groups are the unreviewed and then the reviewed
    posters, and arange(t) again once every poster is covered.  A draw
    never reads past a group of k or more posters, so when the
    least-reviewed group is that large it is the only one built;
    otherwise one stable argsort builds them all.
    """
    lowest = np.flatnonzero(replication == replication.min())
    if lowest.size >= k:
        return [lowest]
    order = np.argsort(replication, kind="stable")
    ends = np.cumsum(np.bincount(replication)).tolist()
    return [order[low:high] for low, high in zip([0, *ends[:-1]], ends) if high > low]


def _anchor_pool(replication: np.ndarray, r_f: int) -> tuple[np.ndarray, np.ndarray | None]:
    """The reviewed posters a faculty-phase block may anchor on, and their draw probabilities.

    Weight r_f - r_i; posters already at the cap are excluded.  Should
    every reviewed poster sit at the cap (possible only for degenerate
    shapes, never at realistic session sizes before block b_min), the
    probabilities are None and the anchor is drawn uniformly, so the
    algorithm stays total.  Built once per block.
    """
    reviewed = np.flatnonzero(replication > 0)
    weights = (r_f - replication[reviewed]).astype(np.float64)
    weights[weights < 0.0] = 0.0
    total = weights.sum()
    return reviewed, (weights / total if total > 0.0 else None)


def _draw_block(
    strata: list[np.ndarray],
    anchors: tuple[np.ndarray, np.ndarray | None] | None,
    k: int,
    rng: np.random.Generator,
) -> list[int]:
    """One candidate block of any kind: the faculty anchor when there is one, then the least-reviewed fill.

    The fill samples the strata from the least-reviewed upward, taking
    each whole until the last one, sampled; the anchor's stratum offers
    it no more.
    """
    members: list[int] = []
    anchor: int | None = None
    if anchors is not None:
        reviewed, probabilities = anchors
        anchor = int(rng.choice(reviewed, p=probabilities))
        members.append(anchor)
    for stratum in strata:
        need = k - len(members)
        if need == 0:
            break
        if anchor is not None:
            stratum = stratum[stratum != anchor]
        take = min(need, stratum.size)
        if take:
            members.extend(rng.choice(stratum, size=take, replace=False).tolist())
    return members


def _pair_codes(members: list[int], t: int) -> list[int]:
    """Each pair a < b of distinct members as the code a*t + b, in ascending (a, b) order."""
    return [a * t + b for a, b in combinations(sorted(members), 2)]


def _met_pair(met: set[int], t: int, members: list[int]) -> tuple[int, int] | None:
    """The first pair of members whose code is in met, in ascending id order, or None."""
    for code in _pair_codes(members, t):
        if code in met:
            return divmod(code, t)
    return None


def _append_blocks(
    config: DesignConfig,
    kind: GeneratorKind,
    ids: np.ndarray,
    start: int,
    replication: np.ndarray,
    rng: np.random.Generator,
    stop_at_dead_end: bool = False,
) -> int:
    """Draw rows start.. of ids in place, updating replication; returns the rejected count.

    Every block of every kind is one _draw_block over strata built once,
    before its first draw, since the tallies only change when a block is
    accepted: the random baseline reads its tally clipped at 1, so its
    strata are the unreviewed and the reviewed posters, and a block in
    (0, b_min) of nb1 and nb2 also draws a faculty anchor.  nb1 discards
    any candidate that would let a pair of posters meet twice, checked
    against the pair codes of rows ..start and of each accepted block,
    and raises _RestartSignal once a single block has collected
    config.max_attempts consecutive discards.  A discard past the
    faculty phase is forced when its posters are exactly the k reviewed
    at most as often as the most-reviewed of them: every stratum it
    touched was taken whole, so every later attempt draws the same
    posters and meets the same pair.  Then the remaining attempts are
    drawn unchecked, count as discards, and _RestartSignal follows.
    stop_at_dead_end is for extend, which may not restart: it raises
    NB1InfeasibleBudget in place of _RestartSignal, and already at a
    forced discard.
    """
    rejected = 0
    b_min, t = config.b_min, config.t
    near_balanced = kind is not GeneratorKind.RANDOM
    nb1 = kind is GeneratorKind.NB1
    met = {code for row in ids[:start].tolist() for code in _pair_codes(row, t)} if nb1 else set()
    covered = False
    for index in range(start, ids.shape[0]):
        if near_balanced:
            strata = _strata(replication, config.k)
        elif not covered:
            strata = _strata(np.minimum(replication, 1), config.k)
            # one stratum of all t posters comes from an all-zero or an all-reviewed tally; from the
            # latter the clipped tally, and so the strata, stay the same for every later block
            covered = strata[0].size == config.t and replication[0] > 0
        anchors = _anchor_pool(replication, config.r_f) if near_balanced and 0 < index < b_min else None
        discards = 0
        while True:
            members = _draw_block(strata, anchors, config.k, rng)
            pair = _met_pair(met, t, members) if nb1 else None
            if pair is None:
                break
            rejected += 1
            discards += 1
            if index >= b_min and np.count_nonzero(replication <= replication[members].max()) == config.k:
                if stop_at_dead_end:
                    raise NB1InfeasibleBudget(
                        f"nb1 cannot extend block {index} at t={config.t}, k={config.k}: every draw takes the "
                        f"same {config.k} least-reviewed posters (review count at most "
                        f"{replication[members].max()}), and posters {pair[0]} and {pair[1]} among them have "
                        f"already met; an nb2 continuation can finish the session"
                    )
                remaining = config.max_attempts - discards
                for _ in range(remaining):
                    _draw_block(strata, anchors, config.k, rng)
                raise _RestartSignal(rejected + remaining)
            if discards >= config.max_attempts:
                if stop_at_dead_end:
                    raise NB1InfeasibleBudget(
                        f"no pair-compatible block found after {config.max_attempts} attempts while extending "
                        f"block {index} at t={config.t}, k={config.k}"
                    )
                raise _RestartSignal(rejected)
        ids[index] = members
        replication[members] += 1
        if nb1:
            met.update(_pair_codes(members, t))
    return rejected


def _nb1_counting_fault(t: int, k: int, b: int) -> str | None:
    """Why no nb1 design exists at (t, k, b) by counting, or None when the bound holds.

    Some poster is reviewed at least ceil(bk/t) times, and with no pair
    meeting twice each review needs k-1 partners it has not met among the
    other t-1 posters, so ceil(bk/t)*(k-1) > t-1 rules nb1 out.
    """
    busiest = -(-b * k // t)
    if busiest * (k - 1) <= t - 1:
        return None
    return (
        f"no nb1 design exists at t={t}, k={k}, b={b}: some poster is reviewed at least "
        f"ceil(bk/t) = {busiest} times, and meeting k-1 = {k - 1} new posters each time takes "
        f"{busiest * (k - 1)} > t-1 = {t - 1} partners"
    )


def generate(
    config: DesignConfig,
    kind: GeneratorKind | str,
    restart_budget: int = 50,
) -> tuple[Design, GenerationTrace]:
    """Generate a design of the requested kind from config.seed.

    nb1 discards candidate blocks that would let any poster pair meet
    twice; once one block accumulates config.max_attempts consecutive
    discards the whole design is erased and rebuilt.  The restart
    continues the same random stream, so a given seed still yields
    exactly one output.  After restart_budget restarts the parameter
    combination is deemed infeasible and NB1InfeasibleBudget is raised;
    a negative restart_budget raises ValueError.  nb1 raises
    NB1InfeasibleBudget before it draws when the counting bound
    ceil(bk/t)*(k-1) <= t-1 fails (_nb1_counting_fault).  The random
    baseline raises ValueError when b*k < t, since it promises coverage.
    """
    if restart_budget < 0:
        raise ValueError(f"restart_budget must be >= 0, got {restart_budget}")
    kind = GeneratorKind(kind)
    if kind is GeneratorKind.RANDOM and config.b * config.k < config.t:
        raise ValueError(f"cannot cover {config.t} posters with {config.b} blocks of size {config.k}")
    if kind is GeneratorKind.NB1:
        fault = _nb1_counting_fault(config.t, config.k, config.b)
        if fault is not None:
            raise NB1InfeasibleBudget(fault)
    rng = _new_stream(config.seed)
    restarts = 0
    rejected_total = 0
    while True:
        replication = np.zeros(config.t, dtype=np.int64)
        ids = np.empty((config.b, config.k), dtype=np.int64)
        try:
            rejected_total += _append_blocks(config, kind, ids, 0, replication, rng)
        except _RestartSignal as signal:
            rejected_total += signal.rejected
            restarts += 1
            if restarts > restart_budget:
                raise NB1InfeasibleBudget(
                    f"gave up after {restarts - 1} restarts at t={config.t}, k={config.k}, b={config.b}; "
                    f"a pairwise-concurrence-1 design likely does not exist for these parameters"
                ) from None
            continue
        design = Design(config, ids)
        return design, GenerationTrace(restarts=restarts, rejected_blocks=rejected_total, seed_used=config.seed)


def extend(design: Design, additional_blocks: int, kind: GeneratorKind | str) -> Design:
    """Append blocks to a design without touching the existing prefix.

    The continuation draws from a fresh PCG64 stream seeded by
    SeedSequence([config.seed, current block count]), so extension is
    deterministic without replaying the original generation.  An nb1
    extension raises NB1InfeasibleBudget as soon as one block exhausts
    max_attempts: restarting from scratch would revise the prefix, which
    this operation promises never to do.  It raises at the first
    rejected draw already when the draw was forced (past the faculty
    phase, every least-reviewed stratum it touched taken whole), since
    every later attempt would draw the same posters.  nb1 reads the pairs
    that met in the prefix from its rows; no kind forms the t x t pair
    tally.
    The result's id array is new, its first rows a copy of design.ids;
    appended block j is faculty when j < faculty_blocks.
    """
    kind = GeneratorKind(kind)
    if additional_blocks < 0:
        raise ValueError(f"additional_blocks must be >= 0, got {additional_blocks}")
    if additional_blocks == 0:
        return design

    config = replace(design.config, b=design.b + additional_blocks)
    start = design.b
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=[config.seed, start])))
    ids = np.empty((config.b, config.k), dtype=np.int64)
    ids[:start] = design.ids
    replication = design.replication.copy()
    _append_blocks(config, kind, ids, start, replication, rng, stop_at_dead_end=True)
    return Design(config, ids)
