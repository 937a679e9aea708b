"""The per-attempt draw loop oracle shared by the generator tests.

Every attempt at every block redraws from scratch: a boolean mask of
the posters still open, the least review count among them, and the
stratum at that count, sampled with `rng.choice`.  An nb1 block that
collects max_attempts consecutive rejections restarts the design, after
every one of those attempts has drawn.  nbibd's generators must make
the same `rng.choice` calls with the same arguments, so they leave the
same ids, the same trace and the same bit generator state.
"""

import numpy as np


class OracleRestart(Exception):
    def __init__(self, rejected):
        self.rejected = rejected


def draw_anchor(replication, r_f, rng):
    reviewed = np.flatnonzero(replication > 0)
    weights = (r_f - replication[reviewed]).astype(np.float64)
    weights[weights < 0.0] = 0.0
    total = weights.sum()
    if total <= 0.0:
        return int(rng.choice(reviewed))
    return int(rng.choice(reviewed, p=weights / total))


def fill_least_reviewed(replication, members, k, rng):
    chosen = list(members)
    available = np.ones(replication.shape[0], dtype=bool)
    available[chosen] = False
    need = k - len(chosen)
    while need > 0:
        level = replication[available].min()
        candidates = np.flatnonzero(available & (replication == level))
        take = min(need, candidates.size)
        picks = rng.choice(candidates, size=take, replace=False)
        chosen.extend(int(p) for p in picks)
        available[picks] = False
        need -= take
    return chosen


def draw_block(index, config, kind, replication, rng):
    if kind == "random":
        unreviewed = np.flatnonzero(replication == 0)
        if unreviewed.size == 0:
            return [int(p) for p in rng.choice(config.t, size=config.k, replace=False)]
        take = min(config.k, unreviewed.size)
        members = [int(p) for p in rng.choice(unreviewed, size=take, replace=False)]
        if take < config.k:
            reviewed = np.flatnonzero(replication > 0)
            members.extend(int(p) for p in rng.choice(reviewed, size=config.k - take, replace=False))
        return members
    if index == 0:
        return [int(p) for p in rng.choice(config.t, size=config.k, replace=False)]
    members = []
    if index < config.b_min:
        members.append(draw_anchor(replication, config.r_f, rng))
    return fill_least_reviewed(replication, members, config.k, rng)


def pair_conflict(concurrence, members):
    return any(concurrence[a, b] for i, a in enumerate(members) for b in members[i + 1 :])


def append_blocks(config, kind, ids, start, replication, concurrence, rng):
    """Draw rows start.. of ids in place; returns the rejected count or raises OracleRestart."""
    rejected = 0
    for index in range(start, ids.shape[0]):
        discards = 0
        while True:
            members = draw_block(index, config, kind, replication, rng)
            if kind != "nb1" or not pair_conflict(concurrence, members):
                break
            rejected += 1
            discards += 1
            if discards >= config.max_attempts:
                raise OracleRestart(rejected)
        ids[index] = members
        for position, a in enumerate(members):
            replication[a] += 1
            if concurrence is not None:
                for b in members[position + 1 :]:
                    concurrence[a, b] += 1
                    concurrence[b, a] += 1
    return rejected


def oracle_generate(config, kind, restart_budget=50):
    """(ids, restarts, rejected, rng) of the full loop, or None once the budget runs out."""
    rng = np.random.Generator(np.random.PCG64(config.seed))
    restarts = rejected = 0
    while True:
        replication = np.zeros(config.t, dtype=np.int64)
        concurrence = np.zeros((config.t, config.t), dtype=np.int64) if kind == "nb1" else None
        ids = np.empty((config.b, config.k), dtype=np.int64)
        try:
            rejected += append_blocks(config, kind, ids, 0, replication, concurrence, rng)
        except OracleRestart as signal:
            rejected += signal.rejected
            restarts += 1
            if restarts > restart_budget:
                return None
            continue
        return ids, restarts, rejected, rng
