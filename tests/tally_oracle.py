"""The brute-force tally oracle shared by the design, generator and acceptance tests.

A nested loop over every block and every within-block pair: the
reference that nbibd's tallies (the `Design.replication` bincount, the
count of each pair code from `design._pair_codes`, and `validate`'s
`max_concurrence`) must match exactly.
"""

import numpy as np

from nbibd import validate
from nbibd.design import _pair_codes


def brute_force_tallies(t, blocks):
    """Replication and pair concurrence of blocks over t posters, one pair at a time."""
    replication = np.zeros(t, dtype=np.int64)
    concurrence = np.zeros((t, t), dtype=np.int64)
    for block in blocks:
        ids = block.poster_ids
        for position, a in enumerate(ids):
            replication[a] += 1
            for other in ids[position + 1 :]:
                concurrence[a, other] += 1
                concurrence[other, a] += 1
    return replication, concurrence


def tallies_match_oracle(design):
    """True when the design's tallies equal the oracle exactly.

    Exactly means an int64 replication equal to the oracle's; the pairs
    that meet, counted from their _pair_codes, equal to the non-zero
    upper triangle of the oracle's concurrence, pair by pair; and
    validate's max_concurrence equal to that concurrence's maximum.
    """
    replication, concurrence = brute_force_tallies(design.t, design.blocks)
    if design.replication.dtype != np.int64 or not np.array_equal(design.replication, replication):
        return False
    codes, counts = np.unique(_pair_codes(design.ids, design.t), return_counts=True)
    low, high = np.nonzero(np.triu(concurrence))
    return (
        np.array_equal(codes, low * design.t + high)
        and np.array_equal(counts, concurrence[low, high])
        and validate(design).max_concurrence == concurrence.max()
    )
