"""The brute-force tally oracle shared by the design, generator and acceptance tests.

A nested loop over every block and every within-block pair: the
reference that nbibd's bincount tallies (`Design.replication` and
`Design.concurrence`) must match exactly.
"""

import numpy as np


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

    Exactly means equal values, int64 dtype and a zero concurrence
    diagonal.
    """
    expected = brute_force_tallies(design.t, design.blocks)
    for produced, wanted in zip((design.replication, design.concurrence), expected):
        if produced.dtype != np.int64 or not np.array_equal(produced, wanted):
            return False
    return not np.diagonal(design.concurrence).any()
