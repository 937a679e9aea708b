"""Data model and structural checks for judge-to-poster block designs.

A design assigns each judge (a block) a fixed number of distinct posters
(treatments).  This module holds the core types, the exact feasibility
arithmetic for fully balanced designs, and the validators: replication
balance, pair concurrence, coverage, and connectivity of every generation
prefix.  The generators call no validator; they share Design's block rule.

A design is its read-only (b, k) array of poster ids, row j being judge
j's block; block j is a faculty block when j < config.faculty_blocks.
The replication tally is a bincount over that array and the Block views
are derived on first use; pairs are read as the codes a*t + b (a < b)
of _pair_codes, so no t x t array is ever formed.

Design(config, ids), Design.from_blocks and read_design name the same
first faulty block for the same reason: all three ask _first_fault.

A design is connected when every poster is reviewed and the co-review
graph has one component: is_connected links each block's first poster
to the rest and hooks roots together until every link joins one root.
Every prefix is connected, among the posters it reviews, iff each block
j >= 1 holds a poster first seen before block j: by induction on
prefixes, a block that shares a poster with a connected prefix joins its
component and a block of unseen posters starts a new one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Iterable

import numpy as np

from ._util import FileFormatError, parse_columns, read_csv, write_csv

__all__ = [
    "DesignConfig",
    "Block",
    "Design",
    "ValidationReport",
    "lambda_of",
    "required_blocks",
    "min_connect_blocks",
    "max_faculty_reviews",
    "is_connected",
    "validate",
    "write_design",
    "read_design",
]


def lambda_of(r: int, k: int, t: int) -> Fraction:
    """Pair concurrence forced by (r, k, t) in a fully balanced design.

    Each of a poster's r reviews pairs it with k-1 companions, and those
    r(k-1) companion slots must be shared equally by the other t-1
    posters, so every pair must meet exactly r(k-1)/(t-1) times.  The
    value is returned as an exact rational; a balanced design can only
    exist when it is an integer (``result.denominator == 1``).
    """
    if t < 2:
        raise ValueError(f"need at least 2 posters, got t={t}")
    if k < 2:
        raise ValueError(f"block size must be at least 2, got k={k}")
    if r < 1:
        raise ValueError(f"replicate count must be at least 1, got r={r}")
    return Fraction(r * (k - 1), t - 1)


def required_blocks(t: int, r: int, k: int) -> Fraction:
    """Judges needed so every one of t posters is reviewed r times, k per judge.

    Returns the exact rational t*r/k; the plan is realizable with equal
    replication only when it is an integer (``result.denominator == 1``).
    """
    if t < 1 or r < 1:
        raise ValueError(f"counts must be positive, got t={t}, r={r}")
    if k < 1:
        raise ValueError(f"block size must be positive, got k={k}")
    return Fraction(t * r, k)


def min_connect_blocks(t: int, k: int) -> int:
    """Leading blocks needed to guarantee coverage and connectivity.

    ceil(t / (k-1)): the first block reaches k posters and each later
    block anchors on a reviewed poster, reaching at most k-1 new ones.
    Deliberately one more than the tight bound ceil((t-1)/(k-1)) would
    give in some cases, trading a block of slack for a simpler rule.
    """
    if not 2 <= k <= t:
        raise ValueError(f"need 2 <= k <= t, got k={k}, t={t}")
    return -(-t // (k - 1))


def max_faculty_reviews(t: int, k: int) -> int:
    """Per-poster review cap while the first min_connect_blocks blocks fill.

    ceil(b_min * k / t): the faculty phase hands out b_min*k reviews, so
    capping each poster near the average keeps the phase balanced.
    """
    b_min = min_connect_blocks(t, k)
    return -(-(b_min * k) // t)


# the largest poster count whose ids fit a numpy int64 index
_MAX_POSTERS = 2**63 - 1


def _store_integers(config: object, names: Iterable[str]) -> None:
    """Store each named field of a frozen config as a Python int.

    The first field that is not an int or a numpy integer is rejected; a
    bool is not a count.  A numpy count would keep its own type, so that
    min_connect_blocks of an unsigned t would wrap around.
    """
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        object.__setattr__(config, name, int(value))


@dataclass(frozen=True)
class DesignConfig:
    """Problem dimensions and generation parameters.

    t posters, k reviews per judge, b judges to generate.  seed feeds the
    PCG64 stream used by the generators; max_attempts bounds consecutive
    rejected candidates for one block before a full restart.
    faculty_count overrides how many leading blocks carry the faculty
    flag; None means min_connect_blocks(t, k).
    """

    t: int
    k: int
    b: int
    seed: int = 0
    max_attempts: int = 500
    faculty_count: int | None = None

    def __post_init__(self) -> None:
        optional = () if self.faculty_count is None else ("faculty_count",)
        _store_integers(self, ("t", "k", "b", "seed", "max_attempts", *optional))
        if self.t < 2:
            raise ValueError(f"need at least 2 posters, got t={self.t}")
        if self.t > _MAX_POSTERS:
            raise ValueError(f"t={self.t} does not fit a 64-bit poster count")
        if not 2 <= self.k <= self.t:
            raise ValueError(f"need 2 <= k <= t, got k={self.k}, t={self.t}")
        if self.b < 1:
            raise ValueError(f"need at least 1 block, got b={self.b}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be positive")
        if self.faculty_count is not None and self.faculty_count < 0:
            raise ValueError("faculty_count must be >= 0")

    @property
    def b_min(self) -> int:
        return min_connect_blocks(self.t, self.k)

    @property
    def r_f(self) -> int:
        return max_faculty_reviews(self.t, self.k)

    @property
    def faculty_blocks(self) -> int:
        return self.b_min if self.faculty_count is None else self.faculty_count


@dataclass(frozen=True)
class Block:
    """One judge's assignment: an ordered tuple of distinct poster ids."""

    judge_index: int
    poster_ids: tuple[int, ...]
    faculty: bool


@dataclass(frozen=True, eq=False)
class Design:
    """A design: its config and its read-only (b, k) array of poster ids.

    ids[j] is judge j's block, a faculty block when j < faculty_blocks.
    The rest is derived from ids on first use: replication[i] counts
    reviews of poster i (int64, read-only), and blocks is one Block view
    per row.
    Construction checks that ids is a (b, k) integer array with no
    faulty block under the design's own judges and faculty flags.
    """

    config: DesignConfig
    ids: np.ndarray

    def __post_init__(self) -> None:
        rows = np.arange(self.config.b)
        _check(self.config, self.ids, rows, rows < self.config.faculty_blocks)
        self.ids.flags.writeable = False

    @classmethod
    def from_blocks(cls, config: DesignConfig, blocks: Iterable[Block]) -> "Design":
        """Check the blocks as read_design does; the config takes the faculty count of their flags."""
        blocks = tuple(blocks)
        try:
            ids = np.array([block.poster_ids for block in blocks])
        except ValueError:  # blocks of different sizes
            raise ValueError(f"every block must hold k={config.k} posters") from None
        faculty = np.array([block.faculty for block in blocks], dtype=bool)
        _check(config, ids, np.array([block.judge_index for block in blocks]), faculty)
        return cls(replace(config, faculty_count=_faculty_count(config, faculty)), ids)

    @cached_property
    def replication(self) -> np.ndarray:
        replication = np.bincount(self.ids.ravel(), minlength=self.t).astype(np.int64, copy=False)
        replication.flags.writeable = False
        return replication

    @cached_property
    def blocks(self) -> tuple[Block, ...]:
        faculty_blocks = self.config.faculty_blocks
        return tuple(Block(j, tuple(row), j < faculty_blocks) for j, row in enumerate(self.ids.tolist()))

    @property
    def t(self) -> int:
        return self.config.t

    @property
    def k(self) -> int:
        return self.config.k

    @property
    def b(self) -> int:
        return self.ids.shape[0]


@dataclass(frozen=True)
class ValidationReport:
    """Structural summary of a design.

    connected is is_connected: every poster reviewed and one co-review
    component.  all_prefixes_connected applies the reviewed-posters-only
    rule to every prefix of the block sequence, which by induction on
    prefixes holds iff every block after the first shares a poster with
    the blocks before it.  faculty_coverage_ok requires every poster to
    appear in at least one faculty-flagged block once b reaches
    min_connect_blocks (vacuously true for shorter designs).
    """

    replication_spread: int
    max_concurrence: int
    connected: bool
    all_prefixes_connected: bool
    covered: bool
    faculty_coverage_ok: bool


def _first_fault(t: int, ids: np.ndarray, judges: np.ndarray, faculty: np.ndarray) -> tuple[int, str] | None:
    """The first block of the (b, k) ids that breaks the design rule, and why; None if none does.

    Block j breaks it when judges[j] != j, when it repeats a poster, when
    it holds a poster outside [0, t) (the first in column order is
    named), or when faculty[j] follows an unflagged block; a block's
    faults are tried in that order.
    """
    ordered = np.sort(ids, axis=1)
    misnumbered = judges != np.arange(len(judges))
    repeats = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    outside = (ids < 0) | (ids >= t)
    late = faculty & ~np.logical_and.accumulate(faculty)
    faulty = np.flatnonzero(misnumbered | repeats | outside.any(axis=1) | late)
    if not faulty.size:
        return None
    j, judge = int(faulty[0]), judges[faulty[0]]
    if misnumbered[j]:
        duplicate = 0 <= judge < j
        return j, f"duplicate judge_index {judge}" if duplicate else f"judge_index {judge} out of order (expected {j})"
    if repeats[j]:
        return j, "duplicate poster within the block"
    if outside[j].any():
        return j, f"poster id {ids[j][outside[j]][0]} outside [0, {t})"
    return j, "faculty flags must mark a leading run of blocks"


def _check(config: DesignConfig, ids: np.ndarray, judges: np.ndarray, faculty: np.ndarray) -> None:
    """ValueError unless ids is a (b, k) int64-compatible array with no faulty block."""
    if np.shape(ids) != (config.b, config.k):
        raise ValueError(f"ids must have shape (b, k) = ({config.b}, {config.k}), got {np.shape(ids)}")
    if not (isinstance(ids, np.ndarray) and ids.dtype.kind in "iu" and np.can_cast(ids.dtype, np.int64)):
        raise ValueError("ids must be a numpy array of integers that fit int64, the 64-bit signed type")
    fault = _first_fault(config.t, ids, judges, faculty)
    if fault is not None:
        raise ValueError("block %d: %s" % fault)


def _faculty_count(config: DesignConfig, faculty: np.ndarray) -> int | None:
    """The faculty_count that flags the leading run of faculty flags.

    A run of min(b, config.faculty_blocks) keeps the config's own count
    (None inside the default phase), any other run becomes its length.
    """
    run = int(np.logical_and.accumulate(faculty).sum())
    return config.faculty_count if run == min(len(faculty), config.faculty_blocks) else run


def _pair_codes(ids: np.ndarray, t: int) -> np.ndarray:
    """Each row's pairs a < b as the codes a*t + b, row by row in ascending (a, b) order."""
    ordered = np.sort(ids, axis=1).astype(np.int64, copy=False)
    low, high = np.triu_indices(ids.shape[1], 1)
    return ordered[:, low] * t + ordered[:, high]


def is_connected(design: Design) -> bool:
    """True when every poster is reviewed and the co-review graph has one component.

    Each block links its first poster to the rest.  Every root hooks onto
    the least root it links to, and root = root[root] repeats until each
    poster points at its root; the pass ends when every link joins equal
    roots.  Roots only move to smaller ids, so poster 0 stays a root and
    the graph is one component iff every poster's root is 0.
    """
    if not design.replication.all():
        return False
    heads = np.repeat(design.ids[:, 0], design.k - 1)
    tails = design.ids[:, 1:].ravel()
    root = np.arange(design.t)
    while True:
        head_roots, tail_roots = root[heads], root[tails]
        if np.array_equal(head_roots, tail_roots):
            return not root.any()
        np.minimum.at(root, head_roots, tail_roots)
        np.minimum.at(root, tail_roots, head_roots)
        jumped = root[root]
        while not np.array_equal(jumped, root):
            root, jumped = jumped, jumped[jumped]


def validate(design: Design) -> ValidationReport:
    """Compute the structural report: balance, concurrence, coverage, connectivity."""
    t, b = design.t, design.b
    replication = design.replication
    # each poster's first block (b if unreviewed): every prefix is connected iff each later
    # block holds a poster seen earlier, and the faculty cover every poster iff each is first
    # seen in a faculty block
    rows = np.arange(b)
    first_block = np.full(t, b)
    np.minimum.at(first_block, design.ids, rows[:, None])
    faculty_run = min(b, design.config.faculty_blocks)
    return ValidationReport(
        replication_spread=int(replication.max() - replication.min()),
        max_concurrence=int(np.unique(_pair_codes(design.ids, t), return_counts=True)[1].max()),
        connected=is_connected(design),
        all_prefixes_connected=bool((first_block[design.ids[1:]] < rows[1:, None]).any(axis=1).all()),
        covered=bool(replication.all()),
        faculty_coverage_ok=b < design.config.b_min or bool((first_block < faculty_run).all()),
    )


def _design_columns(k: int) -> tuple[list[str], list[type]]:
    """The design file's header and column types for blocks of k posters."""
    return ["judge_index", "faculty"] + [f"poster_{i + 1}" for i in range(k)], [int, bool] + [int] * k


def write_design(path: str, design: Design) -> None:
    """Write the design as CSV: judge_index,faculty,poster_1,...,poster_k."""
    faculty = design.config.faculty_blocks
    write_csv(
        path,
        *_design_columns(design.k),
        [range(design.b), [j < faculty for j in range(design.b)], *design.ids.T.tolist()],
    )


def read_design(
    path: str,
    t: int | None = None,
    seed: int = 0,
    max_attempts: int = 500,
) -> Design:
    """Read a design CSV back into memory.

    t may be omitted for designs that cover all posters, in which case it
    is inferred as max poster id + 1.  The stream seed is not stored in
    the file; pass the original seed if the design is to be extended
    reproducibly.  A block needs at least two poster columns.

    Every row is parsed first, so a cell that is not an int64, or a row
    of the wrong width, is reported wherever it is.  The rows are then
    checked by the rule Design and Design.from_blocks use; block j's
    fault is reported at row j + 2.  An inferred t stops at the largest
    64-bit poster count, so the int64 maximum id is out of range.

    A faculty run of min(b, b_min) rows reads as faculty_count=None, any
    other as its length, so a file inside its default faculty phase
    extends like the design in memory.  A file whose every block is
    flagged cannot record how far an explicit faculty_count runs past
    it: it reads back as None below b_min and as b from b_min on, so
    extending it flags other blocks than extending the design in memory
    unless that count gives the same phase.
    """
    header, rows = read_csv(path)
    if len(header) < 3 or header[:2] != ["judge_index", "faculty"]:
        raise FileFormatError(path, 1, "header must start with judge_index,faculty,poster_1,...")
    k = len(header) - 2
    names, types = _design_columns(k)
    if header != names:
        raise FileFormatError(path, 1, "poster columns must be named poster_1..poster_k")
    if k < 2:
        raise FileFormatError(path, 1, f"a block needs at least 2 poster columns, got {k}")

    judges, faculty, *posters = parse_columns(path, header, rows, types)
    if not judges.size:
        raise FileFormatError(path, None, "no blocks")

    ids = np.stack(posters, axis=1)
    if t is None:
        t = min(int(ids.max()) + 1, _MAX_POSTERS)
    fault = _first_fault(t, ids, judges, faculty)
    if fault is not None:
        raise FileFormatError(path, fault[0] + 2, fault[1])
    config = DesignConfig(t=t, k=k, b=judges.size, seed=seed, max_attempts=max_attempts)
    return Design(replace(config, faculty_count=_faculty_count(config, faculty)), ids)
