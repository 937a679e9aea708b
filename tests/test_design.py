"""Feasibility arithmetic, tallies, connectivity, and the design CSV codec."""

import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from nbibd import (
    DesignConfig,
    FileFormatError,
    is_connected,
    lambda_of,
    max_faculty_reviews,
    min_connect_blocks,
    read_design,
    required_blocks,
    validate,
    write_design,
)
from nbibd.design import Block, Design, _pair_codes
from nbibd.generate import generate
from connectivity_oracle import prefix_connected_flags
from design_check_oracle import first_fault, parse_rows
from tally_oracle import tallies_match_oracle


def make_design(t, k, blocks, faculty=None, b=None):
    faculty = faculty or [False] * len(blocks)
    config = DesignConfig(t=t, k=k, b=b if b is not None else len(blocks))
    built = [
        Block(judge_index=i, poster_ids=tuple(ids), faculty=flag)
        for i, (ids, flag) in enumerate(zip(blocks, faculty))
    ]
    return Design.from_blocks(config, built)


def test_lambda_of_values():
    assert lambda_of(50, 5, 201) == 1
    assert lambda_of(50, 5, 201).denominator == 1
    assert lambda_of(3, 5, 200) == Fraction(12, 199)
    assert lambda_of(2, 2, 3) == 1
    assert lambda_of(7, 3, 8) == 2


def test_lambda_of_rejects_bad_arguments():
    with pytest.raises(ValueError):
        lambda_of(3, 5, 1)
    with pytest.raises(ValueError):
        lambda_of(3, 1, 10)
    with pytest.raises(ValueError):
        lambda_of(0, 5, 10)


def test_required_blocks_values():
    assert required_blocks(201, 50, 5) == 2010
    assert required_blocks(201, 50, 5).denominator == 1
    assert required_blocks(200, 3, 5) == 120
    assert required_blocks(5, 2, 3) == Fraction(10, 3)


def test_required_blocks_rejects_bad_arguments():
    with pytest.raises(ValueError):
        required_blocks(0, 3, 5)
    with pytest.raises(ValueError):
        required_blocks(10, 0, 5)
    with pytest.raises(ValueError):
        required_blocks(10, 3, 0)


def test_min_connect_blocks_values():
    assert min_connect_blocks(200, 5) == 50
    assert min_connect_blocks(201, 5) == 51
    assert min_connect_blocks(5, 4) == 2
    assert min_connect_blocks(9, 3) == 5
    assert min_connect_blocks(2, 2) == 2
    with pytest.raises(ValueError):
        min_connect_blocks(3, 4)
    with pytest.raises(ValueError):
        min_connect_blocks(5, 1)


def test_max_faculty_reviews_values():
    assert max_faculty_reviews(200, 5) == 2
    assert max_faculty_reviews(6, 5) == 2
    assert max_faculty_reviews(4, 2) == 2
    assert max_faculty_reviews(20, 5) == 2


def test_block_count_and_concurrence_identity():
    rng = random.Random(1234)
    for _ in range(200):
        t = rng.randint(2, 40)
        k = rng.randint(2, min(t, 8))
        r = rng.randint(1, 10)
        blocks = required_blocks(t, r, k)
        lam = lambda_of(r, k, t)
        assert blocks * k == t * r
        assert lam * (t - 1) == r * (k - 1)
        # when both are integral the three pair-count forms agree exactly
        if blocks.denominator == 1 and lam.denominator == 1:
            assert blocks * k * (k - 1) == lam * t * (t - 1)


def test_design_config_properties():
    config = DesignConfig(t=200, k=5, b=100, seed=9)
    assert config.b_min == 50
    assert config.r_f == 2
    assert config.faculty_blocks == 50
    assert DesignConfig(t=200, k=5, b=100, faculty_count=7).faculty_blocks == 7


def test_design_config_rejects_bad_arguments():
    with pytest.raises(ValueError):
        DesignConfig(t=1, k=2, b=3)
    with pytest.raises(ValueError):
        DesignConfig(t=10, k=1, b=3)
    with pytest.raises(ValueError):
        DesignConfig(t=10, k=11, b=3)
    with pytest.raises(ValueError):
        DesignConfig(t=10, k=3, b=0)
    with pytest.raises(ValueError):
        DesignConfig(t=10, k=3, b=3, seed=-1)
    with pytest.raises(ValueError):
        DesignConfig(t=10, k=3, b=3, seed=2**64)
    with pytest.raises(ValueError):
        DesignConfig(t=10, k=3, b=3, max_attempts=0)
    with pytest.raises(ValueError):
        DesignConfig(t=10, k=3, b=3, faculty_count=-1)
    with pytest.raises(ValueError, match="64-bit"):
        DesignConfig(t=2**63, k=3, b=3)


@pytest.mark.parametrize("field", ["t", "k", "b", "seed", "max_attempts", "faculty_count"])
@pytest.mark.parametrize("value", [5.0, 1.5, True, np.float64(5.0), "5"])
def test_design_config_counts_must_be_integers(field, value):
    # a float seed used to fail inside numpy's SeedSequence at generate
    counts = dict(t=10, k=3, b=5, seed=1, max_attempts=500, faculty_count=4)
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
        DesignConfig(**{**counts, field: value})


def test_design_config_accepts_numpy_integer_counts():
    counts = dict(t=10, k=3, b=5, seed=1, max_attempts=500, faculty_count=4)
    config = DesignConfig(**{name: np.int64(value) for name, value in counts.items()})
    assert config == DesignConfig(**counts)
    for kind in ("nb1", "nb2", "random"):
        assert np.array_equal(generate(config, kind)[0].ids, generate(DesignConfig(**counts), kind)[0].ids)
    assert DesignConfig(t=np.uint8(10), k=np.int32(3), b=5).faculty_count is None


def test_design_config_stores_its_counts_as_python_ints():
    # an unsigned numpy t used to wrap min_connect_blocks around: b_min
    # read -14, and nb1 gave up after 50 restarts where t=200 succeeds
    config = DesignConfig(t=np.uint8(200), k=np.int32(5), b=60, seed=np.uint64(1))
    assert config.b_min == 50
    assert all(type(getattr(config, name)) is int for name in ("t", "k", "b", "seed", "max_attempts"))
    for kind in ("nb1", "nb2", "random"):
        design, trace = generate(config, kind)
        expected, expected_trace = generate(DesignConfig(t=200, k=5, b=60, seed=1), kind)
        assert np.array_equal(design.ids, expected.ids)
        assert trace == expected_trace


def test_from_blocks_builds_tallies():
    design = make_design(5, 2, [(0, 1), (1, 2), (3, 4)])
    assert design.t == 5 and design.k == 2 and design.b == 3
    assert design.replication.tolist() == [1, 2, 1, 1, 1]


def test_from_blocks_rejects_malformed_blocks():
    config = DesignConfig(t=4, k=2, b=2)
    good = Block(0, (0, 1), False)
    with pytest.raises(ValueError):
        Design.from_blocks(config, [good])
    with pytest.raises(ValueError):
        Design.from_blocks(config, [good, Block(2, (2, 3), False)])
    with pytest.raises(ValueError, match="every block must hold k=2 posters"):
        Design.from_blocks(config, [good, Block(1, (2,), False)])
    with pytest.raises(ValueError):
        Design.from_blocks(config, [good, Block(1, (2, 2), False)])
    with pytest.raises(ValueError):
        Design.from_blocks(config, [good, Block(1, (2, 4), False)])
    with pytest.raises(ValueError, match="64-bit"):
        Design.from_blocks(config, [good, Block(1, (2, 2**70), False)])
    # ids that are not integers are refused, not truncated or converted
    with pytest.raises(ValueError, match="integers that fit int64"):
        Design.from_blocks(config, [good, Block(1, (0.5, 1.7), False)])
    with pytest.raises(ValueError, match="integers that fit int64"):
        Design.from_blocks(config, [good, Block(1, ("2", "3"), False)])
    with pytest.raises(ValueError, match="leading run"):
        Design.from_blocks(config, [good, Block(1, (2, 3), True)])


@pytest.mark.parametrize("b", [5, 12])
def test_from_blocks_rebuilds_a_design_from_its_blocks(b):
    # b=5 is all faculty (b_min=7), b=12 has a non-faculty tail
    design, _ = generate(DesignConfig(t=20, k=4, b=b, seed=2), "nb2")
    rebuilt = Design.from_blocks(design.config, design.blocks)
    assert rebuilt.blocks == design.blocks
    assert rebuilt.config == design.config


def test_design_rejects_malformed_id_arrays():
    config = DesignConfig(t=4, k=2, b=2)
    # a poster id past t used to build a length-6 replication array
    with pytest.raises(ValueError, match=r"block 0: poster id 5 outside \[0, 4\)"):
        Design(config, np.array([[0, 5], [1, 1]]))
    with pytest.raises(ValueError, match="block 1: duplicate poster within the block"):
        Design(config, np.array([[0, 1], [1, 1]]))
    with pytest.raises(ValueError, match="block 1: poster id -1 outside"):
        Design(config, np.array([[0, 1], [-1, 2]]))
    # a (2, 3) array under k=2 used to end in "tallies corrupted"
    with pytest.raises(ValueError, match=r"shape \(b, k\) = \(2, 2\), got \(2, 3\)"):
        Design(config, np.array([[0, 1, 2], [1, 2, 3]]))
    with pytest.raises(ValueError, match=r"got \(4,\)"):
        Design(config, np.array([0, 1, 2, 3]))
    # uint64 ids would pass a kind check and then fail every bincount
    for ids in ([[0, 1], [2, 3]], np.array([[0.0, 1.0], [2.0, 3.0]]), np.array([[0, 1], [2, 3]], dtype=np.uint64)):
        with pytest.raises(ValueError, match="integers that fit int64"):
            Design(config, ids)
    assert Design(config, np.array([[0, 1], [2, 3]])).replication.tolist() == [1, 1, 1, 1]


def test_recount_matches_incremental_tallies():
    for kind in ("nb1", "nb2"):
        for seed in range(5):
            design, _ = generate(DesignConfig(t=25, k=4, b=15, seed=seed), kind)
            assert tallies_match_oracle(design)


# hand-built designs and their connectivity at every prefix: a split,
# a chain, a split that a later block mends, and unreviewed posters
HAND_BUILT_PREFIXES = [
    ((4, 2, [(0, 1), (2, 3)]), [True, False]),
    ((4, 2, [(0, 1), (1, 2), (2, 3)]), [True, True, True]),
    ((4, 2, [(0, 1), (2, 3), (1, 2)]), [True, False, True]),
    ((6, 2, [(0, 1), (1, 2)]), [True, True]),
    ((7, 3, [(0, 1, 2), (2, 3, 4), (5, 6, 0)]), [True, True, True]),
    ((8, 3, [(0, 1, 2), (3, 4, 5), (2, 3, 6)]), [True, False, True]),
]


def _generated_designs():
    for t, k, b in ((30, 4, 20), (60, 3, 25), (40, 5, 6)):
        for kind in ("nb1", "nb2", "random"):
            if kind == "random" and b * k < t:
                continue
            for seed in range(4):
                yield generate(DesignConfig(t=t, k=k, b=b, seed=seed), kind)[0]


def reviewed_prefix(design, p):
    """The first p blocks as a design over only the posters they review, renumbered from 0."""
    reviewed, ids = np.unique(design.ids[:p], return_inverse=True)
    return Design(DesignConfig(t=reviewed.size, k=design.k, b=p), ids.reshape(p, design.k))


def test_is_connected_prefixes():
    designs = []
    for (t, k, blocks), expected in HAND_BUILT_PREFIXES:
        design = make_design(t, k, blocks)
        assert prefix_connected_flags(t, blocks) == expected
        designs.append(design)
    designs.extend(_generated_designs())

    outcomes = set()
    for design in designs:
        flags = prefix_connected_flags(design.t, design.ids.tolist())
        # a prefix's reviewed posters are all covered once renumbered, so
        # the whole-design count gives the oracle's flag for every prefix
        assert [is_connected(reviewed_prefix(design, p)) for p in range(1, design.b + 1)] == flags
        report = validate(design)
        assert is_connected(design) == (report.covered and flags[-1])
        assert report.all_prefixes_connected == all(flags)
        assert report.connected == (report.covered and flags[-1])
        outcomes.add((report.covered, report.connected, report.all_prefixes_connected))
    # connected and disconnected designs, with and without every prefix
    # connected, and one leaving posters unreviewed
    assert outcomes >= {(True, True, True), (True, True, False), (True, False, False), (False, False, True)}


def csgraph_connected(design):
    """is_connected's rule by scipy: one component in the judge-poster graph over b + t nodes."""
    b, t, k = design.b, design.t, design.k
    graph = coo_matrix((np.ones(b * k), (np.repeat(np.arange(b), k), design.ids.ravel() + b)), shape=(b + t, b + t))
    return connected_components(graph, directed=False)[0] == 1


def assert_connectivity_matches_oracles(design):
    """is_connected and validate agree with union-find and with csgraph; returns (covered, connected)."""
    covered = bool(design.replication.all())
    connected = covered and prefix_connected_flags(design.t, design.ids.tolist())[-1]
    assert csgraph_connected(design) == connected
    assert is_connected(design) == connected
    assert validate(design).connected == connected
    return covered, connected


def test_is_connected_matches_union_find_and_csgraph():
    rng = np.random.default_rng(5)
    designs = list(_generated_designs())
    # posters split into 2, 3 and 5 groups, every block inside one group:
    # two or more components on purpose
    for groups in (2, 3, 5):
        parts = np.array_split(rng.permutation(30), groups)
        designs.append(make_design(30, 3, [rng.choice(parts[j % groups], 3, replace=False) for j in range(40)]))
    # posters left unreviewed, with the reviewed ones connected and split
    designs += [make_design(9, 3, [(0, 1, 2), (2, 3, 4), (4, 5, 6)]), make_design(9, 3, [(0, 1, 2), (3, 4, 5)])]
    # k = t with b = 1, and t = 2
    designs += [make_design(5, 5, [(4, 2, 0, 3, 1)]), make_design(2, 2, [(1, 0)]), make_design(2, 2, [(1, 0), (0, 1)])]
    # block j = (t-2-j, t-1-j): the chain that needs the most pointer jumps
    designs += [make_design(t, 2, [(t - 2 - j, t - 1 - j) for j in range(t - 1)]) for t in (3, 64, 1001)]
    outcomes = {assert_connectivity_matches_oracles(design) for design in designs}
    assert outcomes == {(True, True), (True, False), (False, False)}


@settings(max_examples=200, deadline=None)
@given(t=st.integers(2, 40), k=st.integers(2, 6), b=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
def test_is_connected_matches_the_oracles_on_random_blocks(t, k, b, seed):
    rng = np.random.default_rng(seed)
    k = min(k, t)
    assert_connectivity_matches_oracles(make_design(t, k, [rng.choice(t, k, replace=False) for _ in range(b)]))


@pytest.mark.parametrize("kind", ["nb1", "nb2", "random"])
def test_validate_forms_no_pair_table(kind):
    # a t x t int64 tally at t=5000 takes 190.7 MiB; validate must peak
    # below a tenth of that
    design, _ = generate(DesignConfig(t=5000, k=5, b=2500, seed=1), kind)
    tracemalloc.start()
    try:
        validate(design)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < design.t * design.t * 8 / 10, peak


def test_pair_codes_are_int64_for_narrow_ids():
    # int32 ids at t=100001 would overflow a*t + b in their own dtype
    codes = _pair_codes(np.array([[70000, 3], [2, 1]], dtype=np.int32), 100001)
    assert codes.dtype == np.int64
    assert codes.tolist() == [[3 * 100001 + 70000], [1 * 100001 + 2]]


def test_connected_report_requires_coverage():
    # the reviewed posters form one component, but poster 4 is never reviewed
    design = make_design(5, 2, [(0, 1), (1, 2), (2, 3)])
    assert not is_connected(design)
    report = validate(design)
    assert not report.covered
    assert not report.connected
    assert report.all_prefixes_connected


def test_validate_report_fields():
    design = make_design(
        4,
        2,
        [(0, 1), (1, 2), (2, 3), (0, 2), (0, 2)],
        faculty=[True, True, True, True, False],
    )
    report = validate(design)
    # poster 2 is reviewed four times (blocks 1,2,3,4), poster 3 once
    assert report.replication_spread == 3
    assert report.max_concurrence == 2
    assert report.covered
    assert report.connected
    assert report.all_prefixes_connected
    assert report.faculty_coverage_ok


def test_validate_faculty_coverage():
    # b_min for (t=4, k=2) is 4; poster 3 never appears in a faculty block
    design = make_design(
        4,
        2,
        [(0, 1), (1, 2), (0, 2), (2, 3)],
        faculty=[True, True, True, False],
    )
    assert not validate(design).faculty_coverage_ok
    # below b_min the check is vacuous
    short = make_design(4, 2, [(0, 1), (1, 2)], faculty=[True, False])
    assert validate(short).faculty_coverage_ok


def test_validate_detects_corrupted_tallies():
    # a tally cannot be corrupted in place, so validate always reports
    # the tallies of the design's own ids
    design = make_design(4, 2, [(0, 1), (1, 2), (2, 3)])
    before = validate(design)
    with pytest.raises(ValueError):
        design.replication[0] += 1
    assert tallies_match_oracle(design)
    after = validate(design)
    assert after == before
    assert (after.replication_spread, after.max_concurrence) == (1, 1)


def test_design_csv_roundtrip(tmp_path):
    design, _ = generate(DesignConfig(t=30, k=4, b=20, seed=7), "nb1")
    path = tmp_path / "design.csv"
    write_design(str(path), design)
    back = read_design(str(path), t=30)
    assert back.blocks == design.blocks
    assert back.config.t == 30 and back.config.k == 4 and back.config.b == 20

    inferred = read_design(str(path))
    assert inferred.config.t == 30
    assert inferred.blocks == design.blocks


def test_design_csv_byte_stability(tmp_path):
    design, _ = generate(DesignConfig(t=30, k=4, b=20, seed=3), "nb2")
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_design(str(first), design)
    write_design(str(second), design)
    assert first.read_bytes() == second.read_bytes()


HEAD = "judge_index,faculty,poster_1,poster_2\n"


@pytest.mark.parametrize(
    "content,fragment,row",
    [
        ("", "empty file", None),
        ("judge,faculty,poster_1,poster_2\n0,true,0,1\n", "header must start with", 1),
        ("judge_index,faculty,p1,p2\n0,true,0,1\n", "poster columns must be named", 1),
        ("judge,faculty,poster_1,poster_2\n0,true,0\n", "header must start with", 1),
        (HEAD, "no blocks", None),
        (HEAD + "0,true,0\n", "expected 4 columns, got 3", 2),
        (HEAD + "x,true,0,1\n", "judge_index", 2),
        (HEAD + "1,true,0,1\n", "out of order", 2),
        (HEAD + "0,true,0,1\n0,true,1,2\n", "duplicate judge_index 0", 3),
        (HEAD + "0,true,1,1\n", "duplicate poster", 2),
        (HEAD + "0,maybe,0,1\n", "faculty", 2),
        (HEAD + "0,false,0,1\n1,true,1,2\n", "leading run", 3),
        ("judge_index,faculty,poster_1\n0,true,0\n", "at least 2 poster columns, got 1", 1),
        (HEAD + "0,true,0,1\n1,true,2,18446744073709551617\n", "'poster_2' does not fit a 64-bit integer", 3),
        # an inferred t stops at the largest 64-bit poster count
        (HEAD + "0,true,0,9223372036854775807\n", "poster id 9223372036854775807 outside", 2),
    ],
)
def test_read_design_rejects_malformed_files(tmp_path, content, fragment, row):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    with pytest.raises(FileFormatError) as excinfo:
        read_design(str(path))
    assert fragment in str(excinfo.value)
    assert excinfo.value.row == row


# files with several faults: every row is parsed before any structural
# check, the first row with a structural fault wins, and within one row
# the order is judge order, duplicate poster, poster range, faculty run
@pytest.mark.parametrize(
    "content,t,fragment,row",
    [
        (HEAD + "1,true,0,1\n1,true,x,2\n", None, "'poster_1' is not an integer", 3),
        (HEAD + "0,true,1,1\n1,true,0\n", None, "expected 4 columns, got 3", 3),
        (HEAD + "0,false,0,9\n1,true,0,1\n2,maybe,0,1\n", 3, "'faculty' is not a boolean", 4),
        (HEAD + "x,maybe,0,y\n", None, "'judge_index' is not an integer", 2),
        (HEAD + "0,maybe,0,y\n", None, "'faculty' is not a boolean", 2),
        (HEAD + "0,true,0,0\n2,true,0,9\n", 3, "duplicate poster", 2),
        (HEAD + "0,true,0,9\n1,true,1,1\n", 3, "poster id 9 outside [0, 3)", 2),
        (HEAD + "0,false,0,1\n1,true,0,1\n2,true,2,2\n", None, "leading run", 3),
        (HEAD + "1,true,0,0\n", None, "out of order", 2),
        (HEAD + "0,true,0,1\n0,true,1,1\n", None, "duplicate judge_index 0", 3),
        (HEAD + "0,true,5,5\n", 3, "duplicate poster", 2),
        (HEAD + "0,false,0,1\n1,true,0,9\n", 3, "poster id 9 outside [0, 3)", 3),
        # an id past int64 is a parse fault, reported before an earlier row's repeat
        (HEAD + "0,true,1,1\n1,true,2,18446744073709551617\n", None, "does not fit a 64-bit integer", 3),
    ],
)
def test_read_design_reports_the_first_fault(tmp_path, content, t, fragment, row):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    with pytest.raises(FileFormatError) as excinfo:
        read_design(str(path), t=t)
    assert fragment in str(excinfo.value)
    assert excinfo.value.row == row


@st.composite
def faulty_block_lists(draw):
    """A small block list, t and k, with up to three planted faults of the four kinds."""
    t = draw(st.integers(2, 8))
    k = draw(st.integers(2, min(t, 4)))
    b = draw(st.integers(1, 6))
    rows = [[j, False, draw(st.permutations(range(t)))[:k]] for j in range(b)]
    for j in range(draw(st.integers(0, b))):
        rows[j][1] = True
    for _ in range(draw(st.integers(0, 3))):
        j = draw(st.integers(0, b - 1))
        fault = draw(st.sampled_from(["judge", "repeat", "range", "faculty"]))
        if fault == "judge":
            rows[j][0] = draw(st.integers(-2, b + 2).filter(lambda judge: judge != j))
        elif fault == "repeat":
            rows[j][2][draw(st.integers(1, k - 1))] = rows[j][2][0]
        elif fault == "range":
            columns = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=2, unique=True))
            for column, poster in zip(columns, draw(st.permutations([-3, -1, t, t + 5]))):
                rows[j][2][column] = poster
        else:
            rows[j][1] = True
            rows[draw(st.integers(0, j))][1] = False
    return t, k, [tuple(row) for row in rows]


@settings(max_examples=150, deadline=None)
@given(case=faulty_block_lists(), infer=st.booleans())
def test_every_entry_point_reports_the_oracle_fault(tmp_path_factory, case, infer):
    t, k, rows = case
    if infer:
        t = 1 + max(max(posters) for _, _, posters in rows)
    expected = first_fault(rows, t, k)
    path = tmp_path_factory.mktemp("faults") / "design.csv"
    header = ",".join(["judge_index", "faculty"] + [f"poster_{i + 1}" for i in range(k)])
    lines = [",".join([str(judge), str(faculty).lower(), *map(str, posters)]) for judge, faculty, posters in rows]
    path.write_text("\n".join([header, *lines]) + "\n")
    blocks = [Block(judge, tuple(posters), faculty) for judge, faculty, posters in rows]

    if expected is None:
        design = read_design(str(path), t=None if infer else t)
        assert design.ids.tolist() == [list(posters) for _, _, posters in rows]
        assert Design.from_blocks(DesignConfig(t=t, k=k, b=len(rows)), blocks).blocks == design.blocks
        return
    number, message = expected
    with pytest.raises(FileFormatError) as excinfo:
        read_design(str(path), t=None if infer else t)
    assert excinfo.value.row == number
    assert str(excinfo.value) == f"{path}:row {number}: {message}"
    # an inferred t below 2 or k is no config for from_blocks to check against
    if t >= k:
        with pytest.raises(ValueError) as excinfo:
            Design.from_blocks(DesignConfig(t=t, k=k, b=len(rows)), blocks)
        assert str(excinfo.value) == f"block {number - 2}: {message}"


def assert_reads_as_the_per_cell_rule(path, t):
    """read_design gives what parse_rows and first_fault give, or the first fault they find, word for word."""
    try:
        rows = parse_rows(str(path))
    except FileFormatError as error:
        expected = error.row, str(error)
    else:
        k = len(rows[0][2])
        if t is None:
            t = min(1 + max(max(posters) for _, _, posters in rows), 2**63 - 1)
        fault = first_fault(rows, t, k)
        if fault is None:
            design = read_design(str(path), t=t)
            assert design.ids.dtype == np.int64
            assert design.ids.tolist() == [posters for _, _, posters in rows]
            blocks = [Block(judge, tuple(posters), faculty) for judge, faculty, posters in rows]
            assert design.blocks == Design.from_blocks(DesignConfig(t=t, k=k, b=len(rows)), blocks).blocks
            return
        expected = fault[0], f"{path}:row {fault[0]}: {fault[1]}"
    with pytest.raises(FileFormatError) as excinfo:
        read_design(str(path), t=t)
    assert (excinfo.value.row, str(excinfo.value)) == expected


def test_read_design_reads_unusual_cells_as_the_per_cell_rule(tmp_path):
    # int() reads a sign, spaces, underscores and other scripts' digits; a flag ignores case and spaces
    path = tmp_path / "design.csv"
    path.write_text(HEAD + "-0, TRUE , 7,+1\n+1,1,0_2,\u0663\n\u0662,0,-0,4\n0_3, false,5,\u0667\n", encoding="utf-8")
    design = read_design(str(path))
    assert design.ids.tolist() == [[7, 1], [2, 3], [0, 4], [5, 7]]
    assert [block.faculty for block in design.blocks] == [True, True, False, False]
    assert design.config.t == 8 and design.config.faculty_count == 2
    assert_reads_as_the_per_cell_rule(path, None)


@pytest.mark.parametrize(
    "content",
    [
        # a width fault and a parse fault, in either order
        HEAD + "0,true,x,1\n1,true,2\n",
        HEAD + "0,true,0\n1,true,x,1\n",
        HEAD + "0,true,0,1\n1,maybe,2\n",
        # the largest int64 is a poster out of range, one more a parse fault, as is one below the least
        HEAD + "0,true,0,9223372036854775807\n",
        HEAD + "0,true,0,9223372036854775808\n",
        HEAD + "9223372036854775808,true,0,1\n",
        HEAD + "0,true,-9223372036854775809,1\n",
        HEAD + "0,true,-9223372036854775808,1\n",
    ],
)
def test_read_design_reports_parse_faults_as_the_per_cell_rule(tmp_path, content):
    path = tmp_path / "design.csv"
    path.write_text(content, encoding="utf-8")
    assert_reads_as_the_per_cell_rule(path, None)


ARABIC_INDIC_DIGITS = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))


def spellings(value):
    """Spellings of an integer cell that int() reads as value."""
    text = str(value)
    spelled = [text, f" {text}", f"{text} ", text.translate(ARABIC_INDIC_DIGITS)]
    if value >= 0:
        spelled += [f"+{text}", f"0_{text}"]
    if value == 0:
        spelled.append("-0")
    return spelled


BAD_INT_CELLS = ["x", "", "7.0", "1__2", "0x1", "9223372036854775808", "-9223372036854775809", "9223372036854775807"]
FLAG_CELLS = {True: ["true", " TRUE ", "1", "True"], False: ["false", "0", " False "]}


@st.composite
def spelled_design_files(draw):
    """Design file lines whose cells are spelled in unusual ways, with some cells or widths at fault."""
    t = draw(st.integers(2, 8))
    k = draw(st.integers(2, min(t, 4)))
    b = draw(st.integers(1, 5))
    run = draw(st.integers(0, b))
    lines = []
    for j in range(b):
        cells = [draw(st.sampled_from(spellings(j))), draw(st.sampled_from(FLAG_CELLS[j < run]))]
        cells += [draw(st.sampled_from(spellings(poster))) for poster in draw(st.permutations(range(t)))[:k]]
        if draw(st.integers(0, 9)) == 0:
            cells[draw(st.integers(0, k + 1))] = draw(st.sampled_from(BAD_INT_CELLS + ["maybe", "2"]))
        if draw(st.integers(0, 9)) == 0:
            cells = cells[:-1] if draw(st.booleans()) else cells + ["0"]
        lines.append(",".join(cells))
    return t, k, lines


@settings(max_examples=150, deadline=None)
@given(case=spelled_design_files(), infer=st.booleans())
def test_read_design_parses_any_file_as_the_per_cell_rule(tmp_path_factory, case, infer):
    t, k, lines = case
    header = ",".join(["judge_index", "faculty"] + [f"poster_{i + 1}" for i in range(k)])
    path = tmp_path_factory.mktemp("spelled") / "design.csv"
    path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
    assert_reads_as_the_per_cell_rule(path, None if infer else t)


def test_read_design_rejects_out_of_range_poster(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(HEAD + "0,true,0,5\n")
    with pytest.raises(FileFormatError) as excinfo:
        read_design(str(path), t=3)
    assert "poster id 5 outside [0, 3)" in str(excinfo.value)
    assert excinfo.value.row == 2


def test_file_format_error_names_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(HEAD + "0,true,0,1\n1,true,1,x\n")
    with pytest.raises(FileFormatError) as excinfo:
        read_design(str(path))
    assert "row 3" in str(excinfo.value)
