"""Generator behavior: determinism, balance, concurrence, prefixes, extension."""

import hashlib
import importlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbibd import (
    DesignConfig,
    GenerationTrace,
    GeneratorKind,
    NB1InfeasibleBudget,
    extend,
    generate,
    read_design,
    validate,
    write_design,
)
from nbibd.design import Block, Design
from draw_oracle import OracleRestart, append_blocks, oracle_generate
from golden_stack import stack_note
from tally_oracle import brute_force_tallies, tallies_match_oracle

# the package re-exports the function generate under the module's name
generate_module = importlib.import_module("nbibd.generate")

# fractional replication (b*k not a multiple of t) keeps the final
# least-reviewed stratum wide, which the nb1 greedy needs to finish
SMALL = dict(t=30, k=4, b=20)


@pytest.mark.parametrize("kind", ["nb1", "nb2", "random"])
def test_generation_is_deterministic(kind):
    config = DesignConfig(seed=11, **SMALL)
    first, trace_a = generate(config, kind)
    second, trace_b = generate(config, kind)
    assert first.blocks == second.blocks
    assert trace_a == trace_b
    other, _ = generate(DesignConfig(seed=12, **SMALL), kind)
    assert other.blocks != first.blocks


@pytest.mark.parametrize("kind", ["nb2", "random"])
def test_trace_is_trivial_without_rejection(kind):
    config = DesignConfig(seed=4, **SMALL)
    _, trace = generate(config, kind)
    assert trace == GenerationTrace(restarts=0, rejected_blocks=0)


def test_nb1_trace_counts_rejections():
    _, trace = generate(DesignConfig(seed=7, **SMALL), "nb1")
    assert trace.restarts >= 0
    assert trace.rejected_blocks >= 0


def test_nb2_invariants_over_seeds():
    for seed in range(25):
        design, _ = generate(DesignConfig(seed=seed, **SMALL), "nb2")
        report = validate(design)
        assert report.replication_spread <= 1
        assert report.covered
        assert report.all_prefixes_connected
        assert report.connected
        assert report.faculty_coverage_ok


def test_nb1_invariants_over_seeds():
    for seed in range(25):
        design, _ = generate(DesignConfig(seed=seed, **SMALL), "nb1")
        report = validate(design)
        assert report.replication_spread <= 1
        assert report.max_concurrence <= 1
        assert report.covered
        assert report.all_prefixes_connected
        assert report.faculty_coverage_ok


@pytest.mark.parametrize("kind", ["nb1", "nb2"])
def test_replication_profile_splits_by_remainder(kind):
    # 11 judges * 4 reviews = 44 = 20*2 + 4: four posters at 3, sixteen at 2
    design, _ = generate(DesignConfig(t=20, k=4, b=11, seed=2), kind)
    counts = np.bincount(design.replication)
    assert counts[2] == 16 and counts[3] == 4


@pytest.mark.parametrize("kind", ["nb1", "nb2"])
def test_anchor_slot_is_reviewed_during_faculty_phase(kind):
    config = DesignConfig(seed=13, **SMALL)
    for seed in range(10):
        design, _ = generate(DesignConfig(seed=seed, **SMALL), kind)
        replication = np.zeros(design.t, dtype=int)
        for index, block in enumerate(design.blocks):
            if 1 <= index < config.b_min:
                assert replication[block.poster_ids[0]] >= 1
            for poster in block.poster_ids:
                replication[poster] += 1


@pytest.mark.parametrize("kind", ["nb1", "nb2"])
def test_fill_never_skips_a_lower_stratum(kind):
    # every non-anchor pick must come from the lowest review counts still open
    b_min = DesignConfig(seed=0, **SMALL).b_min
    for seed in range(10):
        design, _ = generate(DesignConfig(seed=seed, **SMALL), kind)
        replication = np.zeros(design.t, dtype=int)
        for index, block in enumerate(design.blocks):
            ids = block.poster_ids
            fill = ids[1:] if 1 <= index < b_min else ids
            outside = np.setdiff1d(np.arange(design.t), np.asarray(ids))
            if index > 0 and outside.size:
                assert replication[list(fill)].max() <= replication[outside].min()
            for poster in ids:
                replication[poster] += 1


def test_second_block_takes_the_last_unreviewed_poster():
    # t=6, k=5: block 1 reviews five posters, block 2 must anchor on a
    # reviewed poster and pick up the remaining unreviewed one first
    for seed in range(40):
        design, _ = generate(DesignConfig(t=6, k=5, b=2, seed=seed), "nb2")
        first, second = design.blocks
        missing = set(range(6)) - set(first.poster_ids)
        assert len(missing) == 1
        assert missing.pop() in second.poster_ids
        assert second.poster_ids[0] in first.poster_ids


def test_nb1_exhausts_budget_on_infeasible_shape():
    # t=7, k=4, b=3 passes the counting bound (no poster needs more than
    # 6 partners), but three 4-sets on 7 posters that pairwise share at
    # most one poster would cover at least 12 - 3 = 9 posters, so no seed
    # can finish and nb1 spends its whole restart budget
    config = DesignConfig(t=7, k=4, b=3, seed=0, max_attempts=20)
    with pytest.raises(NB1InfeasibleBudget) as excinfo:
        generate(config, "nb1", restart_budget=5)
    assert "restart" in str(excinfo.value)


def test_nb1_rejects_shapes_counting_rules_out_before_drawing(monkeypatch):
    # some poster is reviewed ceil(bk/t) times and needs k-1 new partners
    # each time: 2*3 > 5 at t=6, k=4, b=2 (where b*k(k-1) = 24 <= t(t-1)
    # = 30) and 10*4 > 9 at t=10, k=5, b=20
    streams = captured_stream(monkeypatch)
    for t, k, b in ((6, 4, 2), (10, 5, 20)):
        with pytest.raises(NB1InfeasibleBudget, match=r"ceil\(bk/t\)"):
            generate(DesignConfig(t=t, k=k, b=b, seed=0), "nb1")
    assert streams == []
    # at t=7, k=3, b=7 the two sides are equal (3*2 = 6), so nb1 draws
    try:
        generate(DesignConfig(t=7, k=3, b=7, seed=0, max_attempts=20), "nb1", restart_budget=2)
    except NB1InfeasibleBudget as error:
        assert "restart" in str(error)
    assert len(streams) == 1


def test_negative_restart_budget_is_rejected():
    config = DesignConfig(seed=0, **SMALL)
    for kind in ("nb1", "nb2", "random"):
        with pytest.raises(ValueError, match="restart_budget"):
            generate(config, kind, restart_budget=-1)
    design, trace = generate(config, "nb1", restart_budget=0)
    assert (design.b, trace.restarts) == (SMALL["b"], 0)


def test_nb2_succeeds_on_the_same_shape():
    design, _ = generate(DesignConfig(t=6, k=4, b=2, seed=0), "nb2")
    assert validate(design).replication_spread <= 1


def test_random_drains_unreviewed_pool_first():
    for seed in range(30):
        design, _ = generate(DesignConfig(t=13, k=5, b=4, seed=seed), "random")
        unreviewed = set(range(13))
        for block in design.blocks:
            members = set(block.poster_ids)
            if len(unreviewed) >= design.k:
                assert members <= unreviewed
            elif unreviewed:
                assert unreviewed <= members
            unreviewed -= members
        assert design.replication.min() >= 1


def test_random_rejects_insufficient_capacity():
    with pytest.raises(ValueError):
        generate(DesignConfig(t=30, k=5, b=2, seed=0), "random")


def test_faculty_flags_mark_leading_blocks():
    config = DesignConfig(t=20, k=4, b=10, seed=5)
    design, _ = generate(config, "nb2")
    flags = [block.faculty for block in design.blocks]
    assert flags == [True] * config.b_min + [False] * (10 - config.b_min)

    overridden = DesignConfig(t=20, k=4, b=10, seed=5, faculty_count=3)
    design2, _ = generate(overridden, "nb2")
    flags2 = [block.faculty for block in design2.blocks]
    assert flags2 == [True] * 3 + [False] * 7


@pytest.mark.parametrize("kind", ["nb1", "nb2"])
def test_extend_keeps_prefix_and_invariants(kind):
    base, _ = generate(DesignConfig(t=30, k=4, b=12, seed=9), kind)
    extended = extend(base, 5, kind)
    assert extended.b == 17
    assert extended.blocks[:12] == base.blocks
    report = validate(extended)
    assert report.replication_spread <= 1
    assert report.all_prefixes_connected
    if kind == "nb1":
        assert report.max_concurrence <= 1
    again = extend(base, 5, kind)
    assert again.blocks == extended.blocks


def test_extend_by_zero_is_identity():
    base, _ = generate(DesignConfig(t=30, k=4, b=12, seed=9), "nb2")
    assert extend(base, 0, "nb2").blocks == base.blocks


def test_extend_random_resumes_pool_phase():
    # a 2-block design leaving posters 10..12 unreviewed: the first
    # appended block must contain all three
    config = DesignConfig(t=13, k=5, b=2, seed=6)
    base = Design.from_blocks(
        config,
        [Block(0, (0, 1, 2, 3, 4), True), Block(1, (5, 6, 7, 8, 9), True)],
    )
    extended = extend(base, 2, "random")
    assert extended.blocks[:2] == base.blocks
    assert {10, 11, 12} <= set(extended.blocks[2].poster_ids)
    assert extended.replication.min() >= 1


def test_extend_nb1_raises_when_saturated():
    # a second block of 4 posters out of 5 always repeats a pair
    base, _ = generate(DesignConfig(t=5, k=4, b=1, seed=0, max_attempts=20), "nb1")
    with pytest.raises(NB1InfeasibleBudget):
        extend(base, 1, "nb1")


def test_extend_nb1_fails_fast_at_a_forced_dead_end(monkeypatch):
    # one judge at a time from the 50 faculty blocks, seed 1 reaches block
    # 79 with exactly five posters reviewed once, two of which have met
    design, _ = generate(DesignConfig(t=200, k=5, b=50, seed=1), "nb1")
    while design.b < 79:
        design = extend(design, 1, "nb1")
    draws = []
    draw_block = generate_module._draw_block

    def counted(*args):
        draws.append(None)
        return draw_block(*args)

    monkeypatch.setattr(generate_module, "_draw_block", counted)
    with pytest.raises(NB1InfeasibleBudget) as excinfo:
        extend(design, 1, "nb1")
    assert len(draws) == 0
    assert str(excinfo.value) == (
        "nb1 cannot extend block 79 at t=200, k=5: every draw takes the same 5 least-reviewed posters "
        "(review count at most 1), and posters 155 and 182 among them have already met; "
        "an nb2 continuation can finish the session"
    )
    assert extend(design, 1, "nb2").b == 80


@pytest.mark.parametrize("kind", ["nb1", "nb2", "random"])
def test_block_codes_are_the_pair_codes_of_each_row(kind):
    # nb1 seeds its met pairs with the array helper and adds each
    # accepted block's codes from the Python one
    design, _ = generate(DesignConfig(seed=3, **SMALL), kind)
    rows = [generate_module._block_codes(row, design.t) for row in design.ids.tolist()]
    assert rows == generate_module._pair_codes(design.ids, design.t).tolist()


# t=40, k=5 has b_min=10: b=8 stays inside the default faculty phase
# (and still lets random cover every poster), b=10 ends at it and b=13
# runs past it
@pytest.mark.parametrize("kind", ["nb1", "nb2", "random"])
@pytest.mark.parametrize("b", [8, 10, 13])
@pytest.mark.parametrize("faculty_count", [None, 3])
def test_extending_a_read_back_file_matches_extending_in_memory(tmp_path, kind, b, faculty_count):
    config = DesignConfig(t=40, k=5, b=b, seed=21, faculty_count=faculty_count)
    design, _ = generate(config, kind)
    path = tmp_path / "design.csv"
    write_design(str(path), design)
    read_back = read_design(str(path), t=config.t, seed=config.seed)
    assert read_back.config == config

    def extended_digest(start):
        # an nb1 continuation may reach a dead end; both paths must then
        # reach the same one
        try:
            return design_digest(tmp_path, extend(start, 4, kind))
        except NB1InfeasibleBudget as error:
            return str(error)

    assert extended_digest(read_back) == extended_digest(design)


def test_read_design_cannot_record_a_faculty_count_past_the_last_block(tmp_path):
    # every block of such a file is flagged, which reads back as the
    # default phase below b_min and as b from b_min on
    path = tmp_path / "design.csv"
    for b, faculty_count, read_as in ((8, 9, None), (8, 8, None), (12, 15, 12)):
        design, _ = generate(DesignConfig(t=40, k=5, b=b, seed=21, faculty_count=faculty_count), "nb2")
        write_design(str(path), design)
        assert read_design(str(path)).config.faculty_count == read_as


def test_from_blocks_without_faculty_flags_extends_without_them(tmp_path):
    # two unflagged blocks below b_min: the design has no faculty phase,
    # so neither the extension nor its file flags any block
    config = DesignConfig(t=20, k=5, b=2, seed=3)
    base = Design.from_blocks(config, [Block(0, (0, 1, 2, 3, 4), False), Block(1, (4, 5, 6, 7, 8), False)])
    assert base.config.faculty_count == 0
    path = tmp_path / "design.csv"
    write_design(str(path), extend(base, 4, "nb2"))
    assert not any(block.faculty for block in read_design(str(path)).blocks)


def test_ids_are_read_only_on_every_path(tmp_path):
    design, _ = generate(DesignConfig(t=30, k=4, b=12, seed=9), "nb2")
    before = design.ids.copy()
    extended = extend(design, 3, "nb2")
    path = tmp_path / "design.csv"
    write_design(str(path), extended)
    rebuilt = Design.from_blocks(design.config, design.blocks)
    for built in (design, extended, rebuilt, read_design(str(path))):
        # the tally too: a corrupted tally never reaches a report
        for array in (built.ids, built.replication):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1
            with pytest.raises(ValueError):
                array[0] += 1
    assert np.array_equal(design.ids, before)
    assert not design.ids.flags.writeable


def test_extend_rejects_negative():
    base, _ = generate(DesignConfig(t=30, k=4, b=12, seed=9), "nb2")
    with pytest.raises(ValueError):
        extend(base, -1, "nb2")


def test_kind_coercion_rejects_unknown():
    config = DesignConfig(seed=0, **SMALL)
    with pytest.raises(ValueError):
        generate(config, "balanced")


# sha256 of the design CSV for t=40, k=4, b=20, and of the same design
# extended by 5 blocks of its own kind; any change to the order of
# random draws changes these bytes
GOLDEN = {
    ("nb1", 0): (
        "44787f54245003c17882ee5b7681dd66fae02dd8dca13c7caf9d598ab4bfe2e9",
        "1e51a5baa4004a4f58f88310010bbf755e5c6a179dd69f57ab6870181ce1d05c",
    ),
    ("nb1", 7): (
        "04a0b02b8222e0c97a2bbea35666ed29a086579e46018113dfe6e85fced49ffc",
        "f78a86b8c508e63af9e5baca33f189495fd5dc3ba151d9b974c44e032d8ac86c",
    ),
    ("nb2", 0): (
        "e7e83107a49d7fdbf902fe20676302f5d8106da1ff9b7409521327df83f5f564",
        "76f6805271432f6b53aa0607ae9458839b7b7a44f4086f4e7968a0fe7a71607d",
    ),
    ("nb2", 7): (
        "04a0b02b8222e0c97a2bbea35666ed29a086579e46018113dfe6e85fced49ffc",
        "73a69fae6c1f5a9571f8af1cb47fb7d2f21add5540ee7847f666ff8d03dd62f5",
    ),
    ("random", 0): (
        "2f9097dcc580cbfcb59667c517e26dddb16d2d325b4c936f67a217a26e730987",
        "a8d5e0c412600da2c7065cb166ac2eb9558c0f07d25f3d8e13d7e2c4b25e09a7",
    ),
    ("random", 7): (
        "4330e7cf563faffc9c398a9edcd47eb98f05128f1a99eea033e156f1cf59a552",
        "a146aaa11db7ee4b1691d8502f9378f6a2d48e2ccb968c2021925dc09403855d",
    ),
}


def design_digest(tmp_path, design):
    path = tmp_path / "design.csv"
    write_design(str(path), design)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("kind,seed", sorted(GOLDEN))
def test_designs_keep_their_bytes(tmp_path, kind, seed):
    design, _ = generate(DesignConfig(t=40, k=4, b=20, seed=seed), kind)
    digests = (design_digest(tmp_path, design), design_digest(tmp_path, extend(design, 5, kind)))
    assert digests == GOLDEN[kind, seed], stack_note()


# nb1 at the paper's shape, t=200, k=5, b=100: seed 3 restarts once and
# seed 18 twice, each time at a forced dead end, so these pin the bytes
# of designs drawn after a restart; trace, design digest and the digest
# of the design extended by 5 nb1 blocks
RESTART_GOLDEN = {
    3: (
        GenerationTrace(restarts=1, rejected_blocks=521),
        "56e1983e5c4cdb8273a186d0d8ef6353b22eef7398a3bbc41db8ce2a29bec502",
        "8ead03a4b0add80dba492c46b6abd49061854e471aa72a4cca9dcb8120bba6a1",
    ),
    18: (
        GenerationTrace(restarts=2, rejected_blocks=1031),
        "0d76d73109850c709e10f4e83c78d152113b7613d8bb147fd5f05ef9660abc78",
        "5d0f7b3664eb697b4df341af98fb659c3e5f4ecfea2f0776834b4e75fedf7ec5",
    ),
}
PAPER_SHAPE = dict(t=200, k=5, b=100)


@pytest.mark.parametrize("seed", sorted(RESTART_GOLDEN))
def test_restarted_nb1_designs_keep_their_bytes(tmp_path, seed):
    design, trace = generate(DesignConfig(seed=seed, **PAPER_SHAPE), "nb1")
    extended = extend(design, 5, "nb1")
    digests = (design_digest(tmp_path, design), design_digest(tmp_path, extended))
    assert (trace, *digests) == RESTART_GOLDEN[seed], stack_note()


def test_random_extension_of_an_uncovered_design_keeps_its_bytes(tmp_path):
    # 7 nb2 blocks leave 18 of 40 posters unreviewed, so the appended
    # random blocks drain the pool and then top up from reviewed posters
    short, _ = generate(DesignConfig(t=40, k=4, b=7, seed=3), "nb2")
    digest = design_digest(tmp_path, extend(short, 6, "random"))
    assert digest == "9551e0e930feead888f9f688580daf34a776fbde3367164cb80c8065b7596cc1"


# small shapes: t in 4-14, k in 2-min(t, 5), b in 1-16; nb1 gets a short
# rejection budget so infeasible shapes give up quickly
small_configs = st.integers(4, 14).flatmap(
    lambda t: st.builds(
        DesignConfig,
        t=st.just(t),
        k=st.integers(2, min(t, 5)),
        b=st.integers(1, 16),
        seed=st.integers(0, 2**32 - 1),
        max_attempts=st.just(40),
    )
)
kinds = st.sampled_from(["nb1", "nb2", "random"])


def generated(config, kind):
    """The design, or None where nb1 exhausts its budget or random cannot cover t."""
    try:
        return generate(config, kind, restart_budget=3)[0]
    except NB1InfeasibleBudget:
        assert kind == "nb1"
    except ValueError:
        assert kind == "random" and config.b * config.k < config.t
    return None


@settings(max_examples=60, deadline=None)
@given(config=small_configs, kind=kinds)
def test_generated_tallies_match_recount(config, kind):
    design = generated(config, kind)
    if design is not None:
        assert tallies_match_oracle(design)


@settings(max_examples=60, deadline=None)
@given(config=small_configs, kind=st.sampled_from(["nb1", "nb2"]))
def test_near_balanced_kinds_keep_spread_and_prefix_connectivity(config, kind):
    design = generated(config, kind)
    if design is not None:
        report = validate(design)
        assert report.all_prefixes_connected
        assert report.max_concurrence <= 1 or kind == "nb2"
        # before b_min blocks some posters are still unreviewed while the
        # connecting anchors are reviewed twice; from there on the
        # replication stays within one
        assert report.replication_spread <= 1 or config.b < config.b_min


@settings(max_examples=60, deadline=None)
@given(config=small_configs, kind=kinds)
def test_design_csv_round_trips_byte_for_byte(tmp_path_factory, config, kind):
    design = generated(config, kind)
    if design is not None:
        first = tmp_path_factory.mktemp("design") / "first.csv"
        again = first.with_name("again.csv")
        write_design(str(first), design)
        read_back = read_design(str(first), t=design.t)
        write_design(str(again), read_back)
        assert again.read_bytes() == first.read_bytes()
        assert read_back.blocks == design.blocks


@settings(max_examples=60, deadline=None)
@given(config=small_configs, kind=kinds, extra=st.integers(0, 4), pad=st.integers(0, 3))
def test_tallies_match_the_brute_force_oracle(tmp_path_factory, config, kind, extra, pad):
    # generate, extend, from_blocks and read_design (t up to 3 above the
    # generated t, so above max id + 1) against the nested-loop tally
    design = generated(config, kind)
    if design is None:
        return
    assert tallies_match_oracle(design)
    assert tallies_match_oracle(Design.from_blocks(design.config, design.blocks))
    try:
        extended = extend(design, extra, kind)
    except NB1InfeasibleBudget:
        assert kind == "nb1"
    else:
        assert tallies_match_oracle(extended)
    path = tmp_path_factory.mktemp("design") / "design.csv"
    write_design(str(path), design)
    read_back = read_design(str(path), t=design.t + pad)
    assert read_back.t == design.t + pad
    assert tallies_match_oracle(read_back)


def captured_stream(monkeypatch):
    """Record the generator every generate() call draws from; returns the list it fills."""
    streams = []
    new_stream = generate_module._new_stream

    def recording(seed):
        streams.append(new_stream(seed))
        return streams[-1]

    monkeypatch.setattr(generate_module, "_new_stream", recording)
    return streams


def matches_oracle(config, kind, monkeypatch, restart_budget=50):
    """True when generate() and the per-attempt oracle agree on ids, trace and final stream state."""
    streams = captured_stream(monkeypatch)
    expected = oracle_generate(config, kind, restart_budget)
    try:
        design, trace = generate(config, kind, restart_budget=restart_budget)
    except NB1InfeasibleBudget:
        return expected is None
    if expected is None:
        return False
    ids, restarts, rejected, rng = expected
    return (
        np.array_equal(design.ids, ids)
        and trace == GenerationTrace(restarts, rejected)
        and streams[-1].bit_generator.state == rng.bit_generator.state
    )


# posters 0-2 are the only ones below review count 2 and only 0 and 1
# of them have met, in the first prefix row, so every draw of the next
# block takes 0, 1 and 2 and is rejected; in the second prefix poster 2
# is unreviewed, so the draw takes two strata whole
@pytest.mark.parametrize(
    "prefix",
    [
        [(0, 1, 3), (3, 4, 5), (4, 6, 7), (5, 6, 8), (2, 7, 8)],
        [(0, 1, 3), (3, 4, 5), (4, 6, 7), (5, 6, 8), (4, 7, 8)],
    ],
)
def test_forced_dead_end_fast_forwards_to_the_full_loop_state(monkeypatch, prefix):
    config = DesignConfig(t=9, k=3, b=6, seed=5, max_attempts=50)
    start = config.b_min
    assert start == len(prefix) < config.b
    replication, concurrence = brute_force_tallies(config.t, [Block(j, row, True) for j, row in enumerate(prefix)])
    assert sorted(np.flatnonzero(replication < 2)) == [0, 1, 2]

    def prefix_ids():
        ids = np.zeros((config.b, config.k), dtype=np.int64)
        ids[:start] = prefix
        return ids

    calls = {"_draw_block": 0, "_met_pair": 0}

    def counted(name):
        function = getattr(generate_module, name)

        def wrapper(*args):
            calls[name] += 1
            return function(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(generate_module, name, counted(name))
    fast = np.random.Generator(np.random.PCG64(config.seed))
    with pytest.raises(generate_module._RestartSignal) as excinfo:
        generate_module._append_blocks(config, GeneratorKind.NB1, prefix_ids(), start, fast)
    full = np.random.Generator(np.random.PCG64(config.seed))
    with pytest.raises(OracleRestart) as oracle:
        append_blocks(config, "nb1", prefix_ids(), start, replication, concurrence, full)
    # the block is found dead before its first draw, so every draw is discarded unchecked
    assert calls == {"_draw_block": config.max_attempts, "_met_pair": 1}
    assert excinfo.value.rejected == oracle.value.rejected == config.max_attempts
    assert fast.bit_generator.state == full.bit_generator.state


# nb2 and random at seeds 0-2 check the one block draw against the
# oracle's three branches where the random pool drains over ~40 blocks
@pytest.mark.parametrize(
    ("kind", "seed"),
    [("nb1", seed) for seed in sorted(RESTART_GOLDEN)]
    + [(kind, seed) for kind in ("nb2", "random") for seed in range(3)],
)
def test_paper_shape_restarts_match_the_per_attempt_oracle(monkeypatch, kind, seed):
    assert matches_oracle(DesignConfig(seed=seed, **PAPER_SHAPE), kind, monkeypatch)


@settings(max_examples=80, deadline=None)
@given(config=small_configs, kind=kinds, extra=st.integers(1, 4))
def test_every_kind_draws_as_the_per_attempt_oracle(config, kind, extra):
    # generate against the oracle; then extend against the oracle's block
    # loop on extend's stream, which restarts exactly where extend gives up
    if kind == "random" and config.b * config.k < config.t:
        return
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert matches_oracle(config, kind, monkeypatch, restart_budget=3)
    design = generated(config, kind)
    if design is None:
        return
    grown = replace(config, b=config.b + extra)
    ids = np.zeros((grown.b, grown.k), dtype=np.int64)
    ids[: config.b] = design.ids
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=[config.seed, config.b])))
    concurrence = brute_force_tallies(design.t, design.blocks)[1] if kind == "nb1" else None
    try:
        append_blocks(grown, kind, ids, config.b, design.replication.copy(), concurrence, rng)
    except OracleRestart:
        with pytest.raises(NB1InfeasibleBudget):
            extend(design, extra, kind)
    else:
        assert np.array_equal(extend(design, extra, kind).ids, ids)
