"""Quorum selection of the ndbatch round: slabs and shared rankings.

:func:`repro.sim.ndbatch._choose_quorums` ranks the seeded executions and
the per-seed tensor groups slab by slab (at most ``QUORUM_SLAB_KEYS`` keys
at a time) and ranks a shared tensor group once for all its members.  The
reference below is the formula those paths replaced, kept here: every key
or rank of the round as one ``(E, n, n)`` tensor, masked, sorted and cut to
the quorum size.  The property draws shapes that cross slab boundaries,
blocks where only some executions are seeded, masked and starving rows, and
shared and per-seed tensor groups, and requires equal quorums.

Also pinned here: one round's quorum step allocates far less than a
block-sized key tensor, and twice the planner's per-execution model covers
the measured peak of a block on every quorum path.
"""

from __future__ import annotations

import math
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

np = pytest.importorskip("numpy", reason="the vectorised engine requires numpy")

from repro.core.rounds import async_byzantine_bounds, async_crash_bounds
from repro.net.adversary import (
    SENDER_MASK,
    AntiConvergenceStrategy,
    DelayRankOmission,
    OmissionPolicy,
    PartitionDelay,
    RoundFaultModel,
    SeededDelay,
    SeededOmission,
    StaggeredExclusionDelay,
    mix64,
    seeded_rank_key_block,
)
from repro.sim import ndbatch
from repro.sim.ndbatch import QUORUM_SLAB_KEYS, _advance_block, _Block, _choose_quorums
from repro.sim.planner import bytes_per_execution

#: Ring sizes at which one slab holds exactly one and exactly three executions.
ONE_PER_SLAB = math.isqrt(QUORUM_SLAB_KEYS // 2) + 1
THREE_PER_SLAB = math.isqrt(QUORUM_SLAB_KEYS // 3)


class SubSeeded(SeededOmission):
    """Not exactly a SeededOmission: a tensor group with integer rank keys."""


KINDS = ("seeded", "subseeded", "per-seed", "shared-seed", "staggered", "infinite")


def make_policy(kind: str, seed: int, n: int) -> OmissionPolicy:
    if kind == "seeded":
        return SeededOmission(seed)
    if kind == "subseeded":
        return SubSeeded(seed)
    if kind == "per-seed":
        return DelayRankOmission(SeededDelay(0.1, 2.0, seed=seed))
    if kind == "shared-seed":
        return DelayRankOmission(SeededDelay(0.1, 2.0, seed=17))
    if kind == "staggered":
        return DelayRankOmission(StaggeredExclusionDelay(n, exclude=n // 3, stride=-1, phase=2))
    # Tied float ranks and infinite ones, which must still beat non-candidates.
    return DelayRankOmission(PartitionDelay(camp_a=range(0, n, 3), slow=math.inf))


def make_block(kinds, schedules, n, t, rounds=3, protocol="async-crash", strategies=None):
    count = len(kinds)
    bounds_for = async_byzantine_bounds if protocol == "async-byzantine" else async_crash_bounds
    bounds = bounds_for(n, t)
    inputs = np.random.default_rng(count * n).random((count, n, 1))
    models = [
        RoundFaultModel(crash_schedule=dict(schedule), strategies=dict(strategies or {}))
        for schedule in schedules
    ]
    policies = [make_policy(kind, 1000 + e, n) for e, kind in enumerate(kinds)]
    return _Block(protocol, inputs, t, 1e-3, bounds, rounds, models, policies, "float64")


def reference_quorums(policies, cand, round_number, m):
    """Every key or rank of the round as one (E, n, n) tensor, then sorted."""
    count, n = cand.shape[:2]
    chosen = np.zeros((count, n, m), dtype=np.int64)
    seeded, groups = [], {}
    for e, policy in enumerate(policies):
        if type(policy) is SeededOmission:
            seeded.append(e)
        else:
            groups.setdefault(policy.tensor_key(), []).append(e)
    if seeded:
        seed_mix = np.array([mix64(policies[e].seed) for e in seeded], dtype=np.uint64)
        keys = seeded_rank_key_block(seed_mix, round_number, n)
        np.copyto(keys, np.uint64(2**64 - 1), where=~cand[seeded])
        smallest = np.sort(keys, axis=2)[:, :, :m]
        picked = (smallest & np.uint64(SENDER_MASK)).astype(np.int64)
        chosen[seeded] = np.minimum(picked, n - 1)
    for members in groups.values():
        seeds = np.array([policies[e].tensor_seed() for e in members], dtype=np.uint64)
        ranks = np.asarray(policies[members[0]].rank_tensor(round_number, n, seeds))
        if ranks.dtype.kind in "iu":
            masked = np.where(cand[members], ranks, np.iinfo(ranks.dtype).max)
        else:
            masked = np.where(cand[members], ranks.astype(np.float64), np.nan)
        chosen[members] = np.argsort(masked, axis=2, kind="stable")[:, :, :m]
    return chosen


def layout_candidates(block, rng, masking):
    """A random candidate mask per crash/strategy layout, shared by every
    execution of that layout — the engine's contract for shared groups."""
    count, n, m = block.count, block.n, block.bounds.sample_size
    by_layout = {}
    cand = np.empty((count, n, n), dtype=bool)
    for e in range(count):
        layout = tuple(
            array[e].tobytes()
            for array in (
                block.crash_round, block.crash_deliveries, block.strategy_mask, block.silent_mask
            )
        )
        if layout not in by_layout:
            mask = np.ones((n, n), dtype=bool)
            if masking != "full":
                mask &= rng.random((n, n)) > rng.uniform(0.0, 0.4)
                keep = rng.permuted(np.tile(np.arange(n), (n, 1)), axis=1)[:, :m]
                np.put_along_axis(mask, keep, True, axis=1)  # every row keeps >= m
            if masking == "starving":
                for row in rng.choice(n, size=rng.integers(1, n + 1), replace=False):
                    mask[row] = False
                    mask[row, rng.choice(n, size=rng.integers(0, m), replace=False)] = True
            by_layout[layout] = mask
        cand[e] = by_layout[layout]
    return cand


@st.composite
def quorum_rounds(draw, sizes, crossing):
    """One round's quorum inputs.  With ``crossing`` the block spans two to
    three slabs and its size is not always a multiple of the slab."""
    n = draw(st.sampled_from(sizes))
    per_slab = max(1, QUORUM_SLAB_KEYS // (n * n))
    count = draw(st.integers(per_slab + 1, 3 * per_slab + 2) if crossing else st.integers(1, 9))
    mix = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=3, unique=True))
    kinds = draw(st.lists(st.sampled_from(mix), min_size=count, max_size=count))
    t = (n - 1) // 2
    layout = draw(st.sampled_from(["none", "shared", "distinct", "rounds"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)

    def schedule():
        crashed = rng.choice(n, size=rng.integers(0, t + 1), replace=False)
        return {
            int(pid): (int(rng.integers(1, 4)), int(rng.integers(0, n + 1))) for pid in crashed
        }

    if layout == "none":
        schedules = [{}] * count
    elif layout == "shared":
        schedules = [schedule()] * count
    elif layout == "rounds":
        # One crash set and prefix per process, crash rounds per execution.
        shared = schedule()
        schedules = [
            {pid: (int(rng.integers(1, 4)), deliveries) for pid, (_, deliveries) in shared.items()}
            for _ in range(count)
        ]
    else:
        schedules = [schedule() for _ in range(count)]
    block = make_block(kinds, schedules, n, t)
    cand = layout_candidates(block, rng, draw(st.sampled_from(["full", "masked", "starving"])))
    round_number = draw(st.integers(1, 60))
    return block, cand, round_number


def assert_matches_reference(case):
    block, cand, round_number = case
    m = block.bounds.sample_size
    expected = reference_quorums(block.policies, cand, round_number, m)
    chosen = _choose_quorums(block, cand, cand.sum(axis=2), round_number, m)
    assert chosen.dtype == np.int64
    assert np.array_equal(chosen, expected)


class TestQuorumSelectionDifferential:
    @given(case=quorum_rounds(sizes=[THREE_PER_SLAB, ONE_PER_SLAB], crossing=True))
    @settings(max_examples=40, deadline=None)
    def test_slab_crossing_blocks_equal_full_tensor_reference(self, case):
        assert_matches_reference(case)

    @given(case=quorum_rounds(sizes=[5, 12, 31], crossing=False))
    @settings(max_examples=60, deadline=None)
    def test_small_blocks_equal_full_tensor_reference(self, case):
        assert_matches_reference(case)

    def test_explicit_slab_crossing_shapes(self, monkeypatch):
        # One execution per slab (every seeded execution its own slab), and
        # three per slab over seven seeded executions interleaved with a
        # per-seed and a shared group; crash rows mask non-candidates.
        calls = []
        original = ndbatch.seeded_rank_key_block

        def counting(seed_mix, round_number, n, out=None):
            calls.append(len(seed_mix))
            return original(seed_mix, round_number, n, out=out)

        monkeypatch.setattr(ndbatch, "seeded_rank_key_block", counting)
        rng = np.random.default_rng(3)
        for n, kinds in (
            (ONE_PER_SLAB, ["seeded"] * 3),
            (THREE_PER_SLAB, ["seeded", "per-seed", "seeded", "seeded", "staggered", "seeded",
                              "per-seed", "seeded", "staggered", "seeded", "seeded"]),
        ):
            t = (n - 1) // 2
            schedules = [{n - 1: (1, 5), n - 2: (1, n // 2)}] * len(kinds)
            block = make_block(kinds, schedules, n, t)
            cand = layout_candidates(block, rng, "masked")
            m = block.bounds.sample_size
            calls.clear()
            chosen = _choose_quorums(block, cand, cand.sum(axis=2), 2, m)
            expected = reference_quorums(block.policies, cand, 2, m)
            assert np.array_equal(chosen, expected)
            per_slab = max(1, QUORUM_SLAB_KEYS // (n * n))
            seeded = kinds.count("seeded")
            assert calls == [min(per_slab, seeded - start) for start in range(0, seeded, per_slab)]

    @pytest.mark.parametrize("kind", ["staggered", "shared-seed"])
    def test_groups_whose_crash_rounds_differ_are_not_shared(self, kind):
        # Same crashed process, same prefix, different crash rounds: the
        # members' candidate matrices differ, so no member may stand in for
        # the group.
        n, t = 12, 5
        schedules = [{11: (1, 5)}, {11: (2, 5)}, {11: (3, 5)}, {11: (2, 5)}]
        block = make_block([kind] * len(schedules), schedules, n, t)
        assert [group[3] for group in block.policy_tensor_groups] == [False]
        cand = layout_candidates(block, np.random.default_rng(5), "masked")
        assert not np.array_equal(cand[0], cand[1])
        assert_matches_reference((block, cand, 2))

    def test_shared_group_is_ranked_once_per_round(self, monkeypatch):
        # A deterministic delay program over one crash layout: one rank_tensor
        # call for a single seed per round, whatever the group's size.
        seen = []
        original = DelayRankOmission.rank_tensor

        def spy(self, round_number, n, seed_mix):
            seen.append((round_number, len(seed_mix)))
            return original(self, round_number, n, seed_mix)

        monkeypatch.setattr(DelayRankOmission, "rank_tensor", spy)
        n, count = 31, 40
        schedules = [{30: (1, 4), 29: (2, 17)}] * count
        block = make_block(["staggered"] * count, schedules, n, 15, rounds=4)
        _advance_block(block)
        assert seen == [(r, 1) for r in range(1, 5)]


class TestQuorumMemory:
    @pytest.mark.parametrize("kind", ["seeded", "staggered", "per-seed"])
    def test_one_round_stays_under_half_a_key_tensor_beyond_chosen(self, kind):
        # Ranking the whole block at once allocates the (E, n, n) uint64
        # keys, their sorted copy and more: 83 MiB at this shape against
        # 11.9 MiB of quorums.  Slabs keep the step within a few MiB of
        # `chosen`.
        n, count = 127, 192
        t = (n - 1) // 2
        block = make_block([kind] * count, [{n - 1: (1, 40)}] * count, n, t)
        cand = np.ones((count, n, n), dtype=bool)
        cand[:, 40:, n - 1] = False  # a mid-multicast crash masks part of each row
        cand_count = cand.sum(axis=2)
        m = block.bounds.sample_size
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            chosen = _choose_quorums(block, cand, cand_count, 1, m)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
        key_tensor = count * n * n * np.dtype(np.uint64).itemsize
        assert peak - chosen.nbytes < key_tensor / 2


class TestPlannerModelCoversEveryPath:
    @pytest.mark.parametrize("n, count", [(7, 512), (31, 128), (127, 32)])
    @pytest.mark.parametrize("kind", ["seeded", "staggered", "per-seed"])
    @pytest.mark.parametrize("protocol", ["async-crash", "async-byzantine"])
    def test_twice_the_model_covers_a_blocks_peak(self, n, count, kind, protocol):
        rounds = 4
        if protocol == "async-crash":
            t = (n - 1) // 2
            schedules = [
                {n - 1 - i: (i + 1, (e + 3 * i) % (n + 1)) for i in range(min(t, rounds))}
                for e in range(count)
            ]
            strategies = None
        else:
            t = (n - 1) // 5
            schedules = [{}] * count
            strategies = {n - 1 - i: AntiConvergenceStrategy() for i in range(t)}
        block = make_block(
            [kind] * count, schedules, n, t, rounds=rounds, protocol=protocol,
            strategies=strategies,
        )
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            _advance_block(block)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
        model = count * bytes_per_execution(n, block.bounds.sample_size, rounds)
        assert peak <= 2 * model
