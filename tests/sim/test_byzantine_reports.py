"""Byzantine reports of the ndbatch round: compact slots against the dense form.

The engine keeps one report slot per strategy sender
(``reports[e, slot, recipient, c]``), answers each tensor program with one
``value_tensor`` call per round whose rows stack every member and
coordinate, and reads reports only at the quorum slots whose sender is a
strategy sender.  The reference below is the form that replaced, kept here:
an ``(E, n, n, d)`` tensor indexed by sender, filled per ``(sender,
program)`` group and coordinate, gathered at every quorum slot and followed
by a finiteness scan of the whole sample.  The property draws blocks whose
executions hold 0 to ``t`` strategies (so some slots stay empty), several
programs at once — anti-convergence with two stretches and both parities,
random with seeds shared across senders and executions, fixed and
equivocate, and a program reading both its observed values and a seed of
its own per sender, so one execution may be evaluated once per seed (an
explicit example pins executions 0, 0 and 2) — silent and crashing
processes, non-finite reports and float32, and requires equal samples,
short rows and delivery counts.

A second property pins the row contract the stacking relies on: for every
shipped strategy, ``value_tensor`` over stacked rows equals one call per row.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings, strategies as st

np = pytest.importorskip("numpy", reason="the vectorised engine requires numpy")

from repro.core.rounds import async_byzantine_bounds, sync_byzantine_bounds
from repro.net.adversary import (
    AntiConvergenceStrategy,
    ByzantineValueStrategy,
    EquivocatingStrategy,
    FixedValueStrategy,
    RandomValueStrategy,
    RoundFaultModel,
    SeededOmission,
)
from repro.sim import ndbatch
from repro.sim.engine import EngineCapabilityError
from repro.sim.ndbatch import _async_samples, _Block, _injected_values, _sync_samples


class SeededShift(ByzantineValueStrategy):
    """A tensor program that reads both its observed values and its seed,
    with a seed per sender: members of one execution that carry different
    seeds are evaluated apart."""

    stateless = True

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def value(self, round_number, recipient, observed):
        top = max(observed, default=0.0)
        return top - (self.seed % 7) * 0.375 - 0.0625 * ((recipient + round_number) % 5)

    def tensor_key(self):
        return ("seeded-shift",)

    def tensor_seed(self):
        return self.seed

    def value_tensor(self, round_number, n, observed, seed_mix):
        top = np.fmax.reduce(np.asarray(observed, dtype=np.float64), axis=1)
        top = np.where(np.isnan(top), 0.0, top)
        shift = (np.asarray(seed_mix, dtype=np.uint64) % np.uint64(7)).astype(np.float64) * 0.375
        wobble = 0.0625 * ((np.arange(n) + round_number) % 5)
        return top[:, None] - shift[:, None] - wobble[None, :]


def make_strategy(kind: str):
    if kind.startswith("anti"):
        _, stretch, parity = kind.split(":")
        return AntiConvergenceStrategy(stretch=float(stretch), parity=int(parity))
    if kind.startswith("random"):
        return RandomValueStrategy(-2.0, 3.0, seed=int(kind.split(":")[1]))
    if kind.startswith("fixed"):
        return FixedValueStrategy(float(kind.split(":")[1]))
    return EquivocatingStrategy(-1.0, 2.0)


FINITE_KINDS = (
    "anti:0.0:0",
    "anti:0.0:1",
    "anti:0.25:0",
    "anti:0.25:1",
    "random:0",
    "random:1",
    "fixed:5.5",
    "equivocate",
)
NON_FINITE_KINDS = ("fixed:inf", "fixed:-inf", "fixed:nan")


# ----------------------------------------------------------------------
# The dense reference
# ----------------------------------------------------------------------


def dense_injected(block, round_number):
    """``injected[e, sender, recipient, c]``: one value_tensor call per
    (sender, program) group and coordinate, non-finite reports as NaN."""
    count, n, d = block.count, block.n, block.dimension
    injected = np.full((count, n, n, d), np.nan, dtype=np.float64)
    groups = {}
    for e, model in enumerate(block.fault_models):
        for pid, strategy in model.strategies.items():
            groups.setdefault((pid, strategy.tensor_key()), []).append(e)
    for (pid, _key), members in groups.items():
        rows = np.asarray(members, dtype=np.intp)
        representative = block.fault_models[members[0]].strategies[pid]
        seeds = np.asarray(
            [block.fault_models[e].strategies[pid].tensor_seed() for e in members],
            dtype=np.uint64,
        )
        for c in range(d):
            observed = np.where(block.holder_mask[rows], block.values[rows][:, :, c], np.nan)
            injected[rows, pid, :, c] = representative.value_tensor(
                round_number, n, observed, seeds
            )
    np.copyto(injected, np.nan, where=~np.isfinite(injected))
    return np.asarray(injected, dtype=block.dtype)


def dense_sync_samples(block, cand, injected):
    own = block.values[:, :, None, :]
    use_holder = (cand & block.holder_mask[:, None, :])[:, :, :, None]
    sample = np.where(use_holder, block.values[:, None, :, :], own)
    reports = np.swapaxes(injected, 1, 2)
    use = (cand & block.strategy_mask[:, None, :])[:, :, :, None] & np.isfinite(reports)
    return np.where(use, reports, sample)


def dense_async_samples(block, cand, cand_count, injected, updates, active, round_number, m):
    """Every quorum slot gathers a report, then the whole sample is scanned."""
    count, n = block.count, block.n
    offsets = (np.arange(count, dtype=np.int64) * n)[:, None, None]
    flat = ndbatch._choose_quorums(block, cand, cand_count, round_number, m)
    flat += offsets
    sample = np.take(block.values.reshape(count * n, -1), flat, axis=0)
    strategy_chosen = np.take(block.strategy_mask.reshape(-1), flat)
    reports = np.take(
        injected.reshape(count * n * n, -1),
        flat * n + np.arange(n, dtype=np.int64)[None, :, None],
        axis=0,
    )
    np.copyto(sample, reports, where=strategy_chosen[:, :, :, None])
    relevant = updates & active[:, None]
    starving = relevant & (cand_count < m)
    short = relevant & ~np.isfinite(sample).all(axis=-1).all(axis=-1) & ~starving
    if block.dimension > 1 and short.any():
        raise EngineCapabilityError("ndbatch", "non-finite Byzantine reports", ("event",))
    failed_at = np.full(count, n, dtype=np.int64)
    if short.any():
        failed_at = ndbatch._refill_or_fail(
            block, cand, flat - offsets, sample, starving, short, round_number, m
        )
    elif starving.any():
        failed_at = np.where(starving, np.arange(n)[None, :], n).min(axis=1)
    failed_round = failed_at < n
    filled = np.where(
        failed_round[:, None],
        (np.arange(n)[None, :] < failed_at[:, None]) & relevant,
        relevant,
    ).sum(axis=1)
    return sample, failed_round, filled * m


# ----------------------------------------------------------------------
# Drawn rounds
# ----------------------------------------------------------------------


def round_structure(block, round_number):
    """The candidate mask, candidate counts and updaters of one round, as
    the round loop derives them from the crash schedule."""
    n = block.n
    before = round_number < block.crash_round
    sends = np.where(
        block.holder_mask & before,
        n,
        np.where(block.holder_mask & (round_number == block.crash_round), block.crash_deliveries, 0),
    )
    cand = block.strategy_mask[:, None, :] | (
        block.holder_mask[:, None, :] & (np.arange(n)[None, :, None] < sends[:, None, :])
    )
    cand &= ~block.silent_mask[:, None, :]
    return cand, cand.sum(axis=2), block.holder_mask & before


@st.composite
def byzantine_rounds(draw):
    protocol = draw(st.sampled_from(["async-byzantine", "sync-byzantine"]))
    d = draw(st.sampled_from([1, 2, 3]))
    dtype = draw(st.sampled_from(["float64", "float32"]))
    if protocol == "async-byzantine":
        n = draw(st.integers(6, 17))
        t = draw(st.integers(1, (n - 1) // 5))
        bounds = async_byzantine_bounds(n, t)
    else:
        n = draw(st.integers(4, 13))
        t = draw(st.integers(1, (n - 1) // 3))
        bounds = sync_byzantine_bounds(n, t)
    count = draw(st.integers(1, 7))
    kinds = FINITE_KINDS + (NON_FINITE_KINDS if draw(st.booleans()) else ())
    mix = draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=4, unique=True))
    round_number = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Half the blocks give each execution drawn SeededShift members, one
    # seed each: an execution may then be evaluated once per seed, between
    # executions with no member at all (e.g. seeds [[0, 2], [], [1]]).
    shift_seeds = [[]] * count
    if draw(st.booleans()):
        shift_seeds = draw(
            st.lists(
                st.lists(st.integers(0, 3), max_size=t), min_size=count, max_size=count
            )
        )
    models = []
    for seeds in shift_seeds:
        order = [int(pid) for pid in rng.permutation(n)]
        strategies = {pid: SeededShift(seed) for pid, seed in zip(order, seeds)}
        silent, crashes = set(), {}
        for pid in order[len(seeds) : len(seeds) + rng.integers(0, t - len(seeds) + 1)]:
            role = rng.integers(0, 5)
            if role < 3:
                strategies[pid] = make_strategy(mix[rng.integers(0, len(mix))])
            elif role == 3:
                silent.add(pid)
            else:
                crashes[pid] = (
                    round_number + int(rng.integers(-1, 2)),
                    int(rng.integers(0, n + 1)),
                )
        models.append(
            RoundFaultModel(crash_schedule=crashes, strategies=strategies, silent=frozenset(silent))
        )
    policies = [SeededOmission(int(seed)) for seed in rng.integers(0, 2**31, size=count)]
    inputs = rng.uniform(-1.0, 1.0, size=(count, n, d))
    block = _Block(protocol, inputs, t, 1e-3, bounds, round_number + 2, models, policies, dtype)
    # Mid-run holder values: drawn, at the block's dtype, NaN off the holders.
    block.values = np.where(
        block.holder_mask[:, :, None], rng.normal(0.0, 2.0, size=(count, n, d)), np.nan
    ).astype(block.dtype)
    holders = np.argwhere(block.holder_mask)
    if draw(st.integers(0, 5)) == 0 and len(holders):
        # A non-finite holder value (e.g. a non-finite honest input): the
        # whole sample is scanned, as the dense form always did.
        e, pid = holders[rng.integers(0, len(holders))]
        block.values[e, pid, rng.integers(0, d)] = draw(st.sampled_from([math.inf, math.nan]))
    active = rng.random(count) < 0.9
    return block, round_number, active


def seeded_shift_round(d):
    """A round whose program evaluates executions 0, 0 and 2, which must not
    be read as the run 0, 1, 2: execution 0 holds two SeededShift members
    with different seeds, execution 1 none and execution 2 one."""
    n, t = 11, 2
    models = [
        RoundFaultModel(strategies={3: SeededShift(1), 8: SeededShift(2)}),
        RoundFaultModel(crash_schedule={6: (1, 4)}),
        RoundFaultModel(strategies={5: SeededShift(4)}),
    ]
    inputs = np.random.default_rng(3).uniform(-1.0, 1.0, size=(3, n, d))
    block = _Block(
        "async-byzantine", inputs, t, 1e-3, async_byzantine_bounds(n, t), 3, models,
        [SeededOmission(seed) for seed in range(3)], "float64",
    )
    return block, 1, np.ones(3, dtype=bool)


def same(left, right):
    """Equal bits where finite; non-finite in the same places."""
    left, right = np.asarray(left), np.asarray(right)
    return (
        left.dtype == right.dtype
        and left.shape == right.shape
        and np.array_equal(np.isfinite(left), np.isfinite(right))
        and np.array_equal(left[np.isfinite(left)], right[np.isfinite(right)])
    )


class TestCompactReportsMatchDense:
    @given(byzantine_rounds())
    @example(seeded_shift_round(1))
    @example(seeded_shift_round(3))
    @settings(max_examples=150, deadline=None)
    def test_round_equals_dense_reference(self, drawn):
        block, round_number, active = drawn
        cand, cand_count, updates = round_structure(block, round_number)
        m = block.bounds.sample_size
        reports = _injected_values(block, round_number)
        injected = dense_injected(block, round_number)

        # Every strategy sender's slot holds what the dense tensor holds.
        assert reports.shape == (block.count, block.slot_count, block.n, block.dimension)
        for e, model in enumerate(block.fault_models):
            for pid in model.strategies:
                row = block.report_row[e * block.n + pid]
                slot = reports.reshape(-1, block.dimension)[row : row + block.n]
                assert same(slot, injected[e, pid])

        if block.synchronous:
            assert same(_sync_samples(block, cand, reports), dense_sync_samples(block, cand, injected))
            return

        short_rows = []
        refill = ndbatch._refill_or_fail

        def recording(block, cand, chosen, sample, starving, short, round_number, m):
            short_rows.append(short.copy())
            return refill(block, cand, chosen, sample, starving, short, round_number, m)

        outcomes = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ndbatch, "_refill_or_fail", recording)
            for gather, tensor in ((_async_samples, reports), (dense_async_samples, injected)):
                try:
                    outcomes.append(
                        gather(block, cand, cand_count, tensor, updates, active, round_number, m)
                    )
                except EngineCapabilityError:
                    outcomes.append("non-finite report in a vector block")
        compact, dense = outcomes
        if isinstance(dense, str):
            assert compact == dense
            assert block.dimension > 1
            return
        sample, failed, delivered = compact
        assert same(sample, dense[0])
        assert np.array_equal(failed, dense[1])
        assert np.array_equal(delivered, dense[2])
        assert len(short_rows) in (0, 2)
        if short_rows:
            assert np.array_equal(short_rows[0], short_rows[1])

    def test_non_finite_reports_take_the_refill_path_at_d1(self):
        # Pinned instance of the drawn property: an inf and a NaN reporter
        # at d = 1 short some rows, which refill from late senders.
        n, t = 11, 2
        models = [
            RoundFaultModel(
                strategies={9: FixedValueStrategy(math.inf), 10: FixedValueStrategy(math.nan)}
            )
        ] * 3
        inputs = np.linspace(-1.0, 1.0, 3 * n).reshape(3, n, 1)
        block = _Block(
            "async-byzantine", inputs, t, 1e-3, async_byzantine_bounds(n, t), 3, models,
            [SeededOmission(seed) for seed in range(3)], "float64",
        )
        cand, cand_count, updates = round_structure(block, 1)
        active = np.ones(3, dtype=bool)
        m = block.bounds.sample_size
        sample, failed, delivered = _async_samples(
            block, cand, cand_count, _injected_values(block, 1), updates, active, 1, m
        )
        dense = dense_async_samples(
            block, cand, cand_count, dense_injected(block, 1), updates, active, 1, m
        )
        assert not failed.any()
        assert np.isfinite(sample[updates]).all()
        assert same(sample, dense[0])
        assert np.array_equal(delivered, dense[2])

    def test_non_finite_reports_raise_in_vector_blocks(self):
        n, t = 11, 2
        block = _Block(
            "async-byzantine", np.zeros((2, n, 3)), t, 1e-3, async_byzantine_bounds(n, t), 3,
            [RoundFaultModel(strategies={10: FixedValueStrategy(math.inf)})] * 2,
            [SeededOmission(1), SeededOmission(2)], "float32",
        )
        cand, cand_count, updates = round_structure(block, 1)
        with pytest.raises(EngineCapabilityError, match="non-finite Byzantine reports"):
            _async_samples(
                block, cand, cand_count, _injected_values(block, 1), updates,
                np.ones(2, dtype=bool), 1, block.bounds.sample_size,
            )

    def test_crash_only_blocks_build_no_slots(self):
        n, t = 11, 2
        block = _Block(
            "async-byzantine", np.zeros((2, n, 1)), t, 1e-3, async_byzantine_bounds(n, t), 3,
            [RoundFaultModel(crash_schedule={3: (1, 4)}, silent=frozenset({5}))] * 2,
            [SeededOmission(1), SeededOmission(2)], "float64",
        )
        assert block.slot_count == 0
        assert block.report_row is None
        assert block.strategy_programs == []

    @pytest.mark.parametrize("with_strategy", [(True, True, True), (True, False, True)])
    def test_observed_is_read_only_on_every_layout(self, with_strategy):
        # A contiguous run of evaluated executions reads a view of the
        # observed tensor, a run with a gap a copy: a strategy that writes
        # to either fails alike.
        class Scribbler(SeededShift):
            def value_tensor(self, round_number, n, observed, seed_mix):
                observed[...] = 0.0
                return super().value_tensor(round_number, n, observed, seed_mix)

        n, t = 11, 2
        models = [
            RoundFaultModel(strategies={4: Scribbler(1)} if has else {}) for has in with_strategy
        ]
        block = _Block(
            "async-byzantine", np.zeros((3, n, 2)), t, 1e-3, async_byzantine_bounds(n, t), 3,
            models, [SeededOmission(seed) for seed in range(3)], "float64",
        )
        with pytest.raises(ValueError, match="read-only"):
            _injected_values(block, 1)


# ----------------------------------------------------------------------
# The row contract
# ----------------------------------------------------------------------


SHIPPED = (
    AntiConvergenceStrategy(),
    AntiConvergenceStrategy(stretch=0.5, parity=1),
    RandomValueStrategy(-2.0, 3.0, seed=4),
    FixedValueStrategy(-7.25),
    EquivocatingStrategy(-1.0, 2.0),
)


class TestValueTensorRowContract:
    @given(
        rows=st.integers(1, 12),
        width=st.integers(1, 9),
        n=st.integers(1, 20),
        round_number=st.integers(1, 10_000),
        dtype=st.sampled_from(["float64", "float32"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_stacked_rows_equal_one_call_per_row(self, rows, width, n, round_number, dtype, seed):
        rng = np.random.default_rng(seed)
        observed = rng.normal(size=(rows, width)).astype(dtype)
        observed[rng.random((rows, width)) < 0.3] = np.nan  # non-holder slots
        seed_mix = rng.integers(0, 2**63, size=rows, dtype=np.uint64)
        seed_mix[rng.random(rows) < 0.3] = seed_mix[0]  # shared seeds
        for strategy in SHIPPED:
            stacked = np.asarray(strategy.value_tensor(round_number, n, observed, seed_mix))
            assert stacked.shape == (rows, n), strategy.describe()
            for row in range(rows):
                alone = strategy.value_tensor(
                    round_number, n, observed[row : row + 1], seed_mix[row : row + 1]
                )
                assert np.array_equal(stacked[row], np.asarray(alone)[0]), strategy.describe()
