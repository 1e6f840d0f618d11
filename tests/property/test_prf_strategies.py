"""Property tests: counter-based PRF strategies and delay models.

The vectorised engine's bit-identical-adversary guarantee rests on three
properties of the PRF redesigns (:class:`~repro.net.adversary.
RandomValueStrategy`, :class:`~repro.net.adversary.SeededDelay`):

* the scalar and numpy evaluation paths produce *identical* floats;
* draws are pure functions of ``(seed, round, recipient[, sender])`` —
  invariant under query order, repetition, and execution-block grouping;
* draws land in the configured interval and differ across rounds/recipients
  (the strategy actually equivocates).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.adversary import (
    AntiConvergenceStrategy,
    DelayRankOmission,
    EquivocatingStrategy,
    FixedValueStrategy,
    RandomValueStrategy,
    SeededDelay,
)
from repro.net.message import Message

seeds = st.integers(min_value=0, max_value=2**63)
rounds = st.integers(min_value=1, max_value=10_000)
sizes = st.integers(min_value=1, max_value=40)


class TestRandomValueStrategyPRF:
    @given(seed=seeds, round_number=rounds, n=sizes)
    @settings(max_examples=60, deadline=None)
    def test_scalar_and_tensor_paths_identical(self, seed, round_number, n):
        np = pytest.importorskip("numpy")
        strategy = RandomValueStrategy(-3.0, 5.0, seed=seed)
        scalar = [strategy.value(round_number, q, []) for q in range(n)]
        tensor = strategy.value_tensor(
            round_number, n, np.full((1, 1), np.nan),
            np.asarray([strategy.tensor_seed()], dtype=np.uint64),
        )
        assert scalar == list(np.asarray(tensor)[0])  # bit-identical, not approximately equal

    @given(seed=seeds, round_number=rounds, n=sizes)
    @settings(max_examples=60, deadline=None)
    def test_draws_within_interval(self, seed, round_number, n):
        low, high = -2.5, 7.25
        strategy = RandomValueStrategy(low, high, seed=seed)
        for q in range(n):
            assert low <= strategy.value(round_number, q, []) <= high

    @given(seed=seeds, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_query_order(self, seed, data):
        queries = data.draw(
            st.lists(
                st.tuples(rounds, st.integers(min_value=0, max_value=30)),
                min_size=2,
                max_size=20,
            )
        )
        ordered = RandomValueStrategy(0.0, 1.0, seed=seed)
        shuffled = RandomValueStrategy(0.0, 1.0, seed=seed)
        forward = {q: ordered.value(q[0], q[1], []) for q in queries}
        backward = {q: shuffled.value(q[0], q[1], []) for q in reversed(queries)}
        assert forward == backward

    def test_equivocates_across_recipients_and_rounds(self):
        strategy = RandomValueStrategy(0.0, 1.0, seed=9)
        row = [strategy.value(1, q, []) for q in range(16)]
        assert len(set(row)) > 1
        assert strategy.value(1, 0, []) != strategy.value(2, 0, [])

    def test_stateless_flag_and_reproducibility(self):
        assert RandomValueStrategy.stateless
        a = RandomValueStrategy(-1.0, 1.0, seed=3)
        b = RandomValueStrategy(-1.0, 1.0, seed=3)
        assert [a.value(r, q, []) for r in (1, 2) for q in range(5)] == [
            b.value(r, q, []) for r in (1, 2) for q in range(5)
        ]


class TestBlockOrderingInvariance:
    """Draws cannot depend on how executions are grouped into ndbatch blocks."""

    def test_same_draws_regardless_of_block_grouping(self):
        np = pytest.importorskip("numpy")
        from repro.net.adversary import RoundFaultModel
        from repro.sim.ndbatch import run_ndbatch_block

        inputs = [[0.1 * i for i in range(11)] for _ in range(6)]
        models = [
            RoundFaultModel(strategies={10: RandomValueStrategy(-1.0, 2.0, seed=s)})
            for s in range(6)
        ]
        whole = run_ndbatch_block(
            "async-byzantine", inputs, t=2, epsilon=1e-2,
            fault_models=models, seeds=list(range(6)),
        )
        models2 = [
            RoundFaultModel(strategies={10: RandomValueStrategy(-1.0, 2.0, seed=s)})
            for s in range(6)
        ]
        split = []
        for lo, hi in [(0, 2), (2, 3), (3, 6)]:
            split.extend(
                run_ndbatch_block(
                    "async-byzantine", inputs[lo:hi], t=2, epsilon=1e-2,
                    fault_models=models2[lo:hi], seeds=list(range(lo, hi)),
                )
            )
        for left, right in zip(whole, split):
            assert left.outputs == right.outputs
            assert left.stats.messages_sent == right.stats.messages_sent
            assert left.trajectory == right.trajectory


class TestBuiltinValueTensors:
    @pytest.mark.parametrize(
        "strategy",
        [
            FixedValueStrategy(123.5),
            EquivocatingStrategy(-1.0, 2.0),
            AntiConvergenceStrategy(stretch=0.5),
            RandomValueStrategy(-2.0, 3.0, seed=11),
        ],
        ids=lambda s: type(s).__name__,
    )
    def test_value_tensor_row_matches_scalar(self, strategy):
        np = pytest.importorskip("numpy")
        observed = [0.1, 0.4, 0.9]
        seeds = np.asarray([strategy.tensor_seed()], dtype=np.uint64)
        for round_number in (1, 3, 17):
            row = strategy.value_tensor(round_number, 9, np.asarray([observed]), seeds)
            scalar = [strategy.value(round_number, q, observed) for q in range(9)]
            assert list(np.asarray(row)[0]) == scalar


class TestSeededDelayPRF:
    @given(seed=seeds, round_number=rounds, n=sizes)
    @settings(max_examples=60, deadline=None)
    def test_scalar_and_tensor_paths_identical(self, seed, round_number, n):
        np = pytest.importorskip("numpy")
        model = SeededDelay(0.25, 4.0, seed=seed)
        probe = Message(kind="VALUE", round=round_number, value=0.0)
        scalar = [
            [model.delay(sender, recipient, probe, 0.0) for sender in range(n)]
            for recipient in range(n)
        ]
        seeds = np.asarray([model.tensor_seed()], dtype=np.uint64)
        tensor = np.asarray(model.delay_tensor(round_number, n, seeds))
        assert np.array_equal(np.asarray(scalar), tensor[0])

    @given(seed=seeds, round_number=rounds)
    @settings(max_examples=60, deadline=None)
    def test_delays_positive_and_within_interval(self, seed, round_number):
        model = SeededDelay(0.25, 4.0, seed=seed)
        probe = Message(kind="VALUE", round=round_number, value=0.0)
        for sender in range(8):
            for recipient in range(8):
                delay = model.delay(sender, recipient, probe, 1.0)
                assert 0.25 <= delay <= 4.0

    def test_rank_tensor_is_the_delay_tensor(self):
        np = pytest.importorskip("numpy")
        model = SeededDelay(0.1, 2.0, seed=5)
        policy = DelayRankOmission(model)
        seeds = np.asarray([policy.tensor_seed()], dtype=np.uint64)
        ranks = np.asarray(policy.rank_tensor(3, 7, seeds))[0]
        assert np.array_equal(ranks, np.asarray(model.delay_tensor(3, 7, seeds))[0])
        # The scalar quorum must agree with the bulk ranking's (rank, id) order.
        candidates = list(range(7))
        for recipient in range(7):
            expected = sorted(
                candidates, key=lambda s: (ranks[recipient][s], s)
            )[:5]
            assert list(policy.quorum(3, recipient, candidates, 5)) == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            SeededDelay(0.0, 1.0)
        with pytest.raises(ValueError):
            SeededDelay(2.0, 1.0)
