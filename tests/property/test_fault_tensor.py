"""Property tests: the tensor fault-program API against the scalar paths.

The vectorised engine runs the whole-block tensor forms (``value_tensor``,
``delay_tensor``, ``rank_tensor``); the batch and event engines ask the
per-query forms (``value``, ``delay``, ``quorum``).  The draws are
bit-identical across engines only if every tensor row answers exactly what
the per-query form answers.  These properties pin that contract across
seeds, rounds, observed values and block groupings:

* ``value_tensor`` rows equal the per-seed scalar ``value`` calls bit for bit;
* ``delay_tensor``/``rank_tensor`` rows equal the per-pair probes;
* tensors are invariant under block splits — evaluating a stacked seed
  vector equals evaluating each seed alone (no cross-execution leakage);
* strategies sharing a ``tensor_key`` really are one program: a
  representative instance answers for any member, given the member's seed.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

np = pytest.importorskip("numpy")

from repro.net.adversary import (
    AntiConvergenceStrategy,
    DelayRankOmission,
    EquivocatingStrategy,
    FixedValueStrategy,
    LaggardDelay,
    PartitionDelay,
    PartitionReportDelay,
    RandomValueStrategy,
    SeededDelay,
    SeededOmission,
    StaggeredExclusionDelay,
    seeded_rank_key,
)
from repro.net.message import Message
from repro.net.network import ConstantDelay

seeds = st.integers(min_value=0, max_value=2**63)
rounds = st.integers(min_value=1, max_value=10_000)
sizes = st.integers(min_value=2, max_value=24)


def _strategies(seed):
    return [
        FixedValueStrategy(123.5),
        EquivocatingStrategy(-1.0, 2.0),
        AntiConvergenceStrategy(stretch=0.5),
        RandomValueStrategy(-2.0, 3.0, seed=seed),
    ]


class TestValueTensorEqualsScalar:
    @given(seed=seeds, round_number=rounds, n=sizes)
    @settings(max_examples=40, deadline=None)
    def test_tensor_rows_match_scalar_draws(self, seed, round_number, n):
        # Nothing observed is an all-NaN row: the engine pads non-holder
        # slots with NaN.
        for observed in ([0.25, -0.75, 1.5], [0.1, 0.9], []):
            observed_row = np.asarray(observed or [np.nan])[None, :]
            for strategy in _strategies(seed):
                scalar = [strategy.value(round_number, q, observed) for q in range(n)]
                tensor = strategy.value_tensor(
                    round_number, n, observed_row,
                    np.asarray([strategy.tensor_seed()], dtype=np.uint64),
                )
                assert tensor is not None, strategy.describe()
                assert np.asarray(tensor).shape == (1, n)
                assert list(np.asarray(tensor)[0]) == scalar  # bit-identical

    @given(seed_a=seeds, seed_b=seeds, round_number=rounds, n=sizes)
    @settings(max_examples=40, deadline=None)
    def test_block_split_invariance(self, seed_a, seed_b, round_number, n):
        # One stacked call over two seeds == two single-seed calls: no
        # cross-execution leakage, so ndbatch block grouping cannot change
        # the draws.
        a = RandomValueStrategy(-2.0, 3.0, seed=seed_a)
        b = RandomValueStrategy(-2.0, 3.0, seed=seed_b)
        observed = np.asarray([[0.0, 1.0], [0.5, np.nan]])
        stacked = a.value_tensor(
            round_number, n, observed,
            np.asarray([a.tensor_seed(), b.tensor_seed()], dtype=np.uint64),
        )
        alone_a = a.value_tensor(
            round_number, n, observed[:1],
            np.asarray([a.tensor_seed()], dtype=np.uint64),
        )
        alone_b = b.value_tensor(
            round_number, n, observed[1:],
            np.asarray([b.tensor_seed()], dtype=np.uint64),
        )
        assert np.array_equal(np.asarray(stacked)[0], np.asarray(alone_a)[0])
        assert np.array_equal(np.asarray(stacked)[1], np.asarray(alone_b)[0])

    @given(seed_a=seeds, seed_b=seeds, round_number=rounds)
    @settings(max_examples=40, deadline=None)
    def test_representative_answers_for_any_group_member(self, seed_a, seed_b, round_number):
        # Equal tensor_key => one program: the *representative* instance
        # evaluated at the *member's* seed reproduces the member's draws.
        representative = RandomValueStrategy(-2.0, 3.0, seed=seed_a)
        member = RandomValueStrategy(-2.0, 3.0, seed=seed_b)
        assert representative.tensor_key() == member.tensor_key()
        n = 9
        observed = np.full((1, 1), np.nan)
        via_rep = representative.value_tensor(
            round_number, n, observed,
            np.asarray([member.tensor_seed()], dtype=np.uint64),
        )
        direct = [member.value(round_number, q, []) for q in range(n)]
        assert list(np.asarray(via_rep)[0]) == direct

    def test_anti_convergence_observed_masking(self):
        strategy = AntiConvergenceStrategy(stretch=0.25)
        observed = np.asarray(
            [[0.5, np.nan, -1.5, 2.0], [np.nan, np.nan, np.nan, np.nan]]
        )
        tensor = np.asarray(
            strategy.value_tensor(3, 4, observed, np.zeros(2, dtype=np.uint64))
        )
        # Row 0 sees {-1.5, 0.5, 2.0}; row 1 observes nothing -> 0.0 rows.
        assert list(tensor[0]) == [
            strategy.value(3, q, [-1.5, 0.5, 2.0]) for q in range(4)
        ]
        assert list(tensor[1]) == [0.0, 0.0, 0.0, 0.0]


class TestDelayTensorEqualsScalar:
    @given(seed=seeds, round_number=rounds, n=sizes)
    @settings(max_examples=30, deadline=None)
    def test_seeded_delay_tensor_rows_match_probes(self, seed, round_number, n):
        model = SeededDelay(0.25, 4.0, seed=seed)
        probe = Message(kind="VALUE", round=round_number, value=0.0)
        scalar = [
            [model.delay(s, r, probe, 0.0) for s in range(n)] for r in range(n)
        ]
        tensor = model.delay_tensor(
            round_number, n, np.asarray([model.tensor_seed()], dtype=np.uint64)
        )
        assert np.array_equal(np.asarray(tensor)[0], np.asarray(scalar))

    @given(round_number=rounds, n=sizes)
    @settings(max_examples=30, deadline=None)
    def test_deterministic_models_broadcast_their_probe_matrix(self, round_number, n):
        models = [
            ConstantDelay(1.5),
            PartitionDelay(camp_a=range((n + 1) // 2)),
            LaggardDelay(slow_senders=range(n - 1, n)),
            StaggeredExclusionDelay(n, exclude=1),
            PartitionReportDelay(camp_a=range((n + 1) // 2)),
        ]
        probe = Message(kind="VALUE", round=round_number, value=0.0)
        for model in models:
            assert model.tensor_key() is not None
            tensor = np.asarray(
                model.delay_tensor(round_number, n, np.zeros(3, dtype=np.uint64))
            )
            assert tensor.shape == (3, n, n)
            expected = np.asarray(
                [
                    [model.delay(s, r, probe, float(round_number)) for s in range(n)]
                    for r in range(n)
                ]
            )
            for row in tensor:
                assert np.array_equal(row, expected)

    @given(
        ring=st.integers(min_value=1, max_value=24),
        data=st.data(),
        round_number=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_staggered_delay_tensor_rows_match_probes(self, ring, data, round_number):
        # StaggeredExclusionDelay computes its matrix in numpy: every row must
        # equal the per-pair probes for any window, stride (0 and negative
        # included), phase (negative included), round, and a call whose n
        # differs from the ring size the model was built with.
        model = StaggeredExclusionDelay(
            ring,
            exclude=data.draw(st.integers(min_value=0, max_value=ring - 1)),
            fast=data.draw(st.sampled_from([1.0, 0.5, 3])),
            slow=data.draw(st.sampled_from([50.0, 7.25, 9])),
            stride=data.draw(st.integers(min_value=-40, max_value=40)),
            phase=data.draw(st.integers(min_value=-10**6, max_value=10**6)),
        )
        n = data.draw(st.sampled_from([ring, 1, ring + 3, max(1, ring - 2)]))
        probe = Message(kind="VALUE", round=round_number, value=0.0)
        expected = np.asarray(
            [
                [model.delay(s, r, probe, float(round_number)) for s in range(n)]
                for r in range(n)
            ],
            dtype=np.float64,
        )
        tensor = np.asarray(model.delay_tensor(round_number, n, np.zeros(2, dtype=np.uint64)))
        assert tensor.shape == (2, n, n)
        assert tensor.dtype == np.float64
        for row in tensor:
            assert np.array_equal(row, expected)


class TestRankTensorEqualsScalar:
    @given(seed=seeds, round_number=rounds, n=sizes)
    @settings(max_examples=30, deadline=None)
    def test_seeded_omission_rank_tensor_matches_scalar_keys(self, seed, round_number, n):
        policy = SeededOmission(seed)
        tensor = np.asarray(
            policy.rank_tensor(
                round_number, n, np.asarray([policy.tensor_seed()], dtype=np.uint64)
            )
        )
        seed_mix = policy.tensor_seed()
        for recipient in range(n):
            for sender in range(n):
                assert int(tensor[0, recipient, sender]) == seeded_rank_key(
                    seed_mix, round_number, recipient, sender
                )

    @given(seed=seeds, round_number=rounds, n=sizes)
    @example(seed=5, round_number=3, n=7)
    @settings(max_examples=30, deadline=None)
    def test_delay_rank_tensor_reproduces_scalar_quorums(self, seed, round_number, n):
        model = SeededDelay(0.1, 2.0, seed=seed)
        policy = DelayRankOmission(model)
        assert policy.tensor_key() is not None
        ranks = np.asarray(
            policy.rank_tensor(
                round_number, n, np.asarray([policy.tensor_seed()], dtype=np.uint64)
            )
        )[0]
        candidates = list(range(n))
        m = max(1, n - 2)
        for recipient in range(n):
            expected = sorted(candidates, key=lambda s: (ranks[recipient][s], s))[:m]
            assert list(policy.quorum(round_number, recipient, candidates, m)) == expected


class TestTensorKeys:
    def test_keys_identify_programs_not_instances(self):
        assert (
            RandomValueStrategy(-1.0, 1.0, seed=1).tensor_key()
            == RandomValueStrategy(-1.0, 1.0, seed=99).tensor_key()
        )
        assert (
            RandomValueStrategy(-1.0, 1.0, seed=1).tensor_key()
            != RandomValueStrategy(-1.0, 2.0, seed=1).tensor_key()
        )
        assert (
            SeededDelay(0.1, 2.0, seed=1).tensor_key()
            == SeededDelay(0.1, 2.0, seed=2).tensor_key()
        )
        assert (
            DelayRankOmission(PartitionDelay(camp_a=[0, 1])).tensor_key()
            == DelayRankOmission(PartitionDelay(camp_a=[0, 1])).tensor_key()
        )
        assert SeededOmission(3).tensor_key() == SeededOmission(7).tensor_key()

    def test_stateful_components_have_no_tensor_form(self):
        from repro.net.network import UniformRandomDelay

        model = UniformRandomDelay(0.1, 1.0, seed=1)
        assert model.tensor_key() is None
        assert DelayRankOmission(model).tensor_key() is None
        assert DelayRankOmission(model).rank_tensor(1, 5, np.zeros(1, dtype=np.uint64)) is None
