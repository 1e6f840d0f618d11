"""Unit tests for the vectorised batch engine (:mod:`repro.sim.ndbatch`)."""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy", reason="the vectorised engine requires numpy")

from repro.core.protocol import ResilienceError
from repro.core.rounds import async_byzantine_bounds, async_crash_bounds, witness_bounds
from repro.core.rounds import approximation_step, approximation_step_block
from repro.core.termination import FixedRounds, SpreadEstimateRounds
from repro.net.adversary import (
    CrashFaultPlan,
    CrashPoint,
    RandomValueStrategy,
    RoundFaultModel,
    SeededOmission,
    seeded_rank_key,
    seeded_rank_key_block,
    mix64,
)
from repro.sim.ndbatch import (
    NDBATCH_PROTOCOLS,
    run_ndbatch_block,
    run_ndbatch_protocol,
    run_vector_block,
)

from tests.conftest import assert_execution_ok


class TestSeededKeysBitEquivalence:
    """The numpy PRF must reproduce the scalar PRF bit for bit."""

    def test_key_tensor_matches_scalar_keys(self):
        n = 9
        for seed in (0, 1, 7, 123456789, 2**63):
            seed_mix = np.array([mix64(seed)], dtype=np.uint64)
            for round_number in (1, 2, 17):
                keys = seeded_rank_key_block(seed_mix, round_number, n)[0]
                for recipient in range(n):
                    for sender in range(n):
                        expected = seeded_rank_key(
                            mix64(seed), round_number, recipient, sender
                        )
                        assert int(keys[recipient, sender]) == expected

    def test_out_buffers_fill_in_place_and_match(self):
        # The slab path: keys land in the caller's buffer (returned as is),
        # the scratch buffer is only overwritten, and a reused pair of
        # buffers reproduces the allocating path bit for bit.
        n = 11
        seeds = np.array([mix64(seed) for seed in range(5)], dtype=np.uint64)
        keys = np.empty((5, n, n), dtype=np.uint64)
        scratch = np.empty_like(keys)
        for round_number in (1, 2, 40):
            for start, stop in ((0, 5), (1, 3), (4, 5)):
                expected = seeded_rank_key_block(seeds[start:stop], round_number, n)
                out = (keys[: stop - start], scratch[: stop - start])
                got = seeded_rank_key_block(seeds[start:stop], round_number, n, out=out)
                assert got is out[0]
                assert np.array_equal(got, expected)

    def test_policy_quorum_equals_smallest_keys(self):
        policy = SeededOmission(seed=42)
        candidates = [0, 2, 3, 5, 6, 8, 9]
        quorum = policy.quorum(3, 4, candidates, 4)
        keys = {
            sender: seeded_rank_key(mix64(42), 3, 4, sender) for sender in candidates
        }
        expected = sorted(candidates, key=lambda s: (keys[s], s))[:4]
        assert list(quorum) == expected

    def test_rank_tensor_row_orders_scalar_quorums(self):
        # The rank_tensor contract, stated against quorum: every recipient's
        # quorum is the m candidates with the smallest (rank, sender) pairs.
        policy = SeededOmission(seed=5)
        ranks = policy.rank_tensor(2, 6, np.array([policy.tensor_seed()], dtype=np.uint64))[0]
        for recipient in range(6):
            for sender in range(6):
                assert int(ranks[recipient, sender]) == seeded_rank_key(
                    mix64(5), 2, recipient, sender
                )
            for candidates in ([0, 1, 2, 3, 4, 5], [0, 1, 3, 4, 5], [1, 2, 5, 4]):
                expected = sorted(candidates, key=lambda s: (int(ranks[recipient, s]), s))[:3]
                assert list(policy.quorum(2, recipient, candidates, 3)) == expected

    def test_use_numpy_flag_is_performance_only(self):
        # The scalar (pure-Python) and numpy-assisted key paths must pick
        # identical quorums, both ordered by the tensor row's keys — the flag
        # is the engine benchmarks' baseline switch, never a behaviour switch.
        scalar = SeededOmission(seed=9, use_numpy=False)
        vectorised = SeededOmission(seed=9, use_numpy=True)
        seeds = np.array([vectorised.tensor_seed()], dtype=np.uint64)
        for round_number in (1, 4):
            ranks = vectorised.rank_tensor(round_number, 9, seeds)[0]
            for recipient in range(9):
                for candidates in (list(range(9)), [0, 2, 3, 5, 6, 8]):
                    expected = sorted(candidates, key=lambda s: int(ranks[recipient, s]))[:5]
                    assert list(
                        scalar.quorum(round_number, recipient, candidates, 5)
                    ) == expected
                    assert list(
                        vectorised.quorum(round_number, recipient, candidates, 5)
                    ) == expected

    def test_keys_embed_sender_id_in_low_bits(self):
        from repro.net.adversary import SENDER_MASK

        for sender in range(7):
            key = seeded_rank_key(mix64(3), 1, 0, sender)
            assert key & SENDER_MASK == sender


class TestApproximationStepBlock:
    def test_matches_scalar_step_elementwise(self):
        rng = np.random.default_rng(3)
        samples = rng.uniform(-5, 5, size=(4, 7, 9))
        bounds = async_byzantine_bounds(11, 2)  # m = 9, j = 2, k = 4
        block = approximation_step_block(samples, bounds)
        for e in range(4):
            for q in range(7):
                scalar = approximation_step(list(samples[e, q]), bounds)
                assert block[e, q] == pytest.approx(scalar, abs=1e-12)

    def test_midpoint_rule_supported(self):
        bounds = witness_bounds(7, 2)  # select_k=None, j=2
        samples = np.array([[[0.0, 1.0, 2.0, 3.0, 10.0]]])
        result = approximation_step_block(samples, bounds)
        assert result[0, 0] == pytest.approx(approximation_step([0, 1, 2, 3, 10], bounds))

    def test_non_finite_rejected(self):
        bounds = async_crash_bounds(7, 2)
        with pytest.raises(ValueError, match="finite"):
            approximation_step_block(np.array([[1.0, float("nan"), 2.0, 0.0, 1.0]]), bounds)

    def test_over_reduction_rejected(self):
        bounds = witness_bounds(7, 2)
        with pytest.raises(ValueError, match="extremes"):
            approximation_step_block(np.zeros((2, 4)), bounds)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("d", [1, 3])
    def test_slab_reduction_equals_one_kernel_call(self, d, dtype):
        # The engine reduces a round's samples a slab of executions at a
        # time; four slabs, the last one short, change no bit.
        from repro.sim.ndbatch import QUORUM_SLAB_KEYS, _reduce_samples

        bounds = async_byzantine_bounds(61, 12)
        shape = (61, bounds.sample_size, d)
        count = 3 * (QUORUM_SLAB_KEYS // (shape[0] * shape[1] * d)) + 2
        rng = np.random.default_rng(d)
        sample = rng.uniform(-5, 5, size=(count,) + shape).astype(dtype)
        whole = approximation_step_block(sample, bounds, dtype=dtype, axis=-2)
        slabbed = _reduce_samples(sample, bounds, dtype, validate=True)
        assert slabbed.dtype == whole.dtype
        assert np.array_equal(slabbed, whole)


class TestBlockValidation:
    def test_protocols_match_batch_engine(self):
        assert NDBATCH_PROTOCOLS == ("async-byzantine", "async-crash", "sync-byzantine", "sync-crash")

    def test_witness_rejected(self):
        with pytest.raises(ValueError, match="not support"):
            run_ndbatch_protocol("witness", [0.0, 1.0, 2.0, 3.0], t=1, epsilon=0.1)

    def test_adaptive_policy_rejected_with_pointer_to_batch(self):
        with pytest.raises(ValueError, match="repro.sim.batch"):
            run_ndbatch_protocol(
                "async-crash", [0.0, 0.5, 1.0, 0.2], t=1, epsilon=0.1,
                round_policy=SpreadEstimateRounds(),
            )

    def test_heterogeneous_round_counts_rejected(self):
        # Spread 1.0 versus spread 100.0 need different round counts.
        with pytest.raises(ValueError, match="share the round count"):
            run_ndbatch_block(
                "async-crash",
                [[0.0, 0.5, 1.0, 0.2], [0.0, 50.0, 100.0, 20.0]],
                t=1,
                epsilon=1e-3,
            )

    def test_stateful_strategy_rejected_with_pointer_to_batch(self):
        # RandomValueStrategy is a stateless counter-based PRF now; a strategy
        # with genuinely order-dependent internal state stands in for it.
        class CountingStrategy(RandomValueStrategy):
            stateless = False

            def __init__(self):
                super().__init__(-1.0, 1.0, seed=0)
                self.calls = 0

            def value(self, round_number, recipient, observed):
                self.calls += 1
                return float(self.calls)

        model = RoundFaultModel(strategies={6: CountingStrategy()})
        with pytest.raises(ValueError, match="stateless"):
            run_ndbatch_protocol(
                "async-byzantine", [0.0] * 11, t=2, epsilon=0.1, fault_model=model
            )

    def test_prf_random_strategy_accepted(self):
        model = RoundFaultModel(strategies={10: RandomValueStrategy(-1.0, 1.0, seed=0)})
        result = run_ndbatch_protocol(
            "async-byzantine", [0.1 * i for i in range(11)], t=2, epsilon=0.1,
            fault_model=model,
        )
        assert result.report.all_decided

    def test_resilience_enforced_when_strict(self):
        with pytest.raises(ResilienceError):
            run_ndbatch_protocol("async-byzantine", [0.0] * 7, t=2, epsilon=0.1)
        result = run_ndbatch_protocol(
            "async-byzantine", [0.0] * 7, t=2, epsilon=0.1, strict=False
        )
        assert result.report.all_decided

    def test_sample_too_small_for_its_reduction_raises(self):
        # n=6, t=2: a round's sample holds n - t = 4 values, too few to drop
        # j = 2 extremes from each side.  strict=False skips the resilience
        # check only; the reduction still refuses, at d = 1 and d = 3.
        message = "cannot remove 2 extremes from each side of a multiset of size 4"
        with pytest.raises(ValueError, match=message):
            run_ndbatch_protocol(
                "async-byzantine", [0.2 * i for i in range(6)], t=2, epsilon=0.1,
                strict=False,
            )
        with pytest.raises(ValueError, match=message):
            run_vector_block(
                "async-byzantine", [[[0.2 * i, 0.0, -0.1 * i] for i in range(6)]],
                t=2, epsilon=0.1, strict=False,
            )

    def test_mismatched_sequence_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal lengths"):
            run_ndbatch_block(
                "async-crash", [[0.0, 1.0, 0.5]], t=1, epsilon=0.1, seeds=[0, 1]
            )

    def test_empty_block(self):
        assert run_ndbatch_block("async-crash", [], t=1, epsilon=0.1) == []


class TestBasicExecutions:
    @pytest.mark.parametrize("protocol,n,t", [
        ("async-crash", 7, 2),
        ("async-byzantine", 11, 2),
        ("sync-crash", 7, 2),
        ("sync-byzantine", 7, 2),
    ])
    def test_fault_free_execution_is_correct(self, protocol, n, t):
        inputs = [i / (n - 1) for i in range(n)]
        result = run_ndbatch_protocol(protocol, inputs, t=t, epsilon=1e-3)
        assert_execution_ok(result, f"{protocol} n={n}")
        assert result.runtime == "ndbatch"
        assert result.trajectory[0] == pytest.approx(1.0)
        assert result.trajectory[-1] <= 1e-3 * (1 + 1e-9)

    def test_zero_rounds_when_inputs_already_agree(self):
        result = run_ndbatch_protocol("async-crash", [0.5, 0.5001, 0.5], t=1, epsilon=0.01)
        assert result.ok
        assert result.rounds_used == 0
        assert result.stats.messages_sent == 0

    def test_block_executions_are_independent(self):
        # A crash in one execution of the block must not leak into others.
        n, t = 7, 2
        inputs = [i / (n - 1) for i in range(n)]
        dead = RoundFaultModel(crash_schedule={6: (1, 0), 5: (1, 0)})
        block = run_ndbatch_block(
            "async-crash",
            [inputs, inputs, inputs],
            t=t,
            epsilon=1e-3,
            fault_models=[None, dead, None],
            seeds=[3, 3, 3],
        )
        assert block[0].outputs == block[2].outputs
        assert block[0].stats.messages_sent != block[1].stats.messages_sent
        assert block[0].problem.faulty == ()
        assert block[1].problem.faulty == (5, 6)
        for result, context in zip(block, ("clean-a", "dead", "clean-b")):
            assert_execution_ok(result, context)

    def test_wall_time_is_shared_across_block(self):
        block = run_ndbatch_block(
            "async-crash",
            [[0.0, 0.5, 1.0, 0.2, 0.8]] * 4,
            t=2,
            epsilon=1e-2,
        )
        walls = {result.wall_time_seconds for result in block}
        assert len(walls) == 1
        assert walls.pop() > 0.0

    def test_mid_multicast_crash_prefix(self):
        n = 5
        model = RoundFaultModel(crash_schedule={4: (1, 2)})
        result = run_ndbatch_protocol(
            "async-crash", [0.0, 0.0, 1.0, 1.0, 100.0], t=2, epsilon=1e-3,
            fault_model=model, round_policy=FixedRounds(1),
        )
        assert result.report.validity
        assert result.stats.sends_by_process[4] == 2

    def test_package_level_export(self):
        from repro import run_ndbatch_protocol as exported

        assert exported is run_ndbatch_protocol
