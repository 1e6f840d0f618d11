"""Unit tests for the round-level batch engine (:mod:`repro.sim.batch`)."""

from __future__ import annotations

import math
from typing import Dict, List

import pytest

from repro.core.protocol import ResilienceError
from repro.core.rounds import async_crash_bounds
from repro.core.termination import FixedRounds, SpreadEstimateRounds
from repro.net.adversary import (
    ByzantineFaultPlan,
    CrashFaultPlan,
    CrashPoint,
    DelayRankOmission,
    EquivocatingStrategy,
    FixedValueStrategy,
    OmissionPolicy,
    RoundEchoByzantine,
    RoundFaultModel,
    SeededOmission,
    SilentProcess,
    round_fault_model,
)
from repro.net.network import ConstantDelay
from repro.sim import batch
from repro.sim.batch import BATCH_PROTOCOLS, run_batch_protocol
from repro.sim.engine import EngineCapabilityError

from tests.conftest import assert_execution_ok


class TestBasicExecutions:
    @pytest.mark.parametrize("protocol,n,t", [
        ("async-crash", 7, 2),
        ("async-byzantine", 11, 2),
        ("sync-crash", 7, 2),
        ("sync-byzantine", 7, 2),
    ])
    def test_fault_free_execution_is_correct(self, protocol, n, t):
        inputs = [i / (n - 1) for i in range(n)]
        result = run_batch_protocol(protocol, inputs, t=t, epsilon=1e-3)
        assert_execution_ok(result, f"{protocol} n={n}")
        assert result.runtime == "batch"
        assert result.rounds_used > 0
        # Trajectory starts at the input spread and ends within epsilon.
        assert result.trajectory[0] == pytest.approx(1.0)
        assert result.trajectory[-1] <= 1e-3 * (1 + 1e-9)

    def test_zero_rounds_when_inputs_already_agree(self):
        result = run_batch_protocol("async-crash", [0.5, 0.5001, 0.5], t=1, epsilon=0.01)
        assert result.ok
        assert result.rounds_used == 0
        assert result.stats.messages_sent == 0

    def test_resilience_enforced_when_strict(self):
        with pytest.raises(ResilienceError):
            run_batch_protocol("async-byzantine", [0.0] * 7, t=2, epsilon=0.1)
        result = run_batch_protocol(
            "async-byzantine", [0.0] * 7 + [1.0] * 0, t=2, epsilon=0.1, strict=False
        )
        assert result.report.all_decided

    def test_witness_protocol_supported_at_round_level(self):
        assert "witness" in BATCH_PROTOCOLS
        result = run_batch_protocol("witness", [0.0, 1.0, 2.0, 3.0], t=1, epsilon=0.1)
        assert_execution_ok(result, "witness on the batch engine")
        assert result.runtime == "batch"
        assert result.stats.messages_by_kind["RBC_INIT"] > 0

    def test_unknown_protocol_rejected_with_capability_error(self):
        with pytest.raises(EngineCapabilityError, match="not support"):
            run_batch_protocol("nope", [0.0, 1.0, 2.0, 3.0], t=1, epsilon=0.1)

    def test_witness_mid_multicast_crash_points_stay_with_event_engine(self):
        model = RoundFaultModel(crash_schedule={3: (2, 1)})
        with pytest.raises(EngineCapabilityError, match="repro.sim.runner"):
            run_batch_protocol(
                "witness", [0.0, 0.5, 1.0, 0.2], t=1, epsilon=0.1, fault_model=model
            )

    def test_adaptive_round_policy_supported(self):
        result = run_batch_protocol(
            "async-crash",
            [0.0, 0.5, 1.0, 0.2],
            t=1,
            epsilon=0.1,
            round_policy=SpreadEstimateRounds(),
        )
        assert_execution_ok(result, "adaptive policy")

    def test_conflicting_adversary_arguments_rejected(self):
        with pytest.raises(ValueError, match="not both"):
            run_batch_protocol(
                "async-crash",
                [0.0, 1.0, 0.5, 0.2],
                t=1,
                epsilon=0.1,
                fault_plan=CrashFaultPlan({}),
                fault_model=RoundFaultModel(),
            )
        with pytest.raises(ValueError, match="not both"):
            run_batch_protocol(
                "async-crash",
                [0.0, 1.0, 0.5, 0.2],
                t=1,
                epsilon=0.1,
                omission_policy=SeededOmission(0),
                delay_model=ConstantDelay(1.0),
            )


class TestFaultHandling:
    def test_initially_dead_crash_faults(self):
        n, t = 7, 3
        plan = CrashFaultPlan({n - 1 - i: CrashPoint(after_sends=0) for i in range(t)})
        inputs = [i / (n - 1) for i in range(n)]
        result = run_batch_protocol("async-crash", inputs, t=t, epsilon=1e-3, fault_plan=plan)
        assert_execution_ok(result, "initially dead")
        # Dead processes never send: only n - t senders contribute messages.
        assert result.stats.messages_sent == result.rounds_used * (n - t) * n

    def test_mid_multicast_crash_reaches_prefix_only(self):
        n = 5
        # Process 4 crashes in round 1 after reaching recipients 0 and 1.
        model = RoundFaultModel(crash_schedule={4: (1, 2)})
        inputs = [0.0, 0.0, 1.0, 1.0, 100.0]
        result = run_batch_protocol(
            "async-crash", inputs, t=2, epsilon=1e-3, fault_model=model,
            round_policy=FixedRounds(1),
        )
        # The crashed sender's (valid, crash model) value may only influence
        # the prefix recipients; validity covers all inputs in the crash model.
        assert result.report.validity
        assert result.stats.sends_by_process[4] == 2

    def test_silent_byzantine_is_tolerated(self):
        n, t = 11, 2
        plan = ByzantineFaultPlan({9: SilentProcess(), 10: SilentProcess()})
        inputs = [i / (n - 1) for i in range(n)]
        result = run_batch_protocol("async-byzantine", inputs, t=t, epsilon=1e-3, fault_plan=plan)
        assert_execution_ok(result, "silent byzantine")
        assert result.stats.sends_by_process.get(10, 0) == 0

    def test_equivocating_byzantine_cannot_break_validity(self):
        n, t = 11, 2
        plan = ByzantineFaultPlan(
            {n - 1 - i: RoundEchoByzantine(EquivocatingStrategy(-50.0, 50.0)) for i in range(t)}
        )
        inputs = [i / (n - 1) for i in range(n)]
        result = run_batch_protocol("async-byzantine", inputs, t=t, epsilon=1e-3, fault_plan=plan)
        assert_execution_ok(result, "equivocation")
        honest_outputs = list(result.report.outputs.values())
        assert min(honest_outputs) >= 0.0 - 1e-9
        assert max(honest_outputs) <= 1.0 + 1e-9

    def test_non_finite_injection_degrades_to_omission(self):
        n, t = 11, 2
        model = RoundFaultModel(
            strategies={n - 1: FixedValueStrategy(float("nan")), n - 2: FixedValueStrategy(float("inf"))}
        )
        inputs = [i / (n - 1) for i in range(n)]
        result = run_batch_protocol(
            "async-byzantine", inputs, t=t, epsilon=1e-3, fault_model=model
        )
        assert_execution_ok(result, "nan injection")
        for value in result.report.outputs.values():
            assert math.isfinite(value)

    def test_non_finite_injection_refills_from_late_candidates(self):
        # Async Byzantine at n=6, t=1: quorum m = 5 of 6 candidates.  A
        # pinned omission policy picks the NaN-injecting strategy plus four
        # honest senders; the dropped payload must refill from the one
        # remaining (late) candidate, so the sample equals the quorum that
        # excludes the Byzantine process entirely.
        n, t = 6, 1
        inputs = [0.0, 0.2, 0.4, 0.6, 0.8, 123.0]
        model = RoundFaultModel(strategies={5: FixedValueStrategy(float("nan"))})

        class PinnedQuorum(OmissionPolicy):
            def quorum(self, round_number, recipient, candidates, m):
                return [5] + [s for s in candidates if s != 5][: m - 1]

        class HonestQuorum(OmissionPolicy):
            def quorum(self, round_number, recipient, candidates, m):
                return [s for s in candidates if s != 5][:m]

        pinned = run_batch_protocol(
            "async-byzantine", inputs, t=t, epsilon=1e-2, fault_model=model,
            omission_policy=PinnedQuorum(), round_policy=FixedRounds(3),
        )
        honest = run_batch_protocol(
            "async-byzantine", inputs, t=t, epsilon=1e-2, fault_model=model,
            omission_policy=HonestQuorum(), round_policy=FixedRounds(3),
        )
        # The refilled quorum is exactly the all-honest quorum.
        assert pinned.outputs == honest.outputs
        # Every updating holder still filled a full m-sized quorum every
        # round (5 holders × quorum size 5 × 3 rounds).
        assert pinned.stats.messages_delivered == 3 * (n - t) * (n - t)
        assert_execution_ok(pinned, "refill")

    def test_refill_cannot_exhaust_in_model(self):
        # Refill exhaustion would need more non-finite injectors (plus silent
        # processes) than t, which the problem instance rejects outright —
        # so within the fault model every quorum refills successfully even
        # when every Byzantine process injects garbage.
        n, t = 11, 2
        model = RoundFaultModel(
            strategies={
                9: FixedValueStrategy(float("nan")),
                10: FixedValueStrategy(float("-inf")),
            }
        )
        inputs = [i / (n - 1) for i in range(n)]
        result = run_batch_protocol(
            "async-byzantine", inputs, t=t, epsilon=1e-3, fault_model=model, seed=2
        )
        assert result.report.all_decided
        assert_execution_ok(result, "all-garbage injection")

    def test_mid_multicast_prefix_boundary_recipients(self):
        # A sender crashing after `deliveries` sends reaches exactly the
        # recipients with ids < deliveries: id deliveries-1 still hears it,
        # id deliveries does not (multicasts send in ascending recipient
        # order).
        n, deliveries = 6, 3
        model = RoundFaultModel(crash_schedule={5: (1, deliveries)})
        seen: Dict[int, List[int]] = {}

        class Recording(OmissionPolicy):
            def quorum(self, round_number, recipient, candidates, m):
                if round_number == 1:
                    seen[recipient] = list(candidates)
                return [s for s in candidates][:m]

        run_batch_protocol(
            "async-crash", [0.0, 0.2, 0.4, 0.6, 0.8, 1.0], t=2, epsilon=1e-2,
            fault_model=model, omission_policy=Recording(),
            round_policy=FixedRounds(2),
        )
        for recipient in range(n - 1):
            if recipient < deliveries:
                assert 5 in seen[recipient], f"recipient {recipient} below prefix"
            else:
                assert 5 not in seen[recipient], f"recipient {recipient} at/after prefix"
        # Boundary recipients, explicitly:
        assert 5 in seen[deliveries - 1]
        assert 5 not in seen[deliveries]

    def test_fault_model_larger_than_t_rejected(self):
        # More faults than t would make liveness unprovable; the problem
        # instance rejects it before the engine runs (and with at most t
        # faults the n − t quorum is always satisfiable, so the engine's
        # liveness-failure path can only trigger for out-of-model inputs).
        model = RoundFaultModel(crash_schedule={2: (1, 0), 3: (1, 0), 4: (1, 0)})
        with pytest.raises(ValueError, match="faulty"):
            run_batch_protocol(
                "async-crash", [0.0, 1.0, 2.0, 3.0, 4.0], t=2, epsilon=1e-3,
                fault_model=model, strict=False,
            )


class TestAdaptivePolicies:
    """Per-process round counts with halt-echo substitution (SpreadEstimateRounds)."""

    @pytest.mark.parametrize("protocol,n,t", [
        ("async-crash", 7, 2),
        ("async-byzantine", 11, 2),
        ("sync-crash", 7, 2),
        ("sync-byzantine", 7, 2),
    ])
    def test_adaptive_execution_is_correct(self, protocol, n, t):
        inputs = [i / (n - 1) for i in range(n)]
        result = run_batch_protocol(
            protocol, inputs, t=t, epsilon=1e-3,
            round_policy=SpreadEstimateRounds(), seed=11,
        )
        assert_execution_ok(result, f"adaptive {protocol}")
        assert result.rounds_used > 0
        # Every honest process multicast exactly one HALT echo of n messages.
        assert result.stats.messages_by_kind["HALT"] == n * n

    def test_adaptive_with_crash_faults(self):
        n, t = 7, 2
        plan = CrashFaultPlan({
            6: CrashPoint(after_sends=0),
            5: CrashPoint.mid_multicast(2, n, 3),
        })
        inputs = [i / (n - 1) for i in range(n)]
        result = run_batch_protocol(
            "async-crash", inputs, t=t, epsilon=1e-3,
            round_policy=SpreadEstimateRounds(), fault_plan=plan, seed=4,
        )
        assert_execution_ok(result, "adaptive with crashes")
        # Crashed processes never halt: only the n - t survivors echo.
        assert result.stats.messages_by_kind["HALT"] == (n - t) * n
        # The initially dead process sent nothing; the mid-multicast one sent
        # one full round plus its three-message prefix.
        assert 6 not in result.stats.sends_by_process
        assert result.stats.sends_by_process[5] == n + 3

    def test_adaptive_is_deterministic(self):
        inputs = [0.0, 0.31, 0.67, 0.85, 1.0, 0.5, 0.12]

        def run():
            result = run_batch_protocol(
                "async-crash", inputs, t=2, epsilon=1e-4,
                round_policy=SpreadEstimateRounds(), seed=21,
            )
            return (result.outputs, result.rounds_used, result.stats.messages_sent,
                    result.stats.bits_sent, result.trajectory)

        assert run() == run()

    def test_adaptive_halted_values_substitute_in_later_rounds(self):
        # With zero slack and no extra rounds, estimates differ more across
        # processes, forcing some to halt earlier than others — the halt-echo
        # substitution path.  Validity must hold unconditionally.
        inputs = [0.0, 0.9, 1.0, 0.1, 0.5, 0.45, 0.55]
        result = run_batch_protocol(
            "async-crash", inputs, t=2, epsilon=0.05,
            round_policy=SpreadEstimateRounds(slack_factor=1.0, extra_rounds=0),
            seed=9,
        )
        assert result.report.all_decided
        assert result.report.validity
        # Histories may have different lengths (processes halt at their own
        # round counts).
        lengths = {len(history) for history in result.value_histories.values()}
        assert lengths, "no histories recorded"

    def test_halted_sender_stays_a_candidate_through_its_echo(self):
        # Process 0's round-1 quorum holds five equal values, so it halts
        # after the two slack rounds while the others, whose quorums span the
        # input range, run on.  Its halt echo stands in for its round value:
        # it stays a candidate of every later quorum and sends no more VALUEs.
        seen = {}

        class Recording(OmissionPolicy):
            def quorum(self, round_number, recipient, candidates, m):
                seen[round_number, recipient] = list(candidates)
                return candidates[-m:] if recipient == 0 else candidates[:m]

        n = 7
        result = run_batch_protocol(
            "async-crash", [0.0, 1.0, 0.5, 0.5, 0.5, 0.5, 0.5], t=2, epsilon=0.05,
            round_policy=SpreadEstimateRounds(), omission_policy=Recording(),
        )
        rounds = {pid: len(history) - 1 for pid, history in result.value_histories.items()}
        assert rounds == {0: 2, **dict.fromkeys(range(1, n), 6)}
        assert max(round_number for round_number, _ in seen) == 6
        assert all(candidates == list(range(n)) for candidates in seen.values())
        assert result.stats.messages_by_kind == {
            "VALUE": 2 * n * n + 4 * (n - 1) * n, "HALT": n * n,
        }

    def test_round_cap_binds_adaptive_policies_only(self, monkeypatch):
        # MAX_ADAPTIVE_ROUNDS caps counts that are not known upfront, and
        # only those.
        monkeypatch.setattr(batch, "MAX_ADAPTIVE_ROUNDS", 3)
        inputs = [i / 6 for i in range(7)]
        fixed = run_batch_protocol(
            "async-crash", inputs, t=2, epsilon=1e-3, round_policy=FixedRounds(5)
        )
        assert fixed.rounds_used == 5
        assert fixed.report.all_decided
        assert {len(history) for history in fixed.value_histories.values()} == {6}

        adaptive = run_batch_protocol(
            "async-crash", inputs, t=2, epsilon=1e-3, round_policy=SpreadEstimateRounds()
        )
        # The policy asks for more than three rounds, so the cap stops every
        # process before it decides.
        assert adaptive.rounds_used == 3
        assert not adaptive.report.all_decided
        assert {len(history) for history in adaptive.value_histories.values()} == {4}


class TestOmissionPolicies:
    def test_seeded_omission_is_deterministic(self):
        policy = SeededOmission(seed=5)
        first = policy.quorum(3, 1, list(range(10)), 6)
        second = SeededOmission(seed=5).quorum(3, 1, list(range(10)), 6)
        assert first == second
        assert len(set(first)) == 6

    def test_delay_rank_tracks_constant_delay_tie_break(self):
        policy = DelayRankOmission(ConstantDelay(1.0))
        assert list(policy.quorum(1, 0, [4, 2, 7, 1], 2)) == [1, 2]

    def test_malformed_policy_is_rejected(self):
        class Broken(OmissionPolicy):
            def quorum(self, round_number, recipient, candidates, m):
                return [candidates[0]] * m  # duplicates

        with pytest.raises(ValueError, match="distinct"):
            run_batch_protocol(
                "async-crash", [0.0, 1.0, 0.5, 0.2], t=1, epsilon=0.1,
                omission_policy=Broken(),
            )


class TestFaultModelAdapter:
    def test_crash_plan_round_translation(self):
        n = 6
        plan = CrashFaultPlan({
            0: CrashPoint(after_sends=0),
            1: CrashPoint.before_round(3, n),
            2: CrashPoint.mid_multicast(2, n, 4),
            3: CrashPoint(after_sends=None),
        })
        model = round_fault_model(plan, n)
        assert model.crash_schedule[0] == (1, 0)
        assert model.crash_schedule[1] == (3, 0)
        assert model.crash_schedule[2] == (2, 4)
        assert 3 not in model.crash_schedule
        assert model.faulty_ids(n) == (0, 1, 2)
        assert model.byzantine_ids(n) == ()

    def test_byzantine_plan_translation(self):
        plan = ByzantineFaultPlan({
            4: RoundEchoByzantine(FixedValueStrategy(9.0)),
            5: SilentProcess(),
        })
        model = round_fault_model(plan, 6)
        assert isinstance(model.strategies[4], FixedValueStrategy)
        assert 5 in model.silent
        assert model.byzantine_ids(6) == (4, 5)

    def test_unknown_behaviour_rejected(self):
        class Weird(SilentProcess):
            pass

        # Subclasses of known behaviours are fine; a genuinely unknown
        # process type is not.
        from repro.net.interfaces import Process

        class Custom(Process):
            def on_start(self, ctx):
                pass

            def on_message(self, ctx, sender, message):
                pass

        assert 5 in round_fault_model(ByzantineFaultPlan({5: Weird()}), 6).silent
        with pytest.raises(ValueError, match="cannot adapt"):
            round_fault_model(ByzantineFaultPlan({5: Custom()}), 6)
