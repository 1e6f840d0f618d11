"""Tests for the capability-based engine dispatch layer (:mod:`repro.sim.engine`)."""

from __future__ import annotations

import pytest

from repro.core.termination import FixedRounds, SpreadEstimateRounds
from repro.net.adversary import (
    ByzantineFaultPlan,
    CrashFaultPlan,
    CrashPoint,
    DelayRankOmission,
    OmissionPolicy,
    RandomValueStrategy,
    RoundEchoByzantine,
    RoundFaultModel,
    SeededDelay,
    SeededOmission,
)
from repro.net.network import UniformRandomDelay
from repro.sim.engine import (
    ENGINES,
    ENGINE_CAPABILITIES,
    EngineCapabilityError,
    capable_engines,
    numpy_available,
    run,
    scenario_features,
    select_engine,
)

INPUTS = [0.0, 0.3, 0.6, 1.0, 0.5, 0.2, 0.9]

needs_numpy = pytest.mark.skipif(not numpy_available(), reason="numpy required")


class TestCapabilityMatrix:
    def test_engine_order_is_fastest_first(self):
        assert ENGINES == ("ndbatch", "batch", "event")

    def test_registry_protocols_match_engine_modules(self):
        from repro.sim.batch import BATCH_PROTOCOLS

        assert tuple(sorted(ENGINE_CAPABILITIES["batch"].protocols)) == BATCH_PROTOCOLS
        assert tuple(sorted(ENGINE_CAPABILITIES["event"].protocols)) == BATCH_PROTOCOLS
        if numpy_available():
            from repro.sim.ndbatch import NDBATCH_PROTOCOLS

            assert (
                tuple(sorted(ENGINE_CAPABILITIES["ndbatch"].protocols))
                == NDBATCH_PROTOCOLS
            )

    def test_witness_capability(self):
        features = {"protocol:witness"}
        assert capable_engines(features) == ("batch", "event")

    def test_event_engine_covers_everything_message_level(self):
        event = ENGINE_CAPABILITIES["event"]
        assert event.supports(
            {"protocol:witness", "adaptive-round-policy", "stateful-strategy",
             "message-level-faults", "no-numpy"}
        )


class TestScenarioFeatures:
    def test_adaptive_policy_flagged(self):
        features = scenario_features(
            "async-crash", 7, round_policy=SpreadEstimateRounds()
        )
        assert "adaptive-round-policy" in features
        assert "adaptive-round-policy" not in scenario_features(
            "async-crash", 7, round_policy=FixedRounds(3)
        )

    def test_stateful_strategy_flagged(self):
        class Stateful(RandomValueStrategy):
            stateless = False

        model = RoundFaultModel(strategies={6: Stateful(-1.0, 1.0)})
        assert "stateful-strategy" in scenario_features(
            "async-byzantine", 7, fault_model=model
        )
        prf = RoundFaultModel(strategies={6: RandomValueStrategy(-1.0, 1.0)})
        assert "stateful-strategy" not in scenario_features(
            "async-byzantine", 7, fault_model=prf
        )

    def test_stateful_delay_model_flagged(self):
        assert "stateful-quorum-policy" in scenario_features(
            "async-crash", 7, delay_model=UniformRandomDelay(0.1, 1.0, seed=1)
        )
        assert "stateful-quorum-policy" not in scenario_features(
            "async-crash", 7, delay_model=SeededDelay(0.1, 1.0, seed=1)
        )

    def test_witness_mid_multicast_crash_flagged(self):
        plan = CrashFaultPlan({6: CrashPoint.mid_multicast(1, 7, 3)})
        assert "witness-mid-multicast-crash" in scenario_features(
            "witness", 7, t=2, fault_plan=plan
        )
        dead = CrashFaultPlan({6: CrashPoint(after_sends=0)})
        assert "witness-mid-multicast-crash" not in scenario_features(
            "witness", 7, t=2, fault_plan=dead
        )

    def test_witness_crash_boundaries_probed_in_witness_units(self):
        # A crash point at a multiple of n that is NOT a witness iteration
        # prefix sum (direct-protocol "before round 2") must route to the
        # event engine; a genuine witness boundary stays with batch.
        direct_boundary = CrashFaultPlan({0: CrashPoint.before_round(2, 4)})
        assert "witness-mid-multicast-crash" in scenario_features(
            "witness", 4, t=1, fault_plan=direct_boundary
        )
        n = 5
        witness_boundary = CrashFaultPlan(
            {4: CrashPoint(after_sends=2 * n * (2 * n + 2))}
        )
        assert "witness-mid-multicast-crash" not in scenario_features(
            "witness", n, t=1, fault_plan=witness_boundary
        )
        # Without t the probe is conservative: only "initially dead" passes.
        assert "witness-mid-multicast-crash" in scenario_features(
            "witness", n, fault_plan=witness_boundary
        )


class TestSelection:
    @needs_numpy
    def test_vectorisable_scenario_selects_ndbatch(self):
        features = scenario_features("async-crash", 7)
        assert select_engine(features) == "ndbatch"

    def test_non_vectorisable_scenario_prefers_batch(self):
        features = scenario_features(
            "async-crash", 7, delay_model=UniformRandomDelay(0.1, 1.0, seed=1)
        )
        assert select_engine(features) == "batch"

    def test_witness_selects_batch(self):
        assert select_engine(scenario_features("witness", 7)) == "batch"

    def test_witness_mid_multicast_selects_event(self):
        plan = CrashFaultPlan({6: CrashPoint.mid_multicast(1, 7, 3)})
        features = scenario_features("witness", 7, fault_plan=plan)
        assert select_engine(features) == "event"

    @needs_numpy
    def test_rule_over_features(self):
        """ndbatch is skipped only for a stateful quorum adversary or small work."""

        class FirstM(OmissionPolicy):
            def quorum(self, round_number, recipient, candidates, m):
                return list(candidates)[:m]

        stateful_delay = UniformRandomDelay(0.1, 1.0, seed=1)
        stateful_strategy = RoundFaultModel(
            strategies={6: type("S", (RandomValueStrategy,), {"stateless": False})(-1, 1)}
        )
        cases = [
            ({}, "ndbatch"),
            ({"omission_policy": SeededOmission(1)}, "ndbatch"),
            ({"delay_model": SeededDelay(0.1, 1.0)}, "ndbatch"),
            ({"omission_policy": DelayRankOmission(SeededDelay(0.1, 1.0))}, "ndbatch"),
            ({"delay_model": stateful_delay}, "batch"),
            ({"omission_policy": DelayRankOmission(stateful_delay)}, "batch"),
            ({"omission_policy": FirstM()}, "batch"),
        ]
        for scenario, expected in cases:
            features = scenario_features("async-crash", 7, t=2, **scenario)
            assert select_engine(features) == expected, scenario
            # Enough work never overrides a stateful quorum adversary.
            assert select_engine(features, work=10**6) == expected, scenario
            assert select_engine(features, work=63) == "batch", scenario
        features = scenario_features("async-crash", 7, t=2)
        assert select_engine(features, work=64) == "ndbatch"
        assert select_engine(
            scenario_features("async-byzantine", 7, fault_model=stateful_strategy)
        ) == "batch"
        assert select_engine(scenario_features("witness", 7)) == "batch"


class TestRunFrontDoor:
    def test_unknown_protocol(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            run("nope", INPUTS, t=2, epsilon=1e-2)

    def test_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            run("async-crash", INPUTS, t=2, epsilon=1e-2, engine="warp")

    def test_auto_keeps_tiny_single_run_on_batch(self):
        # One n=7 execution is below the block-setup cost-model threshold
        # (NDBATCH_MIN_WORK): the pure-Python engine wins, so auto picks it.
        result = run("async-crash", INPUTS, t=2, epsilon=1e-2)
        assert result.runtime == "batch"
        assert result.ok

    @needs_numpy
    def test_auto_selects_ndbatch_above_cost_model_threshold(self):
        inputs = [0.04 * i for i in range(25)]
        result = run("async-crash", inputs, t=4, epsilon=1e-3)
        assert result.runtime == "ndbatch"
        assert result.ok

    def test_auto_selects_batch_for_adaptive_policy(self):
        result = run(
            "async-crash", INPUTS, t=2, epsilon=1e-2,
            round_policy=SpreadEstimateRounds(),
        )
        assert result.runtime == "batch"
        assert result.ok

    def test_auto_selects_batch_for_witness(self):
        result = run("witness", INPUTS, t=2, epsilon=1e-2)
        assert result.runtime == "batch"
        assert result.ok

    def test_auto_selects_event_for_witness_mid_multicast_crash(self):
        plan = CrashFaultPlan({6: CrashPoint.mid_multicast(1, 7, 3)})
        result = run("witness", INPUTS, t=2, epsilon=1e-2, fault_plan=plan)
        assert result.runtime == "des"
        assert result.ok

    def test_auto_routes_non_boundary_witness_crash_to_event(self):
        # after_sends = n: a direct-protocol round boundary but mid-iteration
        # in witness units — auto must run the event simulator, not raise.
        plan = CrashFaultPlan({0: CrashPoint.before_round(2, 4)})
        result = run(
            "witness", [0.0, 0.5, 1.0, 0.2], t=1, epsilon=1e-1, fault_plan=plan
        )
        assert result.runtime == "des"
        assert result.report.all_decided

    def test_explicit_runtime_forces_event_engine(self):
        result = run("async-crash", INPUTS, t=2, epsilon=1e-2, runtime="des")
        assert result.runtime == "des"
        with pytest.raises(EngineCapabilityError, match="runtime"):
            run(
                "async-crash", INPUTS, t=2, epsilon=1e-2,
                runtime="des", engine="batch",
            )

    def test_override_honoured(self):
        result = run("async-crash", INPUTS, t=2, epsilon=1e-2, engine="batch")
        assert result.runtime == "batch"
        result = run("async-crash", INPUTS, t=2, epsilon=1e-2, engine="event")
        assert result.runtime == "des"

    def test_override_outside_capabilities_raises(self):
        with pytest.raises(EngineCapabilityError, match="ndbatch engine"):
            run("witness", INPUTS, t=2, epsilon=1e-2, engine="ndbatch")
        with pytest.raises(EngineCapabilityError) as excinfo:
            run(
                "async-crash", INPUTS, t=2, epsilon=1e-2,
                round_policy=SpreadEstimateRounds(), engine="ndbatch",
            )
        assert excinfo.value.capable == ("batch", "event")
        assert "repro.sim.batch" in str(excinfo.value)

    def test_event_engine_rejects_round_level_adversary(self):
        with pytest.raises(EngineCapabilityError, match="event engine"):
            run(
                "async-crash", INPUTS, t=2, epsilon=1e-2,
                omission_policy=SeededOmission(1), engine="event",
            )

    @needs_numpy
    def test_engines_agree_through_front_door(self):
        batch = run("async-crash", INPUTS, t=2, epsilon=1e-3, engine="batch", seed=7)
        ndbatch = run("async-crash", INPUTS, t=2, epsilon=1e-3, engine="ndbatch", seed=7)
        assert batch.rounds_used == ndbatch.rounds_used
        assert batch.stats.messages_sent == ndbatch.stats.messages_sent
        for pid, value in batch.outputs.items():
            assert abs(value - ndbatch.outputs[pid]) <= 1e-9


class TestNonFiniteForgedInputs:
    """A non-finite forged input has no round-level form.

    The message-level skeletons drop a non-finite payload at the receiver, so
    only the event simulator models the attack; the round-level fault model
    rejects it, which routes ``auto`` to the event engine and makes explicit
    round-level engine choices raise.
    """

    N, T = 6, 1
    INPUTS = [0.4, 0.45, 0.5, 0.55, 0.6, 0.5]
    ROUNDS = 5

    def _plan(self, forged):
        from repro.core.async_byzantine import AsyncByzantineProcess
        from repro.core.protocol import ProtocolConfig
        from repro.net.adversary import HonestWithCorruptedInput

        config = ProtocolConfig(
            n=self.N, t=self.T, epsilon=1e-2, round_policy=FixedRounds(self.ROUNDS)
        )
        return ByzantineFaultPlan(
            {5: HonestWithCorruptedInput(lambda: AsyncByzantineProcess(forged, config))}
        )

    def _run(self, forged, engine):
        return run(
            "async-byzantine", self.INPUTS, t=self.T, epsilon=1e-2,
            round_policy=FixedRounds(self.ROUNDS), fault_plan=self._plan(forged),
            engine=engine,
        )

    @pytest.mark.parametrize("forged", [float("inf"), float("-inf"), float("nan")])
    def test_direct_construction_names_the_process(self, forged):
        with pytest.raises(ValueError, match="process 5's forged input"):
            RoundFaultModel(corrupted_inputs={5: forged})

    @pytest.mark.parametrize("forged", [float("inf"), float("nan")])
    def test_adapter_rejects_so_the_plan_is_message_level(self, forged):
        from repro.net.adversary import round_fault_model
        from repro.sim.engine import FEATURE_MESSAGE_LEVEL

        with pytest.raises(ValueError, match="not finite"):
            round_fault_model(self._plan(forged), self.N)
        features = scenario_features(
            "async-byzantine", self.N, t=self.T, fault_plan=self._plan(forged)
        )
        assert FEATURE_MESSAGE_LEVEL in features

    @pytest.mark.parametrize("forged", [float("inf"), float("nan")])
    def test_event_and_auto_run_on_the_event_engine(self, forged):
        for engine in ("event", "auto"):
            result = self._run(forged, engine)
            assert result.runtime == "des"
            assert result.ok, result.report.violations
            assert result.rounds_used == self.ROUNDS

    @needs_numpy
    @pytest.mark.parametrize("forged", [float("inf"), float("nan")])
    @pytest.mark.parametrize("engine", ["batch", "ndbatch"])
    def test_round_level_engines_raise_naming_event(self, forged, engine):
        with pytest.raises(EngineCapabilityError) as excinfo:
            self._run(forged, engine)
        assert excinfo.value.capable == ("event",)

    @needs_numpy
    def test_finite_forged_inputs_keep_the_round_level_engines(self):
        model = RoundFaultModel(corrupted_inputs={5: 1e12})
        assert model.corrupted_inputs == {5: 1e12}
        for engine in ("batch", "ndbatch"):
            result = self._run(1e12, engine)
            assert result.runtime == engine
            assert result.ok, result.report.violations


@needs_numpy
class TestZeroFallbackByzantineGrid:
    """Acceptance: a RandomValueStrategy Byzantine grid runs on ndbatch with
    zero per-recipient Python quorum calls, bit-identical to the batch engine."""

    def _grid(self):
        cells = []
        for seed in range(6):
            inputs = [0.15 * i - 0.4 for i in range(11)]
            model = RoundFaultModel(
                strategies={
                    10: RandomValueStrategy(-2.0, 3.0, seed=seed),
                    9: RandomValueStrategy(-1.0, 1.0, seed=seed + 100),
                }
            )
            cells.append((inputs, model, seed))
        return cells

    def test_zero_python_fallback_quorum_calls(self, monkeypatch):
        from repro.net.adversary import OmissionPolicy
        from repro.sim.ndbatch import run_ndbatch_block

        calls = []
        original = SeededOmission.quorum

        def counting_quorum(self, round_number, recipient, candidates, m):
            calls.append((round_number, recipient))
            return original(self, round_number, recipient, candidates, m)

        monkeypatch.setattr(SeededOmission, "quorum", counting_quorum)
        cells = self._grid()
        results = run_ndbatch_block(
            "async-byzantine",
            [inputs for inputs, _, _ in cells],
            t=2,
            epsilon=1e-3,
            fault_models=[model for _, model, _ in cells],
            seeds=[seed for _, _, seed in cells],
        )
        assert calls == []  # the seeded PRF path never drops to Python quorums
        assert all(result.report.all_decided for result in results)

    def test_bit_identical_to_scalar_batch_engine(self):
        from repro.sim.batch import run_batch_protocol
        from repro.sim.ndbatch import run_ndbatch_block

        cells = self._grid()
        nd_results = run_ndbatch_block(
            "async-byzantine",
            [inputs for inputs, _, _ in cells],
            t=2,
            epsilon=1e-3,
            fault_models=[model for _, model, _ in cells],
            seeds=[seed for _, _, seed in cells],
        )
        for (inputs, model, seed), nd in zip(cells, nd_results):
            scalar_model = RoundFaultModel(
                strategies={
                    pid: RandomValueStrategy(
                        strategy.low, strategy.high, seed=strategy.seed
                    )
                    for pid, strategy in model.strategies.items()
                }
            )
            scalar = run_batch_protocol(
                "async-byzantine", inputs, t=2, epsilon=1e-3,
                fault_model=scalar_model,
                omission_policy=SeededOmission(seed, use_numpy=False),
            )
            # Exact structural agreement; values within float-summation slack.
            assert scalar.rounds_used == nd.rounds_used
            assert scalar.stats.messages_sent == nd.stats.messages_sent
            assert scalar.stats.bits_sent == nd.stats.bits_sent
            assert scalar.stats.messages_delivered == nd.stats.messages_delivered
            for pid, value in scalar.outputs.items():
                assert abs(value - nd.outputs[pid]) <= 1e-9
            for pid, history in scalar.value_histories.items():
                for left, right in zip(history, nd.value_histories[pid]):
                    assert abs(left - right) <= 1e-9


class TestDtypeDispatch:
    """run()'s dtype plumbing into the ndbatch engine."""

    @needs_numpy
    def test_explicit_float64_on_ndbatch_matches_default(self):
        default = run("async-crash", INPUTS, t=2, epsilon=1e-3, engine="ndbatch")
        explicit = run(
            "async-crash", INPUTS, t=2, epsilon=1e-3, engine="ndbatch",
            dtype="float64",
        )
        assert default.outputs == explicit.outputs
        assert default.rounds_used == explicit.rounds_used

    @needs_numpy
    def test_float32_on_ndbatch_tracks_float64(self):
        default = run("async-crash", INPUTS, t=2, epsilon=1e-3, engine="ndbatch")
        single = run(
            "async-crash", INPUTS, t=2, epsilon=1e-3, engine="ndbatch",
            dtype="float32",
        )
        assert single.rounds_used == default.rounds_used
        assert single.stats == default.stats
        for pid, value in default.outputs.items():
            assert single.outputs[pid] == pytest.approx(value, rel=1e-5, abs=1e-6)

    @needs_numpy
    def test_dtype_on_pure_python_engine_raises(self):
        with pytest.raises(EngineCapabilityError, match="dtype"):
            run(
                "async-crash", INPUTS, t=2, epsilon=1e-3, engine="batch",
                dtype="float64",
            )
        with pytest.raises(EngineCapabilityError, match="ndbatch"):
            run(
                "async-crash", INPUTS, t=2, epsilon=1e-3, engine="event",
                dtype="float32",
            )

    @needs_numpy
    def test_unknown_dtype_is_a_value_error(self):
        with pytest.raises(ValueError, match="unknown array dtype"):
            run(
                "async-crash", INPUTS, t=2, epsilon=1e-3, engine="ndbatch",
                dtype="float16",
            )
