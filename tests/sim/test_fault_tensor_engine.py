"""Acceptance grid for the tensor-native fault pipeline.

The tentpole guarantee: ndbatch Byzantine/anti-convergence rounds issue
**zero per-execution Python strategy calls** — every strategy program is
answered by one ``value_tensor`` call per round on a representative instance,
its rows stacking every member sender, execution and coordinate — while the
realised executions stay *exactly* differential against the scalar engines:

* versus the pure-Python batch engine: identical rounds, message/bit/send
  counts, outputs and trajectories within float-summation order (``1e-9``);
* versus the event simulator: both correct, identical rounds and value
  traffic (the bar of ``tests/sim/test_batch_equivalence.py``).

The same holds for the quorum side: ``DelayRankOmission`` over
tensor-programmed delay models routes through grouped ``rank_tensor`` calls —
zero per-recipient ``quorum`` calls.
"""

from __future__ import annotations

import pytest

from repro.net.adversary import (
    AntiConvergenceStrategy,
    DelayRankOmission,
    EquivocatingStrategy,
    FixedValueStrategy,
    PartitionDelay,
    RandomValueStrategy,
    RoundFaultModel,
    SeededOmission,
)
from repro.sim.engine import numpy_available

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="the vectorised engine requires numpy"
)

EPSILON = 1e-3
STRATEGY_CLASSES = (
    AntiConvergenceStrategy,
    EquivocatingStrategy,
    FixedValueStrategy,
    RandomValueStrategy,
)


def _anti_cells(count=8, n=11):
    cells = []
    for seed in range(count):
        inputs = [0.15 * i - 0.4 + 0.01 * seed for i in range(n)]
        model = RoundFaultModel(
            strategies={
                n - 1: AntiConvergenceStrategy(),
                n - 2: AntiConvergenceStrategy(stretch=0.25),
            }
        )
        cells.append((inputs, model, seed))
    return cells


def _mixed_cells(count=6, n=11):
    cells = []
    for seed in range(count):
        inputs = [0.1 * i - 0.3 for i in range(n)]
        model = RoundFaultModel(
            strategies={
                n - 1: RandomValueStrategy(-2.0, 3.0, seed=seed),
                n - 2: (
                    AntiConvergenceStrategy()
                    if seed % 2
                    else EquivocatingStrategy(-1.0, 2.0)
                ),
            }
        )
        cells.append((inputs, model, seed))
    return cells


@pytest.fixture
def strategy_call_counter(monkeypatch):
    """Count every per-execution strategy call the engine makes."""
    calls = []

    def wrap(cls, name):
        original = getattr(cls, name)

        def counting(self, *args, **kwargs):
            calls.append((type(self).__name__, name))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, counting)

    for cls in STRATEGY_CLASSES:
        wrap(cls, "value")
    return calls


class TestZeroPerExecutionStrategyCalls:
    def test_anti_convergence_block_is_tensor_only(self, strategy_call_counter):
        from repro.sim.ndbatch import run_ndbatch_block

        cells = _anti_cells()
        results = run_ndbatch_block(
            "async-byzantine",
            [inputs for inputs, _, _ in cells],
            t=2,
            epsilon=EPSILON,
            fault_models=[model for _, model, _ in cells],
            seeds=[seed for _, _, seed in cells],
        )
        assert strategy_call_counter == []
        assert all(result.report.all_decided for result in results)

    def test_mixed_program_block_is_tensor_only(self, strategy_call_counter):
        from repro.sim.ndbatch import run_ndbatch_block

        cells = _mixed_cells()
        results = run_ndbatch_block(
            "async-byzantine",
            [inputs for inputs, _, _ in cells],
            t=2,
            epsilon=EPSILON,
            fault_models=[model for _, model, _ in cells],
            seeds=[seed for _, _, seed in cells],
        )
        assert strategy_call_counter == []
        assert all(result.report.all_decided for result in results)

    @pytest.mark.parametrize("dimension", [1, 3])
    @pytest.mark.parametrize("t", [1, 3, 6])
    def test_one_value_tensor_call_per_program_per_round(self, monkeypatch, t, dimension):
        # Each program's call stacks every member sender, execution and
        # coordinate, so a round costs one call per distinct program —
        # not one per (sender, program) group and coordinate.
        from repro.core.termination import FixedRounds
        from repro.sim.ndbatch import run_ndbatch_block, run_vector_block

        calls = []
        for cls in STRATEGY_CLASSES:
            original = cls.value_tensor

            def counting(self, *args, _original=original, **kwargs):
                calls.append(self.tensor_key())
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "value_tensor", counting)

        count, n, rounds = 6, 5 * t + 1, 4
        kinds = (
            AntiConvergenceStrategy,
            lambda: AntiConvergenceStrategy(stretch=0.25, parity=1),
            None,  # random, seeded per sender
            lambda: FixedValueStrategy(5.0),
        )
        models = []
        for e in range(count):
            strategies = {}
            for i in range(t):
                kind = kinds[(e + i) % len(kinds)]
                strategies[n - 1 - i] = (
                    RandomValueStrategy(-2.0, 3.0, seed=e * t + i) if kind is None else kind()
                )
            models.append(RoundFaultModel(strategies=strategies))
        programs = {s.tensor_key() for model in models for s in model.strategies.values()}
        inputs = [
            [[0.1 * i + 0.01 * e + 0.2 * c for c in range(dimension)] for i in range(n)]
            for e in range(count)
        ]
        if dimension == 1:
            run_ndbatch_block(
                "async-byzantine", [[v[0] for v in row] for row in inputs], t=t,
                epsilon=EPSILON, round_policy=FixedRounds(rounds), fault_models=models,
            )
        else:
            run_vector_block(
                "async-byzantine", inputs, t=t, epsilon=EPSILON,
                round_policy=FixedRounds(rounds), fault_models=models,
            )
        assert len(calls) == rounds * len(programs)
        assert set(calls) == programs

    def test_delay_rank_block_is_tensor_only(self, monkeypatch):
        from repro.sim.ndbatch import run_ndbatch_block

        calls = []
        original = DelayRankOmission.quorum

        def counting(self, *args, **kwargs):
            calls.append("quorum")
            return original(self, *args, **kwargs)

        monkeypatch.setattr(DelayRankOmission, "quorum", counting)

        count, n = 6, 9
        inputs = [[0.1 * i + 0.01 * e for i in range(n)] for e in range(count)]
        policies = [
            DelayRankOmission(PartitionDelay(camp_a=range(4))) for _ in range(count)
        ]
        results = run_ndbatch_block(
            "async-crash",
            inputs,
            t=2,
            epsilon=EPSILON,
            omission_policies=policies,
        )
        assert calls == []  # grouped rank_tensor path, no per-execution calls
        assert all(result.report.all_decided for result in results)


class TestReportMemory:
    def test_injection_peaks_below_one_dense_report_tensor(self):
        # Reports are kept per strategy slot: one round's injection on a
        # mixed anti-convergence/random block stays below a single
        # (E, n, n, d) float64 tensor of reports indexed by sender.
        import tracemalloc

        import numpy as np

        from repro.core.rounds import async_byzantine_bounds
        from repro.sim.ndbatch import _Block, _injected_values

        count, n, t, d = 192, 31, 6, 3
        models = []
        for e in range(count):
            strategies = {n - 1 - i: AntiConvergenceStrategy() for i in range(3)}
            strategies.update(
                {n - 4 - i: RandomValueStrategy(-2.0, 3.0, seed=e * t + i) for i in range(3)}
            )
            models.append(RoundFaultModel(strategies=strategies))
        block = _Block(
            "async-byzantine",
            np.random.default_rng(0).random((count, n, d)),
            t,
            EPSILON,
            async_byzantine_bounds(n, t),
            5,
            models,
            [SeededOmission(e) for e in range(count)],
            "float64",
        )
        dense_bytes = count * n * n * d * 8  # 4.2 MiB
        tracemalloc.start()
        try:
            reports = _injected_values(block, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dense_bytes
        assert reports.shape == (count, t, n, d)


class TestTensorContractEnforcement:
    def test_policy_declaring_program_must_answer_rank_tensor(self):
        # A non-None tensor_key with the default (None-returning) rank_tensor
        # must raise, not silently rank every quorum by NaN.
        from repro.net.adversary import OmissionPolicy
        from repro.sim.ndbatch import run_ndbatch_protocol

        class LastM(OmissionPolicy):
            def tensor_key(self):
                return ("last-m",)

            def quorum(self, round_number, recipient, candidates, m):
                return list(candidates)[-m:]

        with pytest.raises(ValueError, match="rank_tensor returned None"):
            run_ndbatch_protocol(
                "async-crash", [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0], t=2,
                epsilon=1e-2, omission_policy=LastM(),
            )

    def test_strategy_declaring_program_must_answer_value_tensor(self):
        from repro.sim.ndbatch import run_ndbatch_protocol

        class Declared(FixedValueStrategy):
            def value_tensor(self, round_number, n, observed, seed_mix):
                return None

        with pytest.raises(ValueError, match="value_tensor returned None"):
            run_ndbatch_protocol(
                "async-byzantine", [0.1 * i for i in range(11)], t=2,
                epsilon=1e-2,
                fault_model=RoundFaultModel(strategies={10: Declared(5.0)}),
            )


class TestDifferentialAgreement:
    @pytest.mark.parametrize("cells", [_anti_cells(), _mixed_cells()],
                             ids=["anti", "mixed"])
    def test_exact_against_scalar_batch_engine(self, cells):
        from repro.sim.batch import run_batch_protocol
        from repro.sim.ndbatch import run_ndbatch_block

        nd_results = run_ndbatch_block(
            "async-byzantine",
            [inputs for inputs, _, _ in cells],
            t=2,
            epsilon=EPSILON,
            fault_models=[model for _, model, _ in cells],
            seeds=[seed for _, _, seed in cells],
        )
        for (inputs, model, seed), nd in zip(cells, nd_results):
            scalar = run_batch_protocol(
                "async-byzantine", inputs, t=2, epsilon=EPSILON,
                fault_model=model,
                omission_policy=SeededOmission(seed, use_numpy=False),
            )
            assert scalar.rounds_used == nd.rounds_used
            assert scalar.stats.messages_sent == nd.stats.messages_sent
            assert scalar.stats.bits_sent == nd.stats.bits_sent
            assert scalar.stats.messages_delivered == nd.stats.messages_delivered
            assert scalar.stats.sends_by_process == nd.stats.sends_by_process
            for pid, value in scalar.outputs.items():
                assert abs(value - nd.outputs[pid]) <= 1e-9
            for pid, history in scalar.value_histories.items():
                for left, right in zip(history, nd.value_histories[pid]):
                    assert abs(left - right) <= 1e-9

    def test_against_event_engine_via_sweep_adversaries(self):
        # byz-anti through the named sweep adversary, ndbatch vs the event
        # simulator: both correct, identical rounds and value traffic (the
        # bar of the batch/event differential grid).
        from repro.sim.runner import run_protocol
        from repro.sim.sweep import ADVERSARY_SPECS, WORKLOAD_SPECS
        from repro.sim.ndbatch import run_ndbatch_protocol

        n, t = 11, 2
        for seed in range(3):
            inputs = WORKLOAD_SPECS["uniform"](n, seed)
            bundle = ADVERSARY_SPECS["byz-anti"]("async-byzantine", n, t, seed)
            nd = run_ndbatch_protocol(
                "async-byzantine", inputs, t=t, epsilon=EPSILON,
                fault_plan=bundle.fault_plan, seed=seed,
            )
            event = run_protocol(
                "async-byzantine", inputs, t=t, epsilon=EPSILON,
                fault_plan=ADVERSARY_SPECS["byz-anti"]("async-byzantine", n, t, seed).fault_plan,
            )
            assert nd.ok, nd.report.violations
            assert event.ok, event.report.violations
            assert nd.rounds_used == event.rounds_used
            assert nd.stats.messages_sent == event.stats.messages_sent
            assert nd.stats.bits_sent == event.stats.bits_sent


class TestSweepCostModel:
    def test_tiny_auto_grid_demoted_to_batch(self):
        from repro.sim.sweep import SweepSpec, run_sweep

        spec = SweepSpec(
            protocols=("async-crash",),
            system_sizes=((5, 1),),
            adversaries=("none",),
            workloads=("uniform",),
            seeds=(0,),
            epsilon=1e-1,  # few rounds: 1 cell × rounds × 5 « NDBATCH_MIN_WORK
            engine="auto",
        )
        outcomes = run_sweep(spec, workers=1)
        assert [o.engine_used for o in outcomes] == ["batch"]
        assert outcomes[0].ok

    def test_large_auto_grid_stays_on_ndbatch(self):
        from repro.sim.sweep import SweepSpec, run_sweep

        spec = SweepSpec(
            protocols=("async-crash",),
            system_sizes=((7, 2),),
            adversaries=("none",),
            workloads=("uniform",),
            seeds=tuple(range(8)),
            engine="auto",
        )
        outcomes = run_sweep(spec, workers=1)
        assert {o.engine_used for o in outcomes} == {"ndbatch"}
        assert all(o.ok for o in outcomes)

    def test_demotion_never_changes_outcomes(self):
        import dataclasses

        from repro.sim.sweep import SweepSpec, run_sweep

        spec = SweepSpec(
            protocols=("async-crash",),
            system_sizes=((5, 1),),
            adversaries=("none", "crash-initial"),
            workloads=("uniform",),
            seeds=(0, 1),
            epsilon=1e-1,
            engine="auto",
        )
        auto = run_sweep(spec, workers=1)
        batch = run_sweep(dataclasses.replace(spec, engine="batch"), workers=1)
        for left, right in zip(auto, batch):
            assert (left.ok, left.rounds, left.messages, left.bits) == (
                right.ok, right.rounds, right.messages, right.bits
            )


class TestRejectionReasons:
    def test_override_error_states_every_engines_reason(self):
        from repro.core.termination import SpreadEstimateRounds
        from repro.sim.engine import EngineCapabilityError, run

        with pytest.raises(EngineCapabilityError) as excinfo:
            run(
                "witness", [0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 1.0], t=2,
                epsilon=1e-2, round_policy=SpreadEstimateRounds(),
                engine="ndbatch",
            )
        error = excinfo.value
        # The rejecting engine's own reason, plus per-engine reasons.
        assert "ndbatch" in error.rejections
        assert "witness" in error.rejections["ndbatch"]
        assert "adaptive" in error.rejections["ndbatch"]
        message = str(error)
        assert "the ndbatch engine does not support" in message
        assert "capable engine(s):" in message

    def test_no_capable_engine_lists_all_rejections(self):
        from repro.sim.engine import EngineCapabilityError, select_engine

        with pytest.raises(EngineCapabilityError) as excinfo:
            select_engine({"protocol:witness", "message-level-faults",
                           "round-level-adversary"})
        error = excinfo.value
        assert set(error.rejections) == {"ndbatch", "batch", "event"}
        assert "also rejected:" in str(error)
