"""Determinism regression: identical seeds ⇒ identical execution metrics.

Reproducibility is a foundational property of the evaluation harness: every
randomised component (workloads, delay models, omission policies, Byzantine
strategies) takes an explicit seed, so repeating a run must reproduce every
metric bit for bit.  This guards all three execution paths — the event
simulator, the round-level batch engine, and the sweep worker pool.
"""

from __future__ import annotations

import pytest

from repro.net.network import UniformRandomDelay
from repro.sim import NDBATCH_PROTOCOLS, run_ndbatch_protocol
from repro.sim.batch import BATCH_PROTOCOLS, run_batch_protocol
from repro.sim.engine import numpy_available
from repro.sim.runner import PROTOCOL_FACTORIES, SYNCHRONOUS_PROTOCOLS, run_protocol
from repro.sim.sweep import ADVERSARY_SPECS, SweepSpec, run_sweep
from repro.sim.workloads import uniform_inputs

SEED = 1234


def metrics_of(result):
    """Every deterministic measurement of one execution."""
    return (
        result.outputs,
        result.rounds_used,
        result.trajectory,
        result.value_histories,
        result.stats.messages_sent,
        result.stats.bits_sent,
        result.stats.messages_by_kind,
        result.report.ok,
        result.report.output_spread,
    )


def schedule_of(result):
    """The event-engine measurements that move whenever the schedule moves."""
    stats = result.stats
    return dict(
        events_executed=result.events_executed,
        messages_sent=stats.messages_sent,
        messages_delivered=stats.messages_delivered,
        bits_sent=stats.bits_sent,
        messages_by_kind=stats.messages_by_kind,
        sends_by_process=stats.sends_by_process,
        rounds_used=result.rounds_used,
        outputs=result.outputs,
    )


class TestEventEngineDeterminism:
    #: Recorded literals for :meth:`execute`.  Comparing two runs of the same
    #: code cannot catch a change to the simulator that moves the schedule
    #: (event order, crash prefixes, counters); these numbers do.
    RECORDED = {
        "async-byzantine": dict(
            events_executed=1215,
            messages_sent=1210,
            messages_delivered=1188,
            bits_sent=90992,
            messages_by_kind={"VALUE": 1210},
            sends_by_process=dict.fromkeys(range(11), 110),
            rounds_used=10,
            outputs=dict.fromkeys(range(11), 0.49955122436028054),
        ),
        "async-crash": dict(
            events_executed=340,
            messages_sent=343,
            messages_delivered=329,
            bits_sent=25676,
            messages_by_kind={"VALUE": 343},
            sends_by_process=dict.fromkeys(range(7), 49),
            rounds_used=7,
            outputs=dict.fromkeys(range(7), 0.6003313960468236),
        ),
        "sync-byzantine": dict(
            events_executed=497,
            messages_sent=490,
            messages_delivered=490,
            bits_sent=36848,
            messages_by_kind={"VALUE": 490},
            sends_by_process=dict.fromkeys(range(7), 70),
            rounds_used=10,
            outputs=dict.fromkeys(range(7), 0.7466017677540366),
        ),
        "sync-crash": dict(
            events_executed=252,
            messages_sent=245,
            messages_delivered=245,
            bits_sent=18277,
            messages_by_kind={"VALUE": 245},
            sends_by_process=dict.fromkeys(range(7), 35),
            rounds_used=5,
            outputs=dict.fromkeys(range(7), 0.6167871353146999),
        ),
        "witness": dict(
            events_executed=7839,
            messages_sent=7840,
            messages_delivered=7832,
            bits_sent=628656,
            messages_by_kind={
                "RBC_INIT": 490, "RBC_ECHO": 3430, "RBC_READY": 3430, "REPORT": 490,
            },
            sends_by_process=dict.fromkeys(range(7), 1120),
            rounds_used=10,
            outputs=dict.fromkeys(range(7), 0.7466017677540366),
        ),
    }

    @staticmethod
    def execute(protocol):
        n, t = (11, 2) if protocol == "async-byzantine" else (7, 2)
        inputs = uniform_inputs(n, seed=SEED)
        delays = None
        if protocol not in SYNCHRONOUS_PROTOCOLS:
            delays = UniformRandomDelay(low=0.2, high=1.8, seed=SEED)
        return run_protocol(
            protocol, inputs, t=t, epsilon=1e-3,
            delay_model=delays, start_jitter=0.5,
        )

    @pytest.mark.parametrize("protocol", sorted(PROTOCOL_FACTORIES))
    def test_repeated_runs_are_identical(self, protocol):
        assert metrics_of(self.execute(protocol)) == metrics_of(self.execute(protocol))

    @pytest.mark.parametrize("protocol", sorted(PROTOCOL_FACTORIES))
    def test_schedule_matches_recorded_values(self, protocol):
        assert schedule_of(self.execute(protocol)) == self.RECORDED[protocol]

    def test_mid_multicast_crash_schedule_matches_recorded_values(self):
        # crash-staggered at seed 1 crashes process 6 after 1 send and
        # process 5 after 11: both part-way through a 7-recipient multicast.
        bundle = ADVERSARY_SPECS["crash-staggered"]("witness", 7, 2, 1)
        result = run_protocol(
            "witness", uniform_inputs(7, seed=SEED), t=2, epsilon=1e-3,
            fault_plan=bundle.fault_plan,
        )
        assert schedule_of(result) == dict(
            events_executed=4294,
            messages_sent=4289,
            messages_delivered=3066,
            bits_sent=338005,
            messages_by_kind={
                "RBC_INIT": 358, "RBC_ECHO": 1796, "RBC_READY": 1785, "REPORT": 350,
            },
            sends_by_process={0: 861, 1: 854, 2: 854, 3: 854, 4: 854, 5: 11, 6: 1},
            rounds_used=10,
            outputs=dict.fromkeys(range(5), 0.7466017677540366),
        )


class TestBatchEngineDeterminism:
    @pytest.mark.parametrize("protocol", BATCH_PROTOCOLS)
    def test_repeated_runs_are_identical(self, protocol):
        n, t = (11, 2) if protocol == "async-byzantine" else (7, 2)
        inputs = uniform_inputs(n, seed=SEED)

        def execute():
            return run_batch_protocol(protocol, inputs, t=t, epsilon=1e-3, seed=SEED)

        assert metrics_of(execute()) == metrics_of(execute())


@pytest.mark.skipif(not numpy_available(), reason="the vectorised engine requires numpy")
class TestNdbatchEngineDeterminism:
    @pytest.mark.parametrize("protocol", NDBATCH_PROTOCOLS)
    def test_repeated_runs_are_identical(self, protocol):
        n, t = (11, 2) if protocol == "async-byzantine" else (7, 2)
        inputs = uniform_inputs(n, seed=SEED)

        def execute():
            return run_ndbatch_protocol(protocol, inputs, t=t, epsilon=1e-3, seed=SEED)

        assert metrics_of(execute()) == metrics_of(execute())


class TestSweepDeterminism:
    SPEC = SweepSpec(
        protocols=("async-crash", "sync-byzantine"),
        system_sizes=((7, 2),),
        adversaries=("none", "crash-staggered", "staggered"),
        workloads=("uniform", "two-cluster"),
        seeds=(0, 1, 2),
    )

    def test_repeated_sweeps_are_identical(self):
        assert run_sweep(self.SPEC, workers=1) == run_sweep(self.SPEC, workers=1)

    def test_pool_matches_serial(self):
        # CellOutcome equality excludes wall time, so the worker pool must
        # reproduce the serial results exactly, in the same grid order.
        assert run_sweep(self.SPEC, workers=2) == run_sweep(self.SPEC, workers=1)

    @pytest.mark.skipif(
        not numpy_available(), reason="the vectorised engine requires numpy"
    )
    def test_ndbatch_pool_matches_serial(self):
        import dataclasses

        spec = dataclasses.replace(self.SPEC, engine="ndbatch")
        serial = run_sweep(spec, workers=1)
        assert run_sweep(spec, workers=2) == serial
        # Repetition is bit-stable too (the PRF-based omission policy is
        # stateless, so query order cannot leak in).
        assert run_sweep(spec, workers=1) == serial

    def test_event_engine_sweep_is_deterministic(self):
        spec = SweepSpec(
            protocols=("async-crash", "witness"),
            system_sizes=((7, 2),),
            adversaries=("random-delays",),
            workloads=("uniform",),
            seeds=(0, 1),
            engine="event",
        )
        assert run_sweep(spec, workers=1) == run_sweep(spec, workers=1)
