"""Determinism regression: identical seeds ⇒ identical execution metrics.

Reproducibility is a foundational property of the evaluation harness: every
randomised component (workloads, delay models, omission policies, Byzantine
strategies) takes an explicit seed, so repeating a run must reproduce every
metric bit for bit.  This guards all three execution paths — the event
simulator, the round-level batch engine, and the sweep worker pool.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.termination import FixedRounds, KnownRangeRounds, SpreadEstimateRounds
from repro.net.adversary import (
    AntiConvergenceStrategy,
    ByzantineFaultPlan,
    DelayRankOmission,
    RandomValueStrategy,
    RoundFaultModel,
    SeededDelay,
    StaggeredExclusionDelay,
)
from repro.net.interfaces import Process, ProcessContext
from repro.net.message import Message
from repro.net.network import ExponentialRandomDelay, SimulatedNetwork, UniformRandomDelay
from repro.sim import NDBATCH_PROTOCOLS, run_ndbatch_protocol
from repro.sim.batch import BATCH_PROTOCOLS, run_batch_protocol
from repro.sim.engine import numpy_available
from repro.sim.runner import (
    PROTOCOL_FACTORIES,
    SYNCHRONOUS_PROTOCOLS,
    _make_problem,
    run_async_network,
    run_protocol,
)
from repro.sim.sweep import ADVERSARY_SPECS, SweepSpec, run_sweep
from repro.sim.workloads import rendezvous_positions, uniform_inputs

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

    #: sha256 prefixes of :func:`histories_of` for :meth:`execute`'s runs.
    HISTORIES_RECORDED = {
        "async-byzantine": "dba0794e054060c4",
        "async-crash": "303565d342a3f66b",
        "sync-byzantine": "b7984fc4b26db829",
        "sync-crash": "973bcab3da768252",
        "witness": "b7984fc4b26db829",
    }

    @pytest.mark.parametrize("protocol", sorted(PROTOCOL_FACTORIES))
    def test_value_histories_match_recorded_digests(self, protocol):
        assert histories_of(self.execute(protocol)) == self.HISTORIES_RECORDED[protocol]

    #: Adversarial scenarios: ``(protocol, n, t, fault source, delays,
    #: start_jitter)``.  The fault source is an :data:`ADVERSARY_SPECS` name
    #: (its bundle's delay model, if any, wins over ``delays``) or
    #: ``"rbc-equivocator"``; ``delays`` is ``None`` (unit delays),
    #: ``"uniform"`` or ``"exponential"``.
    SCENARIOS = {
        # The witness-event bench workload's shape.
        "witness-crash-staggered": ("witness", 10, 3, "crash-staggered", None, 0.0),
        # RoundEchoByzantine senders, whose VALUE messages the witness
        # protocol ignores.
        "witness-byz-anti": ("witness", 7, 2, "byz-anti", "uniform", 0.5),
        "witness-byz-equivocate": ("witness", 7, 2, "byz-equivocate", "uniform", 0.5),
        # Byzantine reliable-broadcast originators that split their INITs.
        "witness-rbc-equivocator": ("witness", 7, 2, "rbc-equivocator", "uniform", 0.5),
        # A report-delay model: slow cross-camp REPORT messages.
        "witness-partition": ("witness", 7, 2, "witness-partition", None, 0.5),
        # Starts spread over 30 time units: processes 0 and 4 see n - t
        # broadcasts delivered and n - t witnesses before their on_start.
        # They store them and complete iteration 1 only once started, so
        # every process runs all ten iterations.
        "witness-late-start": ("witness", 10, 3, "none", "uniform", 30.0),
        # Byzantine point-to-point values under heavy-tailed delays.
        "async-byzantine-exponential": (
            "async-byzantine", 11, 2, "byz-equivocate", "exponential", 0.5,
        ),
    }

    #: :func:`schedule_of` plus the :func:`histories_of` digest per scenario.
    SCENARIOS_RECORDED = {
        "async-byzantine-exponential": dict(
            events_executed=1210,
            messages_sent=1210,
            messages_delivered=1186,
            bits_sent=90992,
            messages_by_kind={"VALUE": 1210},
            sends_by_process=dict.fromkeys(range(11), 110),
            rounds_used=10,
            outputs={**dict.fromkeys(range(8), 0.5920233182900292), 8: 0.5917224709427024},
            histories="93a96a1c67246fe6",
        ),
        "witness-byz-anti": dict(
            events_executed=4221,
            messages_sent=4214,
            messages_delivered=4214,
            bits_sent=331751,
            messages_by_kind={
                "RBC_INIT": 350, "RBC_ECHO": 1750, "RBC_READY": 1750, "REPORT": 350,
                "VALUE": 14,
            },
            sends_by_process={**dict.fromkeys(range(5), 840), 5: 7, 6: 7},
            rounds_used=10,
            outputs=dict.fromkeys(range(5), 0.9109759624491242),
            histories="40fa69ffc2081727",
        ),
        "witness-byz-equivocate": dict(
            events_executed=4221,
            messages_sent=4214,
            messages_delivered=4214,
            bits_sent=331751,
            messages_by_kind={
                "RBC_INIT": 350, "RBC_ECHO": 1750, "RBC_READY": 1750, "REPORT": 350,
                "VALUE": 14,
            },
            sends_by_process={**dict.fromkeys(range(5), 840), 5: 7, 6: 7},
            rounds_used=10,
            outputs=dict.fromkeys(range(5), 0.9109759624491242),
            histories="40fa69ffc2081727",
        ),
        "witness-crash-staggered": dict(
            events_executed=11552,
            messages_sent=11545,
            messages_delivered=8088,
            bits_sent=933406,
            messages_by_kind={
                "RBC_INIT": 722, "RBC_ECHO": 5083, "RBC_READY": 5040, "REPORT": 700,
            },
            sends_by_process={
                0: 1650, 1: 1650, **dict.fromkeys(range(2, 7), 1640), 7: 28, 8: 15, 9: 2,
            },
            rounds_used=10,
            outputs=dict.fromkeys(range(7), 0.6743542529253728),
            histories="dc496049114da40a",
        ),
        "witness-late-start": dict(
            events_executed=22001,
            messages_sent=22000,
            messages_delivered=21991,
            bits_sent=1804350,
            messages_by_kind={
                "RBC_INIT": 1000, "RBC_ECHO": 10000, "RBC_READY": 10000, "REPORT": 1000,
            },
            sends_by_process=dict.fromkeys(range(10), 2200),
            rounds_used=10,
            outputs=dict.fromkeys(range(10), 0.4407325991753527),
            histories="24555465b3284d3a",
        ),
        "witness-partition": dict(
            events_executed=7839,
            messages_sent=7840,
            messages_delivered=7832,
            bits_sent=628593,
            messages_by_kind={
                "RBC_INIT": 490, "RBC_ECHO": 3430, "RBC_READY": 3430, "REPORT": 490,
            },
            sends_by_process=dict.fromkeys(range(7), 1120),
            rounds_used=10,
            outputs=dict.fromkeys(range(7), 0.7466017677540366),
            histories="b7984fc4b26db829",
        ),
        "witness-rbc-equivocator": dict(
            events_executed=5047,
            messages_sent=5040,
            messages_delivered=5040,
            bits_sent=401191,
            messages_by_kind={
                "RBC_INIT": 490, "RBC_ECHO": 2450, "RBC_READY": 1750, "REPORT": 350,
            },
            sends_by_process={**dict.fromkeys(range(5), 980), 5: 70, 6: 70},
            rounds_used=10,
            outputs=dict.fromkeys(range(5), 0.9109759624491242),
            histories="40fa69ffc2081727",
        ),
    }

    @classmethod
    def scenario(cls, name):
        """``(protocol, processes, problem, delay model, fault plan, jitter)``."""
        protocol, n, t, faults, delays, jitter = cls.SCENARIOS[name]
        inputs = uniform_inputs(n, seed=SEED)
        if faults == "rbc-equivocator":
            fault_plan = ByzantineFaultPlan({n - 1 - i: RbcEquivocator(n) for i in range(t)})
            delay_model = None
        else:
            fault_plan, delay_model, _ = ADVERSARY_SPECS[faults](protocol, n, t, SEED)
        if delay_model is None and delays == "uniform":
            delay_model = UniformRandomDelay(low=0.2, high=1.8, seed=SEED)
        elif delay_model is None and delays == "exponential":
            delay_model = ExponentialRandomDelay(mean=1.0, floor=0.05, seed=SEED)
        processes = PROTOCOL_FACTORIES[protocol](inputs, t, 1e-3)
        problem = _make_problem(inputs, t, 1e-3, fault_plan)
        return protocol, processes, problem, delay_model, fault_plan, jitter

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_adversarial_schedule_matches_recorded_values(self, scenario):
        protocol, processes, problem, delays, faults, jitter = self.scenario(scenario)
        result = run_async_network(
            protocol, processes, problem, delay_model=delays, fault_plan=faults,
            start_jitter=jitter, start_seed=SEED,
        )
        recorded = dict(self.SCENARIOS_RECORDED[scenario])
        assert histories_of(result) == recorded.pop("histories")
        assert schedule_of(result) == recorded

    #: ``(deliveries, trace digest)`` of a ``keep_trace=True`` run with one
    #: delivery observer attached.
    TRACE_RECORDED = {
        "async-byzantine-exponential": (1186, "705bce11cecee6d3"),
        "witness-crash-staggered": (8088, "8ea43aeed1e2a900"),
        "witness-rbc-equivocator": (5040, "7adbe4fd671b5f1b"),
    }

    @pytest.mark.parametrize("scenario", sorted(TRACE_RECORDED))
    def test_trace_and_observer_match_recorded_values(self, scenario):
        _, processes, _, delays, faults, jitter = self.scenario(scenario)
        network = SimulatedNetwork(
            processes, delay_model=delays, fault_plan=faults, keep_trace=True
        )
        observed = []
        network.add_delivery_observer(observed.append)
        network.start(start_jitter=jitter, seed=SEED)
        network.run()
        assert observed == network.trace
        assert len(observed) == network.stats.messages_delivered
        assert (len(observed), trace_digest(network.trace)) == self.TRACE_RECORDED[scenario]


def _digest(value) -> str:
    """Short sha256 prefix of ``repr(value)`` (``repr`` round-trips floats)."""
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def histories_of(result) -> str:
    """Digest of every honest process's value history and the trajectory."""
    return _digest((sorted(result.value_histories.items()), result.trajectory))


def trace_digest(trace) -> str:
    """Digest of a delivery trace: times, endpoints and every message field."""
    return _digest(
        [
            (r.time, r.sender, r.recipient, r.message.kind, r.message.round,
             r.message.value, r.message.tag)
            for r in trace
        ]
    )


class RbcEquivocator(Process):
    """Byzantine witness process: for each iteration it sees, it sends its
    broadcast's ``RBC_INIT`` with ``0.0`` to the even recipients and ``1.0``
    to the odd ones."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.iterations = set()

    def on_start(self, ctx: ProcessContext) -> None:
        self._equivocate(ctx, 1)

    def on_message(self, ctx: ProcessContext, sender: int, message: Message) -> None:
        if message.kind == "RBC_INIT" and isinstance(message.tag, tuple):
            self._equivocate(ctx, message.tag[0])

    def _equivocate(self, ctx: ProcessContext, iteration) -> None:
        if iteration in self.iterations:
            return
        self.iterations.add(iteration)
        for recipient in range(self.n):
            ctx.send(
                recipient,
                Message(kind="RBC_INIT", value=float(recipient % 2),
                        tag=(iteration, ctx.process_id)),
            )


class TestBatchEngineDeterminism:
    @pytest.mark.parametrize("protocol", BATCH_PROTOCOLS)
    def test_repeated_runs_are_identical(self, protocol):
        n, t = (11, 2) if protocol == "async-byzantine" else (7, 2)
        inputs = uniform_inputs(n, seed=SEED)

        def execute():
            return run_batch_protocol(protocol, inputs, t=t, epsilon=1e-3, seed=SEED)

        assert metrics_of(execute()) == metrics_of(execute())

    #: Round policies of :meth:`execute`: upfront counts (the protocol
    #: default, zero rounds, a public input range) and an adaptive one.
    POLICIES = {
        "default": lambda: None,
        "fixed-0": lambda: FixedRounds(0),
        "known-range": lambda: KnownRangeRounds(0, 1),
        "spread-estimate": SpreadEstimateRounds,
    }

    @classmethod
    def execute(cls, protocol, policy, adversary):
        n, t = (11, 2) if protocol == "async-byzantine" else (7, 2)
        fault_plan, delay_model, _ = ADVERSARY_SPECS[adversary](protocol, n, t, SEED)
        return run_batch_protocol(
            protocol, uniform_inputs(n, seed=SEED), t=t, epsilon=1e-3, seed=SEED,
            round_policy=cls.POLICIES[policy](), fault_plan=fault_plan,
            delay_model=delay_model,
        )

    #: :func:`schedule_of` (``events_executed`` is always 0) plus the
    #: :func:`histories_of` digest of :meth:`execute` per ``(protocol,
    #: policy, adversary)``: every direct protocol under every policy with no
    #: faults, staggered mid-multicast crashes and, for the Byzantine
    #: protocols, anti-convergence senders; the witness form under its
    #: default policy with no faults, Byzantine senders and a report-delay
    #: model.  Two runs of the same code agree even after a change that
    #: moves the round loop's sampling or accounting; these literals do not.
    RECORDED = {
        ("async-byzantine", "default", "none"): dict(
            messages_sent=1210, messages_delivered=990, bits_sent=90992,
            messages_by_kind={"VALUE": 1210},
            sends_by_process=dict.fromkeys(range(11), 110),
            rounds_used=10,
            outputs=dict.fromkeys(range(11), 0.49955122436028054),
            histories="6e854ca4d29ec4e6",
        ),
        ("async-byzantine", "default", "crash-staggered"): dict(
            messages_sent=1012, messages_delivered=819, bits_sent=76076,
            messages_by_kind={"VALUE": 1012},
            sends_by_process={**dict.fromkeys(range(9), 110), 9: 12, 10: 10},
            rounds_used=10,
            outputs=dict.fromkeys(range(9), 0.49955122436028054),
            histories="d1165d71e5b38a90",
        ),
        ("async-byzantine", "default", "byz-anti"): dict(
            messages_sent=1210, messages_delivered=810, bits_sent=90992,
            messages_by_kind={"VALUE": 1210},
            sends_by_process=dict.fromkeys(range(11), 110),
            rounds_used=10,
            outputs={
                **dict.fromkeys((0, 1, 2, 3, 5, 7), 0.5612573742819036), 4: 0.5611827192459871,
                6: 0.5611827192459871, 8: 0.5611827192459871,
            },
            histories="b6ddbaa08606bc70",
        ),
        ("async-byzantine", "fixed-0", "none"): dict(
            messages_sent=0, messages_delivered=0, bits_sent=0,
            messages_by_kind={},
            sends_by_process={},
            rounds_used=0,
            outputs={
                0: 0.9664535356921388, 1: 0.4407325991753527, 2: 0.007491470058587191,
                3: 0.9109759624491242, 4: 0.939268997363764, 5: 0.5822275730589491,
                6: 0.6715634814879851, 7: 0.08393822683708396, 8: 0.7664809327917963,
                9: 0.23680977536311776, 10: 0.030814021726609964,
            },
            histories="174a620054be6824",
        ),
        ("async-byzantine", "fixed-0", "crash-staggered"): dict(
            messages_sent=0, messages_delivered=0, bits_sent=0,
            messages_by_kind={},
            sends_by_process={},
            rounds_used=0,
            outputs={
                0: 0.9664535356921388, 1: 0.4407325991753527, 2: 0.007491470058587191,
                3: 0.9109759624491242, 4: 0.939268997363764, 5: 0.5822275730589491,
                6: 0.6715634814879851, 7: 0.08393822683708396, 8: 0.7664809327917963,
            },
            histories="e6b2812e86b1327b",
        ),
        ("async-byzantine", "fixed-0", "byz-anti"): dict(
            messages_sent=0, messages_delivered=0, bits_sent=0,
            messages_by_kind={},
            sends_by_process={},
            rounds_used=0,
            outputs={
                0: 0.9664535356921388, 1: 0.4407325991753527, 2: 0.007491470058587191,
                3: 0.9109759624491242, 4: 0.939268997363764, 5: 0.5822275730589491,
                6: 0.6715634814879851, 7: 0.08393822683708396, 8: 0.7664809327917963,
            },
            histories="e6b2812e86b1327b",
        ),
        ("async-byzantine", "known-range", "none"): dict(
            messages_sent=1210, messages_delivered=990, bits_sent=90992,
            messages_by_kind={"VALUE": 1210},
            sends_by_process=dict.fromkeys(range(11), 110),
            rounds_used=10,
            outputs=dict.fromkeys(range(11), 0.49955122436028054),
            histories="6e854ca4d29ec4e6",
        ),
        ("async-byzantine", "known-range", "crash-staggered"): dict(
            messages_sent=1012, messages_delivered=819, bits_sent=76076,
            messages_by_kind={"VALUE": 1012},
            sends_by_process={**dict.fromkeys(range(9), 110), 9: 12, 10: 10},
            rounds_used=10,
            outputs=dict.fromkeys(range(9), 0.49955122436028054),
            histories="d1165d71e5b38a90",
        ),
        ("async-byzantine", "known-range", "byz-anti"): dict(
            messages_sent=1210, messages_delivered=810, bits_sent=90992,
            messages_by_kind={"VALUE": 1210},
            sends_by_process=dict.fromkeys(range(11), 110),
            rounds_used=10,
            outputs={
                **dict.fromkeys((0, 1, 2, 3, 5, 7), 0.5612573742819036), 4: 0.5611827192459871,
                6: 0.5611827192459871, 8: 0.5611827192459871,
            },
            histories="b6ddbaa08606bc70",
        ),
        ("async-byzantine", "spread-estimate", "none"): dict(
            messages_sent=1694, messages_delivered=1287, bits_sent=127292,
            messages_by_kind={"VALUE": 1573, "HALT": 121},
            sends_by_process=dict.fromkeys(range(11), 154),
            rounds_used=13,
            outputs=dict.fromkeys(range(11), 0.49955122436028054),
            histories="b76e4de589e019cc",
        ),
        ("async-byzantine", "spread-estimate", "crash-staggered"): dict(
            messages_sent=1408, messages_delivered=1062, bits_sent=105776,
            messages_by_kind={"VALUE": 1309, "HALT": 99},
            sends_by_process={**dict.fromkeys(range(9), 154), 9: 12, 10: 10},
            rounds_used=13,
            outputs=dict.fromkeys(range(9), 0.49955122436028054),
            histories="7c16e4bc8b93bcc4",
        ),
        ("async-byzantine", "spread-estimate", "byz-anti"): dict(
            messages_sent=1672, messages_delivered=1053, bits_sent=125708,
            messages_by_kind={"VALUE": 1573, "HALT": 99},
            sends_by_process={**dict.fromkeys(range(9), 154), 9: 143, 10: 143},
            rounds_used=13,
            outputs={
                **dict.fromkeys((1, 2, 3, 5, 6, 7), 0.5612293786434348), 0: 0.5612200467639453,
                4: 0.5612200467639453, 8: 0.5612200467639453,
            },
            histories="f73f482fa18529d2",
        ),
        ("async-crash", "default", "none"): dict(
            messages_sent=343, messages_delivered=245, bits_sent=25676,
            messages_by_kind={"VALUE": 343},
            sends_by_process=dict.fromkeys(range(7), 49),
            rounds_used=7,
            outputs=dict.fromkeys(range(7), 0.6260075351913781),
            histories="48e021a9279f63ff",
        ),
        ("async-crash", "default", "crash-staggered"): dict(
            messages_sent=259, messages_delivered=180, bits_sent=19376,
            messages_by_kind={"VALUE": 259},
            sends_by_process={**dict.fromkeys(range(5), 49), 5: 12, 6: 2},
            rounds_used=7,
            outputs=dict.fromkeys(range(5), 0.6261732286652711),
            histories="4fd120cdcd370835",
        ),
        ("async-crash", "fixed-0", "none"): dict(
            messages_sent=0, messages_delivered=0, bits_sent=0,
            messages_by_kind={},
            sends_by_process={},
            rounds_used=0,
            outputs={
                0: 0.9664535356921388, 1: 0.4407325991753527, 2: 0.007491470058587191,
                3: 0.9109759624491242, 4: 0.939268997363764, 5: 0.5822275730589491,
                6: 0.6715634814879851,
            },
            histories="cce3e07eec52cad7",
        ),
        ("async-crash", "fixed-0", "crash-staggered"): dict(
            messages_sent=0, messages_delivered=0, bits_sent=0,
            messages_by_kind={},
            sends_by_process={},
            rounds_used=0,
            outputs={
                0: 0.9664535356921388, 1: 0.4407325991753527, 2: 0.007491470058587191,
                3: 0.9109759624491242, 4: 0.939268997363764,
            },
            histories="e083c8da4ed16088",
        ),
        ("async-crash", "known-range", "none"): dict(
            messages_sent=343, messages_delivered=245, bits_sent=25676,
            messages_by_kind={"VALUE": 343},
            sends_by_process=dict.fromkeys(range(7), 49),
            rounds_used=7,
            outputs=dict.fromkeys(range(7), 0.6260075351913781),
            histories="48e021a9279f63ff",
        ),
        ("async-crash", "known-range", "crash-staggered"): dict(
            messages_sent=259, messages_delivered=180, bits_sent=19376,
            messages_by_kind={"VALUE": 259},
            sends_by_process={**dict.fromkeys(range(5), 49), 5: 12, 6: 2},
            rounds_used=7,
            outputs=dict.fromkeys(range(5), 0.6261732286652711),
            histories="4fd120cdcd370835",
        ),
        ("async-crash", "spread-estimate", "none"): dict(
            messages_sent=490, messages_delivered=315, bits_sent=36652,
            messages_by_kind={"VALUE": 441, "HALT": 49},
            sends_by_process=dict.fromkeys(range(7), 70),
            rounds_used=9,
            outputs=dict.fromkeys(range(7), 0.6260075351913781),
            histories="43f0070c055ec26b",
        ),
        ("async-crash", "spread-estimate", "crash-staggered"): dict(
            messages_sent=364, messages_delivered=230, bits_sent=27216,
            messages_by_kind={"VALUE": 329, "HALT": 35},
            sends_by_process={**dict.fromkeys(range(5), 70), 5: 12, 6: 2},
            rounds_used=9,
            outputs=dict.fromkeys(range(5), 0.6261732286652711),
            histories="8649cc2af9b34ec1",
        ),
        ("sync-byzantine", "default", "none"): dict(
            messages_sent=490, messages_delivered=490, bits_sent=36848,
            messages_by_kind={"VALUE": 490},
            sends_by_process=dict.fromkeys(range(7), 70),
            rounds_used=10,
            outputs=dict.fromkeys(range(7), 0.7466017677540366),
            histories="b7984fc4b26db829",
        ),
        ("sync-byzantine", "default", "crash-staggered"): dict(
            messages_sent=364, messages_delivered=357, bits_sent=27356,
            messages_by_kind={"VALUE": 364},
            sends_by_process={**dict.fromkeys(range(5), 70), 5: 12, 6: 2},
            rounds_used=10,
            outputs=dict.fromkeys(range(5), 0.7466017677540366),
            histories="6792683e6e82fe7c",
        ),
        ("sync-byzantine", "default", "byz-anti"): dict(
            messages_sent=490, messages_delivered=350, bits_sent=36848,
            messages_by_kind={"VALUE": 490},
            sends_by_process=dict.fromkeys(range(7), 70),
            rounds_used=10,
            outputs={
                **dict.fromkeys((0, 2, 4), 0.4592337162538557), 1: 0.46017020264607594,
                3: 0.46017020264607594,
            },
            histories="49377a4dfec88bdf",
        ),
        ("sync-byzantine", "fixed-0", "none"): dict(
            messages_sent=0, messages_delivered=0, bits_sent=0,
            messages_by_kind={},
            sends_by_process={},
            rounds_used=0,
            outputs={
                0: 0.9664535356921388, 1: 0.4407325991753527, 2: 0.007491470058587191,
                3: 0.9109759624491242, 4: 0.939268997363764, 5: 0.5822275730589491,
                6: 0.6715634814879851,
            },
            histories="cce3e07eec52cad7",
        ),
        ("sync-byzantine", "fixed-0", "crash-staggered"): dict(
            messages_sent=0, messages_delivered=0, bits_sent=0,
            messages_by_kind={},
            sends_by_process={},
            rounds_used=0,
            outputs={
                0: 0.9664535356921388, 1: 0.4407325991753527, 2: 0.007491470058587191,
                3: 0.9109759624491242, 4: 0.939268997363764,
            },
            histories="e083c8da4ed16088",
        ),
        ("sync-byzantine", "fixed-0", "byz-anti"): dict(
            messages_sent=0, messages_delivered=0, bits_sent=0,
            messages_by_kind={},
            sends_by_process={},
            rounds_used=0,
            outputs={
                0: 0.9664535356921388, 1: 0.4407325991753527, 2: 0.007491470058587191,
                3: 0.9109759624491242, 4: 0.939268997363764,
            },
            histories="e083c8da4ed16088",
        ),
        ("sync-byzantine", "known-range", "none"): dict(
            messages_sent=490, messages_delivered=490, bits_sent=36848,
            messages_by_kind={"VALUE": 490},
            sends_by_process=dict.fromkeys(range(7), 70),
            rounds_used=10,
            outputs=dict.fromkeys(range(7), 0.7466017677540366),
            histories="b7984fc4b26db829",
        ),
        ("sync-byzantine", "known-range", "crash-staggered"): dict(
            messages_sent=364, messages_delivered=357, bits_sent=27356,
            messages_by_kind={"VALUE": 364},
            sends_by_process={**dict.fromkeys(range(5), 70), 5: 12, 6: 2},
            rounds_used=10,
            outputs=dict.fromkeys(range(5), 0.7466017677540366),
            histories="6792683e6e82fe7c",
        ),
        ("sync-byzantine", "known-range", "byz-anti"): dict(
            messages_sent=490, messages_delivered=350, bits_sent=36848,
            messages_by_kind={"VALUE": 490},
            sends_by_process=dict.fromkeys(range(7), 70),
            rounds_used=10,
            outputs={
                **dict.fromkeys((0, 2, 4), 0.4592337162538557), 1: 0.46017020264607594,
                3: 0.46017020264607594,
            },
            histories="49377a4dfec88bdf",
        ),
        ("sync-byzantine", "spread-estimate", "none"): dict(
            messages_sent=686, messages_delivered=637, bits_sent=51548,
            messages_by_kind={"VALUE": 637, "HALT": 49},
            sends_by_process=dict.fromkeys(range(7), 98),
            rounds_used=13,
            outputs=dict.fromkeys(range(7), 0.7466017677540366),
            histories="0b206c786dde6447",
        ),
        ("sync-byzantine", "spread-estimate", "crash-staggered"): dict(
            messages_sent=504, messages_delivered=462, bits_sent=37856,
            messages_by_kind={"VALUE": 469, "HALT": 35},
            sends_by_process={**dict.fromkeys(range(5), 98), 5: 12, 6: 2},
            rounds_used=13,
            outputs=dict.fromkeys(range(5), 0.7466017677540366),
            histories="c7acc949e3f56e14",
        ),
        ("sync-byzantine", "spread-estimate", "byz-anti"): dict(
            messages_sent=672, messages_delivered=455, bits_sent=50540,
            messages_by_kind={"VALUE": 637, "HALT": 35},
            sends_by_process={**dict.fromkeys(range(5), 98), 5: 91, 6: 91},
            rounds_used=13,
            outputs={
                **dict.fromkeys((0, 2, 4), 0.4592337162538557), 1: 0.4593507770528832,
                3: 0.4593507770528832,
            },
            histories="6489d01464070a84",
        ),
        ("sync-crash", "default", "none"): dict(
            messages_sent=245, messages_delivered=245, bits_sent=18277,
            messages_by_kind={"VALUE": 245},
            sends_by_process=dict.fromkeys(range(7), 35),
            rounds_used=5,
            outputs=dict.fromkeys(range(7), 0.6167871353146999),
            histories="973bcab3da768252",
        ),
        ("sync-crash", "default", "crash-staggered"): dict(
            messages_sent=189, messages_delivered=182, bits_sent=14091,
            messages_by_kind={"VALUE": 189},
            sends_by_process={**dict.fromkeys(range(5), 35), 5: 12, 6: 2},
            rounds_used=5,
            outputs=dict.fromkeys(range(5), 0.6097120141291401),
            histories="4d296dfe20dbd95b",
        ),
        ("sync-crash", "fixed-0", "none"): dict(
            messages_sent=0, messages_delivered=0, bits_sent=0,
            messages_by_kind={},
            sends_by_process={},
            rounds_used=0,
            outputs={
                0: 0.9664535356921388, 1: 0.4407325991753527, 2: 0.007491470058587191,
                3: 0.9109759624491242, 4: 0.939268997363764, 5: 0.5822275730589491,
                6: 0.6715634814879851,
            },
            histories="cce3e07eec52cad7",
        ),
        ("sync-crash", "fixed-0", "crash-staggered"): dict(
            messages_sent=0, messages_delivered=0, bits_sent=0,
            messages_by_kind={},
            sends_by_process={},
            rounds_used=0,
            outputs={
                0: 0.9664535356921388, 1: 0.4407325991753527, 2: 0.007491470058587191,
                3: 0.9109759624491242, 4: 0.939268997363764,
            },
            histories="e083c8da4ed16088",
        ),
        ("sync-crash", "known-range", "none"): dict(
            messages_sent=245, messages_delivered=245, bits_sent=18277,
            messages_by_kind={"VALUE": 245},
            sends_by_process=dict.fromkeys(range(7), 35),
            rounds_used=5,
            outputs=dict.fromkeys(range(7), 0.6167871353146999),
            histories="973bcab3da768252",
        ),
        ("sync-crash", "known-range", "crash-staggered"): dict(
            messages_sent=189, messages_delivered=182, bits_sent=14091,
            messages_by_kind={"VALUE": 189},
            sends_by_process={**dict.fromkeys(range(5), 35), 5: 12, 6: 2},
            rounds_used=5,
            outputs=dict.fromkeys(range(5), 0.6097120141291401),
            histories="4d296dfe20dbd95b",
        ),
        ("sync-crash", "spread-estimate", "none"): dict(
            messages_sent=441, messages_delivered=392, bits_sent=32928,
            messages_by_kind={"VALUE": 392, "HALT": 49},
            sends_by_process=dict.fromkeys(range(7), 63),
            rounds_used=8,
            outputs=dict.fromkeys(range(7), 0.6167871353146999),
            histories="7c7a49b89aaad6c9",
        ),
        ("sync-crash", "spread-estimate", "crash-staggered"): dict(
            messages_sent=329, messages_delivered=287, bits_sent=24556,
            messages_by_kind={"VALUE": 294, "HALT": 35},
            sends_by_process={**dict.fromkeys(range(5), 63), 5: 12, 6: 2},
            rounds_used=8,
            outputs=dict.fromkeys(range(5), 0.6097120141291401),
            histories="c11c256776944be6",
        ),
        ("witness", "default", "none"): dict(
            messages_sent=7840, messages_delivered=7840, bits_sent=627613,
            messages_by_kind={
                "RBC_INIT": 490, "RBC_ECHO": 3430, "RBC_READY": 3430, "REPORT": 490,
            },
            sends_by_process=dict.fromkeys(range(7), 1120),
            rounds_used=10,
            outputs=dict.fromkeys(range(7), 0.7466017677540366),
            histories="b7984fc4b26db829",
        ),
        ("witness", "default", "byz-anti"): dict(
            messages_sent=7840, messages_delivered=7840, bits_sent=627613,
            messages_by_kind={
                "RBC_INIT": 490, "RBC_ECHO": 3430, "RBC_READY": 3430, "REPORT": 490,
            },
            sends_by_process=dict.fromkeys(range(7), 1120),
            rounds_used=10,
            outputs=dict.fromkeys(range(5), 0.6900007982695584),
            histories="85d11e4751dbf73f",
        ),
        ("witness", "default", "witness-partition"): dict(
            messages_sent=7840, messages_delivered=7840, bits_sent=627613,
            messages_by_kind={
                "RBC_INIT": 490, "RBC_ECHO": 3430, "RBC_READY": 3430, "REPORT": 490,
            },
            sends_by_process=dict.fromkeys(range(7), 1120),
            rounds_used=10,
            outputs=dict.fromkeys(range(7), 0.7466017677540366),
            histories="b7984fc4b26db829",
        ),
    }

    @pytest.mark.parametrize("key", sorted(RECORDED), ids=":".join)
    def test_results_match_recorded_values(self, key):
        recorded = dict(self.RECORDED[key])
        result = self.execute(*key)
        assert histories_of(result) == recorded.pop("histories")
        assert schedule_of(result) == dict(events_executed=0, **recorded)


@pytest.mark.skipif(not numpy_available(), reason="the vectorised engine requires numpy")
class TestNdbatchEngineDeterminism:
    #: Recorded literals for :meth:`execute` per ``(protocol, dtype)``: the
    #: round, message and bit counts and every honest output as
    #: ``float.hex``, in process order.  Two runs of the same code agree
    #: even after a refactor that moves the block arithmetic; these
    #: literals do not.
    RECORDED = {
        ("async-byzantine", "float64"): dict(
            rounds=3, messages=363, bits=26983,
            outputs=(
                "0x1.3426fd8eb8263p-1", "0x1.3426fd8eb8263p-1", "0x1.3426fd8eb8263p-1",
                "0x1.3426fd8eb8263p-1", "0x1.29492f0875802p-1", "0x1.3426fd8eb8263p-1",
                "0x1.3426fd8eb8263p-1", "0x1.3426fd8eb8263p-1", "0x1.3426fd8eb8263p-1",
            ),
        ),
        ("async-byzantine", "float32"): dict(
            rounds=3, messages=363, bits=26983,
            outputs=(
                "0x1.3426fe0000000p-1", "0x1.3426fe0000000p-1", "0x1.3426fe0000000p-1",
                "0x1.3426fe0000000p-1", "0x1.29492e0000000p-1", "0x1.3426fe0000000p-1",
                "0x1.3426fe0000000p-1", "0x1.3426fe0000000p-1", "0x1.3426fe0000000p-1",
            ),
        ),
        ("async-crash", "float64"): dict(
            rounds=3, messages=119, bits=8841,
            outputs=(
                "0x1.378550128929dp-1", "0x1.378550128929dp-1", "0x1.378550128929dp-1",
                "0x1.378550128929dp-1", "0x1.378550128929dp-1",
            ),
        ),
        ("async-crash", "float32"): dict(
            rounds=3, messages=119, bits=8841,
            outputs=(
                "0x1.3785500000000p-1", "0x1.3785500000000p-1", "0x1.3785500000000p-1",
                "0x1.3785500000000p-1", "0x1.3785500000000p-1",
            ),
        ),
        ("sync-byzantine", "float64"): dict(
            rounds=3, messages=147, bits=10927,
            outputs=(
                "0x1.6c6950c3103dap-1", "0x1.6c6950c3103dap-1", "0x1.6c6950c3103dap-1",
                "0x1.6c6950c3103dap-1", "0x1.494ec639301edp-1",
            ),
        ),
        ("sync-byzantine", "float32"): dict(
            rounds=3, messages=147, bits=10927,
            outputs=(
                "0x1.6c69500000000p-1", "0x1.6c69500000000p-1", "0x1.6c69500000000p-1",
                "0x1.6c69500000000p-1", "0x1.494ec60000000p-1",
            ),
        ),
        ("sync-crash", "float64"): dict(
            rounds=3, messages=119, bits=8841,
            outputs=(
                "0x1.3ced3e7bdcd77p-1", "0x1.3ced3e7bdcd77p-1", "0x1.3ced3e7bdcd77p-1",
                "0x1.3ced3e7bdcd77p-1", "0x1.3d27302eba254p-1",
            ),
        ),
        ("sync-crash", "float32"): dict(
            rounds=3, messages=119, bits=8841,
            outputs=(
                "0x1.3ced3e0000000p-1", "0x1.3ced3e0000000p-1", "0x1.3ced3e0000000p-1",
                "0x1.3ced3e0000000p-1", "0x1.3d27300000000p-1",
            ),
        ),
    }

    #: Recorded literals for :meth:`execute_vector_block` per dtype: one d=3
    #: Byzantine block (anti-convergence and random tensor strategies) under
    #: delay-rank quorums, two executions, outputs as ``float.hex`` triples.
    VECTOR_RECORDED = {
        "float64": (
            dict(
                rounds=2, messages=726, bits=53724,
                outputs=(
                    ("0x1.78c844d101f4ep+5", "0x1.10e8f0c8ae3d6p+5", "0x1.a6a799089468dp+5"),
                    ("0x1.7b8f8e4f28cffp+5", "0x1.060ae782e26efp+5", "0x1.a6a799089468dp+5"),
                    ("0x1.373fafd19e314p+5", "0x1.060ae782e26efp+5", "0x1.a6a799089468dp+5"),
                    ("0x1.7b8f8e4f28cffp+5", "0x1.10e8f0c8ae3d6p+5", "0x1.a6a799089468dp+5"),
                    ("0x1.373fafd19e314p+5", "0x1.060ae782e26efp+5", "0x1.a6a799089468dp+5"),
                    ("0x1.7b8f8e4f28cffp+5", "0x1.060ae782e26efp+5", "0x1.a6a799089468dp+5"),
                    ("0x1.7b8f8e4f28cffp+5", "0x1.10e8f0c8ae3d6p+5", "0x1.a6a799089468dp+5"),
                    ("0x1.821dac565550cp+5", "0x1.1369919a69e90p+5", "0x1.a6a799089468dp+5"),
                    ("0x1.373fafd19e314p+5", "0x1.060ae782e26efp+5", "0x1.8e490bfc4649ap+5"),
                    ("0x1.821dac565550cp+5", "0x1.1369919a69e90p+5", "0x1.a6a799089468dp+5"),
                ),
            ),
            dict(
                rounds=2, messages=726, bits=53724,
                outputs=(
                    ("0x1.371bb7c43ee66p+5", "0x1.9a8393f9db570p+5", "0x1.05db0364d4992p+6"),
                    ("0x1.815d96e9bdbd5p+5", "0x1.9a8393f9db570p+5", "0x1.20440d8458dbcp+6"),
                    ("0x1.9206b8325d9a0p+5", "0x1.9a8393f9db570p+5", "0x1.20440d8458dbcp+6"),
                    ("0x1.815d96e9bdbd5p+5", "0x1.9a8393f9db570p+5", "0x1.20440d8458dbcp+6"),
                    ("0x1.371bb7c43ee66p+5", "0x1.9a8393f9db570p+5", "0x1.20440d8458dbcp+6"),
                    ("0x1.815d96e9bdbd5p+5", "0x1.6367ab8152a68p+5", "0x1.20440d8458dbcp+6"),
                    ("0x1.371bb7c43ee66p+5", "0x1.6367ab8152a68p+5", "0x1.05db0364d4992p+6"),
                    ("0x1.9206b8325d9a0p+5", "0x1.9a8393f9db570p+5", "0x1.20440d8458dbcp+6"),
                    ("0x1.9206b8325d9a0p+5", "0x1.9a8393f9db570p+5", "0x1.20440d8458dbcp+6"),
                ),
            ),
        ),
        "float32": (
            dict(
                rounds=2, messages=726, bits=53724,
                outputs=(
                    ("0x1.78c8440000000p+5", "0x1.10e8f00000000p+5", "0x1.a6a7980000000p+5"),
                    ("0x1.7b8f8e0000000p+5", "0x1.060ae80000000p+5", "0x1.a6a7980000000p+5"),
                    ("0x1.373fb00000000p+5", "0x1.060ae80000000p+5", "0x1.a6a7980000000p+5"),
                    ("0x1.7b8f8e0000000p+5", "0x1.10e8f00000000p+5", "0x1.a6a7980000000p+5"),
                    ("0x1.373fb00000000p+5", "0x1.060ae80000000p+5", "0x1.a6a7980000000p+5"),
                    ("0x1.7b8f8e0000000p+5", "0x1.060ae80000000p+5", "0x1.a6a7980000000p+5"),
                    ("0x1.7b8f8e0000000p+5", "0x1.10e8f00000000p+5", "0x1.a6a7980000000p+5"),
                    ("0x1.821dac0000000p+5", "0x1.1369920000000p+5", "0x1.a6a7980000000p+5"),
                    ("0x1.373fb00000000p+5", "0x1.060ae80000000p+5", "0x1.8e490c0000000p+5"),
                    ("0x1.821dac0000000p+5", "0x1.1369920000000p+5", "0x1.a6a7980000000p+5"),
                ),
            ),
            dict(
                rounds=2, messages=726, bits=53724,
                outputs=(
                    ("0x1.371bb80000000p+5", "0x1.9a83940000000p+5", "0x1.05db040000000p+6"),
                    ("0x1.815d980000000p+5", "0x1.9a83940000000p+5", "0x1.20440e0000000p+6"),
                    ("0x1.9206b80000000p+5", "0x1.9a83940000000p+5", "0x1.20440e0000000p+6"),
                    ("0x1.815d980000000p+5", "0x1.9a83940000000p+5", "0x1.20440e0000000p+6"),
                    ("0x1.371bb80000000p+5", "0x1.9a83940000000p+5", "0x1.20440e0000000p+6"),
                    ("0x1.815d980000000p+5", "0x1.6367ac0000000p+5", "0x1.20440e0000000p+6"),
                    ("0x1.371bb80000000p+5", "0x1.6367ac0000000p+5", "0x1.05db040000000p+6"),
                    ("0x1.9206b80000000p+5", "0x1.9a83940000000p+5", "0x1.20440e0000000p+6"),
                    ("0x1.9206b80000000p+5", "0x1.9a83940000000p+5", "0x1.20440e0000000p+6"),
                ),
            ),
        ),
    }

    @staticmethod
    def execute(protocol, dtype=None):
        n, t = (11, 2) if protocol == "async-byzantine" else (7, 2)
        if protocol.endswith("crash"):
            # Two mid-multicast crash prefixes.
            model = RoundFaultModel(crash_schedule={5: (2, 3), 6: (1, 4)})
        else:
            model = RoundFaultModel(
                strategies={
                    n - 1: AntiConvergenceStrategy(stretch=0.25),
                    n - 2: RandomValueStrategy(-2.0, 3.0, seed=SEED),
                }
            )
        return run_ndbatch_protocol(
            protocol, uniform_inputs(n, seed=SEED), t=t, epsilon=1e-3, seed=SEED,
            round_policy=FixedRounds(3), fault_model=model, dtype=dtype,
        )

    @staticmethod
    def execute_vector_block(dtype):
        from repro.sim.ndbatch import run_vector_block

        n, t = 11, 2
        return run_vector_block(
            "async-byzantine",
            [rendezvous_positions(n, dimension=3, seed=SEED + e) for e in range(2)],
            t=t,
            epsilon=1e-3,
            round_policy=FixedRounds(2),
            fault_models=[
                RoundFaultModel(strategies={10: AntiConvergenceStrategy(stretch=0.5)}),
                RoundFaultModel(
                    strategies={
                        9: RandomValueStrategy(-1.0, 2.0, seed=7),
                        10: AntiConvergenceStrategy(parity=1),
                    }
                ),
            ],
            omission_policies=[
                DelayRankOmission(SeededDelay(0.5, 1.5, seed=SEED)),
                DelayRankOmission(StaggeredExclusionDelay(n, exclude=1)),
            ],
            seeds=[SEED, SEED + 1],
            dtype=dtype,
        )

    @pytest.mark.parametrize("protocol", NDBATCH_PROTOCOLS)
    def test_repeated_runs_are_identical(self, protocol):
        assert metrics_of(self.execute(protocol)) == metrics_of(self.execute(protocol))

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("protocol", NDBATCH_PROTOCOLS)
    def test_block_arithmetic_matches_recorded_values(self, protocol, dtype):
        result = self.execute(protocol, dtype)
        assert dict(
            rounds=result.rounds_used,
            messages=result.stats.messages_sent,
            bits=result.stats.bits_sent,
            outputs=tuple(float.hex(result.outputs[pid]) for pid in sorted(result.outputs)),
        ) == self.RECORDED[protocol, dtype]

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_vector_block_matches_recorded_values(self, dtype):
        results = self.execute_vector_block(dtype)
        assert tuple(
            dict(
                rounds=result.rounds,
                messages=result.stats.messages_sent,
                bits=result.stats.bits_sent,
                outputs=tuple(
                    tuple(float.hex(x) for x in result.outputs[pid])
                    for pid in sorted(result.outputs)
                ),
            )
            for result in results
        ) == self.VECTOR_RECORDED[dtype]


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
