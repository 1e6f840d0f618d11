"""Unit tests for the simulated asynchronous network."""

from __future__ import annotations

import math
import sys

import pytest

from repro.core.termination import FixedRounds
from repro.net.adversary import (
    ByzantineFaultPlan,
    ComposedFaultPlan,
    CrashFaultPlan,
    CrashPoint,
    EquivocatingStrategy,
    RoundEchoByzantine,
)
from repro.net.interfaces import Process, ProcessContext
from repro.net.message import Message, message_bits
from repro.net.scheduler import SchedulerError
from repro.net.network import (
    ConstantDelay,
    ExponentialRandomDelay,
    SimulatedNetwork,
    UniformRandomDelay,
)
from repro.sim.runner import PROTOCOL_FACTORIES


class EchoProcess(Process):
    """Test process: multicasts a greeting, records everything it receives."""

    def __init__(self, payload: float = 0.0) -> None:
        self.payload = payload
        self.received = []

    def on_start(self, ctx: ProcessContext) -> None:
        ctx.multicast(Message(kind="HELLO", value=self.payload))

    def on_message(self, ctx: ProcessContext, sender: int, message: Message) -> None:
        self.received.append((sender, message.value))
        if len(self.received) >= ctx.n and not self.has_output:
            ctx.output(sum(v for _, v in self.received))


class SilentReceiver(Process):
    def __init__(self) -> None:
        self.received = []

    def on_start(self, ctx: ProcessContext) -> None:
        return None

    def on_message(self, ctx: ProcessContext, sender: int, message: Message) -> None:
        self.received.append((sender, message))


class TestBasicDelivery:
    def test_multicast_reaches_everyone_including_sender(self):
        processes = [EchoProcess(float(i)) for i in range(4)]
        network = SimulatedNetwork(processes)
        network.start()
        network.run()
        for process in processes:
            senders = sorted(s for s, _ in process.received)
            assert senders == [0, 1, 2, 3]

    def test_outputs_collected(self):
        processes = [EchoProcess(1.0) for _ in range(3)]
        network = SimulatedNetwork(processes)
        network.start()
        network.run()
        assert network.all_honest_output()
        assert network.honest_outputs() == [3.0, 3.0, 3.0]

    def test_stats_count_messages_and_bits(self):
        processes = [EchoProcess() for _ in range(3)]
        network = SimulatedNetwork(processes)
        network.start()
        network.run()
        assert network.stats.messages_sent == 9
        assert network.stats.messages_delivered == 9
        assert network.stats.bits_sent > 0
        assert network.stats.messages_by_kind == {"HELLO": 9}
        assert network.stats.sends_by_process == {0: 3, 1: 3, 2: 3}

    def test_trace_recorded_when_requested(self):
        processes = [EchoProcess() for _ in range(2)]
        network = SimulatedNetwork(processes, keep_trace=True)
        network.start()
        network.run()
        assert len(network.trace) == 4
        assert all(record.message.kind == "HELLO" for record in network.trace)

    def test_delivery_observer_called(self):
        seen = []
        processes = [EchoProcess() for _ in range(2)]
        network = SimulatedNetwork(processes)
        network.add_delivery_observer(lambda record: seen.append(record.sender))
        network.start()
        network.run()
        assert len(seen) == 4

    def test_invalid_recipient_rejected(self):
        processes = [SilentReceiver(), SilentReceiver()]
        network = SimulatedNetwork(processes)
        network.start()
        network.scheduler.run()
        with pytest.raises(ValueError):
            network.context_for(0).send(5, Message("X"))

    def test_start_jitter_staggers_starts_deterministically(self):
        def run(seed):
            processes = [EchoProcess() for _ in range(3)]
            network = SimulatedNetwork(processes, keep_trace=True)
            network.start(start_jitter=5.0, seed=seed)
            network.run()
            return [record.time for record in network.trace]

        assert run(1) == run(1)
        assert run(1) != run(2)


class TestDelayModels:
    def test_constant_delay_value(self):
        model = ConstantDelay(2.5)
        assert model.delay(0, 1, Message("X"), 0.0) == 2.5

    def test_constant_delay_rejects_non_positive(self):
        with pytest.raises(ValueError):
            ConstantDelay(0.0)

    def test_uniform_delay_within_bounds_and_seeded(self):
        model = UniformRandomDelay(0.5, 1.5, seed=7)
        values = [model.delay(0, 1, Message("X"), 0.0) for _ in range(50)]
        assert all(0.5 <= v <= 1.5 for v in values)
        model.reset()
        assert [model.delay(0, 1, Message("X"), 0.0) for _ in range(50)] == values

    def test_uniform_delay_validation(self):
        with pytest.raises(ValueError):
            UniformRandomDelay(0.0, 1.0)
        with pytest.raises(ValueError):
            UniformRandomDelay(2.0, 1.0)

    def test_exponential_delay_has_floor(self):
        model = ExponentialRandomDelay(mean=1.0, floor=0.2, seed=3)
        values = [model.delay(0, 1, Message("X"), 0.0) for _ in range(100)]
        assert all(v >= 0.2 for v in values)

    def test_exponential_delay_validation(self):
        with pytest.raises(ValueError):
            ExponentialRandomDelay(mean=0.0)

    def test_network_rejects_non_positive_delay_models(self):
        class BrokenDelay(ConstantDelay):
            def __init__(self):
                pass

            def delay(self, sender, recipient, message, now):
                return 0.0

        processes = [EchoProcess() for _ in range(2)]
        network = SimulatedNetwork(processes, delay_model=BrokenDelay())
        network.start()
        with pytest.raises(ValueError):
            network.run()

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_network_rejects_non_finite_delays(self, bad):
        # One sender's messages get a non-finite delay: NaN would break the
        # event order, and an infinite delay would never deliver.
        class OneBadSender(ConstantDelay):
            def delay(self, sender, recipient, message, now):
                return bad if sender == 1 else 1.0

        processes = [EchoProcess() for _ in range(3)]
        network = SimulatedNetwork(processes, delay_model=OneBadSender(), keep_trace=True)
        network.start()
        with pytest.raises(ValueError):
            network.run()
        assert all(math.isfinite(record.time) for record in network.trace)

    def test_network_rejects_a_delivery_time_that_overflows(self):
        # Every delay is finite, but a late start plus the delay overflows
        # to inf: the scheduler refuses the time instead of queueing a
        # delivery that would never run.
        class HugeDelay(ConstantDelay):
            def delay(self, sender, recipient, message, now):
                return sys.float_info.max

        network = SimulatedNetwork([EchoProcess() for _ in range(2)], delay_model=HugeDelay())
        network.start(start_jitter=1e308)
        with pytest.raises(SchedulerError):
            network.run()


class TestCrashFaults:
    def test_initially_dead_process_sends_nothing(self):
        plan = CrashFaultPlan({0: CrashPoint(after_sends=0)})
        processes = [EchoProcess(9.0), SilentReceiver(), SilentReceiver()]
        network = SimulatedNetwork(processes, fault_plan=plan)
        network.start()
        network.run(stop_when_outputs=False)
        assert network.is_crashed(0)
        assert all(s != 0 for s, _ in processes[1].received)

    def test_mid_multicast_crash_delivers_a_prefix(self):
        # Process 0 crashes after sending to recipients 0 and 1 only.
        plan = CrashFaultPlan({0: CrashPoint(after_sends=2)})
        processes = [EchoProcess(5.0), SilentReceiver(), SilentReceiver(), SilentReceiver()]
        network = SimulatedNetwork(processes, fault_plan=plan)
        network.start()
        network.run(stop_when_outputs=False)
        assert any(s == 0 for s, _ in processes[1].received)
        assert all(s != 0 for s, _ in processes[2].received)
        assert all(s != 0 for s, _ in processes[3].received)
        # Only the two sends that happened are counted, each at full size.
        stats = network.stats
        assert stats.messages_sent == 2
        assert stats.bits_sent == 2 * message_bits(Message(kind="HELLO", value=5.0))
        assert stats.messages_by_kind == {"HELLO": 2}
        assert stats.sends_by_process == {0: 2}

    def test_crashed_process_receives_nothing(self):
        plan = CrashFaultPlan({2: CrashPoint(after_sends=0)})
        processes = [EchoProcess(1.0), EchoProcess(2.0), EchoProcess(3.0)]
        network = SimulatedNetwork(processes, fault_plan=plan)
        network.start()
        network.run(stop_when_outputs=False)
        assert processes[2].received == []

    def test_faulty_and_honest_partitions(self):
        plan = CrashFaultPlan({1: CrashPoint(after_sends=0)})
        processes = [EchoProcess() for _ in range(4)]
        network = SimulatedNetwork(processes, fault_plan=plan)
        assert network.faulty == (1,)
        assert network.honest == (0, 2, 3)
        assert network.is_faulty(1)
        assert not network.is_faulty(0)

    def test_all_honest_output_ignores_faulty(self):
        plan = CrashFaultPlan({0: CrashPoint(after_sends=0)})
        processes = [EchoProcess(1.0) for _ in range(4)]
        network = SimulatedNetwork(processes, fault_plan=plan)
        network.start()
        network.run(stop_when_outputs=False)
        # The three honest processes each received only 3 greetings, so they
        # never reached their output condition of n=4 messages.
        assert not network.all_honest_output()

    @pytest.mark.parametrize(
        "protocol, n, t, fault_plan, round_policy",
        [
            ("async-crash", 7, 3, CrashFaultPlan({6: CrashPoint(9), 5: CrashPoint(0)}), None),
            (
                "async-byzantine",
                6,
                1,
                ByzantineFaultPlan({2: RoundEchoByzantine(EquivocatingStrategy(-5.0, 5.0))}),
                None,
            ),
            (
                "witness",
                7,
                2,
                ComposedFaultPlan(
                    [
                        CrashFaultPlan({6: CrashPoint(10)}),
                        ByzantineFaultPlan(
                            {
                                0: RoundEchoByzantine(
                                    EquivocatingStrategy(-1.0, 2.0), value_kinds=("RBC_INIT",)
                                )
                            }
                        ),
                    ]
                ),
                None,
            ),
            ("async-crash", 5, 2, CrashFaultPlan({4: CrashPoint(2)}), FixedRounds(0)),
            ("witness", 4, 1, None, FixedRounds(0)),
        ],
    )
    def test_all_honest_output_matches_a_scan_after_every_event(
        self, protocol, n, t, fault_plan, round_policy
    ):
        inputs = [i / (n - 1) for i in range(n)]
        processes = PROTOCOL_FACTORIES[protocol](inputs, t, 1e-2, round_policy=round_policy)
        network = SimulatedNetwork(
            processes, delay_model=UniformRandomDelay(seed=n), fault_plan=fault_plan
        )

        def scanned():
            return all(network.processes[pid].has_output for pid in network.honest)

        assert network.all_honest_output() == scanned()
        network.start(start_jitter=1.0, seed=t)
        steps = 0
        while network.scheduler.step():
            steps += 1
            assert network.all_honest_output() == scanned(), f"after event {steps}"
        assert network.all_honest_output()

    def test_all_honest_output_counts_each_process_once(self):
        # An output recorded before the network exists, and repeated
        # outputs, must not move the count of undecided honest processes.
        class OutputOnEveryMessage(EchoProcess):
            def on_message(self, ctx, sender, message):
                self.received.append((sender, message.value))
                ctx.output(len(self.received))

        processes = [OutputOnEveryMessage() for _ in range(3)]
        processes[0].record_output(0)
        network = SimulatedNetwork(processes)
        assert not network.all_honest_output()
        network.start()
        while network.scheduler.step():
            assert network.all_honest_output() == all(p.has_output for p in processes)
        assert network.all_honest_output()


class TestHalting:
    def test_halted_process_stops_receiving(self):
        class HaltAfterFirst(Process):
            def __init__(self):
                self.received = 0

            def on_start(self, ctx):
                ctx.multicast(Message("PING"))

            def on_message(self, ctx, sender, message):
                self.received += 1
                ctx.halt()

        processes = [HaltAfterFirst() for _ in range(4)]
        network = SimulatedNetwork(processes)
        network.start()
        network.run(stop_when_outputs=False)
        assert all(p.received == 1 for p in processes)
