"""Unit tests for Bracha reliable broadcast."""

from __future__ import annotations

from typing import Dict, List

import pytest

from repro.net.interfaces import Process, ProcessContext
from repro.net.message import Message
from repro.net.network import SimulatedNetwork, UniformRandomDelay
from repro.net.rbc import BrachaInstance, RbcMultiplexer


class RbcHost(Process):
    """Minimal host process that broadcasts one value and records deliveries."""

    def __init__(self, n: int, t: int, value: float = None) -> None:
        self.n = n
        self.t = t
        self.value = value
        self.delivered: Dict[tuple, float] = {}
        self.rbc = RbcMultiplexer(n, t)

    def on_start(self, ctx: ProcessContext) -> None:
        if self.value is not None:
            self.rbc.broadcast(ctx, "demo", self.value)

    def on_message(self, ctx: ProcessContext, sender: int, message: Message) -> None:
        if self.rbc.handles(message):
            delivery = self.rbc.handle(ctx, sender, message)
            if delivery is not None:
                context_tag, originator, value = delivery
                self.delivered[(context_tag, originator)] = value


class EquivocatingSender(Process):
    """Byzantine sender: sends INIT with different values to different halves."""

    def __init__(self, n: int) -> None:
        self.n = n

    def on_start(self, ctx: ProcessContext) -> None:
        for recipient in range(self.n):
            value = 0.0 if recipient < self.n // 2 else 1.0
            ctx.send(recipient, Message(kind="RBC_INIT", value=value, tag=("demo", ctx.process_id)))

    def on_message(self, ctx: ProcessContext, sender: int, message: Message) -> None:
        return None


def run_network(processes, **kwargs):
    network = SimulatedNetwork(processes, **kwargs)
    network.start()
    network.run(stop_when_outputs=False)
    return network


class TestHappyPath:
    def test_all_honest_deliver_the_sent_value(self):
        n, t = 4, 1
        processes = [RbcHost(n, t, value=3.5 if pid == 0 else None) for pid in range(n)]
        for pid, p in enumerate(processes):
            p.value = 3.5 if pid == 0 else None
        run_network(processes)
        for process in processes:
            assert process.delivered == {("demo", 0): 3.5}

    def test_concurrent_broadcasts_from_every_process(self):
        n, t = 7, 2
        processes = [RbcHost(n, t, value=float(pid)) for pid in range(n)]
        run_network(processes, delay_model=UniformRandomDelay(0.2, 2.0, seed=5))
        for process in processes:
            assert len(process.delivered) == n
            for originator in range(n):
                assert process.delivered[("demo", originator)] == float(originator)

    def test_message_complexity_is_quadratic(self):
        n, t = 7, 2
        processes = [RbcHost(n, t, value=1.0 if pid == 0 else None) for pid in range(n)]
        network = run_network(processes)
        # One INIT multicast + at most one ECHO and one READY multicast per
        # process: <= (2n + 1) * n messages.
        assert network.stats.messages_sent <= (2 * n + 1) * n


class TestByzantineSenders:
    def test_consistency_under_equivocation(self):
        n, t = 4, 1
        processes = [RbcHost(n, t) for _ in range(n)]
        processes[3] = EquivocatingSender(n)
        network = run_network(processes)
        delivered_values = set()
        for pid in range(3):
            for value in processes[pid].delivered.values():
                delivered_values.add(value)
        # Consistency: the honest processes never deliver two different values
        # for the equivocating sender's single broadcast instance.
        assert len(delivered_values) <= 1

    def test_silent_sender_delivers_nothing(self):
        n, t = 4, 1
        processes = [RbcHost(n, t) for _ in range(n)]
        run_network(processes)
        assert all(p.delivered == {} for p in processes)

    def test_forged_init_from_non_originator_ignored(self):
        n, t = 4, 1
        host = RbcHost(n, t)
        network = SimulatedNetwork([host] + [RbcHost(n, t) for _ in range(n - 1)])
        network.start()
        network.scheduler.run()
        ctx = network.context_for(0)
        # Sender 2 claims to deliver an INIT for originator 1's instance.
        host.on_message(ctx, 2, Message(kind="RBC_INIT", value=9.0, tag=("demo", 1)))
        assert host.delivered == {}


class TestInstanceStateMachine:
    def _ctx(self, network, pid=0):
        return network.context_for(pid)

    def test_echo_quorum_triggers_ready(self):
        n, t = 4, 1
        hosts = [RbcHost(n, t) for _ in range(n)]
        network = SimulatedNetwork(hosts)
        network.start()
        instance = BrachaInstance(n=n, t=t, tag=("demo", 1), originator=1)
        ctx = self._ctx(network)
        # Echo quorum for n=4, t=1 is ceil((n+t+1)/2) = 3.
        assert instance.handle(ctx, 0, Message("RBC_ECHO", value=2.0, tag=("demo", 1))) is None
        assert instance.handle(ctx, 1, Message("RBC_ECHO", value=2.0, tag=("demo", 1))) is None
        assert instance.handle(ctx, 2, Message("RBC_ECHO", value=2.0, tag=("demo", 1))) is None
        # Delivery needs 2t+1 READY messages.
        assert instance.handle(ctx, 0, Message("RBC_READY", value=2.0, tag=("demo", 1))) is None
        assert instance.handle(ctx, 1, Message("RBC_READY", value=2.0, tag=("demo", 1))) is None
        delivered = instance.handle(ctx, 2, Message("RBC_READY", value=2.0, tag=("demo", 1)))
        assert delivered == 2.0
        assert instance.delivered

    def test_ready_amplification_from_t_plus_one(self):
        n, t = 4, 1
        hosts = [RbcHost(n, t) for _ in range(n)]
        network = SimulatedNetwork(hosts)
        network.start()
        network.scheduler.run()
        instance = BrachaInstance(n=n, t=t, tag=("demo", 1), originator=1)
        ctx = self._ctx(network)
        before = network.stats.messages_by_kind.get("RBC_READY", 0)
        instance.handle(ctx, 0, Message("RBC_READY", value=5.0, tag=("demo", 1)))
        instance.handle(ctx, 2, Message("RBC_READY", value=5.0, tag=("demo", 1)))
        network.scheduler.run()
        after = network.stats.messages_by_kind.get("RBC_READY", 0)
        # t+1 = 2 READYs make this process multicast its own READY (n messages).
        assert after - before == n

    def test_broadcast_only_by_originator(self):
        instance = BrachaInstance(n=4, t=1, tag=("demo", 1), originator=1)
        network = SimulatedNetwork([RbcHost(4, 1) for _ in range(4)])
        network.start()
        with pytest.raises(ValueError):
            instance.broadcast(network.context_for(0), 1.0)


class TestMultiplexer:
    def test_requires_n_greater_than_3t(self):
        with pytest.raises(ValueError):
            RbcMultiplexer(6, 2)

    def test_rejects_malformed_tags(self):
        multiplexer = RbcMultiplexer(4, 1)
        network = SimulatedNetwork([RbcHost(4, 1) for _ in range(4)])
        network.start()
        with pytest.raises(ValueError):
            multiplexer.handle(network.context_for(0), 1, Message("RBC_ECHO", value=1.0, tag=None))

    def test_handles_predicate(self):
        multiplexer = RbcMultiplexer(4, 1)
        assert multiplexer.handles(Message("RBC_INIT"))
        assert multiplexer.handles(Message("RBC_ECHO"))
        assert multiplexer.handles(Message("RBC_READY"))
        assert not multiplexer.handles(Message("VALUE"))

    def test_instance_count_grows_lazily(self):
        n, t = 4, 1
        processes = [RbcHost(n, t, value=float(pid)) for pid in range(n)]
        run_network(processes)
        assert all(p.rbc.instance_count == n for p in processes)
