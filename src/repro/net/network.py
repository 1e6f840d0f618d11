"""Simulated asynchronous message-passing network.

This module provides the execution substrate the paper assumes: ``n``
processes, fully connected by reliable authenticated channels, with message
delays chosen adversarially (but finitely) for honest senders.  It is a
deterministic discrete-event simulation built on
:class:`repro.net.scheduler.EventScheduler`.

Key components
--------------

``DelayModel``
    Decides the delivery delay of every message.  Concrete models include a
    constant delay, seeded random delays, and (in :mod:`repro.net.adversary`)
    adversarial policies that try to maximise the divergence between the value
    multisets collected by different honest processes — the worst case for the
    convergence analysis.

``FaultPlan``
    Decides which processes are faulty and how: crash faults (possibly in the
    middle of a multicast, so that only a prefix of the recipients receive the
    message) or Byzantine faults (the process's protocol object is replaced by
    an arbitrary adversarial behaviour).

``SimulatedNetwork``
    Owns the processes, the scheduler, the delay model and the fault plan;
    exposes per-process contexts implementing
    :class:`repro.net.interfaces.ProcessContext`; and records the statistics
    (message count, bits, deliveries) used by the evaluation harness.

The network never drops or corrupts messages of honest senders — channels are
reliable and authenticated exactly as in the paper — and Byzantine processes
cannot forge messages on behalf of other processes, because every delivery is
attributed to the true sender by the substrate itself.
"""

from __future__ import annotations

import abc
import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.net.interfaces import Process, ProcessContext
from repro.net.message import Message, message_bits
from repro.net.scheduler import EventScheduler

__all__ = [
    "DelayModel",
    "ConstantDelay",
    "UniformRandomDelay",
    "ExponentialRandomDelay",
    "FaultPlan",
    "NoFaults",
    "NetworkStats",
    "DeliveryRecord",
    "SimulatedNetwork",
]


# ----------------------------------------------------------------------
# Delay models
# ----------------------------------------------------------------------


class DelayModel(abc.ABC):
    """Strategy deciding the delivery delay of each message.

    The asynchronous model only requires that honest messages are *eventually*
    delivered; any finite positive delay is legal.  Delay models therefore
    return finite, strictly positive floats (the network raises ``ValueError``
    on anything else) and may use any information they like (sender,
    recipient, message contents, current time) to emulate an adaptive
    message-scheduling adversary.
    """

    #: Whether :meth:`delay` is a pure function of its arguments.  Stateless
    #: models may be probed in any order (and in bulk); with a tensor program
    #: (:meth:`tensor_key`) that lets the round-level adapter
    #: (:class:`~repro.net.adversary.DelayRankOmission`) answer whole-round
    #: quorum queries for the vectorised batch engine, which runs no other
    #: model.  Defaults to ``False``; concrete pure models opt in.
    stateless: bool = False

    #: Whether the model shapes *which values* a witness-protocol process
    #: samples, or only *when* they arrive.  The witness wait makes a
    #: process's sample the set of reliably-delivered values at the moment
    #: the witness condition fires, a set that only grows — so a model that
    #: delays nothing the sample depends on (e.g. report-exchange timing
    #: only, :class:`~repro.net.adversary.PartitionReportDelay`) leaves the
    #: round-level witness form on its full-delivery schedule, which is
    #: exactly what the event simulator realises.  Defaults to ``True``
    #: (conservative: an arbitrary delay model may shape samples).
    shapes_witness_samples: bool = True

    @abc.abstractmethod
    def delay(self, sender: int, recipient: int, message: Message, now: float) -> float:
        """Return the delivery delay for this message (finite and > 0)."""

    def tensor_key(self) -> Optional[tuple]:
        """Hashable fault-program identity of this model, or ``None``.

        Two models with equal keys realise the *same* delay program: any
        per-execution variation is carried entirely by the PRF seed
        (:meth:`tensor_seed`), so one representative instance may answer
        :meth:`delay_tensor` for a whole block of executions at once — this
        is what lets the vectorised engine (:mod:`repro.sim.ndbatch`) and the
        sweep grouper treat per-cell model instances as one program.
        Deterministic stateless models return a parameter tuple; stateful
        models return ``None`` (no tensor form).
        """
        return None

    def tensor_seed(self) -> int:
        """Per-execution pre-mixed PRF seed consumed by :meth:`delay_tensor`.

        Deterministic (seed-free) programs return 0; PRF-driven models (e.g.
        :class:`~repro.net.adversary.SeededDelay`) return their pre-mixed
        seed, the only thing that distinguishes two instances of one program.
        """
        return 0

    def delay_tensor(self, round_number: int, n: int, seed_mix):
        """Whole-block delay tensor ``delays[e, recipient, sender]``.

        ``seed_mix`` is a length-``E`` uint64 vector of per-execution
        pre-mixed seeds (:meth:`tensor_seed`); the result has shape
        ``(E, n, n)`` and every row must equal probing :meth:`delay` pair by
        pair, bit for bit.  The default implementation covers every
        deterministic program (non-``None`` :meth:`tensor_key`): the round's
        ``n × n`` matrix is probed *once* and broadcast across the block —
        seed-driven models override with a truly vectorised computation.
        Returns ``None`` when the model has no tensor form.  Requires numpy
        (only the vectorised engine calls it).
        """
        if self.tensor_key() is None:
            return None
        import numpy as np

        probe = Message(kind="VALUE", round=round_number, value=0.0)
        now = float(round_number)
        matrix = np.array(
            [
                [self.delay(sender, recipient, probe, now) for sender in range(n)]
                for recipient in range(n)
            ],
            dtype=np.float64,
        )
        return np.broadcast_to(matrix, (len(seed_mix), n, n))

    def reset(self) -> None:
        """Reset internal state before a fresh execution (optional)."""


class ConstantDelay(DelayModel):
    """Every message takes exactly ``delay`` time units to arrive."""

    stateless = True

    def __init__(self, delay: float = 1.0) -> None:
        if delay <= 0:
            raise ValueError("delay must be positive")
        self._delay = delay

    def delay(self, sender: int, recipient: int, message: Message, now: float) -> float:
        return self._delay

    def tensor_key(self) -> tuple:
        return ("constant", self._delay)


class UniformRandomDelay(DelayModel):
    """Delays drawn uniformly from ``[low, high]`` with a seeded RNG."""

    def __init__(self, low: float = 0.5, high: float = 1.5, seed: int = 0) -> None:
        if low <= 0 or high < low:
            raise ValueError("require 0 < low <= high")
        self._low = low
        self._high = high
        self._seed = seed
        self._rng = random.Random(seed)

    def delay(self, sender: int, recipient: int, message: Message, now: float) -> float:
        return self._rng.uniform(self._low, self._high)

    def reset(self) -> None:
        self._rng = random.Random(self._seed)


class ExponentialRandomDelay(DelayModel):
    """Exponentially distributed delays (heavy tail) with a floor.

    Models a congested asynchronous network where most messages are fast but a
    few straggle, which is the regime in which asynchronous algorithms differ
    most visibly from synchronous ones.
    """

    def __init__(self, mean: float = 1.0, floor: float = 0.05, seed: int = 0) -> None:
        if mean <= 0 or floor <= 0:
            raise ValueError("mean and floor must be positive")
        self._mean = mean
        self._floor = floor
        self._seed = seed
        self._rng = random.Random(seed)

    def delay(self, sender: int, recipient: int, message: Message, now: float) -> float:
        return self._floor + self._rng.expovariate(1.0 / self._mean)

    def reset(self) -> None:
        self._rng = random.Random(self._seed)


# ----------------------------------------------------------------------
# Fault plans
# ----------------------------------------------------------------------


class FaultPlan(abc.ABC):
    """Strategy describing which processes are faulty and how they misbehave.

    A fault plan is consulted by the network at three points:

    * at construction time, to learn which process identifiers are faulty and,
      for Byzantine faults, to *replace* the protocol object of a faulty
      process with an adversarial behaviour;
    * before every outgoing message of a crash-faulty process, to decide
      whether the process crashes at this point (allowing crashes in the
      middle of a multicast, which is the subtle case in the crash model);
    * at delivery time, to suppress deliveries to processes that have crashed.
    """

    @abc.abstractmethod
    def faulty_ids(self, n: int) -> Sequence[int]:
        """Return the identifiers of the faulty processes."""

    def byzantine_ids(self, n: int) -> Sequence[int]:
        """The subset of the faulty processes that is Byzantine.

        Crash-faulty processes are faulty but not Byzantine; the distinction
        matters for the validity reference (see :mod:`repro.core.problem`).
        The default — used by crash fault plans — is the empty set.
        """
        return ()

    def replacement_process(self, process_id: int, original: Process) -> Optional[Process]:
        """Return a Byzantine replacement for ``process_id`` or ``None``.

        Returning ``None`` keeps the original (used for crash faults, where
        the process follows the protocol until it stops).
        """
        return None

    def crashes_before_send(self, process_id: int, messages_sent: int, now: float) -> bool:
        """Whether ``process_id`` crashes before sending its next message.

        ``messages_sent`` counts every point-to-point message already sent by
        the process (a multicast counts as ``n`` point-to-point messages), so
        a plan can crash a process part-way through a multicast.
        """
        return False

    def describe(self) -> str:
        """Human-readable description used in experiment reports."""
        return type(self).__name__


class NoFaults(FaultPlan):
    """The trivial fault plan: every process is honest."""

    def faulty_ids(self, n: int) -> Sequence[int]:
        return ()


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


@dataclass
class DeliveryRecord:
    """A single message delivery, as recorded in the (optional) trace."""

    time: float
    sender: int
    recipient: int
    message: Message


@dataclass
class NetworkStats:
    """Aggregate statistics of one execution, per the paper's cost measures."""

    messages_sent: int = 0
    messages_delivered: int = 0
    bits_sent: int = 0
    messages_by_kind: Dict[str, int] = field(default_factory=dict)
    sends_by_process: Dict[int, int] = field(default_factory=dict)

    def record_send(self, sender: int, message: Message, count: int = 1) -> None:
        """Count ``count`` point-to-point sends of ``message`` by ``sender``.

        A multicast is recorded with one call, so :func:`message_bits` runs
        once per message and not once per recipient.
        """
        self.messages_sent += count
        self.bits_sent += count * message_bits(message)
        self.messages_by_kind[message.kind] = self.messages_by_kind.get(message.kind, 0) + count
        self.sends_by_process[sender] = self.sends_by_process.get(sender, 0) + count

    def record_delivery(self) -> None:
        self.messages_delivered += 1


# ----------------------------------------------------------------------
# The network itself
# ----------------------------------------------------------------------


class _Context(ProcessContext):
    """Per-process view of the network, handed to protocol callbacks."""

    def __init__(self, network: "SimulatedNetwork", process_id: int) -> None:
        self._network = network
        self._process_id = process_id

    @property
    def process_id(self) -> int:
        return self._process_id

    @property
    def n(self) -> int:
        return self._network.n

    @property
    def time(self) -> float:
        return self._network.scheduler.now

    def send(self, recipient: int, message: Message) -> None:
        if not 0 <= recipient < self._network.n:
            raise ValueError(f"invalid recipient {recipient}")
        self._network._send_to(self._process_id, (recipient,), message)

    def multicast(self, message: Message) -> None:
        # A multicast is n point-to-point sends in increasing recipient order.
        self._network._send_to(self._process_id, range(self._network.n), message)

    def output(self, value: Any) -> None:
        self._network._record_output(self._process_id, value)

    def halt(self) -> None:
        self._network._halt(self._process_id)


class SimulatedNetwork:
    """Deterministic simulation of an asynchronous message-passing system.

    Parameters
    ----------
    processes:
        The protocol state machine of each process, indexed by process id.
        Byzantine replacements from the fault plan are applied on top.
    delay_model:
        Delivery-delay policy (see :class:`DelayModel`).
    fault_plan:
        Fault injection policy (see :class:`FaultPlan`).
    keep_trace:
        When true, every delivery is appended to :attr:`trace` — useful for
        debugging and for the schedule-replay tests, but memory-hungry for
        large sweeps.
    """

    def __init__(
        self,
        processes: Sequence[Process],
        delay_model: Optional[DelayModel] = None,
        fault_plan: Optional[FaultPlan] = None,
        keep_trace: bool = False,
    ) -> None:
        self.scheduler = EventScheduler()
        self.delay_model = delay_model or ConstantDelay(1.0)
        self.delay_model.reset()
        self.fault_plan = fault_plan or NoFaults()
        self.stats = NetworkStats()
        self.trace: List[DeliveryRecord] = []
        self._keep_trace = keep_trace

        self.processes: List[Process] = []
        self.n = len(processes)
        self._faulty = set(self.fault_plan.faulty_ids(self.n))
        for pid, process in enumerate(processes):
            replacement = None
            if pid in self._faulty:
                replacement = self.fault_plan.replacement_process(pid, process)
            chosen = replacement if replacement is not None else process
            chosen.bind(pid)
            self.processes.append(chosen)

        self._contexts = [_Context(self, pid) for pid in range(self.n)]
        self._halted = [False] * self.n
        self._crashed = [False] * self.n
        self._started = [False] * self.n
        self._sends_by_process = [0] * self.n
        self._delivery_observers: List[Callable[[DeliveryRecord], None]] = []
        # Honest processes without an output: all_honest_output() is O(1).
        self._awaiting_output = sum(
            1
            for pid, process in enumerate(self.processes)
            if pid not in self._faulty and not process.has_output
        )

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------

    @property
    def faulty(self) -> Sequence[int]:
        """Identifiers of the faulty processes."""
        return tuple(sorted(self._faulty))

    @property
    def honest(self) -> Sequence[int]:
        """Identifiers of the honest (never-faulty) processes."""
        return tuple(pid for pid in range(self.n) if pid not in self._faulty)

    def is_faulty(self, pid: int) -> bool:
        return pid in self._faulty

    def is_crashed(self, pid: int) -> bool:
        return self._crashed[pid]

    def add_delivery_observer(self, observer: Callable[[DeliveryRecord], None]) -> None:
        """Register a callback invoked on every delivery (metrics hooks)."""
        self._delivery_observers.append(observer)

    def start(self, start_jitter: float = 0.0, seed: int = 0) -> None:
        """Start every process (deliver its input by calling ``on_start``).

        ``start_jitter`` optionally staggers start times uniformly at random
        in ``[0, start_jitter]`` to model processes acquiring their inputs at
        different times, which the asynchronous model allows.
        """
        rng = random.Random(seed)
        for pid in range(self.n):
            delay = rng.uniform(0.0, start_jitter) if start_jitter > 0 else 0.0
            self.scheduler.call_at(delay, self._start, (pid,))

    def run(
        self,
        max_events: Optional[int] = None,
        stop_when_outputs: bool = True,
        extra_events_after_outputs: int = 0,
    ) -> int:
        """Run the simulation.

        By default the run stops as soon as every honest process has produced
        an output (plus ``extra_events_after_outputs`` additional events, used
        by tests that check post-decision behaviour), or when the event queue
        drains, whichever comes first.
        """
        if not stop_when_outputs:
            return self.scheduler.run(max_events=max_events)

        executed = self.scheduler.run(max_events=max_events, stop_when=self.all_honest_output)
        if extra_events_after_outputs > 0:
            executed += self.scheduler.run(max_events=extra_events_after_outputs)
        return executed

    def all_honest_output(self) -> bool:
        """Whether every honest process has recorded an output."""
        return self._awaiting_output == 0

    def honest_outputs(self) -> List[Any]:
        """Outputs of the honest processes, in process-id order."""
        return [
            self.processes[pid].output_value
            for pid in range(self.n)
            if pid not in self._faulty and self.processes[pid].has_output
        ]

    def crash(self, pid: int) -> None:
        """Crash process ``pid`` immediately (used by crash fault plans)."""
        self._crashed[pid] = True
        self._halted[pid] = True

    def context_for(self, pid: int) -> ProcessContext:
        """The context of process ``pid`` (used by lockstep runners)."""
        return self._contexts[pid]

    def close(self) -> None:
        """Drop the pending deliveries and the contexts, which point back at
        the network, so reference counting frees it; it cannot run again."""
        self.scheduler.clear()
        self._contexts = []

    def signal_round_timeout(self, round_number: int) -> None:
        """Tell every live process that synchronous round ``round_number`` ended.

        Only the lockstep runner for the synchronous baselines calls this;
        asynchronous executions never do (the model has no timeouts).
        """
        for pid in range(self.n):
            if self._halted[pid] or self._crashed[pid]:
                continue
            self.processes[pid].on_round_timeout(self._contexts[pid], round_number)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _start(self, pid: int) -> None:
        if self._crashed[pid] or self._started[pid]:
            return
        self._started[pid] = True
        self.processes[pid].on_start(self._contexts[pid])

    def _send_to(self, sender: int, recipients: Iterable[int], message: Message) -> None:
        """Send ``message`` to each of ``recipients`` in order.

        Every send asks the fault plan first, so a crash fault plan may stop
        the sender part-way through and only a prefix of the recipients ever
        receives the message.  The sends are counted afterwards with one
        :meth:`NetworkStats.record_send`.
        """
        if self._crashed[sender]:
            return
        now = self.scheduler.now
        first = sent = self._sends_by_process[sender]
        crashes_before_send = self.fault_plan.crashes_before_send
        delay_of = self.delay_model.delay
        call_at = self.scheduler.call_at
        deliver = self._deliver
        for recipient in recipients:
            if crashes_before_send(sender, sent, now):
                self.crash(sender)
                break
            delay = delay_of(sender, recipient, message, now)
            if not 0 < delay < math.inf:
                raise ValueError("delay models must return finite, strictly positive delays")
            call_at(now + delay, deliver, (sender, recipient, message))
            sent += 1
        if sent > first:
            self._sends_by_process[sender] = sent
            self.stats.record_send(sender, message, sent - first)

    def _deliver(self, sender: int, recipient: int, message: Message) -> None:
        if self._halted[recipient] or self._crashed[recipient]:
            return
        self.stats.record_delivery()
        if self._keep_trace or self._delivery_observers:
            record = DeliveryRecord(
                time=self.scheduler.now, sender=sender, recipient=recipient, message=message
            )
            if self._keep_trace:
                self.trace.append(record)
            for observer in self._delivery_observers:
                observer(record)
        self.processes[recipient].on_message(self._contexts[recipient], sender, message)

    def _record_output(self, pid: int, value: Any) -> None:
        process = self.processes[pid]
        had_output = process.has_output
        process.record_output(value)
        if not had_output and process.has_output and pid not in self._faulty:
            self._awaiting_output -= 1

    def _halt(self, pid: int) -> None:
        self._halted[pid] = True
