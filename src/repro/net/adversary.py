"""Fault and scheduling adversaries.

The power of the adversary in the paper is threefold: it picks which ``t``
processes are faulty (adaptively, but for a simulation a pre-committed choice
exercises the same code paths), it controls what Byzantine processes send, and
it schedules message deliveries arbitrarily.  This module provides concrete,
composable realisations of all three powers:

* **Crash fault plans** — a faulty process follows the protocol and then stops
  forever, possibly in the middle of a multicast so that only some recipients
  receive its last message.  This partial-multicast behaviour is exactly the
  subtlety that separates the crash model from simple "slow process" behaviour.
* **Byzantine behaviours** — replacement :class:`~repro.net.interfaces.Process`
  objects that send arbitrary, possibly equivocating values.  Several
  strategies are provided, from silent processes to an adaptive
  anti-convergence strategy that always reports values at the far end of the
  honest range.
* **Adversarial delay models** — scheduling policies that maximise the
  divergence between the value multisets collected by different honest
  processes (the quantity the convergence analysis bounds), such as a network
  partitioned into two halves with slow cross-traffic.

All randomised components take explicit seeds; there is no hidden global RNG.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.net.interfaces import Process, ProcessContext
from repro.net.message import Message
from repro.net.network import DelayModel, FaultPlan, NoFaults

__all__ = [
    "CrashPoint",
    "CrashFaultPlan",
    "ByzantineFaultPlan",
    "ComposedFaultPlan",
    "SilentProcess",
    "ByzantineValueStrategy",
    "FixedValueStrategy",
    "EquivocatingStrategy",
    "RandomValueStrategy",
    "AntiConvergenceStrategy",
    "RoundEchoByzantine",
    "HonestWithCorruptedInput",
    "PartitionDelay",
    "PartitionReportDelay",
    "LaggardDelay",
    "StaggeredExclusionDelay",
    "TargetedDelay",
    "OmissionPolicy",
    "SeededOmission",
    "DelayRankOmission",
    "RoundFaultModel",
    "round_fault_model",
    "mix64",
    "seeded_rank_key",
    "SeededDelay",
    "SENDER_BITS",
    "SENDER_MASK",
    "MASK64",
    "MIX64_MULT1",
    "MIX64_MULT2",
    "KEY_ROUND",
    "KEY_RECIPIENT",
    "KEY_SENDER",
    "VALUE_STREAM",
    "DELAY_STREAM",
]


# ----------------------------------------------------------------------
# Crash faults
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CrashPoint:
    """Describes when a crash-faulty process stops.

    ``after_sends`` is the number of point-to-point messages the process is
    allowed to send before it crashes; a multicast counts as ``n`` sends in
    increasing recipient order, so crashes in the middle of a multicast are
    expressed naturally.  ``after_sends=0`` means the process crashes before
    sending anything (it is initially dead).  ``None`` means the process
    never crashes (useful when composing plans).
    """

    after_sends: Optional[int] = None

    @staticmethod
    def before_round(round_number: int, n: int) -> "CrashPoint":
        """Crash just before the process multicasts its round ``round_number`` value.

        Rounds are 1-based and each round of the direct protocols is a single
        multicast of ``n`` point-to-point messages.
        """
        return CrashPoint(after_sends=(round_number - 1) * n)

    @staticmethod
    def mid_multicast(round_number: int, n: int, deliveries: int) -> "CrashPoint":
        """Crash during the round ``round_number`` multicast after ``deliveries`` sends."""
        if not 0 <= deliveries <= n:
            raise ValueError("deliveries must be between 0 and n")
        return CrashPoint(after_sends=(round_number - 1) * n + deliveries)


class CrashFaultPlan(FaultPlan):
    """Crash the given processes at the given points.

    Parameters
    ----------
    crash_points:
        Mapping from process id to :class:`CrashPoint`.
    """

    def __init__(self, crash_points: Dict[int, CrashPoint]) -> None:
        self._crash_points = dict(crash_points)

    @property
    def crash_points(self) -> Dict[int, CrashPoint]:
        """The configured crash points (used by the round-level adapter)."""
        return dict(self._crash_points)

    def faulty_ids(self, n: int) -> Sequence[int]:
        return tuple(sorted(pid for pid in self._crash_points if pid < n))

    def crashes_before_send(self, process_id: int, messages_sent: int, now: float) -> bool:
        point = self._crash_points.get(process_id)
        if point is None or point.after_sends is None:
            return False
        return messages_sent >= point.after_sends

    def describe(self) -> str:
        points = ", ".join(
            f"P{pid}@{cp.after_sends}" for pid, cp in sorted(self._crash_points.items())
        )
        return f"CrashFaultPlan({points})"


# ----------------------------------------------------------------------
# Byzantine behaviours
# ----------------------------------------------------------------------


class SilentProcess(Process):
    """A Byzantine process that never sends anything (a de-facto crash)."""

    def on_start(self, ctx: ProcessContext) -> None:
        return None

    def on_message(self, ctx: ProcessContext, sender: int, message: Message) -> None:
        return None


class ByzantineValueStrategy(abc.ABC):
    """Strategy choosing the value a Byzantine process reports.

    The strategy is consulted once per (round, recipient) pair, so it can
    equivocate — report different values to different recipients in the same
    round — which is the capability that forces the double-sided ``reduce`` in
    the Byzantine algorithms.
    """

    #: Whether :meth:`value` is a pure function of its arguments (no internal
    #: state evolving between calls).  Stateless strategies may be queried in
    #: any order — and eagerly, for every (sender, recipient) pair at once —
    #: which is what the vectorised batch engine (:mod:`repro.sim.ndbatch`)
    #: requires.  Defaults to ``False``; concrete pure strategies opt in.
    stateless: bool = False

    @abc.abstractmethod
    def value(self, round_number: int, recipient: int, observed: Sequence[float]) -> float:
        """Value to report to ``recipient`` in ``round_number``.

        ``observed`` is the list of honest values the Byzantine process has
        seen so far (the adversary is full-information).
        """

    def tensor_key(self) -> Optional[tuple]:
        """Hashable fault-program identity of this strategy, or ``None``.

        Two strategies with equal keys realise the *same* injection program:
        any per-execution variation is carried entirely by the PRF seed
        (:meth:`tensor_seed`), so one representative instance may answer
        :meth:`value_tensor` for any set of members at once — whatever their
        sender ids, executions or coordinates, by the row contract stated
        there.  This is the grouping key of the vectorised engine
        (:mod:`repro.sim.ndbatch`), which answers each program with *one*
        Python call per round, and of the sweep's block grouper.  ``None``
        (the default) means the strategy has no tensor form: the batch and
        event engines still run it through :meth:`value`, and the vectorised
        engine refuses it.
        """
        return None

    def tensor_seed(self) -> int:
        """Per-execution pre-mixed PRF seed consumed by :meth:`value_tensor`."""
        return 0

    def value_tensor(self, round_number: int, n: int, observed, seed_mix):
        """Whole-block form of :meth:`value`: ``reports[e, recipient]``.

        ``observed`` is an ``(E, k)`` float array of the values each row's
        adversary has observed, padded with NaN (the vectorised engine passes
        one coordinate of one execution's holder values per row, NaN at
        non-holder slots); ``seed_mix`` is a length-``E`` uint64 vector of
        per-row pre-mixed seeds (:meth:`tensor_seed`).  Returns an ``(E, n)``
        array whose row ``e`` equals ``[value(round, 0, observed_e), …]`` bit
        for bit, where ``observed_e`` is row ``e``'s non-NaN values —
        non-finite reports degrade to omissions at the engine boundary.

        The row contract: row ``e`` depends only on ``round_number``, ``n``,
        ``observed[e]`` and ``seed_mix[e]``, never on the other rows.  The
        engine relies on it twice: one call may stack the rows of any
        members, executions and coordinates of a program, and rows with
        equal observed values and seed (e.g. two members of one execution
        sharing a seed) are evaluated once.  ``observed`` is read-only and
        must not be modified: the engine hands it over with its writeable
        flag cleared, often as a view shared with other rows.  Strategies
        with a non-``None`` :meth:`tensor_key` must answer; others return
        ``None``.  Requires numpy (only bulk callers use it).
        """
        return None

    def describe(self) -> str:
        return type(self).__name__


class FixedValueStrategy(ByzantineValueStrategy):
    """Always report the same constant value (e.g. an enormous outlier)."""

    stateless = True

    def __init__(self, reported_value: float) -> None:
        self.reported_value = float(reported_value)

    def value(self, round_number: int, recipient: int, observed: Sequence[float]) -> float:
        return self.reported_value

    def tensor_key(self) -> tuple:
        return ("fixed", self.reported_value)

    def value_tensor(self, round_number: int, n: int, observed, seed_mix):
        import numpy as np

        return np.broadcast_to(np.float64(self.reported_value), (len(seed_mix), n))

    def describe(self) -> str:
        return f"FixedValueStrategy({self.reported_value})"


class EquivocatingStrategy(ByzantineValueStrategy):
    """Report ``low`` to one half of the recipients and ``high`` to the other.

    This is the canonical equivocation attack: it tries to pull different
    honest processes toward opposite ends of the value range, and it is the
    reason the asynchronous Byzantine algorithm needs ``n > 5t`` without the
    witness technique.
    """

    stateless = True

    def __init__(self, low: float, high: float) -> None:
        self.low = float(low)
        self.high = float(high)

    def value(self, round_number: int, recipient: int, observed: Sequence[float]) -> float:
        return self.low if recipient % 2 == 0 else self.high

    def tensor_key(self) -> tuple:
        return ("equivocate", self.low, self.high)

    def value_tensor(self, round_number: int, n: int, observed, seed_mix):
        import numpy as np

        row = np.where(np.arange(n) % 2 == 0, self.low, self.high)
        return np.broadcast_to(row, (len(seed_mix), n))

    def describe(self) -> str:
        return f"EquivocatingStrategy({self.low}, {self.high})"


class RandomValueStrategy(ByzantineValueStrategy):
    """Report pseudo-random, per-(round, recipient) values in ``[low, high]``.

    The draws come from a counter-based PRF — the same MurmurHash3-finalizer
    key schedule as :class:`SeededOmission`, on a decorrelated stream
    (:data:`VALUE_STREAM`) — rather than a sequential RNG: every
    ``(round, recipient)`` pair maps to one 64-bit mix whose top-down scaling
    into ``[low, high]`` is a pure function of the seed.  That makes the
    strategy ``stateless`` (query order cannot change the draws), so the
    vectorised batch engine (:mod:`repro.sim.ndbatch`) can evaluate whole
    rounds at once (:meth:`value_tensor`) with draws bit-identical to the
    scalar path — the equivocation pattern every engine observes is the same.
    """

    stateless = True

    def __init__(self, low: float, high: float, seed: int = 0) -> None:
        self.low = float(low)
        self.high = float(high)
        self.seed = int(seed)
        self._seed_mix = mix64(self.seed ^ VALUE_STREAM)

    def _unit(self, round_number: int, recipient: int) -> float:
        key = mix64(
            self._seed_mix ^ (round_number * KEY_ROUND) ^ (recipient * KEY_RECIPIENT)
        )
        return key * 2.0**-64

    def value(self, round_number: int, recipient: int, observed: Sequence[float]) -> float:
        return self.low + (self.high - self.low) * self._unit(round_number, recipient)

    def tensor_key(self) -> tuple:
        return ("random", self.low, self.high)

    def tensor_seed(self) -> int:
        return self._seed_mix

    def value_tensor(self, round_number: int, n: int, observed, seed_mix):
        import numpy as np

        recipients = np.arange(n, dtype=np.uint64) * np.uint64(KEY_RECIPIENT)
        keys = _np_mix64(
            np.asarray(seed_mix, dtype=np.uint64)[:, None]
            ^ np.uint64((round_number * KEY_ROUND) & MASK64)
            ^ recipients[None, :]
        )
        # uint64 → float64 rounds to nearest, exactly like Python's float(int),
        # and the scaling applies operations in the scalar path's order, so the
        # draws are bit-identical across the scalar and numpy paths.
        return self.low + (self.high - self.low) * (keys.astype(np.float64) * 2.0**-64)

    def describe(self) -> str:
        return f"RandomValueStrategy([{self.low}, {self.high}], seed={self.seed})"


class AntiConvergenceStrategy(ByzantineValueStrategy):
    """Adaptively report values at the far ends of the observed honest range.

    The strategy keeps track of the smallest and largest honest values it has
    seen and reports the minimum to recipients with even identifiers and the
    maximum to recipients with odd identifiers, optionally stretched by
    ``stretch`` beyond the observed range.  Because the reported values stay
    close to (or just outside) the honest range, the ``reduce`` step cannot
    always discard them, making this the strongest convergence-slowing
    strategy among the ones shipped with the library (exercised by the
    adversary-ablation benchmark).

    ``parity`` flips which recipient class receives the low end: recipient
    ``q`` gets the minimum when ``(q + parity) % 2 == 0``.  The default
    ``parity=0`` is the historic behaviour bit for bit; the knob exists so
    the attack-search families (:mod:`repro.analysis.attacksearch`) can
    explore both phase assignments of the split as one searchable program
    axis.
    """

    stateless = True

    def __init__(self, stretch: float = 0.0, parity: int = 0) -> None:
        if parity not in (0, 1):
            raise ValueError("parity must be 0 or 1")
        self.stretch = float(stretch)
        self.parity = int(parity)

    def value(self, round_number: int, recipient: int, observed: Sequence[float]) -> float:
        if not observed:
            return 0.0
        low = min(observed) - self.stretch
        high = max(observed) + self.stretch
        return low if (recipient + self.parity) % 2 == 0 else high

    def tensor_key(self) -> tuple:
        return ("anti-convergence", self.stretch, self.parity)

    def value_tensor(self, round_number: int, n: int, observed, seed_mix):
        import numpy as np

        count = len(seed_mix)
        obs = np.asarray(observed, dtype=np.float64)
        if obs.ndim != 2 or obs.shape[1] == 0:
            return np.zeros((count, n))
        # Observed values are finite by invariant, so masked min/max over an
        # inf fill equals Python's min()/max() over the non-NaN entries bit
        # for bit; all-NaN rows (nothing observed) report 0.0 like the
        # scalar path.
        valid = ~np.isnan(obs)
        low = np.where(valid, obs, np.inf).min(axis=1)
        high = np.where(valid, obs, -np.inf).max(axis=1)
        has_observed = np.isfinite(low)
        low = np.where(has_observed, low - self.stretch, 0.0)
        high = np.where(has_observed, high + self.stretch, 0.0)
        even = (np.arange(n) + self.parity) % 2 == 0
        return np.where(even[None, :], low[:, None], high[:, None])

    def describe(self) -> str:
        return f"AntiConvergenceStrategy(stretch={self.stretch}, parity={self.parity})"


class RoundEchoByzantine(Process):
    """Byzantine behaviour for round-structured protocols.

    The behaviour watches the honest traffic to learn which round is current
    and, for every round it observes, sends each recipient an adversarially
    chosen value (per :class:`ByzantineValueStrategy`).  It never crashes and
    never stops, so it participates in every quorum an honest process might
    wait for, which is the worst case for convergence (a silent Byzantine
    process is no stronger than a crash).

    ``value_kinds`` lists the message kinds that carry per-round values in the
    protocol under attack; the default covers the direct protocols
    (``"VALUE"``) and the witness protocol's reliable-broadcast initiation
    (``"RBC_INIT"``).
    """

    def __init__(
        self,
        strategy: ByzantineValueStrategy,
        value_kinds: Sequence[str] = ("VALUE",),
        max_round: int = 10_000,
    ) -> None:
        self.strategy = strategy
        self.value_kinds = tuple(value_kinds)
        self.max_round = max_round
        self._rounds_done: Set[int] = set()
        self._observed: List[float] = []

    def on_start(self, ctx: ProcessContext) -> None:
        self._attack_round(ctx, 1)

    def on_message(self, ctx: ProcessContext, sender: int, message: Message) -> None:
        if message.kind in self.value_kinds and isinstance(message.value, (int, float)):
            self._observed.append(float(message.value))
        if message.round is not None and message.kind in self.value_kinds:
            self._attack_round(ctx, message.round)

    def _attack_round(self, ctx: ProcessContext, round_number: int) -> None:
        if round_number in self._rounds_done or round_number > self.max_round:
            return
        self._rounds_done.add(round_number)
        for recipient in range(ctx.n):
            reported = self.strategy.value(round_number, recipient, self._observed)
            for kind in self.value_kinds:
                ctx.send(recipient, Message(kind=kind, round=round_number, value=reported))

    def describe(self) -> str:
        return f"RoundEchoByzantine({self.strategy.describe()})"


class HonestWithCorruptedInput(Process):
    """A Byzantine process that runs the honest protocol with a forged input.

    This is the mildest Byzantine behaviour — protocol-compliant but with an
    input far outside the honest range — and it is the sharpest test of the
    validity property: the honest outputs must stay inside the *honest* input
    range no matter how extreme the forged input is.  Because it follows the
    protocol, it works against every protocol in the library, including the
    witness-technique protocol whose reliable-broadcast sub-structure a
    generic equivocator does not speak.
    """

    def __init__(self, process_factory: Callable[[], Process]) -> None:
        self._inner = process_factory()

    @property
    def inner(self) -> Process:
        """The wrapped honest process (used by the round-level adapter)."""
        return self._inner

    def bind(self, process_id: int) -> Process:
        super().bind(process_id)
        self._inner.bind(process_id)
        return self

    def on_start(self, ctx: ProcessContext) -> None:
        self._inner.on_start(ctx)

    def on_message(self, ctx: ProcessContext, sender: int, message: Message) -> None:
        self._inner.on_message(ctx, sender, message)

    def on_round_timeout(self, ctx: ProcessContext, round_number: int) -> None:
        self._inner.on_round_timeout(ctx, round_number)

    def describe(self) -> str:
        return f"HonestWithCorruptedInput({self._inner.describe()})"


class ByzantineFaultPlan(FaultPlan):
    """Replace the given processes with Byzantine behaviours."""

    def __init__(self, behaviours: Dict[int, Process]) -> None:
        self._behaviours = dict(behaviours)

    @property
    def behaviours(self) -> Dict[int, Process]:
        """The configured replacements (used by the round-level adapter)."""
        return dict(self._behaviours)

    def faulty_ids(self, n: int) -> Sequence[int]:
        return tuple(sorted(pid for pid in self._behaviours if pid < n))

    def byzantine_ids(self, n: int) -> Sequence[int]:
        return self.faulty_ids(n)

    def replacement_process(self, process_id: int, original: Process) -> Optional[Process]:
        return self._behaviours.get(process_id)

    def describe(self) -> str:
        parts = ", ".join(
            f"P{pid}:{proc.describe()}" for pid, proc in sorted(self._behaviours.items())
        )
        return f"ByzantineFaultPlan({parts})"


class ComposedFaultPlan(FaultPlan):
    """Union of several fault plans (e.g. some crashes plus some Byzantine)."""

    def __init__(self, plans: Sequence[FaultPlan]) -> None:
        self._plans = list(plans)

    @property
    def plans(self) -> Sequence[FaultPlan]:
        """The composed plans (used by the round-level adapter)."""
        return tuple(self._plans)

    def faulty_ids(self, n: int) -> Sequence[int]:
        ids: Set[int] = set()
        for plan in self._plans:
            ids.update(plan.faulty_ids(n))
        return tuple(sorted(ids))

    def byzantine_ids(self, n: int) -> Sequence[int]:
        ids: Set[int] = set()
        for plan in self._plans:
            ids.update(plan.byzantine_ids(n))
        return tuple(sorted(ids))

    def replacement_process(self, process_id: int, original: Process) -> Optional[Process]:
        for plan in self._plans:
            replacement = plan.replacement_process(process_id, original)
            if replacement is not None:
                return replacement
        return None

    def crashes_before_send(self, process_id: int, messages_sent: int, now: float) -> bool:
        return any(
            plan.crashes_before_send(process_id, messages_sent, now) for plan in self._plans
        )

    def describe(self) -> str:
        return "ComposedFaultPlan(" + " + ".join(plan.describe() for plan in self._plans) + ")"


# ----------------------------------------------------------------------
# Adversarial delay models
# ----------------------------------------------------------------------


class PartitionDelay(DelayModel):
    """Split the honest processes into two camps with slow cross-traffic.

    Messages within a camp arrive after ``fast`` time units; messages that
    cross the camp boundary arrive after ``slow`` time units.  With
    ``slow >> fast`` every process fills its per-round quorum almost entirely
    from its own camp, which maximises the divergence ``D`` between the value
    multisets of processes in different camps — the exact quantity the
    convergence lemma is stated in terms of.  This is the schedule used by the
    worst-case convergence experiments.
    """

    stateless = True

    def __init__(self, camp_a: Iterable[int], fast: float = 1.0, slow: float = 25.0) -> None:
        if fast <= 0 or slow <= 0:
            raise ValueError("delays must be positive")
        self.camp_a = frozenset(camp_a)
        self.fast = fast
        self.slow = slow

    def delay(self, sender: int, recipient: int, message: Message, now: float) -> float:
        same_camp = (sender in self.camp_a) == (recipient in self.camp_a)
        return self.fast if same_camp else self.slow

    def tensor_key(self) -> tuple:
        return ("partition", tuple(sorted(self.camp_a)), self.fast, self.slow)


class LaggardDelay(DelayModel):
    """Messages from the given senders are always slow.

    Permanently slow senders are effectively excluded from every quorum, which
    is how the adversary "uses up" its ``t`` omissions against asynchronous
    algorithms without corrupting anyone.
    """

    stateless = True

    def __init__(self, slow_senders: Iterable[int], fast: float = 1.0, slow: float = 50.0) -> None:
        if fast <= 0 or slow <= 0:
            raise ValueError("delays must be positive")
        self.slow_senders = frozenset(slow_senders)
        self.fast = fast
        self.slow = slow

    def delay(self, sender: int, recipient: int, message: Message, now: float) -> float:
        return self.slow if sender in self.slow_senders else self.fast

    def tensor_key(self) -> tuple:
        return ("laggard", tuple(sorted(self.slow_senders)), self.fast, self.slow)


class StaggeredExclusionDelay(DelayModel):
    """Per-recipient, per-round rotating exclusion of ``exclude`` senders.

    For the round-``r`` value message destined to recipient ``q``, the senders
    with identifiers ``(q + r) mod n, …, (q + r + exclude − 1) mod n`` are
    slowed down; everything else is fast.  Because the excluded set differs
    for every recipient (and rotates every round), different honest processes
    keep filling their quorums from *different* sender subsets round after
    round — the schedule that keeps the divergence ``D`` between honest
    samples maximal for the whole execution, rather than only in the first
    round as a static partition does.  This is the schedule used by the
    convergence benchmarks to push executions toward the worst-case
    contraction bound.

    ``stride`` and ``phase`` generalise the rotation: the excluded window
    for recipient ``q`` in round ``r`` starts at
    ``(q + stride*r + phase) mod n``.  The defaults ``stride=1, phase=0``
    are the historic schedule bit for bit; ``stride=0`` freezes the window
    per recipient (a static, recipient-dependent partition) and other
    strides skip around the ring — the schedule family the attack search
    (:mod:`repro.analysis.attacksearch`) optimises over.
    """

    stateless = True

    def __init__(
        self,
        n: int,
        exclude: int,
        fast: float = 1.0,
        slow: float = 50.0,
        stride: int = 1,
        phase: int = 0,
    ) -> None:
        if fast <= 0 or slow <= 0:
            raise ValueError("delays must be positive")
        if not 0 <= exclude < n:
            raise ValueError("exclude must be in [0, n)")
        self.n = n
        self.exclude = exclude
        self.fast = fast
        self.slow = slow
        self.stride = int(stride)
        self.phase = int(phase)

    def delay(self, sender: int, recipient: int, message: Message, now: float) -> float:
        if self.exclude == 0:
            return self.fast
        round_number = message.round if message.round is not None else 0
        start = (recipient + self.stride * round_number + self.phase) % self.n
        offset = (sender - start) % self.n
        return self.slow if offset < self.exclude else self.fast

    def tensor_key(self) -> tuple:
        return (
            "staggered-exclusion",
            self.n, self.exclude, self.fast, self.slow, self.stride, self.phase,
        )

    def delay_tensor(self, round_number: int, n: int, seed_mix):
        """The round's ``n × n`` matrix, computed in numpy and broadcast
        across the block; every row equals probing :meth:`delay` pair by
        pair (the ring stays ``self.n`` even when ``n`` differs)."""
        import numpy as np

        ids = np.arange(n, dtype=np.int64)
        start = (ids + (self.stride * round_number + self.phase) % self.n) % self.n
        offset = (ids[None, :] - start[:, None]) % self.n
        matrix = np.where(offset < self.exclude, float(self.slow), float(self.fast))
        return np.broadcast_to(matrix, (len(seed_mix), n, n))


class TargetedDelay(DelayModel):
    """Slow down specific (sender, recipient) pairs; everything else is fast.

    Lets tests construct hand-crafted schedules, e.g. ensuring that process 0
    never hears from process 1 before filling its quorum in any round.
    """

    stateless = True

    def __init__(
        self,
        slow_pairs: Iterable[tuple],
        fast: float = 1.0,
        slow: float = 50.0,
    ) -> None:
        if fast <= 0 or slow <= 0:
            raise ValueError("delays must be positive")
        self.slow_pairs = frozenset(tuple(pair) for pair in slow_pairs)
        self.fast = fast
        self.slow = slow

    def delay(self, sender: int, recipient: int, message: Message, now: float) -> float:
        return self.slow if (sender, recipient) in self.slow_pairs else self.fast

    def tensor_key(self) -> tuple:
        return ("targeted", tuple(sorted(self.slow_pairs)), self.fast, self.slow)


class PartitionReportDelay(DelayModel):
    """Partition-aware witness *report* schedule: slow cross-camp reports.

    The witness protocol's report exchange is the only traffic whose timing
    the schedule touches: a ``REPORT`` message crossing the camp boundary
    arrives after ``slow`` time units, everything else (the reliable-broadcast
    machinery, the direct protocols' ``VALUE`` rounds) after ``fast``.  With
    ``slow`` far beyond the reliable-broadcast completion time, every process
    fills its report/witness thresholds from its own camp first and stalls on
    the cross-camp reports — the partition shapes *when* each witness wait
    completes, maximally staggering decision times across the cut.

    Because a witness sample is the set of reliably-delivered values at the
    moment the witness condition fires — a set that only grows, and that is
    complete long before any cross-camp report lands — the schedule provably
    does *not* shape which values are sampled (``shapes_witness_samples`` is
    ``False``): the round-level witness form keeps its full-delivery
    schedule, and the event simulator under this model agrees with it
    exactly (``tests/sim/test_witness_partition.py``).  This is the
    delay-model-shaped witness adversary family the sweep exposes as
    ``"witness-partition"``.
    """

    stateless = True

    def __init__(
        self,
        camp_a: Iterable[int],
        fast: float = 1.0,
        slow: float = 200.0,
        report_kinds: Sequence[str] = ("REPORT",),
    ) -> None:
        if fast <= 0 or slow <= 0:
            raise ValueError("delays must be positive")
        self.camp_a = frozenset(camp_a)
        self.fast = fast
        self.slow = slow
        self.report_kinds = tuple(report_kinds)
        # The sample-invariance proof in the class docstring holds only when
        # nothing but the report exchange is slowed; a model configured to
        # delay sample-bearing kinds (RBC sub-messages, VALUE rounds) shapes
        # witness samples like any other delay model.
        self.shapes_witness_samples = not set(self.report_kinds) <= {"REPORT"}

    def delay(self, sender: int, recipient: int, message: Message, now: float) -> float:
        if message.kind not in self.report_kinds:
            return self.fast
        same_camp = (sender in self.camp_a) == (recipient in self.camp_a)
        return self.fast if same_camp else self.slow

    def tensor_key(self) -> tuple:
        # The full parameter set: two instances are one program only when
        # every delay they can produce agrees.  (With the default REPORT-only
        # kinds the round-level VALUE ranking is constant-fast regardless of
        # camps, but the grouping contract must hold for every configuration.)
        return (
            "partition-report",
            tuple(sorted(self.camp_a)),
            self.fast,
            self.slow,
            self.report_kinds,
        )


class SeededDelay(DelayModel):
    """Pseudo-random delays in ``[low, high]`` from a counter-based PRF.

    The stateless counterpart of
    :class:`~repro.net.network.UniformRandomDelay`: instead of drawing from a
    sequential RNG stream (whose answers depend on query *order*), every
    ``(round, recipient, sender)`` triple maps to one 64-bit mix — the same
    MurmurHash3-finalizer key schedule as :class:`SeededOmission`, on the
    decorrelated :data:`DELAY_STREAM` — scaled into ``[low, high]``.  Two
    consequences:

    * the event simulator and the round-level engines see the *same* delay
      for the same (round, sender, recipient) probe, so
      :class:`DelayRankOmission` over this model ranks exactly as the event
      scheduler would order arrivals;
    * :meth:`delay_tensor` answers a whole round of a whole block of
      executions in one bulk query, which is what lets the vectorised batch
      engine (:mod:`repro.sim.ndbatch`) run randomised-delay scenarios with
      zero per-recipient Python quorum calls.

    Repeated messages of one (round, sender, recipient) triple — e.g. the
    reliable-broadcast sub-messages of the witness protocol, which carry no
    round field and fall into the round-0 slot — share a delay, which is a
    legal (deterministic) adversarial schedule.
    """

    stateless = True

    def __init__(self, low: float = 0.5, high: float = 1.5, seed: int = 0) -> None:
        if low <= 0 or high < low:
            raise ValueError("require 0 < low <= high")
        self.low = float(low)
        self.high = float(high)
        self.seed = int(seed)
        self._seed_mix = mix64(self.seed ^ DELAY_STREAM)

    def delay(self, sender: int, recipient: int, message: Message, now: float) -> float:
        round_number = message.round if message.round is not None else 0
        key = mix64(
            self._seed_mix
            ^ (round_number * KEY_ROUND)
            ^ (recipient * KEY_RECIPIENT)
            ^ (sender * KEY_SENDER)
        )
        return self.low + (self.high - self.low) * (key * 2.0**-64)

    def tensor_key(self) -> tuple:
        return ("seeded-delay", self.low, self.high)

    def tensor_seed(self) -> int:
        return self._seed_mix

    def delay_tensor(self, round_number: int, n: int, seed_mix):
        """Whole-block delay tensor ``delays[e, recipient, sender]``.

        Vectorised over the per-execution seed axis; every row is
        bit-identical to probing :meth:`delay` pair by pair.  Requires numpy.
        """
        import numpy as np

        recipients = np.arange(n, dtype=np.uint64) * np.uint64(KEY_RECIPIENT)
        senders = np.arange(n, dtype=np.uint64) * np.uint64(KEY_SENDER)
        keys = _np_mix64(
            np.asarray(seed_mix, dtype=np.uint64)[:, None, None]
            ^ np.uint64((round_number * KEY_ROUND) & MASK64)
            ^ recipients[None, :, None]
            ^ senders[None, None, :]
        )
        return self.low + (self.high - self.low) * (keys.astype(np.float64) * 2.0**-64)


# ----------------------------------------------------------------------
# Round-level adversary adapters (batch engine)
# ----------------------------------------------------------------------
#
# The round-level batch engine (:mod:`repro.sim.batch`) never schedules
# individual messages, so the three adversary powers must be re-expressed at
# round granularity:
#
# * message scheduling becomes an :class:`OmissionPolicy` — for every
#   (round, recipient) it decides *which* senders' values fill the quorum;
# * fault selection and Byzantine behaviour become a :class:`RoundFaultModel`
#   — per-process crash rounds (with mid-multicast prefixes), equivocating
#   value strategies, silent processes and corrupted inputs.
#
# :func:`round_fault_model` and :class:`DelayRankOmission` translate the
# *message-level* specs above (fault plans, delay models) into these
# round-level forms, so one adversary description drives both engines.


class OmissionPolicy(abc.ABC):
    """Round-level message-scheduling adversary.

    For every (round, recipient) pair the policy chooses which ``m`` of the
    candidate senders fill the recipient's quorum; the remaining candidates
    are "late" — their messages exist but arrive after the quorum is full,
    which is all the asynchronous model lets an adversary do to an honest
    message.  Any answer is a legal asynchronous schedule, so the protocol
    guarantees must hold for every policy.
    """

    @abc.abstractmethod
    def quorum(
        self, round_number: int, recipient: int, candidates: Sequence[int], m: int
    ) -> Sequence[int]:
        """Choose ``m`` distinct senders from ``candidates`` (sorted by id)."""

    def tensor_key(self) -> Optional[tuple]:
        """Hashable fault-program identity of this policy, or ``None``.

        Mirrors :meth:`ByzantineValueStrategy.tensor_key`: policies sharing a
        key realise the same quorum program, with per-execution variation
        carried entirely by the PRF seed (:meth:`tensor_seed`), so one
        representative answers :meth:`rank_tensor` for a whole execution
        block.  ``None`` (the default) means no tensor form: the batch and
        event engines still run the policy through :meth:`quorum`, and the
        vectorised engine refuses it.
        """
        return None

    def tensor_seed(self) -> int:
        """Per-execution pre-mixed PRF seed consumed by :meth:`rank_tensor`."""
        return 0

    def rank_tensor(self, round_number: int, n: int, seed_mix):
        """Whole-block rank tensor ``rank[e, recipient, sender]``.

        ``seed_mix`` is a length-``E`` uint64 vector of per-execution seeds
        (:meth:`tensor_seed`); the result has shape ``(E, n, n)``.  Row ``e``
        ranks the senders the way :meth:`quorum` chooses them for the
        execution it describes: for every recipient ``q`` and candidate set
        ``C``, ``quorum(round_number, q, C, m)`` equals the ``m`` elements of
        ``C`` with the smallest ``(rank[e, q, s], s)`` pairs.  Integer ranks
        compare exactly; other ranks compare as ``float64``, so they should
        be exactly representable as doubles.  Returns ``None`` when the
        policy has no tensor form.  Requires numpy.
        """
        return None

    def reset(self) -> None:
        """Reset internal state before a fresh execution (optional)."""

    def describe(self) -> str:
        return type(self).__name__


#: 64-bit mask and the multiplicative constants of the MurmurHash3 finalizer.
#: These are shared, by name, with the numpy reimplementation in
#: :mod:`repro.sim.ndbatch`; the two implementations must agree bit for bit
#: (guarded by ``tests/sim/test_ndbatch.py``).
MASK64 = (1 << 64) - 1
MIX64_MULT1 = 0xFF51AFD7ED558CCD
MIX64_MULT2 = 0xC4CEB9FE1A85EC53
#: Odd constants decorrelating the (seed, round, recipient, sender) axes of
#: the quorum rank keys before mixing.
KEY_ROUND = 0x9E3779B97F4A7C15
KEY_RECIPIENT = 0xC2B2AE3D27D4EB4F
KEY_SENDER = 0x165667B19E3779F9
#: Stream constants xor-folded into the seed so that the three counter-based
#: PRF families — quorum rank keys (:class:`SeededOmission`), Byzantine value
#: draws (:class:`RandomValueStrategy`) and delay draws (:class:`SeededDelay`)
#: — are decorrelated even when built from the same scenario seed.
VALUE_STREAM = 0xA24BAED4963EE407
DELAY_STREAM = 0x9FB21C651E98DF25


def mix64(x: int) -> int:
    """The 64-bit MurmurHash3 finalizer (a strong, invertible bit mixer)."""
    x &= MASK64
    x = ((x ^ (x >> 33)) * MIX64_MULT1) & MASK64
    x = ((x ^ (x >> 33)) * MIX64_MULT2) & MASK64
    return x ^ (x >> 33)


def _np_mix64(x, scratch=None):
    """Vectorised :func:`mix64` over numpy uint64 arrays — the single array
    implementation behind every PRF tensor (rank keys, value draws, delay
    draws), bit-identical to the scalar mixer by construction (numpy's
    uint64 arithmetic wraps modulo 2**64, like the scalar mixer's masks).

    ``x`` is a uint64 array the caller owns: it is mixed in place and
    returned.  ``scratch``, a uint64 array of ``x``'s shape, holds the
    shifted copies; it is allocated when omitted, so a caller mixing many
    equal-shaped arrays passes one and the mix allocates nothing.
    """
    import numpy as np

    shift = np.uint64(33)
    if scratch is None:
        scratch = np.empty_like(x)
    for multiplier in (MIX64_MULT1, MIX64_MULT2):
        np.right_shift(x, shift, out=scratch)
        x ^= scratch
        x *= np.uint64(multiplier)
    np.right_shift(x, shift, out=scratch)
    x ^= scratch
    return x


#: The low bits of every rank key hold the sender id (see below).
SENDER_BITS = 16
SENDER_MASK = (1 << SENDER_BITS) - 1


def seeded_rank_key(seed_mix: int, round_number: int, recipient: int, sender: int) -> int:
    """Rank key of ``sender`` for ``(round, recipient)`` under :class:`SeededOmission`.

    ``seed_mix`` is ``mix64(seed)``, precomputed once per execution.  The key
    schedule is a two-stage counter-based PRF: one mix combines the round and
    recipient, a second mixes in the sender.  The low :data:`SENDER_BITS`
    bits of the mixed value are then *replaced by the sender id*, which makes
    every key in a ``(round, recipient)`` row unique by construction: sorting
    by key alone is a total order with the by-sender tie-break built in, so
    selection needs no stable sort and no tuple keys — on either engine.

    Being a pure function of its arguments (no RNG stream), the same formula
    is evaluated per scalar here and over whole
    ``(executions, recipients, senders)`` tensors in
    :mod:`repro.sim.ndbatch`, which is what lets the numpy engine reproduce
    the Python engine's quorums exactly.
    """
    slot = mix64(seed_mix ^ (round_number * KEY_ROUND) ^ (recipient * KEY_RECIPIENT))
    return (mix64(slot ^ (sender * KEY_SENDER)) & ~SENDER_MASK) | sender


def seeded_rank_key_block(seed_mix, round_number: int, n: int, out=None):
    """Vectorised :func:`seeded_rank_key` over whole key matrices (numpy).

    ``seed_mix`` is a pre-mixed seed — a scalar or an array of any shape —
    and the result has shape ``seed_mix.shape + (n, n)`` with
    ``keys[..., recipient, sender]`` equal to the scalar function bit for
    bit (guarded by ``tests/sim/test_ndbatch.py``).  This is the single
    vectorised implementation of the PRF: :class:`SeededOmission`'s
    per-round key cache evaluates it for one seed, the ndbatch engine for
    slabs of a block's seeds — keeping the two engines' quorums identical
    by construction rather than by parallel maintenance.

    ``out``, when given, is a pair ``(keys, scratch)`` of C-contiguous
    uint64 arrays of the result's shape: the keys are computed in place in
    ``keys``, which is returned, and ``scratch`` is overwritten.  A caller
    walking a block slab by slab passes the same two buffers every time, so
    the PRF allocates nothing of the key matrices' size.

    Requires numpy (imported lazily; scalar callers fall back to
    :func:`seeded_rank_key`).
    """
    import numpy as np

    if n > SENDER_MASK:
        raise ValueError(
            f"quorum rank keys embed the sender id in {SENDER_BITS} bits; "
            f"n={n} processes exceed that"
        )
    seed = np.asarray(seed_mix, dtype=np.uint64)
    if out is None:
        keys = np.empty(seed.shape + (n, n), dtype=np.uint64)
        scratch = np.empty_like(keys)
    else:
        keys, scratch = out
    round_part = np.uint64((round_number * KEY_ROUND) & MASK64)
    recipients = np.arange(n, dtype=np.uint64) * np.uint64(KEY_RECIPIENT)
    senders = np.arange(n, dtype=np.uint64) * np.uint64(KEY_SENDER)
    slot = _np_mix64(seed[..., None] ^ round_part ^ recipients)
    np.bitwise_xor(slot[..., :, None], senders, out=keys)
    _np_mix64(keys, scratch)
    keys &= np.uint64(MASK64 ^ SENDER_MASK)
    keys |= np.arange(n, dtype=np.uint64)
    return keys


class SeededOmission(OmissionPolicy):
    """Pseudo-random quorum composition from an explicit seed.

    Every ``(round, recipient, sender)`` triple is assigned a 64-bit rank key
    by a counter-based PRF (:func:`seeded_rank_key`); the quorum is the ``m``
    candidates with the smallest keys.  Because the keys are a pure function
    of ``(seed, round, recipient, sender)``, identical seeds reproduce
    identical quorum sequences regardless of query order — a strictly
    stronger form of the determinism guarantee the sweep pool rests on — and
    the numpy batch engine can evaluate the same keys for whole execution
    blocks at once.  ``reset`` is a no-op (the policy's answers are a pure
    function; the only internal state is a per-round key cache).

    The engines query all ``n`` recipients of a round back to back, so the
    policy computes the round's whole key matrix once and answers each quorum
    with a C-level keyed sort — this path has to stay cheap because it *is*
    the hot loop of :mod:`repro.sim.batch`.

    ``use_numpy`` selects how the key matrix is computed: ``None`` (default)
    uses numpy when importable and falls back to scalar Python otherwise;
    ``False`` forces the scalar path (the truly numpy-free configuration —
    what :mod:`repro.sim.batch` amounts to on machines without numpy, and
    the baseline the engine benchmarks quote); ``True`` requires numpy.  The
    computed keys are bit-identical either way.
    """

    def __init__(self, seed: int = 0, use_numpy: Optional[bool] = None) -> None:
        self.seed = int(seed)
        self.use_numpy = use_numpy
        self._seed_mix = mix64(self.seed)
        self._cached_round: Optional[int] = None
        self._cached_size = 0
        self._cached_keys: List[List[int]] = []

    def _round_keys(self, round_number: int, size: int) -> List[List[int]]:
        """Key matrix ``keys[recipient][sender]`` for one round.

        Keys do not depend on the matrix size, so a larger cached matrix
        serves smaller queries; the cache is refreshed when the round changes
        or a bigger process id appears.
        """
        if self._cached_round != round_number or self._cached_size < size:
            self._cached_keys = self._compute_keys(round_number, size)
            self._cached_round = round_number
            self._cached_size = size
        return self._cached_keys

    def _compute_keys(self, round_number: int, size: int) -> List[List[int]]:
        if size > SENDER_MASK:
            raise ValueError(
                f"SeededOmission rank keys embed the sender id in {SENDER_BITS} "
                f"bits; n={size} processes exceed that"
            )
        if self.use_numpy is False:
            np = None
        else:
            try:
                import numpy as np
            except ImportError:
                np = None
                if self.use_numpy:
                    raise ValueError("use_numpy=True but numpy is not importable")
        if np is None:
            seed_mix = self._seed_mix
            return [
                [
                    seeded_rank_key(seed_mix, round_number, recipient, sender)
                    for sender in range(size)
                ]
                for recipient in range(size)
            ]
        # Derived from the tensor path — a one-execution block, its only row
        # sliced out — so this cache and the ndbatch engine share one PRF
        # implementation and stay bit-identical by construction.
        seeds = np.asarray([self._seed_mix], dtype=np.uint64)
        return self.rank_tensor(round_number, size, seeds)[0].tolist()

    def quorum(
        self, round_number: int, recipient: int, candidates: Sequence[int], m: int
    ) -> Sequence[int]:
        size = max(recipient, max(candidates)) + 1 if candidates else recipient + 1
        keys = self._round_keys(round_number, size)[recipient]
        # Keys embed the sender id in their low bits (seeded_rank_key), so
        # they are unique within the row and sorting by key alone is already
        # the full (PRF value, sender) order — no tuples, no stability needed.
        return sorted(candidates, key=keys.__getitem__)[:m]

    def tensor_key(self) -> tuple:
        return ("seeded-omission",)

    def tensor_seed(self) -> int:
        return self._seed_mix

    def rank_tensor(self, round_number: int, n: int, seed_mix):
        """Whole-block uint64 rank keys (see :func:`seeded_rank_key_block`).

        Keys embed the sender id in their low :data:`SENDER_BITS` bits, so
        rows are tie-free and sorting key values alone is quorum selection.
        """
        return seeded_rank_key_block(seed_mix, round_number, n)

    def reset(self) -> None:
        return None

    def describe(self) -> str:
        return f"SeededOmission(seed={self.seed})"


class DelayRankOmission(OmissionPolicy):
    """Quorums filled by the ``m`` candidates with the smallest modelled delays.

    This is the round-level shadow of running the event simulator under
    ``delay_model``: when every sender multicasts its round-``r`` value at
    (approximately) the same instant, the first ``m`` arrivals at a recipient
    are exactly the ``m`` senders with the smallest delays.  Ties break by
    sender identifier, matching the deterministic tie-breaking of the event
    scheduler under constant delays.  Adversarial delay models such as
    :class:`PartitionDelay`, :class:`LaggardDelay` and
    :class:`StaggeredExclusionDelay` therefore shape batch-engine quorums the
    same way they shape event-simulator quorums.
    """

    def __init__(self, delay_model: DelayModel) -> None:
        self.delay_model = delay_model

    def quorum(
        self, round_number: int, recipient: int, candidates: Sequence[int], m: int
    ) -> Sequence[int]:
        probe = Message(kind="VALUE", round=round_number, value=0.0)
        now = float(round_number)
        ranked = sorted(
            candidates,
            key=lambda sender: (self.delay_model.delay(sender, recipient, probe, now), sender),
        )
        return ranked[:m]

    def tensor_key(self) -> Optional[tuple]:
        key = self.delay_model.tensor_key()
        return None if key is None else ("delay-rank",) + key

    def tensor_seed(self) -> int:
        return self.delay_model.tensor_seed()

    def rank_tensor(self, round_number: int, n: int, seed_mix):
        """Whole-block delay tensor as ranks (see :meth:`DelayModel.delay_tensor`).

        One bulk query answers every quorum of the round for a whole block of
        executions: deterministic models probe their ``n × n`` matrix once
        and broadcast, PRF models (:class:`SeededDelay`) vectorise over the
        seed axis.
        """
        return self.delay_model.delay_tensor(round_number, n, seed_mix)

    def reset(self) -> None:
        self.delay_model.reset()

    def describe(self) -> str:
        return f"DelayRankOmission({type(self.delay_model).__name__})"


@dataclass(frozen=True)
class RoundFaultModel:
    """Round-level description of an execution's faults.

    Attributes
    ----------
    crash_schedule:
        Maps a crash-faulty process id to ``(crash_round, deliveries)``: the
        process behaves honestly in rounds before ``crash_round``, its
        round-``crash_round`` multicast reaches only recipients with
        identifiers below ``deliveries`` (multicasts send in increasing
        recipient order), and it is silent afterwards.
    strategies:
        Maps a Byzantine process id to the :class:`ByzantineValueStrategy`
        deciding the (possibly equivocated) value it reports per
        (round, recipient).
    silent:
        Byzantine processes that never send anything.
    corrupted_inputs:
        Byzantine processes that follow the honest protocol but start from a
        forged input value.  The value must be finite: the message-level
        skeletons drop a non-finite payload at the receiver, which no
        round-level engine models, so a non-finite forged input raises
        ``ValueError`` (and :func:`round_fault_model` with it, which leaves
        such plans to the event simulator).
    """

    crash_schedule: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    strategies: Dict[int, ByzantineValueStrategy] = field(default_factory=dict)
    silent: frozenset = frozenset()
    corrupted_inputs: Dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for pid, forged in self.corrupted_inputs.items():
            if not math.isfinite(forged):
                raise ValueError(
                    f"process {pid}'s forged input {forged!r} is not finite; "
                    "the round-level fault model takes finite forged inputs only"
                )

    def faulty_ids(self, n: int) -> Tuple[int, ...]:
        ids = set(self.crash_schedule) | set(self.strategies) | set(self.silent)
        ids |= set(self.corrupted_inputs)
        return tuple(sorted(pid for pid in ids if pid < n))

    def byzantine_ids(self, n: int) -> Tuple[int, ...]:
        ids = set(self.strategies) | set(self.silent) | set(self.corrupted_inputs)
        return tuple(sorted(pid for pid in ids if pid < n))

    def describe(self) -> str:
        parts = []
        for pid, (round_number, deliveries) in sorted(self.crash_schedule.items()):
            parts.append(f"P{pid}:crash@r{round_number}+{deliveries}")
        for pid, strategy in sorted(self.strategies.items()):
            parts.append(f"P{pid}:{strategy.describe()}")
        for pid in sorted(self.silent):
            parts.append(f"P{pid}:silent")
        for pid, forged in sorted(self.corrupted_inputs.items()):
            parts.append(f"P{pid}:input={forged}")
        return "RoundFaultModel(" + ", ".join(parts) + ")"


def round_fault_model(fault_plan: Optional[FaultPlan], n: int) -> RoundFaultModel:
    """Translate a message-level :class:`FaultPlan` into a :class:`RoundFaultModel`.

    Supports every fault plan shipped with the library — crash plans
    (including mid-multicast crash points), Byzantine plans built from
    :class:`RoundEchoByzantine`, :class:`SilentProcess` or
    :class:`HonestWithCorruptedInput`, and compositions thereof.  A plan the
    adapter cannot interpret raises :class:`ValueError`; callers with custom
    behaviours can construct a :class:`RoundFaultModel` directly instead.
    """
    if fault_plan is None:
        return RoundFaultModel()

    crash_schedule: Dict[int, Tuple[int, int]] = {}
    strategies: Dict[int, ByzantineValueStrategy] = {}
    silent: Set[int] = set()
    corrupted_inputs: Dict[int, float] = {}

    # Pre-order over an explicit stack (a recursive closure is a reference
    # cycle), so a later sub-plan overrides an earlier one's entry.
    pending = [fault_plan]
    while pending:
        plan = pending.pop()
        if isinstance(plan, NoFaults):
            continue
        if isinstance(plan, ComposedFaultPlan):
            pending.extend(reversed(plan.plans))
        elif isinstance(plan, CrashFaultPlan):
            for pid, point in plan.crash_points.items():
                if pid >= n or point.after_sends is None:
                    continue
                crash_round, deliveries = divmod(point.after_sends, n)
                crash_schedule[pid] = (crash_round + 1, deliveries)
        elif isinstance(plan, ByzantineFaultPlan):
            for pid, behaviour in plan.behaviours.items():
                if pid >= n:
                    continue
                if isinstance(behaviour, RoundEchoByzantine):
                    strategies[pid] = behaviour.strategy
                elif isinstance(behaviour, SilentProcess):
                    silent.add(pid)
                elif isinstance(behaviour, HonestWithCorruptedInput):
                    forged = getattr(behaviour.inner, "input_value", None)
                    if forged is None:
                        raise ValueError(
                            "cannot adapt HonestWithCorruptedInput: the wrapped process "
                            "exposes no input_value"
                        )
                    corrupted_inputs[pid] = float(forged)
                else:
                    raise ValueError(
                        f"cannot adapt Byzantine behaviour {behaviour.describe()!r} to the "
                        "round level; build a RoundFaultModel directly"
                    )
        else:
            raise ValueError(
                f"cannot adapt fault plan {plan.describe()!r} to the round level; "
                "build a RoundFaultModel directly"
            )
    return RoundFaultModel(
        crash_schedule=crash_schedule,
        strategies=strategies,
        silent=frozenset(silent),
        corrupted_inputs=corrupted_inputs,
    )
