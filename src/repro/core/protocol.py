"""Round-based protocol skeletons.

All the direct (non-witness) approximate-agreement algorithms share the same
skeleton and differ only in three parameters — how many values to collect per
round, how many extremes to discard, and the selection stride — so the
skeleton lives here once and the concrete algorithms are thin subclasses.

Two skeletons are provided:

:class:`AsyncRoundProcess`
    The asynchronous skeleton.  In round ``r`` a process multicasts its
    current value tagged ``r``, waits until it holds round-``r`` values from
    ``quorum_size`` distinct processes (messages for future rounds are
    buffered), applies its approximation function to the first
    ``quorum_size`` values received, and moves to round ``r + 1``.  It decides
    after the number of rounds dictated by its :class:`~repro.core.termination.RoundPolicy`.

:class:`SyncRoundProcess`
    The synchronous (lockstep) skeleton, used by the baselines: a round ends
    when the runner says so (``on_round_timeout``), and missing values are
    substituted by the receiver's own value so that samples always have size
    ``n``.

The skeletons implement the halted-process echo mechanism (``HALT`` messages)
used by adaptive round policies: a process that has decided multicasts its
final value once, and other processes substitute that value for the halted
process in every later round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.rounds import AlgorithmBounds, approximation_step
from repro.core.termination import FixedRounds, RoundPolicy
from repro.net.interfaces import Process, ProcessContext
from repro.net.message import Message

__all__ = ["ProtocolConfig", "ResilienceError", "AsyncRoundProcess", "SyncRoundProcess"]


VALUE_KIND = "VALUE"
HALT_KIND = "HALT"


class ResilienceError(ValueError):
    """Raised when ``(n, t)`` violates an algorithm's resilience condition."""


@dataclass(frozen=True)
class ProtocolConfig:
    """Static configuration shared by every process of one execution.

    Attributes
    ----------
    n, t:
        System size and the fault threshold the execution must tolerate.
    epsilon:
        Required output agreement.
    round_policy:
        When to stop (see :mod:`repro.core.termination`).
    strict:
        When true (the default), constructing a process whose ``(n, t)``
        violates the algorithm's resilience condition raises
        :class:`ResilienceError`.  The resilience-threshold benchmark sets
        this to ``False`` in order to demonstrate what goes wrong beyond the
        threshold.
    """

    n: int
    t: int
    epsilon: float
    round_policy: RoundPolicy = field(default_factory=lambda: FixedRounds(10))
    strict: bool = True

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be positive")
        if not 0 <= self.t < self.n:
            raise ValueError("t must satisfy 0 <= t < n")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


class _RoundProtocolBase(Process):
    """State and helpers shared by the async and sync skeletons."""

    def __init__(self, input_value: float, config: ProtocolConfig) -> None:
        self.config = config
        self.input_value = float(input_value)
        self.current_value = float(input_value)
        self.current_round = 1
        self.total_rounds: Optional[int] = None
        self.rounds_completed = 0
        self.value_history: List[float] = [self.current_value]
        self._received: Dict[int, Dict[int, float]] = {}
        self._halted_peers: Dict[int, float] = {}
        self._started = False
        self._decided = False

        bounds = self.algorithm_bounds()
        if config.strict and not bounds.resilience_ok:
            raise ResilienceError(
                f"{bounds.name} does not tolerate t={config.t} faults with n={config.n}"
            )

    # ------------------------------------------------------------------
    # Subclass interface
    # ------------------------------------------------------------------

    def algorithm_bounds(self) -> AlgorithmBounds:
        """Closed-form parameters of the algorithm (subclasses override)."""
        raise NotImplementedError

    def update_value(self, sample: List[float]) -> float:
        """Approximation function applied to the collected ``sample``.

        Delegates to the pure :func:`repro.core.rounds.approximation_step`
        that the round-level batch engine shares, so both engines apply the
        same update rule by construction.
        """
        return approximation_step(sample, self.algorithm_bounds())

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------

    @property
    def decided(self) -> bool:
        return self._decided

    def _rounds_upfront(self) -> Optional[int]:
        """Round count if the policy can compute it before the first sample."""
        bounds = self.algorithm_bounds()
        try:
            return self.config.round_policy.required_rounds(
                bounds.contraction, self.config.epsilon, None
            )
        except TypeError:
            return None

    def _store_value(self, sender: int, message: Message) -> None:
        if message.round is None or not isinstance(message.value, (int, float)):
            return
        # NaN/inf payloads can only come from a faulty sender (the honest
        # update rule preserves finiteness); treat them as omissions so they
        # can never poison the multiset machinery.
        if not math.isfinite(message.value):
            return
        bucket = self._received.setdefault(message.round, {})
        # Only the first value from each sender counts; authenticated channels
        # attribute every message to its true sender, so a Byzantine process
        # cannot vote twice in a round.
        bucket.setdefault(sender, float(message.value))

    def _store_halt(self, sender: int, message: Message) -> None:
        if isinstance(message.value, (int, float)) and math.isfinite(message.value):
            self._halted_peers.setdefault(sender, float(message.value))

    def _finish_round(self, ctx: ProcessContext, sample: List[float]) -> None:
        """Apply the update rule, decide or advance to the next round."""
        round_number = self.current_round
        self.current_value = self.update_value(sample)
        self.rounds_completed = round_number
        self.value_history.append(self.current_value)

        if self.total_rounds is None:
            bounds = self.algorithm_bounds()
            self.total_rounds = self.config.round_policy.required_rounds(
                bounds.contraction, self.config.epsilon, sample
            )

        if round_number >= self.total_rounds:
            self._decide(ctx, self.current_value)
            return

        self.current_round = round_number + 1
        ctx.multicast(Message(kind=VALUE_KIND, round=self.current_round, value=self.current_value))

    def _decide(self, ctx: ProcessContext, value: float) -> None:
        if self._decided:
            return
        self._decided = True
        ctx.output(value)
        if self.config.round_policy.echo_on_halt:
            ctx.multicast(Message(kind=HALT_KIND, value=value))
        ctx.halt()

    def describe(self) -> str:
        bounds = self.algorithm_bounds()
        return f"{type(self).__name__}(pid={self.process_id}, n={bounds.n}, t={bounds.t})"


class AsyncRoundProcess(_RoundProtocolBase):
    """Asynchronous round-based skeleton (quorum-driven round advancement)."""

    @property
    def quorum_size(self) -> int:
        """Number of round-``r`` values to collect before ending round ``r``."""
        return self.algorithm_bounds().sample_size

    def on_start(self, ctx: ProcessContext) -> None:
        self._started = True
        self.total_rounds = self._rounds_upfront()
        if self.total_rounds == 0:
            self._decide(ctx, self.current_value)
            return
        ctx.multicast(Message(kind=VALUE_KIND, round=1, value=self.current_value))
        # Values that arrived before the start may already fill round 1.
        self._advance_while_possible(ctx)

    def on_message(self, ctx: ProcessContext, sender: int, message: Message) -> None:
        if self._decided:
            return
        if message.kind == VALUE_KIND:
            self._store_value(sender, message)
        elif message.kind == HALT_KIND:
            self._store_halt(sender, message)
        else:
            return
        self._advance_while_possible(ctx)

    def _advance_while_possible(self, ctx: ProcessContext) -> None:
        if not self._started:
            return  # values are stored until on_start
        while not self._decided:
            sample = self._try_collect_sample(self.current_round)
            if sample is None:
                return
            self._finish_round(ctx, sample)

    def _try_collect_sample(self, round_number: int) -> Optional[List[float]]:
        """The first ``quorum_size`` round-``r`` values, or ``None`` if not there yet.

        Values arrive either as explicit round-``r`` ``VALUE`` messages (taken
        in arrival order, matching the "first ``n − t`` values" rule of the
        algorithm) or as substitutions for processes that have halted and
        echoed their final value.
        """
        explicit = self._received.get(round_number, {})
        fillers = [
            value for pid, value in sorted(self._halted_peers.items()) if pid not in explicit
        ]
        if len(explicit) + len(fillers) < self.quorum_size:
            return None
        sample = list(explicit.values())[: self.quorum_size]
        for value in fillers:
            if len(sample) >= self.quorum_size:
                break
            sample.append(value)
        return sample


class SyncRoundProcess(_RoundProtocolBase):
    """Synchronous (lockstep) round-based skeleton.

    The lockstep runner (:class:`repro.sim.runner.LockstepRunner`) guarantees
    that every round-``r`` message of a non-crashed sender is delivered before
    it ends round ``r`` by calling :meth:`on_round_timeout`.  Missing senders
    (crashed, Byzantine-and-silent) are substituted by the receiver's own
    current value so that the sample always has size ``n``.
    """

    def on_start(self, ctx: ProcessContext) -> None:
        self.total_rounds = self._rounds_upfront()
        if self.total_rounds == 0:
            self._decide(ctx, self.current_value)
            return
        ctx.multicast(Message(kind=VALUE_KIND, round=1, value=self.current_value))

    def on_message(self, ctx: ProcessContext, sender: int, message: Message) -> None:
        if self._decided:
            return
        if message.kind == VALUE_KIND:
            self._store_value(sender, message)
        elif message.kind == HALT_KIND:
            self._store_halt(sender, message)

    def on_round_timeout(self, ctx: ProcessContext, round_number: int) -> None:
        if self._decided or round_number != self.current_round:
            return
        received = self._received.get(round_number, {})
        sample = [
            received.get(pid, self._halted_peers.get(pid, self.current_value))
            for pid in range(self.config.n)
        ]
        self._finish_round(ctx, sample)
