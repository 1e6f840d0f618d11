"""Witness-technique asynchronous Byzantine approximate agreement (``t < n/3``).

The direct asynchronous Byzantine algorithm (:mod:`repro.core.async_byzantine`)
needs ``n > 5t`` because a Byzantine process can tell different honest
processes different values *and* the asynchrony lets the adversary feed
different honest processes different ``n − t`` subsets.  The follow-on line of
work that the paper founded removes the first power with **reliable
broadcast** and tames the second with the **witness technique**, reaching the
optimal resilience ``t < n/3`` at the price of ``Θ(n³)`` messages per
iteration.  This module implements that protocol so the library covers the
full resilience/communication trade-off (benchmarks E4 and E5).

One iteration ``i`` of the protocol, for a process with current value ``v``:

1. **Reliable broadcast** — broadcast ``v`` with Bracha's protocol
   (:mod:`repro.net.rbc`), so every honest process that delivers this
   process's iteration-``i`` value delivers the *same* value.
2. **Report** — once values from ``n − t`` distinct originators have been
   delivered, multicast the set of originator identifiers delivered so far
   (the *report*).
3. **Witnesses** — a process ``p`` becomes a *witness* for ``q`` once ``q``
   has delivered every value listed in ``p``'s report.  Wait for ``n − t``
   witnesses.
4. **Update** — let ``V`` be all values delivered so far (for iteration
   ``i``); adopt ``midpoint(reduce^t(V))`` and move to iteration ``i + 1``.

Why this works (full derivations in :mod:`repro.core.rounds`):

* any two honest processes have at least ``n − 2t ≥ t + 1`` witnesses in
  common, and any common witness's report is contained in both processes'
  delivered sets, so the two samples share at least ``n − t ≥ 2t + 1`` values;
* each sample contains at most ``t`` Byzantine values, so ``reduce^t`` keeps
  the update inside the honest range (validity);
* sharing ``2t + 1`` values makes the two reduced ranges overlap, and the
  midpoints of two overlapping sub-intervals of the honest range differ by at
  most half the honest diameter: a guaranteed ``1/2`` contraction per
  iteration.

The protocol is *live* rather than terminating: a process that has produced
its output keeps serving the reliable-broadcast and report machinery of the
current iteration so that slower processes can finish (the classical
formulation of the problem; runners stop the execution once every honest
process has output).  For this reason the round policy must be *uniform* —
every process must run the same number of iterations — which
:class:`~repro.core.termination.FixedRounds` and
:class:`~repro.core.termination.KnownRangeRounds` are.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.core.multiset import midpoint_of_reduced
from repro.core.protocol import ProtocolConfig, ResilienceError
from repro.core.rounds import AlgorithmBounds, witness_bounds
from repro.core.termination import RoundPolicy, default_round_policy
from repro.net.interfaces import Process, ProcessContext
from repro.net.message import Message, message_bits
from repro.net.rbc import RbcMultiplexer, echo_quorum

__all__ = [
    "WitnessProcess",
    "WitnessRoundTraffic",
    "make_witness_processes",
    "witness_round_traffic",
]


REPORT_KIND = "REPORT"

#: Distinct ``(n, t, round_number, participants)`` keys whose iteration
#: traffic :func:`witness_round_traffic` keeps; a sweep grid touches a few
#: dozen, so the bound only caps pathological callers.
ROUND_TRAFFIC_CACHE_SIZE = 1024


class WitnessProcess(Process):
    """One process of the witness-technique protocol."""

    def __init__(self, input_value: float, config: ProtocolConfig) -> None:
        self.config = config
        self.input_value = float(input_value)
        self.current_value = float(input_value)
        self.current_iteration = 1
        self.total_rounds: Optional[int] = None
        self.rounds_completed = 0
        self.value_history: List[float] = [self.current_value]
        self._decided = False

        bounds = self.algorithm_bounds()
        if config.strict and not bounds.resilience_ok:
            raise ResilienceError(
                f"witness protocol does not tolerate t={config.t} faults with n={config.n}"
            )
        if not config.round_policy.uniform:
            raise ValueError(
                "the witness protocol requires a uniform round policy "
                "(FixedRounds or KnownRangeRounds)"
            )

        self._rbc = RbcMultiplexer(n=config.n, t=config.t)
        # Per-iteration state, keyed by iteration number.
        self._delivered: Dict[int, Dict[int, float]] = {}
        self._reports: Dict[int, Dict[int, FrozenSet[int]]] = {}
        self._reported: Dict[int, bool] = {}

    # ------------------------------------------------------------------
    # Protocol parameters
    # ------------------------------------------------------------------

    def algorithm_bounds(self) -> AlgorithmBounds:
        return witness_bounds(self.config.n, self.config.t)

    @property
    def quorum_size(self) -> int:
        return self.config.n - self.config.t

    @property
    def decided(self) -> bool:
        return self._decided

    # ------------------------------------------------------------------
    # Process callbacks
    # ------------------------------------------------------------------

    def on_start(self, ctx: ProcessContext) -> None:
        bounds = self.algorithm_bounds()
        self.total_rounds = self.config.round_policy.required_rounds(
            bounds.contraction, self.config.epsilon, None
        )
        if self.total_rounds == 0:
            self._decide(ctx, self.current_value)
            return
        self._start_iteration(ctx, 1)
        # Broadcasts and reports that arrived before the start may already
        # complete iteration 1.
        self._advance_while_possible(ctx)

    def on_message(self, ctx: ProcessContext, sender: int, message: Message) -> None:
        # The reliable-broadcast layer and the report exchange keep running
        # even after this process has decided, so that slower processes can
        # complete their final iteration (liveness of the overall execution).
        # Only a delivered value or a new report can let the process advance;
        # every other message leaves its iteration as it is.
        if self._rbc.handles(message):
            try:
                delivery = self._rbc.handle(ctx, sender, message)
            except ValueError:
                return  # malformed broadcast message from a Byzantine sender
            if delivery is not None:
                self._on_rbc_deliver(ctx, *delivery)
                self._advance_while_possible(ctx)
            return

        if message.kind == REPORT_KIND and message.round is not None:
            if not isinstance(message.value, (tuple, list, frozenset, set)):
                return
            try:
                ids = frozenset(int(pid) for pid in message.value)
            except (TypeError, ValueError):
                return
            if not all(0 <= pid < self.config.n for pid in ids):
                return
            reports = self._reports.setdefault(message.round, {})
            if sender not in reports:
                reports[sender] = ids
                self._advance_while_possible(ctx)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _start_iteration(self, ctx: ProcessContext, iteration: int) -> None:
        self.current_iteration = iteration
        self._rbc.broadcast(ctx, iteration, self.current_value)

    def _on_rbc_deliver(
        self, ctx: ProcessContext, iteration: int, originator: int, value: object
    ) -> None:
        if not isinstance(value, (int, float)) or not isinstance(iteration, int):
            return
        delivered = self._delivered.setdefault(iteration, {})
        delivered.setdefault(originator, float(value))
        if len(delivered) >= self.quorum_size:
            self._maybe_send_report(ctx, iteration)

    def _maybe_send_report(self, ctx: ProcessContext, iteration: int) -> None:
        if self._reported.get(iteration):
            return
        self._reported[iteration] = True
        delivered_ids = tuple(sorted(self._delivered.get(iteration, {})))
        ctx.multicast(Message(kind=REPORT_KIND, round=iteration, value=delivered_ids))

    def _witness_count(self, iteration: int) -> int:
        delivered_ids = set(self._delivered.get(iteration, {}))
        reports = self._reports.get(iteration, {})
        return sum(1 for ids in reports.values() if ids <= delivered_ids)

    def _advance_while_possible(self, ctx: ProcessContext) -> None:
        if self.total_rounds is None:
            return  # not started: messages are stored until on_start
        while not self._decided:
            iteration = self.current_iteration
            delivered = self._delivered.get(iteration, {})
            if len(delivered) >= self.quorum_size:
                self._maybe_send_report(ctx, iteration)
            if len(delivered) < self.quorum_size:
                return
            if self._witness_count(iteration) < self.quorum_size:
                return
            sample = list(delivered.values())
            self.current_value = midpoint_of_reduced(sample, self.config.t)
            self.rounds_completed = iteration
            self.value_history.append(self.current_value)
            if iteration >= self.total_rounds:
                self._decide(ctx, self.current_value)
                return
            self._start_iteration(ctx, iteration + 1)

    def _decide(self, ctx: ProcessContext, value: float) -> None:
        if self._decided:
            return
        self._decided = True
        ctx.output(value)
        # Deliberately no ctx.halt(): the process keeps serving the reliable
        # broadcast and report machinery so that slower processes can finish.

    def describe(self) -> str:
        return f"WitnessProcess(pid={self.process_id}, n={self.config.n}, t={self.config.t})"


# ----------------------------------------------------------------------
# Round-level form (the batch engine's witness support)
# ----------------------------------------------------------------------
#
# One iteration of the protocol — n concurrent reliable broadcasts, the
# report exchange, the witness wait — collapses at round granularity into a
# *per-round quorum abstraction*: every process ends up applying
# ``midpoint ∘ reduce^t`` to some set of delivered values, and everything the
# message-level machinery guarantees is (a) no equivocation (each originator
# contributes ONE value per iteration), (b) every sample holds ≥ n − t
# values, and (c) any two honest samples share ≥ n − t values.  The batch
# engine (:func:`repro.sim.batch.run_batch_protocol` with
# ``protocol="witness"``) synthesises exactly the samples this family of
# legal schedules allows; the helpers below capture the parts of the
# message-level structure the round form must reproduce *exactly* — the
# traffic of one iteration run to quiescence.


@dataclass(frozen=True)
class WitnessRoundTraffic:
    """Message traffic of one witness iteration, run to quiescence.

    ``by_kind`` / ``bits_by_kind`` map message kinds to point-to-point send
    counts / total wire bits; ``sends_per_participant`` is every
    participant's own point-to-point send count; ``completes`` reports
    whether the iteration reaches the update step (enough participants for
    deliveries, reports and witnesses) or stalls forever.  Both mappings are
    read-only: :func:`witness_round_traffic` hands the same instance to every
    caller with the same key.
    """

    by_kind: Mapping[str, int]
    bits_by_kind: Mapping[str, int]
    sends_per_participant: int
    completes: bool

    @property
    def messages(self) -> int:
        return sum(self.by_kind.values())

    @property
    def bits(self) -> int:
        return sum(self.bits_by_kind.values())


def witness_round_traffic(
    n: int, t: int, round_number: int, participants: Sequence[int]
) -> WitnessRoundTraffic:
    """Exact traffic of witness iteration ``round_number`` at quiescence.

    ``participants`` are the processes alive for the whole iteration (honest
    and corrupted-input holders plus committed-value Byzantine senders);
    everybody else is silent.  Because honest processes keep serving the
    reliable-broadcast and report machinery after deciding, every instance of
    the iteration runs to completion and the totals are *schedule
    independent* — each participant reliably broadcasts once (one ``RBC_INIT``
    multicast), echoes and readies every participant's instance (one
    ``RBC_ECHO`` and one ``RBC_READY`` multicast per instance), and reports
    once — which is what lets the round-level engine charge them in closed
    form, exactly matching the event simulator run to quiescence (guarded by
    ``tests/sim/test_witness_batch_equivalence.py``).

    When fewer than ``n − t`` participants remain the iteration stalls: the
    echo stage still runs (every participant echoes every instance), the
    ready stage runs only if the echo quorum ``⌊(n + t)/2⌋ + 1`` is
    reachable, and no reports are ever sent (report payloads list the first
    ``n − t`` delivered originators, which at round level are the ``n − t``
    smallest participant ids — instances deliver in originator order under
    any uniform schedule).

    The result depends on nothing but those four values, so it is computed
    once per distinct ``(n, t, round_number, tuple(participants))`` and
    shared: a batch sweep re-runs the same few iterations in every cell.
    ``witness_round_traffic.cache_clear()`` empties the cache.
    """
    return _round_traffic(n, t, round_number, tuple(participants))


@lru_cache(maxsize=ROUND_TRAFFIC_CACHE_SIZE)
def _round_traffic(
    n: int, t: int, round_number: int, participants: Tuple[int, ...]
) -> WitnessRoundTraffic:
    count = len(participants)
    by_kind: Dict[str, int] = {}
    bits_by_kind: Dict[str, int] = {}
    if count == 0:
        return WitnessRoundTraffic(
            MappingProxyType(by_kind), MappingProxyType(bits_by_kind), 0, False
        )

    init_bits = sum(
        message_bits(Message(kind="RBC_INIT", value=0.0, tag=(round_number, s)))
        for s in participants
    )
    echo_bits = sum(
        message_bits(Message(kind="RBC_ECHO", value=0.0, tag=(round_number, s)))
        for s in participants
    )
    ready_bits = sum(
        message_bits(Message(kind="RBC_READY", value=0.0, tag=(round_number, s)))
        for s in participants
    )

    # Every participant multicasts one INIT; every participant echoes every
    # participant's instance (INIT bits are summed over originators, so the
    # per-originator tag sizes are exact).
    by_kind["RBC_INIT"] = count * n
    bits_by_kind["RBC_INIT"] = n * init_bits
    by_kind["RBC_ECHO"] = count * count * n
    bits_by_kind["RBC_ECHO"] = count * n * echo_bits
    sends = n + count * n

    readies = count >= echo_quorum(n, t)
    if readies:
        by_kind["RBC_READY"] = count * count * n
        bits_by_kind["RBC_READY"] = count * n * ready_bits
        sends += count * n

    completes = count >= n - t
    if completes:
        report_ids = tuple(sorted(participants)[: n - t])
        report_bits = message_bits(
            Message(kind=REPORT_KIND, round=round_number, value=report_ids)
        )
        by_kind[REPORT_KIND] = count * n
        bits_by_kind[REPORT_KIND] = count * n * report_bits
        sends += n

    return WitnessRoundTraffic(
        MappingProxyType(by_kind), MappingProxyType(bits_by_kind), sends, completes
    )


witness_round_traffic.cache_clear = _round_traffic.cache_clear


def make_witness_processes(
    inputs: Sequence[float],
    t: int,
    epsilon: float,
    round_policy: RoundPolicy = None,
    strict: bool = True,
) -> List[WitnessProcess]:
    """Build one :class:`WitnessProcess` per input value.

    The default round policy runs ``⌈log₂(spread/ε)⌉`` iterations, computed
    from the actual spread of ``inputs`` (which the caller knows anyway).
    """
    n = len(inputs)
    if round_policy is None:
        round_policy = default_round_policy(witness_bounds(n, t), inputs, epsilon)
    config = ProtocolConfig(n=n, t=t, epsilon=epsilon, round_policy=round_policy, strict=strict)
    return [WitnessProcess(value, config) for value in inputs]
