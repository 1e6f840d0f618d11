"""Round-level Monte-Carlo batch engine.

The discrete-event simulator (:mod:`repro.net.network`) schedules every
individual message, which is the right granularity for validating protocol
*mechanics* (quorum buffering, halt echoes, mid-multicast crashes observed by
some recipients and not others) but caps parameter sweeps at a few dozen
executions.  The round-based structure of the algorithms admits a much faster
execution model: in every asynchronous round each process ends up applying the
pure approximation step (:func:`repro.core.rounds.approximation_step`) to
*some* legal multiset of round-``r`` values, and everything the adversary can
do — delay, omit, crash mid-multicast, equivocate — only changes *which*
multiset that is.

This engine therefore advances all ``n`` processes one round at a time:

1. determine, per (sender, recipient), whether the sender's round-``r`` value
   can reach the recipient (crash schedule, silent processes);
2. let the :class:`~repro.net.adversary.OmissionPolicy` pick which ``m``
   candidates fill each recipient's quorum (asynchronous protocols) or
   substitute the recipient's own value for missing senders (synchronous
   protocols);
3. let each Byzantine :class:`~repro.net.adversary.ByzantineValueStrategy`
   inject its per-(round, recipient) value into the quorums that include it;
4. apply the shared approximation step to every collected view.

Because every quorum the engine synthesises is one the event simulator could
have produced under some schedule, the correctness guarantees (validity,
ε-agreement after the theoretically sufficient number of rounds) transfer
directly; ``tests/sim/test_batch_equivalence.py`` checks this differentially
against the event simulator on a seeded scenario grid.

The engine supports the four direct protocols (``async-crash``,
``async-byzantine``, ``sync-crash``, ``sync-byzantine``) under every round
policy, in one round loop (:func:`_run_rounds`): each value holder runs its
own round count, known before round 1 under an upfront policy (the default,
``FixedRounds``, ``KnownRangeRounds``) and derived from the holder's round-1
multiset under an adaptive one
(:class:`~repro.core.termination.SpreadEstimateRounds`, with halt-echo
substitution).  It also runs the witness protocol in its round-level form
(see below).

Witness protocol at round level
-------------------------------

One witness iteration — ``n`` concurrent reliable broadcasts, the report
exchange, the witness wait — collapses into a per-round quorum abstraction:
reliable broadcast removes equivocation (each originator contributes exactly
one value per iteration), and the witness exchange guarantees every sample
holds ``≥ n − t`` values with any two honest samples sharing ``≥ n − t``.
The engine therefore gives every process a sample drawn from that legal
schedule family — full delivery under the default (uniform) schedule, or a
shared ``n − t`` core plus per-recipient extras under an explicit omission
policy — and charges each iteration's reliable-broadcast/report traffic in
closed form (:func:`repro.core.witness.witness_round_traffic`, computed once
per distinct ``(n, t, round, participants)`` and cached), exactly matching
the event simulator run to quiescence.  Under full delivery every process
holds the same sample, so the round runs one update and every process
adopts it.  Crash faults must fall on iteration boundaries
(``deliveries == 0``); mid-multicast prefixes have no witness round form and
stay with the event engine (:class:`~repro.sim.engine.EngineCapabilityError`
points there).
Differential agreement — exact rounds, message and bit counts, outputs —
is pinned by ``tests/sim/test_witness_batch_equivalence.py``.

Results are full :class:`~repro.sim.runner.ExecutionResult` objects (runtime
tag ``"batch"``), so the metrics, convergence-analysis and table pipelines
apply unchanged.  Message counts are exact (each live multicast is ``n``
point-to-point sends, mid-multicast crashes send a prefix); bit counts charge
every value message the wire size of one ``VALUE`` message of that round.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.problem import ProblemInstance, validate_outputs
from repro.core.protocol import ResilienceError
from repro.core.rounds import (
    AlgorithmBounds,
    approximation_step,
    async_byzantine_bounds,
    async_crash_bounds,
    sync_byzantine_bounds,
    sync_crash_bounds,
    witness_bounds,
)
from repro.core.termination import RoundPolicy, default_round_policy
from repro.core.witness import witness_round_traffic
from repro.net.adversary import (
    DelayRankOmission,
    OmissionPolicy,
    RoundFaultModel,
    SeededOmission,
    round_fault_model,
)
from repro.net.message import Message, message_bits
from repro.net.network import DelayModel, FaultPlan, NetworkStats
from repro.sim.engine import EngineCapabilityError, capable_engines
from repro.sim.metrics import spread_trajectory
from repro.sim.runner import ExecutionResult

__all__ = [
    "BATCH_PROTOCOL_BOUNDS",
    "BATCH_PROTOCOLS",
    "DIRECT_PROTOCOL_BOUNDS",
    "run_batch_protocol",
]


#: Protocol name → bounds factory for the four direct protocols (one value
#: multicast per round); this is the slice the vectorised engine also runs.
DIRECT_PROTOCOL_BOUNDS: Dict[str, Callable[[int, int], AlgorithmBounds]] = {
    "async-crash": async_crash_bounds,
    "async-byzantine": async_byzantine_bounds,
    "sync-crash": sync_crash_bounds,
    "sync-byzantine": sync_byzantine_bounds,
}

#: Protocol name → closed-form bounds factory, for every protocol the batch
#: engine can execute at round granularity (the direct protocols plus the
#: witness protocol's round-level form).
BATCH_PROTOCOL_BOUNDS: Dict[str, Callable[[int, int], AlgorithmBounds]] = {
    **DIRECT_PROTOCOL_BOUNDS,
    "witness": witness_bounds,
}

#: Names of the protocols the batch engine supports.
BATCH_PROTOCOLS = tuple(sorted(BATCH_PROTOCOL_BOUNDS))

_SYNCHRONOUS = frozenset({"sync-crash", "sync-byzantine"})


#: Safety valve for adaptive policies: the most rounds a holder may run when
#: its count is not known upfront.  Upfront counts are never capped.
MAX_ADAPTIVE_ROUNDS = 10_000


def _upfront_rounds(
    policy: RoundPolicy, bounds: AlgorithmBounds, epsilon: float
) -> Optional[int]:
    """Round count of ``policy`` if computable before round 1, else ``None``.

    ``None`` signals an adaptive policy (e.g.
    :class:`~repro.core.termination.SpreadEstimateRounds`): each process
    derives its own round count from the first multiset it collects (see
    :func:`_run_rounds`).
    """
    try:
        return policy.required_rounds(bounds.contraction, epsilon, None)
    except TypeError:
        return None


class _RoundState:
    """Mutable per-execution state of one batch run."""

    def __init__(self, problem: ProblemInstance, faults: RoundFaultModel) -> None:
        self.n = problem.n
        #: ``pid → (crash round, deliveries)``: the holder sends ``deliveries``
        #: messages of its crash round's multicast and nothing after.
        self.crash_schedule = dict(faults.crash_schedule)
        self.strategies = faults.strategies
        self.silent_ids = set(faults.silent)
        # Value holders run the honest update rule: honest processes,
        # crash-faulty processes until they crash, and corrupted-input
        # Byzantine processes (honest behaviour, forged input).
        self.holders = [
            pid
            for pid in range(self.n)
            if pid not in self.strategies and pid not in self.silent_ids
        ]
        self.values: Dict[int, float] = {
            pid: float(problem.inputs[pid]) for pid in self.holders
        }
        for pid, forged in faults.corrupted_inputs.items():
            if pid in self.values:
                self.values[pid] = float(forged)
        self.honest = problem.honest
        self.histories: Dict[int, List[float]] = {
            pid: [self.values[pid]] for pid in self.holders
        }

    def alive(self, round_number: int) -> List[int]:
        """Holders that complete (and apply) round ``round_number``."""
        crashes = self.crash_schedule
        return [
            pid
            for pid in self.holders
            if pid not in crashes or round_number < crashes[pid][0]
        ]

    def sends_in_round(self, pid: int, round_number: int) -> int:
        """Point-to-point sends of holder ``pid``'s round-``round_number`` multicast."""
        crash = self.crash_schedule.get(pid)
        if crash is None:
            return self.n
        crash_round, deliveries = crash
        if round_number < crash_round:
            return self.n
        if round_number == crash_round:
            return deliveries
        return 0


def run_batch_protocol(
    protocol: str,
    inputs: Sequence[float],
    t: int,
    epsilon: float,
    round_policy: Optional[RoundPolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
    fault_model: Optional[RoundFaultModel] = None,
    omission_policy: Optional[OmissionPolicy] = None,
    delay_model: Optional[DelayModel] = None,
    seed: int = 0,
    strict: bool = True,
) -> ExecutionResult:
    """Run one execution on the round-level batch engine.

    Parameters mirror :func:`repro.sim.runner.run_protocol` where they
    overlap, so callers can switch engines by switching the function:

    protocol:
        One of :data:`BATCH_PROTOCOLS`.
    inputs, t, epsilon:
        Problem instance (``n = len(inputs)``).
    round_policy:
        Optional policy; defaults to
        :func:`repro.core.termination.default_round_policy`.  Every direct
        protocol runs one round loop (:func:`_run_rounds`): under an upfront
        policy (the default, ``FixedRounds``, ``KnownRangeRounds``) every
        process runs the same count, comparable across engines; under an
        adaptive one (``SpreadEstimateRounds``) each process derives its own
        count from its round-1 multiset, with halt-echo substitution.  The
        witness protocol requires an upfront policy.
    fault_plan / fault_model:
        Faults, either as a message-level :class:`~repro.net.network.FaultPlan`
        (adapted via :func:`~repro.net.adversary.round_fault_model`) or
        directly as a :class:`~repro.net.adversary.RoundFaultModel`.  At most
        one may be given.
    omission_policy / delay_model:
        Quorum-composition adversary, either directly or as a message-level
        delay model (adapted via
        :class:`~repro.net.adversary.DelayRankOmission`).  Defaults to
        :class:`~repro.net.adversary.SeededOmission` with ``seed``.
    seed:
        Seed of the default omission policy; ignored when an explicit
        ``omission_policy`` or ``delay_model`` is supplied.
    strict:
        Whether to reject ``(n, t)`` outside the protocol's resilience bound.
    """
    if protocol not in BATCH_PROTOCOL_BOUNDS:
        raise EngineCapabilityError(
            "batch",
            f"protocol {protocol!r}",
            capable_engines({f"protocol:{protocol}"}),
        )
    if fault_plan is not None and fault_model is not None:
        raise ValueError("pass either fault_plan or fault_model, not both")
    if omission_policy is not None and delay_model is not None:
        raise ValueError("pass either omission_policy or delay_model, not both")

    started = time.perf_counter()
    n = len(inputs)
    bounds = BATCH_PROTOCOL_BOUNDS[protocol](n, t)
    if strict and not bounds.resilience_ok:
        raise ResilienceError(
            f"{bounds.name} does not tolerate t={t} faults with n={n}"
        )

    if fault_model is None:
        fault_model = round_fault_model(fault_plan, n)
    # Whether the caller shaped quorum composition explicitly; the witness
    # round form distinguishes the default uniform schedule (full delivery,
    # matching the event simulator) from adversarial sub-sampling.  Delay
    # models that only move message *timing* the witness sample cannot see
    # (shapes_witness_samples=False, e.g. PartitionReportDelay's cross-camp
    # report delays) keep the full-delivery schedule — which is exactly what
    # the event simulator realises under them.
    explicit_quorum_adversary = omission_policy is not None or (
        delay_model is not None
        and getattr(delay_model, "shapes_witness_samples", True)
    )
    if omission_policy is None:
        omission_policy = (
            DelayRankOmission(delay_model) if delay_model is not None else SeededOmission(seed)
        )
    omission_policy.reset()
    # The shipped policies honour the quorum contract by construction, so
    # their answers skip the per-call validation in the hot loop; custom
    # policies stay fully checked.
    trusted_policy = type(omission_policy) in (SeededOmission, DelayRankOmission)

    problem = ProblemInstance(
        n=n,
        t=t,
        epsilon=epsilon,
        inputs=list(inputs),
        faulty=fault_model.faulty_ids(n),
        byzantine=fault_model.byzantine_ids(n),
    )
    policy = round_policy or default_round_policy(bounds, inputs, epsilon)
    state = _RoundState(problem, fault_model)

    if protocol == "witness":
        return _run_witness(
            problem,
            bounds,
            policy,
            state,
            omission_policy,
            trusted_policy,
            explicit_quorum_adversary,
            epsilon,
            started,
            fault_plan=fault_plan,
        )
    return _run_rounds(
        protocol,
        problem,
        bounds,
        policy,
        state,
        omission_policy,
        trusted_policy,
        epsilon,
        started,
    )


def _run_rounds(
    protocol: str,
    problem: ProblemInstance,
    bounds: AlgorithmBounds,
    policy: RoundPolicy,
    state: _RoundState,
    omission_policy: OmissionPolicy,
    trusted_policy: bool,
    epsilon: float,
    started: float,
) -> ExecutionResult:
    """The direct protocols' round loop, for every round policy.

    Every value holder runs its own round count.  An upfront policy gives
    every holder the policy's count before round 1 (``0`` outputs the inputs
    and sends nothing).  An adaptive policy
    (:class:`~repro.core.termination.SpreadEstimateRounds`) lets each holder
    derive its count from the multiset it collects in round 1, as the event
    engine does, so different holders may halt at different rounds; only such
    counts are capped at :data:`MAX_ADAPTIVE_ROUNDS`.  A holder that halts
    multicasts one ``HALT`` message carrying its final value when the policy
    sets ``echo_on_halt``, and that value substitutes for the halted sender
    in every later quorum — at round level the halted sender simply stays a
    full candidate whose reported value is frozen, which is the schedule
    where the adversary delivers the halt echo whenever it suits it.

    Two engine-level caveats of adaptive counts (documented divergences from
    the event simulator, which realises *one* arrival order):

    * per-process round counts derive from the *policy-chosen* round-1 quorum,
      so an execution's round counts may differ between engines even at equal
      seeds (both are legal schedules);
    * a crash-faulty process's crash point is measured in ``VALUE`` sends;
      once it halts, its halt echo is delivered in full.
    """
    synchronous = protocol in _SYNCHRONOUS
    quorum_size = bounds.sample_size
    echo = policy.echo_on_halt
    upfront = _upfront_rounds(policy, bounds, epsilon)
    totals: Dict[int, Optional[int]] = dict.fromkeys(state.holders, upfront)
    # Holders that have halted, with the value they output.
    stopped: Dict[int, float] = dict(state.values) if upfront == 0 else {}
    last_round = MAX_ADAPTIVE_ROUNDS if upfront is None else upfront
    stats = NetworkStats()
    live = True

    for round_number in range(1, last_round + 1):
        updaters = [pid for pid in state.alive(round_number) if pid not in stopped]
        if not updaters:
            break
        _account_value_messages(stats, state, stopped, round_number)
        # Full-information adversary: Byzantine strategies see every holder's
        # current value before choosing what to report.  (Skipped when no
        # strategy will ever read it — this sits in the sweep hot loop.)
        observed: Sequence[float] = (
            sorted(state.values.values()) if state.strategies else ()
        )
        full_candidates, partial_candidates = _round_candidates(
            state, stopped, echo, round_number
        )
        new_values: Dict[int, float] = {}
        for recipient in updaters:
            if partial_candidates:
                candidates = sorted(
                    full_candidates
                    + [s for s, prefix in partial_candidates if recipient < prefix]
                )
            else:
                candidates = full_candidates
            if synchronous:
                sample = _sync_sample(state, candidates, recipient, round_number, observed)
            else:
                sample = _async_sample(
                    state,
                    omission_policy,
                    candidates,
                    recipient,
                    round_number,
                    quorum_size,
                    observed,
                    trusted_policy,
                )
                if sample is None:
                    live = False
                    break
            stats.messages_delivered += len(sample)
            new_values[recipient] = approximation_step(sample, bounds)
            if totals[recipient] is None:
                # An adaptive count comes from the holder's own round-1
                # multiset; the holder has already run one round, so the count
                # is at least 1.
                totals[recipient] = max(
                    1, policy.required_rounds(bounds.contraction, epsilon, sample)
                )
        if not live:
            break
        state.values.update(new_values)
        for pid, value in new_values.items():
            state.histories[pid].append(value)
            if totals[pid] == round_number:
                stopped[pid] = value
                if echo:
                    _account_halt_echo(stats, state.n, pid, value)

    return _result(protocol, problem, state, stopped, stats, started)


def _round_candidates(
    state: _RoundState,
    stopped: Dict[int, float],
    echo: bool,
    round_number: int,
) -> Tuple[List[int], List[Tuple[int, int]]]:
    """Candidate senders of one round: (reach everyone, mid-multicast prefixes).

    The first list holds the senders whose round value reaches every
    recipient: Byzantine strategies, holders whose multicast completes, and
    halted holders when the policy echoes final values on halt (the halt echo
    substitutes for their round value).  The second holds ``(sender,
    deliveries)`` pairs for holders crashing mid-multicast this round, which
    reach only the recipients below ``deliveries`` (multicasts send in
    increasing recipient order).  Computing this once per round keeps the
    per-recipient work at ``O(m)`` instead of ``O(n)`` probing.
    """
    full: List[int] = []
    partial: List[Tuple[int, int]] = []
    for sender in range(state.n):
        if sender in state.silent_ids:
            continue
        if sender in state.strategies:
            full.append(sender)
            continue
        if sender in stopped:
            if echo:
                full.append(sender)
            continue
        sends = state.sends_in_round(sender, round_number)
        if sends == state.n:
            full.append(sender)
        elif sends > 0:
            partial.append((sender, sends))
    return full, partial


def _account_value_messages(
    stats: NetworkStats,
    state: _RoundState,
    stopped: Dict[int, float],
    round_number: int,
) -> None:
    """Charge one round's ``VALUE`` traffic to the statistics.

    Counts are exact at message granularity (every running holder multicasts
    ``n`` point-to-point messages, a crashing holder sends its delivery
    prefix, a halted holder sends nothing, every strategy-driven Byzantine
    process sends to all ``n``); the per-message bit size is the wire size of
    one round-``r`` ``VALUE`` message.
    """
    per_message_bits = message_bits(Message(kind="VALUE", round=round_number, value=0.0))
    sends = 0
    for pid in state.holders:
        if pid in stopped:
            continue
        count = state.sends_in_round(pid, round_number)
        if count:
            stats.sends_by_process[pid] = stats.sends_by_process.get(pid, 0) + count
        sends += count
    for pid in state.strategies:
        stats.sends_by_process[pid] = stats.sends_by_process.get(pid, 0) + state.n
        sends += state.n
    stats.messages_sent += sends
    stats.bits_sent += sends * per_message_bits
    stats.messages_by_kind["VALUE"] = stats.messages_by_kind.get("VALUE", 0) + sends


def _account_halt_echo(stats: NetworkStats, n: int, pid: int, value: float) -> None:
    """Charge one ``HALT`` multicast (``n`` point-to-point sends)."""
    bits = message_bits(Message(kind="HALT", value=value))
    stats.messages_sent += n
    stats.bits_sent += n * bits
    stats.messages_by_kind["HALT"] = stats.messages_by_kind.get("HALT", 0) + n
    stats.sends_by_process[pid] = stats.sends_by_process.get(pid, 0) + n


def _witness_crash_schedule(
    crash_points: Dict[int, int],
    n: int,
    t: int,
    holders: List[int],
    strategy_ids: List[int],
    total_rounds: int,
) -> Dict[int, int]:
    """Map raw send-count crash points onto witness iteration boundaries.

    A witness participant alive through iteration ``r`` sends
    ``n·(2·ℓ_r + 2)`` point-to-point messages (INIT + ℓ_r ECHO + ℓ_r READY +
    REPORT multicasts, ``ℓ_r`` the iteration's participant count), so a crash
    point expressed in sends — the unit of
    :class:`~repro.net.adversary.CrashPoint` — lands on an iteration boundary
    exactly when it equals a prefix sum of those totals.  The mapping is
    computed jointly for all crash-faulty processes (earlier deaths shrink
    ``ℓ_r`` for later iterations); a point strictly inside an iteration has
    no witness round form and raises
    :class:`~repro.sim.engine.EngineCapabilityError` (event engine only).
    """
    crash_round: Dict[int, int] = {}
    sent: Dict[int, int] = {pid: 0 for pid in crash_points}
    for round_number in range(1, total_rounds + 1):
        for pid in sorted(crash_points):
            if pid not in crash_round and sent[pid] >= crash_points[pid]:
                crash_round[pid] = round_number
        participants = [
            pid for pid in holders if pid not in crash_round
        ] + strategy_ids
        count = len(participants)
        if count < n - t:
            break  # the execution stalls here; later sends never happen
        per_participant = n * (2 * count + 2)
        for pid in crash_points:
            if pid not in crash_round and pid in holders:
                sent[pid] += per_participant
                if sent[pid] > crash_points[pid]:
                    raise EngineCapabilityError(
                        "batch",
                        "mid-iteration crash points under the witness protocol "
                        f"(P{pid} crashes after {crash_points[pid]} sends, inside "
                        f"iteration {round_number}; round-level witness crashes "
                        "must fall on iteration boundaries)",
                        ("event",),
                    )
    return crash_round


def _witness_raw_crash_points(fault_plan: FaultPlan, n: int) -> Dict[int, int]:
    """Collect raw ``after_sends`` crash points from a (possibly composed) plan."""
    from repro.net.adversary import ComposedFaultPlan, CrashFaultPlan

    points: Dict[int, int] = {}
    if isinstance(fault_plan, ComposedFaultPlan):
        for sub_plan in fault_plan.plans:
            points.update(_witness_raw_crash_points(sub_plan, n))
    elif isinstance(fault_plan, CrashFaultPlan):
        for pid, point in fault_plan.crash_points.items():
            if pid < n and point.after_sends is not None:
                points[pid] = point.after_sends
    return points


def _run_witness(
    problem: ProblemInstance,
    bounds: AlgorithmBounds,
    policy: RoundPolicy,
    state: _RoundState,
    omission_policy: OmissionPolicy,
    trusted_policy: bool,
    explicit_quorum_adversary: bool,
    epsilon: float,
    started: float,
    fault_plan: Optional[FaultPlan] = None,
) -> ExecutionResult:
    """Round-level witness protocol: per-iteration quorum abstraction.

    Each iteration collapses the reliable-broadcast/report/witness machinery
    into one quorum step (see the module docstring): reliable broadcast means
    every participant contributes exactly one value — a Byzantine strategy
    commits to a single per-iteration value (consulted once, with the
    sender's own id as the recipient argument) because equivocation is
    impossible — and the witness exchange constrains which value subsets the
    adversary may serve:

    * under the default uniform schedule (no explicit omission policy or
      delay model) every process receives *every* participant's value, which
      is exactly the schedule the event simulator realises under its default
      constant delays — the configuration the differential grid pins
      exactly;
    * under an explicit policy, the adversary serves a shared core of
      ``n − t`` values (``policy.quorum(round, n, candidates, n − t)`` — the
      pseudo-recipient ``n`` keys the round's shared choice) plus
      per-recipient extras (``policy.quorum(round, p, candidates, n − t)``),
      so samples differ between processes while any two still share the
      ``≥ n − t`` values the witness exchange guarantees.

    Crash faults must fall on iteration boundaries — ``(r, 0)`` means the
    process participates fully in iterations ``< r`` and is silent from
    ``r`` on; mid-multicast prefixes raise
    :class:`~repro.sim.engine.EngineCapabilityError` (event engine only).
    Message/bit accounting is the closed quiescence form of
    :func:`repro.core.witness.witness_round_traffic`.
    """
    n, t = problem.n, problem.t
    if not policy.uniform:
        raise ValueError(
            "the witness protocol requires a uniform round policy "
            "(FixedRounds or KnownRangeRounds)"
        )
    total_rounds = policy.required_rounds(bounds.contraction, epsilon, None)
    quorum_size = n - t
    strategies = state.strategies
    if fault_plan is not None:
        # Message-level crash points count raw sends; re-map them onto witness
        # iteration boundaries (the generic adapter's (round, deliveries) form
        # divides by n, the direct protocols' multicast size).
        crash_rounds = _witness_crash_schedule(
            _witness_raw_crash_points(fault_plan, n),
            n,
            t,
            state.holders,
            sorted(strategies),
            total_rounds,
        )
        state.crash_schedule = {
            pid: (crash_round, 0) for pid, crash_round in crash_rounds.items()
        }
    else:
        for pid, (crash_round, deliveries) in state.crash_schedule.items():
            if deliveries != 0:
                raise EngineCapabilityError(
                    "batch",
                    "mid-multicast crash points under the witness protocol "
                    "(round-level witness crashes must fall on iteration "
                    f"boundaries: deliveries == 0, got P{pid}@r{crash_round}"
                    f"+{deliveries})",
                    ("event",),
                )

    stats = NetworkStats()
    decided = True

    for round_number in range(1, total_rounds + 1):
        alive = state.alive(round_number)
        participants = sorted(alive + list(strategies))

        # Committed per-iteration Byzantine values (reliable broadcast makes
        # equivocation impossible); non-finite commitments degrade to the
        # sender's broadcast never delivering, like the message boundary of
        # the protocol skeletons.
        observed: Sequence[float] = sorted(state.values[pid] for pid in alive)
        round_values: Dict[int, float] = {pid: state.values[pid] for pid in alive}
        for pid in strategies:
            committed = _finite(strategies[pid].value(round_number, pid, observed))
            if committed is not None:
                round_values[pid] = committed

        traffic = witness_round_traffic(n, t, round_number, participants)
        for kind, count in traffic.by_kind.items():
            stats.messages_by_kind[kind] = stats.messages_by_kind.get(kind, 0) + count
        for kind, bits in traffic.bits_by_kind.items():
            stats.bits_sent += bits
        stats.messages_sent += traffic.messages
        for pid in participants:
            stats.sends_by_process[pid] = (
                stats.sends_by_process.get(pid, 0) + traffic.sends_per_participant
            )
        # At quiescence every send reaches every recipient that has not
        # crashed by this iteration (silent/Byzantine processes still listen).
        crashed_recipients = len(state.holders) - len(alive)
        stats.messages_delivered += (traffic.messages // n) * (n - crashed_recipients)

        candidates = sorted(pid for pid in participants if pid in round_values)
        if not traffic.completes or len(candidates) < quorum_size:
            # Too few participants to fill deliveries, reports or witnesses:
            # the event simulator would stall with every process waiting
            # forever (this iteration's partial traffic already charged).
            decided = False
            break

        if not explicit_quorum_adversary:
            # Full delivery: every recipient holds the same sample, so one
            # update serves them all.
            shared_sample = [round_values[pid] for pid in candidates]
            new_values = dict.fromkeys(alive, approximation_step(shared_sample, bounds))
        else:
            core = _quorum(
                omission_policy, round_number, n, candidates, quorum_size, trusted_policy
            )
            new_values = {}
            for recipient in alive:
                extra = _quorum(
                    omission_policy,
                    round_number,
                    recipient,
                    candidates,
                    quorum_size,
                    trusted_policy,
                )
                chosen = sorted(set(core) | set(extra))
                new_values[recipient] = approximation_step(
                    [round_values[pid] for pid in chosen], bounds
                )
        state.values.update(new_values)
        for pid, value in new_values.items():
            state.histories[pid].append(value)

    final = state.values if decided else {}
    return _result("witness", problem, state, final, stats, started)


def _result(
    protocol: str,
    problem: ProblemInstance,
    state: _RoundState,
    final: Dict[int, float],
    stats: NetworkStats,
    started: float,
) -> ExecutionResult:
    """The execution's result; an honest process outputs its ``final`` value, if any.

    Honest processes never crash, so each one's history holds its input and
    one value per round it completed, and ``rounds_used`` is the most rounds
    any of them completed, as on the event engine.
    """
    outputs: Dict[int, Optional[float]] = {pid: final.get(pid) for pid in state.honest}
    value_histories = {pid: state.histories[pid] for pid in state.honest}
    report = validate_outputs(problem, outputs)
    return ExecutionResult(
        protocol=protocol,
        runtime="batch",
        problem=problem,
        report=report,
        outputs=outputs,
        stats=stats,
        rounds_used=max(len(history) for history in value_histories.values()) - 1,
        trajectory=spread_trajectory(value_histories),
        value_histories=value_histories,
        events_executed=0,
        wall_time_seconds=time.perf_counter() - started,
    )


def _quorum(
    omission_policy: OmissionPolicy,
    round_number: int,
    recipient: int,
    candidates: List[int],
    quorum_size: int,
    trusted_policy: bool,
) -> List[int]:
    """The omission policy's quorum for ``recipient``, checked unless trusted.

    A quorum is ``quorum_size`` distinct senders, all of them candidates; a
    policy that breaks this contract raises ``ValueError``.
    """
    chosen = list(omission_policy.quorum(round_number, recipient, candidates, quorum_size))
    if not trusted_policy:
        chosen_set = set(chosen)
        if len(chosen) != quorum_size or len(chosen_set) != quorum_size:
            raise ValueError(
                f"omission policy {omission_policy.describe()} returned {len(chosen)} "
                f"senders, expected {quorum_size} distinct"
            )
        if not chosen_set <= set(candidates):
            raise ValueError(
                f"omission policy {omission_policy.describe()} chose senders outside the "
                "candidate set"
            )
    return chosen


def _finite(value: object) -> Optional[float]:
    """A Byzantine payload as delivered, or ``None`` when it is unusable.

    Mirrors the message boundary of the protocol skeletons: a NaN/inf payload
    is dropped rather than delivered, so here it degrades to an omission.
    """
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        return None
    return float(value)


def _async_sample(
    state: _RoundState,
    omission_policy: OmissionPolicy,
    candidates: List[int],
    recipient: int,
    round_number: int,
    quorum_size: int,
    observed: Sequence[float],
    trusted_policy: bool,
) -> Optional[List[float]]:
    """The quorum multiset an asynchronous process collects, or ``None``.

    ``None`` signals a liveness failure: fewer than ``quorum_size`` senders
    can ever reach the recipient, which is exactly the situation in which the
    event simulator would stall with the process waiting forever.
    """
    if len(candidates) < quorum_size:
        return None
    chosen = _quorum(
        omission_policy, round_number, recipient, candidates, quorum_size, trusted_policy
    )
    if not state.strategies:
        # Fast path: every candidate is a value holder, values are finite by
        # invariant, no injection can occur.
        return [state.values[sender] for sender in chosen]
    sample: List[float] = []
    for sender in chosen:
        value = _sender_value(state, sender, round_number, recipient, observed)
        if value is not None:
            sample.append(value)
    # A dropped (non-finite) Byzantine payload behaves like an omission: the
    # quorum refills from the remaining (late) candidates, as the event
    # simulator's arrival order would.
    if len(sample) < quorum_size:
        chosen_lookup = frozenset(chosen)
        for sender in candidates:
            if len(sample) >= quorum_size:
                break
            if sender in chosen_lookup:
                continue
            value = _sender_value(state, sender, round_number, recipient, observed)
            if value is not None:
                sample.append(value)
    if len(sample) < quorum_size:
        return None
    return sample


def _sync_sample(
    state: _RoundState,
    candidates: List[int],
    recipient: int,
    round_number: int,
    observed: Sequence[float],
) -> List[float]:
    """The size-``n`` synchronous sample with own-value substitution."""
    candidate_set = set(candidates)
    own = state.values[recipient]
    sample: List[float] = []
    for sender in range(state.n):
        value = None
        if sender in candidate_set:
            value = _sender_value(state, sender, round_number, recipient, observed)
        sample.append(own if value is None else value)
    return sample


def _sender_value(
    state: _RoundState,
    sender: int,
    round_number: int,
    recipient: int,
    observed: Sequence[float],
) -> Optional[float]:
    """What ``sender`` reports to ``recipient`` this round (``None``: omitted)."""
    if sender in state.strategies:
        return _finite(state.strategies[sender].value(round_number, recipient, observed))
    return state.values[sender]
