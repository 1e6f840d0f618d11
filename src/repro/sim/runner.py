"""End-to-end execution runners.

This module glues a protocol (a list of :class:`~repro.net.interfaces.Process`
objects), a runtime (discrete-event simulator, lockstep synchronous runner, or
asyncio), a fault plan and a delay model into a single call that returns an
:class:`ExecutionResult`: the validated outputs plus every metric the
evaluation harness needs (convergence trajectory, rounds, messages, bits).

The convenience entry point :func:`run_protocol` accepts the protocol by name
(``"async-crash"``, ``"async-byzantine"``, ``"witness"``, ``"sync-crash"``,
``"sync-byzantine"``) and is what the examples and benchmarks use; lower-level
functions are available for tests that need to drive a runtime directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.problem import ProblemInstance, ValidationReport, validate_outputs
from repro.core.async_byzantine import make_async_byzantine_processes
from repro.core.async_crash import make_async_crash_processes
from repro.core.sync_protocols import make_sync_byzantine_processes, make_sync_crash_processes
from repro.core.termination import RoundPolicy
from repro.core.witness import make_witness_processes
from repro.net.asyncio_runtime import AsyncioRuntime
from repro.net.interfaces import Process
from repro.net.network import DelayModel, FaultPlan, NetworkStats, SimulatedNetwork
from repro.sim.metrics import CostSummary, spread_trajectory

__all__ = [
    "PROTOCOL_FACTORIES",
    "SYNCHRONOUS_PROTOCOLS",
    "ExecutionResult",
    "run_protocol",
    "run_async_network",
    "run_lockstep",
    "run_asyncio_runtime",
]


#: Protocol name → factory(inputs, t, epsilon, round_policy, strict) registry.
PROTOCOL_FACTORIES: Dict[str, Callable[..., List[Process]]] = {
    "async-crash": make_async_crash_processes,
    "async-byzantine": make_async_byzantine_processes,
    "witness": make_witness_processes,
    "sync-crash": make_sync_crash_processes,
    "sync-byzantine": make_sync_byzantine_processes,
}

#: Protocols that must be driven by the lockstep runner.
SYNCHRONOUS_PROTOCOLS = frozenset({"sync-crash", "sync-byzantine"})

#: Safety valve: maximum number of simulator events per execution.
DEFAULT_MAX_EVENTS = 2_000_000

#: Safety valve: maximum number of lockstep rounds per execution.
DEFAULT_MAX_LOCKSTEP_ROUNDS = 10_000


@dataclass
class ExecutionResult:
    """Everything measured about one protocol execution."""

    protocol: str
    runtime: str
    problem: ProblemInstance
    report: ValidationReport
    outputs: Dict[int, Optional[float]]
    stats: NetworkStats
    rounds_used: int
    trajectory: List[float] = field(default_factory=list)
    value_histories: Dict[int, List[float]] = field(default_factory=dict)
    events_executed: int = 0
    wall_time_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """Whether the execution met every correctness condition."""
        return self.report.ok

    @property
    def costs(self) -> CostSummary:
        return CostSummary(
            rounds=self.rounds_used,
            messages=self.stats.messages_sent,
            bits=self.stats.bits_sent,
        )

    def summary(self) -> str:
        return (
            f"{self.protocol:>15s} [{self.runtime}] n={self.problem.n} t={self.problem.t} "
            f"{self.report.summary()} rounds={self.rounds_used} "
            f"msgs={self.stats.messages_sent} bits={self.stats.bits_sent}"
        )


# ----------------------------------------------------------------------
# Result assembly helpers
# ----------------------------------------------------------------------


def _collect_result(
    protocol: str,
    runtime: str,
    problem: ProblemInstance,
    processes: Sequence[Process],
    stats: NetworkStats,
    events: int,
    wall_time: float,
) -> ExecutionResult:
    outputs: Dict[int, Optional[float]] = {}
    value_histories: Dict[int, List[float]] = {}
    rounds_used = 0
    faulty = set(problem.faulty)
    for pid, process in enumerate(processes):
        if pid in faulty:
            continue
        outputs[pid] = process.output_value if process.has_output else None
        history = getattr(process, "value_history", None)
        if history is not None:
            value_histories[pid] = list(history)
        rounds_used = max(rounds_used, getattr(process, "rounds_completed", 0))

    report = validate_outputs(problem, outputs)
    return ExecutionResult(
        protocol=protocol,
        runtime=runtime,
        problem=problem,
        report=report,
        outputs=outputs,
        stats=stats,
        rounds_used=rounds_used,
        trajectory=spread_trajectory(value_histories),
        value_histories=value_histories,
        events_executed=events,
        wall_time_seconds=wall_time,
    )


def _make_problem(
    inputs: Sequence[float], t: int, epsilon: float, fault_plan: Optional[FaultPlan]
) -> ProblemInstance:
    n = len(inputs)
    faulty: Sequence[int] = ()
    byzantine: Sequence[int] = ()
    if fault_plan is not None:
        faulty = tuple(fault_plan.faulty_ids(n))
        byzantine = tuple(fault_plan.byzantine_ids(n))
    return ProblemInstance(
        n=n, t=t, epsilon=epsilon, inputs=list(inputs), faulty=faulty, byzantine=byzantine
    )


# ----------------------------------------------------------------------
# Runtime drivers
# ----------------------------------------------------------------------


def run_async_network(
    protocol: str,
    processes: Sequence[Process],
    problem: ProblemInstance,
    delay_model: Optional[DelayModel] = None,
    fault_plan: Optional[FaultPlan] = None,
    max_events: int = DEFAULT_MAX_EVENTS,
    start_jitter: float = 0.0,
    start_seed: int = 0,
    keep_trace: bool = False,
) -> ExecutionResult:
    """Run an asynchronous protocol on the discrete-event simulator."""
    started = time.perf_counter()
    network = SimulatedNetwork(
        processes, delay_model=delay_model, fault_plan=fault_plan, keep_trace=keep_trace
    )
    network.start(start_jitter=start_jitter, seed=start_seed)
    events = network.run(max_events=max_events)
    wall = time.perf_counter() - started
    result = _collect_result(
        protocol, "des", problem, network.processes, network.stats, events, wall
    )
    network.close()
    return result


def run_lockstep(
    protocol: str,
    processes: Sequence[Process],
    problem: ProblemInstance,
    fault_plan: Optional[FaultPlan] = None,
    max_rounds: int = DEFAULT_MAX_LOCKSTEP_ROUNDS,
) -> ExecutionResult:
    """Run a synchronous protocol in lockstep rounds.

    Each lockstep round delivers every message sent so far (the synchronous
    assumption) and then signals the end of the round to every live process.
    """
    started = time.perf_counter()
    network = SimulatedNetwork(processes, fault_plan=fault_plan)
    network.start()
    events = 0
    round_number = 0
    while not network.all_honest_output() and round_number < max_rounds:
        round_number += 1
        events += network.scheduler.run()
        if network.all_honest_output():
            break
        network.signal_round_timeout(round_number)
    events += network.scheduler.run(stop_when=network.all_honest_output)
    wall = time.perf_counter() - started
    result = _collect_result(
        protocol, "lockstep", problem, network.processes, network.stats, events, wall
    )
    network.close()
    return result


def run_asyncio_runtime(
    protocol: str,
    processes: Sequence[Process],
    problem: ProblemInstance,
    delay_model: Optional[DelayModel] = None,
    fault_plan: Optional[FaultPlan] = None,
    timeout: float = 60.0,
    time_scale: float = 0.001,
) -> ExecutionResult:
    """Run an asynchronous protocol on the asyncio runtime (wall-clock delays)."""
    started = time.perf_counter()
    runtime = AsyncioRuntime(
        processes, delay_model=delay_model, fault_plan=fault_plan, time_scale=time_scale
    )
    runtime.run(timeout=timeout)
    wall = time.perf_counter() - started
    return _collect_result(
        protocol, "asyncio", problem, runtime.processes, runtime.stats,
        runtime.stats.messages_delivered, wall,
    )


# ----------------------------------------------------------------------
# High-level entry point
# ----------------------------------------------------------------------


def run_protocol(
    protocol: str,
    inputs: Sequence[float],
    t: int,
    epsilon: float,
    round_policy: Optional[RoundPolicy] = None,
    delay_model: Optional[DelayModel] = None,
    fault_plan: Optional[FaultPlan] = None,
    runtime: Optional[str] = None,
    strict: bool = True,
    max_events: int = DEFAULT_MAX_EVENTS,
    start_jitter: float = 0.0,
    asyncio_timeout: float = 60.0,
) -> ExecutionResult:
    """Run one approximate-agreement execution end to end.

    Parameters
    ----------
    protocol:
        One of :data:`PROTOCOL_FACTORIES` (e.g. ``"async-crash"``).
    inputs:
        Input value of every process (length = ``n``); the inputs of processes
        the fault plan corrupts are ignored by the correctness conditions.
    t, epsilon:
        Fault threshold and agreement parameter.
    round_policy:
        Optional round policy; each protocol has a sensible default.
    delay_model, fault_plan:
        Scheduling and fault adversaries (defaults: unit delays, no faults).
    runtime:
        ``"des"`` (default for asynchronous protocols), ``"asyncio"``, or
        ``"lockstep"`` (default and only choice for synchronous protocols).
    strict:
        Whether to reject ``(n, t)`` outside the protocol's resilience bound.
    """
    if protocol not in PROTOCOL_FACTORIES:
        raise ValueError(f"unknown protocol {protocol!r}; known: {sorted(PROTOCOL_FACTORIES)}")
    factory = PROTOCOL_FACTORIES[protocol]
    processes = factory(inputs, t, epsilon, round_policy=round_policy, strict=strict)
    problem = _make_problem(inputs, t, epsilon, fault_plan)

    if protocol in SYNCHRONOUS_PROTOCOLS:
        if runtime not in (None, "lockstep"):
            raise ValueError(f"synchronous protocol {protocol!r} requires the lockstep runtime")
        return run_lockstep(protocol, processes, problem, fault_plan=fault_plan)

    chosen = runtime or "des"
    if chosen == "des":
        return run_async_network(
            protocol,
            processes,
            problem,
            delay_model=delay_model,
            fault_plan=fault_plan,
            max_events=max_events,
            start_jitter=start_jitter,
        )
    if chosen == "asyncio":
        return run_asyncio_runtime(
            protocol,
            processes,
            problem,
            delay_model=delay_model,
            fault_plan=fault_plan,
            timeout=asyncio_timeout,
        )
    raise ValueError(f"unknown runtime {chosen!r}")
