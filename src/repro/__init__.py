"""repro — asynchronous approximate agreement.

A production-quality reproduction of the asynchronous approximate-agreement
problem and protocol family introduced at PODC 1987: round-based algorithms
that let ``n`` processes with real-valued inputs reach ε-agreement within the
range of the honest inputs despite up to ``t`` crash or Byzantine faults, in a
fully asynchronous message-passing system.

The package is organised in four layers:

* :mod:`repro.core` — the algorithms and their analysis (multiset machinery,
  convergence-rate theory, crash/Byzantine/witness protocols, round policies);
* :mod:`repro.net` — the simulated asynchronous network substrate (messages,
  discrete-event and asyncio runtimes, fault and scheduling adversaries,
  reliable broadcast);
* :mod:`repro.sim` — execution runners, metrics, workloads and sweeps;
* :mod:`repro.analysis` — theory-versus-measurement comparisons and tables.

Quickstart
----------

>>> from repro import run_protocol
>>> result = run_protocol("async-crash", inputs=[0.0, 0.2, 0.9, 1.0], t=1, epsilon=0.05)
>>> result.ok
True
"""

from importlib import import_module

from repro.core import (
    AlgorithmBounds,
    AsyncByzantineProcess,
    AsyncCrashProcess,
    FixedRounds,
    KnownRangeRounds,
    ProblemInstance,
    ProtocolConfig,
    ResilienceError,
    RoundPolicy,
    SpreadEstimateRounds,
    SyncByzantineProcess,
    SyncCrashProcess,
    ValidationReport,
    WitnessProcess,
    async_byzantine_bounds,
    async_crash_bounds,
    check_epsilon_agreement,
    check_validity,
    make_async_byzantine_processes,
    make_async_crash_processes,
    make_sync_byzantine_processes,
    make_sync_crash_processes,
    make_witness_processes,
    rounds_to_epsilon,
    spread,
    sync_byzantine_bounds,
    sync_crash_bounds,
    validate_outputs,
    witness_bounds,
)
from repro.net import (
    AsyncioRuntime,
    ByzantineFaultPlan,
    ConstantDelay,
    CrashFaultPlan,
    CrashPoint,
    EquivocatingStrategy,
    ExponentialRandomDelay,
    FixedValueStrategy,
    Message,
    NoFaults,
    PartitionDelay,
    Process,
    ProcessContext,
    RoundEchoByzantine,
    SimulatedNetwork,
    UniformRandomDelay,
)
from repro.sim import (
    ENGINE_CAPABILITIES,
    EngineCapabilityError,
    ExecutionResult,
    SweepCell,
    SweepSpec,
    SweepSummaryFold,
    VectorExecutionResult,
    read_sweep_jsonl,
    run,
    run_batch_protocol,
    run_ndbatch_protocol,
    run_protocol,
    run_sweep,
    run_vector_protocol,
    sensor_readings,
    summarize_sweep,
    two_cluster_inputs,
    uniform_inputs,
)
from repro.analysis import compare_to_bound, render_table

__version__ = "1.0.0"

__all__ = [
    "AlgorithmBounds",
    "AsyncByzantineProcess",
    "AsyncCrashProcess",
    "AsyncioRuntime",
    "ByzantineFaultPlan",
    "ConstantDelay",
    "CrashFaultPlan",
    "CrashPoint",
    "ENGINE_CAPABILITIES",
    "EngineCapabilityError",
    "EquivocatingStrategy",
    "ExecutionResult",
    "ExponentialRandomDelay",
    "FixedRounds",
    "FixedValueStrategy",
    "KnownRangeRounds",
    "Message",
    "NoFaults",
    "PartitionDelay",
    "ProblemInstance",
    "Process",
    "ProcessContext",
    "ProtocolConfig",
    "ResilienceError",
    "RoundEchoByzantine",
    "RoundPolicy",
    "SimulatedNetwork",
    "SpreadEstimateRounds",
    "SweepCell",
    "SweepJob",
    "SweepJobResult",
    "SweepSpec",
    "SweepSummaryFold",
    "SyncByzantineProcess",
    "SyncCrashProcess",
    "UniformRandomDelay",
    "ValidationReport",
    "VectorExecutionResult",
    "WitnessProcess",
    "__version__",
    "async_byzantine_bounds",
    "async_crash_bounds",
    "check_epsilon_agreement",
    "check_validity",
    "compare_to_bound",
    "make_async_byzantine_processes",
    "make_async_crash_processes",
    "make_sync_byzantine_processes",
    "make_sync_crash_processes",
    "make_witness_processes",
    "read_sweep_jsonl",
    "render_table",
    "rounds_to_epsilon",
    "run",
    "run_batch_protocol",
    "run_ndbatch_protocol",
    "run_protocol",
    "run_sweep",
    "run_vector_protocol",
    "sensor_readings",
    "summarize_sweep",
    "spread",
    "sync_byzantine_bounds",
    "sync_crash_bounds",
    "two_cluster_inputs",
    "uniform_inputs",
    "validate_outputs",
    "witness_bounds",
]


def __getattr__(name):
    # The job layer loads on first use, like in repro.sim (see there).
    if name in ("SweepJob", "SweepJobResult"):
        return getattr(import_module("repro.sim.job"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
