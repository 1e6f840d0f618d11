"""Simulation harness: runners, metrics, workloads, sweeps, experiment utilities."""

from importlib import import_module

from repro.sim.engine import (
    ENGINES,
    ENGINE_CAPABILITIES,
    EngineCapabilities,
    EngineCapabilityError,
    demotion_target,
    run,
    select_engine,
)
from repro.sim.chaos import ChaosError, ChaosPlan, ChaosRule
from repro.sim.resilient import (
    CellFailure,
    RetryPolicy,
    default_quarantine_path,
    iter_quarantine_jsonl,
    iter_resilient_outcomes,
    read_quarantine_map,
)
from repro.sim.batch import BATCH_PROTOCOLS, run_batch_protocol

try:
    from repro.sim.ndbatch import (
        NDBATCH_PROTOCOLS,
        run_ndbatch_block,
        run_ndbatch_protocol,
    )
except ImportError:  # numpy unavailable — the vectorised engine is optional
    NDBATCH_PROTOCOLS = ()

    def run_ndbatch_block(*args, **kwargs):
        raise ImportError(
            "the ndbatch engine requires numpy; install numpy or use the "
            "pure-Python batch engine (repro.sim.batch.run_batch_protocol)"
        )

    def run_ndbatch_protocol(*args, **kwargs):
        raise ImportError(
            "the ndbatch engine requires numpy; install numpy or use the "
            "pure-Python batch engine (repro.sim.batch.run_batch_protocol)"
        )
from repro.sim.experiments import (
    ExperimentRecord,
    RunningStats,
    aggregate,
    parameter_grid,
    summarize_results,
)
from repro.sim.metrics import (
    CostSummary,
    contraction_factors,
    geometric_mean_contraction,
    messages_per_round,
    spread_trajectory,
    worst_contraction,
)
from repro.sim.vector import VectorExecutionResult, run_vector_protocol
from repro.sim.runner import (
    PROTOCOL_FACTORIES,
    SYNCHRONOUS_PROTOCOLS,
    ExecutionResult,
    run_async_network,
    run_asyncio_runtime,
    run_lockstep,
    run_protocol,
)
from repro.sim.sweep import (
    ADVERSARY_SPECS,
    WORKLOAD_SPECS,
    CellOutcome,
    SweepCell,
    SweepSpec,
    SweepStoreWarning,
    SweepSummaryFold,
    adversary_fits_protocol,
    iter_sweep_jsonl,
    read_sweep_jsonl,
    records_from_sweep,
    run_cell,
    run_sweep,
    summarize_sweep,
)
from repro.sim.workloads import (
    clock_offsets,
    extremes_inputs,
    linear_inputs,
    sensor_readings,
    two_cluster_inputs,
    uniform_inputs,
)

__all__ = [
    "ADVERSARY_SPECS",
    "BATCH_PROTOCOLS",
    "CellFailure",
    "CellOutcome",
    "ChaosError",
    "ChaosPlan",
    "ChaosRule",
    "CostSummary",
    "ENGINES",
    "ENGINE_CAPABILITIES",
    "EngineCapabilities",
    "EngineCapabilityError",
    "ExecutionResult",
    "ExperimentRecord",
    "NDBATCH_PROTOCOLS",
    "PROTOCOL_FACTORIES",
    "RetryPolicy",
    "RunningStats",
    "SYNCHRONOUS_PROTOCOLS",
    "SweepCell",
    "SweepJob",
    "SweepJobError",
    "SweepJobProgress",
    "SweepJobResult",
    "SweepSpec",
    "SweepStoreWarning",
    "SweepSummaryFold",
    "VectorExecutionResult",
    "WORKLOAD_SPECS",
    "adversary_fits_protocol",
    "aggregate",
    "cell_id",
    "cell_shard",
    "clock_offsets",
    "default_quarantine_path",
    "demotion_target",
    "fold_sweep_jsonl",
    "scan_sweep_store",
    "contraction_factors",
    "extremes_inputs",
    "geometric_mean_contraction",
    "iter_quarantine_jsonl",
    "iter_resilient_outcomes",
    "iter_sweep_jsonl",
    "read_quarantine_map",
    "linear_inputs",
    "messages_per_round",
    "parameter_grid",
    "read_sweep_jsonl",
    "records_from_sweep",
    "run",
    "run_async_network",
    "run_asyncio_runtime",
    "run_batch_protocol",
    "run_cell",
    "run_lockstep",
    "run_ndbatch_block",
    "run_ndbatch_protocol",
    "run_protocol",
    "run_sweep",
    "run_vector_protocol",
    "select_engine",
    "sensor_readings",
    "spread_trajectory",
    "summarize_results",
    "summarize_sweep",
    "two_cluster_inputs",
    "uniform_inputs",
    "worst_contraction",
]

#: Names of :mod:`repro.sim.job`, served on first access (PEP 562) so that
#: importing this package does not import the job module: ``python -m
#: repro.sim.job`` would otherwise find it already in ``sys.modules``, warn,
#: and execute it a second time as ``__main__``.
_JOB_NAMES = frozenset(
    {
        "SweepJob",
        "SweepJobError",
        "SweepJobProgress",
        "SweepJobResult",
        "cell_id",
        "cell_shard",
        "fold_sweep_jsonl",
        "scan_sweep_store",
    }
)


def __getattr__(name):
    if name in _JOB_NAMES:
        return getattr(import_module("repro.sim.job"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
