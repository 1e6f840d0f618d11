"""Vector (multidimensional) approximate agreement by coordinate-wise composition.

Runs one scalar protocol instance per coordinate of the input vectors —
re-using any protocol, runtime, fault plan and delay model of the scalar
library — and assembles the per-coordinate results into vector outputs with
ℓ∞ ε-agreement and box validity (see :mod:`repro.core.multidim` for the exact
guarantees and their relation to convex-hull validity).

Each coordinate is an *independent* execution of the full protocol stack, so a
Byzantine process may misbehave differently in different coordinates and a
crash-faulty process crashes independently per coordinate instance; both are
within the adversary's power in the coordinate-wise composition and the
guarantees above still hold because they hold per coordinate.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.multidim import (
    Vector,
    VectorValidationReport,
    normalize_vector_inputs,
    validate_vector_outputs,
)
from repro.core.termination import RoundPolicy
from repro.net.network import DelayModel, FaultPlan, NetworkStats
from repro.sim.engine import EngineCapabilityError
from repro.sim.runner import ExecutionResult, run_protocol

__all__ = [
    "VectorExecutionResult",
    "compose_coordinate_results",
    "run_vector_protocol",
]


@dataclass
class VectorExecutionResult:
    """Outcome of a vector agreement execution.

    Produced both by the coordinate-wise composition below (``runtime``
    ``"event"``, one :class:`~repro.sim.runner.ExecutionResult` per
    coordinate) and by the vectorised block engine
    (:func:`repro.sim.ndbatch.run_vector_block`, ``runtime`` ``"ndbatch"``,
    whole-block ``stats``/``trajectory``/``rounds``).  Block-engine results
    carry empty ``coordinate_results`` at every dimension, ``d = 1``
    included, and a failing execution's ``report`` holds the violation
    strings of :func:`repro.core.multidim.validate_vector_outputs`.
    """

    protocol: str
    dimension: int
    report: VectorValidationReport
    outputs: Dict[int, Optional[Vector]]
    coordinate_results: List[ExecutionResult] = field(default_factory=list)
    runtime: str = "event"
    #: Whole-execution network costs (set by the block engine; the
    #: coordinate-wise path derives costs from ``coordinate_results``).
    stats: Optional[NetworkStats] = None
    #: Per-round ℓ∞ honest diameter, index 0 = input diameter.
    trajectory: Tuple[float, ...] = ()
    rounds: Optional[int] = None
    wall_time_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.report.ok

    @property
    def total_messages(self) -> int:
        if self.stats is not None:
            return self.stats.messages_sent
        return sum(result.stats.messages_sent for result in self.coordinate_results)

    @property
    def rounds_used(self) -> int:
        if self.rounds is not None:
            return self.rounds
        return max((result.rounds_used for result in self.coordinate_results), default=0)

    def summary(self) -> str:
        return (
            f"{self.protocol} in R^{self.dimension}: {self.report.summary()} "
            f"rounds={self.rounds_used} msgs={self.total_messages}"
        )


def run_vector_protocol(
    protocol: str,
    vector_inputs: Sequence[Sequence[float]],
    t: int,
    epsilon: float,
    round_policy: Optional[RoundPolicy] = None,
    delay_model: Optional[DelayModel] = None,
    fault_plan: Optional[FaultPlan] = None,
    runtime: Optional[str] = None,
    strict: bool = True,
    engine: Optional[str] = None,
    dtype: Optional[str] = None,
) -> VectorExecutionResult:
    """Run vector approximate agreement coordinate by coordinate.

    Parameters mirror :func:`repro.sim.runner.run_protocol`; ``vector_inputs``
    is one input vector per process and all vectors must share one dimension.
    The returned report checks ℓ∞ ε-agreement and box validity against the
    non-Byzantine processes' input vectors.

    Engine-selection kwargs (``engine=``/``dtype=``) are
    rejected loudly rather than silently ignored: this composition always
    runs on the event simulator, one full execution per coordinate.  For
    vectorised execution use :func:`repro.sim.ndbatch.run_vector_block` (or
    a sweep cell with ``dimension > 1``), which accepts those kwargs and
    runs the whole ``(executions, n, d)`` block on the tensor fast path.
    """
    rejected = [
        name
        for name, value in (("engine", engine), ("dtype", dtype))
        if value is not None
    ]
    if rejected:
        raise EngineCapabilityError(
            "event",
            f"{'/'.join(f'{name}=' for name in rejected)} overrides "
            f"(run_vector_protocol composes one event-simulator execution per "
            f"coordinate; for engine/dtype selection run the vectorised "
            f"block path, repro.sim.ndbatch.run_vector_block, or a sweep "
            f"cell with dimension > 1)",
            ("ndbatch",),
        )
    vectors = normalize_vector_inputs(vector_inputs)
    dimension = len(vectors[0])

    coordinate_results: List[ExecutionResult] = []
    for coordinate in range(dimension):
        scalar_inputs = [vector[coordinate] for vector in vectors]
        # Every coordinate gets a FRESH copy of the fault plan: Byzantine
        # behaviour processes are stateful event-driven state machines
        # (RoundEchoByzantine tracks which rounds it already attacked), so
        # reusing one instance would leave the adversary silent from the
        # second coordinate on — each coordinate faces an identically
        # initialised, independently evolving adversary instead.  Delay
        # models are reset by the network itself.
        coordinate_plan = copy.deepcopy(fault_plan) if fault_plan is not None else None
        coordinate_results.append(
            run_protocol(
                protocol,
                scalar_inputs,
                t=t,
                epsilon=epsilon,
                round_policy=round_policy,
                delay_model=delay_model,
                fault_plan=coordinate_plan,
                runtime=runtime,
                strict=strict,
            )
        )

    return compose_coordinate_results(protocol, vectors, epsilon, coordinate_results)


def compose_coordinate_results(
    protocol: str,
    vectors: Sequence[Vector],
    epsilon: float,
    coordinate_results: Sequence[ExecutionResult],
    runtime: str = "event",
) -> VectorExecutionResult:
    """Assemble per-coordinate scalar results into one vector result.

    The shared back half of every coordinate-wise composition path — the
    event composition above and the sweep's batch-engine degradation path
    (:mod:`repro.sim.sweep`) both funnel through here, so they assemble
    outputs, the ℓ∞/box report, and the ℓ∞ diameter trajectory (the
    elementwise maximum over the coordinate trajectories — exactly what the
    vectorised block engine records) identically.  ``vectors`` are the
    normalised input vectors; ``runtime`` labels which engine produced the
    coordinate results.
    """
    if not coordinate_results:
        raise ValueError("compose_coordinate_results needs at least one coordinate")
    dimension = len(coordinate_results)
    n = len(vectors)
    honest = coordinate_results[0].problem.honest
    byzantine = set(coordinate_results[0].problem.byzantine)
    outputs: Dict[int, Optional[Vector]] = {}
    for pid in honest:
        coordinates = [result.outputs.get(pid) for result in coordinate_results]
        outputs[pid] = tuple(coordinates) if all(c is not None for c in coordinates) else None

    reference = [vectors[pid] for pid in range(n) if pid not in byzantine]
    report = validate_vector_outputs(outputs, reference, epsilon, expected_pids=honest)
    trajectories = [tuple(result.trajectory) for result in coordinate_results]
    length = max((len(t) for t in trajectories), default=0)
    trajectory = tuple(
        max(t[i] if i < len(t) else (t[-1] if t else 0.0) for t in trajectories)
        for i in range(length)
    )
    return VectorExecutionResult(
        protocol=protocol,
        dimension=dimension,
        report=report,
        outputs=outputs,
        coordinate_results=list(coordinate_results),
        runtime=runtime,
        trajectory=trajectory,
        rounds=max(result.rounds_used for result in coordinate_results),
        wall_time_seconds=sum(result.wall_time_seconds for result in coordinate_results),
    )
