"""Seeded scenario-grid sweeps over the execution engines.

A *sweep* is the cartesian product of named axes — protocol, system size,
adversary, input workload, seed — evaluated on one of three engines: the
pure-Python round-level batch engine (:mod:`repro.sim.batch`, the default),
the numpy-vectorised block engine (:mod:`repro.sim.ndbatch`, the fastest:
cells sharing a scenario shape are grouped and advance together as one value
matrix), or the per-message event simulator (:mod:`repro.sim.runner`, for
differential validation and message-level effects).  All engines consume the
*same* adversary specification: each named adversary builds a message-level
``(fault_plan, delay_model)`` bundle, which the round-level engines adapt
through :func:`repro.net.adversary.round_fault_model` and
:class:`repro.net.adversary.DelayRankOmission`.

Everything in a sweep is deterministic given the cell: workloads and
randomised adversary components derive from the cell's seed, so re-running a
sweep — serially or on a worker pool (:mod:`repro.sim.resilient`) —
reproduces the same outcomes bit for bit (guarded by
``tests/sim/test_determinism.py``).

Per-cell results are compact, picklable :class:`CellOutcome` records carrying
the same measurements as :class:`~repro.sim.runner.ExecutionResult` /
:class:`~repro.sim.metrics.CostSummary`, and they flow into the existing
analysis pipeline: :func:`records_from_sweep` and :func:`summarize_sweep`
produce :class:`~repro.sim.experiments.ExperimentRecord` rows that
:func:`repro.analysis.tables.render_records` renders directly, with the
theory-versus-measurement columns of :mod:`repro.analysis.convergence`.

Typical use::

    spec = SweepSpec(
        protocols=("async-crash",),
        system_sizes=((7, 2), (10, 3)),
        adversaries=("none", "crash-initial", "staggered"),
        workloads=("uniform", "two-cluster"),
        seeds=tuple(range(50)),
    )
    outcomes = run_sweep(spec, workers=4)
    print(render_records(summarize_sweep(outcomes), SUMMARY_COLUMNS))
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import warnings
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.analysis.convergence import compare_to_bound
from repro.core.rounds import (
    AlgorithmBounds,
    async_byzantine_bounds,
    async_crash_bounds,
    sync_byzantine_bounds,
    sync_crash_bounds,
    witness_bounds,
)
from repro.core.multidim import normalize_vector_inputs
from repro.core.termination import (
    FixedRounds,
    default_round_policy,
    default_vector_round_policy,
)
from repro.net.adversary import (
    AntiConvergenceStrategy,
    ByzantineFaultPlan,
    CrashFaultPlan,
    CrashPoint,
    DelayRankOmission,
    EquivocatingStrategy,
    FixedValueStrategy,
    LaggardDelay,
    OmissionPolicy,
    PartitionDelay,
    PartitionReportDelay,
    RandomValueStrategy,
    RoundEchoByzantine,
    RoundFaultModel,
    SeededDelay,
    SeededOmission,
    StaggeredExclusionDelay,
    round_fault_model,
)
from repro.net.network import DelayModel, FaultPlan
from repro.sim.engine import (
    ENGINE_CAPABILITIES,
    ndbatch_min_work,
    require_capability,
    scenario_features,
    select_engine,
)
from repro.sim.engine import run as run_on_engine

try:
    from repro.sim.ndbatch import run_ndbatch_block, run_vector_block
except ImportError:  # numpy unavailable — engine="ndbatch" raises at dispatch
    run_ndbatch_block = None
    run_vector_block = None
from repro.sim.vector import (
    VectorExecutionResult,
    compose_coordinate_results,
    run_vector_protocol,
)
from repro.sim.experiments import ExperimentRecord, RunningStats
from repro.sim.metrics import CostSummary
from repro.sim.runner import PROTOCOL_FACTORIES, ExecutionResult
from repro.sim.workloads import (
    clock_offsets,
    drifting_clocks,
    extremes_inputs,
    linear_inputs,
    noisy_sensors,
    rendezvous_positions,
    sensor_readings,
    two_cluster_inputs,
    uniform_inputs,
)

__all__ = [
    "ADVERSARY_SPECS",
    "WORKLOAD_SPECS",
    "VECTOR_WORKLOAD_SPECS",
    "PROTOCOL_BOUNDS",
    "SUMMARY_COLUMNS",
    "CELL_COLUMNS",
    "DEFAULT_MAX_BLOCK_SIZE",
    "FOUND_ATTACKS",
    "AdversaryBundle",
    "build_adversary_bundle",
    "SweepCell",
    "SweepSpec",
    "CellOutcome",
    "SweepStoreWarning",
    "SweepSummaryFold",
    "adversary_fits_protocol",
    "run_cell",
    "run_sweep",
    "iter_sweep_jsonl",
    "read_sweep_jsonl",
    "records_from_sweep",
    "summarize_sweep",
]


#: Protocol name → closed-form bounds factory (every protocol, both engines).
PROTOCOL_BOUNDS: Dict[str, Callable[[int, int], AlgorithmBounds]] = {
    "async-crash": async_crash_bounds,
    "async-byzantine": async_byzantine_bounds,
    "witness": witness_bounds,
    "sync-crash": sync_crash_bounds,
    "sync-byzantine": sync_byzantine_bounds,
}


class AdversaryBundle(NamedTuple):
    """Message-level adversary specification shared by both engines."""

    fault_plan: Optional[FaultPlan]
    delay_model: Optional[DelayModel]
    #: Whether the faults are Byzantine (used for protocol compatibility).
    byzantine: bool = False


def _no_adversary(protocol: str, n: int, t: int, seed: int) -> AdversaryBundle:
    return AdversaryBundle(None, None)


def _crash_initial(protocol: str, n: int, t: int, seed: int) -> AdversaryBundle:
    """The ``t`` highest-id processes are initially dead (never send)."""
    plan = CrashFaultPlan({n - 1 - i: CrashPoint(after_sends=0) for i in range(t)})
    return AdversaryBundle(plan if t else None, None)


def _crash_staggered(protocol: str, n: int, t: int, seed: int) -> AdversaryBundle:
    """One crash per round, each mid-multicast at a seed-derived prefix."""
    plan = CrashFaultPlan(
        {
            n - 1 - i: CrashPoint.mid_multicast(i + 1, n, (seed + 3 * i) % (n + 1))
            for i in range(t)
        }
    )
    return AdversaryBundle(plan if t else None, None)


def _byzantine(strategy_factory: Callable[[int], object]) -> Callable[..., AdversaryBundle]:
    def build(protocol: str, n: int, t: int, seed: int) -> AdversaryBundle:
        behaviours = {
            n - 1 - i: RoundEchoByzantine(strategy_factory(seed + i)) for i in range(t)
        }
        return AdversaryBundle(ByzantineFaultPlan(behaviours) if t else None, None, True)

    return build


def _merge_params(
    adversary: str,
    params: Sequence[Tuple[str, Union[int, float]]],
    defaults: Dict[str, Union[int, float]],
) -> Dict[str, Union[int, float]]:
    """Overlay a cell's ``adversary_params`` pairs on a factory's defaults.

    Unknown parameter names fail loudly — a silently ignored knob would make
    two *different* attack programs collide on one cell identity, corrupting
    resume and the attack-search score cache.
    """
    merged: Dict[str, Union[int, float]] = dict(defaults)
    for key, value in params or ():
        if key not in defaults:
            raise ValueError(
                f"adversary {adversary!r} has no parameter {key!r}; "
                f"searchable parameters: {sorted(defaults)}"
            )
        merged[key] = value
    return merged


def _partition(protocol: str, n: int, t: int, seed: int) -> AdversaryBundle:
    return AdversaryBundle(None, PartitionDelay(camp_a=range((n + 1) // 2)))


def _laggard(protocol: str, n: int, t: int, seed: int) -> AdversaryBundle:
    return AdversaryBundle(None, LaggardDelay(slow_senders=range(n - t, n)))


def _byz_anti(
    protocol: str, n: int, t: int, seed: int, params: Sequence = ()
) -> AdversaryBundle:
    """Anti-convergence Byzantine values, optionally over an exclusion schedule.

    With no parameters this is the historic ``byz-anti`` bundle bit for bit:
    the ``t`` highest-id processes run :class:`AntiConvergenceStrategy` and
    quorums are benign (seeded omission).  The searchable parameters expose
    the family the attack search optimises over — ``stretch``/``parity``
    shape the injected values, and a non-zero ``exclude`` additionally puts
    the *honest* quorums on a :class:`StaggeredExclusionDelay` rotation
    (``stride``/``phase``/``slow``), combining value injection with an
    adversarial message schedule.
    """
    p = _merge_params(
        "byz-anti",
        params,
        {"stretch": 0.0, "parity": 0, "exclude": 0, "stride": 1, "phase": 0, "slow": 50.0},
    )
    behaviours = {
        n - 1 - i: RoundEchoByzantine(
            AntiConvergenceStrategy(stretch=float(p["stretch"]), parity=int(p["parity"]))
        )
        for i in range(t)
    }
    delay = None
    if int(p["exclude"]):
        delay = StaggeredExclusionDelay(
            n,
            exclude=int(p["exclude"]),
            slow=float(p["slow"]),
            stride=int(p["stride"]),
            phase=int(p["phase"]),
        )
    return AdversaryBundle(ByzantineFaultPlan(behaviours) if t else None, delay, True)


_byz_anti.accepts_params = True


def _staggered(
    protocol: str, n: int, t: int, seed: int, params: Sequence = ()
) -> AdversaryBundle:
    """Rotating delay-rank exclusion; the delay-rank attack-search family.

    Default is the historic ``staggered`` bundle (exclude the ``t``-window
    rotating by one each round).  The searchable parameters sweep the window
    size and the rotation schedule (``stride=0`` freezes the window per
    recipient; other strides skip around the ring).
    """
    p = _merge_params(
        "staggered", params, {"exclude": t, "stride": 1, "phase": 0, "slow": 50.0}
    )
    return AdversaryBundle(
        None,
        StaggeredExclusionDelay(
            n,
            exclude=int(p["exclude"]),
            slow=float(p["slow"]),
            stride=int(p["stride"]),
            phase=int(p["phase"]),
        ),
    )


_staggered.accepts_params = True


def _random_delays(protocol: str, n: int, t: int, seed: int) -> AdversaryBundle:
    # Counter-based PRF delays: a stateless tensor program, so the
    # vectorised engine runs randomised-delay cells with zero per-recipient
    # Python quorum calls (UniformRandomDelay's sequential RNG stream has no
    # tensor form, so ndbatch refuses it and auto runs it on batch).
    return AdversaryBundle(None, SeededDelay(low=0.1, high=2.0, seed=seed))


def _witness_partition(
    protocol: str, n: int, t: int, seed: int, params: Sequence = ()
) -> AdversaryBundle:
    # Partition-aware witness report schedule: cross-camp REPORT messages are
    # slow, everything else fast.  On witness cells this maximally staggers
    # the witness waits across the cut without shaping the sampled values
    # (shapes_witness_samples=False), so the round-level form agrees with the
    # event simulator exactly (tests/sim/test_witness_partition.py); on the
    # direct protocols the schedule leaves VALUE rounds uniform.  The ``cut``
    # parameter moves the camp boundary (camp A = processes 0..cut-1), the
    # witness-partition attack-search axis.
    p = _merge_params(
        "witness-partition", params, {"cut": (n + 1) // 2, "slow": 200.0}
    )
    return AdversaryBundle(
        None, PartitionReportDelay(camp_a=range(int(p["cut"])), slow=float(p["slow"]))
    )


_witness_partition.accepts_params = True


#: Adversary name → builder(protocol, n, t, seed) → :class:`AdversaryBundle`.
#: Factories carrying ``accepts_params = True`` additionally take a
#: ``params=`` keyword (``(name, value)`` pairs, a :attr:`SweepCell.
#: adversary_params` payload) selecting one member of their attack family;
#: route cell execution through :func:`build_adversary_bundle`, which
#: dispatches on that marker and rejects parameters the factory cannot
#: honour.
ADVERSARY_SPECS: Dict[str, Callable[[str, int, int, int], AdversaryBundle]] = {
    "none": _no_adversary,
    "crash-initial": _crash_initial,
    "crash-staggered": _crash_staggered,
    "byz-fixed": _byzantine(lambda seed: FixedValueStrategy(1e3)),
    "byz-equivocate": _byzantine(lambda seed: EquivocatingStrategy(-1.0, 2.0)),
    "byz-anti": _byz_anti,
    "byz-random": _byzantine(lambda seed: RandomValueStrategy(-2.0, 3.0, seed=seed)),
    "partition": _partition,
    "laggard": _laggard,
    "staggered": _staggered,
    "random-delays": _random_delays,
    "witness-partition": _witness_partition,
}


def _found_attack(base: str, params: Dict[str, Union[int, float]]) -> Callable:
    """Bind one attack-search discovery to a plain ``(protocol, n, t, seed)`` factory."""
    frozen = tuple(sorted(params.items()))

    def build(protocol: str, n: int, t: int, seed: int) -> AdversaryBundle:
        return ADVERSARY_SPECS[base](protocol, n, t, seed, params=frozen)

    build.__doc__ = f"Attack-search discovery over the {base!r} family: {params!r}."
    return build


#: Worst-case adversaries *found* by the attack search
#: (:mod:`repro.analysis.attacksearch`) on the (n=7, t=2) reference grids and
#: committed as named adversaries: name → (base family adversary, parameters).
#: Severity is pinned by ``tests/analysis/test_found_attacks.py`` — each entry
#: must keep scoring at least its hand-written baseline (``byz-anti`` /
#: ``staggered``) on rounds-to-ε.
FOUND_ATTACKS: Dict[str, Tuple[str, Dict[str, Union[int, float]]]] = {
    # Anti-convergence byzantine pair + a frozen (stride-0) two-process
    # exclusion window.  Found by the attack search on the witness protocol
    # at n=7, t=2, where the hand-written ``byz-anti`` converges within its
    # scheduled rounds (rounds-to-eps overtime 0.0) but the frozen window
    # stalls the report quorums enough to leave residual spread (~5.5 extra
    # rounds on the training block).  On sync protocols the delay component
    # is inert and the member ties ``byz-anti`` exactly.
    "found-anti-stagger": (
        "byz-anti",
        {"stretch": 0.0, "parity": 0, "exclude": 2, "stride": 0, "phase": 0, "slow": 50.0},
    ),
    # Frozen-window delay-rank exclusion: the attack search on async-crash at
    # n=7, t=2 found that freezing the t-wide exclusion window (stride=0) is
    # exactly as severe as the rotating hand-written ``staggered`` schedule —
    # the family optimum is a severity *plateau* over the rotation axis, and
    # widening the window past t (exclude=3,4) actually *helps* convergence
    # by delaying everyone more uniformly.
    "found-rank-freeze": (
        "staggered",
        {"exclude": 2, "stride": 0, "phase": 0, "slow": 50.0},
    ),
}

for _name, (_base, _params) in FOUND_ATTACKS.items():
    ADVERSARY_SPECS[_name] = _found_attack(_base, _params)

#: Adversaries that replace processes with Byzantine behaviours.
_BYZANTINE_ADVERSARIES = frozenset(
    {"byz-fixed", "byz-equivocate", "byz-anti", "byz-random", "found-anti-stagger"}
)

#: Protocols whose fault model covers Byzantine behaviour.
_BYZANTINE_PROTOCOLS = frozenset({"async-byzantine", "sync-byzantine", "witness"})


def adversary_fits_protocol(adversary: str, protocol: str) -> bool:
    """Whether the adversary stays inside the protocol's fault model.

    Byzantine value-injection against a crash-tolerant protocol is outside
    its fault model — the sweep will run such cells (they are interesting
    precisely because the guarantees may break), but grids that assert
    every cell is correct should filter with this predicate.
    """
    if adversary in _BYZANTINE_ADVERSARIES:
        return protocol in _BYZANTINE_PROTOCOLS
    return True


#: Workload name → builder(n, seed) → input vector.
WORKLOAD_SPECS: Dict[str, Callable[[int, int], List[float]]] = {
    "uniform": lambda n, seed: uniform_inputs(n, seed=seed),
    "two-cluster": lambda n, seed: two_cluster_inputs(n, seed=seed),
    "extremes": lambda n, seed: extremes_inputs(n),
    "linear": lambda n, seed: linear_inputs(n),
    "sensors": lambda n, seed: sensor_readings(n, seed=seed),
    "clocks": lambda n, seed: clock_offsets(n, seed=seed),
}

#: Vector-native workload name → builder(n, dimension, seed) → one vector per
#: process.  These are the three worked examples (clock sync, sensor fusion,
#: drone rendezvous) re-cast as seeded R^d scenario families; they require a
#: cell with ``dimension >= 1`` and at d=1 degrade to scalar cells.
VECTOR_WORKLOAD_SPECS: Dict[str, Callable[[int, int, int], List[List[float]]]] = {
    "drifting-clocks": lambda n, d, seed: drifting_clocks(n, dimension=d, seed=seed),
    "sensor-noise": lambda n, d, seed: noisy_sensors(n, dimension=d, seed=seed),
    "rendezvous": lambda n, d, seed: rendezvous_positions(n, dimension=d, seed=seed),
}

#: Seed stride separating the per-coordinate streams when a scalar workload
#: is lifted to R^d (coordinate c uses ``seed + _COORDINATE_SEED_STRIDE * c``).
_COORDINATE_SEED_STRIDE = 7919


def _cell_vector_inputs(cell: "SweepCell") -> List[List[float]]:
    """The cell's inputs as one length-``dimension`` vector per process.

    Vector-native workloads build the whole vector in one seeded draw; scalar
    workloads are lifted coordinate-wise, coordinate ``c`` drawn with seed
    ``seed + stride*c`` so coordinates are independent but reproducible (and
    coordinate 0 is bit-identical to the d=1 scalar workload).
    """
    if cell.workload in VECTOR_WORKLOAD_SPECS:
        vectors = VECTOR_WORKLOAD_SPECS[cell.workload](cell.n, cell.dimension, cell.seed)
        return [list(vector) for vector in vectors]
    builder = WORKLOAD_SPECS[cell.workload]
    columns = [
        builder(cell.n, cell.seed + _COORDINATE_SEED_STRIDE * coordinate)
        for coordinate in range(cell.dimension)
    ]
    return [[columns[c][pid] for c in range(cell.dimension)] for pid in range(cell.n)]


def _cell_inputs(cell: "SweepCell") -> List[float]:
    """The cell's scalar inputs (``dimension == 1`` only)."""
    if cell.dimension != 1:
        raise ValueError("scalar inputs requested for a dimension > 1 cell")
    if cell.workload in VECTOR_WORKLOAD_SPECS:
        return [vector[0] for vector in _cell_vector_inputs(cell)]
    return WORKLOAD_SPECS[cell.workload](cell.n, cell.seed)


@dataclass(frozen=True)
class SweepCell:
    """One fully specified execution of the grid (hashable, picklable)."""

    protocol: str
    n: int
    t: int
    epsilon: float
    adversary: str
    workload: str
    seed: int
    engine: str  # "auto", "batch", "ndbatch" or "event"
    #: Value dimension: 1 (scalar, the default — cell identity and store
    #: records are unchanged from schema v1) or d > 1 for vector agreement
    #: in R^d with ℓ∞ ε-agreement and box validity.
    dimension: int = 1
    #: Adversary family parameters: ``(name, value)`` pairs selecting one
    #: member of a parameterised attack family (see
    #: :func:`build_adversary_bundle` and :mod:`repro.analysis.attacksearch`).
    #: Normalised to a key-sorted tuple on construction, so cells built from
    #: dicts (e.g. decoded JSONL) and tuples compare and hash identically.
    #: Empty — the default — is omitted from cell IDs and store lines, so
    #: every parameterless cell keeps its pre-params identity and v1/v2
    #: stores stay byte-valid.
    adversary_params: Tuple[Tuple[str, Union[int, float]], ...] = ()

    def __post_init__(self) -> None:
        params = self.adversary_params
        if params == ():
            return  # the default: already canonical, nothing to sort
        items = params.items() if isinstance(params, dict) else params
        normalized = tuple(sorted((str(key), value) for key, value in items))
        object.__setattr__(self, "adversary_params", normalized)

    def validate(self) -> None:
        if self.protocol not in PROTOCOL_FACTORIES:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.adversary not in ADVERSARY_SPECS:
            raise ValueError(f"unknown adversary {self.adversary!r}")
        if self.adversary_params:
            factory = ADVERSARY_SPECS[self.adversary]
            if not getattr(factory, "accepts_params", False):
                raise ValueError(
                    f"adversary {self.adversary!r} accepts no parameters, but "
                    f"the cell carries adversary_params="
                    f"{dict(self.adversary_params)!r}"
                )
            for key, value in self.adversary_params:
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise ValueError(
                        f"adversary parameter {key!r} must be an int or float, "
                        f"got {value!r}"
                    )
        if self.workload not in WORKLOAD_SPECS and self.workload not in VECTOR_WORKLOAD_SPECS:
            raise ValueError(f"unknown workload {self.workload!r}")
        if self.engine not in ("auto", "batch", "ndbatch", "event"):
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")
        if self.engine != "auto":
            # Engine overrides are checked against the capability matrix at
            # the protocol level here (cheap, catches grid typos early); the
            # full scenario check happens at dispatch.
            require_capability(self.engine, {f"protocol:{self.protocol}"})


@dataclass(frozen=True)
class SweepSpec:
    """A scenario grid: the cartesian product of its axes."""

    protocols: Tuple[str, ...]
    system_sizes: Tuple[Tuple[int, int], ...]  # (n, t) pairs
    adversaries: Tuple[str, ...] = ("none",)
    workloads: Tuple[str, ...] = ("uniform",)
    seeds: Tuple[int, ...] = (0,)
    epsilon: float = 1e-3
    #: Execution engine: ``"auto"`` (capability-based dispatch — each cell
    #: runs on the fastest engine whose capability set covers it, vectorised
    #: cells grouped into ndbatch blocks), ``"batch"`` (pure-Python round
    #: level, the default), ``"ndbatch"`` (numpy-vectorised round level —
    #: fastest; whole blocks of shape-compatible cells advance as one
    #: matrix), or ``"event"`` (the per-message discrete-event simulator).
    engine: str = "batch"
    #: Value dimensions (new axis, innermost after seeds): ``(1,)`` keeps the
    #: grid scalar and the cell order identical to pre-dimension grids.
    dimensions: Tuple[int, ...] = (1,)

    def cells(self) -> Iterator[SweepCell]:
        """Yield every cell of the grid, in a fixed deterministic order."""
        for protocol, (n, t), adversary, workload, seed, dimension in itertools.product(
            self.protocols,
            self.system_sizes,
            self.adversaries,
            self.workloads,
            self.seeds,
            self.dimensions,
        ):
            cell = SweepCell(
                protocol=protocol,
                n=n,
                t=t,
                epsilon=self.epsilon,
                adversary=adversary,
                workload=workload,
                seed=seed,
                engine=self.engine,
                dimension=dimension,
            )
            cell.validate()
            yield cell

    @property
    def cell_count(self) -> int:
        return (
            len(self.protocols)
            * len(self.system_sizes)
            * len(self.adversaries)
            * len(self.workloads)
            * len(self.seeds)
            * len(self.dimensions)
        )


@dataclass(frozen=True)
class CellOutcome:
    """Compact, picklable measurement record of one sweep cell.

    Carries the cell plus the same quantities an
    :class:`~repro.sim.runner.ExecutionResult` exposes — correctness verdict,
    round/message/bit costs (as a :class:`~repro.sim.metrics.CostSummary` via
    :attr:`costs`), output spread, and the theory-versus-measurement
    contraction comparison of :mod:`repro.analysis.convergence`.
    """

    cell: SweepCell
    ok: bool
    all_decided: bool
    rounds: int
    messages: int
    bits: int
    output_spread: float
    theoretical_contraction: float
    worst_contraction: Optional[float]
    mean_contraction: Optional[float]
    bound_respected: bool
    #: Wall time is observational, not part of the deterministic outcome, so
    #: it is excluded from equality — pool and serial sweeps compare equal.
    wall_time_seconds: float = field(compare=False, default=0.0)
    violations: Tuple[str, ...] = ()
    #: The engine that actually executed the cell ("batch", "ndbatch" or
    #: "event") — informative when the cell's engine axis is "auto".
    engine_used: str = ""
    #: The engine the cell was demoted *from* by the resilient layer
    #: (:mod:`repro.sim.resilient`), e.g. ``"ndbatch"`` when a repeatedly
    #: failing block chunk was split and re-run per cell on the batch
    #: engine.  Empty for normal runs; provenance only — the engines agree
    #: exactly on integer costs and to ≤1e-9 on derived float metrics.
    demoted_from: str = ""

    @property
    def costs(self) -> CostSummary:
        return CostSummary(rounds=self.rounds, messages=self.messages, bits=self.bits)

    def as_record(self) -> ExperimentRecord:
        cell = self.cell
        params = {
            "protocol": cell.protocol,
            "n": cell.n,
            "t": cell.t,
            # epsilon is part of the cell identity: dropping it here made
            # records from different-ε grids indistinguishable downstream.
            "epsilon": cell.epsilon,
            "adversary": cell.adversary,
            "workload": cell.workload,
            "seed": cell.seed,
            "engine": cell.engine,
            "dimension": cell.dimension,
        }
        if cell.adversary_params:
            params["adversary_params"] = dict(cell.adversary_params)
        return ExperimentRecord(
            experiment="sweep",
            params=params,
            measured={
                "rounds": self.rounds,
                "messages": self.messages,
                "bits": self.bits,
                "output_spread": self.output_spread,
                "worst_contraction": self.worst_contraction,
                "mean_contraction": self.mean_contraction,
            },
            expected={"contraction": self.theoretical_contraction},
            ok=self.ok and self.bound_respected,
            notes="; ".join(self.violations),
        )


#: Column sets for rendering per-cell and per-group tables.
CELL_COLUMNS = [
    "protocol", "n", "t", "epsilon", "adversary", "workload", "seed", "engine",
    "dimension", "rounds", "messages", "worst_contraction",
    "expected_contraction", "output_spread", "ok",
]
SUMMARY_COLUMNS = [
    "protocol", "n", "t", "epsilon", "adversary", "workload", "engine",
    "dimension", "runs", "ok_fraction", "rounds_mean", "messages_mean",
    "worst_contraction", "expected_contraction", "ok",
]


def build_adversary_bundle(cell: SweepCell) -> AdversaryBundle:
    """The cell's :class:`AdversaryBundle`, honouring ``adversary_params``.

    The single front door every execution path uses to materialise a cell's
    adversary: parameterless cells call the registry factory exactly as
    before, and cells carrying :attr:`SweepCell.adversary_params` route the
    payload to family-capable factories (``accepts_params = True``).  A
    parameter payload aimed at a factory that cannot honour it fails loudly —
    silently dropping it would score/execute a *different* adversary under
    the parameterised cell's identity.
    """
    factory = ADVERSARY_SPECS[cell.adversary]
    if not cell.adversary_params:
        return factory(cell.protocol, cell.n, cell.t, cell.seed)
    if not getattr(factory, "accepts_params", False):
        raise ValueError(
            f"adversary {cell.adversary!r} accepts no parameters, but the cell "
            f"carries adversary_params={dict(cell.adversary_params)!r}"
        )
    return factory(
        cell.protocol, cell.n, cell.t, cell.seed, params=cell.adversary_params
    )


class CellPlan(NamedTuple):
    """One cell's scenario, derived once (:func:`_plan_cell`).

    Block grouping, ``auto``'s engine choice, chunk packing and the ndbatch
    chunk runner read the plan, and it travels inside its chunk to the
    block that runs it, in process or pickled to a pool worker.
    """

    cell: SweepCell
    #: ``n`` floats, or ``n`` length-``dimension`` vectors at ``d > 1``.
    inputs: List
    bounds: AlgorithmBounds
    #: The upfront round count every engine runs for the cell.
    rounds: int
    #: ``None`` when the faults have no round-level form; ``features`` then
    #: names message-level faults, which ndbatch refuses.
    fault_model: Optional[RoundFaultModel]
    omission: OmissionPolicy
    features: Set[str]


def _plan_cell(cell: SweepCell) -> CellPlan:
    """:func:`_plan_cell_and_bundle`'s plan."""
    return _plan_cell_and_bundle(cell)[0]


def _plan_cell_and_bundle(cell: SweepCell) -> Tuple[CellPlan, AdversaryBundle]:
    """Validate ``cell`` and derive everything it needs before it runs.

    The one place a sweep cell becomes a scenario: its inputs, bounds and
    round count (the fixed-round default policy over the input spread, ℓ∞
    at ``d > 1``, which every engine runs), its adversary bundle's round
    fault model and omission policy, and the scenario features the engine
    choice reads.  The bundle is returned beside the plan for the event
    engine, which runs its fault plan and delay model (planning only reads
    them).
    """
    cell.validate()
    bounds = PROTOCOL_BOUNDS[cell.protocol](cell.n, cell.t)
    if cell.dimension > 1:
        inputs: List = _cell_vector_inputs(cell)
        rounds = default_vector_round_policy(bounds, inputs, cell.epsilon).rounds
    else:
        inputs = _cell_inputs(cell)
        rounds = default_round_policy(bounds, inputs, cell.epsilon).rounds
    bundle = build_adversary_bundle(cell)
    try:
        fault_model: Optional[RoundFaultModel] = round_fault_model(bundle.fault_plan, cell.n)
    except ValueError:
        fault_model = None
    features = scenario_features(
        cell.protocol, cell.n, cell.t,
        fault_plan=bundle.fault_plan,
        # Without a fault plan the (empty) model is not a round-level spec.
        fault_model=fault_model if bundle.fault_plan is not None else None,
        delay_model=bundle.delay_model,
    )
    omission = (
        DelayRankOmission(bundle.delay_model)
        if bundle.delay_model is not None
        else SeededOmission(cell.seed)
    )
    return CellPlan(cell, inputs, bounds, rounds, fault_model, omission, features), bundle


#: ExecutionResult.runtime tag → engine name (the event engine has three
#: runtimes; the round-level engines tag results with their own name).
_RUNTIME_TO_ENGINE = {"des": "event", "lockstep": "event", "asyncio": "event"}


def _outcome_from_result(
    cell: SweepCell,
    result: Union[ExecutionResult, VectorExecutionResult],
    bounds: AlgorithmBounds,
) -> CellOutcome:
    """Compress one scalar or vector execution result into a cell outcome.

    A vector result's contraction comparison runs on the ℓ∞ diameter
    trajectory — the per-round contraction bound holds per coordinate, hence
    for the maximum over coordinates, so the scalar bound machinery applies
    unchanged — and its ``output_spread`` is the honest outputs' ℓ∞ diameter.
    """
    comparison = compare_to_bound(bounds, result.trajectory)
    if not isinstance(result, VectorExecutionResult):
        messages, bits = result.stats.messages_sent, result.stats.bits_sent
        output_spread = result.report.output_spread
    else:
        messages, output_spread = result.total_messages, result.report.max_linf_distance
        if result.stats is not None:
            bits = result.stats.bits_sent
        else:
            bits = sum(r.stats.bits_sent for r in result.coordinate_results)
    return CellOutcome(
        cell=cell,
        ok=result.ok,
        all_decided=result.report.all_decided,
        rounds=result.rounds_used,
        messages=messages,
        bits=bits,
        output_spread=output_spread,
        theoretical_contraction=bounds.contraction,
        worst_contraction=comparison.measured_worst_contraction,
        mean_contraction=comparison.measured_mean_contraction,
        bound_respected=comparison.bound_respected,
        wall_time_seconds=result.wall_time_seconds,
        violations=tuple(result.report.violations),
        engine_used=_RUNTIME_TO_ENGINE.get(result.runtime, result.runtime),
    )


def run_cell(cell: SweepCell, engine: Optional[str] = None) -> CellOutcome:
    """Execute one cell and compress the result into a :class:`CellOutcome`.

    ``engine`` overrides the cell's own engine without rewriting the cell —
    the resilient layer uses this to demote a failing cell to a slower
    engine while keeping its identity (and :func:`repro.sim.job.cell_id`)
    unchanged.

    The cell is planned once (:func:`_plan_cell_and_bundle`) and its engine
    chosen once, from the plan's features, at every dimension: ``auto``
    applies :func:`~repro.sim.engine.select_engine` to one execution's work
    (rounds × n × dimension, the block-setup cost model), and an explicit
    engine must cover the whole scenario
    (:func:`~repro.sim.engine.require_capability`).  Every engine runs the
    plan's round count, so round counts (hence message/bit costs) are
    engine-independent:

    - ``ndbatch``: the plan runs as a one-plan chunk
      (:func:`_run_ndbatch_chunk`); at ``d > 1`` on the ``(executions, n,
      d)`` tensor path, one shared quorum selection per round across
      coordinates.
    - ``event`` and ``batch`` at ``d = 1``: :func:`repro.sim.engine.run`
      over the plan's adversary bundle.
    - ``event`` at ``d > 1``: :func:`repro.sim.vector.run_vector_protocol`,
      one event execution per coordinate, over the plan's bundle.
    - ``batch`` at ``d > 1``: the numpy-free degradation path — one
      pure-Python batch execution per coordinate (fresh adversary bundle
      each, so every coordinate faces an identically initialised
      adversary), assembled via
      :func:`repro.sim.vector.compose_coordinate_results`.
    """
    plan, bundle = _plan_cell_and_bundle(cell)
    chosen = cell.engine if engine is None else engine
    if chosen == "auto":
        chosen = select_engine(plan.features, plan.rounds * cell.n * cell.dimension)
    else:
        require_capability(chosen, plan.features)
    if chosen == "ndbatch":
        [outcome] = _run_ndbatch_chunk((plan.rounds, [plan], {}))
        return outcome
    policy = FixedRounds(plan.rounds)
    if cell.dimension == 1:
        result = run_on_engine(
            cell.protocol,
            plan.inputs,
            t=cell.t,
            epsilon=cell.epsilon,
            round_policy=policy,
            fault_plan=bundle.fault_plan,
            delay_model=bundle.delay_model,
            seed=cell.seed,
            engine=chosen,
        )
    elif chosen == "event":
        result = run_vector_protocol(
            cell.protocol,
            plan.inputs,
            t=cell.t,
            epsilon=cell.epsilon,
            round_policy=policy,
            delay_model=bundle.delay_model,
            fault_plan=bundle.fault_plan,
        )
    else:  # batch — the numpy-free coordinate-wise degradation path
        from repro.sim.batch import run_batch_protocol

        normalized = normalize_vector_inputs(plan.inputs)
        coordinate_results = []
        for coordinate in range(cell.dimension):
            fresh = build_adversary_bundle(cell)
            coordinate_results.append(
                run_batch_protocol(
                    cell.protocol,
                    [vector[coordinate] for vector in normalized],
                    t=cell.t,
                    epsilon=cell.epsilon,
                    round_policy=policy,
                    fault_plan=fresh.fault_plan,
                    delay_model=fresh.delay_model,
                    seed=cell.seed,
                )
            )
        result = compose_coordinate_results(
            cell.protocol, normalized, cell.epsilon, coordinate_results, runtime="batch"
        )
    return _outcome_from_result(cell, result, plan.bounds)


def _resolve_workers(workers: Optional[int], cell_count: int) -> int:
    if workers is not None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        return workers
    return max(1, min(os.cpu_count() or 1, cell_count))


def _fault_program_key(plan: CellPlan) -> Tuple:
    """Tensor fault-program identity of one planned cell's adversary.

    Cells sharing a program — same strategy *programs* (class + parameters,
    :meth:`~repro.net.adversary.ByzantineValueStrategy.tensor_key`) at the
    same sender ids, same quorum program
    (:meth:`~repro.net.adversary.OmissionPolicy.tensor_key`) — advance
    through one grouped tensor call per round on the vectorised engine, so
    blocks group by program rather than splitting on strategy instance
    identity: the per-cell seed variation lives entirely in the PRF seed
    vectors.  Crash schedules, silent sets and corrupted inputs are
    deliberately excluded — they are plain mask tensors, vectorised for any
    mix.  A component without a tensor form keys as ``None``; the engine
    refuses any block holding one.
    """
    if plan.fault_model is None:
        return ("message-level", plan.cell.adversary)
    strategies = tuple(
        (pid, strategy.tensor_key())
        for pid, strategy in sorted(plan.fault_model.strategies.items())
    )
    return (strategies, plan.omission.tensor_key())


def _group_ndbatch_blocks(
    plans: Sequence[CellPlan],
) -> List[Tuple[int, List[int], List[CellPlan]]]:
    """Group planned cells into shape-compatible ndbatch blocks.

    Cells sharing ``(protocol, n, t, epsilon, dimension, round count)`` and a
    tensor fault program (:func:`_fault_program_key`) advance together as
    one value matrix — whole-block adversary tensors, one grouped
    strategy/quorum call per round.  Returns ``(rounds, plan_indices,
    plans)`` per block, in first-appearance order, so reassembly into grid
    order is deterministic; the plans carry their cells' inputs and
    adversaries into the block, so no worker rebuilds them.
    """
    blocks: Dict[Tuple, Tuple[int, List[int], List[CellPlan]]] = {}
    for index, plan in enumerate(plans):
        cell = plan.cell
        key = (
            cell.protocol, cell.n, cell.t, cell.epsilon, cell.dimension,
            plan.rounds, _fault_program_key(plan),
        )
        entry = blocks.setdefault(key, (plan.rounds, [], []))
        entry[1].append(index)
        entry[2].append(plan)
    return list(blocks.values())


#: Default cap on ndbatch block sizes in the sweep pool.  One giant block
#: would serialise on a single worker; capped, round-robin-interleaved chunks
#: keep heterogeneous grids load-balanced across the pool (splitting cannot
#: change outcomes: every execution's scenario is self-contained, guarded by
#: ``tests/sim/test_sweep.py``).
DEFAULT_MAX_BLOCK_SIZE = 256


def _split_blocks(
    blocks: Sequence[Tuple[int, List[int], List[CellPlan]]],
    max_block_size: int,
) -> List[Tuple[int, List[int], List[CellPlan]]]:
    """Cap block sizes and round-robin-interleave the chunks across blocks.

    Splitting bounds the largest single work item a pool worker can receive;
    interleaving the chunks of different source blocks (rather than emitting
    each block's chunks back to back) spreads the expensive shapes across the
    pool instead of clustering them on neighbouring workers.
    """
    if max_block_size < 1:
        raise ValueError("max_block_size must be at least 1")
    per_block: List[List[Tuple[int, List[int], List[CellPlan]]]] = []
    for rounds, indices, plans in blocks:
        per_block.append(
            [
                (
                    rounds,
                    indices[start : start + max_block_size],
                    plans[start : start + max_block_size],
                )
                for start in range(0, len(indices), max_block_size)
            ]
        )
    interleaved: List[Tuple[int, List[int], List[CellPlan]]] = []
    for layer in itertools.zip_longest(*per_block):
        interleaved.extend(chunk for chunk in layer if chunk is not None)
    return interleaved


def _run_ndbatch_chunk(chunk) -> List[CellOutcome]:
    """Execute one shape-compatible block of planned cells on the vectorised engine.

    ``chunk`` is ``(rounds, plans, options)``: the plans (:func:`_plan_cell`)
    share protocol, shape, dimension and ``rounds``, and ``options`` holds
    the ``dtype``/``budget_bytes`` keys forwarded to
    :func:`repro.sim.ndbatch.run_ndbatch_block` or, at ``d > 1``,
    :func:`repro.sim.ndbatch.run_vector_block` (the block's float dtype and
    the memory planner's bytes budget).  A plan ndbatch cannot run — faults
    with no round-level form among them — raises
    :class:`~repro.sim.engine.EngineCapabilityError` here, inside its unit,
    before any block runs.
    """
    rounds, plans, options = chunk
    for plan in plans:
        require_capability("ndbatch", plan.features)
    first = plans[0].cell
    results = (run_vector_block if first.dimension > 1 else run_ndbatch_block)(
        first.protocol,
        [plan.inputs for plan in plans],
        t=first.t,
        epsilon=first.epsilon,
        round_policy=FixedRounds(rounds),
        fault_models=[plan.fault_model for plan in plans],
        omission_policies=[plan.omission for plan in plans],
        strict=True,
        **options,
    )
    return [
        _outcome_from_result(plan.cell, result, plan.bounds)
        for plan, result in zip(plans, results)
    ]


def _ndbatch_dispatch_groups(
    cells: Sequence[SweepCell],
    engine: str,
    max_block_size: int,
    dtype: str = "float64",
    budget_bytes: Optional[int] = None,
    worker_count: int = 1,
) -> List[Tuple[List[int], Tuple[Tuple, ...]]]:
    """The block share of a cell list's work-unit decomposition.

    Returns one ``(cell_indices, group)`` pair per dispatch unit: ``group`` is
    a tuple of ndbatch chunks ``(rounds, plans, options)``, cut into units
    for ``worker_count`` workers by the sweep's one unit rule
    (:func:`repro.sim.planner.pack_dispatch_groups`, each chunk an item
    weighing its cell count), ``cell_indices`` the chunks' cells in order,
    and ``options`` carries ``dtype``/``budget_bytes``.  ``dtype`` is a
    resolved name (:func:`repro.sim.planner.resolve_dtype`): the caller
    checks it before any cell runs, so a bad selection fails the sweep up
    front instead of failing (or quarantining) every block.

    Each covered cell is planned here, once (:func:`_plan_cell`), and its
    plan travels in its chunk to the block that runs it.
    ``engine="ndbatch"`` plans and covers every cell.  ``engine="auto"``
    plans the cells of the protocols ndbatch runs and covers those whose
    plan selects ndbatch (:func:`~repro.sim.engine.select_engine`) and
    whose shape-compatible block repays the vectorised engine's per-block
    setup: its work — cells × rounds × n × dimension — must reach
    :func:`ndbatch_min_work`.  Any other engine covers none.  A cell whose
    planning raises joins no block.  Uncovered cells run one by one in
    :func:`run_cell`, which plans them where they run — inside the retry
    machinery, so a planning error is retried and quarantined like any
    other cell error — and re-applies an auto cell's cost model to its own
    work (a ``d > 1`` cell of a block below the threshold runs on batch).
    Blocks are split at ``max_block_size`` and round-robin interleaved
    (:func:`_split_blocks`).
    """
    if engine not in ("auto", "ndbatch"):
        return []
    ndbatch_protocols = ENGINE_CAPABILITIES["ndbatch"].protocols
    candidates = []
    plans = []
    for index, cell in enumerate(cells):
        if engine == "auto" and cell.protocol not in ndbatch_protocols:
            continue
        try:
            plan = _plan_cell(cell)
        except Exception:
            continue  # run_cell raises it again, inside the retry machinery
        if engine == "ndbatch" or select_engine(plan.features) == "ndbatch":
            candidates.append(index)
            plans.append(plan)
    grouped = _group_ndbatch_blocks(plans)
    threshold = ndbatch_min_work() if engine == "auto" and grouped else 0
    blocks = [
        (rounds, [candidates[i] for i in indices], block_plans)
        for rounds, indices, block_plans in grouped
        if len(indices) * rounds * block_plans[0].cell.n * block_plans[0].cell.dimension
        >= threshold
    ]
    if not blocks:
        return []
    if run_ndbatch_block is None:
        raise ImportError(
            "engine='ndbatch' requires numpy; install numpy or use engine='batch'"
        )
    from repro.sim.planner import pack_dispatch_groups

    options = {"dtype": dtype, "budget_bytes": budget_bytes}
    split = _split_blocks(blocks, max_block_size)
    chunks = [(rounds, plans, options) for rounds, _, plans in split]
    return [
        (
            [index for member in group for index in split[member][1]],
            tuple(chunks[member] for member in group),
        )
        for group in pack_dispatch_groups(
            [len(plans) for _, plans, _ in chunks], worker_count
        )
    ]


def _auto_engine_for(cell: SweepCell, work: Optional[int] = None) -> str:
    """Resolve one "auto" cell to the fastest capable engine.

    Applies the rule :func:`run_cell` applies
    (:func:`~repro.sim.engine.select_engine`) to the features of the cell's
    plan (:func:`_plan_cell`).  ``work`` feeds its block-setup cost model
    for a cell that runs on its own; block candidates leave it out, because
    the threshold applies to their whole block.
    """
    return select_engine(_plan_cell(cell).features, work)


def _check_store_clobber(jsonl_path: str, overwrite: bool) -> None:
    """Refuse to truncate a non-empty store unless explicitly overwriting."""
    if overwrite:
        return
    try:
        existing = os.path.getsize(jsonl_path)
    except OSError:
        return
    if existing > 0:
        raise FileExistsError(
            f"refusing to overwrite existing sweep store {jsonl_path!r} "
            f"({existing} bytes); pass overwrite=True to truncate it, or use "
            "repro.sim.job.SweepJob(resume=True) to append only missing cells"
        )


def run_sweep(
    spec: SweepSpec,
    workers: Optional[int] = None,
    jsonl_path: Optional[str] = None,
    max_block_size: int = DEFAULT_MAX_BLOCK_SIZE,
    overwrite: bool = False,
    retry: Optional["RetryPolicy"] = None,  # noqa: F821
    chaos: Optional["ChaosPlan"] = None,  # noqa: F821
    quarantine_path: Optional[str] = None,
    on_failure: Optional[Callable] = None,
    dtype: Optional[str] = None,
    budget_bytes: Optional[int] = None,
) -> Union[List[CellOutcome], int]:
    """Run every cell of ``spec``, in grid order.

    ``workers`` sets the worker-pool size (:mod:`repro.sim.resilient`);
    ``None`` uses one worker per CPU (capped by the cell count) and ``1`` runs
    serially in process, as does a grid that makes a single work unit.
    Outcomes are deterministic either way: each cell is self-contained and
    seeded, so the pool only changes the wall-clock, never the results.  If
    the platform cannot spawn a pool the sweep degrades to the serial path.

    With ``engine="ndbatch"`` the grid is first grouped into shape-compatible
    blocks — cells sharing ``(protocol, n, t, epsilon, round count)`` —
    split into chunks of at most ``max_block_size`` executions (round-robin
    interleaved across blocks so heterogeneous grids load-balance), and each
    chunk advances as one numpy value matrix
    (:func:`repro.sim.ndbatch.run_ndbatch_block`); the pool then distributes
    chunks instead of single cells.  Splitting never changes outcomes.

    With ``engine="auto"`` each cell runs on the fastest engine whose
    capability set covers it (:mod:`repro.sim.engine`): vectorisable
    direct-protocol cells are grouped into ndbatch blocks as above, witness
    and non-vectorisable cells take the batch engine, and cells only the
    event simulator can express (e.g. witness grids with mid-multicast crash
    prefixes) fall back to it — all within one grid.  Each outcome records
    the engine that ran it in :attr:`CellOutcome.engine_used`.

    When ``jsonl_path`` is given, outcomes stream to that file as JSON lines
    (one :class:`CellOutcome` per line) instead of accumulating in memory,
    and the function returns the number of cells written; read them back
    with :func:`read_sweep_jsonl` / :func:`iter_sweep_jsonl`.  Lines are
    written and flushed as work units complete, so a killed sweep keeps
    everything that had been handed back by then.  Without a retry policy
    they are written in unit order (grid order on the batch/event engines,
    chunk order on ndbatch/auto); with one, a pool sweep writes them in
    completion order.
    An existing non-empty store is never silently truncated: the call fails
    with :class:`FileExistsError` unless ``overwrite=True`` (the legacy
    escape hatch) — to *continue* an interrupted sweep instead, use the
    resumable job layer, :class:`repro.sim.job.SweepJob`.  Without
    ``jsonl_path`` the outcomes are returned as a list, in grid order.

    ``retry=None`` (the default, without ``chaos``) means fail fast: the
    first exception a cell raises propagates unchanged and aborts the sweep,
    and a dead pool worker raises :class:`RuntimeError`.  Passing ``retry``
    (a :class:`repro.sim.resilient.RetryPolicy`) and/or ``chaos`` (a
    :class:`repro.sim.chaos.ChaosPlan`) turns on fault tolerance: failing
    cells are retried with backoff and timeouts, dead pool workers are
    respawned, and cells that keep failing are *quarantined* — reported
    through ``on_failure`` and streamed as
    :class:`~repro.sim.resilient.CellFailure` lines to ``quarantine_path``
    (default: the store path with a ``.quarantine.jsonl`` suffix; no file
    for an in-memory sweep unless ``quarantine_path`` is given) — instead of
    aborting the sweep.  Quarantined cells are absent from the returned list
    and from the written count.

    ``dtype`` selects the float dtype of the ndbatch/auto engines' tensor
    blocks (``"float64"`` default or ``"float32"``; unset, it comes from
    ``REPRO_ARRAY_DTYPE``), and ``budget_bytes`` caps the block memory
    planner (:func:`repro.sim.planner.plan_block`).  An unknown dtype raises
    :class:`ValueError` before any cell runs, whatever the engine.
    Batch/event cells ignore both — they run pure Python.  The job layer
    (:class:`repro.sim.job.SweepJob`) reaches the same knobs through the
    ``REPRO_ARRAY_DTYPE`` / ``REPRO_BLOCK_BUDGET_BYTES`` environment
    variables instead.
    """
    from repro.sim.chaos import ChaosPlan, maybe_truncate_write
    from repro.sim.job import cell_id
    from repro.sim.resilient import (
        default_quarantine_path,
        iter_resilient_outcomes,
        write_quarantine_line,
    )

    cells = list(spec.cells())
    if chaos is None:
        # The env flag lets CI smoke jobs inject faults into any sweep entry
        # point without touching code (None when REPRO_CHAOS is unset).
        chaos = ChaosPlan.from_env()
    if jsonl_path is not None:
        _check_store_clobber(jsonl_path, overwrite)
        if quarantine_path is None:
            quarantine_path = default_quarantine_path(jsonl_path)
    outcomes: List[Optional[CellOutcome]] = [None] * len(cells)
    written = 0
    quarantine_handle = None

    def record_failure(failure: "CellFailure") -> None:  # noqa: F821
        nonlocal quarantine_handle
        if quarantine_path is not None:
            if quarantine_handle is None:  # lazily: fault-free → no file
                quarantine_handle = open(quarantine_path, "a", encoding="utf-8")
            write_quarantine_line(quarantine_handle, failure)
        if on_failure is not None:
            on_failure(failure)

    store = (
        open(jsonl_path, "w", encoding="utf-8")
        if jsonl_path is not None
        else contextlib.nullcontext()
    )
    try:
        with store as handle:
            for index, outcome in iter_resilient_outcomes(
                cells,
                spec.engine,
                workers,
                max_block_size,
                retry,
                chaos=chaos,
                on_failure=record_failure,
                dtype=dtype,
                budget_bytes=budget_bytes,
            ):
                if handle is None:
                    outcomes[index] = outcome
                    continue
                line = _outcome_to_json_line(outcome)
                if chaos is not None:
                    maybe_truncate_write(chaos, cell_id(outcome.cell), handle, line)
                handle.write(line)
                handle.flush()
                written += 1
    finally:
        if quarantine_handle is not None:
            quarantine_handle.close()
    if jsonl_path is not None:
        return written
    # Quarantined cells are excluded-with-reason, not None: the reasons went
    # through on_failure.
    return [outcome for outcome in outcomes if outcome is not None]


# ----------------------------------------------------------------------
# JSONL persistence
# ----------------------------------------------------------------------


class SweepStoreWarning(RuntimeWarning):
    """A sweep JSONL store held lines that could not be decoded.

    Emitted (never raised) by :func:`iter_sweep_jsonl` when it skips a
    truncated or corrupt line — the normal end state of a killed sweep is a
    partial trailing line, and readers must survive it.  The job layer
    (:mod:`repro.sim.job`) goes further and *repairs* the store on resume.
    """


def _cell_payload(cell: SweepCell) -> Dict:
    """A cell's canonical JSON form: the ``"cell"`` of a store line and of a
    quarantine record, and what :func:`repro.sim.job.cell_id` digests.

    ``dimension`` is keyed only when it is not 1, and ``adversary_params``
    only for parameterised cells (attack-search candidates, found attacks
    pinned with explicit payloads), so scalar parameterless cells keep the
    lines and IDs they had before either axis existed: old stores stay valid
    verbatim and canonical re-writes do not churn them.
    """
    payload = {
        "protocol": cell.protocol,
        "n": cell.n,
        "t": cell.t,
        "epsilon": cell.epsilon,
        "adversary": cell.adversary,
        "workload": cell.workload,
        "seed": cell.seed,
        "engine": cell.engine,
    }
    if cell.dimension != 1:
        payload["dimension"] = cell.dimension
    if cell.adversary_params:
        payload["adversary_params"] = dict(cell.adversary_params)
    return payload


def _outcome_to_json_line(outcome: CellOutcome, include_wall_time: bool = True) -> str:
    """One JSON line for a :class:`CellOutcome` (non-finite floats included).

    Uses Python's JSON dialect for ``NaN``/``Infinity`` (``allow_nan``), which
    :func:`json.loads` parses back; ``output_spread`` is NaN for cells where
    no process decided.  ``include_wall_time=False`` omits the (observational,
    run-to-run varying) wall time so the line is a pure function of the cell
    — the canonical form the job layer writes, making resumed stores
    bit-identical to uninterrupted ones.
    """
    payload = {
        "cell": _cell_payload(outcome.cell),
        "ok": outcome.ok,
        "all_decided": outcome.all_decided,
        "rounds": outcome.rounds,
        "messages": outcome.messages,
        "bits": outcome.bits,
        "output_spread": outcome.output_spread,
        "theoretical_contraction": outcome.theoretical_contraction,
        "worst_contraction": outcome.worst_contraction,
        "mean_contraction": outcome.mean_contraction,
        "bound_respected": outcome.bound_respected,
        "wall_time_seconds": outcome.wall_time_seconds,
        "violations": list(outcome.violations),
        "engine_used": outcome.engine_used,
        "demoted_from": outcome.demoted_from,
    }
    if not include_wall_time:
        del payload["wall_time_seconds"]
    return json.dumps(payload) + "\n"


def _outcome_from_payload(payload: Dict) -> CellOutcome:
    """Rebuild a :class:`CellOutcome` from one decoded JSONL payload."""
    return CellOutcome(
        cell=SweepCell(**payload["cell"]),
        ok=payload["ok"],
        all_decided=payload["all_decided"],
        rounds=payload["rounds"],
        messages=payload["messages"],
        bits=payload["bits"],
        output_spread=payload["output_spread"],
        theoretical_contraction=payload["theoretical_contraction"],
        worst_contraction=payload["worst_contraction"],
        mean_contraction=payload["mean_contraction"],
        bound_respected=payload["bound_respected"],
        wall_time_seconds=payload.get("wall_time_seconds", 0.0),
        violations=tuple(payload["violations"]),
        engine_used=payload.get("engine_used", ""),
        demoted_from=payload.get("demoted_from", ""),
    )


def iter_sweep_jsonl(path: str, strict: bool = False) -> Iterator[CellOutcome]:
    """Lazily read :class:`CellOutcome` records written by ``run_sweep(..., jsonl_path=...)``.

    A sweep killed mid-write leaves a truncated trailing line — the *normal*
    end state of an interrupted run, not an exceptional one — so undecodable
    lines are skipped with a :class:`SweepStoreWarning` naming the line
    number instead of blowing up the whole iteration.  Pass ``strict=True``
    to restore the old fail-fast behaviour (``ValueError`` on the first bad
    line).  To repair a store (truncate the partial tail) and re-execute the
    missing cells, use :class:`repro.sim.job.SweepJob` with ``resume=True``.
    """
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
                outcome = _outcome_from_payload(payload)
            except (ValueError, KeyError, TypeError) as error:
                # ValueError covers json.JSONDecodeError; KeyError/TypeError
                # cover structurally valid JSON that is not an outcome line.
                if strict:
                    raise ValueError(
                        f"{path}:{line_number}: undecodable sweep store line: {error}"
                    ) from error
                warnings.warn(
                    f"{path}:{line_number}: skipping undecodable sweep store "
                    f"line ({error}); a truncated trailing line is the normal "
                    "end state of a killed sweep — resume the job to repair it",
                    SweepStoreWarning,
                    stacklevel=2,
                )
                continue
            yield outcome


def read_sweep_jsonl(path: str) -> List[CellOutcome]:
    """Read a whole sweep JSONL file into memory (see :func:`iter_sweep_jsonl`)."""
    return list(iter_sweep_jsonl(path))


def records_from_sweep(outcomes: Sequence[CellOutcome]) -> List[ExperimentRecord]:
    """One :class:`~repro.sim.experiments.ExperimentRecord` per cell."""
    return [outcome.as_record() for outcome in outcomes]


def _summary_key(cell: SweepCell) -> Tuple:
    """A cell's fields except its seed: the key of its summary group.

    :class:`SweepSummaryFold` folds every seed of one key into one row, and
    :class:`repro.sim.job.CellSet` numbers the keys it holds.
    """
    return (
        cell.protocol, cell.n, cell.t, cell.epsilon,
        cell.adversary, cell.workload, cell.engine, cell.dimension,
        cell.adversary_params,
    )


@dataclass
class _GroupFold:
    """Streaming aggregate of one summary group (constant memory per group)."""

    rounds: RunningStats = field(default_factory=RunningStats)
    messages: RunningStats = field(default_factory=RunningStats)
    ok_count: int = 0
    worst_contraction: Optional[float] = None
    theoretical_contraction: float = 0.0
    all_ok: bool = True

    def update(self, outcome: CellOutcome) -> None:
        self.rounds.update(outcome.rounds)
        self.messages.update(outcome.messages)
        if outcome.ok:
            self.ok_count += 1
        if outcome.worst_contraction is not None:
            if self.worst_contraction is None or outcome.worst_contraction > self.worst_contraction:
                self.worst_contraction = outcome.worst_contraction
        if self.rounds.count == 1:
            self.theoretical_contraction = outcome.theoretical_contraction
        self.all_ok = self.all_ok and outcome.ok and outcome.bound_respected

    def merge(self, other: "_GroupFold") -> None:
        if self.rounds.count == 0:
            self.theoretical_contraction = other.theoretical_contraction
        self.rounds.merge(other.rounds)
        self.messages.merge(other.messages)
        self.ok_count += other.ok_count
        if other.worst_contraction is not None:
            if self.worst_contraction is None or other.worst_contraction > self.worst_contraction:
                self.worst_contraction = other.worst_contraction
        self.all_ok = self.all_ok and other.all_ok


class SweepSummaryFold:
    """Incremental, mergeable form of :func:`summarize_sweep`.

    Folds streamed :class:`CellOutcome` records — from a live sweep, from
    :func:`iter_sweep_jsonl`, or from many shard stores — into the same
    per-configuration summary rows without ever holding the outcomes
    themselves: memory is proportional to the number of summary *groups*,
    not the number of cells, so million-cell stores aggregate in constant
    space.  Folds over disjoint shards :meth:`merge` associatively into
    exactly the record set a single-pass fold over the union produces (the
    running sums are over integers, so float addition order cannot drift).
    """

    def __init__(self) -> None:
        self._groups: Dict[Tuple, _GroupFold] = {}
        self._total = 0
        # cell_id -> (fault_class, group key or None when unattributed)
        self._quarantined: Dict[str, Tuple[str, Optional[Tuple]]] = {}

    @property
    def total_outcomes(self) -> int:
        """Number of outcomes folded in so far."""
        return self._total

    @property
    def quarantined_count(self) -> int:
        """Cells noted as quarantined (excluded-with-reason, not missing)."""
        return len(self._quarantined)

    def quarantined_by_fault(self) -> Dict[str, int]:
        """Quarantined-cell counts per fault class (raise/timeout/crash)."""
        counts: Dict[str, int] = {}
        for fault_class, _ in self._quarantined.values():
            counts[fault_class] = counts.get(fault_class, 0) + 1
        return counts

    def _quarantined_by_group(self) -> Dict[Tuple, int]:
        """Quarantined-cell counts per summary-group key (attributed only)."""
        counts: Dict[Tuple, int] = {}
        for _, key in self._quarantined.values():
            if key is not None:
                counts[key] = counts.get(key, 0) + 1
        return counts

    def note_quarantined(self, cell_id: str, fault_class: str, cell=None) -> None:
        """Record one quarantined cell (idempotent per cell ID).

        Quarantined cells carry no measurements, so they never touch the
        summary groups — they are accounted separately so a fold can report
        "N cells excluded with reason" instead of passing them off as
        missing (:func:`repro.sim.job.fold_sweep_jsonl` wires this up from
        the quarantine stores).  Passing the failed :class:`SweepCell`
        (:attr:`~repro.sim.resilient.CellFailure.cell`) additionally
        attributes the exclusion to its summary group,
        surfacing as the per-row ``quarantined_count`` in :meth:`records`;
        without it the cell still counts at fold level.
        """
        key = _summary_key(cell) if cell is not None else None
        self._quarantined[cell_id] = (fault_class, key)

    def update(self, outcome: CellOutcome) -> None:
        """Fold one outcome into its summary group."""
        key = _summary_key(outcome.cell)
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = _GroupFold()
        group.update(outcome)
        self._total += 1

    def update_many(self, outcomes: Iterable[CellOutcome]) -> "SweepSummaryFold":
        """Fold a stream of outcomes; returns ``self`` for chaining."""
        for outcome in outcomes:
            self.update(outcome)
        return self

    def merge(self, other: "SweepSummaryFold") -> "SweepSummaryFold":
        """Fold another (e.g. per-shard) fold into this one; returns ``self``."""
        for key, group in other._groups.items():
            mine = self._groups.get(key)
            if mine is None:
                mine = self._groups[key] = _GroupFold()
            mine.merge(group)
        self._total += other._total
        self._quarantined.update(other._quarantined)
        return self

    def records(self) -> List[ExperimentRecord]:
        """The per-configuration summary rows accumulated so far.

        Groups whose every cell was quarantined still get a row — runs 0,
        measurements ``None``, ``ok`` false — so an all-failed configuration
        shows up as failed rather than vanishing from the table.
        """
        records: List[ExperimentRecord] = []
        quarantined_groups = self._quarantined_by_group()
        for key in sorted(set(self._groups) | set(quarantined_groups)):
            (
                protocol, n, t, epsilon, adversary, workload, engine,
                dimension, adversary_params,
            ) = key
            group = self._groups.get(key)
            quarantined = quarantined_groups.get(key, 0)
            if group is not None:
                measured = {
                    "runs": group.rounds.count,
                    "ok_fraction": group.ok_count / group.rounds.count,
                    "rounds_mean": group.rounds.mean,
                    "messages_mean": group.messages.mean,
                    "worst_contraction": group.worst_contraction,
                    "quarantined_count": quarantined,
                }
                expected = {"contraction": group.theoretical_contraction}
                ok = group.all_ok and quarantined == 0
            else:  # quarantine-only group: excluded-with-reason, not hidden
                measured = {
                    "runs": 0,
                    "ok_fraction": None,
                    "rounds_mean": None,
                    "messages_mean": None,
                    "worst_contraction": None,
                    "quarantined_count": quarantined,
                }
                expected = {"contraction": None}
                ok = False
            params = {
                "protocol": protocol,
                "n": n,
                "t": t,
                "epsilon": epsilon,
                "adversary": adversary,
                "workload": workload,
                "engine": engine,
                "dimension": dimension,
            }
            if adversary_params:
                params["adversary_params"] = dict(adversary_params)
            records.append(
                ExperimentRecord(
                    experiment="sweep-summary",
                    params=params,
                    measured=measured,
                    expected=expected,
                    ok=ok,
                )
            )
        return records


def summarize_sweep(outcomes: Iterable[CellOutcome]) -> List[ExperimentRecord]:
    """Aggregate outcomes across seeds into per-configuration records.

    Groups by (protocol, n, t, epsilon, adversary, workload, engine,
    dimension, adversary_params) and
    reports the fraction of correct runs, mean rounds/messages, and the worst
    observed contraction against the theoretical bound — the columns of
    :data:`SUMMARY_COLUMNS`, renderable with
    :func:`repro.analysis.tables.render_records`.  ``epsilon`` is part of the
    grouping key: outcomes from different-ε grids summarise to separate rows
    (they used to merge silently).  Accepts any iterable — including the lazy
    :func:`iter_sweep_jsonl` reader — and streams through it in constant
    memory per group (:class:`SweepSummaryFold` is the reusable form).
    """
    return SweepSummaryFold().update_many(outcomes).records()
