"""Capability-based engine dispatch: one front door over three engines.

The library ships three execution engines — the per-message discrete-event
simulator (:mod:`repro.sim.runner`), the pure-Python round-level batch engine
(:mod:`repro.sim.batch`) and the numpy-vectorised block engine
(:mod:`repro.sim.ndbatch`).  They trade fidelity for speed, and each supports
a different slice of the scenario space.  Before this layer existed, callers
hard-coded ``engine=`` strings and every engine rejected out-of-scope
scenarios with its own ad-hoc ``ValueError``; this module replaces both with
a declarative capability model:

* each engine declares an :class:`EngineCapabilities` record — the protocols
  it runs, whether it handles adaptive round policies, stateful Byzantine
  strategies, stateful quorum policies, message-level fault plans, and
  whether it needs numpy — collected in :data:`ENGINE_CAPABILITIES`;
* a scenario is summarised as a set of *feature* strings
  (:func:`scenario_features`) derived from its protocol, round policy,
  fault model and quorum adversary;
* :func:`select_engine` picks the fastest engine whose capability set covers
  the scenario's features — a pure function of those features and the
  scenario's estimated work, so a scenario runs on the same engine on every
  host — and :func:`run` is the front door that performs the selection and
  dispatches, with ``engine=`` kept as an explicit override;
* every rejection — here and inside the engines — raises one uniform
  :class:`EngineCapabilityError` naming the engines that *can* run the
  scenario.

:func:`repro.sim.sweep.run_sweep` applies the same selection per sweep cell
(``engine="auto"``), so a single grid transparently mixes vectorised blocks,
round-level cells and event-simulator cells.

The capability matrix (also rendered in the README):

=====================  =======  ======  ========
capability             ndbatch  batch   event
=====================  =======  ======  ========
direct protocols       ✓        ✓       ✓
witness protocol       —        ✓       ✓
adaptive round policy  —        ✓       ✓
stateful strategy      — (a)    ✓       ✓
stateful quorum/delay  — (a)    ✓       ✓
message-level faults   —        —       ✓
vector (d > 1) inputs  ✓ (b)    ✓ (c)   ✓ (c)
runs without numpy     —        ✓       ✓
relative speed         ~50×     ~10×    1×
=====================  =======  ======  ========

(a) ndbatch runs tensor programs only: a Byzantine strategy, delay model or
omission policy counts as stateful here when it is stateful *or* declares
no ``tensor_key`` (:func:`scenario_features`), so ``auto`` runs it on
batch.

(b) native ``(executions, n, d)`` tensor path
(:func:`repro.sim.ndbatch.run_vector_block`) — one shared quorum selection
per round across all coordinates.

(c) coordinate-wise composition (:mod:`repro.sim.vector` and the sweep's
degradation path): one full scalar instance per coordinate, so cost scales
as ``d`` event/batch runs.

The ndbatch engine is additionally marked *tensorisable*: it advances whole
execution blocks through tensor fault programs (grouped
``value_tensor``/``rank_tensor`` calls, see :mod:`repro.net.adversary`), at a
per-block setup cost.  Auto-selection therefore runs a small cost model —
estimated work ``cells × rounds × n`` against the constant
:data:`NDBATCH_MIN_WORK` — and keeps tiny grids (a single small execution, a
one-cell sweep group) on the pure-Python batch engine, where block setup
would dominate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Set, Tuple

__all__ = [
    "DIRECT_PROTOCOLS",
    "ENGINES",
    "ENGINE_CAPABILITIES",
    "NDBATCH_MIN_WORK",
    "ndbatch_min_work",
    "EngineCapabilities",
    "EngineCapabilityError",
    "capable_engines",
    "demotion_target",
    "engine_rejections",
    "estimated_upfront_rounds",
    "numpy_available",
    "require_capability",
    "run",
    "scenario_features",
    "select_engine",
]


#: The four protocols whose rounds are a single value multicast.
DIRECT_PROTOCOLS = ("async-byzantine", "async-crash", "sync-byzantine", "sync-crash")

#: Every protocol the library implements.
ALL_PROTOCOLS = DIRECT_PROTOCOLS + ("witness",)

# Scenario feature tags (the requirement side of the capability relation).
FEATURE_ADAPTIVE = "adaptive-round-policy"
FEATURE_STATEFUL_STRATEGY = "stateful-strategy"
FEATURE_STATEFUL_QUORUM = "stateful-quorum-policy"
FEATURE_MESSAGE_LEVEL = "message-level-faults"
FEATURE_ROUND_LEVEL = "round-level-adversary"
FEATURE_NO_NUMPY = "no-numpy"
FEATURE_WITNESS_MID_MULTICAST = "witness-mid-multicast-crash"
FEATURE_EVENT_RUNTIME = "explicit-event-runtime"


@dataclass(frozen=True)
class EngineCapabilities:
    """Declarative capability set of one execution engine.

    ``features`` holds the protocol tags (``"protocol:<name>"``) plus the
    scenario features the engine can absorb; an engine supports a scenario
    iff the scenario's feature set is a subset.  ``speed_rank`` orders the
    engines fastest-first for auto-selection.
    """

    name: str
    module: str
    protocols: Tuple[str, ...]
    features: FrozenSet[str]
    speed_rank: int
    #: Whether the engine advances whole execution blocks through tensor
    #: fault programs (grouped ``value_tensor``/``rank_tensor`` calls).  A
    #: tensorisable engine pays a per-block setup cost, so auto-selection
    #: only picks it for scenarios whose estimated work (cells × rounds × n)
    #: reaches :func:`ndbatch_min_work`.
    tensorisable: bool = False
    #: The engine the resilient sweep layer (:mod:`repro.sim.resilient`)
    #: falls back to when work keeps failing on this one — a slower, simpler
    #: engine covering at least the same scenarios (ndbatch → batch: a
    #: whole-block numpy failure is often block-shaped, and the scalar
    #: engine both isolates the faulty cell and sidesteps the block path).
    #: ``None`` means there is nothing to demote to.
    demotes_to: Optional[str] = None

    def __post_init__(self) -> None:
        # ``supports``/``missing`` run for every engine selection (once per
        # sweep cell), so the full set is built once per engine.
        object.__setattr__(
            self,
            "_feature_set",
            self.features | frozenset(f"protocol:{p}" for p in self.protocols),
        )

    def feature_set(self) -> FrozenSet[str]:
        return self._feature_set

    def supports(self, required: Iterable[str]) -> bool:
        return set(required) <= self._feature_set

    def missing(self, required: Iterable[str]) -> Tuple[str, ...]:
        return tuple(sorted(set(required) - self._feature_set))


#: Engine name → capability record, fastest engine first.
ENGINE_CAPABILITIES: Dict[str, EngineCapabilities] = {
    "ndbatch": EngineCapabilities(
        name="ndbatch",
        module="repro.sim.ndbatch",
        protocols=DIRECT_PROTOCOLS,
        features=frozenset({FEATURE_ROUND_LEVEL}),
        speed_rank=0,
        tensorisable=True,
        demotes_to="batch",
    ),
    "batch": EngineCapabilities(
        name="batch",
        module="repro.sim.batch",
        protocols=ALL_PROTOCOLS,
        features=frozenset(
            {
                FEATURE_ADAPTIVE,
                FEATURE_STATEFUL_STRATEGY,
                FEATURE_STATEFUL_QUORUM,
                FEATURE_ROUND_LEVEL,
                FEATURE_NO_NUMPY,
            }
        ),
        speed_rank=1,
    ),
    "event": EngineCapabilities(
        name="event",
        module="repro.sim.runner",
        protocols=ALL_PROTOCOLS,
        features=frozenset(
            {
                FEATURE_ADAPTIVE,
                FEATURE_STATEFUL_STRATEGY,
                FEATURE_STATEFUL_QUORUM,
                FEATURE_MESSAGE_LEVEL,
                FEATURE_NO_NUMPY,
                FEATURE_WITNESS_MID_MULTICAST,
                FEATURE_EVENT_RUNTIME,
            }
        ),
        speed_rank=2,
    ),
}

#: Engine names in auto-selection order (fastest capable engine wins).
ENGINES = tuple(
    sorted(ENGINE_CAPABILITIES, key=lambda name: ENGINE_CAPABILITIES[name].speed_rank)
)


def demotion_target(engine: str) -> Optional[str]:
    """The engine failing work demotes to, or ``None`` if there is none.

    ``"auto"`` cells carry no fixed engine, so there is nothing to demote
    *from*; unknown names also map to ``None`` rather than raising, because
    the caller (the retry state machine in :mod:`repro.sim.resilient`) treats
    "no demotion target" as the terminal stage before quarantine.
    """
    capabilities = ENGINE_CAPABILITIES.get(engine)
    if capabilities is None:
        return None
    return capabilities.demotes_to


class EngineCapabilityError(ValueError):
    """An engine was asked to run a scenario outside its capability set.

    Every engine rejection goes through this one error type, and the message
    states *why each engine rejected* (per-engine reason strings, see
    ``rejections``) and names the engine(s) that *can* run the scenario (with
    their module paths), so callers hitting an override mismatch learn the
    fix directly from the exception.  Subclasses :class:`ValueError` so
    pre-existing ``except ValueError`` call sites keep working.

    Attributes
    ----------
    engine:
        The engine (or ``"auto"``) that rejected the scenario.
    reason:
        Why ``engine`` rejected it.
    capable:
        The engines that can run the scenario, fastest first.
    rejections:
        Engine name → that engine's rejection reason, for every engine that
        cannot run the scenario (at minimum the rejecting engine itself).
    """

    def __init__(
        self,
        engine: str,
        reason: str,
        capable: Sequence[str] = (),
        rejections: Optional[Dict[str, str]] = None,
    ) -> None:
        self.engine = engine
        self.reason = reason
        self.capable = tuple(capable)
        self.rejections = dict(rejections) if rejections is not None else {engine: reason}
        parts = [f"the {engine} engine does not support {reason}"]
        others = {
            name: why for name, why in self.rejections.items() if name != engine
        }
        if others:
            parts.append(
                "also rejected: "
                + "; ".join(f"{name} — {why}" for name, why in others.items())
            )
        if self.capable:
            alternatives = ", ".join(
                f"{name} ({ENGINE_CAPABILITIES[name].module})"
                for name in self.capable
                if name in ENGINE_CAPABILITIES
            )
            parts.append(f"capable engine(s): {alternatives}")
        else:
            parts.append("no engine supports this scenario")
        super().__init__("; ".join(parts))


def numpy_available() -> bool:
    """Whether numpy is importable (gates the vectorised engine)."""
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def _upfront_rounds_known(round_policy) -> bool:
    """Whether the policy's round count is computable before round 1."""
    try:
        round_policy.required_rounds(0.5, 1.0, None)
    except TypeError:
        return False
    return True


def _witness_crashes_on_boundaries(
    fault_plan, fault_model, n: int, t: Optional[int]
) -> bool:
    """Whether every crash point has a witness iteration-boundary form.

    Message-level crash points count raw sends, so only prefix sums of the
    witness per-iteration send totals (which depend on the other faults) are
    boundaries — the probe replays the batch engine's own mapping
    (:func:`repro.sim.batch._witness_crash_schedule`).  Without ``t`` the
    totals cannot be derived, so anything beyond "initially dead" is
    conservatively treated as mid-iteration.
    """
    raw_points = {}
    if fault_plan is not None:
        from repro.sim.batch import _witness_raw_crash_points

        raw_points = _witness_raw_crash_points(fault_plan, n)
    if not raw_points:
        # Round-level models state the boundary form directly.
        return all(
            deliveries == 0
            for _, deliveries in fault_model.crash_schedule.values()
        )
    if all(point == 0 for point in raw_points.values()):
        return True  # initially dead is a boundary under any parameters
    if t is None:
        return False
    from repro.sim.batch import _witness_crash_schedule

    strategies = sorted(fault_model.strategies)
    silent = set(fault_model.silent)
    holders = [
        pid for pid in range(n) if pid not in fault_model.strategies and pid not in silent
    ]
    # Horizon large enough to resolve every point: each iteration adds at
    # least 2n sends to every still-alive crash-faulty process.
    horizon = max(raw_points.values()) // (2 * n) + 2
    try:
        _witness_crash_schedule(raw_points, n, t, holders, strategies, horizon)
    except ValueError:  # EngineCapabilityError: a point lands mid-iteration
        return False
    return True


def scenario_features(
    protocol: str,
    n: int,
    t: Optional[int] = None,
    round_policy=None,
    fault_plan=None,
    fault_model=None,
    omission_policy=None,
    delay_model=None,
) -> Set[str]:
    """The feature set one scenario requires of an engine.

    The fault specification may be message level (``fault_plan``) or round
    level (``fault_model``); a message-level plan the round-level adapter
    (:func:`repro.net.adversary.round_fault_model`) cannot interpret marks
    the scenario message-level-only, which only the event engine runs.
    ``t`` sharpens the witness crash-boundary probe (without it, any witness
    crash beyond "initially dead" conservatively routes to the event engine).
    Every engine runs vector-valued (d > 1) inputs, so the dimension is not
    a feature.  The two "stateful" features also mark a stateless component
    without a tensor program (no ``tensor_key``), which ndbatch cannot run.
    """
    from repro.net.adversary import round_fault_model

    features: Set[str] = {f"protocol:{protocol}"}
    if round_policy is not None and not _upfront_rounds_known(round_policy):
        features.add(FEATURE_ADAPTIVE)

    given_fault_plan = fault_plan
    if fault_model is None and fault_plan is not None:
        try:
            fault_model = round_fault_model(fault_plan, n)
        except ValueError:
            features.add(FEATURE_MESSAGE_LEVEL)
            fault_model = None
    if fault_model is not None:
        if any(map(_lacks_tensor_program, fault_model.strategies.values())):
            features.add(FEATURE_STATEFUL_STRATEGY)
        if protocol == "witness" and not _witness_crashes_on_boundaries(
            given_fault_plan, fault_model, n, t
        ):
            features.add(FEATURE_WITNESS_MID_MULTICAST)

    if omission_policy is not None or (fault_model is not None and fault_plan is None):
        # Round-level adversary specifications have no message-level form.
        features.add(FEATURE_ROUND_LEVEL)
    if delay_model is not None and _lacks_tensor_program(delay_model):
        features.add(FEATURE_STATEFUL_QUORUM)
    if omission_policy is not None and (
        _policy_is_stateful(omission_policy) or omission_policy.tensor_key() is None
    ):
        features.add(FEATURE_STATEFUL_QUORUM)

    if not numpy_available():
        features.add(FEATURE_NO_NUMPY)
    return features


def _lacks_tensor_program(component) -> bool:
    """Whether a strategy or delay model is stateful or has no ``tensor_key``."""
    return not getattr(component, "stateless", False) or component.tensor_key() is None


def _policy_is_stateful(omission_policy) -> bool:
    """Conservatively classify an omission policy's statefulness."""
    from repro.net.adversary import DelayRankOmission, SeededOmission

    if isinstance(omission_policy, SeededOmission):
        return False
    if isinstance(omission_policy, DelayRankOmission):
        return not getattr(omission_policy.delay_model, "stateless", False)
    return True  # unknown custom policies may depend on query order


def capable_engines(features: Iterable[str]) -> Tuple[str, ...]:
    """Engines that support the feature set, fastest first."""
    required = set(features)
    return tuple(
        name for name in ENGINES if ENGINE_CAPABILITIES[name].supports(required)
    )


def engine_rejections(features: Iterable[str]) -> Dict[str, str]:
    """Engine name → rejection reason, for every engine the scenario defeats.

    Engines that support the feature set are absent from the result; this is
    what :class:`EngineCapabilityError` messages carry so callers see *why*
    each engine rejected, not just which engines are capable.
    """
    required = set(features)
    rejections: Dict[str, str] = {}
    for name in ENGINES:
        missing = ENGINE_CAPABILITIES[name].missing(required)
        if missing:
            rejections[name] = _describe_missing(missing)
    return rejections


#: Minimum estimated work — sweep cells × rounds × n — below which
#: auto-selection prefers the pure-Python batch engine over a tensorised
#: (block) engine, whose block setup (scenario masks, crash/candidate
#: tensors, result assembly) would dominate.  The value is conservative:
#: timing small sweep grids on a 2-core Xeon put the batch/ndbatch crossover
#: between about 100 and 350 work units, depending on protocol and n.
NDBATCH_MIN_WORK = 64


def ndbatch_min_work() -> int:
    """The dispatch threshold, :data:`NDBATCH_MIN_WORK` read at call time."""
    return NDBATCH_MIN_WORK


def select_engine(features: Iterable[str], work: Optional[int] = None) -> str:
    """The fastest capable engine for a scenario (auto-selection policy).

    A pure function of the scenario: it skips a tensorised engine in exactly
    one case, ``work`` — the scenario's estimated size (cells × rounds × n)
    — below :func:`ndbatch_min_work`, where block setup would dominate
    (``None`` skips the cost model, e.g. when the round count is not
    computable upfront).  Scenarios ndbatch cannot run — a stateful or
    program-less adversary component among them — never reach that rule:
    their features leave ndbatch out of the capable engines.
    """
    required = set(features)
    capable = capable_engines(required)
    if not capable:
        raise EngineCapabilityError(
            "auto",
            f"this scenario (requires: {', '.join(sorted(required))})",
            (),
            rejections=engine_rejections(required),
        )
    for name in capable:
        if (
            ENGINE_CAPABILITIES[name].tensorisable
            and work is not None
            and work < ndbatch_min_work()
        ):
            continue
        return name
    return capable[-1]


def estimated_upfront_rounds(
    protocol: str,
    inputs: Sequence[float],
    t: int,
    epsilon: float,
    round_policy=None,
) -> Optional[int]:
    """The scenario's round count, when computable before round 1.

    Feeds the block-setup cost model (``work = cells × rounds × n``); returns
    ``None`` for adaptive policies or protocols without closed-form bounds.
    Mirrors the round-count derivation of the engines themselves
    (:func:`repro.core.termination.default_round_policy` over the input
    spread), so the estimate equals what an upfront-policy execution runs.
    """
    from repro.core.termination import default_round_policy
    from repro.sim.batch import BATCH_PROTOCOL_BOUNDS, _upfront_rounds

    factory = BATCH_PROTOCOL_BOUNDS.get(protocol)
    if factory is None:
        return None
    bounds = factory(len(inputs), t)
    policy = round_policy or default_round_policy(bounds, inputs, epsilon)
    return _upfront_rounds(policy, bounds, epsilon)


def _describe_missing(missing: Sequence[str]) -> str:
    """Human-readable rejection reason for a set of missing features."""
    parts = []
    for feature in missing:
        if feature.startswith("protocol:"):
            parts.append(f"protocol {feature.split(':', 1)[1]!r}")
        elif feature == FEATURE_ADAPTIVE:
            parts.append(
                "adaptive round policies (per-process round counts with "
                "halt-echo substitution)"
            )
        elif feature == FEATURE_STATEFUL_STRATEGY:
            parts.append(
                "Byzantine value strategies that are stateful or without a "
                "tensor program (strategies must be stateless — pure "
                "functions of round/recipient/observed — and declare "
                "tensor_key/value_tensor)"
            )
        elif feature == FEATURE_STATEFUL_QUORUM:
            parts.append(
                "quorum/delay adversaries that are stateful or without a "
                "tensor program (tensor_key/rank_tensor/delay_tensor)"
            )
        elif feature == FEATURE_MESSAGE_LEVEL:
            parts.append("fault plans with no round-level form")
        elif feature == FEATURE_ROUND_LEVEL:
            parts.append(
                "round-level adversary specifications (RoundFaultModel / "
                "OmissionPolicy)"
            )
        elif feature == FEATURE_NO_NUMPY:
            parts.append("running without numpy")
        elif feature == FEATURE_WITNESS_MID_MULTICAST:
            parts.append(
                "mid-multicast crash points under the witness protocol "
                "(round-level witness crashes must fall on iteration "
                "boundaries: deliveries == 0)"
            )
        elif feature == FEATURE_EVENT_RUNTIME:
            parts.append(
                "explicit runtime= requests (des/asyncio/lockstep are event-"
                "simulator runtimes)"
            )
        else:
            parts.append(feature)
    return " and ".join(parts)


def require_capability(engine: str, features: Iterable[str]) -> None:
    """Raise :class:`EngineCapabilityError` unless ``engine`` covers ``features``."""
    if engine not in ENGINE_CAPABILITIES:
        raise ValueError(
            f"unknown engine {engine!r}; known engines: {', '.join(ENGINES)} "
            f"(or 'auto')"
        )
    required = set(features)
    missing = ENGINE_CAPABILITIES[engine].missing(required)
    if missing:
        raise EngineCapabilityError(
            engine,
            _describe_missing(missing),
            capable_engines(required),
            rejections=engine_rejections(required),
        )


def run(
    protocol: str,
    inputs: Sequence[float],
    t: int,
    epsilon: float,
    round_policy=None,
    fault_plan=None,
    fault_model=None,
    omission_policy=None,
    delay_model=None,
    seed: int = 0,
    strict: bool = True,
    engine: str = "auto",
    runtime: Optional[str] = None,
    dtype: Optional[str] = None,
):
    """Run one execution on the fastest capable engine (or an explicit one).

    The scenario parameters mirror :func:`repro.sim.batch.run_batch_protocol`
    (which itself mirrors :func:`repro.sim.runner.run_protocol` where they
    overlap), so this is a drop-in front door for all three engines:

    engine:
        ``"auto"`` (default) selects the fastest engine whose capability set
        covers the scenario, by the rule of :func:`select_engine` — ndbatch
        for direct-protocol scenarios whose adversary is a tensor program
        and that are big enough to repay the block setup (tiny single
        executions stay on batch), batch for round-level scenarios ndbatch
        cannot (or should not) take, the event simulator for
        message-level-only scenarios.
        ``"ndbatch"``, ``"batch"`` and ``"event"`` force a specific engine;
        an override outside the engine's capabilities raises
        :class:`EngineCapabilityError` naming the capable engines.
    runtime:
        Only meaningful for the event engine (``"des"``, ``"asyncio"``,
        ``"lockstep"``); forwarded to :func:`repro.sim.runner.run_protocol`.
    dtype:
        The ndbatch block's float dtype (``"float64"`` or ``"float32"``; see
        :func:`repro.sim.ndbatch.run_ndbatch_block`).  The other engines run
        pure Python, so an explicit selection they would silently ignore
        raises :class:`EngineCapabilityError` instead.

    Returns the engine's :class:`~repro.sim.runner.ExecutionResult`; the
    ``runtime`` field of the result records which engine actually ran.
    """
    if protocol not in ALL_PROTOCOLS:
        raise ValueError(
            f"unknown protocol {protocol!r}; known: {sorted(ALL_PROTOCOLS)}"
        )
    n = len(inputs)
    features = scenario_features(
        protocol,
        n,
        t=t,
        round_policy=round_policy,
        fault_plan=fault_plan,
        fault_model=fault_model,
        omission_policy=omission_policy,
        delay_model=delay_model,
    )
    if runtime is not None:
        # des/asyncio/lockstep are event-simulator runtimes; an explicit
        # request must not be silently dropped by a faster engine.
        features.add(FEATURE_EVENT_RUNTIME)
    if engine == "auto":
        rounds_estimate = estimated_upfront_rounds(
            protocol, inputs, t, epsilon, round_policy
        )
        chosen = select_engine(
            features,
            # One execution: work = 1 × rounds × n for the block-setup cost
            # model (tiny single runs are faster on the pure-Python engine).
            work=None if rounds_estimate is None else rounds_estimate * n,
        )
    else:
        require_capability(engine, features)
        chosen = engine

    if dtype is not None and chosen != "ndbatch":
        raise EngineCapabilityError(
            chosen,
            f"float dtype selection (dtype={dtype!r}): it runs pure Python "
            "and would silently ignore the override; force engine='ndbatch' "
            "(if ndbatch runs the scenario) or drop dtype",
            ("ndbatch",),
        )

    if chosen == "event":
        from repro.sim.runner import run_protocol

        return run_protocol(
            protocol,
            inputs,
            t=t,
            epsilon=epsilon,
            round_policy=round_policy,
            delay_model=delay_model,
            fault_plan=fault_plan,
            runtime=runtime,
            strict=strict,
        )
    if chosen == "ndbatch":
        from repro.sim.ndbatch import run_ndbatch_protocol

        return run_ndbatch_protocol(
            protocol,
            inputs,
            t=t,
            epsilon=epsilon,
            round_policy=round_policy,
            fault_plan=fault_plan,
            fault_model=fault_model,
            omission_policy=omission_policy,
            delay_model=delay_model,
            seed=seed,
            strict=strict,
            dtype=dtype,
        )
    from repro.sim.batch import run_batch_protocol

    return run_batch_protocol(
        protocol,
        inputs,
        t=t,
        epsilon=epsilon,
        round_policy=round_policy,
        fault_plan=fault_plan,
        fault_model=fault_model,
        omission_policy=omission_policy,
        delay_model=delay_model,
        seed=seed,
        strict=strict,
    )
