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
  the scenario's features (preferring the vectorised engine only when the
  scenario actually vectorises), and :func:`run` is the front door that
  performs the selection and dispatches — with ``engine=`` kept as an
  explicit override;
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
stateful strategy      —        ✓       ✓
stateful quorum/delay  ✓ (a)    ✓       ✓
message-level faults   —        —       ✓
vector (d > 1) inputs  ✓ (b)    ✓ (c)   ✓ (c)
runs without numpy     —        ✓       ✓
relative speed         ~50×     ~10×    1×
=====================  =======  ======  ========

(a) supported through a per-recipient fallback; auto-selection prefers the
batch engine for such scenarios, because the fallback gives up the
vectorisation that makes ndbatch worth choosing.

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
estimated work ``cells × rounds × n`` against the probe-calibrated
:func:`ndbatch_min_work` threshold — and
keeps tiny grids (a single small execution, a one-cell sweep group) on the
pure-Python batch engine, where block setup would dominate.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Set, Tuple

__all__ = [
    "DIRECT_PROTOCOLS",
    "ENGINES",
    "ENGINE_CAPABILITIES",
    "ENV_CALIBRATION_DIR",
    "ENV_MIN_WORK",
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
    "require_dimension",
    "run",
    "scenario_features",
    "select_engine",
    "vectorises",
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
FEATURE_VECTOR = "vector-valued-inputs"


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
    summary: str
    #: Whether the engine advances whole execution blocks through tensor
    #: fault programs (grouped ``value_tensor``/``rank_tensor`` calls).  A
    #: tensorisable engine pays a per-block setup cost, so auto-selection
    #: only picks it when the scenario actually vectorises *and* the
    #: estimated work (cells × rounds × n) exceeds :func:`ndbatch_min_work`.
    tensorisable: bool = False
    #: The engine the resilient sweep layer (:mod:`repro.sim.resilient`)
    #: falls back to when work keeps failing on this one — a slower, simpler
    #: engine covering at least the same scenarios (ndbatch → batch: a
    #: whole-block numpy failure is often block-shaped, and the scalar
    #: engine both isolates the faulty cell and sidesteps the block path).
    #: ``None`` means there is nothing to demote to.
    demotes_to: Optional[str] = None
    #: Whether the engine runs vector-valued (d > 1) agreement — natively
    #: (ndbatch advances whole ``(executions, n, d)`` blocks through
    #: :func:`repro.sim.ndbatch.run_vector_block`) or by coordinate-wise
    #: composition (batch/event: one scalar instance per coordinate, the
    #: construction of :mod:`repro.sim.vector`).
    supports_vectors: bool = False
    #: Largest supported input dimension (``None`` = unbounded).  Only
    #: meaningful when ``supports_vectors`` is set; lets a future bounded
    #: engine (fixed-width SIMD kernels, say) declare its width and have
    #: dispatch route around it.
    max_dimension: Optional[int] = None

    def feature_set(self) -> FrozenSet[str]:
        tags = self.features | frozenset(f"protocol:{p}" for p in self.protocols)
        if self.supports_vectors:
            tags |= {FEATURE_VECTOR}
        return tags

    def supports(self, required: Iterable[str]) -> bool:
        return set(required) <= self.feature_set()

    def missing(self, required: Iterable[str]) -> Tuple[str, ...]:
        return tuple(sorted(set(required) - self.feature_set()))


#: Engine name → capability record, fastest engine first.
ENGINE_CAPABILITIES: Dict[str, EngineCapabilities] = {
    "ndbatch": EngineCapabilities(
        name="ndbatch",
        module="repro.sim.ndbatch",
        protocols=DIRECT_PROTOCOLS,
        features=frozenset({FEATURE_ROUND_LEVEL, FEATURE_STATEFUL_QUORUM}),
        speed_rank=0,
        summary="numpy-vectorised block engine (whole executions advance as matrices)",
        tensorisable=True,
        demotes_to="batch",
        supports_vectors=True,
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
        summary="pure-Python round-level engine (one asynchronous round at a time)",
        supports_vectors=True,
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
        summary="per-message discrete-event simulator (highest fidelity)",
        supports_vectors=True,
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
    dimension: int = 1,
) -> Set[str]:
    """The feature set one scenario requires of an engine.

    The fault specification may be message level (``fault_plan``) or round
    level (``fault_model``); a message-level plan the round-level adapter
    (:func:`repro.net.adversary.round_fault_model`) cannot interpret marks
    the scenario message-level-only, which only the event engine runs.
    ``t`` sharpens the witness crash-boundary probe (without it, any witness
    crash beyond "initially dead" conservatively routes to the event engine).
    ``dimension > 1`` marks the scenario vector-valued, which only engines
    declaring ``supports_vectors`` run (see also :func:`require_dimension`
    for per-engine dimension bounds).
    """
    from repro.net.adversary import round_fault_model

    if dimension < 1:
        raise ValueError(f"dimension must be positive, got {dimension}")
    features: Set[str] = {f"protocol:{protocol}"}
    if dimension > 1:
        features.add(FEATURE_VECTOR)
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
        if any(
            not getattr(strategy, "stateless", False)
            for strategy in fault_model.strategies.values()
        ):
            features.add(FEATURE_STATEFUL_STRATEGY)
        if protocol == "witness" and not _witness_crashes_on_boundaries(
            given_fault_plan, fault_model, n, t
        ):
            features.add(FEATURE_WITNESS_MID_MULTICAST)

    if omission_policy is not None or (fault_model is not None and fault_plan is None):
        # Round-level adversary specifications have no message-level form.
        features.add(FEATURE_ROUND_LEVEL)
    if delay_model is not None and not getattr(delay_model, "stateless", False):
        features.add(FEATURE_STATEFUL_QUORUM)
    if omission_policy is not None and _policy_is_stateful(omission_policy):
        features.add(FEATURE_STATEFUL_QUORUM)

    if not numpy_available():
        features.add(FEATURE_NO_NUMPY)
    return features


def _policy_is_stateful(omission_policy) -> bool:
    """Conservatively classify an omission policy's statefulness."""
    from repro.net.adversary import DelayRankOmission, SeededOmission

    if isinstance(omission_policy, SeededOmission):
        return False
    if isinstance(omission_policy, DelayRankOmission):
        return not getattr(omission_policy.delay_model, "stateless", False)
    return True  # unknown custom policies may depend on query order


def vectorises(
    protocol: str,
    fault_model=None,
    omission_policy=None,
    delay_model=None,
) -> bool:
    """Whether the ndbatch engine would run this scenario fully vectorised.

    True when the quorum-selection path stays native (SeededOmission keys or
    a bulk :meth:`~repro.net.adversary.OmissionPolicy.rank_block` ranking)
    and no per-recipient Python fallback would be needed.  Used by
    auto-selection: a scenario ndbatch *can* run but only through its
    fallback path is better served by the batch engine.
    """
    from repro.net.adversary import DelayRankOmission, SeededOmission

    if protocol not in DIRECT_PROTOCOLS:
        return False
    if fault_model is not None and any(
        not getattr(strategy, "stateless", False)
        for strategy in fault_model.strategies.values()
    ):
        return False
    if omission_policy is None and delay_model is not None:
        omission_policy = DelayRankOmission(delay_model)
    if omission_policy is None or isinstance(omission_policy, SeededOmission):
        return True
    if isinstance(omission_policy, DelayRankOmission):
        return getattr(omission_policy.delay_model, "stateless", False)
    return False


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


#: Fallback minimum estimated work — sweep cells × rounds × n — below which
#: auto-selection prefers the pure-Python batch engine over a tensorised
#: (block) engine.  Calibrated empirically on one reference host: the ndbatch
#: block setup (scenario masks, crash/candidate tensors, result assembly)
#: costs roughly as much as ~60 scalar quorum updates there.  Dispatch no
#: longer trusts this constant blindly: :func:`ndbatch_min_work` re-measures
#: the crossover once per interpreter with a cached micro-probe, and this
#: value only serves as the fallback when the probe cannot run (and as the
#: centre of the probe's sanity clamp).
NDBATCH_MIN_WORK = 64

#: Environment override for the dispatch threshold (skips the micro-probe).
ENV_MIN_WORK = "REPRO_NDBATCH_MIN_WORK"
#: Directory for the per-interpreter probe cache (default: the temp dir).
ENV_CALIBRATION_DIR = "REPRO_CALIBRATION_DIR"

#: Sanity clamp on probed thresholds: even a wildly noisy probe (loaded CI
#: host, cold caches) cannot push dispatch into a regime where either every
#: grid or no grid vectorises.
_MIN_WORK_CLAMP = (48, 16384)

_min_work_memo: Optional[int] = None


def _calibration_path() -> str:
    """Per-interpreter cache file for the probed dispatch threshold."""
    import sys
    import tempfile

    directory = os.environ.get(ENV_CALIBRATION_DIR) or tempfile.gettempdir()
    tag = f"{sys.implementation.name}-{sys.version_info[0]}.{sys.version_info[1]}"
    return os.path.join(directory, f"repro-ndbatch-min-work-{tag}.txt")


def _probe_ndbatch_min_work() -> int:
    """Measure the batch→ndbatch crossover with one tiny timed scenario.

    Times the same small async-crash execution on both round-level engines
    (best of three, after a warm-up run absorbing import and allocator
    costs).  On a scenario this small the ndbatch time is dominated by block
    setup while the batch time is proportional to scalar work, so
    ``probe_work × ndbatch_time / batch_time`` estimates the block setup in
    scalar-work units — exactly the quantity :data:`NDBATCH_MIN_WORK` was
    hand-calibrated to approximate.
    """
    import time as _time

    from repro.sim.batch import run_batch_protocol
    from repro.sim.ndbatch import run_ndbatch_protocol

    inputs = [0.0, 0.25, 0.5, 0.75, 1.0]
    t, epsilon = 1, 0.05

    def best_of(runner) -> float:
        timings = []
        for _ in range(3):
            started = _time.perf_counter()
            runner("async-crash", inputs, t=t, epsilon=epsilon)
            timings.append(_time.perf_counter() - started)
        return min(timings)

    run_batch_protocol("async-crash", inputs, t=t, epsilon=epsilon)  # warm-up
    run_ndbatch_protocol("async-crash", inputs, t=t, epsilon=epsilon)
    batch_time = best_of(run_batch_protocol)
    ndbatch_time = best_of(run_ndbatch_protocol)
    rounds = estimated_upfront_rounds("async-crash", inputs, t, epsilon) or 1
    probe_work = rounds * len(inputs)
    if batch_time <= 0.0:
        return NDBATCH_MIN_WORK
    return int(round(probe_work * ndbatch_time / batch_time))


def ndbatch_min_work() -> int:
    """The dispatch threshold, probed once per interpreter and cached.

    Resolution order: in-process memo → :data:`ENV_MIN_WORK` (explicit
    override, pinned in CI/tests for deterministic dispatch) → the cache
    file (:func:`_calibration_path`) → a fresh micro-probe
    (:func:`_probe_ndbatch_min_work`), clamped to :data:`_MIN_WORK_CLAMP`
    and written back atomically.  Every failure mode (no numpy, unwritable
    temp dir, corrupt cache) degrades to the hand-calibrated
    :data:`NDBATCH_MIN_WORK` fallback rather than raising — dispatch must
    never fail because calibration did.
    """
    global _min_work_memo
    if _min_work_memo is not None:
        return _min_work_memo
    env = os.environ.get(ENV_MIN_WORK)
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(
                f"{ENV_MIN_WORK} must be an integer work threshold, got {env!r}"
            ) from None
        if value < 1:
            raise ValueError(f"{ENV_MIN_WORK} must be positive, got {value}")
        _min_work_memo = value
        return value
    path = _calibration_path()
    try:
        with open(path, "r", encoding="ascii") as handle:
            cached = int(handle.read().strip())
        if cached >= 1:
            _min_work_memo = cached
            return cached
    except (OSError, ValueError):
        pass
    try:
        probed = _probe_ndbatch_min_work()
    except Exception:
        _min_work_memo = NDBATCH_MIN_WORK
        return _min_work_memo
    low, high = _MIN_WORK_CLAMP
    value = max(low, min(high, probed))
    try:
        import tempfile

        handle = tempfile.NamedTemporaryFile(
            "w",
            encoding="ascii",
            dir=os.path.dirname(path) or ".",
            prefix=os.path.basename(path) + ".",
            delete=False,
        )
        with handle:
            handle.write(f"{value}\n")
        os.replace(handle.name, path)
    except OSError:
        pass
    _min_work_memo = value
    return value


def select_engine(
    features: Iterable[str],
    vectorised: bool = True,
    work: Optional[int] = None,
) -> str:
    """The fastest capable engine for a scenario (auto-selection policy).

    ``vectorised`` reports whether the scenario would actually vectorise on
    a tensorised engine (see :func:`vectorises`); when it would not,
    selection skips such engines in favour of the batch engine, whose
    pure-Python loop beats the fallback path's per-recipient round trips
    through numpy.  ``work`` is the scenario's estimated size — cells ×
    rounds × n — fed to the block-setup cost model: a tensorised engine is
    only worth its per-block setup when ``work`` reaches the calibrated
    :func:`ndbatch_min_work` threshold (``None`` skips the cost model, e.g.
    when the round count is not computable upfront).
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
        caps = ENGINE_CAPABILITIES[name]
        if caps.tensorisable and not vectorised:
            continue
        if caps.tensorisable and work is not None and work < ndbatch_min_work():
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
                "stateful Byzantine value strategies (strategies must be "
                "stateless — pure functions of round/recipient/observed)"
            )
        elif feature == FEATURE_STATEFUL_QUORUM:
            parts.append("stateful quorum/delay adversaries")
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
        elif feature == FEATURE_VECTOR:
            parts.append("vector-valued (dimension > 1) inputs")
        else:
            parts.append(feature)
    return " and ".join(parts)


def require_dimension(engine: str, dimension: int) -> None:
    """Raise unless ``engine`` runs ``dimension``-valued vector agreement.

    ``dimension == 1`` always passes (scalar agreement is every engine's
    home turf).  For ``d > 1`` the engine must declare ``supports_vectors``
    and, when it states a ``max_dimension``, cover ``d``; the error names
    the engines that do.
    """
    if dimension < 1:
        raise ValueError(f"dimension must be positive, got {dimension}")
    if dimension == 1:
        return
    if engine not in ENGINE_CAPABILITIES:
        raise ValueError(
            f"unknown engine {engine!r}; known engines: {', '.join(ENGINES)} "
            f"(or 'auto')"
        )
    capable = tuple(
        name
        for name in ENGINES
        if ENGINE_CAPABILITIES[name].supports_vectors
        and (
            ENGINE_CAPABILITIES[name].max_dimension is None
            or dimension <= ENGINE_CAPABILITIES[name].max_dimension
        )
    )
    capabilities = ENGINE_CAPABILITIES[engine]
    if not capabilities.supports_vectors:
        raise EngineCapabilityError(
            engine, "vector-valued (dimension > 1) inputs", capable
        )
    if capabilities.max_dimension is not None and dimension > capabilities.max_dimension:
        raise EngineCapabilityError(
            engine,
            f"dimension {dimension} (its max_dimension is "
            f"{capabilities.max_dimension})",
            capable,
        )


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
        covers the scenario — ndbatch for vectorisable direct-protocol
        scenarios big enough to repay the block setup (the
        :func:`ndbatch_min_work` cost model; tiny single executions stay on
        batch), batch for round-level scenarios ndbatch cannot (or should
        not) take, the event simulator for message-level-only scenarios.
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
    from repro.net.adversary import round_fault_model

    # Resolve the round-level fault model once; both the feature derivation
    # and the vectorisation probe consume it.
    resolved_model = fault_model
    if resolved_model is None and fault_plan is not None:
        try:
            resolved_model = round_fault_model(fault_plan, n)
        except ValueError:
            resolved_model = None  # message-level only; scenario_features flags it
    features = scenario_features(
        protocol,
        n,
        t=t,
        round_policy=round_policy,
        fault_plan=fault_plan,
        fault_model=resolved_model,
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
            vectorised=vectorises(
                protocol,
                fault_model=resolved_model,
                omission_policy=omission_policy,
                delay_model=delay_model,
            ),
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
            "(if the scenario vectorises) or drop dtype",
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
