"""Attack search over parameterised adversary families.

The tensor fault pipeline reduced every adversary to a pure data program —
``tensor_key()`` + PRF seed + whole-block ``(executions, n, …)`` tensors —
which makes the *space* of adversaries cheaply enumerable and scoreable.
This module closes the loop: instead of replaying hand-written attacks, it
*searches* for worst-case ones (the Fekete-protocol analogue of the
hand-crafted schedule-aware gasper attack in ``SNIPPETS.md`` §1, found
automatically).

Three pieces:

* **Families** (:data:`FAMILIES`): parameterised spans of the registry's
  hand-written adversaries.  Every candidate compiles down to an ordinary
  :class:`~repro.sim.sweep.SweepCell` whose ``adversary_params`` payload
  selects the family member, so candidates execute through the existing
  engines unchanged — delay-rank schedules over
  :class:`~repro.net.adversary.DelayRankOmission` rotations
  (``delay-rank``), anti-convergence stretch/target value programs over
  :class:`~repro.net.adversary.AntiConvergenceStrategy` optionally combined
  with an exclusion schedule (``anti-convergence``), and witness-partition
  cuts over :class:`~repro.net.adversary.PartitionReportDelay`
  (``witness-cut``).

* **Scoring** (:func:`evaluate_candidate`): each candidate is evaluated as
  one block of seeded executions through the sweep execution core
  (:func:`repro.sim.resilient.iter_resilient_outcomes` — the vectorised
  ndbatch block path whenever the engine capability matrix allows).  Objectives
  (:data:`OBJECTIVES`): ``rounds-to-eps`` (estimated rounds until the honest
  spread reaches ε at the observed contraction rate), ``rebound`` (how far
  the observed worst per-round contraction rebounds toward the theoretical
  bound), and ``stagger`` (witness-wait stagger across a report cut).
  Scores aggregate over a *training* seed block; winners are re-scored on
  held-out seeds so a search cannot seed-hack its way to a trophy.

  Evaluation is deliberately chaos-immune: the sweep entry points fall back
  to the ambient ``REPRO_CHAOS`` env flag when ``chaos`` is ``None``-by-
  default, which would silently inject faults into candidate evaluations and
  corrupt scores.  The scoring layer therefore calls the execution core
  directly with an *explicit* ``chaos=None`` (the core never consults the
  environment) and emits an :class:`AttackSearchChaosWarning` naming any
  ambient plan it is ignoring.

* **Drivers** (:func:`run_search`): deterministic grid enumeration, seeded
  random sampling, then coordinate-descent refinement around the incumbent.
  Every candidate→score record streams to a ``candidates.jsonl`` store with
  a manifest (the job layer's idioms): a killed search resumes
  bit-identically, because the driver sequence is a pure function of the
  search seed and of scores that are themselves deterministic — replaying
  from the top turns already-persisted evaluations into cache hits.

Found attacks are committed back into the sweep vocabulary as named
:data:`~repro.sim.sweep.ADVERSARY_SPECS` entries
(:data:`~repro.sim.sweep.FOUND_ATTACKS`) with severity regression cells in
``tests/analysis/test_found_attacks.py``.

CLI::

    python -m repro.analysis.attacksearch --family delay-rank \\
        --protocol async-crash --n 7 --t 2 --budget 40 --dir /tmp/attack
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.sim.sweep import (
    DEFAULT_MAX_BLOCK_SIZE,
    PROTOCOL_BOUNDS,
    SweepCell,
    _cell_inputs,
    CellOutcome,
)
from repro.sim.resilient import iter_resilient_outcomes
from repro.core.multiset import spread

__all__ = [
    "FAMILIES",
    "OBJECTIVES",
    "KNOWN_BAD_CANDIDATES",
    "AttackSearchChaosWarning",
    "ParamSpec",
    "AdversaryFamily",
    "Candidate",
    "CandidateScore",
    "SearchSetting",
    "SearchResult",
    "CandidateStore",
    "candidate_id",
    "baseline_candidate",
    "evaluate_candidate",
    "run_search",
    "main",
]


class AttackSearchChaosWarning(RuntimeWarning):
    """An ambient ``REPRO_CHAOS`` plan was ignored during candidate scoring.

    Attack-search scores must be fault-free measurements of the *adversary*,
    not of injected infrastructure chaos, so evaluation always passes
    ``chaos=None`` explicitly; this warning names the plan that was ignored
    so an operator who exported the flag for a chaos smoke is not silently
    surprised.
    """


# ----------------------------------------------------------------------
# Families
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ParamSpec:
    """One searchable parameter of a family: bounds, coarse grid, step."""

    name: str
    low: float
    high: float
    #: Coarse values the grid driver enumerates (cartesian product across
    #: specs, in declaration order).
    grid: Tuple[Union[int, float], ...]
    #: Neighbour step for coordinate-descent refinement.
    step: Union[int, float] = 1
    integer: bool = True

    def clamp(self, value: Union[int, float]) -> Union[int, float]:
        value = max(self.low, min(self.high, value))
        return int(round(value)) if self.integer else round(float(value), 6)

    def sample(self, rng: random.Random) -> Union[int, float]:
        if self.integer:
            return rng.randint(int(self.low), int(self.high))
        return round(rng.uniform(self.low, self.high), 6)


@dataclass(frozen=True)
class AdversaryFamily:
    """A parameterised span of one registry adversary.

    ``param_specs(setting)`` concretises the searchable axes for a given
    system size (bounds like ``exclude < n`` depend on the setting), and
    ``baseline(setting)`` names the hand-written registry member inside the
    family — the search always evaluates it first, so the best found
    candidate dominates the baseline by construction.
    """

    name: str
    #: The :data:`~repro.sim.sweep.ADVERSARY_SPECS` adversary the members
    #: compile to (via ``adversary_params``).
    adversary: str
    protocols: Tuple[str, ...]
    specs_builder: Callable[["SearchSetting"], Tuple[ParamSpec, ...]]
    baseline_builder: Callable[["SearchSetting"], Dict[str, Union[int, float]]]
    #: Default objective when the caller does not pick one.
    objective: str = "rounds-to-eps"

    def param_specs(self, setting: "SearchSetting") -> Tuple[ParamSpec, ...]:
        return self.specs_builder(setting)

    def baseline(self, setting: "SearchSetting") -> Dict[str, Union[int, float]]:
        return dict(self.baseline_builder(setting))


def _anti_convergence_specs(setting: "SearchSetting") -> Tuple[ParamSpec, ...]:
    n, t = setting.n, setting.t
    excludes = tuple(sorted({0, 1, t, min(2 * t, n - 1), n - 1}))
    return (
        ParamSpec("stretch", 0.0, 2.0, grid=(0.0, 0.5, 1.0), step=0.25, integer=False),
        ParamSpec("parity", 0, 1, grid=(0, 1)),
        ParamSpec("exclude", 0, n - 1, grid=excludes),
        ParamSpec("stride", 0, n - 1, grid=(0, 1, 2)),
        ParamSpec("phase", 0, n - 1, grid=(0,)),
    )


def _delay_rank_specs(setting: "SearchSetting") -> Tuple[ParamSpec, ...]:
    n, t = setting.n, setting.t
    excludes = tuple(sorted({0, 1, t, min(2 * t, n - 1), n - 1}))
    return (
        ParamSpec("exclude", 0, n - 1, grid=excludes),
        ParamSpec("stride", 0, n - 1, grid=(0, 1, 2)),
        ParamSpec("phase", 0, n - 1, grid=(0,)),
    )


def _witness_cut_specs(setting: "SearchSetting") -> Tuple[ParamSpec, ...]:
    n = setting.n
    return (
        ParamSpec("cut", 1, n - 1, grid=tuple(range(1, n))),
        ParamSpec("slow", 10.0, 400.0, grid=(200.0,), step=50.0, integer=False),
    )


FAMILIES: Dict[str, AdversaryFamily] = {
    "anti-convergence": AdversaryFamily(
        name="anti-convergence",
        adversary="byz-anti",
        protocols=("sync-byzantine", "async-byzantine", "witness"),
        specs_builder=_anti_convergence_specs,
        baseline_builder=lambda setting: {
            "stretch": 0.0, "parity": 0, "exclude": 0, "stride": 1, "phase": 0,
        },
    ),
    "delay-rank": AdversaryFamily(
        name="delay-rank",
        adversary="staggered",
        protocols=("async-crash", "sync-crash", "async-byzantine", "sync-byzantine"),
        specs_builder=_delay_rank_specs,
        baseline_builder=lambda setting: {
            "exclude": setting.t, "stride": 1, "phase": 0,
        },
    ),
    "witness-cut": AdversaryFamily(
        name="witness-cut",
        adversary="witness-partition",
        protocols=("witness",),
        specs_builder=_witness_cut_specs,
        baseline_builder=lambda setting: {
            "cut": (setting.n + 1) // 2, "slow": 200.0,
        },
        objective="stagger",
    ),
}


# ----------------------------------------------------------------------
# Candidates and settings
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Candidate:
    """One family member: a full, explicit parameter assignment."""

    family: str
    params: Tuple[Tuple[str, Union[int, float]], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(sorted(tuple(p) for p in self.params)))

    def as_dict(self) -> Dict[str, Union[int, float]]:
        return dict(self.params)


def candidate_id(candidate: Candidate) -> str:
    """Content-addressed candidate ID (16 hex chars, canonical JSON digest)."""
    import hashlib

    payload = json.dumps(
        {"family": candidate.family, "params": dict(candidate.params)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class SearchSetting:
    """The fixed scenario a search optimises against."""

    protocol: str
    n: int
    t: int
    epsilon: float = 1e-3
    workload: str = "uniform"
    #: Engine for candidate evaluation: "auto" picks the ndbatch block path
    #: whenever the capability matrix covers the cells.
    engine: str = "auto"
    objective: str = "rounds-to-eps"
    #: Training seed block — what the drivers optimise.
    train_seeds: Tuple[int, ...] = (0, 1, 2, 3, 4, 5, 6, 7)
    #: Held-out seed block — what declares the winner (anti seed-hacking).
    holdout_seeds: Tuple[int, ...] = (101, 102, 103, 104, 105, 106, 107, 108)

    def validate(self, family: AdversaryFamily) -> None:
        if self.protocol not in family.protocols:
            raise ValueError(
                f"family {family.name!r} does not cover protocol "
                f"{self.protocol!r} (covers {family.protocols})"
            )
        if self.objective not in OBJECTIVES:
            raise ValueError(
                f"unknown objective {self.objective!r}; "
                f"available: {sorted(OBJECTIVES)}"
            )
        if set(self.train_seeds) & set(self.holdout_seeds):
            raise ValueError("train and holdout seed blocks must be disjoint")


def baseline_candidate(family: AdversaryFamily, setting: SearchSetting) -> Candidate:
    """The hand-written registry member, expressed inside the family."""
    return Candidate(family=family.name, params=tuple(family.baseline(setting).items()))


def candidate_cells(
    candidate: Candidate, setting: SearchSetting, seeds: Sequence[int]
) -> List[SweepCell]:
    """Compile one candidate into its seeded evaluation block of sweep cells."""
    family = FAMILIES[candidate.family]
    cells = []
    for seed in seeds:
        cell = SweepCell(
            protocol=setting.protocol,
            n=setting.n,
            t=setting.t,
            epsilon=setting.epsilon,
            adversary=family.adversary,
            workload=setting.workload,
            seed=seed,
            engine=setting.engine,
            adversary_params=candidate.params,
        )
        cell.validate()
        cells.append(cell)
    return cells


# ----------------------------------------------------------------------
# Objectives
# ----------------------------------------------------------------------


def _rounds_to_eps_one(outcome: CellOutcome, initial_spread: float) -> float:
    """Estimated rounds until the honest spread reaches ε, from one outcome.

    The engines run a *fixed* round count derived from the theoretical
    contraction bound, so ``rounds_used`` alone is adversary-independent;
    severity lives in how much spread is left.  The estimate extrapolates
    from the executed rounds at the *observed* mean contraction rate:
    ``rounds + log(spread_final/ε) / log(1/c)`` — positive overtime when the
    adversary kept the spread above ε, negative rebate when the protocol
    converged early.  Monotone in both the final spread and the observed
    contraction, and exact when contraction is uniform per round.
    """
    epsilon = outcome.cell.epsilon
    final = outcome.output_spread
    rounds = float(outcome.rounds)
    if math.isnan(final):
        # No process decided — outside every protocol guarantee; treat the
        # full executed schedule as the (unfinished) cost.
        return rounds
    if final <= 0.0 or initial_spread <= epsilon:
        return 0.0
    contraction = outcome.mean_contraction
    if contraction is None:
        contraction = outcome.theoretical_contraction
    contraction = min(max(contraction, 1e-9), 1.0 - 1e-9)
    return max(0.0, rounds + math.log(final / epsilon) / math.log(1.0 / contraction))


def _objective_rounds_to_eps(
    candidate: Candidate,
    setting: SearchSetting,
    outcomes: Sequence[CellOutcome],
    initial_spreads: Sequence[float],
) -> float:
    scores = [
        _rounds_to_eps_one(outcome, initial)
        for outcome, initial in zip(outcomes, initial_spreads)
    ]
    return sum(scores) / len(scores)


def _objective_rebound(
    candidate: Candidate,
    setting: SearchSetting,
    outcomes: Sequence[CellOutcome],
    initial_spreads: Sequence[float],
) -> float:
    """Contraction rebound: observed worst per-round contraction vs the bound.

    1.0 means the adversary drove some round exactly to the theoretical
    contraction ``c``; above 1.0 the bound was (measurably) breached.
    """
    ratios = []
    for outcome in outcomes:
        if outcome.worst_contraction is None or outcome.theoretical_contraction <= 0:
            ratios.append(0.0)
        else:
            ratios.append(outcome.worst_contraction / outcome.theoretical_contraction)
    return sum(ratios) / len(ratios)


def _objective_stagger(
    candidate: Candidate,
    setting: SearchSetting,
    outcomes: Sequence[CellOutcome],
    initial_spreads: Sequence[float],
) -> float:
    """Witness-wait stagger across a report cut, per its decision schedule.

    Under :class:`~repro.net.adversary.PartitionReportDelay` a process's
    witness wait fires at ``fast`` when its own camp already musters the
    ``n - t`` report threshold and at ``slow`` otherwise (the cross-camp
    reports are the stragglers).  The stagger is the decision-time gap
    weighted by the fraction of processes left waiting — 0 for cuts where
    both camps stall together (everyone is equally late, nothing staggers)
    and maximal at ``cut = n - t``, where the largest possible minority
    stalls while the majority decides early.  Candidate executions still run
    (the outcomes gate validity: a candidate whose cells violate the
    protocol scores 0).
    """
    params = candidate.as_dict()
    n, t = setting.n, setting.t
    cut = int(params.get("cut", (n + 1) // 2))
    slow = float(params.get("slow", 200.0))
    fast = 1.0
    if any(not outcome.ok for outcome in outcomes):
        return 0.0
    camp_sizes = (cut, n - cut)
    threshold = n - t
    fast_processes = sum(size for size in camp_sizes if size >= threshold)
    slow_processes = n - fast_processes
    if fast_processes == 0 or slow_processes == 0:
        return 0.0
    return (slow - fast) * slow_processes / n


OBJECTIVES: Dict[str, Callable] = {
    "rounds-to-eps": _objective_rounds_to_eps,
    "rebound": _objective_rebound,
    "stagger": _objective_stagger,
}


# ----------------------------------------------------------------------
# Scoring
# ----------------------------------------------------------------------


def _warn_if_ambient_chaos() -> None:
    from repro.sim.chaos import CHAOS_ENV_VAR, ChaosPlan

    if CHAOS_ENV_VAR not in os.environ:
        return
    plan = ChaosPlan.from_env()
    if plan is None:
        return
    faults = ", ".join(sorted({rule.fault for rule in plan.rules}))
    warnings.warn(
        f"attack-search evaluation ignores the ambient {CHAOS_ENV_VAR} chaos "
        f"plan (seed={plan.seed}, {len(plan.rules)} rule(s): {faults}): "
        "candidate scores must be fault-free measurements of the adversary, "
        "so evaluation passes chaos=None explicitly",
        AttackSearchChaosWarning,
        stacklevel=3,
    )


@dataclass(frozen=True)
class CandidateScore:
    """One scored candidate on one seed block."""

    candidate: Candidate
    objective: str
    block: str  # "train" or "holdout"
    seeds: Tuple[int, ...]
    score: float
    metrics: Dict[str, float] = field(default_factory=dict, compare=False)
    phase: str = ""


def evaluate_candidate(
    candidate: Candidate,
    setting: SearchSetting,
    seeds: Optional[Sequence[int]] = None,
    workers: Optional[int] = 1,
    block: str = "train",
    phase: str = "",
) -> CandidateScore:
    """Score one candidate over a seeded execution block.

    The block executes through the sweep execution core — one ndbatch tensor
    block whenever the engine capability matrix covers the cells — with an
    **explicit** ``chaos=None`` and ``retry=None``: the core never consults
    the ``REPRO_CHAOS`` environment flag on that path, so ambient chaos
    plans cannot corrupt scores (they are warned about and ignored,
    :class:`AttackSearchChaosWarning`).  Scores are deterministic:
    re-evaluating a candidate, on any worker count, reproduces the same
    float bit for bit.
    """
    if seeds is None:
        seeds = setting.train_seeds if block == "train" else setting.holdout_seeds
    seeds = tuple(seeds)
    if not seeds:
        raise ValueError("an evaluation block needs at least one seed")
    _warn_if_ambient_chaos()
    cells = candidate_cells(candidate, setting, seeds)
    outcomes: List[Optional[CellOutcome]] = [None] * len(cells)
    # chaos=None / retry=None here is load-bearing, not a default worth
    # omitting: run_sweep()/SweepJob treat chaos=None as "read REPRO_CHAOS",
    # the execution core treats it as "no chaos, period".
    for index, outcome in iter_resilient_outcomes(
        cells,
        setting.engine,
        workers,
        DEFAULT_MAX_BLOCK_SIZE,
        retry=None,
        chaos=None,
    ):
        outcomes[index] = outcome
    missing = [i for i, outcome in enumerate(outcomes) if outcome is None]
    if missing:
        raise RuntimeError(f"evaluation dropped {len(missing)} cell(s): {missing}")
    initial_spreads = [spread(_cell_inputs(cell)) for cell in cells]
    score = OBJECTIVES[setting.objective](candidate, setting, outcomes, initial_spreads)
    metrics = {
        "mean_rounds": sum(o.rounds for o in outcomes) / len(outcomes),
        "mean_output_spread": sum(o.output_spread for o in outcomes) / len(outcomes),
        "ok_fraction": sum(1 for o in outcomes if o.ok) / len(outcomes),
        "worst_contraction": max(
            (o.worst_contraction for o in outcomes if o.worst_contraction is not None),
            default=0.0,
        ),
    }
    return CandidateScore(
        candidate=candidate,
        objective=setting.objective,
        block=block,
        seeds=seeds,
        score=score,
        metrics=metrics,
        phase=phase,
    )


# ----------------------------------------------------------------------
# Candidate JSONL store (job-layer idioms: manifest, tail repair, resume)
# ----------------------------------------------------------------------

STORE_SCHEMA_VERSION = 1


class CandidateStore:
    """Append-only candidate→score JSONL store with deterministic resume.

    Mirrors the sweep job layer: a ``manifest.json`` pins the search
    configuration (a resume against a different configuration fails loudly
    instead of silently mixing scores), scores append to
    ``candidates.jsonl`` flushed per record, and loading *repairs* the
    kill-truncated tail (the partial trailing line a killed search leaves is
    truncated away, exactly like :func:`repro.sim.job.scan_sweep_store`).
    Records are pure functions of (candidate, setting), so an interrupted
    search resumed over the same store converges to the byte-identical
    record set an uninterrupted run writes.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.manifest_path = os.path.join(directory, "manifest.json")
        self.jsonl_path = os.path.join(directory, "candidates.jsonl")
        os.makedirs(directory, exist_ok=True)

    def ensure_manifest(self, manifest: Dict) -> None:
        manifest = dict(manifest, schema_version=STORE_SCHEMA_VERSION)
        if os.path.exists(self.manifest_path):
            with open(self.manifest_path, "r", encoding="utf-8") as handle:
                existing = json.load(handle)
            if existing != manifest:
                raise ValueError(
                    f"attack-search store {self.directory!r} was created for a "
                    f"different search configuration; refusing to mix scores "
                    f"(existing manifest: {existing!r})"
                )
            return
        tmp = self.manifest_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, sort_keys=True, indent=2)
        os.replace(tmp, self.manifest_path)

    def load(self) -> Dict[Tuple[str, str], Dict]:
        """All complete records, keyed by ``(candidate_id, block)``; repairs the tail."""
        records: Dict[Tuple[str, str], Dict] = {}
        if not os.path.exists(self.jsonl_path):
            return records
        good_offset = 0
        with open(self.jsonl_path, "rb") as handle:
            while True:
                line = handle.readline()
                if not line:
                    break
                if not line.endswith(b"\n"):
                    break  # kill-truncated tail: stop before the partial line
                try:
                    payload = json.loads(line.decode("utf-8"))
                    key = (payload["id"], payload["block"])
                except (ValueError, KeyError):
                    break
                records[key] = payload
                good_offset = handle.tell()
        if os.path.getsize(self.jsonl_path) != good_offset:
            with open(self.jsonl_path, "r+b") as handle:
                handle.truncate(good_offset)
        return records

    def append(self, record: Dict) -> None:
        with open(self.jsonl_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())


def _score_to_record(score: CandidateScore) -> Dict:
    return {
        "id": candidate_id(score.candidate),
        "family": score.candidate.family,
        "params": dict(score.candidate.params),
        "objective": score.objective,
        "block": score.block,
        "seeds": list(score.seeds),
        "score": score.score,
        "metrics": dict(score.metrics),
        "phase": score.phase,
    }


def _record_to_score(payload: Dict) -> CandidateScore:
    return CandidateScore(
        candidate=Candidate(
            family=payload["family"], params=tuple(payload["params"].items())
        ),
        objective=payload["objective"],
        block=payload["block"],
        seeds=tuple(payload["seeds"]),
        score=payload["score"],
        metrics=dict(payload.get("metrics", ())),
        phase=payload.get("phase", ""),
    )


# ----------------------------------------------------------------------
# Search drivers
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one budgeted search."""

    family: str
    setting: SearchSetting
    #: Winner by held-out score (ties broken by training score, then ID).
    best: CandidateScore
    best_holdout: CandidateScore
    baseline: CandidateScore
    #: Every training-block score, in evaluation (sequence) order.
    evaluated: Tuple[CandidateScore, ...]
    #: Number of distinct candidates in the search sequence (budget spent).
    spent: int


def _grid_candidates(
    family: AdversaryFamily, specs: Sequence[ParamSpec]
) -> Iterable[Candidate]:
    for values in itertools.product(*(spec.grid for spec in specs)):
        yield Candidate(
            family=family.name,
            params=tuple(zip((spec.name for spec in specs), values)),
        )


def _random_candidate(
    family: AdversaryFamily, specs: Sequence[ParamSpec], rng: random.Random
) -> Candidate:
    return Candidate(
        family=family.name,
        params=tuple((spec.name, spec.sample(rng)) for spec in specs),
    )


def _neighbour(
    candidate: Candidate, spec: ParamSpec, direction: int
) -> Optional[Candidate]:
    params = candidate.as_dict()
    current = params[spec.name]
    proposed = spec.clamp(current + direction * spec.step)
    if proposed == current:
        return None
    params[spec.name] = proposed
    return Candidate(family=candidate.family, params=tuple(params.items()))


def run_search(
    family_name: str,
    setting: SearchSetting,
    budget: int = 32,
    search_seed: int = 0,
    store_dir: Optional[str] = None,
    workers: Optional[int] = 1,
    holdout_top_k: int = 3,
) -> SearchResult:
    """Run a budgeted grid → random → coordinate-descent attack search.

    ``budget`` counts *distinct candidates* admitted to the search sequence
    (the baseline is always first, so the best found candidate dominates the
    hand-written registry member by construction).  The sequence is a pure
    function of ``(family, setting, budget, search_seed)`` and of candidate
    scores — which are themselves deterministic — so a search killed at any
    point and re-run over the same ``store_dir`` replays the sequence with
    persisted scores as cache hits and finishes bit-identically to an
    uninterrupted run (pool and serial evaluation agree the same way).

    After the training sequence exhausts the budget, the ``holdout_top_k``
    best training candidates are re-scored on the held-out seed block; the
    returned :attr:`SearchResult.best` is the held-out winner, so a
    candidate cannot win by overfitting the training seeds.
    """
    family = FAMILIES[family_name]
    setting.validate(family)
    if budget < 1:
        raise ValueError("budget must be at least 1")
    specs = family.param_specs(setting)

    store: Optional[CandidateStore] = None
    persisted: Dict[Tuple[str, str], Dict] = {}
    if store_dir is not None:
        store = CandidateStore(store_dir)
        store.ensure_manifest(
            {
                "family": family_name,
                "setting": {
                    "protocol": setting.protocol,
                    "n": setting.n,
                    "t": setting.t,
                    "epsilon": setting.epsilon,
                    "workload": setting.workload,
                    "engine": setting.engine,
                    "objective": setting.objective,
                    "train_seeds": list(setting.train_seeds),
                    "holdout_seeds": list(setting.holdout_seeds),
                },
                "budget": budget,
                "search_seed": search_seed,
            }
        )
        persisted = store.load()

    scored: Dict[str, CandidateScore] = {}
    sequence: List[CandidateScore] = []
    spent = 0

    def consider(candidate: Candidate, phase: str) -> Optional[CandidateScore]:
        """Admit a candidate to the sequence (cache hit or fresh evaluation)."""
        nonlocal spent
        cid = candidate_id(candidate)
        if cid in scored:
            return scored[cid]
        if spent >= budget:
            return None
        spent += 1
        record = persisted.get((cid, "train"))
        if record is not None:
            score = _record_to_score(record)
        else:
            score = evaluate_candidate(
                candidate, setting, setting.train_seeds, workers=workers,
                block="train", phase=phase,
            )
            if store is not None:
                store.append(_score_to_record(score))
        scored[cid] = score
        sequence.append(score)
        return score

    # Phase 0: the hand-written baseline anchors the sequence.
    baseline = consider(baseline_candidate(family, setting), "baseline")
    assert baseline is not None  # budget >= 1

    # Phase 1: deterministic coarse grid (bounded to half the budget).
    grid_budget = spent + max(0, (budget - spent)) // 2
    for candidate in _grid_candidates(family, specs):
        if spent >= grid_budget:
            break
        consider(candidate, "grid")

    # Phase 2: seeded random exploration (half of what remains).
    rng = random.Random((search_seed << 16) ^ 0x5EED)
    random_budget = spent + max(0, (budget - spent)) // 2
    misses = 0
    while spent < random_budget and misses < 64:
        candidate = _random_candidate(family, specs, rng)
        if candidate_id(candidate) in scored:
            misses += 1  # resampling an already-admitted point is free but bounded
            continue
        misses = 0
        consider(candidate, "random")

    # Phase 3: coordinate descent around the incumbent, rest of the budget.
    def best_score() -> CandidateScore:
        return max(sequence, key=lambda s: (s.score, candidate_id(s.candidate)))

    improved = True
    while spent < budget and improved:
        improved = False
        incumbent = best_score()
        for spec in specs:
            for direction in (1, -1):
                neighbour = _neighbour(incumbent.candidate, spec, direction)
                if neighbour is None or candidate_id(neighbour) in scored:
                    continue
                score = consider(neighbour, "refine")
                if score is None:
                    break
                if score.score > incumbent.score:
                    improved = True
            if spent >= budget:
                break

    # Held-out re-scoring of the leaders: winners cannot be seed-hacked.
    leaders = sorted(
        sequence, key=lambda s: (-s.score, candidate_id(s.candidate))
    )[: max(1, holdout_top_k)]
    holdout_scores = []
    for leader in leaders:
        cid = candidate_id(leader.candidate)
        record = persisted.get((cid, "holdout"))
        if record is not None:
            holdout = _record_to_score(record)
        else:
            holdout = evaluate_candidate(
                leader.candidate, setting, setting.holdout_seeds, workers=workers,
                block="holdout", phase="holdout",
            )
            if store is not None:
                store.append(_score_to_record(holdout))
        holdout_scores.append((holdout, leader))
    winner_holdout, winner_train = max(
        holdout_scores,
        key=lambda pair: (pair[0].score, pair[1].score, candidate_id(pair[1].candidate)),
    )
    return SearchResult(
        family=family_name,
        setting=setting,
        best=winner_train,
        best_holdout=winner_holdout,
        baseline=baseline,
        evaluated=tuple(sequence),
        spent=spent,
    )


# ----------------------------------------------------------------------
# Committed rediscovery targets (CI smoke)
# ----------------------------------------------------------------------

#: Known-bad candidates on the 5-process smoke settings: the CI attack-search
#: smoke runs a tiny grid+random budget and asserts its best training score
#: rediscovers (scores at least as high as) these committed candidates,
#: evaluated live under the same setting.  Keys: (family, protocol, n, t).
KNOWN_BAD_CANDIDATES: Dict[Tuple[str, str, int, int], Dict[str, Union[int, float]]] = {
    # Frozen single-process exclusion: as severe as the rotating baseline
    # (the rotation axis is a severity plateau; widening the window past t
    # *helps* convergence by delaying everyone uniformly).
    ("delay-rank", "async-crash", 5, 1): {"exclude": 1, "stride": 0, "phase": 0},
    # Stretched, parity-flipped anti-convergence split: sync-byzantine at
    # t=1 trims every single byzantine extreme, so the whole family is a
    # severity plateau — the smoke asserts the search lands on it.
    ("anti-convergence", "sync-byzantine", 5, 1): {
        "stretch": 0.5, "parity": 1, "exclude": 0, "stride": 1, "phase": 0,
    },
}


def smoke_setting(family_name: str, protocol: str, n: int, t: int) -> SearchSetting:
    """The canonical tiny-budget smoke setting (CI and tests share it)."""
    return SearchSetting(
        protocol=protocol,
        n=n,
        t=t,
        objective=FAMILIES[family_name].objective,
        train_seeds=(0, 1, 2, 3),
        holdout_seeds=(101, 102, 103, 104),
    )


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.attacksearch",
        description=(
            "Budgeted attack search over parameterised adversary families: "
            "grid, seeded random, then coordinate-descent refinement, every "
            "candidate scored as one ndbatch execution block with held-out "
            "evaluation seeds."
        ),
    )
    parser.add_argument("--family", required=True, choices=sorted(FAMILIES))
    parser.add_argument("--protocol", required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--t", type=int, required=True)
    parser.add_argument("--epsilon", type=float, default=1e-3)
    parser.add_argument("--workload", default="uniform")
    parser.add_argument("--engine", default="auto",
                        choices=["auto", "batch", "ndbatch", "event"])
    parser.add_argument("--objective", default=None, choices=sorted(OBJECTIVES))
    parser.add_argument("--budget", type=int, default=32)
    parser.add_argument("--search-seed", type=int, default=0)
    parser.add_argument("--train-seeds", type=int, default=8,
                        help="size of the training seed block (seeds 0..k-1)")
    parser.add_argument("--holdout-seeds", type=int, default=8,
                        help="size of the held-out seed block (seeds 101..)")
    parser.add_argument("--dir", default=None,
                        help="candidate store directory (enables resume)")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--top", type=int, default=5,
                        help="leaderboard rows to print")
    args = parser.parse_args(argv)

    family = FAMILIES[args.family]
    setting = SearchSetting(
        protocol=args.protocol,
        n=args.n,
        t=args.t,
        epsilon=args.epsilon,
        workload=args.workload,
        engine=args.engine,
        objective=args.objective or family.objective,
        train_seeds=tuple(range(args.train_seeds)),
        holdout_seeds=tuple(range(101, 101 + args.holdout_seeds)),
    )
    result = run_search(
        args.family,
        setting,
        budget=args.budget,
        search_seed=args.search_seed,
        store_dir=args.dir,
        workers=args.workers,
    )

    from repro.analysis.tables import render_table

    leaders = sorted(
        result.evaluated, key=lambda s: (-s.score, candidate_id(s.candidate))
    )[: args.top]
    rows = [
        [
            candidate_id(score.candidate),
            score.phase,
            json.dumps(dict(score.candidate.params), sort_keys=True),
            f"{score.score:.4f}",
        ]
        for score in leaders
    ]
    print(
        render_table(
            ["candidate", "phase", "params", setting.objective],
            rows,
            title=(
                f"attack search: {args.family} on {setting.protocol} "
                f"(n={setting.n}, t={setting.t}), {result.spent} candidates"
            ),
        )
    )
    print(
        f"baseline ({json.dumps(dict(result.baseline.candidate.params), sort_keys=True)}): "
        f"train {result.baseline.score:.4f}"
    )
    print(
        f"best     ({json.dumps(dict(result.best.candidate.params), sort_keys=True)}): "
        f"train {result.best.score:.4f}, "
        f"holdout {result.best_holdout.score:.4f}"
    )
    margin = result.best.score - result.baseline.score
    print(f"severity margin over hand-written baseline: {margin:+.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
