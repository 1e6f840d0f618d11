"""Vectorised multi-execution batch engine (numpy tensor rounds).

The round-level batch engine (:mod:`repro.sim.batch`) made thousand-execution
sweeps routine, but its hot loop is still pure Python: one ``sorted()`` +
``fsum`` per process per round per execution.  The algorithms' round structure
— ``mean ∘ select_k ∘ reduce^j`` over a sorted multiset — is exactly a sort +
strided slice + mean over the rows of a tensor, so this engine advances an
entire *block* of executions at once:

* all executions sharing a scenario shape (protocol, ``n``, ``t``, round
  count, dimension ``d``) are stacked into an ``(executions, n, d)`` value
  tensor;
* each round, candidate masks and quorum index tensors are built from the
  per-execution :class:`~repro.net.adversary.RoundFaultModel` and
  :class:`~repro.net.adversary.OmissionPolicy`;
* per-recipient views are gathered into an ``(executions, n, m, d)`` tensor
  and the approximation step is applied as one sort + strided slice + mean
  along the multiset axis (:func:`repro.core.rounds.approximation_step_block`)
  — no per-process Python loop.

One kernel serves both entry points.  The paper's ε-agreement in ℝ is the
``d = 1`` case of coordinate-wise agreement in ℝ^d (interval validity is box
validity in ℝ¹), so :func:`run_ndbatch_block` lifts its scalar inputs to an
``(executions, n, 1)`` tensor and :func:`run_vector_block` passes its vectors
as they are.  Both share the block construction, the round loop and the
array side of result assembly; they differ only in the result objects they
build.

Exact agreement with :mod:`repro.sim.batch`
-------------------------------------------

The engine is differentially pinned against the pure-Python batch engine
(``tests/sim/test_ndbatch_equivalence.py``): identical rounds, message and
bit counts, and outputs/trajectories within ``1e-9`` (the engines may differ
in floating-point summation order — ``math.fsum`` versus numpy's pairwise
summation — but in nothing else).  Two quorum-selection paths keep the
adversary *bit-identical* across engines:

* :class:`~repro.net.adversary.SeededOmission` — its counter-based PRF
  (:func:`~repro.net.adversary.seeded_rank_key`) is re-evaluated here over
  ``(executions, recipients, senders)`` uint64 key tensors, reproducing the
  scalar keys exactly;
* policies sharing a tensor fault program
  (:meth:`~repro.net.adversary.OmissionPolicy.rank_tensor`, e.g.
  :class:`~repro.net.adversary.DelayRankOmission` over tensor-programmed
  delay models) — executions are grouped by
  :meth:`~repro.net.adversary.OmissionPolicy.tensor_key` and ranked with
  bulk calls, per-execution variation carried by the PRF seed vector, with
  a stable sort matching the scalar ``(rank, sender)`` tie-breaking.

The engine runs tensor programs only.  A block holding an omission policy
or a Byzantine value strategy without a ``tensor_key`` — e.g. a delay model
drawing from a sequential RNG stream
(:class:`~repro.net.network.UniformRandomDelay`) — raises
:class:`~repro.sim.engine.EngineCapabilityError` before any chunk runs,
naming the batch engine, which queries such components one call at a time
(the event engine takes no round-level fault model or policy);
``engine="auto"`` sends them there.

No path materialises a block-sized ``(executions, n, n)`` tensor of 8-byte
keys or ranks.  The slab rule: seeded executions and tensor groups that are
not shared are ranked in slabs of at most
:data:`QUORUM_SLAB_KEYS` keys (``QUORUM_SLAB_KEYS // n²`` executions, at
least one), so the keys are mixed, masked, sorted and read out while they
are in cache; the seeded slabs reuse two key buffers and sort in place.  The
shared-ranking rule: a tensor group whose members carry one
:meth:`~repro.net.adversary.OmissionPolicy.tensor_seed` and one crash and
strategy layout — every deterministic delay program over one layout, e.g. a
staggered, partition or laggard grid — ranks identically by the
``tensor_key`` contract over one candidate matrix per round, so it gets one
``rank_tensor`` call for a single seed and one stable argsort per round,
broadcast to every member.  The samples are then gathered with flat
``np.take`` calls on ``(executions · n, …)`` views, one shared flat index
per round.  Every block hands the kernel a slab of executions at a time
(:func:`_reduce_samples`), and an asynchronous block gathers its samples
into one buffer reused every round, so its rounds allocate and free no
sample-sized array.

Byzantine value strategies must be ``stateless`` (pure functions of
``(round, recipient, observed)``) and declare a tensor program
(:meth:`~repro.net.adversary.ByzantineValueStrategy.tensor_key`); the
engine evaluates them eagerly for every recipient.  Strategies are grouped
by program, not by ``(sender, program)``: each program gets one
:meth:`~repro.net.adversary.ByzantineValueStrategy.value_tensor` call per
round whose rows stack every member sender, execution and coordinate
(members of one execution sharing a seed share a row).  Byzantine and
anti-convergence rounds issue **zero** per-execution Python strategy calls
(asserted by ``tests/sim/test_fault_tensor_engine.py``).  Reports are kept
per strategy slot, ``(executions, S, n, d)`` with ``S ≤ t`` the block's
largest strategy count, and gathered only at the quorum slots that chose a
strategy sender, where a non-finite report marks its row short
(``tests/sim/test_byzantine_reports.py`` pins both against the
sender-indexed form).  Stateful strategies, components without a tensor
program and adaptive round policies raise a documented error pointing at
the pure-Python engine, which supports all three.

Scalar results are full :class:`~repro.sim.runner.ExecutionResult` objects
(runtime tag ``"ndbatch"``) with the same schema as the other engines, so the
metrics, convergence-analysis and table pipelines apply unchanged; vector
results are :class:`~repro.sim.vector.VectorExecutionResult` objects.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.multidim import (
    VectorValidationReport,
    check_box_validity_block,
    normalize_vector_inputs,
    validate_vector_outputs,
)
from repro.core.problem import ProblemInstance, ValidationReport, validate_outputs
from repro.core.protocol import ResilienceError
from repro.core.rounds import AlgorithmBounds, approximation_step_block
from repro.core.termination import RoundPolicy, default_vector_round_policy
from repro.net.adversary import (
    SENDER_MASK,
    DelayRankOmission,
    OmissionPolicy,
    RoundFaultModel,
    SeededOmission,
    mix64,
    round_fault_model,
    seeded_rank_key_block,
)
from repro.net.message import Message, message_bits
from repro.net.network import DelayModel, FaultPlan, NetworkStats
from repro.sim.batch import DIRECT_PROTOCOL_BOUNDS, _upfront_rounds
from repro.sim.engine import EngineCapabilityError, capable_engines, scenario_features
from repro.sim.planner import plan_block, resolve_dtype
from repro.sim.runner import ExecutionResult
from repro.sim.vector import VectorExecutionResult

__all__ = [
    "NDBATCH_PROTOCOLS",
    "run_ndbatch_block",
    "run_ndbatch_protocol",
    "run_vector_block",
]

#: Protocols the vectorised engine supports (the direct protocols; the
#: witness protocol's round-level form lives in the batch engine).
NDBATCH_PROTOCOL_BOUNDS = dict(DIRECT_PROTOCOL_BOUNDS)
NDBATCH_PROTOCOLS = tuple(sorted(NDBATCH_PROTOCOL_BOUNDS))

_SYNCHRONOUS = frozenset({"sync-crash", "sync-byzantine"})

#: Sentinel crash round for processes that never crash (far beyond any block).
_NEVER = np.int64(2**31)

_UINT64_MAX = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Rank keys per quorum-selection slab: ``2**17`` uint64 keys are 1 MiB, so
#: a slab's key, scratch, rank and order arrays stay in cache while it is
#: mixed, masked, sorted and read out.  A slab holds at least one execution.
QUORUM_SLAB_KEYS = 1 << 17


def _rows(indices: Sequence[int]):
    """Index of a row subset: a slice when the rows are one ascending run
    without repeats or gaps, so reads are views and writes land in place;
    an index array otherwise."""
    rows = np.asarray(indices, dtype=np.intp)
    if (np.diff(rows) == 1).all():
        return slice(int(rows[0]), int(rows[-1]) + 1)
    return rows


def _slab_executions(n: int) -> int:
    """Executions per quorum slab: ``QUORUM_SLAB_KEYS // n²``, at least one."""
    return max(1, QUORUM_SLAB_KEYS // (n * n))


def _slabs(rows, count: int, n: int):
    """``(slab_rows, start, stop)`` for the quorum slabs of ``count`` rows.

    ``rows`` indexes the block (see :func:`_rows`); ``start:stop`` is the
    slab's range within the subset and ``slab_rows`` its block index.
    """
    per_slab = _slab_executions(n)
    for start in range(0, count, per_slab):
        stop = min(count, start + per_slab)
        if isinstance(rows, slice):
            yield slice(rows.start + start, rows.start + stop), start, stop
        else:
            yield rows[start:stop], start, stop


class _Block:
    """Per-execution scenario data and array state of one ndbatch block.

    ``inputs`` is the block's ``(executions, n, d)`` float64 input tensor
    (``d = 1`` for scalar blocks); ``bounds``, ``total_rounds`` and the
    components' tensor programs were checked for the whole block by
    :func:`_run_block`.  ``dtype`` is the resolved float dtype name
    (:func:`repro.sim.planner.resolve_dtype`).
    Only the value state runs at that dtype: schedules, masks and PRF seeds
    keep their exact integer dtypes, so float32 changes no quorum, only the
    value arithmetic.
    """

    def __init__(
        self,
        protocol: str,
        inputs: np.ndarray,
        t: int,
        epsilon: float,
        bounds: AlgorithmBounds,
        total_rounds: int,
        fault_models: Sequence[RoundFaultModel],
        omission_policies: Sequence[OmissionPolicy],
        dtype: str,
    ) -> None:
        self.dtype = np.dtype(dtype)
        self.count, self.n, self.dimension = inputs.shape
        self.epsilon = epsilon
        self.protocol = protocol
        self.synchronous = protocol in _SYNCHRONOUS
        self.bounds = bounds
        self.total_rounds = total_rounds
        self.fault_models = list(fault_models)
        self.policies = list(omission_policies)
        n, count = self.n, self.count

        # Problems record coordinate 0's inputs: scalar results report them,
        # vector results read only the fault ids.
        self.problems: List[ProblemInstance] = []
        for row, model in zip(inputs[:, :, 0].tolist(), self.fault_models):
            self.problems.append(
                ProblemInstance(
                    n=n,
                    t=t,
                    epsilon=epsilon,
                    inputs=row,
                    faulty=model.faulty_ids(n),
                    byzantine=model.byzantine_ids(n),
                )
            )

        # --- numpy scenario state --------------------------------------
        self.inputs = inputs
        self.crash_round = np.full((count, n), _NEVER, dtype=np.int64)
        self.crash_deliveries = np.zeros((count, n), dtype=np.int64)
        self.strategy_mask = np.zeros((count, n), dtype=bool)
        self.silent_mask = np.zeros((count, n), dtype=bool)
        self.honest_mask = np.ones((count, n), dtype=bool)
        self.strategy_ids: List[Tuple[int, ...]] = []

        starting = inputs.copy()
        # Strategies grouped by tensor program: every program is answered by
        # ONE value_tensor call per round on a representative instance, with
        # per-member variation carried by the PRF seed vector — zero
        # per-execution Python strategy calls.
        programs: Dict[tuple, List[Tuple[int, int]]] = {}
        for e, model in enumerate(self.fault_models):
            for pid, strategy in model.strategies.items():
                if pid < n:
                    self.strategy_mask[e, pid] = True
                    programs.setdefault(strategy.tensor_key(), []).append((e, pid))
            for pid in model.silent:
                if pid < n:
                    self.silent_mask[e, pid] = True
            self.strategy_ids.append(tuple(sorted(model.strategies)))
            # Forged inputs are scalars (as in round_fault_model): they
            # broadcast to every coordinate.
            for pid, forged in model.corrupted_inputs.items():
                if pid < n:
                    starting[e, pid] = float(forged)
            for pid, (crash_round, deliveries) in model.crash_schedule.items():
                if pid < n:
                    self.crash_round[e, pid] = crash_round
                    self.crash_deliveries[e, pid] = deliveries
            for pid in self.problems[e].faulty:
                self.honest_mask[e, pid] = False
        self.holder_mask = ~self.strategy_mask & ~self.silent_mask
        # Crash schedules only apply to value holders (a Byzantine replacement
        # supersedes a crash point, as in the round_fault_model adapter).
        self.crash_round = np.where(self.holder_mask, self.crash_round, _NEVER)
        self.crash_deliveries = np.where(self.holder_mask, self.crash_deliveries, 0)
        self.values = np.where(self.holder_mask[:, :, None], starting, np.nan).astype(
            self.dtype, copy=False
        )
        self.strategy_counts = self.strategy_mask.sum(axis=1).astype(np.int64)

        # --- strategy slots and programs -------------------------------
        # Each execution's strategy senders fill report slots 0, 1, … in
        # ascending pid order; slot_count is the block's largest strategy
        # count (at most t).  report_row[e*n + sender] is the row of the
        # (E·S·n, d) report view holding that sender's report to recipient
        # 0.  Crash-only blocks build neither the map nor the programs.
        self.slot_count = int(self.strategy_counts.max()) if count else 0
        self.report_row: Optional[np.ndarray] = None
        self.strategy_programs: List[tuple] = []
        if self.slot_count:
            slots = np.cumsum(self.strategy_mask, axis=1) - 1
            self.report_row = (
                (np.arange(count, dtype=np.int64)[:, None] * self.slot_count + slots) * n
            ).reshape(-1)
            for members in programs.values():
                # Members sharing an execution and a seed report identically
                # (the value_tensor row contract), so each (execution, seed)
                # pair is evaluated once; source[i] is member i's pair, a
                # slice exactly when every member has its own.  An
                # execution whose members carry different seeds appears
                # once per seed among the evaluated pairs.  In
                # (execution, pid) order the slots ascend, so a program
                # holding every slot of its executions writes one slice.
                members.sort()
                evaluated: Dict[Tuple[int, int], int] = {}
                source = []
                for e, pid in members:
                    seed = self.fault_models[e].strategies[pid].tensor_seed()
                    source.append(evaluated.setdefault((e, seed), len(evaluated)))
                first_e, first_pid = members[0]
                self.strategy_programs.append(
                    (
                        self.fault_models[first_e].strategies[first_pid],
                        _rows([e for e, _ in evaluated]),
                        np.asarray([seed for _, seed in evaluated], dtype=np.uint64),
                        _rows([e * self.slot_count + slots[e, pid] for e, pid in members]),
                        _rows(source),
                    )
                )

        # --- quorum-selection partition --------------------------------
        # "seeded": the policy is a SeededOmission — keys computed natively
        # in numpy, slab by slab.  Every other policy belongs to the group of
        # its tensor program (rank_tensor) — ranked once per round for a
        # shared group, slab by slab with the PRF seed vector otherwise.
        if n > SENDER_MASK:
            raise ValueError(
                f"quorum rank keys embed the sender id in 16 bits; "
                f"n={n} processes exceed that"
            )
        seeded_idx: List[int] = []
        policy_groups: Dict[tuple, List[int]] = {}
        for e, policy in enumerate(self.policies):
            if type(policy) is SeededOmission:
                seeded_idx.append(e)
                continue
            policy_groups.setdefault(policy.tensor_key(), []).append(e)
        # A group is "shared" when every member carries the same seed and
        # the same crash and strategy layout: by the tensor_key contract
        # the members then rank identically, over one candidate matrix per
        # round, so one member's ranking serves the whole group.
        self.policy_tensor_groups: List[Tuple[object, object, np.ndarray, bool]] = []
        for members in policy_groups.values():
            seeds = np.asarray(
                [self.policies[e].tensor_seed() for e in members], dtype=np.uint64
            )
            shared = bool((seeds == seeds[0]).all()) and all(
                bool((layout[members] == layout[members[0]]).all())
                for layout in (
                    self.crash_round,
                    self.crash_deliveries,
                    self.strategy_mask,
                    self.silent_mask,
                )
            )
            self.policy_tensor_groups.append(
                (self.policies[members[0]], _rows(members), seeds, shared)
            )
        self.seeded_rows = _rows(seeded_idx) if seeded_idx else None
        self.seed_mix = np.array(
            [mix64(self.policies[e].seed) for e in seeded_idx], dtype=np.uint64
        )

        # An asynchronous round's sample tensor, reused every round.
        if not self.synchronous:
            shape = (count, n, bounds.sample_size, self.dimension)
            self.samples = np.empty(shape, dtype=self.dtype)


def _shared_rounds(
    bounds: AlgorithmBounds,
    inputs: np.ndarray,
    epsilon: float,
    round_policy: Optional[RoundPolicy],
) -> int:
    """The round count every execution of a block runs, checked up front.

    The shared-round-count contract is a whole-block property, so it is
    checked once, before the planner chunks the block: a heterogeneous block
    raises identically whatever the chunk size.  With no ``round_policy``
    each execution's count covers its ℓ∞ input spread
    (:func:`repro.core.termination.default_vector_round_policy`; at ``d = 1``
    the scalar spread).
    """
    if round_policy is not None:
        rounds = _upfront_rounds(round_policy, bounds, epsilon)
        if rounds is None:
            raise EngineCapabilityError(
                "ndbatch",
                f"adaptive round policies ({round_policy.describe()}: the "
                f"engine requires a round count known upfront)",
                ("batch", "event"),
            )
        return rounds
    # The policy reads the inputs only through their ℓ∞ spread, so it runs
    # once per distinct spread, on two points that far apart (max − min is
    # exact, so numpy's spread is the policy's own, bit for bit).
    spreads = (inputs.max(axis=1) - inputs.min(axis=1)).max(axis=1)
    counts = {
        _upfront_rounds(
            default_vector_round_policy(bounds, ((0.0,), (spread,)), epsilon),
            bounds,
            epsilon,
        )
        for spread in np.unique(spreads).tolist()
    }
    if len(counts) > 1:
        raise ValueError(
            f"executions in one ndbatch block must share the round count, got "
            f"{sorted(counts)}; group cells by round count first "
            f"(repro.sim.sweep does this automatically)"
        )
    return counts.pop()


def _run_block(
    protocol: str,
    inputs: np.ndarray,
    t: int,
    epsilon: float,
    round_policy: Optional[RoundPolicy],
    fault_models: Optional[Sequence[Optional[RoundFaultModel]]],
    omission_policies: Optional[Sequence[Optional[OmissionPolicy]]],
    seeds: Optional[Sequence[int]],
    strict: bool,
    dtype: Optional[str],
    budget_bytes: Optional[int],
    chunk_executions: Optional[int],
    vector: bool,
) -> list:
    """The one block runner behind :func:`run_ndbatch_block` and
    :func:`run_vector_block`.

    ``inputs`` is the block's ``(executions, n, d)`` float64 tensor;
    ``vector`` selects the result objects :func:`_assemble_results` builds.
    """
    if protocol not in NDBATCH_PROTOCOL_BOUNDS:
        raise EngineCapabilityError(
            "ndbatch",
            f"protocol {protocol!r}",
            capable_engines({f"protocol:{protocol}"}),
        )
    count = len(inputs)
    if count == 0:
        return []
    if fault_models is None:
        fault_models = [None] * count
    if omission_policies is None:
        omission_policies = [None] * count
    if seeds is None:
        seeds = [0] * count
    if not (len(fault_models) == len(omission_policies) == len(seeds) == count):
        raise ValueError("the input block, fault_models, omission_policies and "
                         "seeds must have equal lengths")
    models = [model if model is not None else RoundFaultModel() for model in fault_models]
    policies = [
        policy if policy is not None else SeededOmission(int(seed))
        for policy, seed in zip(omission_policies, seeds)
    ]
    dtype = resolve_dtype(dtype)
    _, n, dimension = inputs.shape
    bounds = NDBATCH_PROTOCOL_BOUNDS[protocol](n, t)
    if strict and not bounds.resilience_ok:
        raise ResilienceError(f"{bounds.name} does not tolerate t={t} faults with n={n}")
    # Refuse a component without a tensor program before any chunk runs,
    # naming the engines capable of its round-level features, as engine.run does.
    for model, policy in zip(models, policies):
        refusals = [
            f"Byzantine value strategies that are stateful or without a tensor "
            f"program ({strategy.describe()}: strategies must be stateless — "
            f"pure functions of round/recipient/observed — and declare "
            f"tensor_key/value_tensor)"
            for strategy in model.strategies.values()
            if not getattr(strategy, "stateless", False) or strategy.tensor_key() is None
        ]
        if type(policy) is not SeededOmission and policy.tensor_key() is None:
            refusals.append(
                f"omission policies without a tensor program "
                f"({policy.describe()} declares no tensor_key/rank_tensor)"
            )
        if refusals:
            features = scenario_features(
                protocol, n, t, fault_model=model, omission_policy=policy
            )
            raise EngineCapabilityError("ndbatch", refusals[0], capable_engines(features))
    total_rounds = _shared_rounds(bounds, inputs, epsilon, round_policy)

    started = time.perf_counter()
    if chunk_executions is not None:
        if chunk_executions < 1:
            raise ValueError("chunk_executions must be at least 1")
        chunk = min(count, int(chunk_executions))
    else:
        plan = plan_block(
            count,
            n,
            bounds.sample_size,
            max(1, total_rounds),
            dtype=dtype,
            budget_bytes=budget_bytes,
            dimension=dimension,
        )
        chunk = plan.chunk_executions
    results = []
    for start in range(0, count, chunk):
        stop = min(count, start + chunk)
        block = _Block(
            protocol,
            inputs[start:stop],
            t,
            epsilon,
            bounds,
            total_rounds,
            models[start:stop],
            policies[start:stop],
            dtype,
        )
        results.extend(_assemble_results(block, vector, *_advance_block(block)))
    wall = time.perf_counter() - started
    # Wall time is observational; charge each execution its share of the block.
    share = wall / count
    for result in results:
        result.wall_time_seconds = share
    return results


def run_ndbatch_block(
    protocol: str,
    inputs_block: Sequence[Sequence[float]],
    t: int,
    epsilon: float,
    round_policy: Optional[RoundPolicy] = None,
    fault_models: Optional[Sequence[Optional[RoundFaultModel]]] = None,
    omission_policies: Optional[Sequence[Optional[OmissionPolicy]]] = None,
    seeds: Optional[Sequence[int]] = None,
    strict: bool = True,
    dtype: Optional[str] = None,
    budget_bytes: Optional[int] = None,
    chunk_executions: Optional[int] = None,
) -> List[ExecutionResult]:
    """Run a block of executions on the vectorised engine.

    All executions share ``(protocol, n, t, epsilon)`` and the round count
    their policies compute (heterogeneous round counts raise — group first;
    :func:`repro.sim.sweep.run_sweep` does).  Per-execution scenario data —
    inputs, fault models, omission policies — are supplied as parallel
    sequences; policies must be distinct objects per execution (they carry
    per-execution seeds/state).  The block runs as the ``d = 1`` case of the
    ``(executions, n, d)`` kernel.

    ``fault_models[e]`` defaults to no faults, ``omission_policies[e]`` to
    ``SeededOmission(seeds[e])`` (``seeds`` defaulting to all zeros), exactly
    mirroring :func:`repro.sim.batch.run_batch_protocol`, so the two engines
    realise identical scenarios for identical arguments.

    ``dtype`` selects the block's float precision: ``"float64"`` (default)
    or ``"float32"``, which halves the value-array memory; unset, it comes
    from ``REPRO_ARRAY_DTYPE`` (:func:`repro.sim.planner.resolve_dtype`).
    Results are float64 Python values either way.  The block streams
    through fixed-size execution chunks sized by the memory planner
    (:func:`repro.sim.planner.plan_block`) against ``budget_bytes`` (default
    a share of available RAM), so arbitrarily large blocks run in bounded
    memory; ``chunk_executions`` overrides the planned chunk size.  Chunking
    is performance policy only — each execution's scenario is self-contained,
    so outcomes are invariant to the chunk size (guarded by
    ``tests/sim/test_planner.py``).
    """
    return _run_block(
        protocol,
        np.asarray(inputs_block, dtype=np.float64)[..., None],
        t,
        epsilon,
        round_policy,
        fault_models,
        omission_policies,
        seeds,
        strict,
        dtype,
        budget_bytes,
        chunk_executions,
        vector=False,
    )


def run_vector_block(
    protocol: str,
    vector_inputs_block: Sequence[Sequence[Sequence[float]]],
    t: int,
    epsilon: float,
    round_policy: Optional[RoundPolicy] = None,
    fault_models: Optional[Sequence[Optional[RoundFaultModel]]] = None,
    omission_policies: Optional[Sequence[Optional[OmissionPolicy]]] = None,
    seeds: Optional[Sequence[int]] = None,
    strict: bool = True,
    dtype: Optional[str] = None,
    budget_bytes: Optional[int] = None,
    chunk_executions: Optional[int] = None,
) -> List[VectorExecutionResult]:
    """Run a block of vector-agreement executions on the vectorised engine.

    ``vector_inputs_block[e]`` is one execution's inputs: ``n`` vectors of a
    shared dimension ``d`` (ragged inputs fail loudly in
    :func:`repro.core.multidim.normalize_vector_inputs`).  All executions
    share ``(protocol, n, t, epsilon, d)`` and the round count; scenario
    arguments mirror :func:`run_ndbatch_block` exactly.

    Every ``d``, ``d = 1`` included, runs the same kernel as
    :func:`run_ndbatch_block`: one quorum selection per round shared by all
    coordinates (see "The round loop" below).  With no ``round_policy`` the
    shared count covers the ℓ∞ input spread
    (:func:`repro.core.termination.default_vector_round_policy`) — pass the
    same policy to :func:`repro.sim.vector.run_vector_protocol` when
    comparing engines.  Memory planning multiplies the value-array terms by
    ``d`` (:func:`repro.sim.planner.bytes_per_execution`).

    Non-finite Byzantine reports run only at ``d = 1``.  At ``d > 1`` they
    raise :class:`~repro.sim.engine.EngineCapabilityError` pointing at the
    coordinate-wise composition, which handles them.  Components without a
    tensor program are refused at every ``d``, as in
    :func:`run_ndbatch_block`.
    """
    normalized = [normalize_vector_inputs(inputs) for inputs in vector_inputs_block]
    for vectors in normalized[1:]:
        if len(vectors) != len(normalized[0]):
            raise ValueError("all executions in a block must share n")
        if len(vectors[0]) != len(normalized[0][0]):
            raise ValueError("all executions in a vector block must share the dimension d")
    return _run_block(
        protocol,
        np.asarray(normalized, dtype=np.float64),
        t,
        epsilon,
        round_policy,
        fault_models,
        omission_policies,
        seeds,
        strict,
        dtype,
        budget_bytes,
        chunk_executions,
        vector=True,
    )


def run_ndbatch_protocol(
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
    dtype: Optional[str] = None,
) -> ExecutionResult:
    """Run one execution on the vectorised engine (a block of size one).

    Parameters mirror :func:`repro.sim.batch.run_batch_protocol` exactly
    (plus the float ``dtype`` of :func:`run_ndbatch_block`), so callers can
    switch engines by switching the function.
    """
    if fault_plan is not None and fault_model is not None:
        raise ValueError("pass either fault_plan or fault_model, not both")
    if omission_policy is not None and delay_model is not None:
        raise ValueError("pass either omission_policy or delay_model, not both")
    if fault_model is None:
        fault_model = round_fault_model(fault_plan, len(inputs))
    if omission_policy is None and delay_model is not None:
        omission_policy = DelayRankOmission(delay_model)
    return run_ndbatch_block(
        protocol,
        [list(inputs)],
        t,
        epsilon,
        round_policy=round_policy,
        fault_models=[fault_model],
        omission_policies=[omission_policy],
        seeds=[seed],
        strict=strict,
        dtype=dtype,
    )[0]


# ----------------------------------------------------------------------
# The round loop
# ----------------------------------------------------------------------
#
# Coordinate-wise vector agreement runs d independent scalar executions over
# the SAME fault plan, delay model and seeds.  Every structural decision of
# such an execution — who crashes when, which quorums each recipient picks,
# which processes are Byzantine — is value-independent (crash schedules are
# data; quorum selection ranks PRF keys or delay ranks, never values), so all
# d coordinates share one round structure and the loop below carries the
# trailing d axis only on the value state, the samples and the injected
# reports:
#
# * quorum selection runs once per round for every coordinate — this, not
#   the kernel, is where the d× win over composition comes from;
# * Byzantine strategies are evaluated once per coordinate on that
#   coordinate's observed values (same PRF seeds as the scalar engine; the
#   coordinates are rows of the program's one value_tensor call), so a
#   Byzantine sender still "may differ per coordinate" exactly as the
#   composition allows: value-independent strategies (fixed, equivocate,
#   random) report identically in every coordinate, observed-dependent ones
#   (anti-convergence) differ because the observations differ;
# * the approximation kernel reduces along the multiset axis of an
#   (executions, n, m, d) gather (``axis=-2``), which is bit-identical to
#   running it per coordinate.
#
# One path exists only at d = 1, where the loop is the scalar engine: a
# non-finite Byzantine report refills its quorum slot from a late sender
# (per coordinate, quorums would diverge).  At d > 1 it raises
# EngineCapabilityError pointing at the coordinate-wise composition, which
# handles it.


def _advance_block(block: _Block) -> tuple:
    """Run the block's rounds; returns the value history and the counters.

    Costs are counted once per execution, shared by all coordinates
    (:func:`_assemble_results` multiplies them by ``d``).
    """
    count, n, m = block.count, block.n, block.bounds.sample_size
    total_rounds = block.total_rounds
    arange_n = np.arange(n)

    active = np.ones(count, dtype=bool)
    rounds_completed = np.zeros(count, dtype=np.int64)
    messages_sent = np.zeros(count, dtype=np.int64)
    bits_sent = np.zeros(count, dtype=np.int64)
    delivered = np.zeros(count, dtype=np.int64)
    rounds_entered = np.zeros(count, dtype=np.int64)
    holder_sends = np.zeros((count, n), dtype=np.int64)
    history = [np.copy(block.values)]
    any_strategies = any(block.strategy_ids)
    clean_values = not any_strategies and not bool(block.silent_mask.any())

    # The crash model's send/update/candidate structure changes only while a
    # crash point lies ahead; past the last scheduled crash it is identical
    # every round, so it is computed once and reused.
    scheduled = np.where(block.crash_round < _NEVER, block.crash_round, 0)
    last_crash_round = int(scheduled.max()) if count else 0
    static_structure = None

    for round_number in range(1, total_rounds + 1):
        if not active.any():
            break
        value_bits = message_bits(Message(kind="VALUE", round=round_number, value=0.0))

        if static_structure is not None:
            sends, updates, cand, cand_count, round_sends = static_structure
        else:
            # Who sends, who updates (the crash model's prefix semantics).
            before_crash = round_number < block.crash_round
            sends = np.where(
                block.holder_mask & before_crash,
                n,
                np.where(
                    block.holder_mask & (round_number == block.crash_round),
                    block.crash_deliveries,
                    0,
                ),
            )
            updates = block.holder_mask & before_crash
            # Candidate tensor: cand[e, recipient, sender].
            cand = block.strategy_mask[:, None, :] | (
                block.holder_mask[:, None, :]
                & (arange_n[None, :, None] < sends[:, None, :])
            )
            cand &= ~block.silent_mask[:, None, :]
            cand_count = cand.sum(axis=2)
            round_sends = sends.sum(axis=1) + n * block.strategy_counts
            if round_number > last_crash_round:
                static_structure = (sends, updates, cand, cand_count, round_sends)

        # Message accounting happens at round entry, exactly like the batch
        # engine (a round that fails liveness mid-way keeps its sends).
        messages_sent += np.where(active, round_sends, 0)
        bits_sent += np.where(active, round_sends * value_bits, 0)
        holder_sends += sends * active[:, None]
        rounds_entered += active

        # Full-information adversary: strategies observe every holder value
        # at round entry.
        reports = None
        if any_strategies:
            reports = _injected_values(block, round_number)

        if block.synchronous:
            sample = _sync_samples(block, cand, reports)
            failed_round = np.zeros(count, dtype=bool)
            round_delivered = np.where(active, updates.sum(axis=1) * n, 0)
        else:
            sample, failed_round, round_delivered = _async_samples(
                block, cand, cand_count, reports, updates, active, round_number, m
            )
        delivered += round_delivered

        apply_mask = updates & active[:, None] & ~failed_round[:, None]
        # Crash-only blocks gather exclusively finite holder values, so the
        # placeholder fill and the kernel's finiteness scan are redundant.
        # Otherwise rows that do not update may hold placeholders or
        # non-finite reports; they are zeroed in place so the scan passes.
        validate = not clean_values or bool(failed_round.any())
        if validate:
            sample[~apply_mask] = 0
        new_values = _reduce_samples(sample, block.bounds, block.dtype, validate)
        block.values = np.where(apply_mask[:, :, None], new_values, block.values)
        history.append(np.copy(block.values))

        completed_now = active & ~failed_round
        rounds_completed = np.where(completed_now, round_number, rounds_completed)
        active = completed_now

    return (
        history,
        active,
        rounds_completed,
        messages_sent,
        bits_sent,
        delivered,
        rounds_entered,
        holder_sends,
    )


def _injected_values(block: _Block, round_number: int) -> np.ndarray:
    """Eagerly evaluated strategy reports: ``reports[e, slot, recipient, c]``.

    One slot per strategy sender (``block.report_row`` locates it); slots
    past an execution's strategy count stay NaN and are never read.  Each
    tensor program is answered by ONE ``value_tensor`` call per round on a
    representative instance: row ``r·d + c`` observes coordinate ``c`` of
    evaluated pair ``r``'s holder values (NaN at non-holder slots) under
    pair ``r``'s seed.  By the row contract that equals one call per row —
    what the coordinate-wise composition evaluates with its one strategy
    instance.  Non-finite reports are kept; the sampling paths treat them
    as omissions (mirroring the message boundary of the protocol
    skeletons).  Only stateless strategies reach this point, so eager
    evaluation for every recipient is indistinguishable from the batch
    engine's lazy evaluation.
    """
    count, n, d = block.count, block.n, block.dimension
    reports = np.full((count, block.slot_count, n, d), np.nan, dtype=block.dtype)
    by_slot = reports.reshape(count * block.slot_count, n, d)
    if block.strategy_programs:
        # observed[e, c] is coordinate c of execution e's holder values, NaN
        # at non-holder slots.  A program's rows are a view of it or a copy,
        # by how its evaluated executions lie; either way they are handed
        # over read-only, so a strategy that writes to them fails on every
        # block alike.
        observed = np.full((count, d, n), np.nan, dtype=block.dtype)
        np.copyto(
            observed, block.values.transpose(0, 2, 1), where=block.holder_mask[:, None, :]
        )
    for representative, executions, seeds, slots, source in block.strategy_programs:
        pairs = len(seeds)
        rows = observed[executions].reshape(pairs * d, n)
        rows.flags.writeable = False
        answer = representative.value_tensor(round_number, n, rows, np.repeat(seeds, d))
        if answer is None:
            raise ValueError(
                f"strategy {representative.describe()} declares tensor program "
                f"{representative.tensor_key()!r} but value_tensor returned None"
            )
        answer = np.asarray(answer, dtype=np.float64).reshape(pairs, d, n)
        by_slot[slots] = answer.transpose(0, 2, 1)[source]
    return reports


def _reduce_samples(sample, bounds: AlgorithmBounds, dtype: str, validate: bool):
    """One round's ``mean ∘ select_k ∘ reduce^j`` over ``sample[e, i, :, c]``,
    by the kernel, whole executions and at most :data:`QUORUM_SLAB_KEYS`
    values (or one execution) per call: the kernel sorts a copy, and a
    sample-sized copy freed every round let heap placement, not live data,
    set the peak memory.  Executions reduce alone, so slabs change no value.
    """
    count, n, m, d = sample.shape
    step = max(1, QUORUM_SLAB_KEYS // (n * m * d))
    new_values = np.empty((count, n, d), dtype=dtype)
    for start in range(0, count, step):
        new_values[start : start + step] = approximation_step_block(
            sample[start : start + step], bounds, validate=validate, dtype=dtype, axis=-2
        )
    return new_values


def _sync_samples(
    block: _Block, cand: np.ndarray, reports: Optional[np.ndarray]
) -> np.ndarray:
    """Size-``n`` synchronous samples ``(E, n, n, d)`` with own-value substitution.

    Reports are read only where a candidate sender is a strategy sender.  A
    non-finite report degrades to an omission per coordinate (the recipient
    keeps its own value in that coordinate), matching the composition, where
    each coordinate's execution drops the report independently.
    """
    own = block.values[:, :, None, :]  # (E, recipient, 1, d)
    holder_values = block.values[:, None, :, :]  # (E, 1, sender, d)
    use_holder = (cand & block.holder_mask[:, None, :])[:, :, :, None]
    sample = np.where(use_holder, holder_values, own)
    if reports is not None:
        n = block.n
        # Flat (e*n + recipient)*n + sender positions of the Byzantine slots.
        byzantine = np.flatnonzero(cand & block.strategy_mask[:, None, :])
        if byzantine.size:
            rows, sender = np.divmod(byzantine, n)
            execution, recipient = np.divmod(rows, n)
            gathered = np.take(
                reports.reshape(-1, block.dimension),
                block.report_row[execution * n + sender] + recipient,
                axis=0,
            )
            kept = sample[execution, recipient, sender]
            sample[execution, recipient, sender] = np.where(
                np.isfinite(gathered), gathered, kept
            )
    return sample


def _async_samples(
    block: _Block,
    cand: np.ndarray,
    cand_count: np.ndarray,
    reports: Optional[np.ndarray],
    updates: np.ndarray,
    active: np.ndarray,
    round_number: int,
    m: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quorum samples ``(E, n, m, d)``, liveness failures, and delivery counts.

    Reproduces the batch engine's per-recipient behaviour: the omission
    policy picks ``m`` candidates — ONE :func:`_choose_quorums` call serves
    every coordinate — and a recipient that cannot fill its quorum fails the
    execution at that recipient (earlier recipients' deliveries stand).
    Starvation (fewer candidates than ``m``) is value-independent, hence the
    same in every coordinate.  The values come from one gather; reports are
    gathered only at the quorum slots whose sender is a strategy sender,
    and a non-finite report marks its row short.  A short row degrades the
    report to an omission and refills the quorum from the remaining
    candidates in ascending sender order; that refill is per coordinate, so
    only ``d = 1`` blocks run it.
    """
    count, n, d = block.count, block.n, block.dimension
    # One flat index serves every gather: sender s of execution e is row
    # e*n + s of the block's (E*n, ...) views, so each gather is one take.
    # The quorum tensor becomes that index in place.
    offsets = (np.arange(count, dtype=np.int64) * n)[:, None, None]
    flat = _choose_quorums(block, cand, cand_count, round_number, m)
    flat += offsets
    # (E, n, m, d) into the block's buffer.  Every index is in range, so
    # "clip" changes no value; unlike "raise" it writes without a copy.
    sample = np.take(
        block.values.reshape(count * n, d), flat, axis=0, out=block.samples, mode="clip"
    )
    nonfinite = None
    if reports is not None:
        nonfinite = np.zeros(count * n, dtype=bool)  # by (e*n + recipient)
        # Flat positions of the quorum slots that chose a strategy sender.
        byzantine = np.flatnonzero(np.take(block.strategy_mask.reshape(-1), flat))
        if byzantine.size:
            senders = flat.reshape(-1)[byzantine]
            gathered = np.take(
                reports.reshape(-1, d),
                block.report_row[senders] + byzantine // m % n,
                axis=0,
            )
            sample.reshape(-1, d)[byzantine] = gathered
            finite = np.isfinite(gathered)
            if not finite.all():
                nonfinite[byzantine[~finite.all(axis=1)] // m] = True
        if not np.isfinite(block.values)[block.holder_mask].all():
            # A non-finite holder value may sit in any quorum slot, so the
            # whole sample is scanned.
            nonfinite = ~np.isfinite(sample).all(axis=-1).all(axis=-1).reshape(-1)

    # Liveness / refill bookkeeping.  In-model scenarios never enter either
    # branch: the candidate set always has >= m members and only Byzantine
    # strategies can inject non-finite values (so crash-only blocks skip the
    # finiteness checks entirely).
    relevant = updates & active[:, None]
    starving = relevant & (cand_count < m)
    short = None
    if nonfinite is not None:
        short = relevant & nonfinite.reshape(count, n) & ~starving
        if d > 1 and bool(short.any()):
            raise EngineCapabilityError(
                "ndbatch",
                "non-finite Byzantine reports in vector blocks (a dropped "
                "report refills its quorum slot per coordinate, which the "
                "shared-quorum tensor path cannot represent; compose "
                "coordinate-wise via repro.sim.vector.run_vector_protocol)",
                ("event",),
            )
    failed_at = np.full(count, n, dtype=np.int64)
    if short is not None and bool(short.any()):
        failed_at = _refill_or_fail(
            block, cand, flat - offsets, sample, starving, short, round_number, m
        )
    elif bool(starving.any()):
        position = np.where(starving, np.arange(n)[None, :], n)
        failed_at = position.min(axis=1)
    failed_round = failed_at < n

    quorums_filled = np.where(
        failed_round[:, None],
        (np.arange(n)[None, :] < failed_at[:, None]) & relevant,
        relevant,
    ).sum(axis=1)
    round_delivered = quorums_filled * m
    return sample, failed_round, round_delivered


def _choose_quorums(
    block: _Block,
    cand: np.ndarray,
    cand_count: np.ndarray,
    round_number: int,
    m: int,
) -> np.ndarray:
    """Quorum index tensor ``chosen[e, recipient, :m]`` for one round, by
    the slab and shared-ranking rules of the module docstring."""
    count, n = block.count, block.n
    chosen = np.zeros((count, n, m), dtype=np.int64)

    if block.seeded_rows is not None:
        # Selection by value sort: the sender id lives in each key's low
        # bits, so sorting the keys and masking those bits out yields the
        # chosen senders directly — cheaper than argsort's indirection and
        # exactly the scalar engine's (PRF value, sender) order.  The PRF
        # fills two slab buffers in place; the sort runs in place too.
        seeded = len(block.seed_mix)
        buffers = np.empty((2, min(seeded, _slab_executions(n)), n, n), dtype=np.uint64)
        for rows, start, stop in _slabs(block.seeded_rows, seeded, n):
            size = stop - start
            keys = seeded_rank_key_block(
                block.seed_mix[start:stop],
                round_number,
                n,
                out=(buffers[0, :size], buffers[1, :size]),
            )
            fewest = int(cand_count[rows].min())
            if fewest < n:
                np.copyto(keys, _UINT64_MAX, where=~cand[rows])
            keys.sort(axis=2)
            in_place = isinstance(rows, slice)
            target = chosen[rows] if in_place else np.empty((size, n, m), dtype=np.int64)
            picked = target.view(np.uint64)
            np.bitwise_and(keys[:, :, :m], np.uint64(SENDER_MASK), out=picked)
            if fewest < m:
                # Starving rows (fewer candidates than m) picked up the
                # sentinel's low bits; clamp so the gather stays in bounds —
                # those rows fail the execution before their samples are used.
                np.minimum(picked, np.uint64(n - 1), out=picked)
            if not in_place:
                chosen[rows] = target

    for representative, rows, seeds, shared in block.policy_tensor_groups:
        if shared:
            first = rows.start if isinstance(rows, slice) else int(rows[0])
            one = slice(first, first + 1)
            ranks = _tensor_ranks(representative, round_number, n, seeds[:1])
            chosen[rows] = _rank_order(ranks, cand[one], cand_count[one])[:, :, :m]
            continue
        for slab, start, stop in _slabs(rows, len(seeds), n):
            ranks = _tensor_ranks(representative, round_number, n, seeds[start:stop])
            chosen[slab] = _rank_order(ranks, cand[slab], cand_count[slab])[:, :, :m]
    return chosen


def _tensor_ranks(representative: OmissionPolicy, round_number: int, n: int, seeds):
    """One tensor group's ``rank_tensor`` answer for ``seeds``."""
    ranks = representative.rank_tensor(round_number, n, seeds)
    if ranks is None:
        # Same contract as the strategy path: a non-None tensor_key is a
        # promise to answer (silently proceeding would turn the default
        # None into NaN ranks and pick wrong quorums).
        raise ValueError(
            f"omission policy {representative.describe()} declares tensor "
            f"program {representative.tensor_key()!r} but rank_tensor "
            f"returned None"
        )
    return np.asarray(ranks)


def _rank_order(ranks: np.ndarray, cand: np.ndarray, cand_count: np.ndarray) -> np.ndarray:
    """Senders of each ``(execution, recipient)`` row by ascending
    ``(rank, sender)``, non-candidates last.

    A stable argsort reproduces the scalar path's by-sender tie-breaking.
    Integer ranks are PRF rank keys (tie-free by construction), masked with
    the maximal key.  Other ranks compare as float64 and are masked with
    NaN, which numpy sorts after every number including +inf, so a
    legitimately infinite rank (e.g. an infinite delay) still outranks a
    non-candidate — matching the scalar path, which only ever sorts actual
    candidates.  Rows without non-candidates skip the mask.
    """
    if ranks.dtype.kind not in "iu":
        ranks = ranks.astype(np.float64, copy=False)
    if int(cand_count.min()) < cand.shape[-1]:
        sentinel = np.iinfo(ranks.dtype).max if ranks.dtype.kind in "iu" else np.nan
        ranks = np.where(cand, ranks, sentinel)
    return np.argsort(ranks, axis=2, kind="stable")


def _refill_or_fail(
    block: _Block,
    cand: np.ndarray,
    chosen: np.ndarray,
    sample: np.ndarray,
    starving: np.ndarray,
    short: np.ndarray,
    round_number: int,
    m: int,
) -> np.ndarray:
    """Handle quorum starvation and non-finite-report refills (rare, ``d = 1``).

    Mutates ``sample`` in place for refilled quorums and returns, per
    execution, the first recipient at which the quorum could not be filled
    (``n`` when every quorum filled).  Matches the batch engine: a dropped
    non-finite report refills from the not-chosen candidates in ascending
    sender order; starvation fails the execution at that recipient.
    """
    count, n = block.count, block.n
    # Views: refills write through to the caller's sample tensor.
    sample = sample[..., 0]
    values = block.values[..., 0]
    failed_at = np.full(count, n, dtype=np.int64)
    for e in range(count):
        for recipient in range(n):
            if starving[e, recipient]:
                failed_at[e] = recipient
                break
            if not short[e, recipient]:
                continue
            quorum = chosen[e, recipient]
            collected = [
                float(sample[e, recipient, i])
                for i in range(m)
                if np.isfinite(sample[e, recipient, i])
            ]
            chosen_set = set(int(s) for s in quorum)
            refill_ok = True
            for sender in np.nonzero(cand[e, recipient])[0]:
                if len(collected) >= m:
                    break
                sender = int(sender)
                if sender in chosen_set:
                    continue
                value = _late_sender_value(block, values, e, sender, recipient, round_number)
                if value is not None:
                    collected.append(value)
            if len(collected) < m:
                failed_at[e] = recipient
                refill_ok = False
            if not refill_ok:
                break
            sample[e, recipient, :] = collected
    return failed_at


def _late_sender_value(
    block: _Block, values: np.ndarray, e: int, sender: int, recipient: int, round_number: int
) -> Optional[float]:
    """Value a late (not-chosen) candidate contributes during a refill."""
    if block.strategy_mask[e, sender]:
        strategy = block.fault_models[e].strategies[sender]
        observed = np.sort(values[e][block.holder_mask[e]]).tolist()
        value = strategy.value(round_number, recipient, observed)
        if not isinstance(value, (int, float)) or not np.isfinite(value):
            return None
        return float(value)
    return float(values[e, sender])


# ----------------------------------------------------------------------
# Result assembly
# ----------------------------------------------------------------------


def _assemble_results(
    block: _Block,
    vector: bool,
    history: List[np.ndarray],
    active: np.ndarray,
    rounds_completed: np.ndarray,
    messages_sent: np.ndarray,
    bits_sent: np.ndarray,
    delivered: np.ndarray,
    rounds_entered: np.ndarray,
    holder_sends: np.ndarray,
) -> list:
    """One result per execution: :class:`VectorExecutionResult` if ``vector``,
    else (``d = 1``) :class:`ExecutionResult` with per-process value
    histories.

    The array side is shared: the ℓ∞ honest-diameter trajectories, the
    whole-block validity/agreement fast path and the costs (shared counts
    times ``d`` — exactly the coordinate-wise composition's totals).
    """
    count, n, d = block.count, block.n, block.dimension
    # Results are float64 whatever the block dtype (float32 widens exactly).
    stacked = np.stack(history).astype(np.float64, copy=False)  # (rounds + 1, E, n, d)
    final_values = block.values.astype(np.float64, copy=False)

    # Per-round ℓ∞ honest diameter of every execution at once: the
    # per-coordinate diameter (faulty columns masked out of max/min),
    # maximised over coordinates.
    honest4 = block.honest_mask[None, :, :, None]
    traj_all = (
        (
            np.where(honest4, stacked, -np.inf).max(axis=2)
            - np.where(honest4, stacked, np.inf).min(axis=2)
        )
        .max(axis=-1)
        .T
    )  # (E, rounds + 1)

    # Whole-block fast path of the shared checkers (validate_outputs,
    # validate_vector_outputs) for the common all-correct case; executions
    # failing any check fall back to the checker so reports (violation
    # strings included) stay identical.
    eps_ok_bound = block.epsilon * (1.0 + 1e-9)
    output_spread = traj_all[np.arange(count), rounds_completed]
    agreement_ok = output_spread <= eps_ok_bound
    byz_mask = np.zeros((count, n), dtype=bool)
    for e, problem in enumerate(block.problems):
        for pid in problem.byzantine:
            byz_mask[e, pid] = True
    validity_ref = np.where(byz_mask[:, :, None], np.nan, block.inputs)
    lo = np.nanmin(validity_ref, axis=1)  # (E, d)
    hi = np.nanmax(validity_ref, axis=1)
    # Validity concerns the honest outputs only; park non-honest columns on
    # the box floor so one whole-block check covers every execution.
    values_checked = np.where(block.honest_mask[:, :, None], final_values, lo[:, None, :])
    validity_ok = check_box_validity_block(values_checked, lo, hi)
    fast_ok = active & agreement_ok & validity_ok

    # Bulk conversions to Python scalars up front: element-wise numpy reads
    # inside the per-execution loop would dominate large blocks.
    if vector:
        values_rows = final_values.tolist()
        inputs_rows = block.inputs.tolist()
    else:
        values_rows = final_values[:, :, 0].tolist()
        hist_t = np.ascontiguousarray(stacked[..., 0].transpose(1, 2, 0))  # (E, n, rounds + 1)
    traj_rows = traj_all.tolist()
    spread_list = output_spread.tolist()
    completed_list = rounds_completed.tolist()
    messages_list = messages_sent.tolist()
    bits_list = bits_sent.tolist()
    delivered_list = delivered.tolist()
    entered_list = rounds_entered.tolist()
    holder_sends_rows = holder_sends.tolist()

    results = []
    for e in range(count):
        problem = block.problems[e]
        decided = bool(active[e])
        completed = completed_list[e]
        honest = problem.honest
        values_row = values_rows[e]
        length = 1 + completed  # honest processes never crash, so never truncate

        stats = NetworkStats()
        stats.messages_sent = d * messages_list[e]
        stats.bits_sent = d * bits_list[e]
        stats.messages_delivered = d * delivered_list[e]
        if stats.messages_sent:
            stats.messages_by_kind["VALUE"] = stats.messages_sent
        sends_row = holder_sends_rows[e]
        strategy_ids = block.strategy_ids[e]
        for pid in range(n):
            sent = sends_row[pid]
            if pid in strategy_ids:
                sent = n * entered_list[e]
            if sent:
                stats.sends_by_process[pid] = d * sent

        if vector:
            vectors: Dict[int, Optional[Tuple[float, ...]]] = {
                pid: (tuple(values_row[pid]) if decided else None) for pid in honest
            }
            if fast_ok[e]:
                vector_report = VectorValidationReport(
                    all_decided=True,
                    linf_agreement=True,
                    box_validity=True,
                    max_linf_distance=spread_list[e],
                    outputs=dict(vectors),
                )
            else:
                byzantine = set(problem.byzantine)
                reference = [
                    tuple(inputs_rows[e][pid]) for pid in range(n) if pid not in byzantine
                ]
                vector_report = validate_vector_outputs(
                    vectors, reference, block.epsilon, expected_pids=honest
                )
            results.append(
                VectorExecutionResult(
                    protocol=block.protocol,
                    dimension=d,
                    report=vector_report,
                    outputs=vectors,
                    runtime="ndbatch",
                    stats=stats,
                    trajectory=tuple(traj_rows[e][:length]),
                    rounds=completed,
                )
            )
            continue

        outputs: Dict[int, Optional[float]] = {
            pid: (values_row[pid] if decided else None) for pid in honest
        }
        if fast_ok[e]:
            report = ValidationReport(
                all_decided=True,
                epsilon_agreement=True,
                validity=True,
                output_spread=spread_list[e],
                outputs=dict(outputs),
            )
        else:
            report = validate_outputs(problem, outputs)
        rows = hist_t[e].tolist()
        results.append(
            ExecutionResult(
                protocol=block.protocol,
                runtime="ndbatch",
                problem=problem,
                report=report,
                outputs=outputs,
                stats=stats,
                rounds_used=completed,
                trajectory=traj_rows[e][:length],
                value_histories={pid: rows[pid][:length] for pid in honest},
                events_executed=0,
                wall_time_seconds=0.0,
            )
        )
    return results
