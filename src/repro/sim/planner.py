"""Block memory planner: bytes-budgeted chunking and pad-vs-split fusion.

The vectorised engine (:mod:`repro.sim.ndbatch`) materialises per-round
tensors proportional to ``executions × n²`` — so before this module, block
size (not hardware) capped throughput: a 10⁶-execution cell block would
allocate hundreds of gigabytes at once.  The planner turns that into a
streaming problem:

* :func:`plan_block` takes a block's shape ``(count, n, m, rounds)``, its
  float dtype (:func:`resolve_dtype`) and a bytes budget (default: a
  conservative share of available host RAM, overridable via
  ``REPRO_BLOCK_BUDGET_BYTES``) and returns the largest
  execution-chunk size whose peak footprint fits — the engine then streams
  the block through fixed-size chunks instead of materialising
  ``(executions, n, m)`` whole.  Chunking cannot change outcomes (each
  execution's scenario is self-contained; guarded by
  ``tests/sim/test_planner.py``), so the plan is pure performance policy.
* :func:`decide_pad_or_split` answers the PR 4 fusion follow-up: given
  equal-program blocks of *different* ``(n, t)`` shapes, is it worth padding
  them into one dispatch group (fewer pool round trips) or must they stay
  split?  Padding is dispatch-level — the kernel never pads value matrices
  (``m = n − t`` differs per shape, so there is no shared strided slice);
  the decision is about co-scheduling whole chunks into one worker item.

The cost model is a closed form over the engine's actual allocations (the
candidate/quorum-index/sample/history tensors; rank keys are built in
fixed-size slabs, not per execution), deliberately slightly conservative:
running under budget costs a few percent of batching efficiency, running
over it costs the host.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

__all__ = [
    "ENV_BUDGET",
    "ENV_DTYPE",
    "FLOAT_DTYPES",
    "BlockPlan",
    "ShapeCost",
    "available_memory_bytes",
    "bytes_per_execution",
    "decide_pad_or_split",
    "default_budget_bytes",
    "plan_block",
    "resolve_dtype",
]

#: Environment override for the bytes budget (an integer byte count).
ENV_BUDGET = "REPRO_BLOCK_BUDGET_BYTES"
#: Environment variable selecting the block float dtype (kwarg overrides it).
ENV_DTYPE = "REPRO_ARRAY_DTYPE"

#: Float dtypes a block may run under.  float64 is the default; float32
#: halves the value-array footprint and tracks float64 within ~1e-6.
FLOAT_DTYPES = ("float64", "float32")

#: Fraction of available memory the default budget claims.  One sweep
#: process is rarely alone on a host (pool workers, the OS page cache), so
#: the planner never plans more than a quarter of what is free right now.
DEFAULT_MEMORY_FRACTION = 0.25

#: Floors/ceilings keeping degenerate probes sane: even a tiny budget plans
#: at least one execution per chunk, and a bogus /proc reading cannot plan
#: petabyte chunks.
_MIN_BUDGET_BYTES = 64 * 1024 * 1024
_FALLBACK_AVAILABLE_BYTES = 2 * 1024 * 1024 * 1024


def available_memory_bytes() -> int:
    """Available host memory in bytes (conservative, dependency-free).

    Prefers ``MemAvailable`` from ``/proc/meminfo`` (what the kernel would
    actually hand out without swapping); falls back to total RAM via
    ``os.sysconf`` on hosts without procfs, and to a 2 GiB guess when
    neither exists.
    """
    try:
        with open("/proc/meminfo", "rb") as handle:
            for line in handle:
                if line.startswith(b"MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    try:
        page = os.sysconf("SC_PAGE_SIZE")
        pages = os.sysconf("SC_PHYS_PAGES")
        if page > 0 and pages > 0:
            return page * pages
    except (ValueError, OSError, AttributeError):
        pass
    return _FALLBACK_AVAILABLE_BYTES


def default_budget_bytes() -> int:
    """The planner's default bytes budget for one block.

    ``REPRO_BLOCK_BUDGET_BYTES`` overrides; otherwise a
    :data:`DEFAULT_MEMORY_FRACTION` share of currently available memory,
    floored at :data:`_MIN_BUDGET_BYTES` so tiny/misreported hosts still
    make progress.
    """
    env = os.environ.get(ENV_BUDGET)
    if env:
        try:
            budget = int(env)
        except ValueError:
            raise ValueError(
                f"{ENV_BUDGET} must be an integer byte count, got {env!r}"
            ) from None
        if budget < 1:
            raise ValueError(f"{ENV_BUDGET} must be positive, got {budget}")
        return budget
    fraction = int(available_memory_bytes() * DEFAULT_MEMORY_FRACTION)
    return max(_MIN_BUDGET_BYTES, fraction)


def resolve_dtype(dtype: Optional[str] = None) -> str:
    """The block float dtype name: ``dtype``, else ``REPRO_ARRAY_DTYPE``, else
    ``"float64"``.

    Case and surrounding whitespace are ignored.  A name outside
    :data:`FLOAT_DTYPES` raises :class:`ValueError` naming both ways to
    select one.  Needs no numpy, so a sweep can reject a bad dtype before it
    decides which engines run.
    """
    chosen = dtype if dtype is not None else os.environ.get(ENV_DTYPE)
    if chosen is None or not str(chosen).strip():
        return "float64"
    name = str(chosen).strip().lower()
    if name not in FLOAT_DTYPES:
        raise ValueError(
            f"unknown array dtype {name!r}; supported dtypes: "
            f"{', '.join(FLOAT_DTYPES)} (selected via the dtype kwarg or "
            f"{ENV_DTYPE})"
        )
    return name


def _itemsize(dtype: str) -> int:
    if dtype == "float32":
        return 4
    return 8


def bytes_per_execution(
    n: int, m: int, rounds: int, dtype: str = "float64", dimension: int = 1
) -> int:
    """Peak per-execution footprint of one ndbatch round, in bytes.

    A closed form over the engine's actual allocations, per execution row:

    * candidate mask ``(n, n)`` bool plus the ``(n, m)`` int64 quorum
      tensor, which becomes the flat gather index in place, and the index
      of the report gather — quorum selection and gather.  The report index
      covers only the quorum slots whose sender is a strategy sender; it is
      charged as a full ``(n, m)`` int64 index, an upper bound.  Every
      quorum path (seeded, shared tensor, per-seed tensor) allocates these
      and no more per execution: rank keys and ranks are built slab by slab,
      at most ``repro.sim.ndbatch.QUORUM_SLAB_KEYS`` keys (1 MiB each
      for the keys, their scratch, the ranks and the argsort) whatever the
      block size, and a shared tensor group ranks one ``(n, n)`` matrix.
      That per-block constant is left to the budget floor and the ×2
      headroom;
    * report tensor: a block with strategies keeps ``(S, n)`` floats per
      execution, one row per strategy slot, where ``S ≤ t < n`` is the
      block's largest strategy count.  It is charged as ``(n, n)`` floats
      unconditionally — an upper bound, so plans and dispatch groups do not
      depend on the adversary;
    * gathered sample ``(n, m)`` float, the gathered reports, and the
      kernel's sorted copy;
    * value history ``(rounds + 1, n)`` float plus ~8 per-``(count, n)``
      int64/bool bookkeeping vectors.

    ``dimension`` scales every *value-carrying* term by ``d`` — vector
    blocks (:func:`repro.sim.ndbatch.run_vector_block`) gather
    ``(executions, n, m, d)`` samples and keep ``(S, n, d)`` reports —
    while quorum selection and the integer bookkeeping stay ``d``-free
    (quorums are chosen once and shared across coordinates).

    Intermediate temporaries (``np.where`` products) are covered by the
    ×2 headroom the chunk computation applies in :func:`plan_block`.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if dimension < 1:
        raise ValueError("dimension must be positive")
    m = max(1, m)
    rounds = max(0, rounds)
    item = _itemsize(dtype) * dimension
    per_round = (
        n * n  # cand bool
        + 2 * n * m * 8  # flat gather index + injected-report index (int64)
        + n * n * item  # reports: S <= t < n slots, charged as n
        + 3 * n * m * item  # sample + gathered reports + the kernel's sorted copy
    )
    bookkeeping = 8 * n * 8 + (rounds + 1) * n * item
    return per_round + bookkeeping


@dataclass(frozen=True)
class BlockPlan:
    """How one block should stream through the engine."""

    #: Executions per chunk (``count`` when the whole block fits).
    chunk_executions: int
    #: Number of chunks the block splits into.
    chunk_count: int
    #: Modelled peak bytes of one execution row (see :func:`bytes_per_execution`).
    execution_bytes: int
    #: The budget the plan was made against.
    budget_bytes: int

    @property
    def chunked(self) -> bool:
        return self.chunk_count > 1


def plan_block(
    count: int,
    n: int,
    m: int,
    rounds: int,
    dtype: str = "float64",
    budget_bytes: Optional[int] = None,
    max_chunk: Optional[int] = None,
    dimension: int = 1,
) -> BlockPlan:
    """Plan the execution-chunk size of one ``(count, n, m, rounds)`` block.

    The chunk is the largest execution count whose modelled peak footprint
    (with ×2 headroom for op temporaries) fits ``budget_bytes`` (default
    :func:`default_budget_bytes`), clamped to ``[1, count]`` and optionally
    to ``max_chunk`` (the sweep's load-balancing block cap).  Chunk size is
    performance policy only: outcomes are invariant to it.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    budget = budget_bytes if budget_bytes is not None else default_budget_bytes()
    if budget < 1:
        raise ValueError(f"budget_bytes must be positive, got {budget}")
    per_execution = bytes_per_execution(n, m, rounds, dtype, dimension=dimension)
    fit = max(1, budget // (2 * per_execution))
    chunk = min(count, fit) if count else 0
    if max_chunk is not None:
        if max_chunk < 1:
            raise ValueError("max_chunk must be at least 1")
        chunk = min(chunk, max_chunk) if chunk else 0
    chunk_count = -(-count // chunk) if count else 0
    return BlockPlan(
        chunk_executions=max(1, chunk) if count else 0,
        chunk_count=chunk_count,
        execution_bytes=per_execution,
        budget_bytes=budget,
    )


@dataclass(frozen=True)
class ShapeCost:
    """One equal-program chunk competing for a shared dispatch group."""

    count: int
    n: int
    m: int
    rounds: int


#: Fused dispatch may waste at most this fraction of its padded footprint.
#: Beyond it, the small shapes are paying more in padding than they save in
#: pool round trips — split instead.
PAD_WASTE_LIMIT = 0.5


def decide_pad_or_split(
    shapes: Sequence[ShapeCost],
    dtype: str = "float64",
    budget_bytes: Optional[int] = None,
    waste_limit: float = PAD_WASTE_LIMIT,
) -> str:
    """``"pad"`` or ``"split"`` for equal-program chunks of mixed shapes.

    Fusing models the dispatch group as padded to its largest member shape
    (one worker item, sequential kernel calls inside): worth it when the
    padded footprint both fits the budget and wastes at most ``waste_limit``
    of itself relative to the exact footprint.  Subsumes the PR 4 follow-up
    on fusing equal-program blocks across ``(n, t)`` shapes.
    """
    if not shapes:
        return "split"
    budget = budget_bytes if budget_bytes is not None else default_budget_bytes()
    n_max = max(shape.n for shape in shapes)
    m_max = max(shape.m for shape in shapes)
    rounds_max = max(shape.rounds for shape in shapes)
    total = sum(shape.count for shape in shapes)
    padded = total * bytes_per_execution(n_max, m_max, rounds_max, dtype)
    exact = sum(
        shape.count * bytes_per_execution(shape.n, shape.m, shape.rounds, dtype)
        for shape in shapes
    )
    if 2 * padded > budget:
        return "split"
    if padded > 0 and (padded - exact) / padded > waste_limit:
        return "split"
    return "pad"


def pack_dispatch_groups(
    shapes: Sequence[Tuple[object, ShapeCost]],
    dtype: str = "float64",
    budget_bytes: Optional[int] = None,
) -> Tuple[Tuple[int, ...], ...]:
    """Greedily pack equal-program chunks into fused dispatch groups.

    ``shapes`` is a sequence of ``(program_key, ShapeCost)`` pairs, one per
    chunk, in dispatch order.  Consecutive chunks sharing a program key are
    fused into one group while :func:`decide_pad_or_split` keeps answering
    ``"pad"`` for the growing group; everything else stays singleton.
    Returns the groups as tuples of chunk indices (order-preserving — a
    flattened result enumerates every input index exactly once).
    """
    groups: list = []
    current: list = []
    current_key: object = None
    for index, (key, shape) in enumerate(shapes):
        if current and key == current_key:
            candidate = [shapes[i][1] for i in current] + [shape]
            same_shape = all(
                (s.n, s.m, s.rounds) == (shape.n, shape.m, shape.rounds)
                for s in candidate
            )
            if not same_shape and decide_pad_or_split(
                candidate, dtype, budget_bytes
            ) == "pad":
                current.append(index)
                continue
            if same_shape:
                # Equal shapes never pad; fusing them is pure pool-round-trip
                # savings, but the sweep's interleaving already load-balances
                # them — keep them singleton so balancing is preserved.
                groups.append(tuple(current))
                current = [index]
                current_key = key
                continue
        if current:
            groups.append(tuple(current))
        current = [index]
        current_key = key
    if current:
        groups.append(tuple(current))
    return tuple(groups)
