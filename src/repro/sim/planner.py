"""Block memory planner and the sweep's dispatch-unit rule.

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
* :func:`pack_dispatch_groups` cuts a sweep's work — single cells, or its
  ndbatch block chunks — into the units one pool round trip carries.  It
  sizes units by cell count alone: a unit's chunks run one after another,
  so the unit's peak memory is its largest chunk's.

The cost model is a closed form over the engine's actual allocations (the
candidate/quorum-index/sample/history tensors; rank keys are built in
fixed-size slabs, not per execution), deliberately slightly conservative:
running under budget costs a few percent of batching efficiency, running
over it costs the host.
"""

from __future__ import annotations

import bisect
import itertools
import os
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

__all__ = [
    "ENV_BUDGET",
    "ENV_DTYPE",
    "FLOAT_DTYPES",
    "DEFAULT_UNIT_CELLS",
    "MAX_UNIT_CELLS",
    "BlockPlan",
    "available_memory_bytes",
    "bytes_per_execution",
    "default_budget_bytes",
    "pack_dispatch_groups",
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
      unconditionally — an upper bound, so plans do not depend on the
      adversary;
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
    dimension: int = 1,
) -> BlockPlan:
    """Plan the execution-chunk size of one ``(count, n, m, rounds)`` block.

    The chunk is the largest execution count whose modelled peak footprint
    (with ×2 headroom for op temporaries) fits ``budget_bytes`` (default
    :func:`default_budget_bytes`), clamped to ``[1, count]``.  Chunk size is
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
    chunk_count = -(-count // chunk) if count else 0
    return BlockPlan(
        chunk_executions=max(1, chunk) if count else 0,
        chunk_count=chunk_count,
        execution_bytes=per_execution,
        budget_bytes=budget,
    )


#: Most cells in a dispatch unit on one worker, and in a unit of a sweep too
#: small for guided units; the fewest a guided unit takes.  The tail of every
#: large sweep goes out in units this small, so the workers finish together.
DEFAULT_UNIT_CELLS = 8

#: Most cells in one guided dispatch unit, unless its one item holds more.
#: Each unit costs the parent a pool round trip, and a poisoned cell's
#: unit-mates rework with it: at 64, witness-batch's 1,536 cells go to two
#: workers in 40 units, and a unit's timeout budget stays 64 cells' worth.
MAX_UNIT_CELLS = 64


def pack_dispatch_groups(
    weights: Sequence[int], worker_count: int
) -> Tuple[Tuple[int, ...], ...]:
    """Cut a sweep's work items into dispatch units, in order.

    ``weights`` holds each item's cell count: 1 for a cell that runs on its
    own, the chunk's size for an ndbatch block chunk, which is never split.
    Returns the units as tuples of consecutive item indices, so the
    flattened groups enumerate every index once, in order.

    Four shares per worker.  A sweep of fewer than ``DEFAULT_UNIT_CELLS``
    cells per share is cut into units of ``cells // shares`` cells (at
    least one item).  A larger sweep is guided: each unit takes
    ⌈remaining cells / shares⌉ cells, never fewer than ``DEFAULT_UNIT_CELLS``
    nor more than ``MAX_UNIT_CELLS`` — on one worker, where a larger unit
    saves no round trip and only delays the first stored outcome, never more
    than ``DEFAULT_UNIT_CELLS`` — so the sweep goes out in a few dozen units
    that shrink towards its end.  A unit takes items while they fit its
    size, and always its first: only a unit of one item holds more.

    The saving is parent CPU: a ``multiprocessing.Pool``'s worker-handler
    thread also waits on the result pipe and re-runs its maintenance loop
    until each result is read, so a round trip costs the parent about the
    same whatever the unit holds.  A unit runs its chunks one after another,
    so its peak memory is its largest chunk's, which :func:`plan_block`
    bounds.
    """
    ends = list(itertools.accumulate(weights))
    total = ends[-1] if ends else 0
    shares = 4 * max(1, worker_count)
    most = MAX_UNIT_CELLS if worker_count > 1 else DEFAULT_UNIT_CELLS
    guided = total >= DEFAULT_UNIT_CELLS * shares
    groups = []
    start = done = 0
    while start < len(ends):
        if guided:
            size = min(most, max(DEFAULT_UNIT_CELLS, -(-(total - done) // shares)))
        else:
            size = max(1, total // shares)
        stop = max(start + 1, bisect.bisect_right(ends, done + size, start))
        groups.append(tuple(range(start, stop)))
        done = ends[stop - 1]
        start = stop
    return tuple(groups)
