"""Fault-tolerant sweep execution: retry, timeout, crash recovery, quarantine.

The protocols this library simulates make progress while up to *t*
participants misbehave; before this module, the sweep runtime itself
tolerated zero faults.  One raising cell aborted the whole ``run_sweep``; a
pool worker OOM-killed mid-chunk hung ``pool.imap`` forever (the blocking
iterator never learns its producer died); and a deterministic "poisoned"
cell made ``SweepJob(resume=True)`` re-crash on the exact same cell on every
retry.  This module gives the execution fabric the same *t*-resilience:

* **Error isolation** — a cell or chunk that raises becomes a structured
  :class:`CellFailure` record (exception type, message, traceback digest,
  cell ID, cumulative attempt count, fault class) instead of an aborted
  sweep.  Failures stream to a ``quarantine.jsonl`` beside the outcome
  store; healthy cells are unaffected.
* **Retry with timeout and backoff** — work units get bounded retries with
  exponential backoff and *deterministic* jitter (a PRF over the cell ID and
  attempt, :meth:`RetryPolicy.backoff_seconds` — reproducible, and
  decorrelated across cells without any shared RNG).  Per-unit wall-clock
  timeouts are enforced by the parent through non-blocking result polling
  (``multiprocessing.connection.wait``), never by trusting the worker: a
  hung worker is SIGKILLed and its unit retried.
* **Failure isolation by splitting, and engine demotion** — a multi-cell
  unit that keeps failing is split into single-cell units so one poisoned
  cell never takes its chunk-mates down with it.  An ndbatch chunk that
  fails or times out ``demote_after`` times is split and retried per cell on
  the *batch* engine (a whole-block numpy fault is often a block-shape
  issue); demoted outcomes record ``engine_used`` plus
  :attr:`~repro.sim.sweep.CellOutcome.demoted_from`.
* **Worker-crash recovery** — each pool worker owns a private task/result
  pipe pair; a SIGKILL'd or OOM'd worker surfaces as EOF on its result pipe
  (plus an ``exitcode`` scan as a belt-and-braces liveness check), the
  parent reaps and respawns it, and only the dead worker's in-flight unit is
  re-dispatched.  A worker crash costs one unit of rework, never the sweep.

The fault-tolerant pool is deliberately *not* a standard-library process
pool: those (``multiprocessing`` and ``concurrent.futures`` alike) treat a
dead worker as a broken pool, which is exactly the failure mode this layer
exists to absorb.  Instead the parent
runs a small event loop over per-worker pipes — dispatch to idle workers,
wake on the first completion/EOF via ``connection.wait``, check deadlines —
so no call ever blocks on a worker that will never answer.

Entry point: :func:`iter_resilient_outcomes`, the one execution core —
every :func:`repro.sim.sweep.run_sweep`, :class:`repro.sim.job.SweepJob`
and attack-search evaluation calls it, over one unit decomposition
(ndbatch chunk groups from ``repro.sim.sweep._ndbatch_dispatch_groups``,
per-cell units for the rest).  Without a :class:`RetryPolicy` or a chaos
plan it fails fast: the first exception a unit raises propagates
unchanged, a dead worker raises :class:`RuntimeError`, and nothing is
retried or quarantined — so the units run on a plain
``multiprocessing.Pool``, whose ``imap`` already hands a worker's exception
back in unit order.  With a policy (or a chaos plan, :mod:`repro.sim.chaos`,
which implies the default policy) the fault-tolerant pool above runs them.
Everything stays deterministic where it
can be: outcomes are pure functions of their cells, so same-engine retries
and re-dispatches can never change a measurement, only wall-clock.
Demotion crosses engines, which agrees exactly on the integer costs
(rounds/messages/bits) and to the documented differential tolerance
(≤1e-9) on derived float metrics, and is recorded in the
``engine_used``/``demoted_from`` provenance fields.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import json
import multiprocessing
import time
import traceback
import warnings
from dataclasses import dataclass
from multiprocessing import connection as _mp_connection
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.sim.chaos import ChaosError, ChaosPlan, inject_execution_faults
from repro.sim.engine import demotion_target
# The unit rule's bounds, kept importable beside the pools that use them.
from repro.sim.planner import DEFAULT_UNIT_CELLS, MAX_UNIT_CELLS  # noqa: F401

__all__ = [
    "FAULT_CLASS_CRASH",
    "FAULT_CLASS_RAISE",
    "FAULT_CLASS_TIMEOUT",
    "CellFailure",
    "RetryPolicy",
    "default_quarantine_path",
    "iter_quarantine_jsonl",
    "iter_resilient_outcomes",
    "read_quarantine_map",
    "write_quarantine_line",
]

#: How a unit failed: an exception in the cell, a wall-clock timeout, or the
#: whole worker process dying under it.
FAULT_CLASS_RAISE = "raise"
FAULT_CLASS_TIMEOUT = "timeout"
FAULT_CLASS_CRASH = "worker-crash"

#: Parent event-loop poll granularity (deadline checks, liveness scan).
#: Completions wake the loop immediately via ``connection.wait``; this only
#: bounds how stale a deadline check can get.
_POLL_SECONDS = 0.2


# ----------------------------------------------------------------------
# Policy and failure records
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """How the resilient layer retries, times out and quarantines.

    The policy is part of a job's reproducibility contract: it is recorded
    in the job manifest (:mod:`repro.sim.job`) so a resume retries and
    quarantines exactly like the run it continues.
    """

    #: Executions of a single-cell unit (per engine stage) before it is
    #: demoted (if a slower engine exists) and finally quarantined.
    max_attempts: int = 3
    #: Wall-clock budget *per cell* of a work unit (a unit of ``k`` cells
    #: gets ``k ×`` this).  ``None`` disables timeouts.  Only enforceable on
    #: the pool path — the serial path cannot interrupt its own cell.
    timeout_seconds: Optional[float] = None
    #: Exponential backoff between retries of the same unit.
    backoff_base_seconds: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_seconds: float = 2.0
    #: Failures (raise/timeout/crash) of a multi-cell unit before it is
    #: split into single-cell units — and, for an ndbatch chunk, demoted to
    #: the batch engine — to isolate the faulty cell.
    demote_after: int = 2

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be positive (or None)")
        if self.backoff_base_seconds < 0 or self.backoff_max_seconds < 0:
            raise ValueError("backoff seconds must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.demote_after < 1:
            raise ValueError("demote_after must be at least 1")

    def backoff_seconds(self, key: str, failure_count: int) -> float:
        """Backoff before retry number ``failure_count`` of unit ``key``.

        Exponential in the failure count, capped, with deterministic jitter:
        a SHA-256 PRF over ``(key, failure_count)`` scales the delay into
        ``[0.5, 1.0]×`` so same-moment failures decorrelate without shared
        randomness — re-running the sweep reproduces the exact schedule.
        """
        base = min(
            self.backoff_max_seconds,
            self.backoff_base_seconds * self.backoff_factor ** max(0, failure_count - 1),
        )
        digest = hashlib.sha256(f"{key}:{failure_count}".encode("utf-8")).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2**64
        return base * (0.5 + 0.5 * fraction)

    def unit_timeout(self, cell_count: int) -> Optional[float]:
        """The wall-clock deadline budget for a unit of ``cell_count`` cells."""
        if self.timeout_seconds is None:
            return None
        return self.timeout_seconds * max(1, cell_count)

    def as_payload(self) -> Dict:
        """JSON form recorded in job manifests (resume reproducibility)."""
        return {
            "max_attempts": self.max_attempts,
            "timeout_seconds": self.timeout_seconds,
            "backoff_base_seconds": self.backoff_base_seconds,
            "backoff_factor": self.backoff_factor,
            "backoff_max_seconds": self.backoff_max_seconds,
            "demote_after": self.demote_after,
        }

    @classmethod
    def from_payload(cls, payload: Dict) -> "RetryPolicy":
        return cls(
            max_attempts=int(payload["max_attempts"]),
            timeout_seconds=(
                None
                if payload.get("timeout_seconds") is None
                else float(payload["timeout_seconds"])
            ),
            backoff_base_seconds=float(payload["backoff_base_seconds"]),
            backoff_factor=float(payload["backoff_factor"]),
            backoff_max_seconds=float(payload["backoff_max_seconds"]),
            demote_after=int(payload["demote_after"]),
        )


@dataclass(frozen=True)
class CellFailure:
    """One quarantined cell: the structured record of why it was given up on.

    Streams to the quarantine store (JSON lines, one per cell) instead of
    aborting the sweep; resumes treat quarantined cells as
    *excluded-with-reason* rather than missing, so a poisoned cell cannot
    re-crash every subsequent resume.
    """

    cell: "SweepCell"  # noqa: F821 — imported lazily to avoid an import cycle
    cell_id: str
    error_type: str
    message: str
    traceback_digest: str
    fault_class: str
    #: Cumulative executions attempted across retries, splits and demotions.
    attempts: int
    #: The engine the final attempt ran on.
    engine: str
    #: The engine the cell was demoted *from*, if a demotion happened.
    demoted_from: str = ""

    def as_payload(self) -> Dict:
        # The store's canonical cell form: the job layer matches a record to
        # stored outcomes by the cell's value.
        from repro.sim.sweep import _cell_payload

        return {
            "cell": _cell_payload(self.cell),
            "cell_id": self.cell_id,
            "error_type": self.error_type,
            "message": self.message,
            "traceback_digest": self.traceback_digest,
            "fault_class": self.fault_class,
            "attempts": self.attempts,
            "engine": self.engine,
            "demoted_from": self.demoted_from,
        }

    @classmethod
    def from_payload(cls, payload: Dict) -> "CellFailure":
        from repro.sim.sweep import SweepCell

        return cls(
            cell=SweepCell(**payload["cell"]),
            cell_id=payload["cell_id"],
            error_type=payload["error_type"],
            message=payload["message"],
            traceback_digest=payload["traceback_digest"],
            fault_class=payload["fault_class"],
            attempts=int(payload["attempts"]),
            engine=payload.get("engine", ""),
            demoted_from=payload.get("demoted_from", ""),
        )


# ----------------------------------------------------------------------
# Quarantine store (JSONL beside the outcome store)
# ----------------------------------------------------------------------


def default_quarantine_path(store_path: str) -> str:
    """The quarantine file beside one outcome store (``foo.jsonl`` →
    ``foo.quarantine.jsonl``; the job layer uses its own ``quarantine.jsonl``
    naming so store globs never pick quarantine files up as stores)."""
    base = str(store_path)
    if base.endswith(".jsonl"):
        return base[: -len(".jsonl")] + ".quarantine.jsonl"
    return base + ".quarantine.jsonl"


def write_quarantine_line(handle, failure: CellFailure) -> None:
    """Append one failure as a flushed JSON line (kill loses at most a line)."""
    handle.write(json.dumps(failure.as_payload(), sort_keys=True) + "\n")
    handle.flush()


def iter_quarantine_jsonl(path: str) -> Iterator[CellFailure]:
    """Lazily read quarantine records, skipping a truncated/corrupt tail.

    Same tolerance contract as the outcome-store reader
    (:func:`repro.sim.sweep.iter_sweep_jsonl`): a partial trailing line is
    the normal end state of a killed run, not an exception.
    """
    from repro.sim.sweep import SweepStoreWarning

    try:
        handle = open(path, "r", encoding="utf-8")
    except FileNotFoundError:
        return
    with handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield CellFailure.from_payload(json.loads(line))
            except (ValueError, KeyError, TypeError) as error:
                warnings.warn(
                    f"{path}:{line_number}: skipping undecodable quarantine "
                    f"line ({error})",
                    SweepStoreWarning,
                    stacklevel=2,
                )
                continue


def read_quarantine_map(paths: Iterable[str]) -> Dict[str, CellFailure]:
    """Cell ID → failure record across quarantine files (last record wins,
    so a later retry's fresher diagnosis supersedes an earlier one)."""
    quarantined: Dict[str, CellFailure] = {}
    for path in paths:
        for failure in iter_quarantine_jsonl(str(path)):
            quarantined[failure.cell_id] = failure
    return quarantined


# ----------------------------------------------------------------------
# Work units
# ----------------------------------------------------------------------


@dataclass
class _Unit:
    """One dispatchable work item: a list of cells plus retry bookkeeping."""

    indices: List[int]
    cells: List["SweepCell"]  # noqa: F821
    #: The ndbatch chunks of cell plans the unit runs as blocks, one after
    #: another (see ``repro.sim.sweep._ndbatch_dispatch_groups``), or
    #: ``None`` for a unit whose cells run one by one.
    group: Optional[Tuple] = None
    #: Engine override for per-cell units (``None`` → each cell's own engine).
    engine: Optional[str] = None
    failures: int = 0
    attempts: int = 0
    demoted_from: str = ""
    ready_at: float = 0.0
    #: The cell ID of the unit's first cell, set only under a retry policy:
    #: backoff jitter and quarantine records are all that read it.
    key: str = ""

    def effective_engine(self) -> str:
        if self.group is not None:
            return "ndbatch"
        if self.engine is not None:
            return self.engine
        return self.cells[0].engine


def _cells_units(
    cells: Sequence["SweepCell"],  # noqa: F821
    indices: Sequence[int],
    worker_count: int,
) -> List[_Unit]:
    """Cut per-cell work into units, in grid order, by the sweep's one unit
    rule (:func:`repro.sim.planner.pack_dispatch_groups`, one cell per item)."""
    from repro.sim.planner import pack_dispatch_groups

    units = []
    for group in pack_dispatch_groups([1] * len(indices), worker_count):
        chunk = [indices[i] for i in group]
        units.append(_Unit(indices=chunk, cells=[cells[i] for i in chunk]))
    return units


# ----------------------------------------------------------------------
# Unit execution (runs in the worker process, or inline on the serial path)
# ----------------------------------------------------------------------


def _execute_unit(
    cells: List["SweepCell"],  # noqa: F821
    group: Optional[Tuple],
    engine: Optional[str],
    attempt: int,
    chaos: Optional[ChaosPlan],
    allow_process_faults: bool,
) -> List["CellOutcome"]:  # noqa: F821
    """Execute one unit, applying any injected chaos faults first."""
    from repro.sim.job import cell_id
    from repro.sim.sweep import _run_ndbatch_chunk, run_cell

    # Computing cell IDs costs a SHA-256 per cell; only chaos lookups need
    # them, so the fault-free path must not pay for it.
    if group is not None:
        if chaos is not None:
            inject_execution_faults(
                chaos, [cell_id(cell) for cell in cells], attempt, allow_process_faults
            )
        # Each chunk runs as its own block, in order.
        return [outcome for chunk in group for outcome in _run_ndbatch_chunk(chunk)]
    outcomes = []
    for cell in cells:
        if chaos is not None:
            inject_execution_faults(
                chaos, [cell_id(cell)], attempt, allow_process_faults
            )
        outcomes.append(run_cell(cell, engine=engine))
    return outcomes


def _run_fail_fast_unit(task: Tuple) -> List["CellOutcome"]:  # noqa: F821
    """``multiprocessing.Pool`` entry point: run one unit, raise on failure."""
    cells, group, chaos = task
    return _execute_unit(cells, group, None, 1, chaos, True)


def _failure_info(error: BaseException) -> Dict[str, str]:
    """Compact, picklable description of an exception (type, message, digest)."""
    text = traceback.format_exc()
    return {
        "error_type": type(error).__name__,
        "message": str(error),
        "traceback_digest": hashlib.sha256(text.encode("utf-8")).hexdigest()[:16],
        "fault_class": FAULT_CLASS_RAISE,
    }


def _resilient_worker_main(task_recv, result_send) -> None:
    """Worker loop: one unit at a time from a private pipe, result back.

    Messages are ``("ok", unit_id, outcomes)`` or ``("error", unit_id,
    info)``; a ``None`` task is the shutdown sentinel.  A worker that dies
    (SIGKILL, OOM) simply stops answering — the parent detects EOF on this
    pipe and re-dispatches the in-flight unit elsewhere.
    """
    while True:
        try:
            task = task_recv.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        unit_id, cells, group, engine, attempt, chaos = task
        try:
            outcomes = _execute_unit(cells, group, engine, attempt, chaos, True)
        except Exception as error:
            payload = ("error", unit_id, _failure_info(error))
        else:
            payload = ("ok", unit_id, outcomes)
        try:
            result_send.send(payload)
        except (BrokenPipeError, OSError):
            return  # parent is gone; nothing left to report to


# ----------------------------------------------------------------------
# Failure-state machine (shared by the pool and serial paths)
# ----------------------------------------------------------------------


def _split_unit(unit: _Unit, now: float, retry: RetryPolicy) -> List[_Unit]:
    """Isolate a repeatedly failing multi-cell unit into single-cell units.

    An ndbatch chunk group demotes to the batch engine as it splits (a
    whole-block numpy failure is often block-shaped — the scalar engine
    both isolates the faulty cell and sidesteps the block path); a per-cell
    unit splits on its own engine.  Children inherit the cumulative attempt
    count but start a fresh failure budget.
    """
    from repro.sim.job import cell_id

    if unit.group is not None:
        engine = demotion_target("ndbatch")
        demoted_from = "ndbatch"
    else:
        engine = unit.engine
        demoted_from = unit.demoted_from
    children = []
    for index, cell in zip(unit.indices, unit.cells):
        child = _Unit(
            indices=[index],
            cells=[cell],
            engine=engine,
            attempts=unit.attempts,
            demoted_from=demoted_from,
        )
        child.key = cell_id(cell)
        child.ready_at = now + retry.backoff_seconds(child.key, 1)
        children.append(child)
    return children


def _on_unit_failure(
    unit: _Unit,
    info: Dict[str, str],
    now: float,
    retry: RetryPolicy,
) -> Tuple[List[_Unit], List[CellFailure]]:
    """Advance one failed unit through retry → split/demote → quarantine.

    Returns the replacement units to (re)schedule and the failures to
    quarantine.  Multi-cell units retry up to ``demote_after`` times, then
    split to isolate the faulty cell.  Single-cell units retry up to
    ``max_attempts`` per engine stage, demote once if a slower engine
    exists (ndbatch → batch), and finally quarantine with the full failure
    provenance.
    """
    unit.failures += 1
    unit.attempts += 1
    if len(unit.cells) > 1:
        if unit.failures < retry.demote_after:
            unit.ready_at = now + retry.backoff_seconds(unit.key, unit.failures)
            return [unit], []
        return _split_unit(unit, now, retry), []
    if unit.failures < retry.max_attempts:
        unit.ready_at = now + retry.backoff_seconds(unit.key, unit.failures)
        return [unit], []
    engine = unit.effective_engine()
    target = demotion_target(engine) if not unit.demoted_from else None
    if target is not None:
        demoted = _Unit(
            indices=list(unit.indices),
            cells=list(unit.cells),
            engine=target,
            attempts=unit.attempts,
            demoted_from=engine,
        )
        demoted.key = unit.key
        demoted.ready_at = now + retry.backoff_seconds(unit.key, 1)
        return [demoted], []
    failure = CellFailure(
        cell=unit.cells[0],
        cell_id=unit.key,
        error_type=info["error_type"],
        message=info["message"],
        traceback_digest=info["traceback_digest"],
        fault_class=info["fault_class"],
        attempts=unit.attempts,
        engine=engine,
        demoted_from=unit.demoted_from,
    )
    return [], [failure]


def _patched(unit: _Unit, outcomes: List["CellOutcome"]) -> List["CellOutcome"]:  # noqa: F821
    """Stamp demotion provenance onto a demoted unit's outcomes."""
    if not unit.demoted_from:
        return outcomes
    return [
        dataclasses.replace(outcome, demoted_from=unit.demoted_from)
        for outcome in outcomes
    ]


# ----------------------------------------------------------------------
# The resilient pool (parent event loop over per-worker pipes)
# ----------------------------------------------------------------------


class _Worker:
    """One pool worker: process + private task/result pipes."""

    __slots__ = ("process", "task_send", "result_recv")

    def __init__(self, ctx) -> None:
        task_recv, task_send = ctx.Pipe(duplex=False)
        result_recv, result_send = ctx.Pipe(duplex=False)
        self.process = ctx.Process(
            target=_resilient_worker_main,
            args=(task_recv, result_send),
            daemon=True,
        )
        self.process.start()
        # Close the parent's copies of the worker's pipe ends — otherwise a
        # dead worker's result pipe never reaches EOF and crashes are
        # undetectable (the whole point of per-worker pipes).
        task_recv.close()
        result_send.close()
        self.task_send = task_send
        self.result_recv = result_recv

    def dispatch(self, unit_id: int, unit: _Unit, chaos: Optional[ChaosPlan]) -> None:
        # A group's chunks hold the plans of the unit's cells, built once in
        # the parent; each plan holds the unit's cell object, so pickling
        # sends each cell once.
        self.task_send.send(
            (unit_id, unit.cells, unit.group, unit.engine, unit.attempts + 1, chaos)
        )

    def reap(self, kill: bool = True) -> Optional[int]:
        """Shut the worker down (gracefully, or SIGKILL) and close its pipes."""
        if kill and self.process.is_alive():
            self.process.kill()
        self.process.join(timeout=5.0)
        exitcode = self.process.exitcode
        for conn in (self.task_send, self.result_recv):
            try:
                conn.close()
            except OSError:
                pass
        try:
            self.process.close()
        except (ValueError, AttributeError):
            pass
        return exitcode

    def shutdown(self) -> None:
        """Ask the worker to exit via the sentinel, then reap it."""
        try:
            self.task_send.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=2.0)
        self.reap(kill=True)


def _crash_info(exitcode: Optional[int]) -> Dict[str, str]:
    description = f"worker process died (exitcode {exitcode})"
    return {
        "error_type": "WorkerCrashed",
        "message": description,
        "traceback_digest": hashlib.sha256(description.encode("utf-8")).hexdigest()[:16],
        "fault_class": FAULT_CLASS_CRASH,
    }


def _timeout_info(budget: float) -> Dict[str, str]:
    description = f"unit exceeded its {budget:.3f}s wall-clock budget"
    return {
        "error_type": "CellTimeout",
        "message": description,
        "traceback_digest": hashlib.sha256(description.encode("utf-8")).hexdigest()[:16],
        "fault_class": FAULT_CLASS_TIMEOUT,
    }


def _serial_loop(
    heap: List[Tuple[float, int, _Unit]],
    retry: Optional[RetryPolicy],
    chaos: Optional[ChaosPlan],
    on_failure: Optional[Callable[[CellFailure], None]],
    seq: Iterator[int],
) -> Iterator[Tuple[int, "CellOutcome"]]:  # noqa: F821
    """In-process execution with the same retry/quarantine state machine.

    Used for ``workers=1``, for a single work unit, and as the fallback when
    the platform cannot spawn processes.  Timeouts are not enforceable here
    (a thread cannot preempt its own cell) and ``kill-worker`` chaos
    degrades to a raise — both documented in :class:`RetryPolicy` /
    :mod:`repro.sim.chaos`.  Without a policy the first error propagates.
    """
    while heap:
        ready_at, _, unit = heapq.heappop(heap)
        delay = ready_at - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        try:
            outcomes = _execute_unit(
                unit.cells, unit.group, unit.engine, unit.attempts + 1, chaos, False
            )
        except Exception as error:
            if retry is None:
                raise
            replacements, failures = _on_unit_failure(
                unit, _failure_info(error), time.monotonic(), retry
            )
            for replacement in replacements:
                heapq.heappush(heap, (replacement.ready_at, next(seq), replacement))
            for failure in failures:
                if on_failure is not None:
                    on_failure(failure)
        else:
            unit.attempts += 1
            yield from zip(unit.indices, _patched(unit, outcomes))


def _fail_fast_pool(
    pool,
    units: List[_Unit],
    chaos: Optional[ChaosPlan],
    others: set,
) -> Iterator[Tuple[int, "CellOutcome"]]:  # noqa: F821
    """Run ``units`` on a ``multiprocessing.Pool``, in unit order, failing fast.

    ``imap`` re-raises a unit's exception in the parent unchanged, with the
    worker's traceback chained as its cause.  What the pool does not do is
    notice a dead worker: it quietly replaces the process, and the unit that
    worker held never comes back.  So the parent waits in ``_POLL_SECONDS``
    steps and, whenever a result is late, raises :class:`RuntimeError` if a
    worker of this pool (any child not in ``others``) has exited.  The
    pool's workers are collected right away, before a replacement's start
    can reap a dead one from the child list.
    """
    workers = set(multiprocessing.active_children()) - others
    try:
        results = pool.imap(
            _run_fail_fast_unit, [(unit.cells, unit.group, chaos) for unit in units]
        )
        for unit in units:
            while True:
                try:
                    outcomes = results.next(timeout=_POLL_SECONDS)
                    break
                except multiprocessing.TimeoutError:
                    workers.update(set(multiprocessing.active_children()) - others)
                    for process in workers:
                        if process.exitcode is not None:
                            raise RuntimeError(_crash_info(process.exitcode)["message"])
            yield from zip(unit.indices, outcomes)
    finally:
        # Terminate *and join*: a consumer that stops iterating early closes
        # this generator, and its workers must not outlive it.
        pool.terminate()
        pool.join()


def iter_resilient_outcomes(
    cells: Sequence["SweepCell"],  # noqa: F821
    engine: str,
    workers: Optional[int],
    max_block_size: int,
    retry: Optional[RetryPolicy] = None,
    chaos: Optional[ChaosPlan] = None,
    on_failure: Optional[Callable[[CellFailure], None]] = None,
    dtype: Optional[str] = None,
    budget_bytes: Optional[int] = None,
) -> Iterator[Tuple[int, "CellOutcome"]]:  # noqa: F821
    """Yield ``(cell_index, outcome)`` pairs for a cell list.

    The sweep execution core.  The cells split into work units once, by
    one rule (:func:`repro.sim.planner.pack_dispatch_groups`): units of
    ndbatch chunks (``repro.sim.sweep._ndbatch_dispatch_groups``, which
    receives ``dtype``/``budget_bytes``) and per-cell units for the rest.
    ``dtype`` is resolved first, for every engine
    (:func:`repro.sim.planner.resolve_dtype`: kwarg, else
    ``REPRO_ARRAY_DTYPE``, else float64), so an unknown dtype raises
    :class:`ValueError` before any unit runs, even on a grid no ndbatch
    block covers.  With a ``retry`` policy every unit flows through the
    retry → split/demote → quarantine state machine, the pool detects and
    survives dead workers, and hung units are killed at their wall-clock
    deadline instead of blocking the sweep forever.  Quarantined cells are
    reported through ``on_failure`` (in completion order) and simply never
    yielded — callers treat them as excluded-with-reason.  A ``chaos`` plan
    without a policy runs under the default :class:`RetryPolicy`.
    ``retry=None`` without chaos fails fast instead, on a
    ``multiprocessing.Pool`` (:func:`_fail_fast_pool`): the first failure is
    re-raised in the caller, unchanged (a pool worker's traceback chained as
    its cause).

    The serial path (``workers=1``, or a single unit without a timeout to
    enforce) and the fail-fast pool yield in unit order.  The fault-tolerant
    pool yields in completion order, which depends on which worker finishes
    first; the indices restore grid order, and the *measurements* are
    deterministic regardless — a retried or re-dispatched cell recomputes
    the identical outcome.
    """
    from repro.sim.job import cell_id
    from repro.sim.planner import resolve_dtype
    from repro.sim.sweep import _ndbatch_dispatch_groups, _resolve_workers

    dtype = resolve_dtype(dtype)
    if retry is None and chaos is not None:
        retry = RetryPolicy()
    cells = list(cells)
    if not cells:
        return
    worker_count = _resolve_workers(workers, len(cells))
    units = [
        _Unit(indices=indices, cells=[cells[i] for i in indices], group=group)
        for indices, group in _ndbatch_dispatch_groups(
            cells, engine, max_block_size, dtype, budget_bytes, worker_count
        )
    ]
    covered = {index for unit in units for index in unit.indices}
    rest = [index for index in range(len(cells)) if index not in covered]
    units.extend(_cells_units(cells, rest, worker_count))
    counter = iter(range(1 << 62))
    heap: List[Tuple[float, int, _Unit]] = []
    for unit in units:
        if retry is not None:
            unit.key = cell_id(unit.cells[0])
        heapq.heappush(heap, (0.0, next(counter), unit))

    timeouts = retry is not None and retry.timeout_seconds is not None
    if worker_count <= 1 or (len(units) <= 1 and not timeouts):
        # The heap alone holds the units, so a finished unit's plans are freed.
        units.clear()
        yield from _serial_loop(heap, retry, chaos, on_failure, counter)
        return
    if retry is None:
        others = set(multiprocessing.active_children())
        try:
            pool = multiprocessing.Pool(worker_count)
        except OSError:
            # Restricted environments (no /dev/shm, sandboxed fork) run
            # serially; results are identical by construction.
            yield from _serial_loop(heap, retry, chaos, on_failure, counter)
            return
        yield from _fail_fast_pool(pool, units, chaos, others)
        return

    ctx = multiprocessing.get_context()
    workers_pool: List[_Worker] = []
    idle: List[_Worker] = []
    busy: Dict = {}  # result_recv connection -> (worker, unit, deadline)

    def spawn() -> Optional[_Worker]:
        try:
            worker = _Worker(ctx)
        except OSError:
            return None
        workers_pool.append(worker)
        return worker

    def reap_busy(conn, kill: bool) -> Tuple[_Worker, _Unit, Optional[int]]:
        worker, unit, _ = busy.pop(conn)
        workers_pool.remove(worker)
        exitcode = worker.reap(kill=kill)
        return worker, unit, exitcode

    def handle_failure(unit: _Unit, info: Dict[str, str]) -> None:
        replacements, failures = _on_unit_failure(unit, info, time.monotonic(), retry)
        for replacement in replacements:
            heapq.heappush(heap, (replacement.ready_at, next(counter), replacement))
        for failure in failures:
            if on_failure is not None:
                on_failure(failure)

    done: List[Tuple[_Unit, List["CellOutcome"]]] = []  # noqa: F821
    try:
        while heap or busy or done:
            now = time.monotonic()
            # Dispatch every ready unit to an idle (spawning if short) worker.
            while heap and heap[0][0] <= now:
                if not idle:
                    if len(workers_pool) < worker_count:
                        worker = spawn()
                        if worker is None:
                            if not workers_pool:
                                # No pool possible at all: degrade to serial.
                                yield from _serial_loop(
                                    heap, retry, chaos, on_failure, counter
                                )
                                return
                            break
                        idle.append(worker)
                    else:
                        break
                _, _, unit = heapq.heappop(heap)
                worker = idle.pop()
                try:
                    worker.dispatch(next(counter), unit, chaos)
                except (BrokenPipeError, OSError):
                    # The idle worker died between tasks; replace it and
                    # requeue the unit without charging a failure.
                    workers_pool.remove(worker)
                    worker.reap(kill=True)
                    heapq.heappush(heap, (now, next(counter), unit))
                    continue
                budget = None if retry is None else retry.unit_timeout(len(unit.cells))
                deadline = None if budget is None else now + budget
                busy[worker.result_recv] = (worker, unit, deadline)

            # Hand finished outcomes on only once the freed workers hold new
            # units, so the consumer's store writes overlap their work.
            if done:
                finished, done = done, []
                for unit, outcomes in finished:
                    yield from zip(unit.indices, _patched(unit, outcomes))
                continue

            # Sleep until the next completion, deadline or backoff expiry.  A
            # ready unit on the heap only matters while a worker could take
            # it: with every worker busy, waiting zero seconds would spin.
            wait_timeout = _POLL_SECONDS
            if heap and (idle or len(workers_pool) < worker_count):
                wait_timeout = min(wait_timeout, max(0.0, heap[0][0] - now))
            for _, _, deadline in busy.values():
                if deadline is not None:
                    wait_timeout = min(wait_timeout, max(0.0, deadline - now))
            if busy:
                ready = _mp_connection.wait(list(busy), timeout=wait_timeout)
            else:
                if wait_timeout > 0:
                    time.sleep(wait_timeout)
                ready = []

            for conn in ready:
                worker, unit, _ = busy[conn]
                try:
                    # A SIGKILL mid-send can leave anything in the pipe
                    # (EOF, a truncated pickle, an OSError); every decode
                    # problem is the same event: the worker is gone.
                    message = conn.recv()
                except Exception:
                    message = None
                if message is None:
                    _, _, exitcode = reap_busy(conn, kill=True)
                    handle_failure(unit, _crash_info(exitcode))
                    continue
                busy.pop(conn)
                kind, _, payload = message
                idle.append(worker)
                if kind == "ok":
                    unit.attempts += 1
                    done.append((unit, payload))
                else:
                    handle_failure(unit, payload)

            # Deadline scan: SIGKILL workers whose unit blew its budget —
            # the sweep must never block on a worker that will not answer.
            now = time.monotonic()
            for conn in list(busy):
                worker, unit, deadline = busy[conn]
                if deadline is not None and now >= deadline:
                    budget = retry.unit_timeout(len(unit.cells)) or 0.0
                    reap_busy(conn, kill=True)
                    handle_failure(unit, _timeout_info(budget))

            # Liveness scan: a worker that died without traffic on its pipe
            # (e.g. the pipe end leaked into a sibling) still gets noticed.
            for conn in list(busy):
                worker, unit, _ = busy[conn]
                if not worker.process.is_alive() and conn not in ready:
                    _, _, exitcode = reap_busy(conn, kill=False)
                    handle_failure(unit, _crash_info(exitcode))
    finally:
        for conn in list(busy):
            worker, _, _ = busy.pop(conn)
            if worker in workers_pool:
                workers_pool.remove(worker)
            worker.reap(kill=True)
        for worker in list(workers_pool):
            worker.shutdown()
        workers_pool.clear()
        idle.clear()
