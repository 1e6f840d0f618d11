"""Resumable, sharded sweep *jobs* over the JSONL outcome store.

:func:`repro.sim.sweep.run_sweep` executes one grid in one process and
streams outcomes to one file — fine for a workstation run, fragile at fleet
scale: a killed million-cell sweep used to mean starting over (and, worse,
re-opening the store with mode ``"w"`` silently discarded what had finished).
This module wraps the same execution core in a production *job* abstraction:

* **Manifest** — a :class:`SweepJob` owns a directory holding
  ``manifest.json`` (schema version, the full grid spec, seed/engine policy,
  cell count, cell-ID algorithm) next to the outcome stores, so any host —
  or any later session — can validate it is appending to the grid it thinks
  it is.  A spec mismatch fails loudly (:class:`SweepJobError`).
* **Content-addressed cells** — every cell has a stable ID,
  :func:`cell_id`: a SHA-256 digest of its canonical JSON form
  ``(protocol, n, t, epsilon, adversary, workload, seed, engine)``, plus
  ``dimension`` when it is not 1 and ``adversary_params`` when it is not
  empty.  IDs are identical across processes, hosts and ``PYTHONHASHSEED``
  values, which is what makes resume and sharding coordination-free.  They
  are computed only where a cell crosses a file or host boundary: shard
  slices, quarantine records and chaos rules.  Within one process the
  stores are deduplicated and checked for completed cells by the cell's
  value (:class:`CellSet`), which needs no digest.
* **Resume** — ``job.run(resume=True)`` scans the existing store
  (:func:`scan_sweep_store`), *repairs* a truncated trailing line — the
  normal end state of a killed run — by truncating the store back to its
  last complete line, then executes and appends only the missing cells.
  Outcomes are deterministic per cell and job stores carry no wall times,
  so an interrupted-then-resumed store is bit-identical (modulo line order)
  to an uninterrupted one for explicit engines; under ``engine="auto"`` the
  block-setup cost model may demote differently-sized pending sets, so only
  :attr:`~repro.sim.sweep.CellOutcome.engine_used` may differ (never the
  measurements).
* **Sharding** — ``job.run(shard=(i, k))`` hash-partitions the grid by
  :func:`cell_shard`: k independent hosts (or CI matrix jobs) each take a
  disjoint slice whose union is exactly the full grid, no coordinator, no
  cell executed twice.  Each shard appends to its own store file in the job
  directory (or its own copy of the directory — merge by copying files).
* **Incremental aggregation** — :meth:`SweepJob.fold` /
  :func:`fold_sweep_jsonl` stream outcomes from one or many shard stores
  through a :class:`~repro.sim.sweep.SweepSummaryFold`, so summary tables
  over million-cell stores never hold the cells.

Typical fleet use (one shard per CI matrix job)::

    spec = SweepSpec(protocols=("async-crash",), system_sizes=((13, 4),),
                     adversaries=("none", "crash-staggered"),
                     seeds=tuple(range(1000)), engine="auto")
    job = SweepJob(spec, "sweep-out")
    result = job.run(shard=(index, total))    # this host's disjoint slice
    # ... later, any host with all the shard files:
    print(render_records(job.summary(), SUMMARY_COLUMNS))
"""

from __future__ import annotations

if __name__ == "__main__":
    # ``python -m repro.sim.job``: run the CLI of the canonical module instead
    # of executing this file's body a second time as ``__main__``, so the
    # CLI shares its class objects with every other importer of the module.
    from repro.sim.job import main

    raise SystemExit(main())

import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
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

from repro.sim.chaos import ChaosPlan, maybe_truncate_write
from repro.sim.experiments import ExperimentRecord
from repro.sim.resilient import (
    CellFailure,
    RetryPolicy,
    iter_resilient_outcomes,
    read_quarantine_map,
    write_quarantine_line,
)
from repro.sim.sweep import (
    DEFAULT_MAX_BLOCK_SIZE,
    CellOutcome,
    SweepCell,
    SweepSpec,
    SweepSummaryFold,
    _cell_payload,
    _outcome_from_payload,
    _outcome_to_json_line,
    _summary_key,
    iter_sweep_jsonl,
)

__all__ = [
    "STORE_SCHEMA_VERSION",
    "CELL_ID_ALGORITHM",
    "SweepJobError",
    "SweepJobResult",
    "SweepJobProgress",
    "CompactionResult",
    "StoreScan",
    "CellSet",
    "cell_id",
    "cell_shard",
    "scan_sweep_store",
    "fold_sweep_jsonl",
    "SweepJob",
    "spec_from_manifest",
    "parse_shard",
    "main",
]

#: Version of the on-disk layout (manifest shape + JSONL line schema).
#: v2 adds the ``dimension`` cell field and the spec's ``dimensions`` axis;
#: scalar (d=1) cells omit the key everywhere — line bytes, cell IDs and
#: shard assignments of v1 stores are unchanged, so v1 job directories
#: resume/merge/compact under v2 without rewriting (the manifest is upgraded
#: in place by :func:`_normalize_manifest`).
STORE_SCHEMA_VERSION = 2

#: How cell IDs are derived — recorded in the manifest so a future algorithm
#: change cannot silently mix incompatible IDs in one job directory.
CELL_ID_ALGORITHM = "sha256-canonical-json/16"


class SweepJobError(RuntimeError):
    """A sweep job invariant was violated (manifest mismatch, clobber, …)."""


def cell_id(cell: SweepCell) -> str:
    """Content-addressed ID of one sweep cell: 16 hex chars, stable everywhere.

    The digest is taken over the cell's canonical JSON form
    (``repro.sim.sweep._cell_payload``, with sorted keys and no whitespace),
    so it depends only on the cell's fields — never on process identity,
    dict order or ``PYTHONHASHSEED``.  Floats serialise via ``repr``
    (shortest round-trip form), which is stable across the supported Python
    versions.  The form keys ``dimension`` only when it is not 1 and
    ``adversary_params`` only when they are set, so scalar parameterless
    cells keep their historic IDs and v1 stores stay valid verbatim.
    """
    payload = json.dumps(_cell_payload(cell), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def cell_shard(cell: SweepCell, shard_count: int) -> int:
    """Which of ``shard_count`` disjoint slices this cell belongs to.

    Hash partitioning over :func:`cell_id`: every cell lands in exactly one
    shard, the union of all shards is exactly the grid, and the assignment
    is identical on every host — no coordination needed.
    """
    if shard_count < 1:
        raise ValueError("shard_count must be at least 1")
    return int(cell_id(cell), 16) % shard_count


def _normalize_manifest(manifest: Dict) -> Dict:
    """Upgrade an older on-disk manifest to the current schema, in memory.

    Every schema bump so far is strictly additive with a defined default for
    old stores, so older manifests are *upgraded for comparison* rather than
    rejected: v1 (pre-``dimensions``) grids were scalar by construction —
    their cell IDs, line bytes and shard assignments are unchanged under v2
    — and manifests written before the resilient layer lack ``retry_policy``
    (absent means ``None``, fail-fast runs).  Returns the manifest
    for chaining; mutates in place.
    """
    if manifest.get("schema_version") == 1:
        manifest["schema_version"] = STORE_SCHEMA_VERSION
        spec = manifest.get("spec")
        if isinstance(spec, dict):
            spec.setdefault("dimensions", [1])
    manifest.setdefault("retry_policy", None)
    return manifest


def _manifest_differences(stored: Dict, requested: Dict) -> List[str]:
    """``"<key>: stored <a>, requested <b>"`` for every top-level manifest
    key whose values differ; a differing spec names each axis as
    ``spec.<axis>``."""
    differences = []
    for key in sorted(set(stored) | set(requested)):
        old, new = stored.get(key), requested.get(key)
        if old == new:
            continue
        if key == "spec" and isinstance(old, dict) and isinstance(new, dict):
            differences.extend(
                f"spec.{line}" for line in _manifest_differences(old, new)
            )
        else:
            differences.append(f"{key}: stored {old!r}, requested {new!r}")
    return differences


class CellSet:
    """A set of sweep cells keyed by value, smaller than a set of their IDs.

    Membership is cell equality.  On every cell a grid or a store produces,
    two cells are equal exactly when their :func:`cell_id` values are
    (``tests/property/test_cell_ids.py`` pins it), so in-process dedup and
    completion checks need no SHA-256 digest.  Equality is numeric, so an
    ``epsilon`` of ``1`` and one of ``1.0`` name the same cell here although
    their IDs differ.

    Each distinct seed-less key (the fields a summary row folds over) gets a
    small group number, and a cell is kept as the one integer
    ``seed << 32 | group`` (seeds are integers, as :class:`SweepCell`
    declares).  A set of those integers grows exactly like a set of
    16-character ID strings but holds smaller elements, so it costs less per
    cell at every size; a set of :class:`SweepCell` objects would cost
    several times more, which matters for million-cell stores.
    """

    __slots__ = ("_groups", "_members")

    def __init__(self, cells: Iterable[SweepCell] = ()) -> None:
        self._groups: Dict[Tuple, int] = {}
        self._members: Set[int] = set()
        for cell in cells:
            self.add(cell)

    def add(self, cell: SweepCell) -> bool:
        """Add ``cell``; return whether it was not in the set before."""
        group = self._groups.setdefault(_summary_key(cell), len(self._groups))
        member = cell.seed << 32 | group
        if member in self._members:
            return False
        self._members.add(member)
        return True

    def update(self, other: "CellSet") -> None:
        """Add every cell of ``other``."""
        renumber = {
            number: self._groups.setdefault(key, len(self._groups))
            for key, number in other._groups.items()
        }
        if all(number == new for number, new in renumber.items()):
            self._members |= other._members
            return
        for member in other._members:
            self._members.add(member >> 32 << 32 | renumber[member & 0xFFFFFFFF])

    def __contains__(self, cell: SweepCell) -> bool:
        group = self._groups.get(_summary_key(cell))
        return group is not None and (cell.seed << 32 | group) in self._members

    def __len__(self) -> int:
        return len(self._members)


class StoreScan(NamedTuple):
    """Result of scanning one JSONL store for completed work.

    ``valid_bytes`` is the offset just past the last decodable, fully
    written line: everything beyond it (a truncated tail from a killed run,
    or garbage) is unusable and safe to truncate away before appending.
    """

    completed: CellSet
    valid_bytes: int
    valid_lines: int
    corrupt: bool


def scan_sweep_store(
    path: str, on_outcome: Optional[Callable[[CellOutcome], None]] = None
) -> StoreScan:
    """Scan a sweep JSONL store, tolerating a truncated or corrupt tail.

    Reads line by line in binary mode (byte offsets must be exact for the
    repair truncation), collecting the cell of every complete, decodable
    outcome line and passing its outcome to ``on_outcome``, so one pass
    both checks a store and reads it.  The scan stops trusting the file at
    the first line that is incomplete (no trailing newline — the normal end
    state of a killed run) or undecodable; ``corrupt`` reports whether such
    a tail exists beyond ``valid_bytes``.
    """
    completed = CellSet()
    valid_bytes = 0
    valid_lines = 0
    corrupt = False
    with open(path, "rb") as handle:
        for line in handle:
            if not line.endswith(b"\n"):
                corrupt = True  # partial trailing line: write was interrupted
                break
            stripped = line.strip()
            if stripped:
                try:
                    outcome = _outcome_from_payload(json.loads(stripped.decode("utf-8")))
                except (ValueError, KeyError, TypeError):
                    # An undecodable *complete* line means the tail of the
                    # store can no longer be trusted; stop here so the repair
                    # truncation re-executes everything past this point.
                    corrupt = True
                    break
                completed.add(outcome.cell)
                valid_lines += 1
                if on_outcome is not None:
                    on_outcome(outcome)
            valid_bytes += len(line)
    return StoreScan(completed, valid_bytes, valid_lines, corrupt)


def _first_outcomes(paths: Iterable, seen: CellSet) -> Iterator[CellOutcome]:
    """Each cell's outcome from the first of ``paths`` that stores it.

    ``seen`` collects the cells streamed so far.
    """
    for path in paths:
        for outcome in iter_sweep_jsonl(str(path)):
            if seen.add(outcome.cell):
                yield outcome


def fold_sweep_jsonl(
    paths: Iterable[str],
    fold: Optional[SweepSummaryFold] = None,
    quarantine_paths: Iterable[str] = (),
) -> SweepSummaryFold:
    """Stream one or many (shard) stores into a :class:`SweepSummaryFold`.

    Outcomes are deduplicated by cell across files (first occurrence wins),
    so aggregating a directory that holds both an old unsharded store and
    newer shard stores cannot double-count a cell.  The dedup keys cells by
    value (:class:`CellSet`) and computes no cell ID; memory stays
    proportional to summary groups + one integer per cell seen.

    ``quarantine_paths`` folds in quarantine stores written by the resilient
    layer (:mod:`repro.sim.resilient`): cells with a failure record but no
    stored outcome are counted as *excluded-with-reason* on the fold
    (:attr:`~repro.sim.sweep.SweepSummaryFold.quarantined_count`), never as
    silently missing.  A cell that was quarantined once but succeeded on a
    later retry counts as its outcome, not as quarantined.
    """
    fold = fold if fold is not None else SweepSummaryFold()
    seen = CellSet()
    fold.update_many(_first_outcomes(paths, seen))
    for identity, failure in read_quarantine_map(
        str(path) for path in quarantine_paths
    ).items():
        if failure.cell not in seen:
            fold.note_quarantined(identity, failure.fault_class, cell=failure.cell)
    return fold


@dataclass(frozen=True)
class SweepJobResult:
    """What one :meth:`SweepJob.run` call did."""

    #: Cells in this run's slice of the grid (the whole grid when unsharded).
    total: int
    #: Cells skipped because a completed outcome was already in a store.
    skipped: int
    #: Cells executed and appended by this call.
    executed: int
    #: The store file this call appended to.
    store_path: str
    #: The ``(index, count)`` shard slice, or ``None`` for the full grid.
    shard: Optional[Tuple[int, int]] = None
    #: Whether a truncated/corrupt store tail was repaired before appending.
    repaired: bool = False
    #: Cells this call quarantined (gave up on after retries/demotion).
    quarantined: int = 0
    #: Pending cells excluded because an earlier run already quarantined
    #: them (excluded-with-reason; pass ``retry_quarantined=True`` to
    #: re-attempt them).
    quarantined_excluded: int = 0
    #: The quarantine store beside ``store_path`` (may not exist on disk if
    #: the run was fault-free).
    quarantine_path: Optional[str] = None


@dataclass(frozen=True)
class CompactionResult:
    """What :meth:`SweepJob.compact` did (see its docstring for guarantees)."""

    #: The single canonical store everything was rewritten into.
    store_path: str
    #: Outcome records in the compacted store (= distinct stored cells).
    records: int
    #: Store files removed after their records were folded in (shard stores,
    #: merge leftovers); does not include the canonical store itself.
    removed_paths: Tuple[str, ...] = ()
    #: Duplicate records dropped (same cell stored in several files/lines).
    duplicates_dropped: int = 0


@dataclass(frozen=True)
class SweepJobProgress:
    """A point-in-time progress snapshot of one job (see :meth:`SweepJob.progress`)."""

    #: Cells in the whole grid (the manifest's ``cell_count``).
    total_cells: int
    #: Cells in the running slice (equals ``total_cells`` unsharded); the
    #: whole grid when no run is active.
    slice_cells: int
    #: Slice cells with a stored outcome (pre-existing + this run's).
    completed_cells: int
    #: Slice cells excluded-with-reason (quarantined, no later success).
    quarantined_cells: int
    #: Cells executed and stored by the active run so far.
    executed_this_run: int
    #: Wall-clock seconds since the active run started (0.0 when idle).
    elapsed_seconds: float
    #: Throughput of the active run (executed / elapsed; 0.0 when idle).
    cells_per_second: float
    #: Estimated seconds to finish the slice at the current rate (``None``
    #: when idle or before the first completed cell).
    eta_seconds: Optional[float]

    @property
    def remaining_cells(self) -> int:
        return max(0, self.slice_cells - self.completed_cells - self.quarantined_cells)


class SweepJob:
    """A manifest-carrying, resumable, shardable sweep over one grid spec.

    The job owns ``directory``: ``manifest.json`` plus one JSONL store per
    slice (``cells.jsonl``, or ``cells.shard-00-of-04.jsonl`` …).  All
    execution goes through the same engine core as
    :func:`repro.sim.sweep.run_sweep`, so pool-versus-serial determinism and
    the engine capability matrix carry over unchanged; job stores are
    written in *canonical* line form (no wall times), making them a pure
    function of the grid.
    """

    MANIFEST_NAME = "manifest.json"
    STORE_STEM = "cells"
    #: Quarantine stores use their own stem so :meth:`store_paths`'s
    #: ``cells*.jsonl`` glob can never pick a quarantine file up as a store.
    QUARANTINE_STEM = "quarantine"

    def __init__(
        self,
        spec: SweepSpec,
        directory: str,
        workers: Optional[int] = None,
        max_block_size: int = DEFAULT_MAX_BLOCK_SIZE,
        retry: Optional[RetryPolicy] = None,
        chaos: Optional[ChaosPlan] = None,
    ) -> None:
        self.spec = spec
        self.directory = Path(directory)
        self.workers = workers
        self.max_block_size = max_block_size
        #: Routing execution through the resilient layer is opt-in per job;
        #: the policy is part of the manifest, so every resume of this job
        #: directory must use the same one.
        self.retry = retry
        #: Deterministic fault injection for tests/CI (never set this in a
        #: real run).  Chaos is deliberately *not* part of the manifest: the
        #: injected faults must not change what the store is a record of.
        #: ``None`` falls back to the ``REPRO_CHAOS`` env flag, so CI smoke
        #: jobs can inject faults without touching code.
        self.chaos = chaos if chaos is not None else ChaosPlan.from_env()
        self._progress_state: Optional[Dict] = None

    # ---- layout ------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.directory / self.MANIFEST_NAME

    def store_path(self, shard: Optional[Tuple[int, int]] = None) -> Path:
        """The JSONL store for one slice of the grid."""
        if shard is None:
            return self.directory / f"{self.STORE_STEM}.jsonl"
        index, count = self._validate_shard(shard)
        return self.directory / f"{self.STORE_STEM}.shard-{index:02d}-of-{count:02d}.jsonl"

    def store_paths(self) -> List[Path]:
        """Every existing store file of this job, in sorted order."""
        if not self.directory.is_dir():
            return []
        return sorted(self.directory.glob(f"{self.STORE_STEM}*.jsonl"))

    def quarantine_path(self, shard: Optional[Tuple[int, int]] = None) -> Path:
        """The quarantine store for one slice of the grid."""
        if shard is None:
            return self.directory / f"{self.QUARANTINE_STEM}.jsonl"
        index, count = self._validate_shard(shard)
        return (
            self.directory
            / f"{self.QUARANTINE_STEM}.shard-{index:02d}-of-{count:02d}.jsonl"
        )

    def quarantine_paths(self) -> List[Path]:
        """Every existing quarantine store of this job, in sorted order."""
        if not self.directory.is_dir():
            return []
        return sorted(self.directory.glob(f"{self.QUARANTINE_STEM}*.jsonl"))

    # ---- manifest ----------------------------------------------------

    def manifest_payload(self) -> Dict:
        """The manifest document this job's spec implies."""
        spec = self.spec
        return {
            "schema_version": STORE_SCHEMA_VERSION,
            "cell_id_algorithm": CELL_ID_ALGORITHM,
            "spec": {
                "protocols": list(spec.protocols),
                "system_sizes": [list(pair) for pair in spec.system_sizes],
                "adversaries": list(spec.adversaries),
                "workloads": list(spec.workloads),
                "seeds": list(spec.seeds),
                "epsilon": spec.epsilon,
                "engine": spec.engine,
                "dimensions": list(spec.dimensions),
            },
            # The seed axis *is* the seed policy: every cell derives all of
            # its randomness (workload draws, adversary PRF streams) from its
            # own seed value, so the manifest pins the full entropy source.
            "seed_policy": "explicit-seed-axis",
            "engine_policy": spec.engine,
            "cell_count": spec.cell_count,
            # The retry policy is part of the reproducibility contract: a
            # resume that retried/quarantined differently from the run it
            # continues would produce a different store.  None = fail fast.
            "retry_policy": None if self.retry is None else self.retry.as_payload(),
        }

    def write_manifest(self) -> Path:
        """Atomically write (or validate against) the job manifest."""
        existing = self.load_manifest()
        expected = self.manifest_payload()
        if existing is not None:
            _normalize_manifest(existing)
            if existing != expected:
                raise SweepJobError(
                    f"manifest {self.manifest_path} does not match this job "
                    f"({'; '.join(_manifest_differences(existing, expected))}); "
                    "resume with the stored values, or use a fresh directory "
                    "for a different sweep"
                )
            return self.manifest_path
        self.directory.mkdir(parents=True, exist_ok=True)
        temporary = self.manifest_path.with_suffix(".json.tmp")
        temporary.write_text(
            json.dumps(expected, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        os.replace(temporary, self.manifest_path)
        return self.manifest_path

    def load_manifest(self) -> Optional[Dict]:
        """The manifest on disk, or ``None`` if this job was never started."""
        try:
            text = self.manifest_path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        try:
            return json.loads(text)
        except ValueError as error:
            raise SweepJobError(
                f"manifest {self.manifest_path} is not valid JSON: {error}"
            ) from error

    # ---- grid slices -------------------------------------------------

    @staticmethod
    def _validate_shard(shard: Tuple[int, int]) -> Tuple[int, int]:
        index, count = shard
        if count < 1:
            raise ValueError("shard count must be at least 1")
        if not 0 <= index < count:
            raise ValueError(f"shard index {index} outside 0..{count - 1}")
        return index, count

    def cells(self, shard: Optional[Tuple[int, int]] = None) -> List[SweepCell]:
        """This run's slice of the grid, in grid order."""
        grid = self.spec.cells()
        if shard is None:
            return list(grid)
        index, count = self._validate_shard(shard)
        return [cell for cell in grid if cell_shard(cell, count) == index]

    def stored_cells(self) -> CellSet:
        """Cells with a decodable outcome in any store of this job."""
        stored = CellSet()
        for path in self.store_paths():
            stored.update(scan_sweep_store(str(path)).completed)
        return stored

    def is_complete(self) -> bool:
        """Whether every grid cell has an outcome across the job's stores."""
        stored = self.stored_cells()
        return all(cell in stored for cell in self.spec.cells())

    # ---- execution ---------------------------------------------------

    def run(
        self,
        resume: bool = True,
        shard: Optional[Tuple[int, int]] = None,
        overwrite: bool = False,
        retry_quarantined: bool = False,
        on_progress: Optional[Callable[[SweepJobProgress], None]] = None,
    ) -> SweepJobResult:
        """Execute (the missing part of) this job's slice of the grid.

        With ``resume=True`` (the default) every existing store in the job
        directory is scanned for completed cells, the target store's
        truncated/corrupt tail — the normal end state of a killed run — is
        repaired by truncating back to the last complete line, and only the
        cells without a stored outcome are executed and appended.  With
        ``resume=False`` a non-empty target store is an error unless
        ``overwrite=True`` truncates it (the other stores are never
        touched).  Execution streams through the same engine core as
        :func:`~repro.sim.sweep.run_sweep`, flushing each outcome (batch/
        event) or finished chunk (ndbatch/auto) as the pool returns it.

        Cells quarantined by an earlier run are *excluded-with-reason*: they
        are not re-executed (a deterministic poisoned cell would re-crash
        every resume) unless ``retry_quarantined=True`` lifts the exclusion.
        When the job carries a :class:`~repro.sim.resilient.RetryPolicy`
        (or a chaos plan), execution routes through the fault-tolerant layer
        and newly given-up cells stream to the slice's quarantine store.

        ``on_progress`` is called with a :class:`SweepJobProgress` snapshot
        after every stored outcome and every quarantined cell.
        """
        self.write_manifest()
        target = self.store_path(shard)
        repaired = False
        had_outcomes = False
        completed = CellSet()
        if target.exists() and target.stat().st_size > 0:
            if overwrite:
                target.write_text("", encoding="utf-8")
            elif not resume:
                raise SweepJobError(
                    f"store {target} already holds outcomes; pass resume=True "
                    "to append only missing cells or overwrite=True to discard it"
                )
            else:
                scan = scan_sweep_store(str(target))
                if scan.corrupt:
                    # Truncate the unusable tail so the append below starts
                    # on a clean line boundary (appending after a partial
                    # line would corrupt the next outcome too).
                    with open(target, "r+b") as handle:
                        handle.truncate(scan.valid_bytes)
                    repaired = True
                completed.update(scan.completed)
                had_outcomes = scan.valid_lines > 0
        quarantined_before = CellSet()
        if resume and not overwrite:
            for path in self.store_paths():
                if path != target:
                    completed.update(scan_sweep_store(str(path)).completed)
            quarantined_before = CellSet(
                failure.cell
                for failure in read_quarantine_map(
                    str(path) for path in self.quarantine_paths()
                ).values()
            )
        grid = self.cells(shard)
        pending: List[SweepCell] = []
        quarantined_excluded = 0
        for cell in grid:
            if cell in completed:
                continue
            if cell in quarantined_before and not retry_quarantined:
                quarantined_excluded += 1
                continue
            pending.append(cell)
        executed = 0
        quarantined = 0
        quarantine_target = self.quarantine_path(shard)
        quarantine_handle = None
        # The store generation distinguishes a fresh store (1) from one that
        # already held outcomes (2) — chaos truncate-write rules use it to
        # hit the first write but spare the re-write after repair.
        generation = 2 if had_outcomes else 1
        progress = {
            "start": time.monotonic(),
            "slice_cells": len(grid),
            "completed": len(grid) - len(pending) - quarantined_excluded,
            "quarantined": quarantined_excluded,
            "executed": 0,
        }
        self._progress_state = progress

        def emit_progress() -> None:
            if on_progress is not None:
                on_progress(self.progress())

        def record_failure(failure: CellFailure) -> None:
            nonlocal quarantine_handle, quarantined
            if quarantine_handle is None:  # lazily: fault-free runs → no file
                quarantine_handle = open(quarantine_target, "a", encoding="utf-8")
            write_quarantine_line(quarantine_handle, failure)
            quarantined += 1
            progress["quarantined"] += 1
            emit_progress()

        try:
            if pending:
                with open(target, "a", encoding="utf-8") as handle:
                    for _, outcome in iter_resilient_outcomes(
                        pending,
                        self.spec.engine,
                        self.workers,
                        self.max_block_size,
                        self.retry,
                        chaos=self.chaos,
                        on_failure=record_failure,
                    ):
                        # Canonical (wall-time-free) lines, one flush per
                        # line: a kill loses at most the line being written,
                        # which the next resume repairs.
                        line = _outcome_to_json_line(outcome, include_wall_time=False)
                        if self.chaos is not None:
                            maybe_truncate_write(
                                self.chaos,
                                cell_id(outcome.cell),
                                handle,
                                line,
                                attempt=generation,
                            )
                        handle.write(line)
                        handle.flush()
                        executed += 1
                        progress["executed"] += 1
                        progress["completed"] += 1
                        emit_progress()
        finally:
            self._progress_state = None
            if quarantine_handle is not None:
                quarantine_handle.close()
        return SweepJobResult(
            total=len(grid),
            skipped=len(grid) - len(pending) - quarantined_excluded,
            executed=executed,
            store_path=str(target),
            shard=shard,
            repaired=repaired,
            quarantined=quarantined,
            quarantined_excluded=quarantined_excluded,
            quarantine_path=str(quarantine_target),
        )

    # ---- progress ----------------------------------------------------

    def progress(self) -> SweepJobProgress:
        """A point-in-time snapshot: completion, throughput, ETA, quarantine.

        During an active :meth:`run` the snapshot reflects the run's live
        counters (cells/second and ETA are computed over the run's slice of
        the manifest cell count); between runs it is derived from the stores
        on disk, with zero rate and no ETA.
        """
        total = self.spec.cell_count
        state = self._progress_state
        if state is not None:
            elapsed = max(time.monotonic() - state["start"], 1e-9)
            rate = state["executed"] / elapsed
            remaining = max(
                0, state["slice_cells"] - state["completed"] - state["quarantined"]
            )
            eta = remaining / rate if state["executed"] > 0 else None
            return SweepJobProgress(
                total_cells=total,
                slice_cells=state["slice_cells"],
                completed_cells=state["completed"],
                quarantined_cells=state["quarantined"],
                executed_this_run=state["executed"],
                elapsed_seconds=elapsed,
                cells_per_second=rate,
                eta_seconds=eta,
            )
        stored = self.stored_cells()
        quarantined = sum(
            failure.cell not in stored
            for failure in read_quarantine_map(
                str(path) for path in self.quarantine_paths()
            ).values()
        )
        return SweepJobProgress(
            total_cells=total,
            slice_cells=total,
            completed_cells=len(stored),
            quarantined_cells=quarantined,
            executed_this_run=0,
            elapsed_seconds=0.0,
            cells_per_second=0.0,
            eta_seconds=None,
        )

    # ---- merging shard directories ------------------------------------

    def merge(self, sources: Sequence[Union[str, Path]]) -> List[Path]:
        """Pool the store files of other job directories into this one.

        The fleet pattern: ``k`` hosts each ran a shard into their own copy
        of the job directory; merging copies every store *and quarantine*
        file into this job's directory so :meth:`fold`/:meth:`outcomes` see
        the union.  Every source's manifest must match this job's on schema
        version, cell-ID algorithm and the full grid spec — pooling stores
        from a different grid would silently corrupt the union, so any
        mismatch (or a missing manifest) fails loudly with
        :class:`SweepJobError` before anything is copied.  A same-named file
        that already exists here must be byte-identical (the no-op of
        merging a directory twice); differing content is an error.  Returns
        the files newly copied in.
        """
        self.write_manifest()
        expected = self.manifest_payload()
        directories = [Path(source) for source in sources]
        for directory in directories:
            manifest_path = directory / self.MANIFEST_NAME
            try:
                manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
            except FileNotFoundError:
                raise SweepJobError(
                    f"cannot merge {directory}: no {self.MANIFEST_NAME} — not a "
                    "sweep job directory"
                ) from None
            except ValueError as error:
                raise SweepJobError(
                    f"cannot merge {directory}: manifest is not valid JSON: {error}"
                ) from error
            _normalize_manifest(manifest)
            for key in ("schema_version", "cell_id_algorithm", "spec"):
                if manifest.get(key) != expected[key]:
                    raise SweepJobError(
                        f"cannot merge {directory}: manifest {key!r} mismatch "
                        f"({manifest.get(key)!r} != {expected[key]!r}) — its "
                        "stores belong to a different sweep"
                    )
        copied: List[Path] = []
        for directory in directories:
            for pattern in (
                f"{self.STORE_STEM}*.jsonl",
                f"{self.QUARANTINE_STEM}*.jsonl",
            ):
                for path in sorted(directory.glob(pattern)):
                    destination = self.directory / path.name
                    data = path.read_bytes()
                    if destination.exists():
                        if destination.read_bytes() == data:
                            continue
                        raise SweepJobError(
                            f"cannot merge {path}: {destination} already exists "
                            "with different content — the same slice was run "
                            "with different outcomes or policies; resolve "
                            "manually"
                        )
                    destination.write_bytes(data)
                    copied.append(destination)
        return copied

    # ---- store compaction ---------------------------------------------

    def compact(self) -> CompactionResult:
        """Rewrite this job's stores as one canonical-order store.

        Merged, sharded, repaired or append-heavy job directories accumulate
        many store files whose line order is execution order (and may hold
        duplicate outcomes for the same cell across files).  Compaction folds
        every store into the single unsharded ``cells.jsonl``, records in
        *grid order* and canonical line form, then removes the other store
        files — the exact record set :meth:`iter_outcomes` yielded before
        (first store wins on duplicates, matching its semantics), just laid
        out as the store an uninterrupted single-process run would have
        written.  Quarantine stores are never touched.

        The rewrite is manifest-validated (the directory must belong to this
        job's grid, and every stored cell must be *in* that grid) and atomic
        (temp file + ``os.replace``; the old stores are removed only after
        the canonical store is durably in place).  It refuses to run
        mid-sweep: while this job object has an active :meth:`run`, or while
        any store has a truncated/corrupt tail — the signature of a killed
        or still-writing run — compaction raises :class:`SweepJobError`
        (``run(resume=True)`` repairs the tail first).
        """
        self.write_manifest()
        if self._progress_state is not None:
            raise SweepJobError(
                "cannot compact while a run is active on this job — wait for "
                "SweepJob.run to return"
            )
        store_paths = self.store_paths()
        # One read per store: the scan checks the tail and hands over every
        # outcome, of which the first store's wins per cell.
        stored: Dict[SweepCell, CellOutcome] = {}
        duplicates = 0

        def keep(outcome: CellOutcome) -> None:
            nonlocal duplicates
            if stored.setdefault(outcome.cell, outcome) is not outcome:
                duplicates += 1

        for path in store_paths:
            if scan_sweep_store(str(path), on_outcome=keep).corrupt:
                raise SweepJobError(
                    f"cannot compact: {path} has a truncated/corrupt tail "
                    "(a killed or still-running sweep?) — finish or resume "
                    "the job first (run(resume=True) repairs the tail)"
                )
        records = len(stored)
        canonical = self.store_path()
        temporary = canonical.with_suffix(".jsonl.tmp")
        with open(temporary, "w", encoding="utf-8") as handle:
            for cell in self.spec.cells():
                outcome = stored.pop(cell, None)
                if outcome is not None:
                    handle.write(_outcome_to_json_line(outcome, include_wall_time=False))
            handle.flush()
            os.fsync(handle.fileno())
        if stored:
            # The grid walk took the outcome of every grid cell, so what is
            # left, in store order, belongs to another sweep.
            temporary.unlink()
            foreign = next(iter(stored))
            path = next(
                path for path in store_paths
                if foreign in scan_sweep_store(str(path)).completed
            )
            raise SweepJobError(
                f"cannot compact: {path} holds an outcome for cell "
                f"{cell_id(foreign)} ({foreign}) that is not in this "
                "job's grid — the store belongs to a different sweep"
            )
        os.replace(temporary, canonical)
        removed = []
        for path in store_paths:
            if path != canonical:
                path.unlink()
                removed.append(str(path))
        return CompactionResult(
            store_path=str(canonical),
            records=records,
            removed_paths=tuple(removed),
            duplicates_dropped=duplicates,
        )

    # ---- reading & aggregation ----------------------------------------

    def iter_outcomes(self) -> Iterator[CellOutcome]:
        """Stream every stored outcome, deduplicated by cell across stores."""
        yield from _first_outcomes(self.store_paths(), CellSet())

    def outcomes(self) -> List[CellOutcome]:
        """Every stored outcome, in grid order (missing cells are absent)."""
        stored = {outcome.cell: outcome for outcome in self.iter_outcomes()}
        ordered = []
        for cell in self.spec.cells():
            outcome = stored.get(cell)
            if outcome is not None:
                ordered.append(outcome)
        return ordered

    def fold(self) -> SweepSummaryFold:
        """Incrementally aggregate every store without holding the cells.

        Quarantined cells fold in as excluded-with-reason counts
        (:attr:`~repro.sim.sweep.SweepSummaryFold.quarantined_count`).
        """
        return fold_sweep_jsonl(
            (str(path) for path in self.store_paths()),
            quarantine_paths=(str(path) for path in self.quarantine_paths()),
        )

    def summary(self) -> List[ExperimentRecord]:
        """Per-configuration summary rows over all stored outcomes."""
        return self.fold().records()


# ----------------------------------------------------------------------
# Command line: python -m repro.sim.job run --shard I/K ...
# ----------------------------------------------------------------------


def spec_from_manifest(payload: Dict) -> SweepSpec:
    """Rebuild the :class:`~repro.sim.sweep.SweepSpec` a manifest records.

    The inverse of :meth:`SweepJob.manifest_payload`'s ``spec`` block, so a
    CLI shard worker pointed at an existing job directory needs no grid
    flags at all — the manifest *is* the grid.
    """
    spec = payload["spec"]
    # Kept as the JSON number it was written as: cell IDs digest ``1`` and
    # ``1.0`` differently, so float() would give an integer-epsilon grid new
    # IDs and shard slices.
    epsilon = spec["epsilon"]
    if isinstance(epsilon, bool) or not isinstance(epsilon, (int, float)):
        raise SweepJobError(f"manifest epsilon must be a number, got {epsilon!r}")
    return SweepSpec(
        protocols=tuple(spec["protocols"]),
        system_sizes=tuple((int(n), int(t)) for n, t in spec["system_sizes"]),
        adversaries=tuple(spec["adversaries"]),
        workloads=tuple(spec["workloads"]),
        seeds=tuple(int(seed) for seed in spec["seeds"]),
        epsilon=epsilon,
        engine=spec["engine"],
        # Absent in v1 manifests: those grids were scalar by construction.
        dimensions=tuple(int(d) for d in spec.get("dimensions", [1])),
    )


def parse_shard(text: str) -> Tuple[int, int]:
    """Parse ``"I/K"`` (e.g. ``2/8``) into a validated ``(index, count)``."""
    index_text, separator, count_text = text.partition("/")
    try:
        if not separator:
            raise ValueError
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise ValueError(
            f"shard must look like I/K (e.g. 2/8), got {text!r}"
        ) from None
    return SweepJob._validate_shard((index, count))


def _parse_seeds(text: str) -> Tuple[int, ...]:
    """Parse a seed axis: ``0..99`` (inclusive range) or ``0,1,7`` (list)."""
    if ".." in text:
        low_text, _, high_text = text.partition("..")
        low, high = int(low_text), int(high_text)
        if high < low:
            raise ValueError(f"seed range {text!r} is empty")
        return tuple(range(low, high + 1))
    return tuple(int(part) for part in text.split(",") if part)


def _parse_sizes(text: str) -> Tuple[Tuple[int, int], ...]:
    """Parse the ``(n, t)`` axis: ``7:2,4:1`` → ``((7, 2), (4, 1))``."""
    sizes = []
    for part in text.split(","):
        if not part:
            continue
        n_text, separator, t_text = part.partition(":")
        if not separator:
            raise ValueError(f"size must look like n:t (e.g. 7:2), got {part!r}")
        sizes.append((int(n_text), int(t_text)))
    if not sizes:
        raise ValueError(f"no sizes in {text!r}")
    return tuple(sizes)


def _parse_dimensions(text: str) -> Tuple[int, ...]:
    """Parse a dimensions axis: a comma list of positive ints, e.g. ``1,2,3``."""
    dimensions = tuple(int(part) for part in text.split(",") if part)
    if not dimensions:
        raise ValueError(f"no dimensions in {text!r}")
    if any(dimension < 1 for dimension in dimensions):
        raise ValueError(f"dimensions must be positive, got {text!r}")
    return dimensions


def _job_from_args(args) -> SweepJob:
    """Build the job from CLI flags, or from the directory's manifest."""
    probe = SweepJob(
        SweepSpec(protocols=("sync",), system_sizes=((4, 1),)), args.directory
    )
    manifest = probe.load_manifest()
    if args.protocols is None:
        if manifest is None:
            raise SweepJobError(
                f"{probe.manifest_path} does not exist and no grid flags were "
                "given; pass --protocols/--sizes (plus optional axes) to "
                "define the grid, or point --dir at an existing job"
            )
        spec = spec_from_manifest(manifest)
        retry_payload = manifest.get("retry_policy")
        retry = (
            None if retry_payload is None else RetryPolicy.from_payload(retry_payload)
        )
    else:
        if args.sizes is None:
            raise SweepJobError("--protocols requires --sizes (n:t pairs)")
        spec = SweepSpec(
            protocols=tuple(args.protocols.split(",")),
            system_sizes=_parse_sizes(args.sizes),
            adversaries=tuple(args.adversaries.split(",")),
            workloads=tuple(args.workloads.split(",")),
            seeds=_parse_seeds(args.seeds),
            epsilon=args.epsilon,
            engine=args.engine,
            dimensions=_parse_dimensions(args.dimensions),
        )
        retry = RetryPolicy(max_attempts=args.retry) if args.retry else None
    return SweepJob(
        spec,
        args.directory,
        workers=args.workers,
        max_block_size=args.max_block_size,
        retry=retry,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI front door for sweep jobs — one shard worker per invocation.

    ``run`` executes (a shard of) a job, resumable by default; ``progress``
    and ``summary`` inspect an existing job directory.  The block float
    dtype and planner budget are taken from the ``REPRO_ARRAY_DTYPE`` /
    ``REPRO_BLOCK_BUDGET_BYTES`` environment variables (see
    :mod:`repro.sim.planner`), so a CI matrix can vary them without changing
    the manifest.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.sim.job",
        description="Resumable, sharded sweep jobs over the JSONL store.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser(
        "run", help="execute (a shard of) a job, resuming by default"
    )
    run_parser.add_argument("--dir", dest="directory", required=True,
                            help="job directory (manifest + stores)")
    run_parser.add_argument("--shard", type=parse_shard, default=None,
                            metavar="I/K",
                            help="run only slice I of K disjoint slices")
    run_parser.add_argument("--protocols", default=None,
                            help="comma list (omit to reuse the manifest)")
    run_parser.add_argument("--sizes", default=None,
                            help="comma list of n:t pairs, e.g. 7:2,10:3")
    run_parser.add_argument("--adversaries", default="none")
    run_parser.add_argument("--workloads", default="uniform")
    run_parser.add_argument("--seeds", default="0",
                            help="0..99 (inclusive range) or 0,1,7")
    run_parser.add_argument("--dimensions", default="1",
                            help="comma list of value dimensions, e.g. 1,2,3 "
                                 "(d > 1 runs vector agreement in R^d)")
    run_parser.add_argument("--epsilon", type=float, default=1e-3)
    run_parser.add_argument("--engine", default="auto",
                            choices=("auto", "batch", "ndbatch", "event"))
    run_parser.add_argument("--workers", type=int, default=None)
    run_parser.add_argument("--max-block-size", type=int,
                            default=DEFAULT_MAX_BLOCK_SIZE)
    run_parser.add_argument("--retry", type=int, default=0, metavar="N",
                            help="retry failing cells up to N attempts "
                                 "(quarantine after); 0 = fail fast")
    run_parser.add_argument("--no-resume", action="store_true",
                            help="refuse to append to an existing store")
    run_parser.add_argument("--overwrite", action="store_true",
                            help="discard this slice's existing store first")
    run_parser.add_argument("--retry-quarantined", action="store_true",
                            help="re-execute previously quarantined cells")

    for name in ("progress", "summary", "compact"):
        sub = commands.add_parser(
            name,
            help={
                "progress": "print completed/remaining counts",
                "summary": "print the per-configuration summary table",
                "compact": "rewrite the job's stores as one canonical-order "
                           "store (refuses mid-sweep)",
            }[name],
        )
        sub.add_argument("--dir", dest="directory", required=True)

    args = parser.parse_args(argv)

    if args.command == "run":
        job = _job_from_args(args)
        result = job.run(
            resume=not args.no_resume,
            shard=args.shard,
            overwrite=args.overwrite,
            retry_quarantined=args.retry_quarantined,
        )
        shard_note = (
            "" if args.shard is None else f" (shard {args.shard[0]}/{args.shard[1]})"
        )
        print(
            f"{job.store_path(args.shard)}{shard_note}: "
            f"{result.executed} executed, {result.skipped} skipped, "
            f"{result.quarantined} quarantined, {result.total} in slice"
        )
        return 0 if result.quarantined == 0 else 1

    probe = SweepJob(
        SweepSpec(protocols=("sync",), system_sizes=((4, 1),)), args.directory
    )
    manifest = probe.load_manifest()
    if manifest is None:
        raise SweepJobError(f"no job manifest in {args.directory}")
    job = SweepJob(spec_from_manifest(manifest), args.directory)
    if args.command == "compact":
        # compact() re-validates the manifest, whose retry_policy is part of
        # the document — carry it over so the comparison sees this job as
        # the one the directory belongs to.
        retry_payload = manifest.get("retry_policy")
        if retry_payload is not None:
            job.retry = RetryPolicy.from_payload(retry_payload)
        compaction = job.compact()
        print(
            f"{compaction.store_path}: {compaction.records} records in grid "
            f"order, {compaction.duplicates_dropped} duplicates dropped, "
            f"{len(compaction.removed_paths)} store file(s) removed"
        )
        return 0
    if args.command == "progress":
        progress = job.progress()
        print(
            f"{args.directory}: {progress.completed_cells}/{progress.total_cells} "
            f"complete, {progress.remaining_cells} remaining, "
            f"{progress.quarantined_cells} quarantined"
        )
        return 0
    from repro.analysis.tables import render_fold
    from repro.sim.sweep import SUMMARY_COLUMNS

    print(render_fold(job.fold(), SUMMARY_COLUMNS, title=f"sweep job {args.directory}"))
    return 0
