"""E14 — Resumable sweep jobs: the cost of surviving a kill is near zero.

The job layer (:mod:`repro.sim.job`) wraps the sweep engine core in a
manifest-carrying, content-addressed JSONL store: every outcome line is
flushed as the pool hands it back, so a killed run keeps its finished
cells and ``resume=True`` re-executes only what is missing.  This
benchmark measures what that durability costs and what resume saves:

* **Job overhead** — a fresh `SweepJob.run()` versus a raw
  ``run_sweep(jsonl_path=...)`` over the same grid (the job adds manifest
  I/O, a scan of the existing stores for completed cells and a per-line
  flush; the fraction must stay small against the simulation work).
* **Resume speedup** — the store is truncated to its first half plus a
  partial trailing line (the normal end state of a kill), then resumed;
  re-executing only the missing half must be close to twice as fast as
  starting over, and the repaired store must be bit-identical (modulo
  line order) to the uninterrupted one.
* **Shard throughput** — the grid is run as 4 disjoint hash shards whose
  union is exactly the grid, then folded back into summary rows through
  the streaming aggregator (:func:`repro.sim.job.fold_sweep_jsonl`),
  whose cells/second rate is recorded.

Recorded in ``BENCH_sweep_job.json`` (committed, uploaded as a CI
artifact): wall times, the resume speedup (acceptance bar ``>= 1.3x``
against a ~2x ideal for a half-done store), the overhead fraction, and
the fold rate.
"""

from __future__ import annotations

import time

from repro.sim.job import SweepJob, cell_id, fold_sweep_jsonl
from repro.sim.sweep import SUMMARY_COLUMNS, SweepSpec, run_sweep

from conftest import emit_table, write_bench_json

#: Resuming a half-done store should approach 2x; the bar leaves noise room.
REQUIRED_RESUME_SPEEDUP = 1.3

SPEC = SweepSpec(
    protocols=("async-crash",),
    system_sizes=((13, 4),),
    adversaries=("none", "crash-staggered"),
    workloads=("uniform", "two-cluster"),
    seeds=tuple(range(75)),
    epsilon=1e-3,
    engine="batch",  # runs everywhere; job semantics are engine-independent
)  # 300 cells


def _timed_job_run(directory, **kwargs):
    job = SweepJob(SPEC, directory, workers=1)
    started = time.perf_counter()
    result = job.run(**kwargs)
    return job, result, time.perf_counter() - started


def test_e14_resumable_job_overhead_resume_and_shards(tmp_path):
    # Raw streaming sweep: the floor the job layer's durability rides on.
    raw_path = tmp_path / "raw.jsonl"
    started = time.perf_counter()
    raw_written = run_sweep(SPEC, workers=1, jsonl_path=str(raw_path))
    raw_seconds = time.perf_counter() - started
    assert raw_written == SPEC.cell_count

    # Fresh job run over the same grid: manifest + cell IDs + per-line flush.
    job, fresh, fresh_seconds = _timed_job_run(tmp_path / "fresh")
    assert (fresh.executed, fresh.skipped) == (SPEC.cell_count, 0)
    overhead_fraction = max(0.0, fresh_seconds / raw_seconds - 1.0)
    reference_lines = sorted(
        job.store_path().read_text(encoding="utf-8").splitlines()
    )

    # Kill simulation: keep the first half plus a truncated partial line.
    killed = SweepJob(SPEC, tmp_path / "killed", workers=1)
    killed.run()
    lines = killed.store_path().read_text(encoding="utf-8").splitlines(keepends=True)
    half = len(lines) // 2
    killed.store_path().write_text(
        "".join(lines[:half]) + lines[half][:41], encoding="utf-8"
    )
    started = time.perf_counter()
    resumed = killed.run(resume=True)
    resume_seconds = time.perf_counter() - started
    assert resumed.repaired
    assert resumed.skipped == half
    assert resumed.executed == SPEC.cell_count - half
    # Bit-identical modulo line order: the acceptance bar of the job layer.
    assert (
        sorted(killed.store_path().read_text(encoding="utf-8").splitlines())
        == reference_lines
    )
    resume_speedup = fresh_seconds / resume_seconds

    # Disjoint hash shards whose union is exactly the grid.
    sharded = SweepJob(SPEC, tmp_path / "sharded", workers=1)
    shard_count = 4
    started = time.perf_counter()
    executed = sum(
        sharded.run(shard=(index, shard_count)).executed
        for index in range(shard_count)
    )
    shard_seconds = time.perf_counter() - started
    assert executed == SPEC.cell_count
    assert sharded.is_complete()

    # Streaming fold over the shard stores: constant memory, full summary.
    started = time.perf_counter()
    fold = fold_sweep_jsonl(str(path) for path in sharded.store_paths())
    fold_seconds = time.perf_counter() - started
    assert fold.total_outcomes == SPEC.cell_count
    records = fold.records()
    assert records == job.summary()
    emit_table("E14 — sharded sweep job, folded summary", records, SUMMARY_COLUMNS)

    assert resume_speedup >= REQUIRED_RESUME_SPEEDUP, (
        f"resuming a half-done store was only {resume_speedup:.2f}x faster "
        f"than a fresh run (required {REQUIRED_RESUME_SPEEDUP}x)"
    )

    write_bench_json(
        "sweep_job",
        {
            "grid": {
                "cells": SPEC.cell_count,
                "protocol": "async-crash",
                "engine": SPEC.engine,
                "shards": shard_count,
            },
            "raw_run_sweep_seconds": round(raw_seconds, 4),
            "fresh_job_seconds": round(fresh_seconds, 4),
            "job_overhead_fraction": round(overhead_fraction, 4),
            "resume_half_store_seconds": round(resume_seconds, 4),
            "resume_speedup": round(resume_speedup, 2),
            "required_resume_speedup": REQUIRED_RESUME_SPEEDUP,
            "sharded_run_seconds": round(shard_seconds, 4),
            "fold_cells_per_second": round(SPEC.cell_count / fold_seconds, 1),
            "resumed_store_bit_identical": True,
            "shard_union_is_exact_grid": True,
        },
    )


def test_e14_shard_assignment_is_balanced_enough():
    # Hash partitioning gives no formal balance guarantee; this pins that the
    # SHA-256-based assignment spreads a real grid within a sane envelope so
    # a CI matrix does not end up with one shard doing most of the work.
    shard_count = 4
    sizes = [len(SweepJob(SPEC, "unused").cells(shard=(i, shard_count))) for i in range(shard_count)]
    assert sum(sizes) == SPEC.cell_count
    expected = SPEC.cell_count / shard_count
    for size in sizes:
        assert 0.5 * expected <= size <= 1.5 * expected, sizes
    ids = {cell_id(cell) for cell in SPEC.cells()}
    assert len(ids) == SPEC.cell_count
