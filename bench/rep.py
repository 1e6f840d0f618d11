"""One benchmark rep, or one invocation's preparation, in a fresh process.

``run.py`` starts this with ``PYTHONPATH=src``, BLAS/OpenMP threads pinned
to 1 and the invocation's ``REPRO_CALIBRATION_DIR``; it prints one JSON
line on stdout::

    python3 bench/rep.py prepare --workload NAME --seed S --dir DIR [--quick]
    python3 bench/rep.py rep --workload NAME --seed S --dir DIR --rep K [--trace] [--quick]

``prepare`` runs once per invocation, untimed.  It re-runs the sampled
cells on the workload's reference engine and writes ``reference.json``;
for store-replay it also generates the sharded store the reps read back.

``rep`` times ``SweepJob(spec, dir, workers=W).run()`` and ``.fold()``
(store-replay: resume, fold, progress, compact, fold on a fresh copy of
the store) after every import has finished, records peak RSS, and then,
outside the timed region, checks the outputs.  With ``--trace`` the
wrappers of ``trace.py`` are installed before the job starts and the rep
also reports the per-layer table.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import random
import resource
import shutil
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent


def _load(name: str):
    """Import ``bench/<name>.py`` by path (``trace`` would clash with the stdlib)."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", HERE / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


bench_trace = _load("trace")

from repro.sim.job import SweepJob, cell_id  # noqa: E402
from repro.sim.sweep import SweepSpec, run_cell  # noqa: E402
from workloads import SAMPLE_CELLS, WORKLOADS  # noqa: E402

#: Largest difference allowed between two engines' output spreads; integer
#: costs (rounds, messages, bits) must match exactly.
SPREAD_TOLERANCE = 1e-9


def build_spec(workload, seed: int, quick: bool) -> SweepSpec:
    return SweepSpec(
        protocols=workload.protocols,
        system_sizes=workload.sizes,
        adversaries=workload.adversaries,
        workloads=workload.inputs,
        seeds=workload.seed_axis(seed, quick),
        engine="auto",
        dimensions=(workload.dimension,),
    )


def sample_cells(cells: List, seed: int) -> List:
    """The cells re-run on the reference engine: a seeded sample of the grid."""
    count = min(SAMPLE_CELLS, len(cells))
    picked = sorted(random.Random(seed).sample(range(len(cells)), count))
    return [cells[index] for index in picked]


def measured(outcome) -> Dict:
    return {
        "rounds": outcome.rounds,
        "messages": outcome.messages,
        "bits": outcome.bits,
        "spread": outcome.output_spread,
    }


def mismatch(references: List[Dict], outcome) -> str:
    """Why ``outcome`` disagrees with a reference run ('' if it agrees with all)."""
    got = measured(outcome)
    for reference in references:
        engine, want = reference["engine"], reference["values"]
        for key in reference["fields"]:
            if key != "spread" and got[key] != want[key]:
                return f"{key} {got[key]} != {want[key]} on {engine}"
        if "spread" in reference["fields"]:
            low, high = got["spread"], want["spread"]
            if not (math.isnan(low) and math.isnan(high)) and not (
                abs(low - high) <= SPREAD_TOLERANCE
            ):
                return f"spread {low!r} != {high!r} on {engine}"
    return ""


def reference_runs(workload, cells: List, seed: int) -> Dict[str, List[Dict]]:
    """The sampled cells' measurements on every reference engine, by cell ID."""
    return {
        cell_id(cell): [
            {"engine": engine, "fields": fields,
             "values": measured(run_cell(cell, engine=engine))}
            for engine, fields in workload.references
        ]
        for cell in sample_cells(cells, seed)
    }


def check_stored(cells: List, stored: Dict, reference: Dict) -> Dict[str, str]:
    """Failed cells by ID: missing (or quarantined), not ok, or off-reference.

    ``bound_respected`` is deliberately not checked: crash-staggered cells
    exceed the per-round contraction bound on every engine (see README).
    """
    failures: Dict[str, str] = {}
    for cell in cells:
        identity = cell_id(cell)
        outcome = stored.get(identity)
        if outcome is None:
            failures[identity] = f"{cell}: no stored outcome"
        elif not outcome.ok:
            failures[identity] = f"{cell}: not ok {list(outcome.violations)}"
        elif identity in reference:
            why = mismatch(reference[identity], outcome)
            if why:
                failures[identity] = f"{cell}: {why}"
    return failures


def prepare(workload, seed: int, quick: bool, directory: Path) -> Dict:
    spec = build_spec(workload, seed, quick)
    cells = list(spec.cells())
    reference = reference_runs(workload, cells, seed)
    (directory / "reference.json").write_text(json.dumps(reference), encoding="utf-8")
    if not workload.shards:
        return {"attempted": 0, "failed": 0, "failures": []}
    job = SweepJob(spec, str(directory / "store"), workers=workload.workers)
    for index in range(workload.shards):
        job.run(shard=(index, workload.shards))
    stored = {cell_id(outcome.cell): outcome for outcome in job.iter_outcomes()}
    failures = check_stored(cells, stored, reference)
    return {
        "attempted": len(cells),
        "failed": len(failures),
        "failures": sorted(failures.values())[:5],
    }


def _replay_failures(cells: List, result, before, after) -> List[str]:
    failures = []
    if result.executed or result.skipped != len(cells):
        failures.append(
            f"resume over a complete store executed {result.executed} cells "
            f"and skipped {result.skipped} of {len(cells)}"
        )
    for label, fold in (("before", before), ("after", after)):
        if fold.total_outcomes != len(cells):
            failures.append(
                f"fold {label} compact holds {fold.total_outcomes} of {len(cells)} cells"
            )
        not_ok = [
            record.params for record in fold.records()
            if record.measured["ok_fraction"] != 1.0
        ]
        if not_ok:
            failures.append(f"fold {label} compact has groups not all ok: {not_ok[:2]}")
    if before.records() != after.records():
        failures.append("fold records differ before and after compact()")
    return failures


def rep(workload, seed: int, quick: bool, directory: Path, index: int, traced: bool) -> Dict:
    spec = build_spec(workload, seed, quick)
    cells = list(spec.cells())
    job_dir = directory / f"rep-{index}"
    if workload.shards:
        shutil.copytree(directory / "store", job_dir)
    tracer = None
    marks: List[float] = []
    on_progress = None
    if traced:
        spans_dir = directory / f"spans-{index}"
        spans_dir.mkdir()
        tracer = bench_trace.Tracer(str(spans_dir), workload.name, index).install()

        def on_progress(_snapshot) -> None:
            marks.append(time.perf_counter())

    job = SweepJob(spec, str(job_dir), workers=workload.workers)
    start = time.perf_counter()
    if workload.shards:
        result = job.run(on_progress=on_progress)
        before = job.fold()
        job.progress()
        job.compact()
        after = job.fold()
    else:
        job.run(on_progress=on_progress)
        job.fold()
    wall = time.perf_counter() - start
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    report: Dict = {"wall_s": wall, "cells": len(cells), "rss_mb": peak_kib / 1024.0}
    if tracer is not None:
        tracer.uninstall()
        records = tracer.collect()
        trace_path = directory / f"trace-{index}.jsonl"
        with open(trace_path, "w", encoding="utf-8") as handle:
            handle.write("".join(json.dumps(record) + "\n" for record in records))
        layers = bench_trace.layer_table(records)
        store_bytes = sum(path.stat().st_size for path in job.store_paths())
        gaps = [later - earlier for earlier, later in zip([start] + marks, marks)]
        layers["job.store_bytes_per_cell"] = store_bytes / len(cells)
        layers["job.first_outcome_s"] = marks[0] - start if marks else 0.0
        layers["job.max_flush_gap_s"] = max(gaps) if gaps else 0.0
        report["layers"] = layers
        report["trace_path"] = str(trace_path)
    if workload.shards:
        failures = _replay_failures(cells, result, before, after)
        failed = len(cells) if failures else 0
    else:
        reference = json.loads((directory / "reference.json").read_text(encoding="utf-8"))
        stored = {cell_id(outcome.cell): outcome for outcome in job.iter_outcomes()}
        by_cell = check_stored(cells, stored, reference)
        failures, failed = sorted(by_cell.values()), len(by_cell)
    report.update(attempted=len(cells), failed=failed, failures=failures[:5])
    shutil.rmtree(job_dir)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("prepare", "rep"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    directory = Path(args.dir)
    if args.mode == "prepare":
        report = prepare(workload, args.seed, args.quick, directory)
    else:
        report = rep(workload, args.seed, args.quick, directory, args.rep, args.trace)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
