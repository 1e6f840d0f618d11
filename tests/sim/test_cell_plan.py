"""One derivation per cell: a sweep cell is planned once, where its engine is decided.

:func:`repro.sim.sweep._plan_cell` derives a cell's inputs, bounds, round
count, round fault model, omission policy and scenario features.  Block
grouping, ``auto``'s engine choice, chunk packing and the ndbatch chunk
runner read the plan, which travels inside its chunk to the block that runs
it.  These tests count the adversary bundles, round fault models and engine
selections a sweep makes, and check that plans pickled to pool workers run
to the same outcomes.
"""

from __future__ import annotations

import functools
import importlib
import sys

import pytest

from repro.sim.engine import numpy_available
from repro.sim.sweep import SweepSpec, run_sweep

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="the vectorised engine requires numpy"
)

#: (module, name) of every derivation a cell needs before it runs.
DERIVATIONS = {
    "bundles": ("repro.sim.sweep", "build_adversary_bundle"),
    "fault_models": ("repro.net.adversary", "round_fault_model"),
    "selections": ("repro.sim.engine", "select_engine"),
}


def _count_calls(monkeypatch, module_name, name):
    """Count calls of ``module.name`` through every ``repro`` module holding it."""
    original = getattr(importlib.import_module(module_name), name)
    calls = []

    @functools.wraps(original)
    def counting(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    for module_key, module in list(sys.modules.items()):
        if module_key.split(".")[0] != "repro" or module is None:
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attribute, counting)
    return calls


def _counted_sweep(monkeypatch, spec):
    counters = {
        label: _count_calls(monkeypatch, module, name)
        for label, (module, name) in DERIVATIONS.items()
    }
    outcomes = run_sweep(spec, workers=1)
    return outcomes, {label: len(calls) for label, calls in counters.items()}


GRIDS = {
    # Linear inputs give every cell of a shape one round count, so each
    # block is big enough for ndbatch.
    "async-crash-d1": SweepSpec(
        protocols=("async-crash",),
        system_sizes=((7, 2), (10, 3)),
        adversaries=("crash-staggered", "staggered"),
        workloads=("linear",),
        seeds=(0, 1, 2),
        engine="auto",
    ),
    "async-byzantine-d3": SweepSpec(
        protocols=("async-byzantine",),
        system_sizes=((11, 2),),
        adversaries=("byz-anti", "found-anti-stagger"),
        workloads=("rendezvous",),
        seeds=(0, 1, 2),
        engine="auto",
        dimensions=(3,),
    ),
    "witness": SweepSpec(
        protocols=("witness",),
        system_sizes=((7, 2),),
        adversaries=("none", "byz-anti"),
        seeds=(0, 1, 2),
        engine="auto",
    ),
}


@needs_numpy
@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_one_derivation_per_cell(monkeypatch, grid):
    spec = GRIDS[grid]
    outcomes, counts = _counted_sweep(monkeypatch, spec)
    cells = spec.cell_count
    assert len(outcomes) == cells
    expected_engine = "batch" if grid == "witness" else "ndbatch"
    assert {outcome.engine_used for outcome in outcomes} == {expected_engine}
    assert 0 < counts["bundles"] <= cells, counts
    assert 0 < counts["selections"] <= cells, counts
    if grid != "witness":
        # The witness cells' batch engine derives its own fault model from
        # the fault plan, beside the one engine.run's features read.
        assert 0 < counts["fault_models"] <= cells, counts


@needs_numpy
def test_plans_pickled_to_pool_workers_run_identically():
    # Several units (max_block_size=2), each a chunk of plans holding
    # Byzantine strategy programs, so the pool receives pickled plans.
    spec = SweepSpec(
        protocols=("async-byzantine",),
        system_sizes=((11, 2),),
        adversaries=("byz-anti", "byz-random"),
        seeds=(0, 1, 2),
        engine="auto",
    )
    serial = run_sweep(spec, workers=1, max_block_size=2)
    pooled = run_sweep(spec, workers=2, max_block_size=2)
    assert {outcome.engine_used for outcome in serial} == {"ndbatch"}
    assert pooled == serial


def test_event_vector_cells_run_on_their_plans_bundle(monkeypatch):
    # The event engine takes the message-level fault plan and delay model:
    # a d > 1 cell runs on the bundle its plan was derived from.
    spec = SweepSpec(
        protocols=("async-crash",),
        system_sizes=((5, 1),),
        adversaries=("crash-staggered", "staggered"),
        seeds=(0, 1),
        engine="event",
        dimensions=(3,),
    )
    outcomes, counts = _counted_sweep(monkeypatch, spec)
    cells = spec.cell_count
    assert {outcome.engine_used for outcome in outcomes} == {"event"}
    assert counts["bundles"] == cells, counts
    assert counts["fault_models"] <= cells, counts
    assert counts["selections"] == 0, counts


@needs_numpy
def test_uncovered_auto_cells_derive_once_more_where_they_run(monkeypatch):
    # The n=4 block (2 cells × 7 rounds × 4 = 56 work) is below
    # ndbatch_min_work(): the parent plans its cells to group them, and they
    # then run one by one through engine.run, which derives their scenario
    # again.  Covered cells derive once.
    spec = SweepSpec(
        protocols=("async-crash",),
        system_sizes=((4, 1), (7, 2)),
        adversaries=("crash-staggered",),
        workloads=("linear",),
        seeds=(0, 1),
        engine="auto",
    )
    outcomes, counts = _counted_sweep(monkeypatch, spec)
    engines = {outcome.cell.n: outcome.engine_used for outcome in outcomes}
    assert engines == {4: "batch", 7: "ndbatch"}
    uncovered = sum(outcome.engine_used != "ndbatch" for outcome in outcomes)
    assert counts["bundles"] <= spec.cell_count + uncovered, counts
    assert counts["selections"] <= spec.cell_count + uncovered, counts
