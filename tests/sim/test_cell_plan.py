"""One derivation per cell: a sweep cell is planned once, where its engine is decided.

:func:`repro.sim.sweep._plan_cell` derives a cell's inputs, bounds, round
count, round fault model, omission policy and scenario features.  Block
grouping, ``auto``'s engine choice, chunk packing and the ndbatch chunk
runner read the plan, which travels inside its chunk to the block that runs
it; a cell that runs on its own is planned in :func:`repro.sim.sweep.run_cell`,
which also checks its engine against the plan's features.  These tests count
the adversary bundles, round fault models and engine selections a sweep and a
single ``run_cell`` make, check that an explicit engine is refused the same
way at every dimension, and check that plans pickled to pool workers run to
the same outcomes.
"""

from __future__ import annotations

import functools
import importlib
import sys

import pytest

from repro.sim.engine import EngineCapabilityError, numpy_available
from repro.sim.sweep import SweepCell, SweepSpec, run_cell, run_sweep

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


def _counted(monkeypatch, run):
    counters = {
        label: _count_calls(monkeypatch, module, name)
        for label, (module, name) in DERIVATIONS.items()
    }
    result = run()
    return result, {label: len(calls) for label, calls in counters.items()}


def _counted_sweep(monkeypatch, spec):
    return _counted(monkeypatch, lambda: run_sweep(spec, workers=1))


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
    # then run one by one through run_cell, which plans them again where
    # they run.  Covered cells derive once.
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


@needs_numpy
@pytest.mark.parametrize("dimension", [1, 3])
@pytest.mark.parametrize("engine", ["auto", "event", "batch", "ndbatch"])
@pytest.mark.parametrize("protocol, n, t", [("async-crash", 7, 2), ("async-byzantine", 11, 2)])
def test_single_run_cell_plans_once_and_selects_at_most_once(
    monkeypatch, protocol, n, t, engine, dimension
):
    # auto sends the small async-crash cell to batch at d = 1 and the rest to
    # ndbatch; a d > 1 batch cell also builds a fresh bundle per coordinate.
    cell = SweepCell(protocol, n, t, 1e-3, "byz-anti", "uniform", 0, "auto", dimension)
    outcome, counts = _counted(monkeypatch, lambda: run_cell(cell, engine=engine))
    per_coordinate = dimension if outcome.engine_used == "batch" and dimension > 1 else 0
    assert counts["bundles"] == 1 + per_coordinate, counts
    assert counts["selections"] == (1 if engine == "auto" else 0), counts
    if outcome.engine_used == "ndbatch":
        assert counts["fault_models"] == 1, counts


@pytest.mark.parametrize("engine", ["ndbatch", "batch"])
def test_explicit_engine_is_checked_against_the_whole_scenario_at_every_dimension(engine):
    # Mid-multicast crashes under the witness protocol: only the event engine
    # runs them, whatever the dimension, and the refusal is the same.
    refusals = []
    for dimension in (1, 3):
        cell = SweepCell("witness", 7, 2, 1e-3, "crash-staggered", "uniform", 0, "auto", dimension)
        with pytest.raises(EngineCapabilityError) as raised:
            run_cell(cell, engine=engine)
        error = raised.value
        refusals.append((error.engine, error.reason, error.capable, error.rejections))
    assert refusals[0] == refusals[1]
    assert refusals[0][2] == ("event",)
