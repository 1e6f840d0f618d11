"""Tests for the per-cell work-unit rule (:func:`repro.sim.resilient._cells_units`).

A grid of fewer than ``DEFAULT_UNIT_CELLS`` cells per share (four shares
per worker) is cut into equal units; a larger grid goes out in guided units
of ⌈remaining / shares⌉ cells, between ``DEFAULT_UNIT_CELLS`` and
``MAX_UNIT_CELLS``.  The first class checks the sizes alone; the second
runs cells through multi-cell units on a 2-worker pool: the store bytes,
the fail-fast error and the quarantine of one poisoned cell must not
depend on how many cells share its unit.
"""

from __future__ import annotations

import itertools
import multiprocessing
import time

import pytest

import repro.sim.resilient as resilient_module
from repro.sim.job import SweepJob
from repro.sim.resilient import (
    DEFAULT_UNIT_CELLS,
    MAX_UNIT_CELLS,
    RetryPolicy,
    iter_resilient_outcomes,
)
from repro.sim.sweep import ADVERSARY_SPECS, SweepSpec, run_sweep

GRID_SIZES = (1, 7, 12, 30, 64, 200, 1536, 10**6)
WORKER_COUNTS = (1, 2, 3, 8)

#: ``(cells, workers)`` → unit sizes as ``(size, repeat)`` runs, recorded
#: from the fixed-size rule for every grid below 32 · workers cells.
FIXED_SIZES = {
    (1, 1): [(1, 1)],
    (7, 1): [(1, 7)],
    (12, 1): [(3, 4)],
    (30, 1): [(7, 4), (2, 1)],
    (1, 2): [(1, 1)],
    (7, 2): [(1, 7)],
    (12, 2): [(1, 12)],
    (30, 2): [(3, 10)],
    (1, 3): [(1, 1)],
    (7, 3): [(1, 7)],
    (12, 3): [(1, 12)],
    (30, 3): [(2, 15)],
    (64, 3): [(5, 12), (4, 1)],
    (1, 8): [(1, 1)],
    (7, 8): [(1, 7)],
    (12, 8): [(1, 12)],
    (30, 8): [(1, 30)],
    (64, 8): [(2, 32)],
    (200, 8): [(6, 33), (2, 1)],
}


def _sizes(count, workers):
    units = resilient_module._cells_units(range(count), range(count), workers)
    return units, [len(unit.indices) for unit in units]


def _runs(sizes):
    return [(size, len(list(group))) for size, group in itertools.groupby(sizes)]


class TestUnitSizes:
    """Size lists only: no cell runs."""

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("count", GRID_SIZES)
    def test_units_partition_the_grid_in_order(self, count, workers):
        units, sizes = _sizes(count, workers)
        assert list(itertools.chain.from_iterable(unit.indices for unit in units)) == list(
            range(count)
        )
        assert all(list(unit.cells) == list(unit.indices) for unit in units)
        assert max(sizes) <= MAX_UNIT_CELLS
        assert sizes == sorted(sizes, reverse=True)  # units only shrink
        if count < DEFAULT_UNIT_CELLS * 4 * workers:
            assert _runs(sizes) == FIXED_SIZES[count, workers]
        else:
            # Guided: no unit but the grid's last falls below the floor.
            assert min(sizes[:-1], default=DEFAULT_UNIT_CELLS) >= DEFAULT_UNIT_CELLS

    def test_witness_batch_grid_goes_out_in_a_few_dozen_units(self):
        # 192 units of 8 cells under the fixed rule.
        _, sizes = _sizes(1536, 2)
        assert len(sizes) <= 48
        assert sizes[0] == MAX_UNIT_CELLS

    def test_guided_units_start_where_fixed_units_reach_the_floor(self):
        # 32 · workers cells, the smallest guided grid: every unit is the
        # floor, which is also what the fixed rule gives there.
        for workers in WORKER_COUNTS:
            _, sizes = _sizes(32 * workers, workers)
            assert sizes == [DEFAULT_UNIT_CELLS] * (4 * workers)


def _assert_children_drain(deadline_seconds=10.0):
    deadline = time.monotonic() + deadline_seconds
    while multiprocessing.active_children():
        assert time.monotonic() < deadline, (
            "pool workers leaked: %r" % multiprocessing.active_children()
        )
        time.sleep(0.05)


#: 128 witness cells: at two workers, guided units of 16, 14, 13, ... cells.
WITNESS_SPEC = SweepSpec(
    protocols=("witness",),
    system_sizes=((7, 2),),
    adversaries=("none", "byz-anti"),
    workloads=("uniform", "two-cluster"),
    seeds=tuple(range(32)),
)


class Boom(Exception):
    """A cell-level error that must come back with its own type."""


def _poisoned_spec(monkeypatch):
    """128 witness cells; building the adversary of seed 5 raises ``Boom``."""
    honest = ADVERSARY_SPECS["none"]

    def factory(protocol, n, t, seed):
        if seed == 5:
            raise Boom(f"cell of seed {seed} exploded")
        return honest(protocol, n, t, seed)

    monkeypatch.setitem(ADVERSARY_SPECS, "boom", factory)
    spec = SweepSpec(
        protocols=("witness",),
        system_sizes=((7, 2),),
        adversaries=("boom",),
        seeds=tuple(range(128)),
    )
    cells = list(spec.cells())
    (poisoned,) = [index for index, cell in enumerate(cells) if cell.seed == 5]
    (unit,) = [
        unit
        for unit in resilient_module._cells_units(cells, list(range(len(cells))), 2)
        if poisoned in unit.indices
    ]
    assert len(unit.indices) > 1  # the poisoned cell shares its unit
    return spec, cells, poisoned


class TestGuidedUnitsOnThePool:
    def test_pool_job_writes_the_serial_store(self, tmp_path):
        assert WITNESS_SPEC.cell_count >= 128
        serial = SweepJob(WITNESS_SPEC, tmp_path / "serial", workers=1)
        pooled = SweepJob(WITNESS_SPEC, tmp_path / "pooled", workers=2)
        serial.run()
        pooled.run()
        assert serial.store_path().read_bytes() == pooled.store_path().read_bytes()
        _assert_children_drain()

    def test_fail_fast_error_keeps_its_type_and_worker_traceback(self, monkeypatch):
        spec, _, _ = _poisoned_spec(monkeypatch)
        with pytest.raises(Boom, match="cell of seed 5 exploded") as raised:
            run_sweep(spec, workers=2)
        assert "in factory" in str(raised.value.__cause__)  # the worker's traceback
        _assert_children_drain()

    def test_retry_quarantines_only_the_poisoned_cell(self, monkeypatch):
        spec, cells, poisoned = _poisoned_spec(monkeypatch)
        policy = RetryPolicy(
            max_attempts=2, backoff_base_seconds=0.001, backoff_max_seconds=0.01
        )
        failures = []
        got = dict(
            iter_resilient_outcomes(
                cells, spec.engine, 2, 256, policy, on_failure=failures.append
            )
        )
        assert [failure.cell for failure in failures] == [cells[poisoned]]
        assert failures[0].error_type == "Boom"
        assert sorted(got) == [index for index in range(len(cells)) if index != poisoned]
        healthy = [cell for index, cell in enumerate(cells) if index != poisoned]
        serial = dict(iter_resilient_outcomes(healthy, spec.engine, 1, 256, None))
        assert [got[index] for index in sorted(got)] == [
            serial[index] for index in range(len(healthy))
        ]
        _assert_children_drain()
