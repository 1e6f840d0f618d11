"""Tests for the sweep's one dispatch-unit rule on serial sweeps and on
units of several ndbatch block chunks.

:func:`repro.sim.planner.pack_dispatch_groups` cuts both a sweep's single
cells (``repro.sim.resilient._cells_units``) and its block chunks
(``repro.sim.sweep._ndbatch_dispatch_groups``) into units.  On one worker
a unit holds at most ``DEFAULT_UNIT_CELLS`` cells (unless one chunk holds
more), so a serial job stores its first outcome after a few cells.  On a
pool, small chunks of different ``(n, t)`` shapes share a unit: the store
must not depend on it, and a poisoned cell must not take its unit-mates
down with it.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import time

import pytest

import repro.sim.resilient as resilient_module
import repro.sim.sweep as sweep_module
from repro.net.adversary import FixedValueStrategy
from repro.sim.engine import numpy_available
from repro.sim.job import SweepJob
from repro.sim.resilient import DEFAULT_UNIT_CELLS, RetryPolicy, iter_resilient_outcomes
from repro.sim.sweep import ADVERSARY_SPECS, DEFAULT_MAX_BLOCK_SIZE, SweepSpec

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="the vectorised engine requires numpy"
)


def _assert_children_drain(deadline_seconds=10.0):
    deadline = time.monotonic() + deadline_seconds
    while multiprocessing.active_children():
        assert time.monotonic() < deadline, (
            "pool workers leaked: %r" % multiprocessing.active_children()
        )
        time.sleep(0.05)


class TestSerialUnits:
    """One worker: units of at most ``DEFAULT_UNIT_CELLS`` cells."""

    def test_a_serial_witness_batch_grid_goes_out_in_units_of_eight(self):
        units = resilient_module._cells_units(range(1536), range(1536), 1)
        assert [len(unit.indices) for unit in units] == [DEFAULT_UNIT_CELLS] * 192

    def test_a_serial_job_stores_its_first_outcome_after_one_unit(
        self, tmp_path, monkeypatch
    ):
        spec = SweepSpec(
            protocols=("witness",),
            system_sizes=((7, 2),),
            adversaries=("none", "byz-anti"),
            workloads=("uniform", "two-cluster"),
            seeds=tuple(range(32)),
        )
        assert spec.cell_count == 128
        calls = []
        run_cell = sweep_module.run_cell

        def counted(cell, *args, **kwargs):
            calls.append(cell)
            return run_cell(cell, *args, **kwargs)

        monkeypatch.setattr(sweep_module, "run_cell", counted)
        before_first = []

        def on_progress(_snapshot):
            if not before_first:
                before_first.append(len(calls))

        SweepJob(spec, tmp_path / "job", workers=1).run(on_progress=on_progress)
        assert len(calls) == 128
        assert 1 <= before_first[0] <= DEFAULT_UNIT_CELLS


#: Async-Byzantine cells at sixteen ``(n, t)`` shapes with three seeds each:
#: blocks of one to three cells (a block holds one round count), which 48
#: cells on two workers pack into units of six, so chunks of different
#: shapes share every unit.
SIZES = tuple((n, (n - 1) // 5) for n in range(6, 22))
BLOCK_SPEC = SweepSpec(
    protocols=("async-byzantine",),
    system_sizes=SIZES,
    adversaries=("byz-fixed",),
    workloads=("uniform",),
    seeds=(0, 1, 2),
    engine="ndbatch",
)


def _units(cells, workers):
    return sweep_module._ndbatch_dispatch_groups(
        cells, "ndbatch", DEFAULT_MAX_BLOCK_SIZE, "float64", None, workers
    )


class Boom(Exception):
    """A Byzantine report that cannot be computed."""


class ExplodingStrategy(FixedValueStrategy):
    """A tensor program that raises on every engine when it reports."""

    def __init__(self) -> None:
        super().__init__(1e3)

    def value(self, round_number, recipient, observed):
        raise Boom("poisoned report")

    def value_tensor(self, round_number, n, observed, seed_mix):
        raise Boom("poisoned report")

    def tensor_key(self) -> tuple:
        return ("exploding",)


#: The poisoned cell: ``boom`` at n = 11, seed 1.
POISONED = (11, 1)


def _poisoned_cells(monkeypatch):
    """``BLOCK_SPEC`` with ``boom`` in place of ``byz-fixed``: the same cells,
    except that the Byzantine process of the ``POISONED`` cell raises when
    it reports.  Planning the cell in the parent succeeds; its block raises
    in the worker."""
    fixed = ADVERSARY_SPECS["byz-fixed"]
    exploding = sweep_module._byzantine(lambda seed: ExplodingStrategy())

    def factory(protocol, n, t, seed):
        return (exploding if (n, seed) == POISONED else fixed)(protocol, n, t, seed)

    monkeypatch.setitem(ADVERSARY_SPECS, "boom", factory)
    cells = list(dataclasses.replace(BLOCK_SPEC, adversaries=("boom",)).cells())
    (poisoned,) = [
        index for index, cell in enumerate(cells) if (cell.n, cell.seed) == POISONED
    ]
    [(unit, group)] = [
        (indices, group) for indices, group in _units(cells, 2) if poisoned in indices
    ]
    # The poisoned cell shares its unit with a chunk of another shape.
    assert len({chunk[1][0].cell.n for chunk in group}) > 1
    return cells, poisoned, unit


@needs_numpy
class TestChunkUnitsOnThePool:
    def test_small_chunks_of_different_shapes_share_units(self):
        cells = list(BLOCK_SPEC.cells())
        units = _units(cells, 2)
        assert [len(indices) for indices, _ in units] == [6] * 8
        assert all(len({chunk[1][0].cell.n for chunk in group}) > 1 for _, group in units)
        # One worker: guided units of at most eight cells.
        assert [len(indices) for indices, _ in _units(cells, 1)] == [8, 7, 6, 7, 8, 6, 6]

    def test_pool_job_writes_the_serial_store(self, tmp_path):
        serial = SweepJob(BLOCK_SPEC, tmp_path / "serial", workers=1)
        pooled = SweepJob(BLOCK_SPEC, tmp_path / "pooled", workers=2)
        serial.run()
        pooled.run()
        assert serial.store_path().read_bytes() == pooled.store_path().read_bytes()
        _assert_children_drain()

    def test_retry_quarantines_only_the_poisoned_cell(self, monkeypatch):
        cells, poisoned, unit = _poisoned_cells(monkeypatch)
        policy = RetryPolicy(
            max_attempts=2, backoff_base_seconds=0.001, backoff_max_seconds=0.01
        )
        failures = []
        got = dict(
            iter_resilient_outcomes(
                cells, "ndbatch", 2, DEFAULT_MAX_BLOCK_SIZE, policy,
                on_failure=failures.append,
            )
        )
        healthy = [index for index in range(len(cells)) if index != poisoned]
        assert [failure.cell for failure in failures] == [cells[poisoned]]
        assert failures[0].error_type == "Boom"
        assert sorted(got) == healthy

        fault_free = dict(
            iter_resilient_outcomes(
                [cells[index] for index in healthy], "ndbatch", 1,
                DEFAULT_MAX_BLOCK_SIZE, None,
            )
        )
        expected = {index: fault_free[rank] for rank, index in enumerate(healthy)}
        mates = [index for index in unit if index != poisoned]
        for index in mates:
            # The unit split and re-ran its cells one by one on batch: the
            # integer costs are exact across engines.
            outcome, reference = got[index], expected[index]
            assert (outcome.engine_used, outcome.demoted_from) == ("batch", "ndbatch")
            assert (outcome.rounds, outcome.messages, outcome.bits, outcome.ok) == (
                reference.rounds, reference.messages, reference.bits, reference.ok
            )
        for index in set(got) - set(unit):
            assert got[index] == expected[index]
        _assert_children_drain()
