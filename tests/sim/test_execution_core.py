"""Tests for the one sweep execution core (:func:`repro.sim.resilient.iter_resilient_outcomes`).

Every sweep — with or without a :class:`~repro.sim.resilient.RetryPolicy` —
runs through the same unit decomposition.  These tests pin what used to
drift between the fail-fast and the retrying paths (the dtype option, the
auto cost model, the dispatch-unit rule), the up-front dtype check on every
engine, which units digest a cell ID, the fail-fast meaning of
``retry=None`` (and the default policy a chaos plan implies), planning
errors meeting the retry policy, and the fault-tolerant pool's wakeups.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import time

import pytest

import repro.sim.engine as engine_module
import repro.sim.job as job_module
import repro.sim.planner as planner_module
import repro.sim.resilient as resilient_module
import repro.sim.sweep as sweep_module
from repro.sim.chaos import FAULT_RAISE, ChaosPlan, ChaosRule
from repro.sim.engine import numpy_available
from repro.sim.resilient import RetryPolicy
from repro.sim.sweep import (
    ADVERSARY_SPECS,
    SweepSpec,
    _group_ndbatch_blocks,
    _plan_cell,
    run_sweep,
)

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


@needs_numpy
class TestRetryKeepsDispatchDecisions:
    """Turning on retry must not change how, or on what, a cell runs."""

    def test_dtype_options_reach_the_engine_under_retry(self, monkeypatch):
        spec = SweepSpec(
            protocols=("async-crash",),
            system_sizes=((7, 2),),
            seeds=(0, 1),
            engine="ndbatch",
        )
        # A bad dtype fails the sweep; it is not retried and quarantined.
        with pytest.raises(ValueError, match="unknown array dtype"):
            run_sweep(spec, workers=1, retry=RetryPolicy(), dtype="float16")
        dtypes = []
        original = sweep_module.run_ndbatch_block

        def recording(*args, **kwargs):
            dtypes.append(kwargs["dtype"])
            return original(*args, **kwargs)

        monkeypatch.setattr(sweep_module, "run_ndbatch_block", recording)
        plain = run_sweep(spec, workers=1, dtype="float32")
        retried = run_sweep(spec, workers=1, retry=RetryPolicy(), dtype="float32")
        assert dtypes == ["float32", "float32"]
        assert retried == plain

    def test_auto_cost_model_counts_the_dimension_under_retry(self, monkeypatch):
        spec = SweepSpec(
            protocols=("async-crash",),
            system_sizes=((7, 2),),
            workloads=("rendezvous",),
            seeds=(0, 1),
            dimensions=(3,),
            engine="auto",
        )
        blocks = _group_ndbatch_blocks([_plan_cell(cell) for cell in spec.cells()])
        work = [len(indices) * rounds * 7 for rounds, indices, _ in blocks]
        # A threshold every block clears only once its work is scaled by d=3.
        threshold = max(work) + 1
        assert threshold <= 3 * min(work)
        monkeypatch.setattr(engine_module, "NDBATCH_MIN_WORK", threshold)
        # Above the threshold the grid runs as one run_vector_block call;
        # below it the cells would run one by one on batch (next test), so
        # the block sizes show which way the cost model went.
        block_sizes = []
        run_vector_block = sweep_module.run_vector_block

        def recording(protocol, inputs_block, *args, **kwargs):
            block_sizes.append(len(inputs_block))
            return run_vector_block(protocol, inputs_block, *args, **kwargs)

        monkeypatch.setattr(sweep_module, "run_vector_block", recording)
        plain = run_sweep(spec, workers=1)
        plain_blocks, block_sizes[:] = list(block_sizes), []
        retried = run_sweep(spec, workers=1, retry=RetryPolicy())
        assert plain_blocks == [len(blocks[0][1])]  # the whole grid as one block
        assert block_sizes == plain_blocks
        assert {outcome.engine_used for outcome in plain} == {"ndbatch"}
        assert [o.engine_used for o in retried] == [o.engine_used for o in plain]
        assert retried == plain

    def test_auto_cost_model_sends_small_vector_cells_to_batch(self, monkeypatch):
        spec = SweepSpec(
            protocols=("async-crash",),
            system_sizes=((7, 2),),
            workloads=("rendezvous",),
            seeds=(0, 1),
            dimensions=(3,),
            engine="auto",
        )
        blocks = _group_ndbatch_blocks([_plan_cell(cell) for cell in spec.cells()])
        work = [len(indices) * rounds * 7 for rounds, indices, _ in blocks]
        # A threshold no block clears even scaled by d=3, hence no single
        # cell either: each cell runs on its own, and the cost model must
        # send it to batch rather than to a one-execution ndbatch block.
        monkeypatch.setattr(engine_module, "NDBATCH_MIN_WORK", 3 * max(work) + 1)
        block_sizes = []
        run_vector_block = sweep_module.run_vector_block

        def recording(protocol, inputs_block, *args, **kwargs):
            block_sizes.append(len(inputs_block))
            return run_vector_block(protocol, inputs_block, *args, **kwargs)

        monkeypatch.setattr(sweep_module, "run_vector_block", recording)
        plain = run_sweep(spec, workers=1)
        retried = run_sweep(spec, workers=1, retry=RetryPolicy())
        assert block_sizes == []
        assert {outcome.engine_used for outcome in plain} == {"batch"}
        assert retried == plain

    def test_mixed_shape_grid_is_packed_under_retry(self, monkeypatch):
        packed = []
        original = planner_module.pack_dispatch_groups

        def spy(weights, worker_count):
            groups = original(weights, worker_count)
            packed.append((list(weights), worker_count, groups))
            return groups

        monkeypatch.setattr(planner_module, "pack_dispatch_groups", spy)
        spec = SweepSpec(
            protocols=("async-crash",),
            system_sizes=((7, 2), (10, 3)),
            seeds=(0, 1, 2, 3),
            engine="ndbatch",
        )
        plain = run_sweep(spec, workers=1)
        packed.clear()
        retried = run_sweep(spec, workers=1, retry=RetryPolicy())
        assert packed, "the retrying path never consulted the unit rule"
        # Four chunks of 8 cells: units of 8 // 4 = 2 cells, so the one-cell
        # chunks of n = 7 and n = 10 share a unit.  No cell runs on its own.
        assert packed == [([3, 1, 1, 3], 1, ((0,), (1, 2), (3,))), ([], 1, ())]
        assert retried == plain


#: The grid on which an unknown dtype used to run silently: no ndbatch
#: block forms, so nothing resolved the dtype.
WITNESS_GRID = SweepSpec(
    protocols=("witness",),
    system_sizes=((7, 2),),
    seeds=(0, 1),
)


class TestDtypeCheckedOnEveryEngine:
    """The sweep rejects an unknown dtype before any cell runs, on any engine."""

    @pytest.mark.parametrize("engine", ["batch", "auto"])
    @pytest.mark.parametrize("retry", [None, RetryPolicy()], ids=["fail-fast", "retry"])
    def test_unknown_dtype_kwarg_raises_on_a_batch_grid(self, engine, retry):
        spec = dataclasses.replace(WITNESS_GRID, engine=engine)
        with pytest.raises(ValueError, match="unknown array dtype 'float16'"):
            run_sweep(spec, workers=1, retry=retry, dtype="float16")

    @pytest.mark.parametrize("retry", [None, RetryPolicy()], ids=["fail-fast", "retry"])
    def test_unknown_env_dtype_raises_on_a_batch_grid(self, monkeypatch, retry):
        monkeypatch.setenv(planner_module.ENV_DTYPE, "float16")
        spec = dataclasses.replace(WITNESS_GRID, engine="batch")
        with pytest.raises(ValueError, match=planner_module.ENV_DTYPE):
            run_sweep(spec, workers=1, retry=retry)

    def test_float32_on_a_batch_grid_runs_unchanged(self):
        # Batch and event cells run pure Python and ignore the dtype.
        spec = dataclasses.replace(WITNESS_GRID, engine="batch")
        plain = run_sweep(spec, workers=1)
        assert len(plain) == 2
        assert run_sweep(spec, workers=1, dtype="float32") == plain
        assert run_sweep(spec, workers=1, dtype="float32", retry=RetryPolicy()) == plain


class TestUnitKeys:
    """A unit's cell ID is digested only when a retry policy will read it."""

    SPEC = SweepSpec(
        protocols=("witness",),
        system_sizes=((7, 2),),
        adversaries=("none", "byz-anti"),
        seeds=tuple(range(12)),
        engine="batch",
    )

    @staticmethod
    def _count_cell_ids(monkeypatch):
        calls = []
        original = job_module.cell_id

        def counted(cell):
            calls.append(cell)
            return original(cell)

        monkeypatch.setattr(job_module, "cell_id", counted)
        return calls

    def test_fail_fast_sweep_digests_no_cell_id(self, monkeypatch):
        calls = self._count_cell_ids(monkeypatch)
        assert len(run_sweep(self.SPEC, workers=1, retry=None)) == 24
        assert calls == []

    @needs_numpy
    def test_fail_fast_block_sweep_digests_no_cell_id(self, monkeypatch):
        calls = self._count_cell_ids(monkeypatch)
        spec = SweepSpec(
            protocols=("async-crash",), system_sizes=((7, 2),), seeds=tuple(range(6)),
            engine="ndbatch",
        )
        assert len(run_sweep(spec, workers=1)) == 6
        assert calls == []

    def test_retry_sweep_digests_one_cell_id_per_unit(self, monkeypatch):
        cells = list(self.SPEC.cells())
        units = resilient_module._cells_units(cells, list(range(len(cells))), 1)
        assert 1 < len(units) < len(cells)
        calls = self._count_cell_ids(monkeypatch)
        outcomes = run_sweep(self.SPEC, workers=1, retry=RetryPolicy())
        assert len(outcomes) == len(cells)
        assert calls == [unit.cells[0] for unit in units]


class Boom(Exception):
    """A cell-level error the fail-fast path must hand back unchanged."""


def _register_adversary(monkeypatch, name, on_seed):
    """Add adversary ``name``: the "none" adversary, except that building it
    for seed 5 calls ``on_seed()`` first."""
    honest = ADVERSARY_SPECS["none"]

    def factory(protocol, n, t, seed):
        if seed == 5:
            on_seed()
        return honest(protocol, n, t, seed)

    monkeypatch.setitem(ADVERSARY_SPECS, name, factory)
    return SweepSpec(
        protocols=("async-crash",),
        system_sizes=((7, 2),),
        adversaries=(name,),
        seeds=tuple(range(12)),
    )


class TestFailFast:
    """``retry=None`` (without chaos) stops at the first failure."""

    def test_cell_error_propagates_with_its_type_from_the_pool(self, monkeypatch):
        def explode():
            raise Boom("cell 5 exploded")

        spec = _register_adversary(monkeypatch, "boom", explode)
        with pytest.raises(Boom, match="cell 5 exploded") as raised:
            run_sweep(spec, workers=2)
        assert "in explode" in str(raised.value.__cause__)  # the worker's traceback
        _assert_children_drain()

    def test_cell_error_propagates_on_the_serial_path(self, monkeypatch):
        def explode():
            raise Boom("cell 5 exploded")

        spec = _register_adversary(monkeypatch, "boom", explode)
        with pytest.raises(Boom, match="cell 5 exploded"):
            run_sweep(spec, workers=1)

    def test_dead_worker_raises_instead_of_hanging(self, monkeypatch):
        parent = os.getpid()

        def die():
            if os.getpid() != parent:  # only ever kill a pool worker
                os._exit(3)

        spec = _register_adversary(monkeypatch, "worker-killer", die)
        with pytest.raises(RuntimeError, match="worker process died"):
            run_sweep(spec, workers=2)
        _assert_children_drain()


class TestParentWakeups:
    def test_pool_waits_only_for_completions(self, monkeypatch):
        # Regression: while every worker was busy, a ready unit on the heap
        # cut the wait timeout to zero, and the parent spun on
        # connection.wait thousands of times for a 64-cell grid.
        calls = {"wait": 0, "dispatch": 0}
        wait = resilient_module._mp_connection.wait
        dispatch = resilient_module._Worker.dispatch

        def counting_wait(*args, **kwargs):
            calls["wait"] += 1
            return wait(*args, **kwargs)

        def counting_dispatch(self, *args, **kwargs):
            calls["dispatch"] += 1
            return dispatch(self, *args, **kwargs)

        monkeypatch.setattr(resilient_module._mp_connection, "wait", counting_wait)
        monkeypatch.setattr(resilient_module._Worker, "dispatch", counting_dispatch)
        spec = SweepSpec(
            protocols=("witness",),
            system_sizes=((7, 2),),
            adversaries=("none", "byz-anti"),
            workloads=("uniform", "two-cluster"),
            seeds=tuple(range(16)),
            engine="batch",
        )
        outcomes = run_sweep(spec, workers=2, retry=RetryPolicy())
        assert len(outcomes) == spec.cell_count == 64
        assert calls["dispatch"] >= 2
        assert calls["wait"] <= 3 * calls["dispatch"] + 5, calls


@needs_numpy
class TestPlanningErrorsRunInTheirOwnUnit:
    """``auto``/``ndbatch`` plan block candidates in the parent; a cell whose
    planning raises joins no block and runs in its own unit, where the error
    meets the retry policy like any other cell error."""

    @staticmethod
    def _spec(monkeypatch, engine):
        def missing():
            raise KeyError("no adversary for seed 5")

        spec = _register_adversary(monkeypatch, "plan-error", missing)
        return dataclasses.replace(
            spec, system_sizes=((7, 3),), seeds=tuple(range(40)), engine=engine
        )

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "engine, quarantined_on, demoted_from",
        [("auto", "auto", ""), ("ndbatch", "batch", "ndbatch")],
    )
    def test_planning_error_quarantines_one_cell(
        self, monkeypatch, workers, engine, quarantined_on, demoted_from
    ):
        spec = self._spec(monkeypatch, engine)
        failures = []
        outcomes = run_sweep(
            spec,
            workers=workers,
            retry=RetryPolicy(max_attempts=1),
            on_failure=failures.append,
        )
        [failure] = failures
        assert (failure.cell.seed, failure.error_type) == (5, "KeyError")
        assert (failure.engine, failure.demoted_from) == (quarantined_on, demoted_from)
        healthy = dataclasses.replace(
            spec, seeds=tuple(seed for seed in spec.seeds if seed != 5)
        )
        assert len(outcomes) == 39
        assert outcomes == run_sweep(healthy, workers=1)
        _assert_children_drain()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("engine", ["auto", "ndbatch"])
    def test_planning_error_raises_without_a_policy(self, monkeypatch, workers, engine):
        spec = self._spec(monkeypatch, engine)
        with pytest.raises(KeyError, match="no adversary for seed 5"):
            run_sweep(spec, workers=workers)
        _assert_children_drain()


class TestChaosImpliesTheDefaultPolicy:
    def test_chaos_raised_cell_is_quarantined_without_a_policy(self):
        cells = list(
            SweepSpec(
                protocols=("async-crash",),
                system_sizes=((7, 2),),
                seeds=tuple(range(6)),
                engine="batch",
            ).cells()
        )
        poisoned = job_module.cell_id(cells[2])
        plan = ChaosPlan(rules=(ChaosRule(fault=FAULT_RAISE, cells=(poisoned,)),))
        failures = []
        outcomes = dict(
            resilient_module.iter_resilient_outcomes(
                cells, "batch", 1, 256, retry=None, chaos=plan, on_failure=failures.append
            )
        )
        assert sorted(outcomes) == [0, 1, 3, 4, 5]
        assert [(f.cell_id, f.error_type) for f in failures] == [(poisoned, "ChaosError")]
