"""Tests for the one sweep execution core (:func:`repro.sim.sweep._iter_indexed_outcomes`).

Every sweep — with or without a :class:`~repro.sim.resilient.RetryPolicy` —
runs through the same unit decomposition.  These tests pin what used to
drift between the fail-fast and the retrying paths (array-backend options,
the auto cost model, pad-vs-split packing), the fail-fast meaning of
``retry=None``, and the fault-tolerant pool's wakeups.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

import repro.sim.engine as engine_module
import repro.sim.planner as planner_module
import repro.sim.resilient as resilient_module
import repro.sim.sweep as sweep_module
from repro.sim.engine import numpy_available
from repro.sim.resilient import RetryPolicy
from repro.sim.sweep import (
    ADVERSARY_SPECS,
    SweepSpec,
    _group_ndbatch_blocks,
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

    def test_backend_options_reach_the_engine_under_retry(self):
        from repro.core.backend import ArrayBackendError

        spec = SweepSpec(
            protocols=("async-crash",),
            system_sizes=((7, 2),),
            seeds=(0, 1),
            engine="ndbatch",
        )
        with pytest.raises(ArrayBackendError, match="unknown array backend"):
            run_sweep(spec, workers=1, retry=RetryPolicy(), backend="no-such-backend")

    def test_auto_cost_model_counts_the_dimension_under_retry(self, monkeypatch):
        spec = SweepSpec(
            protocols=("async-crash",),
            system_sizes=((7, 2),),
            workloads=("rendezvous",),
            seeds=(0, 1),
            dimensions=(3,),
            engine="auto",
        )
        blocks = _group_ndbatch_blocks(list(spec.cells()))
        work = [len(indices) * rounds * 7 for rounds, indices, _ in blocks]
        # A threshold every block clears only once its work is scaled by d=3.
        threshold = max(work) + 1
        assert threshold <= 3 * min(work)
        monkeypatch.setenv(engine_module.ENV_MIN_WORK, str(threshold))
        monkeypatch.setattr(engine_module, "_min_work_memo", None)
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
        blocks = _group_ndbatch_blocks(list(spec.cells()))
        work = [len(indices) * rounds * 7 for rounds, indices, _ in blocks]
        # A threshold no block clears even scaled by d=3, hence no single
        # cell either: each cell runs on its own, and the cost model must
        # send it to batch rather than to a one-execution ndbatch block.
        monkeypatch.setenv(engine_module.ENV_MIN_WORK, str(3 * max(work) + 1))
        monkeypatch.setattr(engine_module, "_min_work_memo", None)
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

        def spy(shapes, *args, **kwargs):
            groups = original(shapes, *args, **kwargs)
            packed.append(groups)
            return groups

        monkeypatch.setattr(planner_module, "pack_dispatch_groups", spy)
        spec = SweepSpec(
            protocols=("async-crash",),
            system_sizes=((7, 2), (10, 3)),
            seeds=(0, 1, 2),
            engine="ndbatch",
        )
        plain = run_sweep(spec, workers=1)
        packed.clear()
        retried = run_sweep(spec, workers=1, retry=RetryPolicy())
        assert packed, "the retrying path never consulted the pad-vs-split packer"
        assert any(len(group) > 1 for group in packed[0])  # shapes were fused
        assert retried == plain


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
