"""Tests for the fault-tolerant sweep runtime (:mod:`repro.sim.resilient`).

The chaos harness (:mod:`repro.sim.chaos`) injects the exact faults the
resilient layer claims to absorb — raising cells, hung cells, SIGKILL'd pool
workers, truncated writes — and these tests assert the recovery guarantees:
healthy cells always complete, a poisoned cell quarantines exactly once, a
chaos run plus resume is bit-identical (modulo line order) to an undisturbed
run of the healthy subgrid, and the sweep never blocks on a dead worker.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
import warnings

import pytest

from repro.sim.chaos import (
    FAULT_HANG,
    FAULT_KILL_WORKER,
    FAULT_RAISE,
    FAULT_TRUNCATE_WRITE,
    ChaosPlan,
    ChaosRule,
)
from repro.sim.engine import demotion_target, numpy_available
from repro.sim.job import SweepJob, cell_id
from repro.sim.resilient import (
    CellFailure,
    RetryPolicy,
    default_quarantine_path,
    iter_quarantine_jsonl,
    iter_resilient_outcomes,
    read_quarantine_map,
    write_quarantine_line,
)
from repro.sim.sweep import SweepCell, SweepSpec, SweepStoreWarning, run_sweep

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="the vectorised engine requires numpy"
)

#: Small batch-engine grid: fast, runs on numpy-free hosts too.
SPEC = SweepSpec(
    protocols=("async-crash",),
    system_sizes=((7, 2),),
    adversaries=("none",),
    workloads=("uniform",),
    seeds=tuple(range(12)),
)

#: Fast-retry policy for tests (no multi-second backoff waits).
FAST = RetryPolicy(max_attempts=2, backoff_base_seconds=0.001, backoff_max_seconds=0.01)


def grid_and_ids(spec=SPEC):
    cells = list(spec.cells())
    return cells, [cell_id(cell) for cell in cells]


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(timeout_seconds=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(demote_after=0)

    def test_backoff_deterministic_jittered_and_capped(self):
        policy = RetryPolicy(
            backoff_base_seconds=0.1, backoff_factor=2.0, backoff_max_seconds=0.5
        )
        first = policy.backoff_seconds("cell-a", 1)
        assert first == policy.backoff_seconds("cell-a", 1)  # pure function
        assert 0.05 <= first <= 0.1  # jitter scales into [0.5, 1.0]x
        assert policy.backoff_seconds("cell-b", 1) != first  # decorrelated
        assert policy.backoff_seconds("cell-a", 10) <= 0.5  # capped

    def test_unit_timeout_scales_with_cells(self):
        policy = RetryPolicy(timeout_seconds=2.0)
        assert policy.unit_timeout(3) == 6.0
        assert RetryPolicy().unit_timeout(3) is None

    def test_payload_roundtrip(self):
        policy = RetryPolicy(max_attempts=5, timeout_seconds=1.5, demote_after=3)
        assert RetryPolicy.from_payload(policy.as_payload()) == policy


class TestQuarantineStore:
    def failure(self, cell, suffix=""):
        return CellFailure(
            cell=cell,
            cell_id=cell_id(cell),
            error_type="ChaosError",
            message="injected" + suffix,
            traceback_digest="ab" * 8,
            fault_class="raise",
            attempts=3,
            engine="batch",
        )

    def test_default_path_suffix(self):
        assert default_quarantine_path("out/cells.jsonl") == "out/cells.quarantine.jsonl"
        assert default_quarantine_path("store") == "store.quarantine.jsonl"

    def test_payload_roundtrip(self):
        cells, _ = grid_and_ids()
        parameterised = dataclasses.replace(
            cells[0], adversary="staggered", adversary_params=(("stride", 2),)
        )
        for cell in (cells[0], parameterised):
            failure = self.failure(cell)
            assert CellFailure.from_payload(failure.as_payload()) == failure

    def test_write_iter_and_last_wins(self, tmp_path):
        cells, _ = grid_and_ids()
        path = tmp_path / "quarantine.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            write_quarantine_line(handle, self.failure(cells[0], " first"))
            write_quarantine_line(handle, self.failure(cells[1]))
            write_quarantine_line(handle, self.failure(cells[0], " second"))
        records = list(iter_quarantine_jsonl(str(path)))
        assert len(records) == 3
        merged = read_quarantine_map([str(path)])
        assert len(merged) == 2
        assert merged[cell_id(cells[0])].message == "injected second"

    def test_iter_tolerates_truncated_tail_and_missing_file(self, tmp_path):
        assert list(iter_quarantine_jsonl(str(tmp_path / "absent.jsonl"))) == []
        cells, _ = grid_and_ids()
        path = tmp_path / "quarantine.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            write_quarantine_line(handle, self.failure(cells[0]))
            handle.write('{"cell_id": "truncat')  # killed mid-write
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            records = list(iter_quarantine_jsonl(str(path)))
        assert len(records) == 1
        assert any(issubclass(w.category, SweepStoreWarning) for w in caught)


class TestFaultFreeParity:
    """Without injected faults the resilient layer reproduces the legacy runs."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_batch_engine_matches_legacy(self, workers):
        cells, _ = grid_and_ids()
        legacy = run_sweep(SPEC, workers=1)
        failures = []
        got = dict(
            iter_resilient_outcomes(
                cells, "batch", workers, 256, FAST, on_failure=failures.append
            )
        )
        assert failures == []
        assert sorted(got) == list(range(len(cells)))
        assert all(got[i] == legacy[i] for i in got)

    @needs_numpy
    def test_ndbatch_engine_matches_legacy(self):
        spec = SweepSpec(
            protocols=("async-crash",),
            system_sizes=((7, 2),),
            adversaries=("none", "crash-staggered"),
            workloads=("uniform",),
            seeds=tuple(range(6)),
            engine="ndbatch",
        )
        cells, _ = grid_and_ids(spec)
        legacy = run_sweep(spec, workers=1)
        got = dict(iter_resilient_outcomes(cells, "ndbatch", 2, 256, FAST))
        assert sorted(got) == list(range(len(cells)))
        assert all(got[i] == legacy[i] for i in got)


class TestPoisonedCell:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_quarantined_exactly_once_healthy_cells_complete(self, workers):
        cells, ids = grid_and_ids()
        legacy = run_sweep(SPEC, workers=1)
        plan = ChaosPlan(seed=1, rules=(ChaosRule(fault=FAULT_RAISE, cells=(ids[5],)),))
        failures = []
        got = dict(
            iter_resilient_outcomes(
                cells, "batch", workers, 256, FAST, chaos=plan,
                on_failure=failures.append,
            )
        )
        assert len(failures) == 1
        failure = failures[0]
        assert failure.cell_id == ids[5]
        assert failure.cell == cells[5]
        assert failure.error_type == "ChaosError"
        assert failure.fault_class == "raise"
        assert failure.attempts >= FAST.max_attempts
        assert set(got) == set(range(len(cells))) - {5}
        assert all(got[i] == legacy[i] for i in got)

    def test_transient_fault_recovers_without_quarantine(self):
        cells, ids = grid_and_ids()
        legacy = run_sweep(SPEC, workers=1)
        plan = ChaosPlan(
            seed=2,
            rules=(ChaosRule(fault=FAULT_RAISE, cells=(ids[3],), attempts=(1,)),),
        )
        failures = []
        got = dict(
            iter_resilient_outcomes(
                cells, "batch", 2, 256, FAST, chaos=plan, on_failure=failures.append
            )
        )
        assert failures == []
        assert sorted(got) == list(range(len(cells)))
        assert all(got[i] == legacy[i] for i in got)


class TestWorkerCrashRecovery:
    def test_sigkilled_worker_is_respawned_and_unit_redispatched(self):
        cells, ids = grid_and_ids()
        legacy = run_sweep(SPEC, workers=1)
        plan = ChaosPlan(
            seed=3,
            rules=(ChaosRule(fault=FAULT_KILL_WORKER, cells=(ids[4],), attempts=(1,)),),
        )
        failures = []
        got = dict(
            iter_resilient_outcomes(
                cells, "batch", 3, 256, FAST, chaos=plan, on_failure=failures.append
            )
        )
        assert failures == []  # one chunk of rework, never the sweep
        assert sorted(got) == list(range(len(cells)))
        assert all(got[i] == legacy[i] for i in got)

    def test_persistently_killing_cell_quarantines_as_crash(self):
        cells, ids = grid_and_ids()
        plan = ChaosPlan(
            seed=4, rules=(ChaosRule(fault=FAULT_KILL_WORKER, cells=(ids[0],)),)
        )
        failures = []
        got = dict(
            iter_resilient_outcomes(
                cells, "batch", 2, 256, FAST, chaos=plan, on_failure=failures.append
            )
        )
        assert len(failures) == 1
        assert failures[0].cell_id == ids[0]
        assert failures[0].fault_class == "worker-crash"
        assert set(got) == set(range(len(cells))) - {0}


class TestHungCell:
    def test_hang_is_detected_retried_and_quarantined(self):
        # Acceptance: a hung cell (injected sleep > timeout) is detected,
        # retried per policy, then quarantined — the sweep never blocks.
        cells, ids = grid_and_ids()
        plan = ChaosPlan(
            seed=5,
            rules=(ChaosRule(fault=FAULT_HANG, cells=(ids[7],), hang_seconds=60.0),),
        )
        policy = RetryPolicy(
            max_attempts=2, timeout_seconds=0.75, backoff_base_seconds=0.001
        )
        failures = []
        start = time.monotonic()
        got = dict(
            iter_resilient_outcomes(
                cells, "batch", 3, 256, policy, chaos=plan,
                on_failure=failures.append,
            )
        )
        elapsed = time.monotonic() - start
        assert elapsed < 30.0  # far below the 60 s hang: the kill fired
        assert len(failures) == 1
        assert failures[0].cell_id == ids[7]
        assert failures[0].fault_class == "timeout"
        assert failures[0].attempts >= policy.max_attempts
        assert set(got) == set(range(len(cells))) - {7}


@needs_numpy
class TestEngineDemotion:
    def test_ndbatch_chunk_demotes_to_batch_and_isolates_poison(self):
        spec = SweepSpec(
            protocols=("async-crash",),
            system_sizes=((7, 2),),
            adversaries=("none", "crash-staggered"),
            workloads=("uniform",),
            seeds=tuple(range(6)),
            engine="ndbatch",
        )
        cells, ids = grid_and_ids(spec)
        legacy = run_sweep(spec, workers=1)
        plan = ChaosPlan(seed=6, rules=(ChaosRule(fault=FAULT_RAISE, cells=(ids[3],)),))
        failures = []
        got = dict(
            iter_resilient_outcomes(
                cells, "ndbatch", 2, 256, FAST, chaos=plan,
                on_failure=failures.append,
            )
        )
        assert demotion_target("ndbatch") == "batch"
        assert len(failures) == 1
        assert failures[0].cell_id == ids[3]
        assert failures[0].demoted_from == "ndbatch"
        assert set(got) == set(range(len(cells))) - {3}
        demoted = {i: o for i, o in got.items() if o.demoted_from == "ndbatch"}
        assert demoted, "the poisoned chunk's mates should re-run demoted"
        assert all(o.engine_used == "batch" for o in demoted.values())
        # Demotion is provenance, not a measurement change: integer costs are
        # exact across engines, float metrics within the differential bound.
        for i, outcome in got.items():
            reference = legacy[i]
            assert outcome.rounds == reference.rounds
            assert outcome.messages == reference.messages
            assert outcome.bits == reference.bits
            assert outcome.ok == reference.ok
            if outcome.worst_contraction is not None:
                assert math.isclose(
                    outcome.worst_contraction,
                    reference.worst_contraction,
                    rel_tol=1e-9,
                    abs_tol=1e-12,
                )


class TestRunSweepIntegration:
    def test_in_memory_resilient_run_excludes_quarantined(self):
        cells, ids = grid_and_ids()
        plan = ChaosPlan(seed=7, rules=(ChaosRule(fault=FAULT_RAISE, cells=(ids[2],)),))
        failures = []
        outcomes = run_sweep(
            SPEC, workers=2, retry=FAST, chaos=plan, on_failure=failures.append
        )
        assert len(outcomes) == len(cells) - 1
        assert len(failures) == 1 and failures[0].cell_id == ids[2]
        assert [cell_id(o.cell) for o in outcomes] == [
            i for i in ids if i != ids[2]
        ]  # grid order, poisoned cell absent

    def test_jsonl_resilient_run_writes_quarantine_beside_store(self, tmp_path):
        _, ids = grid_and_ids()
        store = tmp_path / "cells.jsonl"
        plan = ChaosPlan(seed=8, rules=(ChaosRule(fault=FAULT_RAISE, cells=(ids[9],)),))
        written = run_sweep(SPEC, workers=2, jsonl_path=str(store), retry=FAST, chaos=plan)
        assert written == len(ids) - 1
        quarantine = tmp_path / "cells.quarantine.jsonl"
        records = list(iter_quarantine_jsonl(str(quarantine)))
        assert [r.cell_id for r in records] == [ids[9]]

    def test_fault_free_resilient_jsonl_creates_no_quarantine_file(self, tmp_path):
        store = tmp_path / "cells.jsonl"
        run_sweep(SPEC, workers=1, jsonl_path=str(store), retry=FAST)
        assert not (tmp_path / "cells.quarantine.jsonl").exists()


class TestChaosResumeBitIdentity:
    """The headline acceptance scenario: SIGKILL + poison, then resume."""

    SPEC = SweepSpec(
        protocols=("async-crash",),
        system_sizes=((7, 2),),
        adversaries=("none",),
        workloads=("uniform",),
        seeds=tuple(range(10)),
    )

    def test_kill_and_poison_then_resume_matches_undisturbed_run(self, tmp_path):
        cells, ids = grid_and_ids(self.SPEC)
        poisoned = ids[2]
        plan = ChaosPlan(
            seed=9,
            rules=(
                ChaosRule(fault=FAULT_RAISE, cells=(poisoned,)),
                ChaosRule(fault=FAULT_KILL_WORKER, cells=(ids[6],), attempts=(1,)),
            ),
        )
        chaotic = SweepJob(
            self.SPEC, str(tmp_path / "chaotic"), workers=2, retry=FAST, chaos=plan
        )
        first = chaotic.run()
        assert first.quarantined == 1
        # Resume after the chaos run: nothing further to do beyond the
        # already-quarantined cell, which stays excluded-with-reason.
        second = chaotic.run()
        assert second.executed == 0
        assert second.quarantined_excluded == 1
        clean = SweepJob(self.SPEC, str(tmp_path / "clean"), workers=2, retry=FAST)
        clean.run()
        chaotic_lines = sorted(
            (tmp_path / "chaotic" / "cells.jsonl").read_text().splitlines()
        )
        healthy_lines = sorted(
            line
            for line in (tmp_path / "clean" / "cells.jsonl").read_text().splitlines()
            if cell_id(SweepCell(**json.loads(line)["cell"])) != poisoned
        )
        assert chaotic_lines == healthy_lines  # bit-identical modulo line order
        quarantine = list(
            iter_quarantine_jsonl(str(tmp_path / "chaotic" / "quarantine.jsonl"))
        )
        assert [record.cell_id for record in quarantine] == [poisoned]


class TestKeyboardInterruptRepair:
    """A kill mid-write leaves the store repairable on every engine path."""

    def run_truncated_then_resume(self, tmp_path, engine):
        spec = SweepSpec(
            protocols=("async-crash",),
            system_sizes=((7, 2),),
            adversaries=("none",),
            workloads=("uniform",),
            seeds=tuple(range(8)),
            engine=engine,
        )
        cells, ids = grid_and_ids(spec)
        plan = ChaosPlan(
            seed=10,
            rules=(ChaosRule(fault=FAULT_TRUNCATE_WRITE, cells=(ids[4],), attempts=(1,)),),
        )
        job = SweepJob(spec, str(tmp_path / "job"), workers=2, chaos=plan)
        with pytest.raises(KeyboardInterrupt):
            job.run()
        store = tmp_path / "job" / "cells.jsonl"
        assert not store.read_text().endswith("\n")  # truncated tail on disk
        resumed = job.run()  # generation 2: the rule spares the re-write
        assert resumed.repaired
        assert job.is_complete()
        clean = SweepJob(spec, str(tmp_path / "clean"), workers=2)
        clean.run()
        assert sorted(store.read_text().splitlines()) == sorted(
            (tmp_path / "clean" / "cells.jsonl").read_text().splitlines()
        )

    def test_batch_path(self, tmp_path):
        self.run_truncated_then_resume(tmp_path, "batch")

    @needs_numpy
    def test_ndbatch_path(self, tmp_path):
        self.run_truncated_then_resume(tmp_path, "ndbatch")
