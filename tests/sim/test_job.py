"""Tests for the resumable, sharded sweep job layer (:mod:`repro.sim.job`)."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import pytest

from repro.sim.engine import numpy_available
from repro.sim.job import (
    CELL_ID_ALGORITHM,
    STORE_SCHEMA_VERSION,
    SweepJob,
    SweepJobError,
    cell_id,
    cell_shard,
    fold_sweep_jsonl,
    scan_sweep_store,
)
from repro.sim.sweep import (
    SweepCell,
    SweepSpec,
    SweepStoreWarning,
    iter_sweep_jsonl,
    run_sweep,
    summarize_sweep,
)

SPEC = SweepSpec(
    protocols=("async-crash",),
    system_sizes=((7, 2), (10, 3)),
    adversaries=("none", "crash-initial"),
    workloads=("uniform",),
    seeds=(0, 1, 2, 3),
)  # 16 cells, batch engine: runs on numpy-free hosts too

A_CELL = SweepCell(
    protocol="async-crash", n=7, t=2, epsilon=1e-3,
    adversary="crash-initial", workload="uniform", seed=11, engine="batch",
)

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="the vectorised engine requires numpy"
)


def store_lines(job: SweepJob, shard=None):
    return job.store_path(shard).read_text(encoding="utf-8").splitlines()


class TestCellIds:
    def test_pinned_value(self):
        # Content-addressed IDs are part of the on-disk contract: this
        # literal pins them across processes, hosts, Python versions and
        # hash randomisation.  If it ever changes, bump STORE_SCHEMA_VERSION
        # and CELL_ID_ALGORITHM — old stores can no longer be resumed.
        assert cell_id(A_CELL) == "f1add43e3fb0b6af"

    def test_ids_distinct_across_grid_and_sensitive_to_every_field(self):
        ids = {cell_id(cell) for cell in SPEC.cells()}
        assert len(ids) == SPEC.cell_count
        for field, value in [
            ("protocol", "sync-crash"), ("n", 8), ("t", 1), ("epsilon", 1e-2),
            ("adversary", "none"), ("workload", "extremes"), ("seed", 12),
            ("engine", "event"),
        ]:
            assert cell_id(dataclasses.replace(A_CELL, **{field: value})) != cell_id(A_CELL)

    def test_stable_across_processes_and_hash_randomisation(self):
        cells = list(SPEC.cells())[:4] + [A_CELL]
        expected = [cell_id(cell) for cell in cells]
        script = (
            "import dataclasses, json, sys\n"
            "from repro.sim.sweep import SweepCell\n"
            "from repro.sim.job import cell_id\n"
            "cells = [SweepCell(**payload) for payload in json.loads(sys.argv[1])]\n"
            "print(json.dumps([cell_id(cell) for cell in cells]))\n"
        )
        payload = json.dumps([dataclasses.asdict(cell) for cell in cells])
        for hashseed in ("0", "1", "424242"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in ("src", env.get("PYTHONPATH", "")) if p
            )
            output = subprocess.run(
                [sys.executable, "-c", script, payload],
                capture_output=True, text=True, check=True, env=env,
            ).stdout
            assert json.loads(output) == expected

    def test_shard_assignment_partitions_the_grid(self):
        for k in (1, 2, 3, 7):
            assignments = [cell_shard(cell, k) for cell in SPEC.cells()]
            assert all(0 <= shard < k for shard in assignments)
        with pytest.raises(ValueError, match="shard_count"):
            cell_shard(A_CELL, 0)


class TestManifest:
    def test_written_on_first_run_and_validated_after(self, tmp_path):
        job = SweepJob(SPEC, tmp_path / "job", workers=1)
        job.run()
        manifest = job.load_manifest()
        assert manifest["schema_version"] == STORE_SCHEMA_VERSION
        assert manifest["cell_id_algorithm"] == CELL_ID_ALGORITHM
        assert manifest["cell_count"] == SPEC.cell_count
        assert manifest["spec"]["engine"] == "batch"
        assert manifest["seed_policy"] == "explicit-seed-axis"

    def test_mismatched_spec_in_same_directory_fails_loudly(self, tmp_path):
        SweepJob(SPEC, tmp_path / "job", workers=1).run()
        other = dataclasses.replace(SPEC, seeds=(0, 1))
        with pytest.raises(SweepJobError, match="different sweep"):
            SweepJob(other, tmp_path / "job", workers=1).run()

    def test_mismatch_names_a_different_retry_policy(self, tmp_path):
        # Same grid, resumed with a retry policy: only retry_policy differs.
        from repro.sim.resilient import RetryPolicy

        SweepJob(SPEC, tmp_path / "job", workers=1).run()
        with pytest.raises(SweepJobError) as raised:
            SweepJob(SPEC, tmp_path / "job", workers=1, retry=RetryPolicy()).run()
        message = str(raised.value)
        assert "retry_policy: stored None, requested {'max_attempts': 3" in message
        assert "grid spec" not in message
        assert "spec." not in message

    def test_mismatch_names_each_differing_grid_axis(self, tmp_path):
        SweepJob(SPEC, tmp_path / "job", workers=1).run()
        other = dataclasses.replace(SPEC, seeds=(0, 1))
        with pytest.raises(SweepJobError) as raised:
            SweepJob(other, tmp_path / "job", workers=1).run()
        message = str(raised.value)
        assert "spec.seeds: stored [0, 1, 2, 3], requested [0, 1]" in message
        assert "cell_count: stored 16, requested 8" in message
        assert "spec.protocols" not in message

    def test_integer_epsilon_survives_the_manifest(self, tmp_path):
        from repro.sim.job import main, spec_from_manifest

        spec = SweepSpec(
            protocols=("sync-crash",), system_sizes=((4, 1),),
            seeds=(0, 1, 2), epsilon=1, engine="batch",
        )
        job = SweepJob(spec, tmp_path / "job", workers=1)
        job.run()
        rebuilt = SweepJob(spec_from_manifest(job.load_manifest()), tmp_path / "job")
        assert [cell_id(cell) for cell in rebuilt.spec.cells()] == [
            cell_id(cell) for cell in spec.cells()
        ]
        for index in range(2):
            assert [cell_id(cell) for cell in rebuilt.cells((index, 2))] == [
                cell_id(cell) for cell in job.cells((index, 2))
            ]
        # The CLI resumes through the manifest: nothing runs twice.
        assert main(["run", "--dir", str(tmp_path / "job")]) == 0
        assert len(store_lines(job)) == spec.cell_count
        assert job.compact().records == spec.cell_count

    def test_corrupt_manifest_is_an_error_not_a_crash(self, tmp_path):
        job = SweepJob(SPEC, tmp_path / "job", workers=1)
        job.run()
        job.manifest_path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SweepJobError, match="not valid JSON"):
            job.run()


class TestResume:
    def test_second_run_skips_everything_and_leaves_bytes_unchanged(self, tmp_path):
        job = SweepJob(SPEC, tmp_path / "job", workers=1)
        first = job.run()
        assert (first.total, first.skipped, first.executed) == (16, 0, 16)
        before = job.store_path().read_bytes()
        second = job.run()
        assert (second.total, second.skipped, second.executed) == (16, 16, 0)
        assert job.store_path().read_bytes() == before

    def test_interrupted_run_resumes_to_bit_identical_store(self, tmp_path):
        reference = SweepJob(SPEC, tmp_path / "uninterrupted", workers=1)
        reference.run()
        expected = sorted(store_lines(reference))

        job = SweepJob(SPEC, tmp_path / "killed", workers=1)
        job.run()
        lines = job.store_path().read_text(encoding="utf-8").splitlines(keepends=True)
        # Simulate a mid-write kill: 5 complete lines plus a truncated sixth.
        job.store_path().write_text("".join(lines[:5]) + lines[5][:37], encoding="utf-8")
        result = job.run(resume=True)
        assert result.repaired
        assert result.skipped == 5 and result.executed == 11
        assert sorted(store_lines(job)) == expected
        assert job.is_complete()

    def test_mid_file_corruption_truncates_tail_and_recomputes(self, tmp_path):
        job = SweepJob(SPEC, tmp_path / "job", workers=1)
        job.run()
        expected = sorted(store_lines(job))
        lines = job.store_path().read_text(encoding="utf-8").splitlines(keepends=True)
        # Garbage in the middle: everything after it is no longer trusted.
        corrupted = "".join(lines[:3]) + "}}garbage{{\n" + "".join(lines[3:])
        job.store_path().write_text(corrupted, encoding="utf-8")
        result = job.run(resume=True)
        assert result.repaired
        assert result.skipped == 3 and result.executed == 13
        assert sorted(store_lines(job)) == expected

    def test_resume_false_refuses_to_clobber_unless_overwritten(self, tmp_path):
        job = SweepJob(SPEC, tmp_path / "job", workers=1)
        job.run()
        with pytest.raises(SweepJobError, match="already holds outcomes"):
            job.run(resume=False)
        result = job.run(resume=False, overwrite=True)
        assert result.executed == 16 and result.skipped == 0

    def test_pool_and_serial_runs_write_identical_stores(self, tmp_path):
        serial = SweepJob(SPEC, tmp_path / "serial", workers=1)
        pooled = SweepJob(SPEC, tmp_path / "pooled", workers=4)
        serial.run()
        pooled.run()
        # Batch-engine job stores are canonical (no wall times) and written
        # in grid order, so pool == serial is byte-for-byte.
        assert serial.store_path().read_bytes() == pooled.store_path().read_bytes()

    @needs_numpy
    def test_ndbatch_job_resumes_bit_identical(self, tmp_path):
        spec = dataclasses.replace(SPEC, engine="ndbatch")
        reference = SweepJob(spec, tmp_path / "uninterrupted", workers=1)
        reference.run()
        expected = sorted(store_lines(reference))
        job = SweepJob(spec, tmp_path / "killed", workers=2)
        job.run()
        lines = job.store_path().read_text(encoding="utf-8").splitlines(keepends=True)
        job.store_path().write_text("".join(lines[:7]) + lines[7][:20], encoding="utf-8")
        result = job.run(resume=True)
        assert result.repaired and result.skipped == 7 and result.executed == 9
        assert sorted(store_lines(job)) == expected

    def test_auto_engine_job_resumes_to_equal_measurements(self, tmp_path):
        # Under engine="auto" the block-setup cost model may demote a small
        # pending remainder to a different engine, so engine_used can differ
        # between an uninterrupted and a resumed store; every measurement is
        # engine-independent (differentially pinned) and must be identical.
        spec = dataclasses.replace(SPEC, engine="auto")
        reference = SweepJob(spec, tmp_path / "uninterrupted", workers=1)
        reference.run()
        job = SweepJob(spec, tmp_path / "killed", workers=1)
        job.run()
        lines = job.store_path().read_text(encoding="utf-8").splitlines(keepends=True)
        job.store_path().write_text("".join(lines[:4]) + lines[4][:25], encoding="utf-8")
        job.run(resume=True)
        want = {o.cell: o for o in reference.outcomes()}
        got = {o.cell: o for o in job.outcomes()}
        assert want.keys() == got.keys()
        for cell, outcome in want.items():
            other = got[cell]
            assert (outcome.ok, outcome.rounds, outcome.messages, outcome.bits) == (
                other.ok, other.rounds, other.messages, other.bits
            )
            assert outcome.output_spread == pytest.approx(other.output_spread, abs=1e-9)


class TestSharding:
    def test_shards_are_disjoint_and_union_to_the_grid(self, tmp_path):
        job = SweepJob(SPEC, tmp_path / "job", workers=1)
        k = 3
        executed = 0
        seen = set()
        for index in range(k):
            result = job.run(shard=(index, k))
            assert result.shard == (index, k)
            executed += result.executed
            shard_ids = {
                cell_id(outcome.cell)
                for outcome in iter_sweep_jsonl(str(job.store_path((index, k))))
            }
            assert not (seen & shard_ids)  # no cell executed twice
            seen |= shard_ids
        assert executed == SPEC.cell_count
        assert seen == {cell_id(cell) for cell in SPEC.cells()}
        assert job.is_complete()

    def test_sharded_union_equals_unsharded_outcomes(self, tmp_path):
        unsharded = SweepJob(SPEC, tmp_path / "one", workers=1)
        unsharded.run()
        sharded = SweepJob(SPEC, tmp_path / "many", workers=1)
        for index in range(4):
            sharded.run(shard=(index, 4))
        assert sharded.outcomes() == unsharded.outcomes()

    def test_shard_arguments_validated(self, tmp_path):
        job = SweepJob(SPEC, tmp_path / "job", workers=1)
        with pytest.raises(ValueError, match="shard count"):
            job.run(shard=(0, 0))
        with pytest.raises(ValueError, match="shard index"):
            job.run(shard=(4, 4))

    def test_resume_skips_cells_already_stored_by_other_slices(self, tmp_path):
        job = SweepJob(SPEC, tmp_path / "job", workers=1)
        job.run(shard=(0, 2))
        # The full-grid run must only execute what shard 0 did not cover.
        result = job.run()
        shard0 = len(job.cells(shard=(0, 2)))
        assert result.skipped == shard0
        assert result.executed == SPEC.cell_count - shard0
        assert job.is_complete()


class TestAggregation:
    def test_fold_over_shard_stores_matches_summarize_sweep(self, tmp_path):
        job = SweepJob(SPEC, tmp_path / "job", workers=1)
        for index in range(3):
            job.run(shard=(index, 3))
        direct = summarize_sweep(run_sweep(SPEC, workers=1))
        assert job.summary() == direct
        fold = fold_sweep_jsonl(str(path) for path in job.store_paths())
        assert fold.total_outcomes == SPEC.cell_count
        assert fold.records() == direct

    def test_shard_folds_merge_into_the_global_fold(self, tmp_path):
        job = SweepJob(SPEC, tmp_path / "job", workers=1)
        folds = []
        for index in range(3):
            job.run(shard=(index, 3))
            folds.append(fold_sweep_jsonl([str(job.store_path((index, 3)))]))
        merged = folds[0].merge(folds[1]).merge(folds[2])
        assert merged.records() == job.summary()
        assert merged.total_outcomes == SPEC.cell_count

    def test_fold_deduplicates_across_overlapping_stores(self, tmp_path):
        job = SweepJob(SPEC, tmp_path / "job", workers=1)
        job.run()
        # Duplicate the whole store under another slice name: every cell now
        # appears twice across the directory's stores.
        duplicate = job.store_path((0, 1))
        duplicate.write_bytes(job.store_path().read_bytes())
        fold = job.fold()
        assert fold.total_outcomes == SPEC.cell_count
        assert job.summary() == summarize_sweep(run_sweep(SPEC, workers=1))


class TestStoreScan:
    def test_scan_reports_partial_tail_and_valid_prefix(self, tmp_path):
        job = SweepJob(SPEC, tmp_path / "job", workers=1)
        job.run()
        path = job.store_path()
        clean = scan_sweep_store(str(path))
        assert not clean.corrupt
        assert clean.valid_lines == SPEC.cell_count
        assert clean.valid_bytes == path.stat().st_size
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        prefix = "".join(lines[:6])
        path.write_text(prefix + lines[6][:19], encoding="utf-8")
        scan = scan_sweep_store(str(path))
        assert scan.corrupt
        assert scan.valid_lines == 6
        assert scan.valid_bytes == len(prefix.encode("utf-8"))
        assert len(scan.completed) == 6

    def test_tolerant_reader_skips_partial_tail_with_warning(self, tmp_path):
        job = SweepJob(SPEC, tmp_path / "job", workers=1)
        job.run()
        path = job.store_path()
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[:3]) + lines[3][:30], encoding="utf-8")
        with pytest.warns(SweepStoreWarning, match="truncated trailing line"):
            outcomes = list(iter_sweep_jsonl(str(path)))
        assert len(outcomes) == 3
        with pytest.raises(ValueError, match="undecodable"):
            list(iter_sweep_jsonl(str(path), strict=True))


class TestMerge:
    def sharded_pair(self, tmp_path):
        """Two 'hosts' each running one shard into their own directory."""
        a = SweepJob(SPEC, tmp_path / "host-a", workers=1)
        b = SweepJob(SPEC, tmp_path / "host-b", workers=1)
        a.run(shard=(0, 2))
        b.run(shard=(1, 2))
        return a, b

    def test_merge_pools_shard_stores_into_a_complete_job(self, tmp_path):
        a, b = self.sharded_pair(tmp_path)
        copied = a.merge([b.directory])
        assert [path.parent for path in copied] == [a.directory]
        assert a.is_complete()
        reference = run_sweep(SPEC, workers=1)
        assert a.outcomes() == reference

    def test_merge_is_idempotent(self, tmp_path):
        a, b = self.sharded_pair(tmp_path)
        first = a.merge([b.directory])
        assert len(first) == 1
        assert a.merge([b.directory]) == []  # byte-identical copies skip

    def test_merge_rejects_a_directory_without_a_manifest(self, tmp_path):
        a, _ = self.sharded_pair(tmp_path)
        (tmp_path / "not-a-job").mkdir()
        with pytest.raises(SweepJobError, match="no manifest.json"):
            a.merge([tmp_path / "not-a-job"])

    def test_merge_rejects_a_different_grid_spec(self, tmp_path):
        a, _ = self.sharded_pair(tmp_path)
        other_spec = dataclasses.replace(SPEC, seeds=(0, 1))
        other = SweepJob(other_spec, tmp_path / "other", workers=1)
        other.run()
        with pytest.raises(SweepJobError, match="'spec' mismatch"):
            a.merge([other.directory])
        assert not (a.directory / other.store_path().name).exists() or (
            a.store_path().exists()
        )  # nothing from the bad source was copied

    def test_merge_validates_before_copying_anything(self, tmp_path):
        a, b = self.sharded_pair(tmp_path)
        other = SweepJob(dataclasses.replace(SPEC, seeds=(9,)), tmp_path / "bad")
        other.run()
        before = sorted(path.name for path in a.store_paths())
        with pytest.raises(SweepJobError):
            a.merge([b.directory, other.directory])  # good source listed first
        assert sorted(path.name for path in a.store_paths()) == before

    def test_merge_rejects_same_name_different_content(self, tmp_path):
        a = SweepJob(SPEC, tmp_path / "host-a", workers=1)
        b = SweepJob(SPEC, tmp_path / "host-b", workers=1)
        a.run(shard=(0, 2))
        b.run(shard=(0, 2))  # same slice name...
        target = b.store_path((0, 2))
        lines = target.read_text(encoding="utf-8").splitlines(keepends=True)
        target.write_text("".join(reversed(lines)), encoding="utf-8")  # ...other bytes
        with pytest.raises(SweepJobError, match="different content"):
            a.merge([b.directory])

    def test_merge_copies_quarantine_files(self, tmp_path):
        from repro.sim.chaos import ChaosPlan, ChaosRule, FAULT_RAISE
        from repro.sim.resilient import RetryPolicy

        cells = list(SPEC.cells())
        poisoned = cell_id(cells[0])
        fast = RetryPolicy(max_attempts=2, backoff_base_seconds=0.001)
        plan = ChaosPlan(rules=(ChaosRule(fault=FAULT_RAISE, cells=(poisoned,)),))
        b = SweepJob(SPEC, tmp_path / "host-b", workers=1, retry=fast, chaos=plan)
        result = b.run()
        assert result.quarantined == 1
        a = SweepJob(SPEC, tmp_path / "host-a", workers=1)
        copied = a.merge([b.directory])
        assert {path.name for path in copied} == {"cells.jsonl", "quarantine.jsonl"}
        fold = a.fold()
        assert fold.quarantined_count == 1
        assert fold.quarantined_by_fault() == {"raise": 1}


class TestRetryQuarantined:
    def test_rerun_executes_the_quarantined_cell_and_clears_it(self, tmp_path, monkeypatch):
        from repro.sim.chaos import ChaosPlan, ChaosRule, FAULT_RAISE
        from repro.sim.resilient import RetryPolicy

        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        spec = SweepSpec(
            protocols=("async-crash",), system_sizes=((7, 2),), seeds=tuple(range(6))
        )
        cells = list(spec.cells())
        fast = RetryPolicy(max_attempts=2, backoff_base_seconds=0.001)
        plan = ChaosPlan(rules=(ChaosRule(fault=FAULT_RAISE, cells=(cell_id(cells[3]),)),))
        poisoned = SweepJob(spec, tmp_path / "job", workers=1, retry=fast, chaos=plan)
        assert poisoned.run().quarantined == 1
        job = SweepJob(spec, tmp_path / "job", workers=1, retry=fast)
        assert job.progress().quarantined_cells == 1
        rerun = job.run(retry_quarantined=True)
        assert rerun.executed == 1
        assert job.progress().quarantined_cells == 0
        fold = job.fold()
        assert fold.quarantined_count == 0
        assert fold.total_outcomes == spec.cell_count
        assert job.is_complete()


class TestStoreReplayCost:
    def test_replay_hashes_no_cell_and_compact_reads_each_line_once(
        self, tmp_path, monkeypatch
    ):
        import repro.sim.job as job_module
        import repro.sim.sweep as sweep_module

        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        job = SweepJob(SPEC, tmp_path / "job", workers=1)
        for index in range(4):
            job.run(shard=(index, 4))
        assert len(job.store_paths()) == 4 and not job.quarantine_paths()
        calls = {"cell_id": 0, "decode": 0}

        def counting(name, function):
            def counted(*args):
                calls[name] += 1
                return function(*args)

            return counted

        monkeypatch.setattr(job_module, "cell_id", counting("cell_id", job_module.cell_id))
        decode = counting("decode", sweep_module._outcome_from_payload)
        for module in (job_module, sweep_module):
            monkeypatch.setattr(module, "_outcome_from_payload", decode)
        job = SweepJob(SPEC, tmp_path / "job", workers=1)
        assert job.run().executed == 0
        before = job.fold()
        job.progress()
        decoded = calls["decode"]
        assert job.compact().records == SPEC.cell_count
        assert calls["decode"] - decoded == SPEC.cell_count
        after = job.fold()
        assert calls["cell_id"] == 0
        assert after.records() == before.records()


class TestProgress:
    def test_on_progress_streams_monotone_snapshots(self, tmp_path):
        job = SweepJob(SPEC, tmp_path / "job", workers=1)
        snapshots = []
        job.run(on_progress=snapshots.append)
        assert len(snapshots) == SPEC.cell_count
        executed = [snap.executed_this_run for snap in snapshots]
        assert executed == list(range(1, SPEC.cell_count + 1))
        final = snapshots[-1]
        assert final.total_cells == SPEC.cell_count
        assert final.completed_cells == SPEC.cell_count
        assert final.remaining_cells == 0
        assert final.cells_per_second > 0.0
        assert all(
            snap.eta_seconds is not None and snap.eta_seconds >= 0.0
            for snap in snapshots
        )

    def test_progress_accounts_for_resumed_cells(self, tmp_path):
        job = SweepJob(SPEC, tmp_path / "job", workers=1)
        job.run(shard=(0, 2))
        snapshots = []
        job.run(on_progress=snapshots.append)
        done_before = SPEC.cell_count - snapshots[-1].executed_this_run
        assert done_before > 0
        assert snapshots[0].completed_cells == done_before + 1
        assert snapshots[-1].completed_cells == SPEC.cell_count

    def test_idle_progress_reads_the_stores(self, tmp_path):
        job = SweepJob(SPEC, tmp_path / "job", workers=1)
        idle = job.progress()
        assert idle.completed_cells == 0
        assert idle.cells_per_second == 0.0
        assert idle.eta_seconds is None
        job.run(shard=(0, 2))
        partial = job.progress()
        assert 0 < partial.completed_cells < SPEC.cell_count
        assert partial.remaining_cells == SPEC.cell_count - partial.completed_cells


class TestManifestRetryPolicy:
    def test_retry_policy_recorded_in_manifest(self, tmp_path):
        from repro.sim.resilient import RetryPolicy

        policy = RetryPolicy(max_attempts=5, timeout_seconds=30.0)
        job = SweepJob(SPEC, tmp_path / "job", workers=1, retry=policy)
        job.write_manifest()
        manifest = json.loads(job.manifest_path.read_text(encoding="utf-8"))
        assert manifest["retry_policy"] == policy.as_payload()
        assert RetryPolicy.from_payload(manifest["retry_policy"]) == policy

    def test_no_policy_recorded_as_null(self, tmp_path):
        job = SweepJob(SPEC, tmp_path / "job", workers=1)
        job.write_manifest()
        manifest = json.loads(job.manifest_path.read_text(encoding="utf-8"))
        assert manifest["retry_policy"] is None

    def test_pre_resilience_manifest_still_validates(self, tmp_path):
        # Stores written before the resilient layer existed have no
        # retry_policy key; resuming them must not fail the manifest check.
        job = SweepJob(SPEC, tmp_path / "job", workers=1)
        job.write_manifest()
        manifest = json.loads(job.manifest_path.read_text(encoding="utf-8"))
        del manifest["retry_policy"]
        job.manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        result = SweepJob(SPEC, tmp_path / "job", workers=1).run()
        assert result.executed == SPEC.cell_count

    def test_changed_retry_policy_fails_the_manifest_check(self, tmp_path):
        from repro.sim.resilient import RetryPolicy

        SweepJob(SPEC, tmp_path / "job", retry=RetryPolicy(max_attempts=2)).write_manifest()
        other = SweepJob(SPEC, tmp_path / "job", retry=RetryPolicy(max_attempts=9))
        with pytest.raises(SweepJobError, match="manifest"):
            other.write_manifest()


class TestCommandLine:
    """The ``python -m repro.sim.job`` shard-worker front door."""

    def test_parse_shard(self):
        from repro.sim.job import parse_shard

        assert parse_shard("2/8") == (2, 8)
        with pytest.raises(ValueError, match="I/K"):
            parse_shard("2of8")
        with pytest.raises(ValueError, match="shard index"):
            parse_shard("8/8")
        with pytest.raises(ValueError, match="shard count"):
            parse_shard("0/0")

    def test_run_sharded_then_inspect(self, tmp_path, capsys):
        from repro.sim.job import main

        directory = str(tmp_path / "job")
        grid_flags = [
            "--protocols", "async-crash", "--sizes", "7:2",
            "--seeds", "0..3", "--engine", "batch",
        ]
        assert main(["run", "--dir", directory, "--shard", "0/2", *grid_flags]) == 0
        # The second shard needs no grid flags: the manifest is the grid.
        assert main(["run", "--dir", directory, "--shard", "1/2"]) == 0
        out = capsys.readouterr().out
        assert "shard 0/2" in out and "shard 1/2" in out
        assert main(["progress", "--dir", directory]) == 0
        assert "4/4 complete, 0 remaining" in capsys.readouterr().out
        assert main(["summary", "--dir", directory]) == 0
        summary = capsys.readouterr().out
        assert "async-crash" in summary and "ok_fraction" in summary
        # The shards together are exactly the grid.
        job = SweepJob(
            SweepSpec(
                protocols=("async-crash",), system_sizes=((7, 2),),
                seeds=(0, 1, 2, 3), engine="batch",
            ),
            directory,
        )
        assert job.is_complete()

    def test_run_resumes_and_reports_skips(self, tmp_path, capsys):
        from repro.sim.job import main

        directory = str(tmp_path / "job")
        grid_flags = [
            "--protocols", "async-crash", "--sizes", "7:2",
            "--seeds", "0..2", "--engine", "batch",
        ]
        assert main(["run", "--dir", directory, *grid_flags]) == 0
        assert "3 executed, 0 skipped" in capsys.readouterr().out
        assert main(["run", "--dir", directory]) == 0
        assert "0 executed, 3 skipped" in capsys.readouterr().out

    def test_missing_manifest_without_grid_flags_fails_loudly(self, tmp_path):
        from repro.sim.job import main

        with pytest.raises(SweepJobError, match="no grid flags"):
            main(["run", "--dir", str(tmp_path / "void")])

    def test_module_entry_point(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p
        )
        completed = subprocess.run(
            [
                sys.executable, "-m", "repro.sim.job", "run",
                "--dir", str(tmp_path / "job"), "--shard", "1/3",
                "--protocols", "async-crash", "--sizes", "7:2",
                "--seeds", "0..2", "--engine", "batch",
            ],
            capture_output=True, text=True, check=True, env=env,
        )
        assert "shard 1/3" in completed.stdout

    def test_module_entry_point_starts_without_runpy_warning(self):
        # The packages serve the job names lazily, so importing them does
        # not import repro.sim.job and runpy finds it unimported.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p
        )
        for command in (
            ["-m", "repro.sim.job", "--help"],
            ["-c", "import sys, repro; assert 'repro.sim.job' not in sys.modules"],
        ):
            completed = subprocess.run(
                [sys.executable, "-W", "error::RuntimeWarning", *command],
                capture_output=True, text=True, env=env,
            )
            assert completed.returncode == 0, completed.stderr

        import repro
        import repro.sim
        import repro.sim.job

        assert repro.SweepJob is repro.sim.job.SweepJob
        assert repro.SweepJobResult is repro.sim.job.SweepJobResult
        assert repro.sim.cell_id is repro.sim.job.cell_id
        with pytest.raises(AttributeError, match="no_such_name"):
            repro.sim.no_such_name


class TestCompaction:
    def test_compact_rewrites_shards_into_grid_order(self, tmp_path):
        job = SweepJob(SPEC, str(tmp_path / "job"), workers=1)
        for index in range(3):
            job.run(shard=(index, 3))
        before = {cell_id(o.cell): o for o in job.iter_outcomes()}
        result = job.compact()
        assert result.records == SPEC.cell_count
        assert len(result.removed_paths) == 3
        assert job.store_paths() == [job.store_path()]
        # Same record set, now in grid order.
        assert {cell_id(o.cell): o for o in job.iter_outcomes()} == before
        assert [cell_id(o.cell) for o in job.iter_outcomes()] == [
            cell_id(cell) for cell in SPEC.cells()
        ]

    def test_compact_store_is_bit_identical_to_uninterrupted_run(self, tmp_path):
        sharded = SweepJob(SPEC, str(tmp_path / "sharded"), workers=1)
        for index in range(2):
            sharded.run(shard=(index, 2))
        sharded.compact()
        straight = SweepJob(SPEC, str(tmp_path / "straight"), workers=1)
        straight.run()
        assert (
            sharded.store_path().read_bytes() == straight.store_path().read_bytes()
        )

    def test_compact_is_idempotent_and_drops_duplicates(self, tmp_path):
        job = SweepJob(SPEC, str(tmp_path / "job"), workers=1)
        job.run()
        # Duplicate the store under a shard-style name: dedup must keep the
        # first-store-wins record set, exactly like iter_outcomes.
        clone = job.directory / "cells.shard-00-of-02.jsonl"
        clone.write_bytes(job.store_path().read_bytes())
        result = job.compact()
        assert result.duplicates_dropped == SPEC.cell_count
        assert result.records == SPEC.cell_count
        again = job.compact()
        assert again.duplicates_dropped == 0 and not again.removed_paths

    def test_compact_refuses_corrupt_tail(self, tmp_path):
        job = SweepJob(SPEC, str(tmp_path / "job"), workers=1)
        job.run()
        with open(job.store_path(), "a", encoding="utf-8") as handle:
            handle.write('{"cell": {"protoc')  # killed mid-write
        with pytest.raises(SweepJobError, match="truncated/corrupt tail"):
            job.compact()
        job.run()  # resume repairs the tail
        assert job.compact().records == SPEC.cell_count

    def test_compact_refuses_foreign_cells(self, tmp_path):
        job = SweepJob(SPEC, str(tmp_path / "job"), workers=1)
        job.run()
        other = dataclasses.replace(SPEC, seeds=(99,))
        foreign = SweepJob(other, str(tmp_path / "foreign"), workers=1)
        foreign.run()
        with open(job.store_path(), "a", encoding="utf-8") as handle:
            handle.write(foreign.store_path().read_text(encoding="utf-8"))
        with pytest.raises(SweepJobError, match="not in this job's grid"):
            job.compact()

    def test_compact_refuses_other_grids_directory(self, tmp_path):
        job = SweepJob(SPEC, str(tmp_path / "job"), workers=1)
        job.run()
        mismatched = SweepJob(
            dataclasses.replace(SPEC, seeds=(0,)), str(tmp_path / "job")
        )
        with pytest.raises(SweepJobError, match="different sweep"):
            mismatched.compact()

    def test_compact_cli(self, tmp_path, capsys):
        from repro.sim.job import main

        directory = str(tmp_path / "job")
        assert main([
            "run", "--dir", directory, "--shard", "0/2",
            "--protocols", "async-crash", "--sizes", "7:2",
            "--seeds", "0..3", "--engine", "batch",
        ]) == 0
        assert main(["run", "--dir", directory, "--shard", "1/2"]) == 0
        capsys.readouterr()
        assert main(["compact", "--dir", directory]) == 0
        out = capsys.readouterr().out
        assert "4 records in grid order" in out
        assert "2 store file(s) removed" in out


class TestDimensionAxisJobs:
    def test_d1_cell_ids_unchanged_and_d2_distinct(self):
        # The v1 pinned literal in TestCellIds already guards d=1 stability;
        # here: adding the axis separates IDs without touching scalar ones.
        assert cell_id(A_CELL) == cell_id(dataclasses.replace(A_CELL, dimension=1))
        assert cell_id(dataclasses.replace(A_CELL, dimension=2)) != cell_id(A_CELL)

    def test_vector_job_runs_resumes_and_compacts(self, tmp_path):
        spec = dataclasses.replace(
            SPEC,
            system_sizes=((7, 2),),
            workloads=("rendezvous",),
            seeds=(0, 1),
            dimensions=(1, 2),
        )
        job = SweepJob(spec, str(tmp_path / "job"), workers=1)
        first = job.run()
        assert first.executed == spec.cell_count == 8
        again = SweepJob(spec, str(tmp_path / "job"), workers=1).run()
        assert again.executed == 0 and again.skipped == 8
        job.compact()
        dims = sorted({o.cell.dimension for o in job.iter_outcomes()})
        assert dims == [1, 2]

    def test_v1_manifest_resumes_under_v2(self, tmp_path):
        spec = dataclasses.replace(SPEC, system_sizes=((7, 2),), seeds=(0, 1))
        job = SweepJob(spec, str(tmp_path / "job"), workers=1)
        job.run()
        manifest_path = job.manifest_path
        payload = json.loads(manifest_path.read_text(encoding="utf-8"))
        payload["schema_version"] = 1
        del payload["spec"]["dimensions"]
        del payload["retry_policy"]
        manifest_path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        resumed = SweepJob(spec, str(tmp_path / "job"), workers=1).run()
        assert resumed.executed == 0 and resumed.skipped == spec.cell_count
