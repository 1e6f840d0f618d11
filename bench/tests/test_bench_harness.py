"""Self-tests of the benchmark harness in ``bench/`` (run, rep, trace)."""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}_under_test", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


rep = _load("rep")
trace = rep.bench_trace
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str) -> dict:
    completed = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_quick_run_prints_exactly_the_benchmark_metrics():
    names = [workload["name"] for workload in BENCHMARK["workloads"]]
    assert names == list(rep.WORKLOADS)
    line = _bench("--quick", "--seed", "1")
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    expected = {
        f"{workload}.{metric['name']}"
        for workload in names
        for metric in BENCHMARK["end_to_end"]
    }
    assert set(line["metrics"]) == expected
    assert all(metric["value"] > 0 for metric in line["metrics"].values())

    traced = _bench("--quick", "--workload", "store-replay", "--trace", "1")
    assert traced["correct"]
    per_layer = {metric["name"] for metric in BENCHMARK["per_layer"]}
    assert set(traced["metrics"]) == per_layer
    assert per_layer == {name for name, _, _ in trace.per_layer_metrics()}
    assert traced["metrics"]["job.compact.calls"]["value"] == 1
    assert traced["metrics"]["job.fold.calls"]["value"] == 2
    assert traced["metrics"]["sweep.run_cell.calls"]["value"] == 0


def test_seed_shifts_the_seed_axis_without_changing_the_cell_count():
    for workload in rep.WORKLOADS.values():
        first = rep.build_spec(workload, 0, quick=False)
        shifted = rep.build_spec(workload, 3, quick=False)
        assert first.cell_count == shifted.cell_count == workload.cell_count()
        assert len(first.seeds) == len(shifted.seeds)
        assert not set(first.seeds) & set(shifted.seeds)
        assert [seed - shifted.seeds[0] for seed in shifted.seeds] == [
            seed - first.seeds[0] for seed in first.seeds
        ]
        assert (first.protocols, first.system_sizes, first.adversaries) == (
            shifted.protocols, shifted.system_sizes, shifted.adversaries
        )


def _span(span_id, parent, name, start, end, seg=0, leaf=0.0, pid=1, n=0):
    return {"id": span_id, "parent": parent, "name": name, "start": start,
            "end": end, "pid": pid, "n": n, "seg": seg, "leaf": leaf}


def test_self_time_subtracts_the_union_of_overlapping_children():
    assert trace.covered([(1, 4), (3, 6), (8, 12)], 0, 10) == pytest.approx(7.0)
    spans = [
        _span(1, None, "job.run", 0.0, 10.0, leaf=0.5),
        _span(2, 1, "sweep.run_cell", 1.0, 4.0),
        _span(3, 1, "sweep.run_cell", 3.0, 6.0),
        _span(4, 1, "batch.run", 8.0, 12.0),
        # Same ids in another process are other spans.
        _span(1, None, "sweep.run_cell", 0.0, 2.0, pid=2),
    ]
    own = trace.self_times(spans)
    assert own[(1, 1)] == pytest.approx(10.0 - 7.0 - 0.5)
    assert own[(1, 2)] == pytest.approx(3.0)
    assert own[(2, 1)] == pytest.approx(2.0)


def test_layer_table_counts_generators_once_and_nested_names_once():
    spans = [
        _span(1, None, "net.value_tensor", 0.0, 4.0),
        _span(2, 1, "net.value_tensor", 1.0, 3.0),  # a subclass calling its base
        _span(3, None, "sweep.cells", 5.0, 6.0, seg=0),
        _span(4, None, "sweep.cells", 7.0, 7.5, seg=1),
        _span(5, None, "ndbatch.run_block", 8.0, 9.0, n=128),
        _span(6, None, "ndbatch.run_vector_block", 9.0, 10.0, n=64),
    ]
    records = spans + [{"total": "job.cell_id", "calls": 10, "s": 0.25, "pid": 1}]
    table = trace.layer_table(records)
    assert table["net.value_tensor.calls"] == 2
    assert table["net.value_tensor.s"] == pytest.approx(4.0)
    assert table["net.value_tensor.self_s"] == pytest.approx(4.0)
    assert table["sweep.cells.calls"] == 1
    assert table["sweep.cells.s"] == pytest.approx(1.5)
    assert table["job.cell_id.calls"] == 10
    assert table["job.cell_id.self_s"] == pytest.approx(0.25)
    assert table["ndbatch.executions_per_block"] == pytest.approx(96.0)
    assert table["ndbatch.block_fill"] == pytest.approx(96.0 / 256)


def test_wrappers_rebind_every_alias_idempotently_and_restore():
    import multiprocessing.pool

    import repro.core.rounds as rounds
    import repro.sim
    import repro.sim.engine as engine
    import repro.sim.ndbatch as ndbatch
    import repro.sim.sweep as sweep
    from repro.net.adversary import SeededOmission

    before = (engine.run, rounds.approximation_step_block, sweep.run_cell,
              SeededOmission.__dict__["rank_tensor"], multiprocessing.pool.Pool.__init__,
              sweep.WORKLOAD_SPECS["uniform"])
    tracer = trace.Tracer()
    with tracer:
        assert sweep.run_on_engine is engine.run and engine.run.__wrapped__ is before[0]
        assert ndbatch.approximation_step_block is rounds.approximation_step_block
        assert sweep.run_cell is repro.sim.run_cell
        assert sweep.run_cell.__bench_span__ == "sweep.run_cell"
        assert SeededOmission.rank_tensor.__wrapped__ is before[3]
        assert sweep.WORKLOAD_SPECS["uniform"].__wrapped__ is before[5]
        wrapped = (engine.run, SeededOmission.rank_tensor, multiprocessing.pool.Pool.__init__)
        patches = len(tracer._patches)
        tracer.install()
        with trace.Tracer():  # a second tracer finds nothing left to wrap
            assert (engine.run, SeededOmission.rank_tensor,
                    multiprocessing.pool.Pool.__init__) == wrapped
        assert len(tracer._patches) == patches
    assert (engine.run, rounds.approximation_step_block, sweep.run_cell,
            SeededOmission.__dict__["rank_tensor"], multiprocessing.pool.Pool.__init__,
            sweep.WORKLOAD_SPECS["uniform"]) == before
    assert sweep.run_on_engine is before[0]
    assert ndbatch.approximation_step_block is before[1]


def test_wrapped_run_cell_survives_a_two_worker_pool(tmp_path):
    from repro.sim.job import SweepJob
    from repro.sim.sweep import SweepSpec

    spec = SweepSpec(protocols=("witness",), system_sizes=((7, 2),),
                     adversaries=("none", "byz-anti"), seeds=(0, 1, 2, 3), engine="batch")
    SweepJob(spec, str(tmp_path / "plain"), workers=1).run()
    plain = SweepJob(spec, str(tmp_path / "plain")).outcomes()
    spans_dir = tmp_path / "spans"
    spans_dir.mkdir()
    with trace.Tracer(str(spans_dir), "test", 0) as tracer:
        SweepJob(spec, str(tmp_path / "traced"), workers=2).run()
    records = tracer.collect()
    assert SweepJob(spec, str(tmp_path / "traced")).outcomes() == plain
    worker_cells = [record for record in records
                    if record.get("name") == "sweep.run_cell" and record["pid"] != os.getpid()]
    assert len(worker_cells) == spec.cell_count
    assert len({record["pid"] for record in worker_cells}) <= 2
    table = trace.layer_table(records)
    assert table["sweep.run_cell.calls"] == spec.cell_count
    assert table["batch.run.calls"] == spec.cell_count
    assert table["pool.spawn.calls"] == 1 and table["pool.items"] >= 1
