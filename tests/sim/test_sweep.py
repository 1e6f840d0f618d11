"""Tests for the scenario-grid sweep runner (:mod:`repro.sim.sweep`)."""

from __future__ import annotations

import dataclasses
import math
import pickle

import pytest

import multiprocessing
import time

from repro.analysis.tables import render_records
from repro.sim import NDBATCH_PROTOCOLS
from repro.sim.batch import BATCH_PROTOCOLS
from repro.sim.engine import numpy_available
from repro.sim.metrics import CostSummary
from repro.sim.resilient import iter_resilient_outcomes
from repro.sim.runner import PROTOCOL_FACTORIES
from repro.sim.sweep import (
    ADVERSARY_SPECS,
    CELL_COLUMNS,
    SUMMARY_COLUMNS,
    WORKLOAD_SPECS,
    CellOutcome,
    SweepCell,
    SweepSpec,
    _group_ndbatch_blocks,
    _plan_cell,
    _split_blocks,
    adversary_fits_protocol,
    iter_sweep_jsonl,
    read_sweep_jsonl,
    records_from_sweep,
    run_cell,
    run_sweep,
    summarize_sweep,
)

SPEC = SweepSpec(
    protocols=("async-crash",),
    system_sizes=((7, 2), (10, 3)),
    adversaries=("none", "crash-initial"),
    workloads=("uniform", "extremes"),
    seeds=(0, 1),
)


class TestGrid:
    def test_cell_count_matches_cartesian_product(self):
        cells = list(SPEC.cells())
        assert len(cells) == SPEC.cell_count == 1 * 2 * 2 * 2 * 2

    def test_cells_are_hashable_and_picklable(self):
        cells = list(SPEC.cells())
        assert len(set(cells)) == len(cells)
        assert pickle.loads(pickle.dumps(cells)) == cells

    def test_unknown_axis_values_rejected(self):
        bad = SweepSpec(protocols=("nope",), system_sizes=((4, 1),))
        with pytest.raises(ValueError, match="unknown protocol"):
            list(bad.cells())
        bad = SweepSpec(protocols=("async-crash",), system_sizes=((4, 1),), adversaries=("x",))
        with pytest.raises(ValueError, match="unknown adversary"):
            list(bad.cells())

    def test_witness_engine_capabilities(self):
        # The vectorised engine has no witness form; the batch engine's
        # round-level form and the event simulator both run it, and "auto"
        # defers the choice to dispatch time.
        cell = SweepCell(
            protocol="witness", n=7, t=2, epsilon=1e-3,
            adversary="none", workload="uniform", seed=0, engine="ndbatch",
        )
        with pytest.raises(ValueError, match="ndbatch engine"):
            cell.validate()
        for engine in ("batch", "event", "auto"):
            SweepCell(
                protocol="witness", n=7, t=2, epsilon=1e-3,
                adversary="none", workload="uniform", seed=0, engine=engine,
            ).validate()


class TestRegistries:
    def test_every_adversary_builds_for_every_protocol(self):
        for name, build in ADVERSARY_SPECS.items():
            for protocol in PROTOCOL_FACTORIES:
                bundle = build(protocol, 11, 2, seed=3)
                assert bundle.fault_plan is not None or bundle.delay_model is not None or name == "none"

    def test_every_workload_is_seeded_and_sized(self):
        for name, build in WORKLOAD_SPECS.items():
            inputs = build(9, 4)
            assert len(inputs) == 9
            assert build(9, 4) == inputs  # same seed, same inputs

    def test_byzantine_compatibility_predicate(self):
        assert adversary_fits_protocol("byz-fixed", "async-byzantine")
        assert not adversary_fits_protocol("byz-fixed", "async-crash")
        assert adversary_fits_protocol("crash-initial", "async-crash")


class TestOutcomes:
    def test_run_cell_produces_cost_compatible_outcome(self):
        cell = next(iter(SPEC.cells()))
        outcome = run_cell(cell)
        assert isinstance(outcome, CellOutcome)
        assert outcome.ok and outcome.bound_respected
        costs = outcome.costs
        assert isinstance(costs, CostSummary)
        assert costs.rounds == outcome.rounds
        assert costs.messages_per_round == outcome.messages / outcome.rounds

    def test_outcomes_render_through_analysis_tables(self):
        outcomes = run_sweep(SPEC, workers=1)
        assert len(outcomes) == SPEC.cell_count
        per_cell = render_records(records_from_sweep(outcomes), CELL_COLUMNS)
        assert "async-crash" in per_cell and "crash-initial" in per_cell
        summary = summarize_sweep(outcomes)
        # One summary row per (protocol, n, t, adversary, workload) group.
        assert len(summary) == 8
        table = render_records(summary, SUMMARY_COLUMNS)
        assert "ok_fraction" in table
        for record in summary:
            assert record.measured["ok_fraction"] == 1.0
            assert record.measured["runs"] == 2

    def test_event_engine_cells_run_every_protocol(self):
        for protocol in PROTOCOL_FACTORIES:
            n, t = (11, 2) if protocol == "async-byzantine" else (7, 2)
            cell = SweepCell(
                protocol=protocol, n=n, t=t, epsilon=1e-2,
                adversary="none", workload="uniform", seed=0, engine="event",
            )
            outcome = run_cell(cell)
            assert outcome.ok, f"{protocol}: {outcome.violations}"

    def test_batch_cells_cover_all_batch_protocols(self):
        for protocol in BATCH_PROTOCOLS:
            n, t = (11, 2) if protocol == "async-byzantine" else (7, 2)
            # Mid-multicast crash prefixes have no witness round form; the
            # witness cell exercises iteration-boundary crashes instead.
            adversary = "crash-initial" if protocol == "witness" else "crash-staggered"
            cell = SweepCell(
                protocol=protocol, n=n, t=t, epsilon=1e-2,
                adversary=adversary, workload="two-cluster", seed=5,
                engine="batch",
            )
            outcome = run_cell(cell)
            assert outcome.ok, f"{protocol}: {outcome.violations}"
            assert outcome.engine_used == "batch"

    def test_workers_argument_validated(self):
        with pytest.raises(ValueError, match="workers"):
            run_sweep(SPEC, workers=0)

    def test_epsilon_survives_into_records_and_summaries(self):
        # Regression: epsilon was dropped from both CellOutcome.as_record and
        # the summarize_sweep grouping key, so outcomes from different-ε
        # grids silently merged into one summary row.
        tight = SweepSpec(
            protocols=("async-crash",), system_sizes=((7, 2),),
            adversaries=("none",), workloads=("uniform",),
            seeds=(0, 1), epsilon=1e-4,
        )
        loose = dataclasses.replace(tight, epsilon=1e-1)
        outcomes = run_sweep(tight, workers=1) + run_sweep(loose, workers=1)
        for outcome in outcomes:
            assert outcome.as_record().params["epsilon"] == outcome.cell.epsilon
        summary = summarize_sweep(outcomes)
        assert len(summary) == 2  # one row per ε, not one merged row
        by_epsilon = {record.params["epsilon"]: record for record in summary}
        assert set(by_epsilon) == {1e-4, 1e-1}
        for record in summary:
            assert record.measured["runs"] == 2
        # Tighter ε must cost more rounds — distinguishable only because the
        # groups no longer merge.
        assert (
            by_epsilon[1e-4].measured["rounds_mean"]
            > by_epsilon[1e-1].measured["rounds_mean"]
        )


needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="the vectorised engine requires numpy"
)


@needs_numpy
class TestNdbatchEngine:
    def test_ndbatch_sweep_agrees_with_batch_sweep(self):
        batch = run_sweep(SPEC, workers=1)
        ndbatch = run_sweep(dataclasses.replace(SPEC, engine="ndbatch"), workers=1)
        assert len(batch) == len(ndbatch)
        for left, right in zip(batch, ndbatch):
            assert right.cell == dataclasses.replace(left.cell, engine="ndbatch")
            assert (left.ok, left.rounds, left.messages, left.bits) == (
                right.ok, right.rounds, right.messages, right.bits
            )
            assert left.output_spread == pytest.approx(right.output_spread, abs=1e-9)

    def test_ndbatch_cells_cover_all_ndbatch_protocols(self):
        for protocol in NDBATCH_PROTOCOLS:
            n, t = (11, 2) if protocol == "async-byzantine" else (7, 2)
            cell = SweepCell(
                protocol=protocol, n=n, t=t, epsilon=1e-2,
                adversary="crash-staggered", workload="two-cluster", seed=5,
                engine="ndbatch",
            )
            outcome = run_cell(cell)
            assert outcome.ok, f"{protocol}: {outcome.violations}"
            assert outcome.engine_used == "ndbatch"

    def test_blocks_group_by_shape_and_round_count(self):
        spec = dataclasses.replace(
            SPEC, engine="ndbatch", workloads=("uniform", "extremes")
        )
        cells = list(spec.cells())
        blocks = _group_ndbatch_blocks([_plan_cell(cell) for cell in cells])
        covered = sorted(i for _, indices, _ in blocks for i in indices)
        assert covered == list(range(len(cells)))  # every cell in exactly one block
        for rounds, indices, plans in blocks:
            shapes = {(cells[i].protocol, cells[i].n, cells[i].t) for i in indices}
            assert len(shapes) == 1
            assert rounds >= 0
            assert [plan.cell for plan in plans] == [cells[i] for i in indices]
            assert all(plan.rounds == rounds for plan in plans)
            assert all(len(plan.inputs) == cells[indices[0]].n for plan in plans)


class TestBlockSplitting:
    def test_split_blocks_caps_sizes_and_covers_every_cell(self):
        spec = dataclasses.replace(SPEC, engine="ndbatch", seeds=tuple(range(6)))
        cells = list(spec.cells())
        blocks = _group_ndbatch_blocks([_plan_cell(cell) for cell in cells])
        chunks = _split_blocks(blocks, max_block_size=4)
        assert max(len(indices) for _, indices, _ in chunks) <= 4
        covered = sorted(i for _, indices, _ in chunks for i in indices)
        assert covered == list(range(len(cells)))
        assert len(chunks) > len(blocks)  # something actually split

    def test_chunks_round_robin_across_source_blocks(self):
        spec = dataclasses.replace(SPEC, engine="ndbatch", seeds=tuple(range(6)))
        blocks = _group_ndbatch_blocks([_plan_cell(cell) for cell in spec.cells()])
        chunks = _split_blocks(blocks, max_block_size=4)
        # With >= 2 source blocks the first two chunks must come from
        # different blocks (interleaved), not the same block back to back.
        first_sources = [tuple(indices[:1]) for _, indices, _ in chunks[:2]]
        owner = []
        for probe in first_sources:
            for b, (_, indices, _) in enumerate(blocks):
                if probe[0] in indices:
                    owner.append(b)
        assert owner[0] != owner[1]

    @needs_numpy
    def test_splitting_preserves_outcomes_and_pool_determinism(self):
        spec = dataclasses.replace(SPEC, engine="ndbatch", seeds=tuple(range(4)))
        unsplit = run_sweep(spec, workers=1, max_block_size=10_000)
        split_serial = run_sweep(spec, workers=1, max_block_size=3)
        split_pool = run_sweep(spec, workers=4, max_block_size=3)
        assert unsplit == split_serial == split_pool

    @needs_numpy
    def test_invalid_cap_rejected(self):
        spec = dataclasses.replace(SPEC, engine="ndbatch")
        with pytest.raises(ValueError, match="max_block_size"):
            run_sweep(spec, workers=1, max_block_size=0)


class TestAutoEngine:
    def test_auto_sweep_matches_explicit_engines(self):
        auto = run_sweep(dataclasses.replace(SPEC, engine="auto"), workers=1)
        batch = run_sweep(SPEC, workers=1)
        assert len(auto) == len(batch)
        for left, right in zip(auto, batch):
            assert left.cell == dataclasses.replace(right.cell, engine="auto")
            assert (left.ok, left.rounds, left.messages, left.bits) == (
                right.ok, right.rounds, right.messages, right.bits
            )

    def test_auto_sweep_records_engine_used(self):
        spec = SweepSpec(
            protocols=("async-crash", "witness"),
            system_sizes=((7, 2),),
            adversaries=("none", "crash-initial", "crash-staggered"),
            workloads=("uniform",),
            seeds=(0,),
            engine="auto",
        )
        outcomes = run_sweep(spec, workers=1)
        used = {
            (o.cell.protocol, o.cell.adversary): o.engine_used for o in outcomes
        }
        import repro.sim.sweep as sweep_module

        expected_direct = (
            "ndbatch" if sweep_module.run_ndbatch_block is not None else "batch"
        )
        assert used[("async-crash", "none")] == expected_direct
        assert used[("async-crash", "crash-staggered")] == expected_direct
        assert used[("witness", "none")] == "batch"
        assert used[("witness", "crash-initial")] == "batch"
        # Mid-multicast crash prefixes have no witness round form.
        assert used[("witness", "crash-staggered")] == "event"
        assert all(o.ok for o in outcomes)

    def test_auto_pool_equals_serial(self):
        spec = dataclasses.replace(SPEC, engine="auto", seeds=(0, 1, 2))
        assert run_sweep(spec, workers=1) == run_sweep(spec, workers=4)


class TestJsonlStreaming:
    def test_roundtrip_preserves_outcomes(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        outcomes = run_sweep(SPEC, workers=1)
        written = run_sweep(SPEC, workers=1, jsonl_path=str(path))
        assert written == SPEC.cell_count
        assert read_sweep_jsonl(str(path)) == outcomes

    @needs_numpy
    def test_ndbatch_streaming_roundtrip(self, tmp_path):
        path = tmp_path / "nd.jsonl"
        spec = dataclasses.replace(SPEC, engine="ndbatch")
        outcomes = run_sweep(spec, workers=1)
        written = run_sweep(spec, workers=2, jsonl_path=str(path))
        assert written == spec.cell_count
        # The ndbatch path streams each chunk as the pool returns it, so the
        # store's line order is chunk order, not grid order; the *set* of
        # outcomes is identical (each line is self-contained).
        read_back = {outcome.cell: outcome for outcome in read_sweep_jsonl(str(path))}
        assert read_back == {outcome.cell: outcome for outcome in outcomes}

    def test_iterator_is_lazy_and_line_oriented(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        run_sweep(SPEC, workers=1, jsonl_path=str(path))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == SPEC.cell_count
        first = next(iter_sweep_jsonl(str(path)))
        assert isinstance(first, CellOutcome)
        assert first.cell == next(iter(SPEC.cells()))

    def test_non_finite_output_spread_roundtrips(self, tmp_path):
        # An undecided cell records output_spread = NaN; the JSON dialect with
        # allow_nan must carry it through unchanged.
        outcome = run_cell(next(iter(SPEC.cells())))
        broken = dataclasses.replace(outcome, output_spread=float("nan"), ok=False)
        path = tmp_path / "nan.jsonl"
        from repro.sim.sweep import _outcome_to_json_line

        path.write_text(_outcome_to_json_line(broken))
        loaded = read_sweep_jsonl(str(path))[0]
        assert math.isnan(loaded.output_spread)
        assert not loaded.ok

    def test_existing_store_is_not_clobbered(self, tmp_path):
        # Regression: run_sweep(jsonl_path=...) used to open the store with
        # mode "w" unconditionally, silently discarding previous results.
        path = tmp_path / "sweep.jsonl"
        run_sweep(SPEC, workers=1, jsonl_path=str(path))
        before = path.read_bytes()
        with pytest.raises(FileExistsError, match="overwrite=True"):
            run_sweep(SPEC, workers=1, jsonl_path=str(path))
        assert path.read_bytes() == before  # nothing was truncated
        written = run_sweep(SPEC, workers=1, jsonl_path=str(path), overwrite=True)
        assert written == SPEC.cell_count

    def test_truncated_trailing_line_is_skipped_not_fatal(self, tmp_path):
        # A killed run's normal end state: the reader must yield the complete
        # lines and warn about the partial one, not raise mid-iteration.
        path = tmp_path / "sweep.jsonl"
        run_sweep(SPEC, workers=1, jsonl_path=str(path))
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-1]) + lines[-1][:33])
        from repro.sim.sweep import SweepStoreWarning

        with pytest.warns(SweepStoreWarning):
            outcomes = list(iter_sweep_jsonl(str(path)))
        assert len(outcomes) == SPEC.cell_count - 1

    @pytest.mark.slow
    def test_large_grid_streams_to_disk(self, tmp_path):
        spec = SweepSpec(
            protocols=("async-crash", "sync-crash"),
            system_sizes=((7, 2), (13, 4)),
            adversaries=("none", "crash-initial", "crash-staggered", "staggered", "laggard"),
            workloads=("uniform", "two-cluster"),
            seeds=tuple(range(25)),
            engine="ndbatch",
        )
        path = tmp_path / "large.jsonl"
        written = run_sweep(spec, jsonl_path=str(path))
        assert written == 1000
        count = 0
        for outcome in iter_sweep_jsonl(str(path)):
            assert outcome.ok, outcome.cell
            count += 1
        assert count == 1000


def _assert_children_drain(deadline_seconds=10.0):
    deadline = time.monotonic() + deadline_seconds
    while multiprocessing.active_children():
        assert time.monotonic() < deadline, (
            "pool workers leaked: %r" % multiprocessing.active_children()
        )
        time.sleep(0.05)


class TestPoolTeardown:
    """Abandoning the streaming execution core must reap its pool workers.

    Regression: a pool exit that terminates without joining leaves live
    children until GC.  Closing the stream mid-way runs the core's
    ``finally`` clause, which kills and joins every worker promptly.
    """

    @pytest.mark.parametrize(
        "engine",
        [
            "batch",
            pytest.param("ndbatch", marks=needs_numpy),
            pytest.param("auto", marks=needs_numpy),
        ],
    )
    def test_closed_midstream_reaps_workers(self, engine):
        # One shape and one round count: the packer keeps equal-shape chunks
        # apart, so the grid makes several work units and the pool runs.
        spec = dataclasses.replace(
            SPEC,
            system_sizes=((7, 2),),
            workloads=("extremes",),
            seeds=tuple(range(8)),
            engine=engine,
        )
        cells = list(spec.cells())
        stream = iter_resilient_outcomes(cells, engine, 2, max_block_size=2)
        assert next(stream) is not None
        assert multiprocessing.active_children()  # the pool really ran
        stream.close()
        _assert_children_drain()


@pytest.mark.slow
class TestLargeGrid:
    def test_thousand_cell_crash_sweep(self):
        spec = SweepSpec(
            protocols=("async-crash", "sync-crash"),
            system_sizes=((7, 2), (13, 4)),
            adversaries=("none", "crash-initial", "crash-staggered", "staggered", "laggard"),
            workloads=("uniform", "two-cluster"),
            seeds=tuple(range(25)),
        )
        outcomes = run_sweep(spec)
        assert len(outcomes) == 1000
        assert all(outcome.ok for outcome in outcomes)
        # The per-round contraction bound governs the diameter of *all* live
        # values; the honest-only trajectory may contract slower when a
        # crash-faulty straggler's wider value re-enters a quorum (the event
        # simulator exhibits the same).  Assert the bound only where every
        # circulating value is honest.
        for outcome in outcomes:
            if outcome.cell.adversary in ("none", "staggered", "laggard"):
                assert outcome.bound_respected, outcome.cell
