"""E13 — Tensor fault programs: whole-block adversaries on the ndbatch engine.

PR 3 left one per-execution Python loop in the vectorised engine: adaptive
strategies (``AntiConvergenceStrategy``) and every custom per-round
strategy were consulted once per execution per round.  The tensor-native
fault pipeline removes it — strategies are grouped by tensor program and
each program is answered with *one*
:meth:`~repro.net.adversary.ByzantineValueStrategy.value_tensor` call per
round, per-member variation carried by the PRF seed vector.  Quorum
adversaries ride the same pipeline through grouped ``rank_tensor`` calls.

Recorded in ``BENCH_fault_tensor.json`` (committed, uploaded as a CI
artifact): wall time of the same ``byz-anti`` anti-convergence grid on the
batch and ndbatch engines, the measured speedup (the acceptance bar is
``>= 2x``), and the zero-per-execution-call/agreement checks the speedup is
only meaningful with.
"""

from __future__ import annotations

import dataclasses
import time

from repro.net.adversary import AntiConvergenceStrategy
from repro.sim.sweep import SweepSpec, run_sweep

from conftest import write_bench_json

REQUIRED_SPEEDUP = 2.0

SPEC = SweepSpec(
    protocols=("async-byzantine",),
    system_sizes=((11, 2), (16, 3)),
    adversaries=("byz-anti",),
    workloads=("uniform", "two-cluster"),
    seeds=tuple(range(128)),
    epsilon=1e-3,
    engine="batch",
)


def test_e13_anti_convergence_grid_runs_whole_block(monkeypatch):
    # Count every per-execution strategy call the vectorised sweep makes; the
    # tensor pipeline must never issue one.  ``value`` is the strategy's only
    # per-execution form, so counting it covers every such call.
    calls = []
    original_value = AntiConvergenceStrategy.value

    def counting_value(self, round_number, recipient, observed):
        calls.append(("value", round_number, recipient))
        return original_value(self, round_number, recipient, observed)

    started = time.perf_counter()
    batch_outcomes = run_sweep(SPEC, workers=1)
    batch_seconds = time.perf_counter() - started

    monkeypatch.setattr(AntiConvergenceStrategy, "value", counting_value)
    nd_spec = dataclasses.replace(SPEC, engine="ndbatch")
    started = time.perf_counter()
    nd_outcomes = run_sweep(nd_spec, workers=1)
    nd_seconds = time.perf_counter() - started
    monkeypatch.undo()

    assert calls == [], "ndbatch issued per-execution Python strategy calls"
    assert len(batch_outcomes) == len(nd_outcomes)
    agreement = True
    for batch, nd in zip(batch_outcomes, nd_outcomes):
        assert batch.ok and nd.ok, (batch.cell, batch.violations, nd.violations)
        assert (batch.rounds, batch.messages, batch.bits) == (
            nd.rounds, nd.messages, nd.bits
        ), batch.cell
        agreement = agreement and abs(batch.output_spread - nd.output_spread) <= 1e-9

    speedup = batch_seconds / nd_seconds
    cells = len(batch_outcomes)
    write_bench_json(
        "fault_tensor",
        {
            "byz_anti_grid": {
                "cells": cells,
                "batch_seconds": batch_seconds,
                "ndbatch_seconds": nd_seconds,
                "batch_cells_per_second": cells / batch_seconds,
                "ndbatch_cells_per_second": cells / nd_seconds,
                "ndbatch_speedup_vs_batch": speedup,
                "per_execution_strategy_calls": len(calls),
                "structural_agreement_exact": True,
                "output_spread_agreement_1e9": agreement,
                "systems": [list(pair) for pair in SPEC.system_sizes],
                "seeds": len(SPEC.seeds),
            },
            "required_ndbatch_speedup_vs_batch": REQUIRED_SPEEDUP,
        },
    )
    print(
        f"\nE13 byz-anti grid: {cells} cells, batch {batch_seconds:.2f}s "
        f"vs ndbatch {nd_seconds:.3f}s -> {speedup:.1f}x, "
        f"per-execution strategy calls: {len(calls)}"
    )
    assert agreement
    assert speedup >= REQUIRED_SPEEDUP, (
        f"ndbatch only {speedup:.1f}x faster than batch on the anti-convergence "
        f"grid (required {REQUIRED_SPEEDUP}x)"
    )
