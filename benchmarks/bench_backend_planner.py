"""E16 — Block dtype + memory planner: a million-execution crash grid.

The vectorised engine used to materialise a block's tensors whole, so block
size — not hardware — capped how many executions one host could take per
call.  The block memory planner (:mod:`repro.sim.planner`) turns the block
into a stream: :func:`~repro.sim.ndbatch.run_ndbatch_block` plans the
largest execution chunk whose modelled peak footprint fits a bytes budget
and advances the block chunk by chunk.  The block float dtype rides along:
the same numpy kernel runs at the float64 default or the opt-in float32
(half the block's value memory, ``dtype="float32"``).  The file and
``BENCH_backend_planner.json`` keep their names from when the kernel also
ran on other array libraries.

Recorded in ``BENCH_backend_planner.json`` (committed, uploaded as a CI
artifact): wall time and executions/second of a 10⁶-execution async-crash
grid streamed under a fixed 256 MiB budget, throughput across chunk sizes
on a 10⁵ reference block, and the budgeted-vs-unchunked and
float32-vs-float64 throughput ratios the regression gate watches.  The
correctness bars the numbers are only meaningful with: the planner actually
chunked (the whole million would not fit the budget), chunked float64
output is bit-identical to unchunked, and float32 stays within the pinned
differential tolerance.
"""

from __future__ import annotations

import os
import time

from repro.sim.ndbatch import run_ndbatch_block
from repro.sim.planner import bytes_per_execution, plan_block

from conftest import write_bench_json

#: The grid must stream at no worse than this fraction of unchunked
#: throughput — chunking is a memory feature, not a speed tax.
REQUIRED_BUDGETED_THROUGHPUT_FRACTION = 0.85

#: Fixed planner budget for the million-execution run: small enough that
#: the grid *must* stream (the whole block models to ~2.7 GiB), large
#: enough that chunks stay in the amortisation plateau.
FIXED_BUDGET_BYTES = 256 * 1024 * 1024

N, T, M = 7, 2, 5
EPSILON = 1e-3
ROUNDS = 7  # diameter 1.0, epsilon 1e-3, contraction 1/3 -> ceil(log3(1000))

#: Total executions; override to smoke the benchmark locally in seconds
#: (the committed baseline was produced at the full million).
TOTAL_EXECUTIONS = int(os.environ.get("REPRO_E16_EXECUTIONS", 1_000_000))
#: Outer slice: bounds the per-call ExecutionResult list (the planner
#: bounds the tensors; the bench must bound the Python objects too).
SLICE_EXECUTIONS = min(100_000, TOTAL_EXECUTIONS)

_BASE = [0.0, 0.1, 0.35, 0.5, 0.65, 0.9, 1.0]


def _inputs(start: int, count: int):
    """Rotations of one well-spread list: per-execution variation with one
    shared diameter (= one shared round count, the block contract)."""
    return [_BASE[(start + e) % N:] + _BASE[:(start + e) % N] for e in range(count)]


def _run_slice(start: int, count: int, **kwargs):
    return run_ndbatch_block(
        "async-crash",
        _inputs(start, count),
        t=T,
        epsilon=EPSILON,
        seeds=list(range(start, start + count)),
        **kwargs,
    )


def test_e16_million_execution_grid_streams_under_fixed_budget():
    plan = plan_block(
        TOTAL_EXECUTIONS, N, M, ROUNDS, budget_bytes=FIXED_BUDGET_BYTES
    )
    whole_block_bytes = 2 * TOTAL_EXECUTIONS * bytes_per_execution(N, M, ROUNDS)
    if TOTAL_EXECUTIONS >= 1_000_000:
        # The headline claim: the whole block does NOT fit the budget — only
        # the planner's streaming makes the grid runnable at this budget.
        assert whole_block_bytes > FIXED_BUDGET_BYTES
        assert plan.chunked, "the million-execution grid must stream"

    # --- the 10⁶-execution grid, streamed under the fixed budget ---------
    ok_count = 0
    rounds_seen = set()
    started = time.perf_counter()
    for start in range(0, TOTAL_EXECUTIONS, SLICE_EXECUTIONS):
        count = min(SLICE_EXECUTIONS, TOTAL_EXECUTIONS - start)
        results = _run_slice(start, count, budget_bytes=FIXED_BUDGET_BYTES)
        ok_count += sum(1 for result in results if result.ok)
        rounds_seen.update(result.rounds_used for result in results)
    grid_seconds = time.perf_counter() - started
    grid_rate = TOTAL_EXECUTIONS / grid_seconds
    assert ok_count == TOTAL_EXECUTIONS
    assert rounds_seen == {ROUNDS}

    # --- reference block: unchunked vs budgeted vs small chunks ----------
    reference = min(100_000, TOTAL_EXECUTIONS)
    started = time.perf_counter()
    unchunked_results = _run_slice(0, reference, chunk_executions=reference)
    unchunked_seconds = time.perf_counter() - started
    started = time.perf_counter()
    small_chunk_results = _run_slice(0, reference, chunk_executions=20_000)
    small_chunk_seconds = time.perf_counter() - started

    # Chunking must be invisible in the results: float64 is bit-identical.
    for whole, chunked in zip(unchunked_results, small_chunk_results):
        assert whole.outputs == chunked.outputs
        assert whole.rounds_used == chunked.rounds_used
        assert whole.stats.messages_sent == chunked.stats.messages_sent

    # --- float32: half the block memory, pinned tolerance ----------------
    started = time.perf_counter()
    f32_results = _run_slice(0, reference, dtype="float32")
    f32_seconds = time.perf_counter() - started
    for f64, f32 in zip(unchunked_results[:2000], f32_results):
        assert f64.rounds_used == f32.rounds_used
        for pid, value in f64.outputs.items():
            assert abs(value - f32.outputs[pid]) <= 1e-4

    unchunked_rate = reference / unchunked_seconds
    budgeted_speedup = grid_rate / unchunked_rate
    float32_speedup = unchunked_seconds / f32_seconds
    write_bench_json(
        "backend_planner",
        {
            "million_execution_grid": {
                "executions": TOTAL_EXECUTIONS,
                "budget_bytes": FIXED_BUDGET_BYTES,
                "whole_block_modelled_bytes": whole_block_bytes,
                "chunk_executions": plan.chunk_executions,
                "chunk_count": plan.chunk_count,
                "seconds": grid_seconds,
                "executions_per_second": grid_rate,
                "all_ok": ok_count == TOTAL_EXECUTIONS,
            },
            "chunk_size_throughput": {
                "executions": reference,
                "unchunked_executions_per_second": unchunked_rate,
                "chunk_20000_executions_per_second": (
                    reference / small_chunk_seconds
                ),
                "budgeted_executions_per_second": grid_rate,
                "chunked_float64_bit_identical": True,
            },
            "float32_mode": {
                "executions": reference,
                "float64_seconds": unchunked_seconds,
                "float32_seconds": f32_seconds,
                "max_output_divergence_tolerance": 1e-4,
            },
            "budgeted_throughput_vs_unchunked_speedup": budgeted_speedup,
            "float32_speedup_vs_float64": float32_speedup,
            "required_budgeted_throughput_fraction": (
                REQUIRED_BUDGETED_THROUGHPUT_FRACTION
            ),
        },
    )
    print(
        f"\nE16 grid: {TOTAL_EXECUTIONS:,} executions in {grid_seconds:.1f}s "
        f"({grid_rate:,.0f}/s) under {FIXED_BUDGET_BYTES >> 20} MiB "
        f"({plan.chunk_count} chunks of {plan.chunk_executions:,}); "
        f"budgeted/unchunked {budgeted_speedup:.2f}x, "
        f"float32/float64 {float32_speedup:.2f}x"
    )
    assert budgeted_speedup >= REQUIRED_BUDGETED_THROUGHPUT_FRACTION, (
        f"streaming under budget cost too much throughput: "
        f"{budgeted_speedup:.2f}x of unchunked "
        f"(required {REQUIRED_BUDGETED_THROUGHPUT_FRACTION}x)"
    )
