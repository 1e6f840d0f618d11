"""Tests for the block memory planner (:mod:`repro.sim.planner`) and the
chunk-streaming it drives through :func:`repro.sim.ndbatch.run_ndbatch_block`.
"""

from __future__ import annotations

import pytest

pytest.importorskip("numpy", reason="the vectorised engine requires numpy")

from repro.sim.planner import (
    ENV_BUDGET,
    ENV_DTYPE,
    FLOAT_DTYPES,
    BlockPlan,
    ShapeCost,
    available_memory_bytes,
    bytes_per_execution,
    decide_pad_or_split,
    default_budget_bytes,
    pack_dispatch_groups,
    plan_block,
    resolve_dtype,
)
from repro.sim.ndbatch import run_ndbatch_block


class TestCostModel:
    def test_bytes_per_execution_grows_with_shape(self):
        small = bytes_per_execution(5, 4, 10)
        assert small > 0
        assert bytes_per_execution(10, 8, 10) > small
        assert bytes_per_execution(5, 4, 100) > small

    def test_float32_halves_the_float_share(self):
        f64 = bytes_per_execution(20, 17, 30, "float64")
        f32 = bytes_per_execution(20, 17, 30, "float32")
        assert f32 < f64

    def test_invalid_n_rejected(self):
        with pytest.raises(ValueError, match="n must be positive"):
            bytes_per_execution(0, 1, 1)

    def test_available_memory_is_sane(self):
        assert available_memory_bytes() > 0


class TestBudget:
    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv(ENV_BUDGET, "123456789")
        assert default_budget_bytes() == 123456789

    def test_env_override_validated(self, monkeypatch):
        monkeypatch.setenv(ENV_BUDGET, "lots")
        with pytest.raises(ValueError, match=ENV_BUDGET):
            default_budget_bytes()
        monkeypatch.setenv(ENV_BUDGET, "-1")
        with pytest.raises(ValueError, match="positive"):
            default_budget_bytes()

    def test_default_has_a_floor(self, monkeypatch):
        monkeypatch.delenv(ENV_BUDGET, raising=False)
        assert default_budget_bytes() >= 64 * 1024 * 1024


class TestResolveDtype:
    """The block float dtype: kwarg, else ``REPRO_ARRAY_DTYPE``, else float64."""

    def test_default_is_float64(self, monkeypatch):
        monkeypatch.delenv(ENV_DTYPE, raising=False)
        assert resolve_dtype() == "float64"
        monkeypatch.setenv(ENV_DTYPE, "  ")
        assert resolve_dtype() == "float64"

    def test_env_variable_selects(self, monkeypatch):
        monkeypatch.setenv(ENV_DTYPE, "float32")
        assert resolve_dtype() == "float32"

    def test_kwarg_beats_env(self, monkeypatch):
        # The env var names an unsupported dtype; an explicit kwarg must win
        # without the env value ever being checked.
        monkeypatch.setenv(ENV_DTYPE, "float16")
        assert resolve_dtype("float64") == "float64"
        assert resolve_dtype("float32") == "float32"

    def test_selection_is_case_and_whitespace_insensitive(self, monkeypatch):
        assert resolve_dtype(" Float32 ") == "float32"
        monkeypatch.setenv(ENV_DTYPE, "FLOAT64\n")
        assert resolve_dtype() == "float64"

    def test_unknown_dtype_raises_with_fix(self, monkeypatch):
        with pytest.raises(ValueError, match="unknown array dtype 'float16'"):
            resolve_dtype("float16")
        with pytest.raises(ValueError, match=ENV_DTYPE):
            resolve_dtype("bfloat16")
        monkeypatch.setenv(ENV_DTYPE, "int8")
        with pytest.raises(ValueError, match=ENV_DTYPE):
            resolve_dtype()

    def test_supported_dtypes_are_stable(self):
        # The README's "Block dtype and memory planning" section documents
        # exactly these.
        assert FLOAT_DTYPES == ("float64", "float32")


class TestPlanBlock:
    def test_whole_block_fits_a_big_budget(self):
        plan = plan_block(1000, 7, 5, 20, budget_bytes=1 << 34)
        assert plan == BlockPlan(
            chunk_executions=1000,
            chunk_count=1,
            execution_bytes=bytes_per_execution(7, 5, 20),
            budget_bytes=1 << 34,
        )
        assert not plan.chunked

    def test_small_budget_streams_fixed_chunks(self):
        per = bytes_per_execution(7, 5, 20)
        plan = plan_block(1000, 7, 5, 20, budget_bytes=2 * per * 10)
        assert plan.chunk_executions == 10
        assert plan.chunk_count == 100
        assert plan.chunked

    def test_tiny_budget_still_makes_progress(self):
        plan = plan_block(5, 7, 5, 20, budget_bytes=1)
        assert plan.chunk_executions == 1
        assert plan.chunk_count == 5

    def test_max_chunk_clamps(self):
        plan = plan_block(1000, 7, 5, 20, budget_bytes=1 << 34, max_chunk=64)
        assert plan.chunk_executions == 64
        assert plan.chunk_count == 16

    def test_empty_block(self):
        plan = plan_block(0, 7, 5, 20, budget_bytes=1 << 30)
        assert plan.chunk_executions == 0
        assert plan.chunk_count == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="count"):
            plan_block(-1, 7, 5, 20)
        with pytest.raises(ValueError, match="budget_bytes"):
            plan_block(1, 7, 5, 20, budget_bytes=0)
        with pytest.raises(ValueError, match="max_chunk"):
            plan_block(1, 7, 5, 20, budget_bytes=1, max_chunk=0)


class TestPadOrSplit:
    def test_similar_shapes_pad(self):
        shapes = [ShapeCost(64, 7, 5, 20), ShapeCost(64, 8, 6, 20)]
        assert decide_pad_or_split(shapes, budget_bytes=1 << 34) == "pad"

    def test_wildly_different_shapes_split(self):
        # Padding many tiny chunks to one huge member wastes most of the
        # padded footprint.
        shapes = [ShapeCost(64, 4, 3, 5)] * 9 + [ShapeCost(1, 50, 40, 200)]
        assert decide_pad_or_split(shapes, budget_bytes=1 << 40) == "split"

    def test_budget_overflow_splits(self):
        shapes = [ShapeCost(1000, 7, 5, 20), ShapeCost(1000, 8, 6, 20)]
        assert decide_pad_or_split(shapes, budget_bytes=1024) == "split"

    def test_empty_is_split(self):
        assert decide_pad_or_split([]) == "split"


class TestPackDispatchGroups:
    def test_flattened_groups_enumerate_every_chunk_once(self):
        shapes = [
            ("a", ShapeCost(8, 7, 5, 10)),
            ("a", ShapeCost(8, 8, 6, 10)),
            ("b", ShapeCost(8, 7, 5, 10)),
            ("a", ShapeCost(8, 7, 5, 10)),
        ]
        groups = pack_dispatch_groups(shapes, budget_bytes=1 << 34)
        flattened = [index for group in groups for index in group]
        assert sorted(flattened) == list(range(len(shapes)))

    def test_consecutive_equal_program_mixed_shapes_fuse(self):
        shapes = [
            ("a", ShapeCost(8, 7, 5, 10)),
            ("a", ShapeCost(8, 8, 6, 10)),
            ("b", ShapeCost(8, 7, 5, 10)),
        ]
        groups = pack_dispatch_groups(shapes, budget_bytes=1 << 34)
        assert groups == ((0, 1), (2,))

    def test_equal_shapes_stay_singleton_for_load_balancing(self):
        shapes = [("a", ShapeCost(8, 7, 5, 10))] * 3
        groups = pack_dispatch_groups(shapes, budget_bytes=1 << 34)
        assert groups == ((0,), (1,), (2,))

    def test_different_programs_never_fuse(self):
        shapes = [
            ("a", ShapeCost(8, 7, 5, 10)),
            ("b", ShapeCost(8, 8, 6, 10)),
        ]
        groups = pack_dispatch_groups(shapes, budget_bytes=1 << 34)
        assert groups == ((0,), (1,))

    def test_budget_pressure_splits_fused_groups(self):
        shapes = [
            ("a", ShapeCost(512, 7, 5, 10)),
            ("a", ShapeCost(512, 8, 6, 10)),
        ]
        groups = pack_dispatch_groups(shapes, budget_bytes=1024)
        assert groups == ((0,), (1,))


def _inputs_block(count, n):
    """Deterministic per-execution inputs sharing one diameter (and therefore
    one round count — an ndbatch block's contract): rotations of a fixed
    well-spread list."""
    base = [0.0, 0.1, 0.35, 0.5, 0.65, 0.9, 1.0][:n]
    return [base[e % n:] + base[:e % n] for e in range(count)]


def assert_results_identical(left, right, exact=True, tolerance=0.0):
    """Chunk-invariance bar: integer measurements always exact; values exact
    for float64 (chunking must be invisible) and within ``tolerance`` when
    precision differs."""
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert a.rounds_used == b.rounds_used
        assert a.stats.messages_sent == b.stats.messages_sent
        assert a.stats.bits_sent == b.stats.bits_sent
        assert a.report.ok == b.report.ok
        assert set(a.outputs) == set(b.outputs)
        for pid, value in a.outputs.items():
            other = b.outputs[pid]
            if value is None:
                assert other is None
            elif exact:
                assert value == other
            else:
                assert abs(value - other) <= tolerance


class TestChunkInvariance:
    """Outcomes are invariant to how the planner slices a block."""

    def test_float64_chunked_equals_unchunked_bit_for_bit(self):
        inputs = _inputs_block(10, 7)
        whole = run_ndbatch_block("async-crash", inputs, t=2, epsilon=1e-3)
        for chunk in (1, 3, 10, 64):
            chunked = run_ndbatch_block(
                "async-crash", inputs, t=2, epsilon=1e-3, chunk_executions=chunk
            )
            assert_results_identical(whole, chunked, exact=True)

    def test_budget_driven_chunking_equals_unchunked(self):
        from repro.sim.planner import bytes_per_execution

        inputs = _inputs_block(12, 7)
        whole = run_ndbatch_block("async-crash", inputs, t=2, epsilon=1e-3)
        # A budget that fits ~3 executions forces the planner (not the
        # caller) to pick the chunk size.
        budget = 2 * bytes_per_execution(7, 5, 50) * 3
        chunked = run_ndbatch_block(
            "async-crash", inputs, t=2, epsilon=1e-3, budget_bytes=budget
        )
        assert_results_identical(whole, chunked, exact=True)

    def test_float32_chunk_invariant_and_within_pinned_tolerance(self):
        inputs = _inputs_block(8, 7)
        f32_whole = run_ndbatch_block(
            "async-crash", inputs, t=2, epsilon=1e-3, dtype="float32"
        )
        f32_chunked = run_ndbatch_block(
            "async-crash", inputs, t=2, epsilon=1e-3, dtype="float32",
            chunk_executions=3,
        )
        # Same precision, different chunking: still identical — each
        # execution's arithmetic is self-contained.
        assert_results_identical(f32_whole, f32_chunked, exact=True)
        # Against the float64 reference: the pinned differential tolerance.
        f64 = run_ndbatch_block("async-crash", inputs, t=2, epsilon=1e-3)
        assert_results_identical(f64, f32_whole, exact=False, tolerance=1e-5)

    def test_chunking_preserves_heterogeneous_round_count_rejection(self):
        # Splitting must not mask the whole-block contract: executions whose
        # policies compute different round counts still raise, chunked or not.
        inputs = [
            [0.0, 0.25, 0.5, 0.75, 1.0, 0.1, 0.9],  # diameter 1.0
            [0.45, 0.46, 0.5, 0.52, 0.55, 0.47, 0.49],  # diameter 0.1
        ]
        with pytest.raises(ValueError, match="round count"):
            run_ndbatch_block(
                "async-crash", inputs, t=2, epsilon=1e-3, chunk_executions=1
            )


class TestSweepDtypePlumbing:
    def test_run_sweep_accepts_dtype_and_budget(self):
        from repro.sim.sweep import SweepSpec, run_sweep

        spec = SweepSpec(
            protocols=("async-crash",),
            system_sizes=((7, 2),),
            seeds=(0, 1, 2),
            engine="ndbatch",
        )
        default = run_sweep(spec, workers=1)
        explicit = run_sweep(
            spec, workers=1, dtype="float64", budget_bytes=1 << 34,
        )
        assert default == explicit

    def test_unknown_dtype_raises_value_error(self):
        from repro.sim.sweep import SweepSpec, run_sweep

        spec = SweepSpec(
            protocols=("async-crash",),
            system_sizes=((7, 2),),
            engine="ndbatch",
        )
        with pytest.raises(ValueError, match="unknown array dtype"):
            run_sweep(spec, workers=1, dtype="float16")

    def test_env_dtype_sizes_the_packer_like_the_planner(self, monkeypatch):
        # REPRO_ARRAY_DTYPE reaches the dispatch packer as a resolved name,
        # so pad-vs-split and plan_block model the same item size.
        import repro.sim.sweep as sweep_module
        from repro.sim.sweep import SweepSpec, run_sweep

        seen = []
        packer = sweep_module._pack_chunk_groups

        def spy(chunks, dtype, budget_bytes):
            seen.append(dtype)
            return packer(chunks, dtype, budget_bytes)

        monkeypatch.setattr(sweep_module, "_pack_chunk_groups", spy)
        monkeypatch.setenv(ENV_DTYPE, "float32")
        spec = SweepSpec(
            protocols=("async-crash",), system_sizes=((7, 2),), seeds=(0, 1),
            engine="ndbatch",
        )
        run_sweep(spec, workers=1)
        assert seen == ["float32"]
