"""Tests for the block memory planner (:mod:`repro.sim.planner`) and the
chunk-streaming it drives through :func:`repro.sim.ndbatch.run_ndbatch_block`.
"""

from __future__ import annotations

import itertools

import pytest

pytest.importorskip("numpy", reason="the vectorised engine requires numpy")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.planner import (
    DEFAULT_UNIT_CELLS,
    ENV_BUDGET,
    ENV_DTYPE,
    FLOAT_DTYPES,
    MAX_UNIT_CELLS,
    BlockPlan,
    available_memory_bytes,
    bytes_per_execution,
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

    def test_empty_block(self):
        plan = plan_block(0, 7, 5, 20, budget_bytes=1 << 30)
        assert plan.chunk_executions == 0
        assert plan.chunk_count == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="count"):
            plan_block(-1, 7, 5, 20)
        with pytest.raises(ValueError, match="budget_bytes"):
            plan_block(1, 7, 5, 20, budget_bytes=0)


def _unit_weights(weights, workers):
    return [
        sum(weights[i] for i in group)
        for group in pack_dispatch_groups(weights, workers)
    ]


#: ``(cells, workers)`` → the unit sizes ``resilient._cells_units`` recorded
#: for one-cell items, as ``(size, repeat)`` runs.
RECORDED_CELL_UNITS = {
    (30, 1): [(7, 4), (2, 1)],
    (30, 2): [(3, 10)],
    (64, 3): [(5, 12), (4, 1)],
    (200, 8): [(6, 33), (2, 1)],
    (64, 2): [(8, 8)],
    (100, 3): [(9, 1), (8, 11), (3, 1)],
    (1536, 2): [(64, 17), (56, 1), (49, 1), (43, 1), (38, 1), (33, 1),
                (29, 1), (25, 1), (22, 1), (20, 1), (17, 1), (15, 1),
                (13, 1), (11, 1), (10, 1), (9, 1), (8, 7), (2, 1)],
}


def _runs(sizes):
    return [(size, len(list(group))) for size, group in itertools.groupby(sizes)]


class TestDispatchUnits:
    """The sweep's one unit rule (:func:`pack_dispatch_groups`)."""

    @pytest.mark.parametrize("count,workers", sorted(RECORDED_CELL_UNITS))
    def test_one_cell_items_keep_the_recorded_cell_units(self, count, workers):
        assert _runs(_unit_weights([1] * count, workers)) == RECORDED_CELL_UNITS[
            count, workers
        ]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_chunk_is_never_split_and_small_tails_fuse(self, workers):
        # byz-vector's chunk sizes at seed 0 (1,152 cells).
        weights = [96, 88, 7, 1] * 6
        groups = pack_dispatch_groups(weights, workers)
        assert groups == tuple(
            unit for base in range(0, 24, 4)
            for unit in ((base,), (base + 1,), (base + 2, base + 3))
        )

    def test_chunks_fill_a_guided_unit_in_order(self):
        # 72 cells in 24 three-cell chunks on two workers: a guided unit of
        # ⌈72 / 8⌉ = 9 cells takes three chunks, then units of 8 take two.
        assert pack_dispatch_groups([3] * 24, 2) == ((0, 1, 2),) + tuple(
            (i, i + 1) for i in range(3, 23, 2)
        ) + ((23,),)
        # Below 32 cells per worker, a unit holds total // shares cells.
        assert pack_dispatch_groups([3] * 8, 2) == tuple((i,) for i in range(8))
        assert pack_dispatch_groups([3] * 16, 2) == tuple(
            (i, i + 1) for i in range(0, 16, 2)
        )

    def test_no_items_no_units(self):
        assert pack_dispatch_groups([], 1) == ()
        assert pack_dispatch_groups([], 4) == ()

    @settings(max_examples=200, deadline=None)
    @given(
        weights=st.lists(st.integers(min_value=1, max_value=300), max_size=60),
        workers=st.integers(min_value=1, max_value=8),
    )
    def test_units_partition_items_in_order_within_the_bounds(self, weights, workers):
        groups = pack_dispatch_groups(weights, workers)
        assert [i for group in groups for i in group] == list(range(len(weights)))
        most = MAX_UNIT_CELLS if workers > 1 else DEFAULT_UNIT_CELLS
        for group in groups:
            assert group
            # Only a unit of one item passes the cap.
            if len(group) > 1:
                assert sum(weights[i] for i in group) <= most


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

    def test_env_dtype_reaches_plan_block_resolved(self, monkeypatch):
        # REPRO_ARRAY_DTYPE reaches the block planner as a resolved name.
        import repro.sim.ndbatch as ndbatch_module
        from repro.sim.sweep import SweepSpec, run_sweep

        seen = []
        planner = ndbatch_module.plan_block

        def spy(*args, **kwargs):
            seen.append(kwargs["dtype"])
            return planner(*args, **kwargs)

        monkeypatch.setattr(ndbatch_module, "plan_block", spy)
        monkeypatch.setenv(ENV_DTYPE, " Float32 ")
        spec = SweepSpec(
            protocols=("async-crash",), system_sizes=((7, 2),), seeds=(0, 1),
            engine="ndbatch",
        )
        run_sweep(spec, workers=1)
        assert seen and set(seen) == {"float32"}
