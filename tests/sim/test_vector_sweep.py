"""Vector (R^d) agreement on the sweep and block engines.

Correctness of the ``(executions, n, d)`` tensor fast path is pinned two
ways, mirroring how the scalar engines are pinned against each other:

* **d=1 is bit-identical to the scalar engines.**  Both block entry points
  run one ``(executions, n, d)`` kernel, so a dimension-1 vector block must
  produce exactly the scalar ndbatch results — outputs, rounds, message,
  delivery and bit counts and per-process send counts compared with ``==``,
  never a tolerance — across protocols, fault models, omission policies,
  seeds, block splits (chunk sizes) and float dtypes (float64 and the
  float32 opt-in; hypothesis property below).  The one scenario only d=1
  supports, non-finite Byzantine reports, runs there and is refused at d>1.
* **d>1 agrees exactly with the coordinate-wise composition.**  The tensor
  path shares one quorum selection per round across coordinates, the event
  composition runs ``d`` independent executions — yet integer costs must
  match exactly for every family, and outputs to ≤1e-9 wherever the scalar
  engines pin outputs too (crash faults under any adversary, Byzantine
  value-injection with value-independent strategies, delay-schedule
  adversaries).

Ragged vector inputs (mismatched per-process dimensions) must fail loudly in
*one* place — :func:`repro.core.multidim.normalize_vector_inputs` — whichever
entry point they come through.
"""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.termination import FixedRounds
from repro.net.adversary import (
    AntiConvergenceStrategy,
    DelayRankOmission,
    FixedValueStrategy,
    PartitionDelay,
    RandomValueStrategy,
    RoundFaultModel,
    StaggeredExclusionDelay,
)
from repro.sim.engine import EngineCapabilityError
from repro.sim.sweep import (
    CELL_COLUMNS,
    SUMMARY_COLUMNS,
    SweepCell,
    SweepSpec,
    run_cell,
    run_sweep,
    summarize_sweep,
)
from repro.sim.vector import run_vector_protocol

np = pytest.importorskip("numpy")
from repro.sim.ndbatch import run_ndbatch_block, run_vector_block  # noqa: E402

EPSILON = 1e-3


# ----------------------------------------------------------------------
# d=1 bit-identity (hypothesis property)
# ----------------------------------------------------------------------

finite_values = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)

#: (n, t) pairs inside each protocol's resilience bound.
D1_SYSTEMS = {
    "sync-crash": ((4, 1), (7, 2)),
    "async-crash": ((4, 1), (7, 2)),
    "sync-byzantine": ((4, 1), (7, 2)),
    "async-byzantine": ((6, 1), (11, 2)),
}
FAULT_KINDS = ("none", "crash", "strategy", "silent")


@st.composite
def d1_faults(draw, n, t):
    """A fault-model recipe: ``(kind, pids, per-pid parameters)``."""
    kind = draw(st.sampled_from(FAULT_KINDS))
    if kind == "none":
        return kind, (), ()
    pids = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=t, unique=True))
    if kind == "crash":
        params = tuple(
            (draw(st.integers(1, 3)), draw(st.integers(0, n))) for _ in pids
        )
    elif kind == "strategy":
        params = tuple(
            draw(st.sampled_from(["random", "anti", "fixed"])) for _ in pids
        )
    else:
        params = ()
    return kind, tuple(pids), params


def _fault_model(recipe):
    kind, pids, params = recipe
    if kind == "crash":
        return RoundFaultModel(crash_schedule=dict(zip(pids, params)))
    if kind == "strategy":
        make = {
            "random": lambda pid: RandomValueStrategy(-1.0, 1.0, seed=pid),
            "anti": lambda pid: AntiConvergenceStrategy(stretch=0.5),
            "fixed": lambda pid: FixedValueStrategy(1e6),
        }
        return RoundFaultModel(
            strategies={pid: make[name](pid) for pid, name in zip(pids, params)}
        )
    if kind == "silent":
        return RoundFaultModel(silent=frozenset(pids))
    return None


def _omission_policy(name, n):
    if name == "staggered":
        return DelayRankOmission(StaggeredExclusionDelay(n, exclude=1))
    if name == "partition":
        return DelayRankOmission(PartitionDelay(camp_a=range(n // 2)))
    return None  # SeededOmission(seed)


@st.composite
def d1_blocks(draw):
    protocol = draw(st.sampled_from(sorted(D1_SYSTEMS)))
    n, t = draw(st.sampled_from(D1_SYSTEMS[protocol]))
    executions = draw(st.integers(min_value=1, max_value=4))
    inputs_block = [
        [draw(finite_values) for _ in range(n)] for _ in range(executions)
    ]
    seeds = [draw(st.integers(min_value=0, max_value=2**31)) for _ in range(executions)]
    faults = [draw(d1_faults(n, t)) for _ in range(executions)]
    policies = [
        draw(st.sampled_from(["seeded", "staggered", "partition"]))
        for _ in range(executions)
    ]
    rounds = draw(st.integers(min_value=1, max_value=4))
    chunk = draw(st.sampled_from([None, 1, 2]))
    return protocol, t, inputs_block, seeds, faults, policies, rounds, chunk


def _assert_d1_identical(scalar, vector):
    """A d=1 vector result equals the scalar one bit for bit (``==``)."""
    assert len(scalar) == len(vector)
    for s, v in zip(scalar, vector):
        assert v.dimension == 1
        assert v.ok == s.ok
        assert v.rounds_used == s.rounds_used
        # Messages sent/delivered, bits and per-process sends, exactly.
        assert v.stats == s.stats
        assert v.outputs == {
            pid: (None if output is None else (output,))
            for pid, output in s.outputs.items()
        }
        assert tuple(v.trajectory) == tuple(s.trajectory)


class TestD1BitIdentity:
    """Both entry points run one kernel; this pins the d=1 lift and assembly."""

    @given(case=d1_blocks(), dtype=st.sampled_from([None, "float32"]))
    @settings(max_examples=60, deadline=None)
    def test_d1_vector_blocks_bit_identical_to_scalar_ndbatch(self, case, dtype):
        protocol, t, inputs_block, seeds, faults, policies, rounds, chunk = case
        n = len(inputs_block[0])

        def run(entry, block):
            return entry(
                protocol, block, t=t, epsilon=EPSILON,
                round_policy=FixedRounds(rounds), seeds=seeds,
                fault_models=[_fault_model(recipe) for recipe in faults],
                omission_policies=[_omission_policy(name, n) for name in policies],
                dtype=dtype, chunk_executions=chunk,
            )

        scalar = run(run_ndbatch_block, inputs_block)
        vector = run(
            run_vector_block, [[[value] for value in inputs] for inputs in inputs_block]
        )
        _assert_d1_identical(scalar, vector)


# ----------------------------------------------------------------------
# Scenarios that run at d=1 only
# ----------------------------------------------------------------------


def _non_finite_reports():
    n = 11
    model = RoundFaultModel(
        strategies={
            n - 1: FixedValueStrategy(float("nan")),
            n - 2: FixedValueStrategy(float("inf")),
        }
    )
    return "async-byzantine", n, 2, dict(fault_models=[model], seeds=[7])


class TestD1OnlyScenarios:
    """Non-finite Byzantine reports refill per coordinate: they run at d=1
    and are refused at d>1."""

    SCENARIOS = [_non_finite_reports]

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_d1_runs_like_the_scalar_block(self, scenario):
        protocol, n, t, kwargs = scenario()
        inputs = [i / (n - 1) for i in range(n)]
        scalar = run_ndbatch_block(protocol, [inputs], t=t, epsilon=EPSILON, **kwargs)
        protocol, n, t, kwargs = scenario()
        vector = run_vector_block(
            protocol, [[[x] for x in inputs]], t=t, epsilon=EPSILON, **kwargs
        )
        _assert_d1_identical(scalar, vector)

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_d2_is_refused_towards_the_composition(self, scenario):
        protocol, n, t, kwargs = scenario()
        inputs = [[i / (n - 1), 1.0 - i / (n - 1)] for i in range(n)]
        with pytest.raises(EngineCapabilityError) as raised:
            run_vector_block(protocol, [inputs], t=t, epsilon=EPSILON, **kwargs)
        assert raised.value.capable == ("event",)
        assert "event" in str(raised.value)


# ----------------------------------------------------------------------
# Ragged inputs fail loudly in one place
# ----------------------------------------------------------------------


class TestRaggedInputs:
    RAGGED = [[0.0, 1.0], [0.5, 0.5], [1.0], [0.25, 0.75], [0.5, 0.1], [0.9, 0.2], [0.3, 0.4]]

    def test_event_composition_rejects_ragged_vectors(self):
        with pytest.raises(ValueError, match="dimension"):
            run_vector_protocol("sync-crash", self.RAGGED, t=2, epsilon=EPSILON)

    def test_vector_block_rejects_ragged_vectors(self):
        with pytest.raises(ValueError, match="dimension"):
            run_vector_block(
                "sync-crash", [self.RAGGED], t=2, epsilon=EPSILON,
                round_policy=FixedRounds(3),
            )

    def test_vector_block_rejects_mixed_dimension_executions(self):
        good = [[0.1 * pid, 0.2 * pid] for pid in range(7)]
        other = [[0.1 * pid, 0.2 * pid, 0.3 * pid] for pid in range(7)]
        with pytest.raises(ValueError):
            run_vector_block(
                "sync-crash", [good, other], t=2, epsilon=EPSILON,
                round_policy=FixedRounds(3),
            )

    def test_empty_dimension_rejected(self):
        with pytest.raises(ValueError):
            run_vector_protocol("sync-crash", [[] for _ in range(7)], t=2, epsilon=EPSILON)

    def test_cell_dimension_must_be_positive(self):
        with pytest.raises(ValueError, match="dimension"):
            SweepCell(
                "sync-crash", 7, 2, EPSILON, "none", "uniform", 0, "batch", dimension=0
            ).validate()


# ----------------------------------------------------------------------
# d>1 differential: tensor path vs coordinate-wise composition
# ----------------------------------------------------------------------

#: (protocol, n, t, adversary) families where *outputs* are pinned across
#: engines (not just costs): crash faults under any adversary, Byzantine
#: value-injection with value-independent strategies, delay-schedule
#: adversaries.  ``byz-anti`` (observation-dependent) and async SeededOmission
#: cells agree on costs and the ε-envelope only — exactly the scalar
#: engines' scope (tests/sim/test_batch_equivalence.py).
SMOKE_FAMILIES = [
    ("sync-crash", 7, 2, "crash-staggered"),
    ("sync-byzantine", 7, 1, "byz-equivocate"),
    ("async-crash", 7, 2, "staggered"),
]
GRID_FAMILIES = SMOKE_FAMILIES + [
    ("sync-crash", 7, 2, "none"),
    ("sync-crash", 7, 2, "crash-initial"),
    ("sync-byzantine", 7, 1, "byz-fixed"),
    ("async-crash", 7, 2, "partition"),
    ("async-byzantine", 11, 2, "staggered"),
]


def _assert_engines_agree(protocol, n, t, adversary, workload, seed, dimension):
    outcomes = {
        engine: run_cell(
            SweepCell(protocol, n, t, EPSILON, adversary, workload, seed, engine,
                      dimension=dimension)
        )
        for engine in ("event", "ndbatch", "batch")
    }
    reference = outcomes["event"]
    assert reference.ok, (reference.cell, reference.violations)
    for engine, outcome in outcomes.items():
        assert outcome.ok, (engine, outcome.cell, outcome.violations)
        assert outcome.rounds == reference.rounds, engine
        assert outcome.messages == reference.messages, engine
        assert outcome.bits == reference.bits, engine
        assert math.isclose(
            outcome.output_spread, reference.output_spread, abs_tol=1e-9
        ), engine
        assert outcome.engine_used == engine


class TestVectorDifferentialSmoke:
    @pytest.mark.parametrize("family", SMOKE_FAMILIES)
    @pytest.mark.parametrize("dimension", [2, 3])
    def test_engines_agree_exactly(self, family, dimension):
        protocol, n, t, adversary = family
        _assert_engines_agree(protocol, n, t, adversary, "rendezvous", 0, dimension)


@pytest.mark.slow
class TestVectorDifferentialGrid:
    @pytest.mark.parametrize("family", GRID_FAMILIES)
    @pytest.mark.parametrize("workload", ["drifting-clocks", "sensor-noise", "rendezvous"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_engines_agree_exactly(self, family, workload, seed):
        protocol, n, t, adversary = family
        _assert_engines_agree(protocol, n, t, adversary, workload, seed, 2)


# ----------------------------------------------------------------------
# The dimension axis through the sweep layer
# ----------------------------------------------------------------------


class TestDimensionAxis:
    def test_default_grid_is_scalar_and_unchanged(self):
        spec = SweepSpec(
            protocols=("sync-crash",), system_sizes=((7, 2),), seeds=(0, 1)
        )
        cells = list(spec.cells())
        assert all(cell.dimension == 1 for cell in cells)
        assert spec.cell_count == len(cells) == 2

    def test_dimensions_axis_is_innermost(self):
        spec = SweepSpec(
            protocols=("sync-crash",), system_sizes=((7, 2),),
            seeds=(0, 1), dimensions=(1, 2),
        )
        assert [(cell.seed, cell.dimension) for cell in spec.cells()] == [
            (0, 1), (0, 2), (1, 1), (1, 2)
        ]
        assert spec.cell_count == 4

    def test_scalar_workload_lifts_with_independent_coordinates(self):
        from repro.sim.sweep import _cell_inputs, _cell_vector_inputs

        scalar = _cell_inputs(
            SweepCell("sync-crash", 7, 2, EPSILON, "none", "uniform", 5, "batch")
        )
        lifted = _cell_vector_inputs(
            SweepCell("sync-crash", 7, 2, EPSILON, "none", "uniform", 5, "batch",
                      dimension=3)
        )
        assert [vector[0] for vector in lifted] == scalar  # coordinate 0 == d=1
        columns = list(zip(*lifted))
        assert len(set(map(tuple, columns))) == 3  # coordinates differ

    def test_vector_native_workload_at_d1_runs_as_scalar_cell(self):
        outcome = run_cell(
            SweepCell("sync-crash", 7, 2, EPSILON, "none", "rendezvous", 0, "batch")
        )
        assert outcome.ok and outcome.cell.dimension == 1
        assert outcome.engine_used == "batch"

    def test_jsonl_roundtrip_and_d1_byte_compat(self, tmp_path):
        import json

        from repro.sim.sweep import iter_sweep_jsonl

        spec = SweepSpec(
            protocols=("sync-crash",), system_sizes=((7, 2),),
            workloads=("uniform", "drifting-clocks"), seeds=(0,),
            engine="batch", dimensions=(1, 2),
        )
        path = tmp_path / "cells.jsonl"
        count = run_sweep(spec, workers=1, jsonl_path=str(path))
        outcomes = list(iter_sweep_jsonl(str(path)))
        assert count == len(outcomes) == spec.cell_count
        assert {cell for cell in spec.cells()} == {o.cell for o in outcomes}
        for line in path.read_text().splitlines():
            payload = json.loads(line)
            # d=1 lines stay byte-compatible with pre-dimension stores.
            assert ("dimension" in payload["cell"]) == (
                payload["cell"].get("dimension", 1) != 1
            )

    def test_summary_groups_by_dimension(self):
        spec = SweepSpec(
            protocols=("sync-crash",), system_sizes=((7, 2),),
            workloads=("rendezvous",), seeds=(0, 1),
            engine="batch", dimensions=(1, 2),
        )
        records = summarize_sweep(run_sweep(spec, workers=1))
        assert sorted(record.params["dimension"] for record in records) == [1, 2]
        assert all(record.measured["runs"] == 2 for record in records)

    def test_dimension_columns_render(self):
        assert "dimension" in CELL_COLUMNS
        assert "dimension" in SUMMARY_COLUMNS

    def test_block_and_percell_ndbatch_agree(self):
        spec = SweepSpec(
            protocols=("sync-crash",), system_sizes=((7, 2),),
            adversaries=("none", "crash-initial"),
            workloads=("sensor-noise",), seeds=(0, 1, 2),
            engine="ndbatch", dimensions=(2,),
        )
        blocked = run_sweep(spec, workers=1)
        assert [run_cell(outcome.cell) for outcome in blocked] == blocked

    def test_event_engine_rejected_only_beyond_capability(self):
        # All engines support vectors; an unknown-engine cell still fails.
        cell = SweepCell(
            "sync-crash", 7, 2, EPSILON, "none", "rendezvous", 0, "event",
            dimension=2,
        )
        cell.validate()  # capability bit covers d=2 on the event engine
        with pytest.raises(ValueError):
            dataclasses.replace(cell, engine="warp").validate()
