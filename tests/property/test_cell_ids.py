"""Property tests: content-addressed cell IDs and shard partitioning.

The job layer's resume and sharding guarantees rest on three properties of
:func:`repro.sim.job.cell_id` / :func:`repro.sim.job.cell_shard`:

* IDs are a pure function of the cell's nine fields — no process state,
  dict order or hash randomisation leaks in (cross-process stability is
  pinned separately in ``tests/sim/test_job.py`` via subprocesses with
  varying ``PYTHONHASHSEED``);
* distinct cells get distinct IDs (SHA-256 over the canonical JSON form —
  any collision in these grids would be astronomical);
* for every shard count ``k``, each cell lands in exactly one shard, so the
  union of the ``k`` slices is exactly the grid and no cell runs twice.

Within one process the job layer keys stores by the cell's value instead
(:class:`repro.sim.job.CellSet`), which is sound because two cells are equal
exactly when their IDs are, also after a round trip through a store line.
"""

from __future__ import annotations

import dataclasses
import json

from hypothesis import given, settings, strategies as st

from repro.sim.job import CellSet, cell_id, cell_shard
from repro.sim.sweep import (
    ADVERSARY_SPECS,
    WORKLOAD_SPECS,
    CellOutcome,
    SweepCell,
    _outcome_from_payload,
    _outcome_to_json_line,
)
from repro.sim.runner import PROTOCOL_FACTORIES

protocols = st.sampled_from(sorted(PROTOCOL_FACTORIES))
adversaries = st.sampled_from(sorted(ADVERSARY_SPECS))
workloads = st.sampled_from(sorted(WORKLOAD_SPECS))
engines = st.sampled_from(["auto", "batch", "ndbatch", "event"])
epsilons = st.sampled_from([1e-1, 1e-2, 1e-3, 1e-4, 0.05, 0.125])
#: Attack-family parameters, each name with the one number type its family
#: takes (see ``tests/property/test_attack_params.py``).
PARAM_VALUES = {
    "stretch": st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    "slow": st.sampled_from([25.0, 50.0, 100.0, 200.0]),
    "parity": st.integers(min_value=0, max_value=1),
    "stride": st.integers(min_value=0, max_value=4),
    "cut": st.integers(min_value=1, max_value=4),
}


@st.composite
def adversary_params(draw):
    names = draw(st.lists(st.sampled_from(sorted(PARAM_VALUES)), unique=True, max_size=3))
    return tuple((name, draw(PARAM_VALUES[name])) for name in names)


@st.composite
def cells(draw):
    return SweepCell(
        protocol=draw(protocols),
        n=draw(st.integers(min_value=1, max_value=64)),
        t=draw(st.integers(min_value=0, max_value=20)),
        epsilon=draw(epsilons),
        adversary=draw(adversaries),
        workload=draw(workloads),
        seed=draw(st.integers(min_value=0, max_value=2**63)),
        engine=draw(engines),
        dimension=draw(st.integers(min_value=1, max_value=4)),
        adversary_params=draw(adversary_params()),
    )


class TestCellIdProperties:
    @given(cell=cells())
    @settings(max_examples=80, deadline=None)
    def test_id_is_deterministic_and_well_formed(self, cell):
        first = cell_id(cell)
        assert first == cell_id(cell)
        assert len(first) == 16
        assert set(first) <= set("0123456789abcdef")

    @given(cell=cells(), other=cells(), copy=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_distinct_cells_get_distinct_ids(self, cell, other, copy):
        if copy:  # an equal cell built separately, as a store decode does
            other = SweepCell(**dataclasses.asdict(cell))
        assert (cell == other) == (cell_id(cell) == cell_id(other))

    @given(cell=cells(), delta=st.integers(min_value=1, max_value=2**31))
    @settings(max_examples=60, deadline=None)
    def test_seed_axis_always_separates_ids(self, cell, delta):
        import dataclasses

        bumped = dataclasses.replace(cell, seed=cell.seed + delta)
        assert cell_id(bumped) != cell_id(cell)

    @given(cell=cells(), delta=st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_dimension_axis_always_separates_ids(self, cell, delta):
        import dataclasses

        bumped = dataclasses.replace(cell, dimension=cell.dimension + delta)
        assert cell_id(bumped) != cell_id(cell)


class TestShardProperties:
    @given(cell=cells(), k=st.integers(min_value=1, max_value=16))
    @settings(max_examples=80, deadline=None)
    def test_every_cell_lands_in_exactly_one_shard(self, cell, k):
        assignment = cell_shard(cell, k)
        assert 0 <= assignment < k
        memberships = [cell_shard(cell, k) == index for index in range(k)]
        assert memberships.count(True) == 1

    @given(cell=cells())
    @settings(max_examples=40, deadline=None)
    def test_single_shard_takes_everything(self, cell):
        assert cell_shard(cell, 1) == 0


class TestValueKeyProperties:
    @given(cell=cells())
    @settings(max_examples=80, deadline=None)
    def test_store_line_round_trip_keeps_value_and_id(self, cell):
        outcome = CellOutcome(
            cell=cell, ok=True, all_decided=True, rounds=3, messages=42,
            bits=1344, output_spread=0.0, theoretical_contraction=0.5,
            worst_contraction=0.25, mean_contraction=0.2, bound_respected=True,
        )
        line = _outcome_to_json_line(outcome, include_wall_time=False)
        decoded = _outcome_from_payload(json.loads(line)).cell
        assert decoded == cell
        assert cell_id(decoded) == cell_id(cell)

    @given(
        shapes=st.lists(cells(), min_size=1, max_size=3),
        seeds=st.lists(
            st.lists(st.integers(min_value=-3, max_value=9), max_size=6),
            min_size=3, max_size=3,
        ),
        probe_seeds=st.lists(st.integers(min_value=-3, max_value=12), max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_cell_set_agrees_with_an_id_set(self, shapes, seeds, probe_seeds):
        # Several seeds per seed-less shape, each shape its own, so the set's
        # groups fill up unevenly and probes hit both stored and missing
        # seeds of a stored shape.
        members = [
            dataclasses.replace(cell, seed=seed)
            for cell, shape_seeds in zip(shapes, seeds)
            for seed in shape_seeds
        ]
        probes = [
            dataclasses.replace(cell, seed=seed) for cell in shapes for seed in probe_seeds
        ]
        ids = {cell_id(cell) for cell in members}
        value_set = CellSet(members)
        assert len(value_set) == len(ids)
        for probe in members + probes:
            assert (probe in value_set) == (cell_id(probe) in ids)
        for cell in members:
            assert not value_set.add(cell)
        merged = CellSet(reversed(probes))  # other group numbers than value_set
        merged.update(value_set)
        for probe in members + probes:
            assert probe in merged
        assert len(merged) == len(ids | {cell_id(cell) for cell in probes})
