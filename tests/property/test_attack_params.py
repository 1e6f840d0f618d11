"""Property tests: ``adversary_params`` in cell IDs, JSONL, and shards.

The attack-search pipeline commits found adversaries as parameterised cells,
which extended the registry/cell schema with an optional ``adversary_params``
payload.  The payload must round-trip through content-addressed cell IDs and
the JSONL store with an omit-when-empty discipline, mirroring the
``dimension`` axis: v1 stores and the pinned cell-ID literals must stay
byte-valid for every parameterless cell, while any non-empty payload must
separate IDs (otherwise two different found attacks would collide in a job
store and resume would silently skip one of them).
"""

from __future__ import annotations

import dataclasses
import json

from hypothesis import given, settings, strategies as st

from repro.sim.job import cell_id, cell_shard
from repro.sim.sweep import (
    SweepCell,
    _outcome_from_payload,
    _outcome_to_json_line,
    run_cell,
)

# The parameterised registry factories and the axes they accept.  Values are
# drawn from each factory's legal domain so every generated cell passes
# ``validate()`` and can actually execute.
PARAM_AXES = {
    "byz-anti": {
        "stretch": st.sampled_from([0.0, 0.25, 0.5, 1.0]),
        "parity": st.sampled_from([0, 1]),
        "exclude": st.integers(min_value=0, max_value=4),
        "stride": st.integers(min_value=0, max_value=4),
        "phase": st.integers(min_value=0, max_value=4),
    },
    "staggered": {
        "exclude": st.integers(min_value=0, max_value=4),
        "stride": st.integers(min_value=0, max_value=4),
        "phase": st.integers(min_value=0, max_value=4),
        "slow": st.sampled_from([25.0, 50.0, 100.0]),
    },
    "witness-partition": {
        "cut": st.integers(min_value=1, max_value=4),
        "slow": st.sampled_from([100.0, 200.0]),
    },
}

PROTOCOL_FOR = {
    "byz-anti": "sync-byzantine",
    "staggered": "async-crash",
    "witness-partition": "witness",
}


@st.composite
def param_cells(draw):
    adversary = draw(st.sampled_from(sorted(PARAM_AXES)))
    axes = PARAM_AXES[adversary]
    chosen = draw(
        st.lists(st.sampled_from(sorted(axes)), min_size=1, unique=True)
    )
    params = tuple((name, draw(axes[name])) for name in chosen)
    return SweepCell(
        protocol=PROTOCOL_FOR[adversary],
        n=5,
        t=1,
        epsilon=draw(st.sampled_from([1e-2, 1e-3])),
        adversary=adversary,
        workload="uniform",
        seed=draw(st.integers(min_value=0, max_value=2**31)),
        engine="auto",
        adversary_params=params,
    )


class TestParamsInCellIds:
    def test_empty_params_keep_v1_ids_byte_valid(self):
        # Same pinned literal as tests/sim/test_job.py: a parameterless cell
        # hashes exactly as it did before the adversary_params axis existed.
        cell = SweepCell(
            protocol="async-crash", n=7, t=2, epsilon=1e-3,
            adversary="crash-initial", workload="uniform", seed=11,
            engine="batch",
        )
        assert cell_id(cell) == "f1add43e3fb0b6af"
        for empty in ((), {}, []):
            bare = dataclasses.replace(cell, adversary_params=empty)
            assert bare.adversary_params == ()
            assert bare == cell and hash(bare) == hash(cell)
            assert cell_id(bare) == "f1add43e3fb0b6af"

    @given(cell=param_cells())
    @settings(max_examples=60, deadline=None)
    def test_id_is_deterministic_and_well_formed(self, cell):
        first = cell_id(cell)
        assert first == cell_id(cell)
        assert len(first) == 16
        assert set(first) <= set("0123456789abcdef")

    @given(cell=param_cells())
    @settings(max_examples=60, deadline=None)
    def test_params_axis_always_separates_ids(self, cell):
        bare = dataclasses.replace(cell, adversary_params=())
        assert cell_id(cell) != cell_id(bare)

    @given(cell=param_cells(), other=param_cells())
    @settings(max_examples=60, deadline=None)
    def test_distinct_param_cells_get_distinct_ids(self, cell, other):
        if cell != other:
            assert cell_id(cell) != cell_id(other)
        else:
            assert cell_id(cell) == cell_id(other)

    @given(cell=param_cells())
    @settings(max_examples=40, deadline=None)
    def test_params_order_is_canonicalised(self, cell):
        reordered = dataclasses.replace(
            cell, adversary_params=tuple(reversed(cell.adversary_params))
        )
        assert reordered.adversary_params == cell.adversary_params
        assert cell_id(reordered) == cell_id(cell)
        as_dict = dataclasses.replace(
            cell, adversary_params=dict(cell.adversary_params)
        )
        assert cell_id(as_dict) == cell_id(cell)


class TestParamsInJsonl:
    def test_empty_params_omitted_from_jsonl(self):
        cell = SweepCell(
            protocol="async-crash", n=5, t=1, epsilon=1e-2,
            adversary="none", workload="uniform", seed=0, engine="batch",
        )
        line = _outcome_to_json_line(run_cell(cell))
        assert "adversary_params" not in json.loads(line)["cell"]

    @given(cell=param_cells())
    @settings(max_examples=10, deadline=None)
    def test_param_cells_round_trip_through_jsonl(self, cell):
        cell.validate()
        outcome = run_cell(cell)
        line = _outcome_to_json_line(outcome)
        payload = json.loads(line)
        assert payload["cell"]["adversary_params"] == dict(cell.adversary_params)
        restored = _outcome_from_payload(payload)
        assert restored.cell == cell
        assert restored.cell.adversary_params == cell.adversary_params
        assert restored.output_spread == outcome.output_spread


class TestParamsInShards:
    @given(cell=param_cells(), k=st.integers(min_value=1, max_value=16))
    @settings(max_examples=60, deadline=None)
    def test_every_param_cell_lands_in_exactly_one_shard(self, cell, k):
        assignment = cell_shard(cell, k)
        assert 0 <= assignment < k
        memberships = [cell_shard(cell, k) == index for index in range(k)]
        assert memberships.count(True) == 1
