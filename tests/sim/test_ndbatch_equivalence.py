"""Differential validation: vectorised engine versus the pure-Python batch engine.

Unlike the batch-versus-event grid (where the two engines realise different
legal schedules and only the correctness envelope is compared), the ndbatch
engine is designed to reproduce the batch engine's executions *exactly*: the
counter-based :class:`~repro.net.adversary.SeededOmission` PRF and the
``rank_tensor`` quorum contract both yield the same quorum for every
(execution, round, recipient).  The engines may differ only
in floating-point summation order (``math.fsum`` versus numpy's pairwise
summation), so the differential bar is:

* **exact** equality of rounds, message/bit/delivery counts and per-process
  send counts;
* outputs, trajectories and value histories equal within ``1e-9``.

The full grid (crash + Byzantine × sync + async × adversaries × workloads ×
seeds) is marked ``slow``; a representative smoke subset always runs.
"""

from __future__ import annotations

import pytest

pytest.importorskip("numpy", reason="the vectorised engine requires numpy")

from repro.net.adversary import (
    DelayRankOmission,
    FixedValueStrategy,
    RoundFaultModel,
    StaggeredExclusionDelay,
)
from repro.sim.batch import run_batch_protocol
from repro.sim.ndbatch import run_ndbatch_block, run_ndbatch_protocol
from repro.sim.sweep import (
    ADVERSARY_SPECS,
    WORKLOAD_SPECS,
    adversary_fits_protocol,
)

EPSILON = 1e-3
TOLERANCE = 1e-9

#: (protocol, n, t) triples sized at each protocol's interesting threshold.
SYSTEMS = {
    "async-crash": (7, 2),
    "async-byzantine": (11, 2),
    "sync-crash": (7, 2),
    "sync-byzantine": (7, 2),
}

ADVERSARIES = [
    "none",
    "crash-initial",
    "crash-staggered",
    "byz-fixed",
    "byz-equivocate",
    "byz-anti",
    "partition",
    "staggered",
]

WORKLOADS = ["uniform", "two-cluster", "extremes"]


def grid_cells():
    cells = []
    for protocol, (n, t) in SYSTEMS.items():
        for adversary in ADVERSARIES:
            if not adversary_fits_protocol(adversary, protocol):
                continue
            for workload in WORKLOADS:
                cells.append((protocol, n, t, adversary, workload))
    return cells


GRID = grid_cells()
assert len(GRID) >= 24, f"differential grid has only {len(GRID)} cells"

SMOKE = [
    ("async-crash", 7, 2, "crash-staggered", "uniform"),
    ("async-byzantine", 11, 2, "byz-equivocate", "two-cluster"),
    ("sync-crash", 7, 2, "crash-initial", "extremes"),
    ("sync-byzantine", 7, 2, "byz-anti", "uniform"),
    ("async-crash", 7, 2, "staggered", "two-cluster"),
]


def assert_engines_agree(batch, ndbatch, context):
    """The full differential bar between the two round-level engines."""
    # Exact: everything integer-valued.
    assert batch.rounds_used == ndbatch.rounds_used, context
    assert batch.stats.messages_sent == ndbatch.stats.messages_sent, context
    assert batch.stats.bits_sent == ndbatch.stats.bits_sent, context
    assert batch.stats.messages_delivered == ndbatch.stats.messages_delivered, context
    assert batch.stats.sends_by_process == ndbatch.stats.sends_by_process, context
    assert batch.stats.messages_by_kind == ndbatch.stats.messages_by_kind, context
    assert batch.report.ok == ndbatch.report.ok, context
    assert batch.report.all_decided == ndbatch.report.all_decided, context

    # Within summation-order tolerance: everything real-valued.
    assert set(batch.outputs) == set(ndbatch.outputs), context
    for pid, value in batch.outputs.items():
        other = ndbatch.outputs[pid]
        if value is None:
            assert other is None, context
        else:
            assert abs(value - other) <= TOLERANCE, f"{context}: output of P{pid}"
    assert len(batch.trajectory) == len(ndbatch.trajectory), context
    for left, right in zip(batch.trajectory, ndbatch.trajectory):
        assert abs(left - right) <= TOLERANCE, context
    assert set(batch.value_histories) == set(ndbatch.value_histories), context
    for pid, history in batch.value_histories.items():
        other = ndbatch.value_histories[pid]
        assert len(history) == len(other), f"{context}: history length of P{pid}"
        for left, right in zip(history, other):
            assert abs(left - right) <= TOLERANCE, f"{context}: history of P{pid}"


def run_both(protocol, n, t, adversary, workload, seed):
    inputs = WORKLOAD_SPECS[workload](n, seed)
    bundle = ADVERSARY_SPECS[adversary](protocol, n, t, seed)
    kwargs = dict(
        t=t, epsilon=EPSILON,
        fault_plan=bundle.fault_plan, delay_model=bundle.delay_model, seed=seed,
    )
    return (
        run_batch_protocol(protocol, inputs, **kwargs),
        run_ndbatch_protocol(protocol, inputs, **kwargs),
    )


class TestDifferentialSmoke:
    """Always-on representative subset of the differential grid."""

    @pytest.mark.parametrize("protocol,n,t,adversary,workload", SMOKE)
    def test_engines_agree(self, protocol, n, t, adversary, workload):
        batch, ndbatch = run_both(protocol, n, t, adversary, workload, seed=0)
        assert_engines_agree(
            batch, ndbatch, f"{protocol} {adversary}/{workload}"
        )

    def test_block_execution_matches_per_execution_batch(self):
        """A multi-execution block equals one batch run per execution."""
        from repro.core.termination import FixedRounds

        n, t = 10, 3
        cells = [("uniform", seed) for seed in range(6)] + [("two-cluster", 2)]
        inputs_block = [WORKLOAD_SPECS[w](n, s) for w, s in cells]
        seeds = [s for _, s in cells]
        policy = FixedRounds(6)
        block = run_ndbatch_block(
            "async-crash", inputs_block, t=t, epsilon=1e-2,
            round_policy=policy, seeds=seeds,
        )
        for (workload, seed), inputs, ndbatch in zip(cells, inputs_block, block):
            batch = run_batch_protocol(
                "async-crash", inputs, t=t, epsilon=1e-2,
                round_policy=policy, seed=seed,
            )
            assert_engines_agree(batch, ndbatch, f"block {workload}/{seed}")

    def test_non_finite_injection_refill_path(self):
        n, t = 11, 2
        model = RoundFaultModel(
            strategies={
                n - 1: FixedValueStrategy(float("nan")),
                n - 2: FixedValueStrategy(float("inf")),
            }
        )
        inputs = [i / (n - 1) for i in range(n)]
        kwargs = dict(t=t, epsilon=EPSILON, fault_model=model, seed=7)
        batch = run_batch_protocol("async-byzantine", inputs, **kwargs)
        ndbatch = run_ndbatch_protocol("async-byzantine", inputs, **kwargs)
        assert_engines_agree(batch, ndbatch, "nan refill")

    def test_infinite_delay_rank_still_beats_non_candidates(self):
        # An infinite delay is a legal rank (constructors only reject <= 0);
        # the vector path must not confuse it with its non-candidate mask
        # sentinel, or a crashed sender's stale value could enter a quorum.
        from repro.net.adversary import CrashFaultPlan, CrashPoint, PartitionDelay

        n, t = 7, 2
        inputs = [i / (n - 1) for i in range(n)]
        plan = CrashFaultPlan({n - 1 - i: CrashPoint(after_sends=0) for i in range(t)})
        results = []
        for runner in (run_batch_protocol, run_ndbatch_protocol):
            results.append(
                runner(
                    "async-crash", inputs, t=t, epsilon=EPSILON,
                    fault_plan=plan,
                    delay_model=PartitionDelay(
                        camp_a=range(3), fast=1.0, slow=float("inf")
                    ),
                )
            )
        assert_engines_agree(results[0], results[1], "infinite delay rank")

    def test_delay_rank_policy_path_matches(self):
        n, t = 11, 3
        inputs = [i / (n - 1) for i in range(n)]
        results = []
        for runner in (run_batch_protocol, run_ndbatch_protocol):
            results.append(
                runner(
                    "async-crash", inputs, t=t, epsilon=EPSILON,
                    omission_policy=DelayRankOmission(
                        StaggeredExclusionDelay(n, exclude=t)
                    ),
                )
            )
        assert_engines_agree(results[0], results[1], "delay-rank policy")


@pytest.mark.slow
class TestDifferentialGrid:
    """The full seeded scenario grid (≥ 24 cells, two seeds each)."""

    @pytest.mark.parametrize("protocol,n,t,adversary,workload", GRID)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_engines_agree(self, protocol, n, t, adversary, workload, seed):
        batch, ndbatch = run_both(protocol, n, t, adversary, workload, seed)
        assert_engines_agree(
            batch, ndbatch, f"{protocol} n={n} t={t} {adversary}/{workload} s{seed}"
        )
