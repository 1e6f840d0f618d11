"""Differential validation: round-level witness form versus the event simulator.

The batch engine's witness support collapses the reliable-broadcast/report/
witness machinery into a per-round quorum abstraction with closed-form
message accounting (:func:`repro.core.witness.witness_round_traffic`).  Under
the event simulator's default uniform schedule (constant delays) every
process delivers every participant's value before updating, which is exactly
the round engine's full-delivery schedule — so the two engines must agree
*exactly*:

* identical rounds;
* identical message counts, per-kind counts, bit counts and per-process send
  counts (the event side is run to quiescence: witness processes keep
  serving the broadcast machinery after deciding, so the traffic of a
  complete execution is schedule independent);
* outputs and value histories within ``1e-9`` (same update function on the
  same multisets — in practice they are equal).

``messages_delivered`` is compared only for scenarios without mid-run
crashes: a process dying at an iteration boundary misses a schedule-dependent
handful of same-timestamp deliveries, which the round engine's
iteration-granularity delivery model deliberately does not chase.

The grid covers the witness-round-form fault model: fault-free, initially
dead crash processes, death at a later iteration boundary, silent Byzantine
processes, and protocol-compliant Byzantine processes with forged inputs.
The full grid is marked ``slow``; a smoke subset always runs.
"""

from __future__ import annotations

import pytest

from repro.core.protocol import ProtocolConfig
from repro.core.termination import FixedRounds
from repro.core.witness import WitnessProcess, make_witness_processes
from repro.net.adversary import (
    ByzantineFaultPlan,
    ComposedFaultPlan,
    CrashFaultPlan,
    CrashPoint,
    HonestWithCorruptedInput,
    SilentProcess,
)
from repro.net.network import ConstantDelay, SimulatedNetwork
from repro.sim.batch import run_batch_protocol
from repro.sim.workloads import linear_inputs, two_cluster_inputs, uniform_inputs

EPSILON = 1e-3
TOLERANCE = 1e-9


def _boundary_crash_sends(iteration: int, n: int) -> int:
    """Event-level crash point for "dies cleanly before iteration ``iteration``".

    In a fault-free prefix every process sends ``n·(2n + 2)`` point-to-point
    messages per iteration (INIT + n·ECHO + n·READY + REPORT multicasts), so
    this send count kills the process exactly at its iteration-``iteration``
    INIT attempt — the event-level realisation of the round model's
    ``(iteration, 0)`` crash entry.
    """
    return (iteration - 1) * n * (2 * n + 2)


def _scenarios():
    """(name, n, t, inputs, rounds, plan_builder, has_mid_run_crash) grid.

    Plans are built lazily (fresh per run): Byzantine replacement behaviours
    are stateful protocol objects, so a plan object must never be shared
    between two simulator runs.
    """
    cells = []
    for n, t, workload, rounds in [
        (4, 1, uniform_inputs(4, 0.0, 2.0, seed=4), 4),
        (5, 1, linear_inputs(5, 0.0, 1.0), 4),
        (7, 2, two_cluster_inputs(7, 0.0, 1.0, jitter=0.1, seed=7), 4),
        (10, 3, uniform_inputs(10, -1.0, 1.0, seed=10), 4),
        # The largest witness size of the sweep benchmark; 9 rounds cross
        # the round-8 step in the width of the (round, originator) tags.
        (16, 5, uniform_inputs(16, 0.0, 1.0, seed=16), 9),
    ]:
        def dead(n=n, t=t):
            return CrashFaultPlan(
                {n - 1 - i: CrashPoint(after_sends=0) for i in range(t)}
            )

        def boundary(n=n):
            return CrashFaultPlan(
                {n - 1: CrashPoint(after_sends=_boundary_crash_sends(3, n))}
            )

        def silent(n=n, t=t):
            return ByzantineFaultPlan(
                {n - 1 - i: SilentProcess() for i in range(t)}
            )

        def forged(n=n, t=t, rounds=rounds):
            config = ProtocolConfig(
                n=n, t=t, epsilon=EPSILON, round_policy=FixedRounds(rounds)
            )
            return ByzantineFaultPlan(
                {
                    n - 1: HonestWithCorruptedInput(
                        lambda: WitnessProcess(1e9, config)
                    )
                }
            )

        def mixed(n=n):
            return ComposedFaultPlan(
                [
                    CrashFaultPlan({n - 1: CrashPoint(after_sends=0)}),
                    ByzantineFaultPlan({n - 2: SilentProcess()}),
                ]
            )

        cells.append((f"fault-free-n{n}", n, t, workload, rounds, None, False))
        cells.append((f"initially-dead-n{n}", n, t, workload, rounds, dead, False))
        cells.append((f"dies-at-r3-n{n}", n, t, workload, rounds, boundary, True))
        cells.append((f"silent-byz-n{n}", n, t, workload, rounds, silent, False))
        cells.append((f"forged-input-n{n}", n, t, workload, rounds, forged, False))
        if t >= 2:
            cells.append((f"mixed-n{n}", n, t, workload, rounds, mixed, False))
    return cells


GRID = _scenarios()
assert len(GRID) >= 20, f"witness differential grid has only {len(GRID)} cells"

SMOKE_NAMES = {"fault-free-n5", "initially-dead-n7", "dies-at-r3-n5", "forged-input-n7"}
SMOKE = [cell for cell in GRID if cell[0] in SMOKE_NAMES]


def run_event_to_quiescence(n, t, inputs, rounds, fault_plan):
    """Drive the witness protocol on the event simulator until quiescence.

    The default ``run_protocol`` entry point stops as soon as every honest
    process outputs; the differential bar needs the complete traffic, so the
    network is drained (witness processes never halt — they keep serving the
    reliable-broadcast machinery, which is what makes the totals closed-form).
    """
    processes = make_witness_processes(
        inputs, t, EPSILON, round_policy=FixedRounds(rounds)
    )
    network = SimulatedNetwork(
        processes, delay_model=ConstantDelay(1.0), fault_plan=fault_plan
    )
    network.start()
    network.run(stop_when_outputs=False)
    return network


def assert_cell_agrees(name, n, t, inputs, rounds, plan_builder, mid_run_crash):
    fault_plan = plan_builder() if plan_builder is not None else None
    network = run_event_to_quiescence(n, t, inputs, rounds, fault_plan)
    result = run_batch_protocol(
        "witness",
        inputs,
        t=t,
        epsilon=EPSILON,
        round_policy=FixedRounds(rounds),
        fault_plan=plan_builder() if plan_builder is not None else None,
    )

    event, batch = network.stats, result.stats
    assert batch.messages_sent == event.messages_sent, name
    assert batch.bits_sent == event.bits_sent, name
    assert batch.messages_by_kind == event.messages_by_kind, name
    assert batch.sends_by_process == event.sends_by_process, name
    if not mid_run_crash:
        assert batch.messages_delivered == event.messages_delivered, name

    faulty = set(network.faulty)
    event_rounds = max(
        (
            process.rounds_completed
            for pid, process in enumerate(network.processes)
            if pid not in faulty
        ),
        default=0,
    )
    assert result.rounds_used == event_rounds == rounds, name

    for pid, process in enumerate(network.processes):
        if pid in faulty:
            continue
        assert process.has_output, f"{name}: event process {pid} undecided"
        assert result.outputs[pid] is not None, f"{name}: batch process {pid} undecided"
        assert abs(result.outputs[pid] - process.output_value) <= TOLERANCE, name
        event_history = process.value_history
        batch_history = result.value_histories[pid]
        assert len(batch_history) == len(event_history), name
        for left, right in zip(batch_history, event_history):
            assert abs(left - right) <= TOLERANCE, name
    assert result.ok, f"{name}: {result.report.violations}"


@pytest.mark.parametrize("cell", SMOKE, ids=[cell[0] for cell in SMOKE])
def test_witness_round_form_smoke(cell):
    assert_cell_agrees(*cell)


@pytest.mark.slow
@pytest.mark.parametrize("cell", GRID, ids=[cell[0] for cell in GRID])
def test_witness_round_form_full_grid(cell):
    assert_cell_agrees(*cell)


class TestRoundTrafficThresholds:
    """Stall accounting of under-populated iterations, pinned to the wire."""

    def test_below_echo_quorum_sends_init_and_echo_only(self):
        # 2 of 5 dead with t=1: 3 participants < echo quorum 4 < n - t = 4.
        from repro.core.witness import witness_round_traffic

        n, t = 5, 1
        inputs = linear_inputs(n, 0.0, 1.0)
        processes = make_witness_processes(
            inputs, t, EPSILON, round_policy=FixedRounds(3)
        )
        plan = CrashFaultPlan(
            {3: CrashPoint(after_sends=0), 4: CrashPoint(after_sends=0)}
        )
        network = SimulatedNetwork(
            processes, delay_model=ConstantDelay(1.0), fault_plan=plan
        )
        network.start()
        network.run(stop_when_outputs=False)
        traffic = witness_round_traffic(n, t, 1, [0, 1, 2])
        assert not traffic.completes
        assert traffic.by_kind == network.stats.messages_by_kind
        assert traffic.bits == network.stats.bits_sent

    def test_between_echo_quorum_and_report_threshold(self):
        # 3 of 9 dead with t=2: 6 participants, echo quorum 6 <= 6 < n - t = 7,
        # so READY traffic flows but no instance delivers and no reports go out.
        from repro.core.witness import witness_round_traffic

        n, t = 9, 2
        inputs = linear_inputs(n, 0.0, 1.0)
        processes = make_witness_processes(
            inputs, t, EPSILON, round_policy=FixedRounds(3)
        )
        plan = CrashFaultPlan(
            {pid: CrashPoint(after_sends=0) for pid in (6, 7, 8)}
        )
        network = SimulatedNetwork(
            processes, delay_model=ConstantDelay(1.0), fault_plan=plan
        )
        network.start()
        network.run(stop_when_outputs=False)
        traffic = witness_round_traffic(n, t, 1, list(range(6)))
        assert not traffic.completes
        assert "RBC_READY" in traffic.by_kind
        assert "REPORT" not in traffic.by_kind
        assert traffic.by_kind == network.stats.messages_by_kind
        assert traffic.bits == network.stats.bits_sent
