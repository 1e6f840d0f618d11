"""No process advances before its own ``on_start``.

With jittered starts a process can receive a quorum of round-1 values, or
``n − t`` delivered broadcasts and witnesses, before the network starts it.
It stores them, but acts on them only once it has started: an early
asynchronous update would go out as the process's round-1 value, and an early
witness update would run without a round count and decide after one
iteration.
"""

from __future__ import annotations

import pytest

from repro.net.network import SimulatedNetwork, UniformRandomDelay
from repro.sim.runner import PROTOCOL_FACTORIES
from repro.sim.workloads import uniform_inputs

#: ``(start_jitter, seed)``: the seed draws the inputs, the delays and the
#: start times.
GRID = [(jitter, seed) for jitter in (5.0, 20.0, 30.0) for seed in range(12)]


def run(protocol, n, t, jitter, seed):
    """Run one execution; return its inputs, processes and round-1 ``VALUE``s."""
    inputs = uniform_inputs(n, seed=seed)
    processes = PROTOCOL_FACTORIES[protocol](inputs, t, 1e-3)
    network = SimulatedNetwork(
        processes, delay_model=UniformRandomDelay(low=0.2, high=1.8, seed=seed)
    )
    round_one = []
    network.add_delivery_observer(
        lambda record: round_one.append((record.sender, record.message.value))
        if record.message.kind == "VALUE" and record.message.round == 1
        else None
    )
    network.start(start_jitter=jitter, seed=seed)
    network.run()
    network.close()
    return inputs, processes, round_one


@pytest.mark.parametrize("jitter,seed", GRID)
def test_witness_process_runs_every_iteration(jitter, seed):
    _, processes, _ = run("witness", 10, 3, jitter, seed)
    for process in processes:
        assert process.rounds_completed == process.total_rounds, process.describe()
        assert len(process.value_history) == process.total_rounds + 1, process.describe()


@pytest.mark.parametrize("jitter,seed", GRID)
@pytest.mark.parametrize("protocol,n,t", [("async-crash", 10, 4), ("async-byzantine", 11, 2)])
def test_round_one_value_is_the_senders_input(protocol, n, t, jitter, seed):
    inputs, _, round_one = run(protocol, n, t, jitter, seed)
    assert round_one
    assert [value for _, value in round_one] == [inputs[sender] for sender, _ in round_one]
