"""A finished execution is freed by reference counting alone.

An execution that leaves reference cycles behind (a network and the
contexts or pending deliveries that point back at it, a process and the
broadcast layer that calls back into it, a recursive closure) is freed only
when the cycle collector runs, so a sweep's memory follows the collector's
timing instead of the one live execution.  Each case runs one warm-up cell
(module imports, memos and caches fill), then runs one cell with the
collector disabled and checks that a full collection finds nothing.
"""

from __future__ import annotations

import gc

import pytest

from repro.sim.engine import numpy_available
from repro.sim.sweep import SweepCell, run_cell

#: ``(protocol, n, t, adversary, engine)``: every protocol on every engine
#: that runs it (the synchronous protocols run in lockstep on ``event``).
CASES = [
    ("witness", 7, 2, "crash-staggered", "event"),
    ("witness", 7, 2, "crash-initial", "batch"),
    ("async-crash", 7, 2, "crash-staggered", "event"),
    ("async-crash", 7, 2, "crash-staggered", "batch"),
    ("async-crash", 7, 2, "crash-staggered", "ndbatch"),
    ("async-byzantine", 11, 2, "byz-anti", "event"),
    ("sync-crash", 7, 2, "crash-staggered", "event"),
    ("sync-byzantine", 7, 2, "byz-anti", "event"),
]


def _cell(protocol, n, t, adversary, engine, seed):
    return SweepCell(
        protocol=protocol, n=n, t=t, epsilon=1e-3, adversary=adversary,
        workload="uniform", seed=seed, engine=engine,
    )


@pytest.mark.parametrize(
    "protocol, n, t, adversary, engine",
    [
        pytest.param(
            *case,
            id="-".join((case[0], case[4])),
            marks=pytest.mark.skipif(
                case[4] == "ndbatch" and not numpy_available(),
                reason="the vectorised engine requires numpy",
            ),
        )
        for case in CASES
    ],
)
def test_a_finished_cell_leaves_no_cyclic_garbage(protocol, n, t, adversary, engine):
    run_cell(_cell(protocol, n, t, adversary, engine, seed=0))
    gc.collect()
    gc.disable()
    try:
        outcome = run_cell(_cell(protocol, n, t, adversary, engine, seed=1))
        assert outcome.engine_used == engine
        assert gc.collect() == 0
    finally:
        gc.enable()
