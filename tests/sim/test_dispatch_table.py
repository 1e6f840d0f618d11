"""Every ``engine="auto"`` decision, pinned in a recorded table.

The engine a cell runs on changes nothing the paper guarantees, but a sweep
must be able to say why each cell ran where it did, and the answer must not
depend on the host.  ``auto`` is a pure function of the scenario: it runs a
scenario on ndbatch when ndbatch can run it — every adversary component a
stateless tensor program — and its estimated work reaches
:data:`repro.sim.engine.NDBATCH_MIN_WORK` (64).

:data:`TABLE` was recorded while ``auto`` still timed a per-host probe, with
that probe pinned to 64; the scenario-only rule must reproduce every entry.
It covers every protocol × every registered adversary that fits it
(``found-*`` included) × d ∈ {1, 3} × a size whose single cell is below the
threshold and one whose single cell is above it × one seed and four seeds.
Each entry holds one code per cell, the one-seed group first: the first
letter is ``_auto_engine_for(cell)``, the engine the cell is a block
candidate for; the second is ``N`` when ``_ndbatch_dispatch_groups`` puts the
cell in an ndbatch block, else the initial of the engine ``run_cell`` ran it
on.  :data:`SINGLES` holds ``engine.run(engine="auto")`` runtimes.

Rows that involve ndbatch need numpy; the rest also run without it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.core.termination import SpreadEstimateRounds
from repro.net.adversary import (
    CrashFaultPlan,
    CrashPoint,
    DelayRankOmission,
    OmissionPolicy,
    RandomValueStrategy,
    RoundFaultModel,
    SeededDelay,
    SeededOmission,
)
from repro.net.network import UniformRandomDelay
from repro.sim import engine
from repro.sim.sweep import (
    DEFAULT_MAX_BLOCK_SIZE,
    SweepCell,
    SweepSpec,
    _auto_engine_for,
    _ndbatch_dispatch_groups,
    run_cell,
)

needs_numpy = pytest.mark.skipif(
    not engine.numpy_available(), reason="ndbatch decisions require numpy"
)

EPSILON = 1e-3
#: (n, t) per size.  Witness never runs on ndbatch, so its large size only
#: has to clear the threshold; at n=16 its event-engine cells take seconds.
SIZES = {"small": (6, 1), "large": (16, 3)}
WITNESS_LARGE = (7, 2)
SEEDS = ((0,), (0, 1, 2, 3))

TABLE = {
    ("async-byzantine", "none", 1, "small"): ("nb", "nN nN nN nN"),
    ("async-byzantine", "none", 1, "large"): ("nN", "nN nN nN nN"),
    ("async-byzantine", "none", 3, "small"): ("nN", "nN nN nN nN"),
    ("async-byzantine", "none", 3, "large"): ("nN", "nN nN nN nN"),
    ("async-byzantine", "crash-initial", 1, "small"): ("nb", "nN nN nN nN"),
    ("async-byzantine", "crash-initial", 1, "large"): ("nN", "nN nN nN nN"),
    ("async-byzantine", "crash-initial", 3, "small"): ("nN", "nN nN nN nN"),
    ("async-byzantine", "crash-initial", 3, "large"): ("nN", "nN nN nN nN"),
    ("async-byzantine", "crash-staggered", 1, "small"): ("nb", "nN nN nN nN"),
    ("async-byzantine", "crash-staggered", 1, "large"): ("nN", "nN nN nN nN"),
    ("async-byzantine", "crash-staggered", 3, "small"): ("nN", "nN nN nN nN"),
    ("async-byzantine", "crash-staggered", 3, "large"): ("nN", "nN nN nN nN"),
    ("async-byzantine", "byz-fixed", 1, "small"): ("nb", "nN nN nN nN"),
    ("async-byzantine", "byz-fixed", 1, "large"): ("nN", "nN nN nN nN"),
    ("async-byzantine", "byz-fixed", 3, "small"): ("nN", "nN nN nN nN"),
    ("async-byzantine", "byz-fixed", 3, "large"): ("nN", "nN nN nN nN"),
    ("async-byzantine", "byz-equivocate", 1, "small"): ("nb", "nN nN nN nN"),
    ("async-byzantine", "byz-equivocate", 1, "large"): ("nN", "nN nN nN nN"),
    ("async-byzantine", "byz-equivocate", 3, "small"): ("nN", "nN nN nN nN"),
    ("async-byzantine", "byz-equivocate", 3, "large"): ("nN", "nN nN nN nN"),
    ("async-byzantine", "byz-anti", 1, "small"): ("nb", "nN nN nN nN"),
    ("async-byzantine", "byz-anti", 1, "large"): ("nN", "nN nN nN nN"),
    ("async-byzantine", "byz-anti", 3, "small"): ("nN", "nN nN nN nN"),
    ("async-byzantine", "byz-anti", 3, "large"): ("nN", "nN nN nN nN"),
    ("async-byzantine", "byz-random", 1, "small"): ("nb", "nN nN nN nN"),
    ("async-byzantine", "byz-random", 1, "large"): ("nN", "nN nN nN nN"),
    ("async-byzantine", "byz-random", 3, "small"): ("nN", "nN nN nN nN"),
    ("async-byzantine", "byz-random", 3, "large"): ("nN", "nN nN nN nN"),
    ("async-byzantine", "partition", 1, "small"): ("nb", "nN nN nN nN"),
    ("async-byzantine", "partition", 1, "large"): ("nN", "nN nN nN nN"),
    ("async-byzantine", "partition", 3, "small"): ("nN", "nN nN nN nN"),
    ("async-byzantine", "partition", 3, "large"): ("nN", "nN nN nN nN"),
    ("async-byzantine", "laggard", 1, "small"): ("nb", "nN nN nN nN"),
    ("async-byzantine", "laggard", 1, "large"): ("nN", "nN nN nN nN"),
    ("async-byzantine", "laggard", 3, "small"): ("nN", "nN nN nN nN"),
    ("async-byzantine", "laggard", 3, "large"): ("nN", "nN nN nN nN"),
    ("async-byzantine", "staggered", 1, "small"): ("nb", "nN nN nN nN"),
    ("async-byzantine", "staggered", 1, "large"): ("nN", "nN nN nN nN"),
    ("async-byzantine", "staggered", 3, "small"): ("nN", "nN nN nN nN"),
    ("async-byzantine", "staggered", 3, "large"): ("nN", "nN nN nN nN"),
    ("async-byzantine", "random-delays", 1, "small"): ("nb", "nN nN nN nN"),
    ("async-byzantine", "random-delays", 1, "large"): ("nN", "nN nN nN nN"),
    ("async-byzantine", "random-delays", 3, "small"): ("nN", "nN nN nN nN"),
    ("async-byzantine", "random-delays", 3, "large"): ("nN", "nN nN nN nN"),
    ("async-byzantine", "witness-partition", 1, "small"): ("nb", "nN nN nN nN"),
    ("async-byzantine", "witness-partition", 1, "large"): ("nN", "nN nN nN nN"),
    ("async-byzantine", "witness-partition", 3, "small"): ("nN", "nN nN nN nN"),
    ("async-byzantine", "witness-partition", 3, "large"): ("nN", "nN nN nN nN"),
    ("async-byzantine", "found-anti-stagger", 1, "small"): ("nb", "nN nN nN nN"),
    ("async-byzantine", "found-anti-stagger", 1, "large"): ("nN", "nN nN nN nN"),
    ("async-byzantine", "found-anti-stagger", 3, "small"): ("nN", "nN nN nN nN"),
    ("async-byzantine", "found-anti-stagger", 3, "large"): ("nN", "nN nN nN nN"),
    ("async-byzantine", "found-rank-freeze", 1, "small"): ("nb", "nN nN nN nN"),
    ("async-byzantine", "found-rank-freeze", 1, "large"): ("nN", "nN nN nN nN"),
    ("async-byzantine", "found-rank-freeze", 3, "small"): ("nN", "nN nN nN nN"),
    ("async-byzantine", "found-rank-freeze", 3, "large"): ("nN", "nN nN nN nN"),
    ("async-crash", "none", 1, "small"): ("nb", "nb nb nb nb"),
    ("async-crash", "none", 1, "large"): ("nN", "nN nN nN nN"),
    ("async-crash", "none", 3, "small"): ("nN", "nN nN nN nN"),
    ("async-crash", "none", 3, "large"): ("nN", "nN nN nN nN"),
    ("async-crash", "crash-initial", 1, "small"): ("nb", "nb nb nb nb"),
    ("async-crash", "crash-initial", 1, "large"): ("nN", "nN nN nN nN"),
    ("async-crash", "crash-initial", 3, "small"): ("nN", "nN nN nN nN"),
    ("async-crash", "crash-initial", 3, "large"): ("nN", "nN nN nN nN"),
    ("async-crash", "crash-staggered", 1, "small"): ("nb", "nb nb nb nb"),
    ("async-crash", "crash-staggered", 1, "large"): ("nN", "nN nN nN nN"),
    ("async-crash", "crash-staggered", 3, "small"): ("nN", "nN nN nN nN"),
    ("async-crash", "crash-staggered", 3, "large"): ("nN", "nN nN nN nN"),
    ("async-crash", "partition", 1, "small"): ("nb", "nb nb nb nb"),
    ("async-crash", "partition", 1, "large"): ("nN", "nN nN nN nN"),
    ("async-crash", "partition", 3, "small"): ("nN", "nN nN nN nN"),
    ("async-crash", "partition", 3, "large"): ("nN", "nN nN nN nN"),
    ("async-crash", "laggard", 1, "small"): ("nb", "nb nb nb nb"),
    ("async-crash", "laggard", 1, "large"): ("nN", "nN nN nN nN"),
    ("async-crash", "laggard", 3, "small"): ("nN", "nN nN nN nN"),
    ("async-crash", "laggard", 3, "large"): ("nN", "nN nN nN nN"),
    ("async-crash", "staggered", 1, "small"): ("nb", "nb nb nb nb"),
    ("async-crash", "staggered", 1, "large"): ("nN", "nN nN nN nN"),
    ("async-crash", "staggered", 3, "small"): ("nN", "nN nN nN nN"),
    ("async-crash", "staggered", 3, "large"): ("nN", "nN nN nN nN"),
    ("async-crash", "random-delays", 1, "small"): ("nb", "nb nb nb nb"),
    ("async-crash", "random-delays", 1, "large"): ("nN", "nN nN nN nN"),
    ("async-crash", "random-delays", 3, "small"): ("nN", "nN nN nN nN"),
    ("async-crash", "random-delays", 3, "large"): ("nN", "nN nN nN nN"),
    ("async-crash", "witness-partition", 1, "small"): ("nb", "nb nb nb nb"),
    ("async-crash", "witness-partition", 1, "large"): ("nN", "nN nN nN nN"),
    ("async-crash", "witness-partition", 3, "small"): ("nN", "nN nN nN nN"),
    ("async-crash", "witness-partition", 3, "large"): ("nN", "nN nN nN nN"),
    ("async-crash", "found-rank-freeze", 1, "small"): ("nb", "nb nb nb nb"),
    ("async-crash", "found-rank-freeze", 1, "large"): ("nN", "nN nN nN nN"),
    ("async-crash", "found-rank-freeze", 3, "small"): ("nN", "nN nN nN nN"),
    ("async-crash", "found-rank-freeze", 3, "large"): ("nN", "nN nN nN nN"),
    ("sync-byzantine", "none", 1, "small"): ("nb", "nN nN nN nN"),
    ("sync-byzantine", "none", 1, "large"): ("nN", "nN nN nN nN"),
    ("sync-byzantine", "none", 3, "small"): ("nN", "nN nN nN nN"),
    ("sync-byzantine", "none", 3, "large"): ("nN", "nN nN nN nN"),
    ("sync-byzantine", "crash-initial", 1, "small"): ("nb", "nN nN nN nN"),
    ("sync-byzantine", "crash-initial", 1, "large"): ("nN", "nN nN nN nN"),
    ("sync-byzantine", "crash-initial", 3, "small"): ("nN", "nN nN nN nN"),
    ("sync-byzantine", "crash-initial", 3, "large"): ("nN", "nN nN nN nN"),
    ("sync-byzantine", "crash-staggered", 1, "small"): ("nb", "nN nN nN nN"),
    ("sync-byzantine", "crash-staggered", 1, "large"): ("nN", "nN nN nN nN"),
    ("sync-byzantine", "crash-staggered", 3, "small"): ("nN", "nN nN nN nN"),
    ("sync-byzantine", "crash-staggered", 3, "large"): ("nN", "nN nN nN nN"),
    ("sync-byzantine", "byz-fixed", 1, "small"): ("nb", "nN nN nN nN"),
    ("sync-byzantine", "byz-fixed", 1, "large"): ("nN", "nN nN nN nN"),
    ("sync-byzantine", "byz-fixed", 3, "small"): ("nN", "nN nN nN nN"),
    ("sync-byzantine", "byz-fixed", 3, "large"): ("nN", "nN nN nN nN"),
    ("sync-byzantine", "byz-equivocate", 1, "small"): ("nb", "nN nN nN nN"),
    ("sync-byzantine", "byz-equivocate", 1, "large"): ("nN", "nN nN nN nN"),
    ("sync-byzantine", "byz-equivocate", 3, "small"): ("nN", "nN nN nN nN"),
    ("sync-byzantine", "byz-equivocate", 3, "large"): ("nN", "nN nN nN nN"),
    ("sync-byzantine", "byz-anti", 1, "small"): ("nb", "nN nN nN nN"),
    ("sync-byzantine", "byz-anti", 1, "large"): ("nN", "nN nN nN nN"),
    ("sync-byzantine", "byz-anti", 3, "small"): ("nN", "nN nN nN nN"),
    ("sync-byzantine", "byz-anti", 3, "large"): ("nN", "nN nN nN nN"),
    ("sync-byzantine", "byz-random", 1, "small"): ("nb", "nN nN nN nN"),
    ("sync-byzantine", "byz-random", 1, "large"): ("nN", "nN nN nN nN"),
    ("sync-byzantine", "byz-random", 3, "small"): ("nN", "nN nN nN nN"),
    ("sync-byzantine", "byz-random", 3, "large"): ("nN", "nN nN nN nN"),
    ("sync-byzantine", "partition", 1, "small"): ("nb", "nN nN nN nN"),
    ("sync-byzantine", "partition", 1, "large"): ("nN", "nN nN nN nN"),
    ("sync-byzantine", "partition", 3, "small"): ("nN", "nN nN nN nN"),
    ("sync-byzantine", "partition", 3, "large"): ("nN", "nN nN nN nN"),
    ("sync-byzantine", "laggard", 1, "small"): ("nb", "nN nN nN nN"),
    ("sync-byzantine", "laggard", 1, "large"): ("nN", "nN nN nN nN"),
    ("sync-byzantine", "laggard", 3, "small"): ("nN", "nN nN nN nN"),
    ("sync-byzantine", "laggard", 3, "large"): ("nN", "nN nN nN nN"),
    ("sync-byzantine", "staggered", 1, "small"): ("nb", "nN nN nN nN"),
    ("sync-byzantine", "staggered", 1, "large"): ("nN", "nN nN nN nN"),
    ("sync-byzantine", "staggered", 3, "small"): ("nN", "nN nN nN nN"),
    ("sync-byzantine", "staggered", 3, "large"): ("nN", "nN nN nN nN"),
    ("sync-byzantine", "random-delays", 1, "small"): ("nb", "nN nN nN nN"),
    ("sync-byzantine", "random-delays", 1, "large"): ("nN", "nN nN nN nN"),
    ("sync-byzantine", "random-delays", 3, "small"): ("nN", "nN nN nN nN"),
    ("sync-byzantine", "random-delays", 3, "large"): ("nN", "nN nN nN nN"),
    ("sync-byzantine", "witness-partition", 1, "small"): ("nb", "nN nN nN nN"),
    ("sync-byzantine", "witness-partition", 1, "large"): ("nN", "nN nN nN nN"),
    ("sync-byzantine", "witness-partition", 3, "small"): ("nN", "nN nN nN nN"),
    ("sync-byzantine", "witness-partition", 3, "large"): ("nN", "nN nN nN nN"),
    ("sync-byzantine", "found-anti-stagger", 1, "small"): ("nb", "nN nN nN nN"),
    ("sync-byzantine", "found-anti-stagger", 1, "large"): ("nN", "nN nN nN nN"),
    ("sync-byzantine", "found-anti-stagger", 3, "small"): ("nN", "nN nN nN nN"),
    ("sync-byzantine", "found-anti-stagger", 3, "large"): ("nN", "nN nN nN nN"),
    ("sync-byzantine", "found-rank-freeze", 1, "small"): ("nb", "nN nN nN nN"),
    ("sync-byzantine", "found-rank-freeze", 1, "large"): ("nN", "nN nN nN nN"),
    ("sync-byzantine", "found-rank-freeze", 3, "small"): ("nN", "nN nN nN nN"),
    ("sync-byzantine", "found-rank-freeze", 3, "large"): ("nN", "nN nN nN nN"),
    ("sync-crash", "none", 1, "small"): ("nb", "nN nN nN nN"),
    ("sync-crash", "none", 1, "large"): ("nN", "nN nN nN nN"),
    ("sync-crash", "none", 3, "small"): ("nN", "nN nN nN nN"),
    ("sync-crash", "none", 3, "large"): ("nN", "nN nN nN nN"),
    ("sync-crash", "crash-initial", 1, "small"): ("nb", "nN nN nN nN"),
    ("sync-crash", "crash-initial", 1, "large"): ("nN", "nN nN nN nN"),
    ("sync-crash", "crash-initial", 3, "small"): ("nN", "nN nN nN nN"),
    ("sync-crash", "crash-initial", 3, "large"): ("nN", "nN nN nN nN"),
    ("sync-crash", "crash-staggered", 1, "small"): ("nb", "nN nN nN nN"),
    ("sync-crash", "crash-staggered", 1, "large"): ("nN", "nN nN nN nN"),
    ("sync-crash", "crash-staggered", 3, "small"): ("nN", "nN nN nN nN"),
    ("sync-crash", "crash-staggered", 3, "large"): ("nN", "nN nN nN nN"),
    ("sync-crash", "partition", 1, "small"): ("nb", "nN nN nN nN"),
    ("sync-crash", "partition", 1, "large"): ("nN", "nN nN nN nN"),
    ("sync-crash", "partition", 3, "small"): ("nN", "nN nN nN nN"),
    ("sync-crash", "partition", 3, "large"): ("nN", "nN nN nN nN"),
    ("sync-crash", "laggard", 1, "small"): ("nb", "nN nN nN nN"),
    ("sync-crash", "laggard", 1, "large"): ("nN", "nN nN nN nN"),
    ("sync-crash", "laggard", 3, "small"): ("nN", "nN nN nN nN"),
    ("sync-crash", "laggard", 3, "large"): ("nN", "nN nN nN nN"),
    ("sync-crash", "staggered", 1, "small"): ("nb", "nN nN nN nN"),
    ("sync-crash", "staggered", 1, "large"): ("nN", "nN nN nN nN"),
    ("sync-crash", "staggered", 3, "small"): ("nN", "nN nN nN nN"),
    ("sync-crash", "staggered", 3, "large"): ("nN", "nN nN nN nN"),
    ("sync-crash", "random-delays", 1, "small"): ("nb", "nN nN nN nN"),
    ("sync-crash", "random-delays", 1, "large"): ("nN", "nN nN nN nN"),
    ("sync-crash", "random-delays", 3, "small"): ("nN", "nN nN nN nN"),
    ("sync-crash", "random-delays", 3, "large"): ("nN", "nN nN nN nN"),
    ("sync-crash", "witness-partition", 1, "small"): ("nb", "nN nN nN nN"),
    ("sync-crash", "witness-partition", 1, "large"): ("nN", "nN nN nN nN"),
    ("sync-crash", "witness-partition", 3, "small"): ("nN", "nN nN nN nN"),
    ("sync-crash", "witness-partition", 3, "large"): ("nN", "nN nN nN nN"),
    ("sync-crash", "found-rank-freeze", 1, "small"): ("nb", "nN nN nN nN"),
    ("sync-crash", "found-rank-freeze", 1, "large"): ("nN", "nN nN nN nN"),
    ("sync-crash", "found-rank-freeze", 3, "small"): ("nN", "nN nN nN nN"),
    ("sync-crash", "found-rank-freeze", 3, "large"): ("nN", "nN nN nN nN"),
    ("witness", "none", 1, "small"): ("bb", "bb bb bb bb"),
    ("witness", "none", 1, "large"): ("bb", "bb bb bb bb"),
    ("witness", "none", 3, "small"): ("bb", "bb bb bb bb"),
    ("witness", "none", 3, "large"): ("bb", "bb bb bb bb"),
    ("witness", "crash-initial", 1, "small"): ("bb", "bb bb bb bb"),
    ("witness", "crash-initial", 1, "large"): ("bb", "bb bb bb bb"),
    ("witness", "crash-initial", 3, "small"): ("bb", "bb bb bb bb"),
    ("witness", "crash-initial", 3, "large"): ("bb", "bb bb bb bb"),
    ("witness", "crash-staggered", 1, "small"): ("bb", "bb ee ee ee"),
    ("witness", "crash-staggered", 1, "large"): ("ee", "ee ee ee ee"),
    ("witness", "crash-staggered", 3, "small"): ("bb", "bb ee ee ee"),
    ("witness", "crash-staggered", 3, "large"): ("ee", "ee ee ee ee"),
    ("witness", "byz-fixed", 1, "small"): ("bb", "bb bb bb bb"),
    ("witness", "byz-fixed", 1, "large"): ("bb", "bb bb bb bb"),
    ("witness", "byz-fixed", 3, "small"): ("bb", "bb bb bb bb"),
    ("witness", "byz-fixed", 3, "large"): ("bb", "bb bb bb bb"),
    ("witness", "byz-equivocate", 1, "small"): ("bb", "bb bb bb bb"),
    ("witness", "byz-equivocate", 1, "large"): ("bb", "bb bb bb bb"),
    ("witness", "byz-equivocate", 3, "small"): ("bb", "bb bb bb bb"),
    ("witness", "byz-equivocate", 3, "large"): ("bb", "bb bb bb bb"),
    ("witness", "byz-anti", 1, "small"): ("bb", "bb bb bb bb"),
    ("witness", "byz-anti", 1, "large"): ("bb", "bb bb bb bb"),
    ("witness", "byz-anti", 3, "small"): ("bb", "bb bb bb bb"),
    ("witness", "byz-anti", 3, "large"): ("bb", "bb bb bb bb"),
    ("witness", "byz-random", 1, "small"): ("bb", "bb bb bb bb"),
    ("witness", "byz-random", 1, "large"): ("bb", "bb bb bb bb"),
    ("witness", "byz-random", 3, "small"): ("bb", "bb bb bb bb"),
    ("witness", "byz-random", 3, "large"): ("bb", "bb bb bb bb"),
    ("witness", "partition", 1, "small"): ("bb", "bb bb bb bb"),
    ("witness", "partition", 1, "large"): ("bb", "bb bb bb bb"),
    ("witness", "partition", 3, "small"): ("bb", "bb bb bb bb"),
    ("witness", "partition", 3, "large"): ("bb", "bb bb bb bb"),
    ("witness", "laggard", 1, "small"): ("bb", "bb bb bb bb"),
    ("witness", "laggard", 1, "large"): ("bb", "bb bb bb bb"),
    ("witness", "laggard", 3, "small"): ("bb", "bb bb bb bb"),
    ("witness", "laggard", 3, "large"): ("bb", "bb bb bb bb"),
    ("witness", "staggered", 1, "small"): ("bb", "bb bb bb bb"),
    ("witness", "staggered", 1, "large"): ("bb", "bb bb bb bb"),
    ("witness", "staggered", 3, "small"): ("bb", "bb bb bb bb"),
    ("witness", "staggered", 3, "large"): ("bb", "bb bb bb bb"),
    ("witness", "random-delays", 1, "small"): ("bb", "bb bb bb bb"),
    ("witness", "random-delays", 1, "large"): ("bb", "bb bb bb bb"),
    ("witness", "random-delays", 3, "small"): ("bb", "bb bb bb bb"),
    ("witness", "random-delays", 3, "large"): ("bb", "bb bb bb bb"),
    ("witness", "witness-partition", 1, "small"): ("bb", "bb bb bb bb"),
    ("witness", "witness-partition", 1, "large"): ("bb", "bb bb bb bb"),
    ("witness", "witness-partition", 3, "small"): ("bb", "bb bb bb bb"),
    ("witness", "witness-partition", 3, "large"): ("bb", "bb bb bb bb"),
    ("witness", "found-anti-stagger", 1, "small"): ("bb", "bb bb bb bb"),
    ("witness", "found-anti-stagger", 1, "large"): ("bb", "bb bb bb bb"),
    ("witness", "found-anti-stagger", 3, "small"): ("bb", "bb bb bb bb"),
    ("witness", "found-anti-stagger", 3, "large"): ("bb", "bb bb bb bb"),
    ("witness", "found-rank-freeze", 1, "small"): ("bb", "bb bb bb bb"),
    ("witness", "found-rank-freeze", 1, "large"): ("bb", "bb bb bb bb"),
    ("witness", "found-rank-freeze", 3, "small"): ("bb", "bb bb bb bb"),
    ("witness", "found-rank-freeze", 3, "large"): ("bb", "bb bb bb bb"),
}

SINGLES = {
    "tiny": "batch",
    "large": "ndbatch",
    "seeded-omission": "ndbatch",
    "seeded-delay": "ndbatch",
    "stateful-delay": "batch",
    "delay-rank-seeded": "ndbatch",
    "delay-rank-stateful": "batch",
    "custom-omission": "batch",
    "stateless-strategy": "ndbatch",
    "stateful-strategy": "batch",
    "no-program-strategy": "batch",
    "no-program-delay": "batch",
    "adaptive-policy": "batch",
    "witness": "batch",
    "witness-mid-multicast": "des",
}


def _codes(protocol, adversary, dimension, size, seeds):
    if (protocol, size) == ("witness", "large"):
        n, t = WITNESS_LARGE
    else:
        n, t = SIZES[size]
    spec = SweepSpec(
        protocols=(protocol,),
        system_sizes=((n, t),),
        adversaries=(adversary,),
        workloads=("uniform",) if dimension == 1 else ("rendezvous",),
        seeds=seeds,
        epsilon=EPSILON,
        engine="auto",
        dimensions=(dimension,),
    )
    cells = list(spec.cells())
    covered = {
        index
        for indices, _ in _ndbatch_dispatch_groups(cells, "auto", DEFAULT_MAX_BLOCK_SIZE)
        for index in indices
    }
    return " ".join(
        _auto_engine_for(cell)[0]
        + ("N" if index in covered else run_cell(cell).engine_used[0])
        for index, cell in enumerate(cells)
    )


def _uses_ndbatch(codes):
    return any("n" in code.lower() for code in codes)


_PAIRS = sorted({(protocol, adversary) for protocol, adversary, _, _ in TABLE})


@pytest.mark.parametrize(
    "protocol,adversary",
    [
        pytest.param(
            protocol,
            adversary,
            marks=[needs_numpy]
            if _uses_ndbatch(
                code
                for key, codes in TABLE.items()
                if key[:2] == (protocol, adversary)
                for code in codes
            )
            else [],
        )
        for protocol, adversary in _PAIRS
    ],
)
def test_sweep_decisions_match_the_table(protocol, adversary):
    for dimension in (1, 3):
        for size in SIZES:
            recorded = TABLE[(protocol, adversary, dimension, size)]
            measured = tuple(
                _codes(protocol, adversary, dimension, size, seeds) for seeds in SEEDS
            )
            assert measured == recorded, (dimension, size)


class _FirstM(OmissionPolicy):
    """A custom (hence conservatively stateful) omission policy."""

    def quorum(self, round_number, recipient, candidates, m):
        return list(candidates)[:m]


def _single_scenarios():
    tiny = [0.0, 0.3, 0.6, 1.0, 0.5, 0.2, 0.9]
    large = [0.04 * i for i in range(25)]
    stateful = type("Stateful", (RandomValueStrategy,), {"stateless": False})
    # Stateless, but without a tensor program.
    no_program = {"tensor_key": lambda self: None}
    strategy_without_program = type("NoProgram", (RandomValueStrategy,), no_program)
    delay_without_program = type("NoProgramDelay", (SeededDelay,), no_program)
    crash, byz = ("async-crash", large, 4), ("async-byzantine", large, 4)
    return {
        "tiny": (("async-crash", tiny, 2), {}),
        "large": (crash, {}),
        "seeded-omission": (crash, {"omission_policy": SeededOmission(1)}),
        "seeded-delay": (crash, {"delay_model": SeededDelay(0.1, 1.0, seed=1)}),
        "stateful-delay": (
            crash, {"delay_model": UniformRandomDelay(0.1, 1.0, seed=1)}
        ),
        "delay-rank-seeded": (
            crash, {"omission_policy": DelayRankOmission(SeededDelay(0.1, 1.0, seed=1))}
        ),
        "delay-rank-stateful": (
            crash,
            {"omission_policy": DelayRankOmission(UniformRandomDelay(0.1, 1.0, seed=1))},
        ),
        "custom-omission": (crash, {"omission_policy": _FirstM()}),
        "stateless-strategy": (
            byz,
            {"fault_model": RoundFaultModel(strategies={24: RandomValueStrategy(-1.0, 1.0)})},
        ),
        "stateful-strategy": (
            byz, {"fault_model": RoundFaultModel(strategies={24: stateful(-1.0, 1.0)})}
        ),
        "no-program-strategy": (
            byz,
            {
                "fault_model": RoundFaultModel(
                    strategies={24: strategy_without_program(-1.0, 1.0)}
                )
            },
        ),
        "no-program-delay": (
            crash, {"delay_model": delay_without_program(0.1, 1.0, seed=1)}
        ),
        "adaptive-policy": (crash, {"round_policy": SpreadEstimateRounds()}),
        "witness": (("witness", tiny, 2), {}),
        "witness-mid-multicast": (
            ("witness", tiny, 2),
            {"fault_plan": CrashFaultPlan({6: CrashPoint.mid_multicast(1, 7, 3)})},
        ),
    }


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(name, marks=[needs_numpy] if runtime == "ndbatch" else [])
        for name, runtime in SINGLES.items()
    ],
)
def test_single_execution_decisions_match_the_table(name):
    (protocol, inputs, t), scenario = _single_scenarios()[name]
    result = engine.run(protocol, inputs, t=t, epsilon=EPSILON, **scenario)
    assert result.runtime == SINGLES[name]


#: One auto block and one ``engine.run``, in a fresh interpreter: prints
#: whether numpy imports, the engine of every cell of a one-seed (work below
#: 64) and a four-seed (above) group, and the runtime of a tiny execution.
_FRESH_SCRIPT = """
import json
from repro.sim.engine import numpy_available, run
from repro.sim.sweep import SweepSpec, run_sweep

engines = []
for seeds in ((0,), (0, 1, 2, 3)):
    spec = SweepSpec(protocols=("sync-crash",), system_sizes=((6, 1),),
                     seeds=seeds, epsilon=1e-3, engine="auto")
    engines += [outcome.engine_used for outcome in run_sweep(spec, workers=1)]
engines.append(run("async-crash", [0.0, 0.3, 0.6, 1.0, 0.5, 0.2, 0.9], t=2,
                   epsilon=1e-3).runtime)
print(json.dumps([numpy_available(), engines]))
"""


def _fresh_decisions(tmpdir, **extra_env):
    env = {
        key: value for key, value in os.environ.items() if not key.startswith("REPRO_")
    }
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env.update(PYTHONPATH=src, TMPDIR=str(tmpdir), PYTHONDONTWRITEBYTECODE="1")
    env.update(extra_env)
    completed = subprocess.run(
        [sys.executable, "-c", _FRESH_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return json.loads(completed.stdout)


class TestDispatchReadsNoEnvironmentAndWritesNoFile:
    def test_temp_dir_stays_empty(self, tmp_path):
        _fresh_decisions(tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_threshold_variable_changes_no_engine_choice(self, tmp_path):
        has_numpy, plain = _fresh_decisions(tmp_path)
        assert _fresh_decisions(tmp_path, REPRO_NDBATCH_MIN_WORK="1") == [has_numpy, plain]
        block = "ndbatch" if has_numpy else "batch"
        assert plain == ["batch"] + [block] * 4 + ["batch"]


class TestUnknownEngineOverride:
    """``run_cell(cell, engine=...)`` rejects an unknown engine on both paths."""

    @pytest.mark.parametrize("dimension", [1, 3])
    def test_unknown_engine_raises_naming_it(self, dimension):
        cell = SweepCell(
            "async-crash", 7, 2, EPSILON, "none", "uniform", 0, "auto",
            dimension=dimension,
        )
        with pytest.raises(ValueError, match="unknown engine 'warp'"):
            run_cell(cell, engine="warp")
