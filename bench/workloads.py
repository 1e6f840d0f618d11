"""The benchmark's workloads: grids, pool sizes and reference engines.

Plain data, so ``run.py`` can read it without importing the program;
``rep.py`` turns each entry into a ``SweepSpec``.  Every grid runs with
``engine="auto"``, as a user's job would; the comment on each entry says
which engine path auto takes and why the workload is here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

#: Distance between the seed axes of consecutive ``--seed`` values.  Every
#: grid has fewer seeds than this, so two ``--seed`` values never share a
#: cell.  It is a multiple of every ``n + 1`` of the crash-staggered grids
#: (8, 11, 32, 64, 128): a cell's crash prefixes are ``(seed + 3i) mod
#: (n + 1)``, so every ``--seed`` gets the same mix of crash schedules and
#: new inputs and PRF draws, and cells/s does not move with the seed.
SEED_STRIDE = 1408

#: Cells re-run on the reference engines after each rep (see ``rep.py``).
SAMPLE_CELLS = 8

#: What a reference run must reproduce: integer costs exactly, the output
#: spread within 1e-9.
ALL_FIELDS = ("rounds", "messages", "bits", "spread")
#: The event engine, reached through ``run_cell``, stops once every honest
#: process has decided, while the batch engine accounts a witness cell's
#: complete traffic; on Byzantine and partition cells the message and bit
#: counts therefore differ by design (see README), and only these agree.
DECISION_FIELDS = ("rounds", "spread")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    protocols: Tuple[str, ...]
    sizes: Tuple[Tuple[int, int], ...]
    adversaries: Tuple[str, ...]
    inputs: Tuple[str, ...]
    #: Seeds per (protocol, size, adversary, input) combination.
    seeds: int
    #: Seeds in ``--quick`` mode (the harness self-test).
    quick_seeds: int
    #: ``SweepJob`` pool size; at most the 2 cores of the reference host.
    workers: int
    #: ``(engine, fields)`` pairs: the sampled cells are re-run on each
    #: engine, which must reproduce those fields of the stored outcome.  The
    #: engine the workload already runs on makes a determinism re-run.
    references: Tuple[Tuple[str, Tuple[str, ...]], ...]
    #: How this workload's cells/s follows the host kernel of ``run.py``:
    #: when the kernel runs ``f`` times slower, cells/s falls by about
    #: ``f ** host_exponent``.  Fitted on the reference host between a fast
    #: stretch and a slow one (kernel 2x slower); see README, Noise.
    host_exponent: float
    dimension: int = 1
    #: Store-replay: the store is generated once per invocation, in this
    #: many hash shards, and the reps time reading it back.
    shards: int = 0

    def seed_axis(self, seed: int, quick: bool = False) -> Tuple[int, ...]:
        count = self.quick_seeds if quick else self.seeds
        return tuple(range(seed * SEED_STRIDE, seed * SEED_STRIDE + count))

    def cell_count(self, quick: bool = False) -> int:
        combos = (
            len(self.protocols) * len(self.sizes) * len(self.adversaries) * len(self.inputs)
        )
        return combos * (self.quick_seeds if quick else self.seeds)

    def setup_args(self, seed: int) -> List[str]:
        """``python -m repro.sim.job run`` flags for a one-cell grid of this
        workload's first shape, engine and pool size."""
        n, t = self.sizes[0]
        return [
            "--protocols", self.protocols[0],
            "--sizes", f"{n}:{t}",
            "--adversaries", self.adversaries[0],
            "--workloads", self.inputs[0],
            "--seeds", str(seed * SEED_STRIDE),
            "--dimensions", str(self.dimension),
            "--engine", "auto",
            "--workers", str(self.workers),
        ]


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        # auto -> ndbatch, d=1.  The block round loop at large n: PRF quorum
        # keys, quorum gather, the sort/select/mean kernel, history copies.
        # No Byzantine strategies, no pool.
        Workload(
            name="crash-scalar",
            why="large-n async-crash grid on the ndbatch block loop: PRF quorum "
                "keys, quorum gather, kernel, history copies; no pool",
            protocols=("async-crash",),
            sizes=((31, 15), (63, 31), (127, 63)),
            adversaries=("none", "crash-staggered", "staggered"),
            inputs=("uniform", "two-cluster"),
            seeds=64,
            quick_seeds=1,
            workers=1,
            references=(("batch", ALL_FIELDS),),
            host_exponent=0.5,
        ),
        # auto -> ndbatch vector path.  Tensor value injection and the
        # _vector_* helpers; beside crash-scalar it shows what d=3 costs.
        Workload(
            name="byz-vector",
            why="d=3 async-byzantine grid on the ndbatch vector path: tensor "
                "value injection and the vector kernel helpers",
            protocols=("async-byzantine",),
            sizes=((16, 3), (31, 6)),
            adversaries=("byz-anti", "byz-random", "found-anti-stagger"),
            inputs=("rendezvous", "sensor-noise"),
            seeds=96,
            quick_seeds=1,
            workers=1,
            references=(("batch", ALL_FIELDS),),
            host_exponent=0.5,
            dimension=3,
        ),
        # auto -> batch on a 2-worker pool.  Cells take about 1 ms, so
        # per-cell overhead dominates: pool dispatch and pickling, JSONL
        # append and flush, the pure-Python batch engine.  ndbatch unused.
        Workload(
            name="witness-batch",
            why="1 ms witness cells on the batch engine and a 2-worker pool: "
                "per-cell overhead of dispatch, pickling and JSONL flushes",
            protocols=("witness",),
            sizes=((7, 2), (10, 3), (16, 5)),
            adversaries=("none", "byz-anti", "byz-random", "witness-partition"),
            inputs=("uniform", "two-cluster"),
            seeds=64,
            quick_seeds=1,
            workers=2,
            references=(("event", DECISION_FIELDS), ("batch", ALL_FIELDS)),
            host_exponent=0.8,
        ),
        # auto -> event (mid-multicast crash prefixes).  The only workload
        # that drives net.network, net.scheduler, net.rbc and net.message;
        # users reach it whenever a witness grid has staggered crashes.
        Workload(
            name="witness-event",
            why="witness cells with staggered crashes, which auto sends to the "
                "event simulator: network, scheduler, RBC and message layers",
            protocols=("witness",),
            sizes=((7, 2), (10, 3)),
            adversaries=("crash-staggered",),
            inputs=("uniform", "two-cluster"),
            seeds=8,
            quick_seeds=1,
            workers=1,
            references=(("event", ALL_FIELDS),),
            host_exponent=0.9,
        ),
        # Same job layer, reading instead of writing: store scan, cell-ID
        # hashing, JSONL decode, the dedup fold and the fsynced canonical
        # rewrite.  The engines stay idle.
        Workload(
            name="store-replay",
            why="resume, fold, progress and compact over a complete sharded "
                "store: scan, cell-ID hashing, JSONL decode, fold, fsync",
            protocols=("sync-crash", "sync-byzantine"),
            sizes=((4, 1),),
            adversaries=("none", "crash-initial"),
            inputs=("uniform", "two-cluster"),
            seeds=1000,
            quick_seeds=4,
            workers=1,
            references=(("batch", ALL_FIELDS),),
            host_exponent=1.0,
            shards=4,
        ),
    )
}
