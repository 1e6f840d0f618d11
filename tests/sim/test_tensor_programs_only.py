"""ndbatch runs tensor programs only; ``auto`` runs everything else on batch.

Five adversary components have no tensor program: a stateless Byzantine
strategy without a ``tensor_key``, a stateless delay model without one, an
omission policy that ranks a whole round in bulk (the removed
``rank_block`` form) but declares no program, a policy that answers
per-recipient ``quorum`` calls only, and the stateful
:class:`~repro.net.network.UniformRandomDelay`.  For each:

* the block entry points (``run_ndbatch_block`` at d = 1,
  ``run_vector_block`` at d = 3) and ``engine.run(engine="ndbatch")``
  raise :class:`~repro.sim.engine.EngineCapabilityError` naming batch among
  the capable engines;
* ``engine.run(engine="auto")`` runs on batch and equals an explicit batch
  run, at a size where the same scenario without the component runs on
  ndbatch;
* as a sweep adversary (the three that have a message-level form), ``auto``
  cells and ``auto`` sweeps run on batch at d ∈ {1, 3} and equal batch
  runs, while explicit ndbatch cells and sweeps raise (and, under a retry
  policy, demote to batch).

A block is refused before any of its chunks runs, and the block entry
points name the same capable engines as ``engine.run``: batch only, since
the event engine takes no round-level fault model or omission policy.
"""

from __future__ import annotations

import dataclasses

import pytest

pytest.importorskip("numpy", reason="the vectorised engine requires numpy")

from repro.net.adversary import (
    ByzantineFaultPlan,
    ByzantineValueStrategy,
    DelayRankOmission,
    OmissionPolicy,
    RoundEchoByzantine,
    RoundFaultModel,
)
from repro.net.network import DelayModel, UniformRandomDelay
import repro.sim.ndbatch as ndbatch_module
from repro.sim.engine import EngineCapabilityError, run
from repro.sim.ndbatch import run_ndbatch_block, run_vector_block
from repro.sim.resilient import RetryPolicy
from repro.sim.sweep import (
    ADVERSARY_SPECS,
    AdversaryBundle,
    SweepCell,
    SweepSpec,
    run_cell,
    run_sweep,
)

EPSILON = 1e-3


class MirroredMean(ByzantineValueStrategy):
    """Stateless, without a tensor program."""

    stateless = True

    def value(self, round_number, recipient, observed):
        if not observed:
            return 0.75
        return 0.75 - sum(observed) / len(observed) + 0.125 * (recipient % 3)


class ModuloDelay(DelayModel):
    """Stateless, without a tensor program."""

    stateless = True

    def delay(self, sender, recipient, message, now):
        return 1.0 + (3 * sender + recipient + (message.round or 0)) % 4


def _rank(round_number, recipient, sender):
    return float((5 * sender + 3 * recipient + round_number) % 4)


class RankedOnly(OmissionPolicy):
    """Ranks a round in bulk and declares no tensor program."""

    def rank_block(self, round_number, n):
        return [[_rank(round_number, q, s) for s in range(n)] for q in range(n)]

    def quorum(self, round_number, recipient, candidates, m):
        return sorted(candidates, key=lambda s: (_rank(round_number, recipient, s), s))[:m]


class PerRecipient(OmissionPolicy):
    """Answers per-recipient ``quorum`` calls only."""

    def quorum(self, round_number, recipient, candidates, m):
        return sorted(candidates, key=lambda s: ((7 * s + recipient + round_number) % 5, -s))[:m]


#: name → (protocol, n, t, fresh engine.run keyword arguments).
COMPONENTS = {
    "mirrored-mean": (
        "async-byzantine", 11, 2,
        lambda: {"fault_model": RoundFaultModel(strategies={10: MirroredMean()})},
    ),
    "modulo-delay": ("async-crash", 11, 3, lambda: {"delay_model": ModuloDelay()}),
    "ranked-only": ("async-crash", 11, 3, lambda: {"omission_policy": RankedOnly()}),
    "per-recipient": ("async-crash", 11, 3, lambda: {"omission_policy": PerRecipient()}),
    "uniform-random-delay": (
        "async-crash", 11, 3,
        lambda: {"delay_model": UniformRandomDelay(0.1, 2.0, seed=9)},
    ),
}

#: The components with a message-level form, as sweep adversary factories.
SWEEP_ADVERSARIES = {
    "mirrored-mean": (
        "async-byzantine", 11, 2,
        lambda protocol, n, t, seed: AdversaryBundle(
            ByzantineFaultPlan({n - 1 - i: RoundEchoByzantine(MirroredMean()) for i in range(t)}),
            None,
            byzantine=True,
        ),
    ),
    "modulo-delay": (
        "async-crash", 11, 3,
        lambda protocol, n, t, seed: AdversaryBundle(None, ModuloDelay()),
    ),
    "uniform-random-delay": (
        "async-crash", 11, 3,
        lambda protocol, n, t, seed: AdversaryBundle(
            None, UniformRandomDelay(0.1, 2.0, seed=seed)
        ),
    ),
}


def _inputs(n, dimension):
    scalar = [i / (n - 1) for i in range(n)]
    if dimension == 1:
        return scalar
    return [[x, 1.0 - x, (7 * i % n) / n] for i, x in enumerate(scalar)]


def _assert_refused_towards_batch(raised):
    assert raised.value.engine == "ndbatch"
    assert "batch" in raised.value.capable
    assert "tensor program" in str(raised.value)


@pytest.mark.parametrize("dimension", [1, 3])
@pytest.mark.parametrize("name", sorted(COMPONENTS))
def test_block_entry_points_refuse(name, dimension):
    protocol, n, t, scenario = COMPONENTS[name]
    kwargs = scenario()
    policy = kwargs.get("omission_policy")
    if "delay_model" in kwargs:
        policy = DelayRankOmission(kwargs["delay_model"])
    entry = run_ndbatch_block if dimension == 1 else run_vector_block
    with pytest.raises(EngineCapabilityError) as raised:
        entry(
            protocol, [_inputs(n, dimension)], t=t, epsilon=EPSILON,
            fault_models=[kwargs.get("fault_model")], omission_policies=[policy],
        )
    _assert_refused_towards_batch(raised)


@pytest.mark.parametrize("dimension", [1, 3])
@pytest.mark.parametrize("name", ["mirrored-mean", "uniform-random-delay"])
def test_block_refused_before_any_chunk_runs(monkeypatch, name, dimension):
    # Three executions in chunks of one; only the last holds the component.
    protocol, n, t, scenario = COMPONENTS[name]
    kwargs = scenario()
    policy = None
    if "delay_model" in kwargs:
        policy = DelayRankOmission(kwargs["delay_model"])
    advanced = []
    advance = ndbatch_module._advance_block

    def counting(block):
        advanced.append(block.count)
        return advance(block)

    monkeypatch.setattr(ndbatch_module, "_advance_block", counting)
    entry = run_ndbatch_block if dimension == 1 else run_vector_block
    with pytest.raises(EngineCapabilityError) as raised:
        entry(
            protocol, [_inputs(n, dimension)] * 3, t=t, epsilon=EPSILON,
            fault_models=[None, None, kwargs.get("fault_model")],
            omission_policies=[None, None, policy],
            chunk_executions=1,
        )
    _assert_refused_towards_batch(raised)
    assert advanced == []


@pytest.mark.parametrize("name", ["mirrored-mean", "per-recipient", "ranked-only"])
def test_block_and_front_door_name_the_same_capable_engines(name):
    protocol, n, t, scenario = COMPONENTS[name]
    kwargs = scenario()
    with pytest.raises(EngineCapabilityError) as block:
        run_ndbatch_block(
            protocol, [_inputs(n, 1)], t=t, epsilon=EPSILON,
            fault_models=[kwargs.get("fault_model")],
            omission_policies=[kwargs.get("omission_policy")],
        )
    with pytest.raises(EngineCapabilityError) as front_door:
        run(protocol, _inputs(n, 1), t=t, epsilon=EPSILON, engine="ndbatch", **scenario())
    # The event engine takes no RoundFaultModel or OmissionPolicy.
    assert block.value.capable == front_door.value.capable == ("batch",)
    assert "tensor program" in str(block.value)


@pytest.mark.parametrize("name", sorted(COMPONENTS))
def test_explicit_ndbatch_run_refuses(name):
    protocol, n, t, scenario = COMPONENTS[name]
    with pytest.raises(EngineCapabilityError) as raised:
        run(protocol, _inputs(n, 1), t=t, epsilon=EPSILON, engine="ndbatch", **scenario())
    _assert_refused_towards_batch(raised)


@pytest.mark.parametrize("name", sorted(COMPONENTS))
def test_auto_runs_on_batch_like_an_explicit_batch_run(name):
    protocol, n, t, scenario = COMPONENTS[name]
    inputs = _inputs(n, 1)
    # Big enough for ndbatch: only the component keeps the scenario off it.
    assert run(protocol, inputs, t=t, epsilon=EPSILON).runtime == "ndbatch"
    auto = run(protocol, inputs, t=t, epsilon=EPSILON, **scenario())
    batch = run(protocol, inputs, t=t, epsilon=EPSILON, engine="batch", **scenario())
    assert auto.runtime == batch.runtime == "batch"
    assert auto.rounds_used == batch.rounds_used
    assert auto.outputs == batch.outputs
    assert auto.value_histories == batch.value_histories
    assert auto.trajectory == batch.trajectory
    assert auto.stats == batch.stats


@pytest.mark.parametrize("dimension", [1, 3])
@pytest.mark.parametrize("name", sorted(SWEEP_ADVERSARIES))
def test_sweep_cells_run_on_batch_and_refuse_ndbatch(monkeypatch, name, dimension):
    protocol, n, t, factory = SWEEP_ADVERSARIES[name]
    monkeypatch.setitem(ADVERSARY_SPECS, name, factory)
    workload = "uniform" if dimension == 1 else "rendezvous"
    cell = SweepCell(protocol, n, t, EPSILON, name, workload, 0, "auto", dimension=dimension)
    auto = run_cell(cell)
    assert auto.engine_used == "batch"
    assert auto == run_cell(cell, engine="batch")
    with pytest.raises(EngineCapabilityError) as raised:
        run_cell(cell, engine="ndbatch")
    assert "batch" in raised.value.capable

    # A whole grid: auto never groups the cells into an ndbatch block, and an
    # explicit ndbatch sweep refuses the block they form.
    spec = SweepSpec(
        protocols=(protocol,), system_sizes=((n, t),), adversaries=(name,),
        workloads=(workload,), seeds=(0, 1, 2, 3), epsilon=EPSILON, engine="auto",
        dimensions=(dimension,),
    )
    outcomes = run_sweep(spec, workers=1)
    assert [outcome.engine_used for outcome in outcomes] == ["batch"] * 4
    assert outcomes == [run_cell(outcome.cell, engine="batch") for outcome in outcomes]
    with pytest.raises(EngineCapabilityError) as raised:
        run_sweep(dataclasses.replace(spec, engine="ndbatch"), workers=1)
    assert "batch" in raised.value.capable

    # Under a retry policy the refusal stays inside the block's unit, which
    # splits and demotes every cell to batch.
    retried = run_sweep(
        dataclasses.replace(spec, engine="ndbatch"), workers=1,
        retry=RetryPolicy(max_attempts=1),
    )
    assert [outcome.engine_used for outcome in retried] == ["batch"] * 4
    assert [outcome.demoted_from for outcome in retried] == ["ndbatch"] * 4
