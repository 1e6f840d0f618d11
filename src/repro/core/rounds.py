"""Convergence-rate theory: resilience thresholds, contraction factors, round counts.

This module collects, in one place, every closed-form quantity the library's
algorithms and the evaluation harness rely on.  All of them follow from the
two multiset lemmas in :mod:`repro.core.multiset`; their derivations are given
below per algorithm and checked by the unit tests in
``tests/core/test_rounds.py`` and empirically by the benchmarks.

Summary table (``m`` is the per-round sample size):

==============================  ============  =======  ======  ====  =====================
algorithm                        resilience    m        j       k     contraction ``1/c``
==============================  ============  =======  ======  ====  =====================
synchronous, crash               n > t         n        0       t     1 / (⌊(n−1)/t⌋ + 1)
synchronous, Byzantine           n > 3t        n        t       t     1 / (⌊(n−2t−1)/t⌋ + 1)
asynchronous, crash              n > 2t        n − t    0       t     1 / (⌊(n−t−1)/t⌋ + 1)
asynchronous, Byzantine          n > 5t        n − t    t       2t    1 / (⌊(n−3t−1)/(2t)⌋ + 1)
async Byzantine w/ witnesses     n > 3t        ≥ n − t  t       —     1/2 (midpoint rule)
==============================  ============  =======  ======  ====  =====================

Derivations
-----------

*Asynchronous crash* (the paper's core setting).  Each round a process waits
for ``m = n − t`` round-``r`` values.  Two honest processes both draw from the
same ``≤ n`` senders, each of which sends a single value per round, so their
samples share at least ``(n−t) + (n−t) − n = m − t`` elements: the divergence
is ``D = t``.  No values are forged (crash faults only), so no reduction is
needed for validity (``j = 0``) and the convergence lemma with ``k = D = t``
gives contraction ``1/c`` with ``c = ⌊(n−t−1)/t⌋ + 1``.  ``c ≥ 2`` requires
``n ≥ 2t + 1``, the resilience threshold.  At ``n = 3t + 1`` the contraction
is ``1/3`` per round.

*Asynchronous Byzantine, no witnesses.*  Byzantine senders may equivocate, so
two honest samples agree only on values from honest senders heard by both:
at least ``(n−2t) + (n−2t) − (n−t) = n − 3t`` elements, i.e. ``D = 2t``.
Validity needs ``j = t`` (at most ``t`` forged values per sample).  The lemma
with ``k = 2t`` gives ``c = ⌊(n−3t−1)/(2t)⌋ + 1``; ``c ≥ 2`` requires
``n ≥ 5t + 1`` — the classical ``t < n/5`` threshold for asynchronous
approximate agreement without reliable broadcast.  At ``n = 5t + 1`` the
contraction is ``1/2``.

*Witness technique* (follow-on work, ``t < n/3``).  Reliable broadcast removes
equivocation and the witness exchange guarantees that any two honest samples
share at least ``n − t ≥ 2t + 1`` values.  After each process discards its
``t`` smallest and ``t`` largest values, the two reduced ranges therefore
still contain a common element, i.e. they overlap, and both lie inside the
honest range; the midpoints of two overlapping sub-intervals of an interval of
length ``S`` differ by at most ``S/2``.  Hence a fixed ``1/2`` contraction per
iteration at the optimal resilience ``n ≥ 3t + 1``.

*Round counts.*  If the initial diameter of honest values is ``S`` and each
round contracts it by ``1/c``, then ``⌈log_c(S/ε)⌉`` rounds suffice for
ε-agreement (and 0 rounds if ``S ≤ ε`` already).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.multiset import approximate, contraction_denominator, midpoint_of_reduced

__all__ = [
    "AlgorithmBounds",
    "approximation_step",
    "approximation_step_block",
    "sync_crash_bounds",
    "sync_byzantine_bounds",
    "async_crash_bounds",
    "async_byzantine_bounds",
    "witness_bounds",
    "rounds_to_epsilon",
    "max_faults_sync_crash",
    "max_faults_sync_byzantine",
    "max_faults_async_crash",
    "max_faults_async_byzantine",
    "max_faults_witness",
]


@dataclass(frozen=True)
class AlgorithmBounds:
    """Closed-form parameters of one algorithm instance.

    Attributes
    ----------
    name:
        Human-readable algorithm name.
    n, t:
        System size and fault threshold.
    sample_size:
        ``m`` — the number of values a process collects per round.
    reduce_j:
        ``j`` — extremes removed from each side before averaging.
    select_k:
        ``k`` — selection stride (``None`` for the midpoint rule).
    contraction:
        Guaranteed per-round contraction factor (``< 1``).
    resilience_ok:
        Whether ``(n, t)`` satisfies the algorithm's resilience condition.
    """

    name: str
    n: int
    t: int
    sample_size: int
    reduce_j: int
    select_k: Optional[int]
    contraction: float
    resilience_ok: bool

    def rounds_for(self, initial_spread: float, epsilon: float) -> int:
        """Rounds needed to shrink ``initial_spread`` below ``epsilon``."""
        return rounds_to_epsilon(initial_spread, epsilon, self.contraction)


def approximation_step(sample: Sequence[float], bounds: AlgorithmBounds) -> float:
    """The per-round value update of the algorithm described by ``bounds``.

    This is the single pure function both execution engines share: the
    message-driven protocol skeletons (:mod:`repro.core.protocol`) call it on
    the multiset a process collected through the network, and the round-level
    batch engine (:mod:`repro.sim.batch`) calls it directly on synthesised
    views.  Algorithms with a selection stride apply
    ``mean ∘ select_k ∘ reduce^j``; algorithms without one (the witness
    protocol) apply the midpoint rule ``midpoint ∘ reduce^j``.
    """
    if bounds.select_k is None:
        return midpoint_of_reduced(sample, bounds.reduce_j)
    return approximate(sample, bounds.reduce_j, bounds.select_k)


def approximation_step_block(
    samples,
    bounds: AlgorithmBounds,
    validate: bool = True,
    dtype="float64",
    axis: int = -1,
):
    """Array form of :func:`approximation_step` over a block of samples.

    ``samples`` is an array of shape ``(..., m)`` — any number of leading axes
    (executions, recipients) with the per-process multiset on the last axis —
    and the result has shape ``(...)``: one new value per multiset.  This is
    the whole-matrix round update of the vectorised batch engine
    (:mod:`repro.sim.ndbatch`): one ``sort`` along the last axis, one strided
    slice (``reduce^j`` + ``select_k``), one ``mean``.

    ``axis`` names the multiset axis when it is not the last one — the
    vector-valued engine gathers ``(executions, n, m, d)`` sample tensors
    (a trailing per-coordinate axis) and reduces along ``axis=-2``, i.e. the
    same ``mean ∘ select_k ∘ reduce^j`` applied independently per coordinate.
    The reduction itself is identical whichever axis carries the multiset:
    the tensor is viewed with that axis last and the last-axis kernel runs
    unchanged.

    Semantically identical to mapping :func:`approximation_step` over the
    leading axes (guarded by ``tests/core/test_rounds.py``) up to
    floating-point summation order: the scalar path accumulates with
    ``math.fsum``, numpy with pairwise summation, so results may differ by a
    few ulp.  Inputs must be finite; like the scalar path's multiset
    machinery, the kernel rejects NaN/inf outright because sorting them is
    silently wrong.  Callers that can *prove* finiteness by construction
    (the vectorised engine's crash-only blocks, where every gathered value
    is an honest holder's) may pass ``validate=False`` to skip the scan.

    ``dtype`` is the float dtype the kernel computes in: ``"float64"`` (the
    default) or the ndbatch engine's opt-in ``"float32"``.  The kernel
    requires numpy, imported lazily so :mod:`repro.core` keeps working on
    interpreters without it.
    """
    import numpy as np

    values = np.asarray(samples, dtype=dtype)
    if axis != -1 and axis != values.ndim - 1:
        values = np.moveaxis(values, axis, -1)
    m = values.shape[-1]
    j = bounds.reduce_j
    if m < 2 * j + 1:
        raise ValueError(
            f"cannot remove {j} extremes from each side of a multiset of size {m}"
        )
    if validate and not np.isfinite(values).all():
        raise ValueError("multiset operations require finite values")
    ordered = np.sort(values, axis=-1)
    reduced = ordered[..., j : m - j] if j > 0 else ordered
    if bounds.select_k is None:
        return (reduced[..., 0] + reduced[..., -1]) / 2.0
    return reduced[..., :: bounds.select_k].mean(axis=-1)


def _check_nt(n: int, t: int) -> None:
    if n < 1:
        raise ValueError("n must be positive")
    if t < 0:
        raise ValueError("t must be non-negative")


# ----------------------------------------------------------------------
# Resilience thresholds
# ----------------------------------------------------------------------


def max_faults_sync_crash(n: int) -> int:
    """Largest ``t`` the synchronous crash algorithm tolerates: ``t ≤ n − 1``."""
    return max(0, n - 1)


def max_faults_sync_byzantine(n: int) -> int:
    """Largest ``t`` for synchronous Byzantine agreement-style validity: ``t < n/3``."""
    return max(0, (n - 1) // 3)


def max_faults_async_crash(n: int) -> int:
    """Largest ``t`` the asynchronous crash algorithm tolerates: ``t < n/2``."""
    return max(0, (n - 1) // 2)


def max_faults_async_byzantine(n: int) -> int:
    """Largest ``t`` for asynchronous Byzantine AA without witnesses: ``t < n/5``."""
    return max(0, (n - 1) // 5)


def max_faults_witness(n: int) -> int:
    """Largest ``t`` for the witness-technique protocol: ``t < n/3``."""
    return max(0, (n - 1) // 3)


# ----------------------------------------------------------------------
# Per-algorithm bounds
# ----------------------------------------------------------------------


def sync_crash_bounds(n: int, t: int) -> AlgorithmBounds:
    """Bounds for the synchronous crash-tolerant algorithm.

    Every process hears from every process that has not yet crashed; missing
    senders are substituted by the receiver's own value so that samples keep
    size ``n``.  Within one round, two honest samples differ only in the slots
    of senders that crashed mid-round, at most ``t`` of them.
    """
    _check_nt(n, t)
    ok = t <= max_faults_sync_crash(n) and t >= 0
    k = max(1, t)
    c = contraction_denominator(n, 0, k) if n >= 1 else 1
    return AlgorithmBounds(
        name="sync-crash",
        n=n,
        t=t,
        sample_size=n,
        reduce_j=0,
        select_k=k,
        contraction=1.0 / c,
        resilience_ok=ok and c >= 2,
    )


def sync_byzantine_bounds(n: int, t: int) -> AlgorithmBounds:
    """Bounds for the synchronous Byzantine-tolerant algorithm (``n > 3t``)."""
    _check_nt(n, t)
    ok = t <= max_faults_sync_byzantine(n)
    k = max(1, t)
    j = t
    if n - 2 * j >= 1:
        c = contraction_denominator(n, j, k)
    else:
        c = 1
    return AlgorithmBounds(
        name="sync-byzantine",
        n=n,
        t=t,
        sample_size=n,
        reduce_j=j,
        select_k=k,
        contraction=1.0 / c,
        resilience_ok=ok and c >= 2,
    )


def async_crash_bounds(n: int, t: int) -> AlgorithmBounds:
    """Bounds for the asynchronous crash-tolerant algorithm (``n > 2t``).

    This is the paper's core algorithm; see the module docstring for the
    derivation of the ``1/(⌊(n−t−1)/t⌋ + 1)`` contraction.
    """
    _check_nt(n, t)
    ok = t <= max_faults_async_crash(n)
    m = n - t
    k = max(1, t)
    if m >= 1:
        c = contraction_denominator(m, 0, k)
    else:
        c = 1
    return AlgorithmBounds(
        name="async-crash",
        n=n,
        t=t,
        sample_size=m,
        reduce_j=0,
        select_k=k,
        contraction=1.0 / c,
        resilience_ok=ok and c >= 2,
    )


def async_byzantine_bounds(n: int, t: int) -> AlgorithmBounds:
    """Bounds for the asynchronous Byzantine algorithm without witnesses (``n > 5t``)."""
    _check_nt(n, t)
    ok = t <= max_faults_async_byzantine(n)
    m = n - t
    j = t
    k = max(1, 2 * t)
    if m - 2 * j >= 1:
        c = contraction_denominator(m, j, k)
    else:
        c = 1
    return AlgorithmBounds(
        name="async-byzantine",
        n=n,
        t=t,
        sample_size=m,
        reduce_j=j,
        select_k=k,
        contraction=1.0 / c,
        resilience_ok=ok and c >= 2,
    )


def witness_bounds(n: int, t: int) -> AlgorithmBounds:
    """Bounds for the witness-technique protocol (``n > 3t``, contraction 1/2)."""
    _check_nt(n, t)
    ok = t <= max_faults_witness(n)
    return AlgorithmBounds(
        name="witness",
        n=n,
        t=t,
        sample_size=n - t,
        reduce_j=t,
        select_k=None,
        contraction=0.5,
        resilience_ok=ok,
    )


# ----------------------------------------------------------------------
# Round counts
# ----------------------------------------------------------------------


def rounds_to_epsilon(initial_spread: float, epsilon: float, contraction: float) -> int:
    """Number of rounds needed to shrink ``initial_spread`` below ``epsilon``.

    With a per-round contraction factor ``contraction < 1`` the diameter after
    ``R`` rounds is at most ``initial_spread · contraction^R``, so
    ``R = ⌈log_{1/contraction}(initial_spread/ε)⌉`` rounds suffice.

    >>> rounds_to_epsilon(8.0, 1.0, 0.5)
    3
    >>> rounds_to_epsilon(0.5, 1.0, 0.5)
    0
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if not 0 < contraction < 1:
        raise ValueError("contraction must be in (0, 1)")
    if initial_spread <= epsilon:
        return 0
    ratio = initial_spread / epsilon
    rounds = math.ceil(math.log(ratio) / math.log(1.0 / contraction))
    # Guard against floating-point edge cases where the ceiling is one short.
    while initial_spread * (contraction ** rounds) > epsilon * (1 + 1e-12):
        rounds += 1
    return rounds
