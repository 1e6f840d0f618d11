"""Multidimensional (vector) approximate agreement — correctness conditions.

The follow-on literature extends approximate agreement from ``R`` to ``R^d``
(rendezvous of mobile agents, replicated state estimation, distributed
optimisation steps).  This library supports the *coordinate-wise* composition:
run one scalar approximate-agreement instance per coordinate, in parallel, and
assemble the per-coordinate outputs into a vector.

Coordinate-wise composition yields the following guarantees, which this module
states precisely and checks:

* **ℓ∞ ε-agreement** — every two honest output vectors differ by at most ``ε``
  in every coordinate (equivalently ``‖y_i − y_j‖_∞ ≤ ε``), because each
  coordinate satisfies scalar ε-agreement.  An ``‖·‖₂`` bound of ``ε·√d``
  follows and is also checkable here.
* **box validity** — every honest output vector lies in the axis-aligned
  bounding box of the validity-reference input vectors, because each
  coordinate satisfies scalar validity.

Box validity is deliberately weaker than the *convex-hull* validity achieved
by the specialised multidimensional protocols of the later literature
(Mendes–Herlihy, Vaidya–Garg): the bounding box of the honest inputs is a
superset of their convex hull.  The distinction and the trade-off (coordinate-
wise is simple, optimal-resilience, and costs ``d`` scalar instances) are
documented here so downstream users can decide whether box validity suffices
for their application.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Vector",
    "linf_distance",
    "l2_distance",
    "check_linf_agreement",
    "check_l2_agreement",
    "check_box_validity",
    "check_box_validity_block",
    "normalize_vector_inputs",
    "VectorValidationReport",
    "validate_vector_outputs",
]


Vector = Tuple[float, ...]


def _as_vector(value: Sequence[float]) -> Vector:
    return tuple(float(x) for x in value)


def normalize_vector_inputs(vector_inputs: Sequence[Sequence[float]]) -> Tuple[Vector, ...]:
    """Validate and normalise per-process vector inputs — THE one place.

    Every consumer of vector-valued inputs (the coordinate-wise composition
    in :mod:`repro.sim.vector`, the vectorised block engine's
    ``run_vector_block``, the sweep's vector workloads) funnels through this
    function, so ragged inputs — mismatched per-process dimensions, empty
    vectors, an empty process list — fail loudly here with the offending
    process named, instead of surfacing as a shape error deep inside a
    kernel.  Returns one tuple of equal-dimension float vectors.
    """
    if not vector_inputs:
        raise ValueError("vector agreement requires at least one input vector")
    vectors = []
    for pid, value in enumerate(vector_inputs):
        try:
            vector = _as_vector(value)
        except (TypeError, ValueError):
            raise ValueError(
                f"process {pid}'s input is not a sequence of reals: {value!r}"
            ) from None
        vectors.append(vector)
    dimension = len(vectors[0])
    if dimension < 1:
        raise ValueError("vector inputs must have dimension >= 1")
    for pid, vector in enumerate(vectors):
        if len(vector) != dimension:
            raise ValueError(
                f"ragged vector inputs: process {pid} has dimension "
                f"{len(vector)}, process 0 has dimension {dimension} — all "
                f"processes must share one dimension"
            )
    return tuple(vectors)


def linf_distance(u: Sequence[float], v: Sequence[float]) -> float:
    """Chebyshev (ℓ∞) distance between two equal-length vectors."""
    if len(u) != len(v):
        raise ValueError("vectors must have equal dimension")
    if not u:
        return 0.0
    return max(abs(a - b) for a, b in zip(u, v))


def l2_distance(u: Sequence[float], v: Sequence[float]) -> float:
    """Euclidean (ℓ2) distance between two equal-length vectors."""
    if len(u) != len(v):
        raise ValueError("vectors must have equal dimension")
    return math.sqrt(math.fsum((a - b) ** 2 for a, b in zip(u, v)))


def check_linf_agreement(outputs: Sequence[Sequence[float]], epsilon: float) -> bool:
    """Whether every pair of output vectors is within ``ε`` in every coordinate."""
    vectors = [_as_vector(v) for v in outputs]
    slack = epsilon * (1.0 + 1e-9)
    return all(
        linf_distance(vectors[i], vectors[j]) <= slack
        for i in range(len(vectors))
        for j in range(i + 1, len(vectors))
    )


def check_l2_agreement(outputs: Sequence[Sequence[float]], epsilon: float) -> bool:
    """Whether every pair of output vectors is within ``ε`` in Euclidean distance."""
    vectors = [_as_vector(v) for v in outputs]
    slack = epsilon * (1.0 + 1e-9)
    return all(
        l2_distance(vectors[i], vectors[j]) <= slack
        for i in range(len(vectors))
        for j in range(i + 1, len(vectors))
    )


def check_box_validity(
    outputs: Sequence[Sequence[float]],
    reference_inputs: Sequence[Sequence[float]],
    tolerance: float = 1e-9,
) -> bool:
    """Whether every output lies in the bounding box of ``reference_inputs``."""
    if not reference_inputs:
        raise ValueError("reference_inputs must be non-empty")
    references = [_as_vector(v) for v in reference_inputs]
    dimension = len(references[0])
    if any(len(v) != dimension for v in references):
        raise ValueError("reference vectors must share one dimension")
    lows = [min(v[k] for v in references) for k in range(dimension)]
    highs = [max(v[k] for v in references) for k in range(dimension)]
    for output in outputs:
        vector = _as_vector(output)
        if len(vector) != dimension:
            return False
        for k in range(dimension):
            slack = tolerance * max(1.0, abs(lows[k]), abs(highs[k]))
            if not lows[k] - slack <= vector[k] <= highs[k] + slack:
                return False
    return True


def check_box_validity_block(outputs, lows, highs, tolerance: float = 1e-9):
    """Whole-block form of :func:`check_box_validity` → ``(E,)`` booleans.

    ``outputs`` is an ``(E, n, d)`` block of honest output vectors;
    ``lows``/``highs`` are ``(E, d)`` per-execution bounding boxes of the
    validity-reference inputs.  The per-coordinate slack is the scalar
    check's ``tolerance · max(1, |low|, |high|)``.  Requires numpy (imported
    lazily).
    """
    import numpy as np

    values = np.asarray(outputs)
    lo = np.asarray(lows)[:, None, :]
    hi = np.asarray(highs)[:, None, :]
    slack = tolerance * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
    inside = (values >= lo - slack) & (values <= hi + slack)
    return inside.all(axis=(1, 2))


@dataclass
class VectorValidationReport:
    """Result of checking a vector-agreement execution."""

    all_decided: bool
    linf_agreement: bool
    box_validity: bool
    max_linf_distance: float
    outputs: Dict[int, Vector] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.all_decided and self.linf_agreement and self.box_validity

    def summary(self) -> str:
        status = "OK" if self.ok else "FAILED"
        return (
            f"[{status}] decided={self.all_decided} linf-agreement={self.linf_agreement} "
            f"box-validity={self.box_validity} max-linf={self.max_linf_distance:.3g}"
        )


def validate_vector_outputs(
    outputs_by_pid: Dict[int, Optional[Sequence[float]]],
    reference_inputs: Sequence[Sequence[float]],
    epsilon: float,
    expected_pids: Sequence[int],
) -> VectorValidationReport:
    """Check a vector-agreement execution's outputs.

    ``expected_pids`` are the processes that must decide (the honest ones);
    ``reference_inputs`` are the validity-reference input vectors.
    """
    missing = [pid for pid in expected_pids if outputs_by_pid.get(pid) is None]
    present = {
        pid: _as_vector(outputs_by_pid[pid])
        for pid in expected_pids
        if outputs_by_pid.get(pid) is not None
    }
    vectors = list(present.values())
    agreement = check_linf_agreement(vectors, epsilon) if vectors else False
    validity = check_box_validity(vectors, reference_inputs) if vectors else False
    max_distance = 0.0
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            max_distance = max(max_distance, linf_distance(vectors[i], vectors[j]))

    violations: List[str] = []
    if missing:
        violations.append(f"processes without output: {missing}")
    if vectors and not agreement:
        violations.append(f"max pairwise l-inf distance {max_distance:.6g} exceeds {epsilon:.6g}")
    if vectors and not validity:
        violations.append("some output vector escapes the reference bounding box")

    return VectorValidationReport(
        all_decided=not missing,
        linf_agreement=agreement,
        box_validity=validity,
        max_linf_distance=max_distance,
        outputs=present,
        violations=violations,
    )
