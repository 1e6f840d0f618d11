"""Message types exchanged by approximate-agreement protocols.

The paper's model is a fully connected asynchronous network of ``n`` processes
communicating over reliable, authenticated point-to-point channels.  Messages
carry a *kind* (protocol-level opcode), an optional *round* tag (the
asynchronous round the message belongs to), an optional *value* (a real number
or a small structured payload), and an optional *tag* used to separate
sub-protocol instances (e.g. one reliable-broadcast instance per sender per
round in the witness protocol).

All messages are immutable.  Equality and hashing are value-based so that
protocol logic and tests can compare messages directly.

The module also provides :func:`message_bits`, a deterministic estimate of the
wire size of a message, used by the evaluation harness to reproduce the
communication-complexity experiments (bits sent per round / per execution).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Optional, Tuple

__all__ = ["Message", "message_bits", "KIND_BITS", "FLOAT_BITS"]


#: Number of bits charged for the message kind (opcode) field.
KIND_BITS = 8

#: Number of bits charged for a real-valued payload (IEEE-754 double).
FLOAT_BITS = 64


@dataclass(frozen=True)
class Message:
    """A single protocol message.

    Parameters
    ----------
    kind:
        Protocol-level opcode, e.g. ``"VALUE"``, ``"HALT"``, ``"RBC_ECHO"``.
    round:
        Asynchronous round number the message belongs to, or ``None`` for
        round-less messages (e.g. termination echoes).
    value:
        Payload.  Usually a float (the sender's current approximation), but
        sub-protocols may carry tuples (e.g. witness reports carry a tuple of
        ``(sender, value)`` pairs).
    tag:
        Optional sub-protocol instance tag.  The witness-technique protocol
        tags each reliable-broadcast instance with ``(iteration, originator)``.
    """

    kind: str
    round: Optional[int] = None
    value: Any = None
    tag: Any = None

    def with_round(self, round_number: int) -> "Message":
        """Return a copy of this message tagged with ``round_number``."""
        return Message(kind=self.kind, round=round_number, value=self.value, tag=self.tag)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [self.kind]
        if self.round is not None:
            parts.append(f"r={self.round}")
        if self.value is not None:
            parts.append(f"v={self.value!r}")
        if self.tag is not None:
            parts.append(f"tag={self.tag!r}")
        return "Message(" + ", ".join(parts) + ")"


def _payload_bits(value: Any) -> int:
    """Estimate the number of bits needed to encode ``value``.

    The estimate follows the conventions of the communication-complexity
    analyses in the approximate-agreement literature: reals are charged a full
    machine word, integers are charged their binary length, and containers are
    charged the sum of their elements plus a small per-element framing cost.
    """
    if value is None:
        return 0
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        magnitude = abs(value)
        return max(1, magnitude.bit_length()) + 1  # sign bit
    if isinstance(value, float):
        return FLOAT_BITS
    if isinstance(value, str):
        return 8 * len(value)
    if isinstance(value, (tuple, list, frozenset, set)):
        return sum(_payload_bits(item) + 2 for item in value)
    if isinstance(value, dict):
        return sum(_payload_bits(k) + _payload_bits(v) + 2 for k, v in value.items())
    # Fallback: charge a machine word for unknown payloads.
    return FLOAT_BITS


def message_bits(message: Message) -> int:
    """Return a deterministic estimate of the wire size of ``message`` in bits.

    The estimate includes the opcode, the round tag (``ceil(log2(round + 2))``
    bits, matching the "iteration ID tag" accounting used in the literature),
    the sub-protocol tag, and the payload.

    Sizes of messages with a tuple payload (tags, reports) are remembered for
    the last :data:`MESSAGE_BITS_CACHE_SIZE` distinct keys: the round, both
    payloads and their types (:func:`_size_types`), since equal payloads can
    differ in size (``1``, ``1.0`` and ``True``).  Others are charged directly.
    """
    value, tag = message.value, message.tag
    if type(value) is tuple or type(tag) is tuple:
        types = (_size_types(value), _size_types(tag))
        if None not in types:
            return _remembered_bits(message.round, value, tag, types)
    return _bits(message.round, value, tag)


#: Distinct keys whose size :func:`message_bits` remembers.
MESSAGE_BITS_CACHE_SIZE = 1024

_SCALAR_TYPES = frozenset({type(None), bool, int, float, str})


def _size_types(payload: Any) -> Any:
    """The payload's type, its items' types for a tuple of scalars, else ``None``."""
    kind = type(payload)
    if kind is tuple:
        kind = tuple(map(type, payload))
        return kind if _SCALAR_TYPES.issuperset(kind) else None
    return kind if kind in _SCALAR_TYPES else None


@lru_cache(maxsize=MESSAGE_BITS_CACHE_SIZE)
def _remembered_bits(round_number: Optional[int], value: Any, tag: Any, types: Any) -> int:
    return _bits(round_number, value, tag)


def _bits(round_number: Optional[int], value: Any, tag: Any) -> int:
    bits = KIND_BITS
    if round_number is not None:
        bits += max(1, math.ceil(math.log2(round_number + 2)))
    return bits + _payload_bits(tag) + _payload_bits(value)
