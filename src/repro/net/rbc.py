"""Bracha reliable broadcast.

The witness-technique protocol (the optimal-resilience ``t < n/3``
asynchronous Byzantine approximate-agreement algorithm that followed the
paper) requires each process to *reliably broadcast* its value every
iteration, so that Byzantine processes cannot equivocate.  This module
implements Bracha's classic asynchronous reliable broadcast, which provides,
for ``n > 3t``:

* **validity** — if the (honest) designated sender broadcasts ``v``, every
  honest process eventually delivers ``v``;
* **consistency** — no two honest processes deliver different values for the
  same broadcast instance;
* **totality** — if any honest process delivers a value, every honest process
  eventually delivers it.

Each broadcast instance costs ``Θ(n²)`` messages, which is exactly why the
witness-technique protocol costs ``Θ(n³)`` messages per iteration — the
communication-complexity comparison reproduced in benchmark E5.

The implementation is a *helper*, not a standalone process: a host protocol
(see :class:`repro.core.witness.WitnessProcess`) owns an
:class:`RbcMultiplexer`, forwards every ``RBC_*`` message to it, and reads
each delivery from the return value.  Instances are identified by a ``tag`` —
in the witness protocol the tag is ``(iteration, originator)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Set, Tuple

from repro.net.interfaces import ProcessContext
from repro.net.message import Message

__all__ = ["RBC_KINDS", "BrachaInstance", "RbcMultiplexer", "echo_quorum"]


#: Message kinds used by the broadcast (INIT from the sender, ECHO and READY
#: from everybody).
RBC_KINDS = ("RBC_INIT", "RBC_ECHO", "RBC_READY")


def echo_quorum(n: int, t: int) -> int:
    """Size of the echo quorum: strictly more than ``(n + t) / 2`` parties."""
    return (n + t) // 2 + 1


@dataclass
class BrachaInstance:
    """State of a single reliable-broadcast instance.

    Parameters
    ----------
    n, t:
        System size and fault threshold (requires ``n > 3t``).
    tag:
        Instance identifier carried on every message of this instance.
    originator:
        The process whose broadcast this instance carries; only ``RBC_INIT``
        messages from this process are accepted (channels are authenticated).
    """

    n: int
    t: int
    tag: Any
    originator: int

    _echoed: bool = field(default=False, init=False)
    _readied: bool = field(default=False, init=False)
    _delivered: bool = field(default=False, init=False)
    _echoes: Dict[Any, Set[int]] = field(default_factory=dict, init=False)
    _readies: Dict[Any, Set[int]] = field(default_factory=dict, init=False)

    @property
    def delivered(self) -> bool:
        return self._delivered

    def broadcast(self, ctx: ProcessContext, value: Any) -> None:
        """Start the broadcast (to be called only by the originator)."""
        if ctx.process_id != self.originator:
            raise ValueError("only the originator may start its broadcast")
        ctx.multicast(Message(kind="RBC_INIT", value=value, tag=self.tag))

    def handle(
        self, ctx: ProcessContext, sender: int, message: Message
    ) -> Optional[Any]:
        """Process an ``RBC_*`` message for this instance.

        Returns the delivered value the first time the delivery condition is
        met, ``None`` otherwise.
        """
        if message.kind == "RBC_INIT":
            if sender != self.originator:
                return None  # forged INIT; authenticated channels expose the true sender
            self._send_echo(ctx, message.value)
            return None

        if message.kind == "RBC_ECHO":
            voters = self._echoes.setdefault(message.value, set())
            voters.add(sender)
            if len(voters) >= echo_quorum(self.n, self.t):
                self._send_ready(ctx, message.value)
            return None

        if message.kind == "RBC_READY":
            voters = self._readies.setdefault(message.value, set())
            voters.add(sender)
            if len(voters) >= self.t + 1:
                self._send_ready(ctx, message.value)
            if len(voters) >= 2 * self.t + 1 and not self._delivered:
                self._delivered = True
                return message.value
            return None

        return None

    def _send_echo(self, ctx: ProcessContext, value: Any) -> None:
        if not self._echoed:
            self._echoed = True
            ctx.multicast(Message(kind="RBC_ECHO", value=value, tag=self.tag))

    def _send_ready(self, ctx: ProcessContext, value: Any) -> None:
        if not self._readied:
            self._readied = True
            ctx.multicast(Message(kind="RBC_READY", value=value, tag=self.tag))


class RbcMultiplexer:
    """Manages many concurrent :class:`BrachaInstance` objects keyed by tag.

    The host protocol calls :meth:`broadcast` to start its own broadcasts and
    forwards every message whose kind is in :data:`RBC_KINDS` to
    :meth:`handle`, which returns each ``(context_tag, originator, value)``
    delivery.  The multiplexer holds no reference to its host.

    Tags are expected to be ``(context, originator)`` tuples whose second
    component identifies the designated sender; this lets the multiplexer
    create instances lazily when the first message of an unknown instance
    arrives, without any out-of-band setup.
    """

    def __init__(self, n: int, t: int) -> None:
        if n <= 3 * t:
            raise ValueError(f"Bracha broadcast requires n > 3t (got n={n}, t={t})")
        self.n = n
        self.t = t
        self._instances: Dict[Any, BrachaInstance] = {}

    def _instance(self, tag: Any) -> BrachaInstance:
        instance = self._instances.get(tag)
        if instance is None:
            instance = self._instances[tag] = BrachaInstance(
                n=self.n, t=self.t, tag=tag, originator=self._originator_of(tag)
            )
        return instance

    @staticmethod
    def _originator_of(tag: Any) -> int:
        if isinstance(tag, tuple) and len(tag) >= 2 and isinstance(tag[-1], int):
            return tag[-1]
        raise ValueError(
            "RBC tags must be tuples whose last component is the originator process id"
        )

    def broadcast(self, ctx: ProcessContext, context_tag: Any, value: Any) -> None:
        """Reliably broadcast ``value`` under ``(context_tag, own id)``."""
        tag = (context_tag, ctx.process_id)
        self._instance(tag).broadcast(ctx, value)

    def handles(self, message: Message) -> bool:
        """Whether ``message`` belongs to the reliable-broadcast layer."""
        return message.kind in RBC_KINDS

    def handle(
        self, ctx: ProcessContext, sender: int, message: Message
    ) -> Optional[Tuple[Any, int, Any]]:
        """Route a broadcast-layer message to its instance.

        Returns ``(context_tag, originator, value)`` when the message makes
        the instance deliver, ``None`` otherwise.
        """
        delivered = self._instance(message.tag).handle(ctx, sender, message)
        if delivered is None:
            return None
        context_tag, originator = message.tag
        return context_tag, originator, delivered

    @property
    def instance_count(self) -> int:
        """Number of instances created so far (for tests and metrics)."""
        return len(self._instances)
