"""Deterministic discrete-event scheduler.

The asynchronous model of the paper has no global clock: the adversary picks
an arbitrary (but finite) delay for every message.  To *simulate* that model
we use a classic discrete-event engine: every pending message delivery (or
timer) is an event with a simulated timestamp, and events are executed in
timestamp order.  Ties are broken by a monotonically increasing sequence
number so that runs are exactly reproducible — two runs with the same seed and
the same adversary produce the same schedule, event for event.

Simulated time has no semantic meaning for the protocols (they never read the
clock for control flow); it is only the mechanism by which a delay policy
expresses *orderings* of deliveries.  The "round complexity" reported by the
evaluation harness is computed from protocol-level round counters, not from
simulated time, matching the paper's definition of an asynchronous round.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

__all__ = ["Event", "EventScheduler", "SchedulerError"]


class SchedulerError(RuntimeError):
    """Raised on scheduler misuse (e.g. scheduling an event in the past)."""


@dataclass(eq=False, slots=True)
class Event:
    """A single scheduled event: its timestamp, sequence number and action.

    Events are never compared: the heap orders its entries by ``(time,
    sequence)``, so events scheduled earlier at the same timestamp run first.
    """

    time: float
    sequence: int
    action: Callable[[], None]
    cancelled: bool = False

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when popped."""
        self.cancelled = True


class EventScheduler:
    """A deterministic event queue with simulated time.

    The queue is a binary heap of ``(time, sequence, action, args)`` entries,
    or ``(time, sequence, None, event)`` for an :class:`Event`.  One counter
    numbers every entry, so ``heapq`` orders entries by comparing a float and
    an int and never reaches the rest.

    Examples
    --------
    >>> sched = EventScheduler()
    >>> order = []
    >>> _ = sched.schedule(2.0, lambda: order.append("b"))
    >>> _ = sched.schedule(1.0, lambda: order.append("a"))
    >>> sched.run()
    2
    >>> order
    ['a', 'b']
    """

    def __init__(self) -> None:
        self._queue: List[Tuple[float, int, Optional[Callable[..., None]], Any]] = []
        self._sequence = itertools.count()
        self._now = 0.0
        self._executed = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of events still in the queue (including cancelled ones)."""
        return len(self._queue)

    @property
    def executed(self) -> int:
        """Number of events executed so far."""
        return self._executed

    def __len__(self) -> int:
        return len(self._queue)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(self, delay: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` to run ``delay`` time units from now.

        ``delay`` must be finite and non-negative: a NaN would compare false
        against every timestamp and break the heap order, and an infinite
        delay would mean the event never runs.
        """
        if not 0 <= delay < math.inf:
            raise SchedulerError(
                f"cannot schedule an event {delay} time units from now; "
                "delays must be finite and non-negative"
            )
        return self.schedule_at(self._now + delay, action)

    def schedule_at(self, time: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` to run at absolute simulated time ``time``.

        ``time`` must be finite and not earlier than :attr:`now`.
        """
        if not self._now <= time < math.inf:
            raise self._time_error(time)
        sequence = next(self._sequence)
        event = Event(time, sequence, action)
        heapq.heappush(self._queue, (time, sequence, None, event))
        return event

    def call_at(self, time: float, action: Callable[..., None], args: tuple) -> None:
        """:meth:`schedule_at` for ``action(*args)``, with no :class:`Event` to cancel."""
        if not self._now <= time < math.inf:
            raise self._time_error(time)
        heapq.heappush(self._queue, (time, next(self._sequence), action, args))

    def clear(self) -> None:
        """Drop every pending entry."""
        self._queue.clear()

    def _time_error(self, time: float) -> SchedulerError:
        return SchedulerError(
            f"cannot schedule an event at time {time}; current time is {self._now} "
            "and times must be finite"
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Execute the next non-cancelled event.  Returns ``False`` if idle."""
        return self.run(max_events=1) == 1

    def run(
        self,
        max_events: Optional[int] = None,
        until_time: Optional[float] = None,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> int:
        """Run events until the queue drains or a stopping condition is met.

        Parameters
        ----------
        max_events:
            Stop after executing this many events (safety valve for tests).
        until_time:
            Stop before executing any event scheduled strictly later than this
            simulated time.
        stop_when:
            Predicate evaluated after every executed event; when it returns
            ``True`` the run stops.  Used by runners to stop as soon as every
            honest process has produced an output.

        Returns
        -------
        int
            The number of events executed by this call.
        """
        queue = self._queue
        executed_before = self._executed
        limit = math.inf if max_events is None else executed_before + max_events
        while queue and self._executed < limit:
            if until_time is not None:
                next_time = self._peek_time()
                if next_time is None or next_time > until_time:
                    break
            time, _, action, args = heapq.heappop(queue)
            if action is None:
                # An Event: a cancelled one neither counts nor advances time.
                if args.cancelled:
                    continue
                action, args = args.action, ()
            self._now = time
            self._executed += 1
            action(*args)
            if stop_when is not None and stop_when():
                break
        return self._executed - executed_before

    def _peek_time(self) -> Optional[float]:
        """Timestamp of the next non-cancelled event, or ``None`` if idle."""
        queue = self._queue
        while queue and queue[0][2] is None and queue[0][3].cancelled:
            heapq.heappop(queue)
        return queue[0][0] if queue else None
