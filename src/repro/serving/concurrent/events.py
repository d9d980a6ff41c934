"""Discrete-event simulation clock for the concurrent serving engine.

:class:`SimClock` is a minimal event loop: callbacks are scheduled at absolute
simulated times and executed in time order.  Ties are broken by scheduling
order (a monotonically increasing sequence number), so a simulation is fully
deterministic — two runs with the same inputs produce the same event order,
which the cluster determinism tests rely on.

The clock never reads wall time; one simulated second costs whatever the
scheduled callbacks cost to execute.
"""

from __future__ import annotations

import heapq
from typing import Callable

__all__ = ["SimClock"]


class SimClock:
    """An event loop over simulated time.

    Events are ``(time, tie_break, callback)`` triples on a heap; :meth:`run`
    pops them in order, advances :attr:`now` and invokes the callback.
    Callbacks may schedule further events (this is how transfers chain into
    decodes).  The default tie-break is the scheduling sequence number, making
    same-timestamp event order FIFO and fully deterministic; subclasses (the
    simcheck race detector) may override :meth:`_tie_break` to perturb it.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        self._heap: list[tuple[float, object, Callable[[], None]]] = []
        #: Number of :meth:`schedule` calls that asked for a time strictly in
        #: the past and were clamped to ``now``.  A healthy simulation never
        #: does this; the simcheck sanitizers assert the count stays zero.
        self.clamped_schedules = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def _tie_break(self):
        """Ordering key among events scheduled for the same timestamp."""
        seq = self._seq
        self._seq += 1
        return seq

    def schedule(self, at: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at simulated time ``at`` (clamped to the present).

        Scheduling in the past would make time run backwards; such events fire
        "now" instead, preserving monotonicity without hiding caller bugs worse
        than a clamp would.  Each clamp increments :attr:`clamped_schedules`.
        """
        if at < self._now:
            self.clamped_schedules += 1
            at = self._now
        heapq.heappush(self._heap, (at, self._tie_break(), callback))

    def schedule_after(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.schedule(self._now + delay, callback)

    def run(self) -> float:
        """Process events until the queue drains; returns the final time."""
        while self._heap:
            at, _, callback = heapq.heappop(self._heap)
            self._now = at
            callback()
        return self._now
