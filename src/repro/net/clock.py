"""The one deterministic virtual-time event loop: actors and DES alike.

Every actor is a set of callbacks: a device answers inside the delivery
event of a broadcast, and a coordinator's round is a timer (open: broadcast
and set the timer; close: drain, measure, step, open the next).  A run must
be **bit-identical** for a given seed — message logs, γ̂ trajectories,
fault draws, everything — regardless of host load or Python version, so no
actor ever touches the wall clock:

* every timer and every message delivery is an entry on **one** event heap
  ordered by ``(virtual time, insertion sequence)``;
* :meth:`Runtime.run` calls the actors' starts in order, then pops one
  ``(time, seq, action, arg)`` entry at a time, advances the virtual clock
  and calls ``action(arg)``.  A delivery's entry is the transport's bound
  delivery method and the envelope itself, so a message in flight costs
  one tuple on the heap and nothing else; it runs the destination's handler
  inside the event (a device answers there; a coordinator's inbox
  buffers).  A callback may only push future events, so each pop is
  well-defined.

The result is a discrete-event simulation with no wall time anywhere, and
the package has no other: the device queues, the M/G/k edge queue and the
continuous Algorithm-1 run of :mod:`repro.simulation` file their arrivals,
departures and broadcasts on a :class:`Runtime` with :meth:`Runtime.call_at`
and :meth:`Runtime.call_later`, and run it up to their horizon.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, Iterable, Optional


def _call(action: Callable[[], Any]) -> None:
    action()


class Runtime:
    """A virtual clock over one ``(time, seq, action, arg)`` event heap.

    The loop calls ``action(arg)`` at ``time``; ``seq`` breaks ties in
    insertion order.  :meth:`call_at` files a zero-argument callback as
    ``(when, seq, _call, callback)``.  The message path skips it:
    :class:`~repro.net.transport.LocalTransport` pushes
    ``(delivered_at, seq, deliver, envelope)`` onto ``_heap`` itself, with
    the same time check and a sequence number drawn from ``_seq``.

    >>> runtime = Runtime()
    >>> order = []
    >>> def actor(name, delay):
    ...     return lambda: runtime.call_later(
    ...         delay, lambda: order.append((name, runtime.now)))
    >>> runtime.run([actor("b", 2.0), actor("a", 1.0)])
    >>> order
    [('a', 1.0), ('b', 2.0)]
    """

    def __init__(self):
        self.now = 0.0
        self.stopping = False
        self.events_fired = 0
        self._heap: list = []
        self._seq = itertools.count()

    def call_at(self, when: float, action: Callable[[], Any]) -> None:
        """Schedule ``action`` at absolute virtual time ``when``."""
        if math.isnan(when) or when < self.now:
            raise ValueError(
                f"cannot schedule at t={when} (current time is {self.now})"
            )
        heapq.heappush(self._heap,
                       (float(when), next(self._seq), _call, action))

    def call_later(self, delay: float, action: Callable[[], Any]) -> None:
        """Schedule ``action`` ``delay`` virtual time units from now."""
        if math.isnan(delay) or delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        self.call_at(self.now + delay, action)

    @property
    def pending(self) -> int:
        return len(self._heap)

    def stop(self) -> None:
        """End the run: the loop exits before the next event fires."""
        self.stopping = True

    def run(
        self,
        starts: Iterable[Callable[[], Any]],
        until: Optional[float] = None,
    ) -> None:
        """Call each of ``starts``, then fire events until :meth:`stop`,
        an empty heap or ``until``.

        An exception raised by a start or an event callback (a delivery
        handler included) propagates at once; reaching ``until`` or an
        empty heap is a normal return, so a run can never deadlock — a
        fully-silent network simply stops making events.
        """
        for start in starts:
            start()
        heap = self._heap
        while heap and not self.stopping:
            when, _, action, arg = heapq.heappop(heap)
            if until is not None and when > until:
                break
            self.now = when
            action(arg)
            self.events_fired += 1
