"""A deterministic virtual-time driver for asyncio actors.

The network runtime must satisfy two requirements that pull in opposite
directions: coordinators are ordinary ``async def`` coroutines (so the
protocol code reads like the deployment code it models), yet a run must be
**bit-identical** for a given seed — message logs, γ̂ trajectories, fault
draws, everything — regardless of host load or Python version quirks.

The resolution is that no actor ever touches the wall clock or an
unordered asyncio primitive:

* every wait goes through :meth:`Runtime.sleep`, and every wake-up and
  message delivery is an entry on **one** event heap ordered by
  ``(virtual time, insertion sequence)``;
* the driver pops one ``(time, seq, action, arg)`` entry, advances the
  virtual clock and calls ``action(arg)``.  A delivery's entry is the
  transport's bound delivery method and the envelope itself, so a message
  in flight costs one tuple on the heap and nothing else; it runs the
  destination's handler inside the event (a device answers there; a
  coordinator's :class:`Mailbox` buffers).
  Only after a :meth:`Runtime.sleep` timer does the driver yield, exactly
  once: the woken task runs its synchronous segment to its next
  ``await``, during which it may only *push* future events.  So when
  control returns to the driver, the system is quiescent and the next pop
  is well-defined.

The result is a discrete-event simulation (cf.
:class:`repro.simulation.engine.DiscreteEventSimulator`) whose
coordinators are real asyncio coroutines, with no wall time anywhere.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import math
from collections import deque
from typing import Any, Callable, Coroutine, List, Optional, Sequence


def _call(action: Callable[[], Any]) -> None:
    action()


class VirtualClock:
    """A monotone virtual clock over a ``(time, seq, action, arg)`` heap.

    The driver calls ``action(arg)`` at ``time``; ``seq`` breaks ties in
    insertion order.  :meth:`call_at` files a zero-argument callback as
    ``(when, seq, _call, callback)``.  The message path skips it:
    :class:`~repro.net.transport.LocalTransport` pushes
    ``(delivered_at, seq, deliver, envelope)`` itself, with the same time
    check and a sequence number drawn from the same counter.
    """

    def __init__(self, start_time: float = 0.0):
        self.now = float(start_time)
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


class Mailbox:
    """A coordinator's inbox: ``put`` is its delivery handler, and the
    coordinator empties it with ``drain`` once a round, after its sleep."""

    def __init__(self):
        self._items: deque = deque()

    def put(self, item: Any) -> None:
        self._items.append(item)

    def drain(self) -> List[Any]:
        """Pop and return everything currently buffered (no await)."""
        items = list(self._items)
        self._items.clear()
        return items

    def __len__(self) -> int:
        return len(self._items)


class Runtime:
    """Runs actor coroutines against a :class:`VirtualClock`.

    >>> runtime = Runtime()
    >>> order = []
    >>> async def actor(name, delay):
    ...     await runtime.sleep(delay)
    ...     order.append((name, runtime.now))
    >>> runtime.run([actor("b", 2.0), actor("a", 1.0)])
    >>> order
    [('a', 1.0), ('b', 2.0)]
    """

    def __init__(self):
        self.clock = VirtualClock()
        self.stopping = False
        self.events_fired = 0
        self._woken = False

    @property
    def now(self) -> float:
        return self.clock.now

    async def sleep(self, delay: float) -> None:
        """Suspend the calling actor for ``delay`` virtual time units."""
        future = asyncio.get_running_loop().create_future()
        self.clock.call_later(delay, lambda: self._wake(future))
        await future

    def _wake(self, future: asyncio.Future) -> None:
        if not future.done():
            future.set_result(None)
        self._woken = True

    def stop(self) -> None:
        """End the run: the driver exits before the next event fires."""
        self.stopping = True

    def run(
        self,
        actors: Sequence[Coroutine],
        until: Optional[float] = None,
    ) -> None:
        """Drive ``actors`` until :meth:`stop`, heap exhaustion or ``until``.

        Exceptions raised by an actor or by an event callback (a delivery
        handler included) propagate, after the run is torn down; reaching
        ``until`` or an empty heap is a normal return, so a run can never
        deadlock — a fully-silent network simply stops making events.
        """
        asyncio.run(self._drive(list(actors), until))

    async def _drive(self, actors: List[Coroutine], until: Optional[float]):
        tasks = [asyncio.ensure_future(coroutine) for coroutine in actors]
        try:
            # Opening segments: every actor runs to its first await,
            # sending its first messages and setting its first timers.
            await asyncio.sleep(0)
            heap = self.clock._heap
            while not self.stopping:
                if not heap:
                    # Quiesce before concluding the run is over: a task
                    # that is still ready to run can schedule new events
                    # or call stop().
                    await asyncio.sleep(0)
                    if not heap:
                        break
                    continue
                when, _, action, arg = heapq.heappop(heap)
                if until is not None and when > until:
                    break
                self.clock.now = when
                action(arg)
                self.events_fired += 1
                if self._woken:
                    # One yield: the woken task runs to its next await.
                    self._woken = False
                    await asyncio.sleep(0)
        finally:
            self.stopping = True
            for task in tasks:
                task.cancel()
            outcomes = await asyncio.gather(*tasks, return_exceptions=True)
        for outcome in outcomes:
            if isinstance(outcome, Exception) and \
                    not isinstance(outcome, asyncio.CancelledError):
                raise outcome
