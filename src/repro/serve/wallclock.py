"""Wall-clock adapters for the virtual-time actor runtime.

The :mod:`repro.net` coordinator only ever touches its runtime through
four points — ``runtime.now``, ``await runtime.sleep(d)``,
``runtime.clock.call_later`` / ``call_at`` and ``runtime.stop()`` — plus
a :class:`~repro.net.clock.Mailbox` that a transport fills.  That narrow
surface is what makes the virtual-time driver deterministic, and it is
also what makes a wall-clock bridge small: :class:`WallClockDriver`
implements the same surface over a private asyncio loop on a daemon
thread, so the :class:`~repro.net.actors.EdgeCoordinator` coroutine runs
*unmodified* in real time — re-estimation rounds become wall-clock
periods, report windows become wall-clock seconds.

Single-threaded discipline carries over: everything that mutates actor
state (mailbox puts, transport sends, scheduled callbacks) runs on the
loop thread.  Foreign threads — HTTP request handlers — never touch an
actor directly; they marshal closures through :meth:`WallClockDriver.submit`
(``loop.call_soon_threadsafe``), which serialises them between the
actors' synchronous segments exactly like virtual-clock events.  Reads
of plain floats/ints (γ̂, round numbers) from foreign threads are safe
under the GIL and are the only cross-thread access the serving layer
performs.

:class:`WallClockTransport` is the matching
:class:`~repro.net.transport.Transport`: real
:class:`~repro.net.messages.Envelope` records delivered to the registered
handlers, with a real :class:`~repro.net.messages.MessageLog`, except that
zero-delay sends deliver synchronously (no event churn at serving rates)
and ``send`` must already be on the loop thread.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import time
from typing import Callable, Coroutine, List, Optional, Sequence

from repro.net.messages import Address, Envelope, Message, MessageLog
from repro.net.transport import Handler
from repro.obs.context import resolve_recorder
from repro.obs.recorder import Recorder


class _WallClock:
    """The ``runtime.clock`` facade: wall-time ``now`` + loop timers."""

    def __init__(self, driver: "WallClockDriver"):
        self._driver = driver

    @property
    def now(self) -> float:
        return self._driver.now

    def call_later(self, delay: float, action: Callable[[], None]) -> None:
        self._driver.call_later(delay, action)

    def call_at(self, when: float, action: Callable[[], None]) -> None:
        self._driver.call_later(when - self._driver.now, action)


class WallClockDriver:
    """Runs actor coroutines against the wall clock on a daemon thread.

    The :class:`repro.net.clock.Runtime` contract (``now``, ``sleep``,
    ``clock``, ``stop``, ``stopping``) over a private asyncio event loop;
    :meth:`start` spawns the loop thread and returns once the actors are
    scheduled, :meth:`stop` cancels them and joins the thread.
    """

    def __init__(self):
        self.clock = _WallClock(self)
        self.stopping = False
        self.events_fired = 0          # Runtime parity (diagnostic only)
        self.failure: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._epoch: Optional[float] = None
        self._ready = threading.Event()
        self._stop_event: Optional[asyncio.Event] = None
        self._tasks: List[asyncio.Task] = []

    # -- Runtime surface ---------------------------------------------------

    @property
    def now(self) -> float:
        """Wall seconds since :meth:`start` (0.0 before it)."""
        if self._epoch is None:
            return 0.0
        return time.monotonic() - self._epoch

    async def sleep(self, delay: float) -> None:
        """Suspend the calling actor for ``delay`` wall seconds."""
        await asyncio.sleep(max(0.0, delay))

    def stop(self) -> None:
        """Cancel the actors and stop the loop (idempotent, thread-safe)."""
        self.stopping = True
        loop, stop_event = self._loop, self._stop_event
        if loop is not None and stop_event is not None:
            try:
                loop.call_soon_threadsafe(stop_event.set)
            except RuntimeError:     # loop already closed
                pass
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=5.0)

    # -- lifecycle ---------------------------------------------------------

    def start(self, actors: Sequence[Coroutine]) -> "WallClockDriver":
        """Spawn the loop thread and schedule ``actors`` on it."""
        if self._thread is not None:
            raise RuntimeError("driver already started")
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main(list(actors))),
            name="repro-serve-driver", daemon=True,
        )
        self._thread.start()
        self._ready.wait()
        return self

    async def _main(self, actors: List[Coroutine]) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._epoch = time.monotonic()
        self._tasks = [asyncio.ensure_future(coro) for coro in actors]
        for task in self._tasks:
            task.add_done_callback(self._on_task_done)
        self._ready.set()
        await self._stop_event.wait()
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)

    def _on_task_done(self, task: asyncio.Task) -> None:
        if task.cancelled():
            return
        error = task.exception()
        if error is not None and self.failure is None:
            # Surface the first actor crash: remember it for state() /
            # healthz and shut the loop down rather than serving from a
            # dead coordinator.
            self.failure = error
            self.stopping = True
            if self._stop_event is not None:
                self._stop_event.set()

    # -- cross-thread marshalling -------------------------------------------

    def submit(self, action: Callable[[], None]) -> None:
        """Run ``action`` on the loop thread (fire-and-forget, thread-safe).

        The serving layer's only write path into actor state: HTTP
        handler threads package their protocol messages into a closure
        and hand it over; the loop interleaves it between actor segments.
        """
        loop = self._loop
        if loop is None or self.stopping:
            return
        try:
            loop.call_soon_threadsafe(self._guarded, action)
        except RuntimeError:         # loop shut down mid-call
            pass

    def call_later(self, delay: float, action: Callable[[], None]) -> None:
        """Schedule ``action`` in ``delay`` wall seconds (thread-safe)."""
        delay = max(0.0, delay)
        loop = self._loop
        if loop is None or self.stopping:
            return
        if threading.current_thread() is self._thread:
            loop.call_later(delay, self._guarded, action)
        else:
            try:
                loop.call_soon_threadsafe(
                    loop.call_later, delay, self._guarded, action)
            except RuntimeError:
                pass

    def _guarded(self, action: Callable[[], None]) -> None:
        if self.stopping:
            return
        self.events_fired += 1
        action()

    def __repr__(self) -> str:
        state = "stopped" if self.stopping or self._thread is None \
            else "running"
        return f"WallClockDriver(now={self.now:.3f}, {state})"


class WallClockTransport:
    """In-process message delivery over the wall clock.

    The :class:`~repro.net.transport.Transport` protocol with the same
    envelope stamping and fate accounting as
    :class:`~repro.net.transport.LocalTransport`, minus the event-heap
    hop: a zero-delay ``send`` delivers synchronously to the
    destination's handler, so a message costs one envelope build, not a
    scheduled callback.  ``send`` must run on the driver's loop
    thread (callers marshal via :meth:`WallClockDriver.submit`), which
    keeps handlers and the log single-threaded.
    """

    def __init__(self, driver: WallClockDriver, record_log: bool = False,
                 recorder: Optional[Recorder] = None):
        self.driver = driver
        self.log = MessageLog(record_entries=record_log)
        self._handlers: dict = {}
        self._seq = itertools.count()
        self._obs = resolve_recorder(recorder)

    def register(self, address: Address, handler: Handler) -> None:
        """Deliver every message addressed to ``address`` to ``handler``."""
        self._handlers[address] = handler

    def send(self, src: Address, dst: Address, message: Message,
             delay: float = 0.0, parent: Optional[int] = None) -> None:
        now = self.driver.now
        envelope = Envelope(
            seq=next(self._seq), src=src, dst=dst,
            sent_at=now, delivered_at=now + delay, message=message,
        )
        self.log.record("sent", envelope)
        if self._obs.enabled:
            self._obs.count("net.messages_sent")
        if delay > 0.0:
            self.driver.call_later(delay, lambda: self._deliver(envelope))
        else:
            self._deliver(envelope)

    def _deliver(self, envelope: Envelope) -> None:
        handler = self._handlers.get(envelope.dst)
        if handler is None:
            self.log.record("unroutable", envelope, delivered=False)
            return
        self.log.record("delivered", envelope)
        if self._obs.enabled:
            self._obs.count("net.messages_delivered")
        handler(envelope)
