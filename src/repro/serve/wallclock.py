"""The wall-clock adapter for the virtual-time actor runtime.

A :mod:`repro.net` coordinator is a set of callbacks, and it touches its
runtime only through ``runtime.now``, ``runtime.call_later``,
``runtime.stop()`` and ``runtime.stopping``.  That narrow surface is
what makes the virtual-time :class:`~repro.net.clock.Runtime`
deterministic, and it is also what makes a wall-clock bridge small:
:class:`WallClockDriver` implements the same surface over a private
asyncio loop on a daemon thread, so the
:class:`~repro.net.actors.EdgeCoordinator`'s round timer runs *unmodified*
in real time — re-estimation rounds become wall-clock periods, report
windows become wall-clock seconds.

Single-threaded discipline carries over: everything that mutates actor
state (a message passed to the coordinator's ``receive``, a scheduled
callback) runs on the loop thread.  The daemon's HTTP connections are
callbacks on the same loop (:attr:`WallClockDriver.loop`), so a request
handler hands its protocol messages to :meth:`WallClockDriver.submit` as
a plain ``loop.call_soon``, queued between the actors' callbacks exactly
like virtual-clock events; a foreign thread (an in-process caller) goes
through ``loop.call_soon_threadsafe``.  Reads of plain floats/ints (γ̂,
round numbers) from foreign threads are safe under the GIL and are the
only cross-thread access the serving layer allows.  Nothing is sent over
a transport: the coordinator's broadcast publishes, and the service
calls ``receive`` directly.
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Callable, Optional, Sequence


class WallClockDriver:
    """Runs actor callbacks against the wall clock on a daemon thread.

    The part of the :class:`repro.net.clock.Runtime` contract a
    coordinator uses (``now``, ``call_later``, ``stop``, ``stopping``)
    over a private asyncio event loop; :meth:`start` queues the actors'
    starts and spawns the loop thread.  Every actor callback runs
    through one guard: the first exception raised in one becomes
    :attr:`failure` and ends the actor callbacks, so the daemon never
    serves from a dead coordinator.  The actors ending is not the loop
    ending: whatever else runs on the loop (the daemon's HTTP
    connections, answering ``/healthz`` 503) keeps running until the
    owner calls :meth:`stop` from its own thread.
    """

    def __init__(self):
        self.stopping = False
        self.failure: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._epoch: Optional[float] = None

    # -- Runtime surface ---------------------------------------------------

    @property
    def now(self) -> float:
        """Wall seconds since :meth:`start` (0.0 before it)."""
        if self._epoch is None:
            return 0.0
        return time.monotonic() - self._epoch

    def stop(self) -> None:
        """End the actor callbacks (idempotent, thread-safe).

        On the loop thread — a coordinator spending its round budget, or
        the guard after a failure — that is all.  From any other thread,
        the owner's, it also stops the loop and joins its thread.
        """
        self.stopping = True
        thread = self._thread
        if thread is None or thread is threading.current_thread():
            return
        try:
            self._loop.call_soon_threadsafe(self._loop.stop)
        except RuntimeError:         # loop already closed
            pass
        thread.join(timeout=5.0)

    # -- lifecycle ---------------------------------------------------------

    def start(self, starts: Sequence[Callable[[], None]]) -> "WallClockDriver":
        """Queue ``starts`` on a new loop, then spawn the loop thread."""
        if self._thread is not None:
            raise RuntimeError("driver already started")
        self._loop = loop = asyncio.new_event_loop()
        self._epoch = time.monotonic()
        for start in starts:
            loop.call_soon(self._guarded, start)
        self._thread = threading.Thread(target=self._serve,
                                        name="repro-serve-driver",
                                        daemon=True)
        self._thread.start()
        return self

    def _serve(self) -> None:
        try:
            self._loop.run_forever()
        finally:
            self._loop.close()

    @property
    def loop(self) -> Optional[asyncio.AbstractEventLoop]:
        """The event loop the actors run on (None before :meth:`start`)."""
        return self._loop

    # -- cross-thread marshalling -------------------------------------------

    def submit(self, action: Callable[[], None]) -> None:
        """Run ``action`` on the loop thread (fire-and-forget, thread-safe).

        The serving layer's only write path into actor state: request
        handlers hand over a closure that passes their protocol messages
        to the coordinator's ``receive``; the loop interleaves it between
        actor callbacks.  On the loop thread — where the daemon's
        handlers run — that is a plain ``call_soon``, with no wake-up
        write to the loop's self-pipe.
        """
        loop = self._loop
        if loop is None or self.stopping:
            return
        if threading.current_thread() is self._thread:
            loop.call_soon(self._guarded, action)
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
        try:
            action()
        except Exception as error:
            # The first failed actor callback is the daemon's: keep it for
            # state() and /healthz, and end the actors' callbacks.
            if self.failure is None:
                self.failure = error
            self.stop()

    def __repr__(self) -> str:
        state = "stopped" if self.stopping or self._thread is None \
            else "running"
        return f"WallClockDriver(now={self.now:.3f}, {state})"
