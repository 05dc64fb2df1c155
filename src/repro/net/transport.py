"""Message transports: reliable local delivery and composable faults.

:class:`LocalTransport` is the ground truth: every ``send`` schedules a
delivery event on the runtime's virtual clock (plus any latency the caller
adds) and records the fate in a :class:`~repro.net.messages.MessageLog`.
The delivery event calls the handler registered for the destination
address — a device's best response, or the ``append`` of a coordinator's
inbox — inside the event itself.

:class:`FaultyTransport` wraps a :class:`LocalTransport` and injects, from
one seeded generator, the failure modes a real radio/backhaul exhibits:

* **loss** — each message is independently dropped with probability
  ``loss``;
* **latency + jitter** — a base delay plus an exponential jitter term;
  because jitter is per-message, later sends can overtake earlier ones,
  which is exactly message **reordering**;
* **duplication** — with probability ``duplicate`` a second copy is
  delivered with its own independent delay;
* **partitions** — time windows during which a set of devices is cut off
  from everyone else, both directions.

Fault draws happen in send order, and send order is fixed by the
deterministic runtime, so a seed pins the entire fault schedule — rerunning
yields an identical message log.

A transport carries a message to one address (:meth:`Transport.send`) or
the same message to many (:meth:`Transport.broadcast`, a coordinator's
round).  A broadcast is one call whose loop does, destination by
destination and in order, exactly what that many sends would: the same
draws, sequence numbers, log entries and spans.  Each transport has one
body for both (a send is a fan-out to one address) and binds what that
body reads — the fault parameters, the generator's methods, the sequence
counters, the heap — once, at construction, so a lone send pays no
set-up.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from heapq import heappush
from typing import Callable, Iterable, Optional, Protocol, Tuple

from repro.net.clock import Runtime
from repro.net.messages import Address, Envelope, Message, MessageLog
from repro.obs.context import resolve_recorder
from repro.obs.recorder import Recorder
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_non_negative, check_probability


#: What a transport calls with each envelope delivered to an address.
Handler = Callable[[Envelope], None]

#: ``tuple.__new__(Envelope, fields)`` builds an envelope without the
#: named tuple's Python-level ``__new__``: one is built per message.
_new_tuple = tuple.__new__


def _unschedulable(when: float, now: float) -> ValueError:
    return ValueError(f"cannot schedule at t={when} (current time is {now})")


class Transport(Protocol):
    """Anything that can carry a message toward an address."""

    log: MessageLog

    def register(self, address: Address, handler: Handler) -> None:
        """Deliver every message addressed to ``address`` to ``handler``."""

    def send(self, src: Address, dst: Address, message: Message,
             delay: float = 0.0, parent: Optional[int] = None) -> None:
        """Hand ``message`` to the network (fire and forget).

        ``parent`` is the sender's open span id (or None): the transport
        opens a per-message child span under it so deliveries, drops, and
        partitions all appear in the causal tree.
        """

    def broadcast(self, src: Address, dsts: Iterable[Address],
                  message: Message, delay: float = 0.0,
                  parent: Optional[int] = None) -> None:
        """Send ``message`` to each of ``dsts``, in order, in one call.

        Equal to one :meth:`send` per destination: the same fault draws,
        sequence numbers, log entries, spans and heap entries.
        """


class LocalTransport:
    """In-process delivery over the virtual clock — reliable and ordered
    (ties broken by send sequence).

    A message in flight is one :class:`~repro.net.messages.Envelope` and
    one ``(delivered_at, seq, deliver, envelope)`` entry on the runtime's
    heap, where ``deliver`` is this transport's delivery method, chosen
    and bound once.  A send whose delivery time is before now or NaN
    raises :class:`ValueError` before anything is logged, counted or
    traced.
    """

    def __init__(self, runtime: Runtime, record_log: bool = True,
                 recorder: Optional[Recorder] = None):
        self.runtime = runtime
        self.log = MessageLog(record_entries=record_log)
        self._handlers: dict = {}
        self._seq = itertools.count()
        self._obs = resolve_recorder(recorder)
        self._deliver_one = self._bind_deliver()
        self._post = self._bind_post()

    def register(self, address: Address, handler: Handler) -> None:
        self._handlers[address] = handler

    def send(self, src: Address, dst: Address, message: Message,
             delay: float = 0.0, parent: Optional[int] = None) -> None:
        self.broadcast(src, (dst,), message, delay, parent)

    def broadcast(self, src: Address, dsts: Iterable[Address],
                  message: Message, delay: float = 0.0,
                  parent: Optional[int] = None) -> None:
        now = self.runtime.now
        delivered_at = now + delay
        if not delivered_at >= now:       # NaN fails this too
            raise _unschedulable(delivered_at, now)
        post = self._post
        for dst in dsts:
            post(src, dst, message, now, delivered_at, parent)

    def _bind_post(self) -> Callable[..., None]:
        """``post(src, dst, message, now, delivered_at, parent)``: stamp,
        log and schedule one copy of a message whose delivery time the
        caller has checked.  Both transports post through it."""
        seq_counter, obs, log = self._seq, self._obs, self.log
        tracing, record_entries = obs.enabled, log.record_entries
        counts = log.counts
        heap, event_counter = self.runtime._heap, self.runtime._seq
        deliver = self._deliver_one

        def post(src, dst, message, now, delivered_at, parent):
            seq = next(seq_counter)
            span = None
            if tracing:
                span = obs.span_start(
                    f"msg.{type(message).__name__}", parent=parent,
                    virtual_time=now, src=str(src), dst=str(dst), seq=seq,
                )
                obs.count("net.messages_sent")
            envelope = _new_tuple(Envelope, (seq, src, dst, now,
                                             delivered_at, message, span))
            if record_entries:
                log.record("sent", envelope)
            else:
                counts["sent"] += 1
            heappush(heap, (delivered_at, next(event_counter), deliver,
                            envelope))

        return post

    def _deliver(self, envelope: Envelope) -> None:
        handler = self._handlers.get(envelope.dst)
        log = self.log
        if handler is None:
            if log.record_entries:
                log.record("unroutable", envelope, delivered=False)
            else:
                log.counts["unroutable"] += 1
            if envelope.span is not None:
                self._obs.span_end(envelope.span, status="unroutable",
                                   virtual_time=envelope.delivered_at)
            return
        if log.record_entries:
            log.record("delivered", envelope)
        else:
            log.counts["delivered"] += 1
        obs = self._obs
        if obs.enabled:
            obs.count("net.messages_delivered")
            obs.observe("net.delivery_latency", envelope.latency)
        if envelope.span is not None:
            obs.span_end(envelope.span, status="delivered",
                         virtual_time=envelope.delivered_at)
        handler(envelope)

    def _bind_deliver(self) -> Handler:
        """The delivery callable every heap entry this transport pushes
        shares: :meth:`_deliver`, or, with nothing to record but the
        fate counts, a lean equivalent."""
        if self.log.record_entries or self._obs.enabled:
            return self._deliver
        handler_for, counts = self._handlers.get, self.log.counts

        def deliver(envelope):
            handler = handler_for(envelope.dst)
            if handler is None:
                counts["unroutable"] += 1
                return
            counts["delivered"] += 1
            handler(envelope)

        return deliver


@dataclass(frozen=True)
class Partition:
    """During ``[start, end)`` the ``devices`` set is unreachable —
    messages between a partitioned and a non-partitioned address are
    dropped in both directions (traffic within either side still flows)."""

    start: float
    end: float
    devices: frozenset = field(default_factory=frozenset)

    def blocks(self, src: Address, dst: Address, now: float) -> bool:
        if not self.start <= now < self.end:
            return False
        return (src in self.devices) != (dst in self.devices)


@dataclass(frozen=True)
class FaultConfig:
    """Seeded fault model for :class:`FaultyTransport`."""

    loss: float = 0.0            # P(message dropped)
    duplicate: float = 0.0       # P(one extra delivery)
    latency: float = 0.0         # base one-way delay
    jitter: float = 0.0          # mean of the exponential jitter term
    partitions: Tuple[Partition, ...] = ()

    def __post_init__(self) -> None:
        check_probability("loss", self.loss)
        check_probability("duplicate", self.duplicate)
        check_non_negative("latency", self.latency)
        check_non_negative("jitter", self.jitter)

    @property
    def faultless(self) -> bool:
        return (self.loss == 0.0 and self.duplicate == 0.0
                and self.latency == 0.0 and self.jitter == 0.0
                and not self.partitions)


class FaultyTransport:
    """A :class:`LocalTransport` wrapper injecting seeded
    loss/delay/duplication/partitions: each send draws a message's fate
    and posts the surviving copies through the inner transport.

    A send or broadcast whose earliest delivery time (``delay`` plus the
    base latency; jitter only adds) is before now or NaN raises
    :class:`ValueError` before any fault draw, whatever the fate it would
    have drawn.
    """

    def __init__(self, inner: LocalTransport, faults: FaultConfig,
                 seed: SeedLike = 0, recorder: Optional[Recorder] = None):
        self.inner = inner
        self.runtime = inner.runtime
        self.log = inner.log
        self.faults = faults
        self.rng = as_generator(seed)
        self._obs = resolve_recorder(recorder)
        self._fan_out = self._bind_fan_out()

    def register(self, address: Address, handler: Handler) -> None:
        self.inner.register(address, handler)

    def send(self, src: Address, dst: Address, message: Message,
             delay: float = 0.0, parent: Optional[int] = None) -> None:
        self._fan_out(src, (dst,), message, delay, parent)

    def broadcast(self, src: Address, dsts: Iterable[Address],
                  message: Message, delay: float = 0.0,
                  parent: Optional[int] = None) -> None:
        self._fan_out(src, dsts, message, delay, parent)

    def _bind_fan_out(self) -> Callable[..., None]:
        """``fan_out(src, dsts, message, delay, parent)``: the transport's
        one fault-draw sequence, per destination in order — partition
        check, loss draw, jitter draw, post, duplicate draw (and the
        copy's jitter draw and post).  ``FaultConfig`` is frozen, so its
        parameters are bound here once."""
        faults = self.faults
        loss, duplicate = faults.loss, faults.duplicate
        latency, jitter = faults.latency, faults.jitter
        partitions = faults.partitions
        lossy, duplicating, jittery = loss > 0.0, duplicate > 0.0, jitter > 0.0
        random, exponential = self.rng.random, self.rng.exponential
        runtime, post, drop = self.runtime, self.inner._post, self._drop
        counts, obs = self.log.counts, self._obs

        def fan_out(src, dsts, message, delay, parent):
            now = runtime.now
            # Jitter only adds, so no copy can arrive before ``earliest``.
            earliest = now + (delay + latency)
            if not earliest >= now:
                raise _unschedulable(earliest, now)
            for dst in dsts:
                if partitions and any(partition.blocks(src, dst, now)
                                      for partition in partitions):
                    drop("partitioned", src, dst, message, now, parent)
                    continue
                if lossy and random() < loss:
                    drop("dropped", src, dst, message, now, parent)
                    continue
                extra = exponential(jitter) if jittery else 0.0
                post(src, dst, message, now,
                     now + (delay + (latency + extra)), parent)
                if duplicating and random() < duplicate:
                    counts["duplicated"] += 1
                    if obs.enabled:
                        obs.count("net.messages_duplicated")
                    extra = exponential(jitter) if jittery else 0.0
                    post(src, dst, message, now,
                         now + (delay + (latency + extra)), parent)

        return fan_out

    def _drop(self, fate: str, src: Address, dst: Address,
              message: Message, now: float,
              parent: Optional[int] = None) -> None:
        log = self.log
        if log.record_entries:
            log.record(fate, Envelope(seq=-1, src=src, dst=dst, sent_at=now,
                                      delivered_at=now, message=message),
                       delivered=False)
        else:
            log.counts[fate] += 1
        if self._obs.enabled:
            self._obs.count("net.messages_dropped")
            # The message never enters the inner transport, so the fault
            # span is opened and closed here — a zero-duration leaf whose
            # status records the fate.
            span = self._obs.span_start(
                f"msg.{type(message).__name__}", parent=parent,
                virtual_time=now, src=str(src), dst=str(dst),
            )
            self._obs.span_end(span, status=fate, virtual_time=now)
