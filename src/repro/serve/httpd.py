"""The HTTP surface of the decision service.

:class:`DecisionServer` puts a :class:`~repro.serve.service.DecisionService`
behind the shared stdlib plumbing (:mod:`repro.utils.httpd`), the same
way :class:`repro.obs.serve.MetricsServer` exposes a registry.  Its
listener and every connection are callbacks on the service's
:class:`~repro.serve.wallclock.WallClockDriver` loop, beside the
coordinator's round timer and the report ingest: one thread serves the
daemon, so a ``/decide`` hands its report batch over with a plain
``call_soon`` and no thread ever waits on another.

========  ==========  ====================================================
method    path        behaviour
========  ==========  ====================================================
POST      /decide     thresholds for ``{"device": i}`` or
                      ``{"devices": [...]}`` at the current γ̂ — rows of
                      the round's published fleet answer, no kernel
                      probe; sheds with **503 + Retry-After** past the
                      admission watermark
POST      /join       membership announcement (JoinLeave protocol message)
POST      /leave      ditto, leaving
GET       /state      γ̂, η, round, membership, load, shed counters
GET       /healthz    200 while the coordinator loop is alive, 503 after
GET       /metrics    Prometheus text exposition of the serve registry
========  ==========  ====================================================

Errors map onto plain HTTP: malformed JSON (nesting too deep for the
decoder included), unknown device ids or a ``Content-Length`` that is
not a byte count → 400, oversized batches or bodies → 413, shed load →
503 with ``Retry-After`` set to one round period.  A request body is
never buffered past the size ``max_batch`` devices can take; a request
declaring more is refused from its head and its connection closed.
Every response is JSON (except ``/metrics``) and carries
``Content-Length``, so HTTP/1.1 keep-alive works and a replay client can
reuse one connection per worker.  A connection whose request has not
arrived whole ``QuietHandler.timeout`` seconds after its first byte is
closed unanswered, and one whose client leaves an answer unread that
long is dropped; ``serve.timeouts`` counts both.

**Admission at read time.**  A request is sized (400/413) from its head
(:meth:`_Handler.request_length`), and a ``/decide`` is admitted or shed
once its body is in (:meth:`_Handler.read_body`): it is then *read*.  It
is answered on the loop's next pass, after every connection whose
request arrived in the same pass has been read.  So the admission
controller's in-flight count is the ``/decide`` requests read off the
wire and not yet answered, and a burst from more connections than the
watermark is shed with 503 + ``Retry-After``.

The ``/decide`` body is rendered from the service's
:class:`~repro.serve.service.Decisions` columns by one row template
(:func:`encode_decisions`), byte-identical to ``json.dumps`` of the
equivalent dict document.  A device's row depends only on its threshold:
on the service's kernel α is the table entry of (device, threshold) and
the rate is the device's arrival rate times α.  So the server keeps one
rendered row per provisioned device (:meth:`DecisionServer.encode`) and
a body is the join of its batch's rows; only a row whose threshold moved
since it was last served — γ̂ crossed one of the device's breakpoints —
is rendered again.  ``serve.rows_rendered`` on ``/metrics`` counts those,
beside ``serve.decisions``.

Request spans go through the service's recorder, the one its coordinator
records ``coordinator.broadcast`` round spans with: one ``serve.decide``
span per admitted request (wall time as the span clock, status
``ok``/``error``) and one instant ``serve.shed`` span per rejection;
without a collector (no ``--trace``) the calls are no-ops.
"""

from __future__ import annotations

import threading
from typing import List, Optional

import numpy as np

from repro.obs.serve import prometheus_text
from repro.serve.service import Decisions, DecisionService
from repro.utils.httpd import HttpDaemon, QuietHandler

#: One decision, exactly as ``json.dumps`` writes the dict
#: ``{"device": int, "threshold": int, "offload_probability": float,
#: "offload_rate": float}`` (floats print as ``repr``, as json does; in a
#: bytes template ``%a`` is ``repr``, ASCII-encoded).
_ROW = (b'{"device": %d, "threshold": %d, "offload_probability": %a, '
        b'"offload_rate": %a}')

#: The longest ``repr`` of a float: a sign, 17 significant digits, the
#: point and a three-digit exponent (``-2.2250738585072014e-308``).
_REPR_WIDTH = 24

#: Request-body bytes allowed per device (an id has at most 20
#: characters; the rest covers separators and whitespace), plus a fixed
#: allowance for the rest of the document.
_BODY_BYTES_PER_DEVICE = 32
_BODY_BYTES_FIXED = 1024


def _render(decisions: Decisions, picked) -> List[bytes]:
    """Rows ``picked`` of ``decisions``, each through the row template."""
    return list(map(_ROW.__mod__, zip(
        decisions.devices[picked].tolist(),
        decisions.thresholds[picked].tolist(),
        decisions.offload_probabilities[picked].tolist(),
        decisions.offload_rates[picked].tolist())))


def encode_decisions(decisions: Decisions) -> bytes:
    """The ``/decide`` body for ``decisions``, one row template per device.

    Equal to ``json.dumps`` of ``{"round", "gamma", "stale",
    "decisions": [row, ...]}`` plus a newline; a single-device query also
    repeats its one row's fields at the top level.  The server builds the
    same bytes from its cached rows (:meth:`DecisionServer.encode`).
    """
    return _body(decisions, _render(decisions, slice(None)))


def _body(decisions: Decisions, rows: List[bytes]) -> bytes:
    """The ``/decide`` document around its rendered ``rows``."""
    head = '{"round": %d, "gamma": %r, "stale": %s, "decisions": [' % (
        decisions.round, decisions.gamma,
        "true" if decisions.stale else "false")
    tail = b"], " + rows[0][1:-1] + b"}\n" if decisions.single else b"]}\n"
    return head.encode() + b", ".join(rows) + tail


class _Handler(QuietHandler):
    protocol_version = "HTTP/1.1"

    def request_length(self) -> Optional[int]:
        """A body up to the largest batch's (400/413 past that, counted
        in ``serve.errors``), sized from the head before it is buffered."""
        server: DecisionServer = self.server.decision_server
        self.length = self.body_length(server.max_body_bytes)
        if self.length is None:
            server.service.registry.inc("serve.errors")
        return self.length

    def read_body(self, body: bytes) -> None:
        """A ``/decide`` is admitted or shed once it has arrived whole: an
        admitted one holds its slot until it is answered."""
        super().read_body(body)
        self.admitted = (
            self.command == "POST" and self.path == "/decide"
            and self.server.decision_server.service.admission.try_enter())

    def timed_out(self) -> None:
        self.server.decision_server.service.registry.inc("serve.timeouts")

    def encode_json(self, document) -> bytes:
        if isinstance(document, Decisions):
            return self.server.decision_server.encode(document)
        return super().encode_json(document)

    # -- GET ---------------------------------------------------------------

    def do_GET(self) -> None:
        server: DecisionServer = self.server.decision_server
        if self.path == "/healthz":
            if server.service.healthy:
                self.send_json(200, {"status": "ok"})
            else:
                self.send_json(503, {"status": "unavailable"})
        elif self.path in ("/state", "/"):
            self.send_json(200, server.service.state())
        elif self.path == "/metrics":
            self.send_text(
                200, server.metrics_text(),
                content_type="text/plain; version=0.0.4; charset=utf-8")
        else:
            self.send_json(404, {"error": f"unknown path {self.path}"})

    # -- POST --------------------------------------------------------------

    def do_POST(self) -> None:
        server: DecisionServer = self.server.decision_server
        if self.path == "/decide":
            self._decide(server, self.length)
        elif self.path in ("/join", "/leave"):
            self._membership(server, self.length,
                             joining=self.path == "/join")
        else:
            self.send_json(404, {"error": f"unknown path {self.path}"})

    def _decide(self, server: "DecisionServer", length: int) -> None:
        service = server.service
        obs, driver = service.recorder, service.driver
        if not self.admitted:
            service.registry.inc("serve.shed")
            shed = obs.span_start("serve.shed", virtual_time=driver.now)
            obs.span_end(shed, "shed", virtual_time=driver.now)
            self.send_json(
                503, {"error": "overloaded, retry later", "shed": True},
                extra_headers={
                    "Retry-After": f"{service.config.round_period:g}"},
            )
            return
        try:
            span = obs.span_start("serve.decide", virtual_time=driver.now)
            status, document = self._answer(service, length)
            if status == 200:
                obs.span_end(span, "ok", virtual_time=driver.now,
                             batch=document.devices.size)
            else:
                service.registry.inc("serve.errors")
                obs.span_end(span, "error", virtual_time=driver.now)
            self.send_json(status, document)
        finally:
            service.admission.exit()

    def _answer(self, service: DecisionService, length: int):
        """``(status, document)`` for one admitted ``/decide`` request."""
        try:
            body = self.read_json_body(length)
        except ValueError as error:
            return 400, {"error": str(error)}
        devices = self._extract_devices(body)
        if devices is None:
            return 400, {"error": "body must carry \"device\": int or "
                                  "\"devices\": [int, ...]"}
        batch = 1 if isinstance(devices, int) else len(devices)
        if batch > service.config.max_batch:
            return 413, {"error": f"batch of {batch} exceeds max_batch="
                                  f"{service.config.max_batch}"}
        try:
            return 200, service.decide(devices)
        except ValueError as error:
            return 400, {"error": str(error)}

    def _membership(self, server: "DecisionServer", length: int,
                    joining: bool) -> None:
        service = server.service
        try:
            body = self.read_json_body(length)
        except ValueError as error:
            service.registry.inc("serve.errors")
            self.send_json(400, {"error": str(error)})
            return
        devices = self._extract_devices(body)
        if devices is None:
            service.registry.inc("serve.errors")
            self.send_json(400, {
                "error": "body must carry \"device\": int or "
                         "\"devices\": [int, ...]"})
            return
        try:
            accepted = service.join(devices) if joining \
                else service.leave(devices)
        except ValueError as error:
            service.registry.inc("serve.errors")
            self.send_json(400, {"error": str(error)})
            return
        self.send_json(200, {"accepted": accepted, "joining": joining})

    @staticmethod
    def _extract_devices(body: dict):
        """``device: int`` | ``devices: [int, ...]`` → ids, else None.

        A JSON integer decodes to exactly ``int`` (``true`` is a
        ``bool``), so one C-level pass over the id types checks a batch.
        """
        if "device" in body:
            device = body["device"]
            return device if type(device) is int else None
        devices = body.get("devices")
        if not isinstance(devices, list) \
                or set(map(type, devices)) != {int}:
            return None
        return devices


class DecisionServer:
    """The decision service behind an HTTP listener on its driver's loop.

    The server keeps the ``/decide`` row it last rendered for each
    provisioned device in a fixed-width bytes array, beside the threshold
    it was rendered at (−1: never).  A slot is as wide as the widest row
    the population can produce — the largest id, the kernel's
    ``max_threshold`` and two float reprs of the longest possible
    length — so no row is ever cut.  The slots sit behind one lock, so
    in-process callers on other threads may encode beside the loop.
    """

    def __init__(self, service: DecisionService, port: int = 0,
                 host: str = "127.0.0.1"):
        self.service = service
        n = service.population.size
        width = len(_ROW.replace(b"%a", b"") % (
            n - 1, service.kernel.stats.max_threshold)) + 2 * _REPR_WIDTH
        self._rows = np.zeros(n, dtype=f"S{width}")
        self._row_thresholds = np.full(n, -1, dtype=np.int64)
        self._row_lock = threading.Lock()
        service.registry.counter("serve.rows_rendered")
        service.registry.counter("serve.timeouts")
        self._daemon = HttpDaemon(
            _Handler, port=port, host=host, name="repro-decision-server",
            decision_server=self,
        )

    @property
    def max_body_bytes(self) -> int:
        """The largest request body read: ``max_batch`` devices' worth."""
        return (_BODY_BYTES_PER_DEVICE * self.service.config.max_batch
                + _BODY_BYTES_FIXED)

    def encode(self, decisions: Decisions) -> bytes:
        """The ``/decide`` body for ``decisions`` from the service.

        Rows whose device was last served at the same threshold come from
        the slots; the rest are rendered, written back and counted in
        ``serve.rows_rendered``.  Byte-identical to
        :func:`encode_decisions`, which renders every row.
        """
        devices, thresholds = decisions.devices, decisions.thresholds
        with self._row_lock:
            rows = self._rows[devices]
            moved = np.flatnonzero(self._row_thresholds[devices]
                                   != thresholds)
        if moved.size:
            rows[moved] = _render(decisions, moved)
            with self._row_lock:
                self._rows[devices[moved]] = rows[moved]
                self._row_thresholds[devices[moved]] = thresholds[moved]
                self.service.registry.inc("serve.rows_rendered",
                                          float(moved.size))
        return _body(decisions, rows.tolist())

    def metrics_text(self) -> str:
        registry = self.service.registry
        coordinator = self.service.coordinator
        registry.set_gauge("serve.gamma_hat", coordinator.stepper.estimate)
        registry.set_gauge("serve.round", float(coordinator.round))
        registry.set_gauge("serve.in_flight",
                           float(self.service.admission.in_flight))
        return prometheus_text(registry.snapshot())

    # -- lifecycle ---------------------------------------------------------

    @property
    def port(self) -> int:
        return self._daemon.port

    @property
    def url(self) -> str:
        return self._daemon.url

    @property
    def running(self) -> bool:
        return self._daemon.running

    def start(self) -> "DecisionServer":
        """Start the service (if needed), then listen on its loop.

        The port is bound in the calling thread: one that cannot bind
        (:class:`OSError`) stops the service before the error propagates,
        so no coordinator outlives it.
        """
        if not self.service._started:
            self.service.start()
        try:
            self._daemon.start(self.service.driver.loop)
        except OSError:
            self.service.stop()
            raise
        return self

    def stop(self) -> None:
        """Close the listener and every connection, then stop the loop."""
        self._daemon.stop()
        self.service.stop()

    def __enter__(self) -> "DecisionServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def __repr__(self) -> str:
        state = "listening" if self.running else "stopped"
        return f"DecisionServer({self.url}, {state})"
