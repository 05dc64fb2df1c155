"""Shared stdlib-HTTP plumbing for the repo's two servers.

:mod:`repro.obs.serve` (the Prometheus ``/metrics`` exporter) and
:mod:`repro.serve.httpd` (the DTU decision service) both need the same
five lines of ``http.server`` boilerplate: a ``ThreadingHTTPServer`` with
daemon worker threads, ``SO_REUSEADDR`` so restarts don't trip over
``TIME_WAIT`` sockets, port-``0`` ephemeral binds resolved after start,
per-request stderr chatter silenced, and a background serve thread with a
clean ``stop()``.  This module holds that plumbing once so the two
servers cannot drift.

:class:`QuietHandler` is a :class:`~http.server.BaseHTTPRequestHandler`
base with logging silenced, an idle timeout that closes connections
silent for 30 s, a JSON/text response helper that always sends
``Content-Length`` (keep-alive safe under ``HTTP/1.1``), and
request-body readers that check the client's ``Content-Length`` before
reading a byte.

:class:`HttpDaemon` owns the server lifecycle::

    daemon = HttpDaemon(MyHandler, port=0).start()
    print(daemon.port)        # the resolved ephemeral port
    ...
    daemon.stop()

Arbitrary attributes passed via ``context`` are attached to the
underlying server object, which is how handlers reach their backing
state (``self.server.<name>``) — the idiom ``http.server`` itself uses.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Type


class QuietHandler(BaseHTTPRequestHandler):
    """A request handler base: silent logs + framed response helpers."""

    # Small request/response pairs over keep-alive otherwise hit the
    # Nagle + delayed-ACK interaction: ~40 ms stalls that would dominate
    # every latency percentile the serving layer reports.
    disable_nagle_algorithm = True

    # Seconds a connection may sit silent (idle keep-alive, a half-sent
    # request line) before the read raises TimeoutError and the handler
    # closes it; without one each such connection pins a thread forever.
    timeout = 30.0

    def log_message(self, *args) -> None:
        """Silence per-request stderr chatter (requests are high-volume)."""

    # -- response helpers --------------------------------------------------

    def send_payload(self, status: int, payload: bytes,
                     content_type: str = "text/plain; charset=utf-8",
                     extra_headers: Optional[dict] = None) -> None:
        """One complete response with an explicit ``Content-Length``."""
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, str(value))
        self.end_headers()
        self.wfile.write(payload)

    def send_json(self, status: int, document,
                  extra_headers: Optional[dict] = None) -> None:
        self.send_payload(
            status, self.encode_json(document),
            content_type="application/json; charset=utf-8",
            extra_headers=extra_headers,
        )

    def encode_json(self, document) -> bytes:
        """A response document as body bytes; subclasses may add types."""
        return (json.dumps(document) + "\n").encode("utf-8")

    def send_text(self, status: int, body: str,
                  content_type: str = "text/plain; charset=utf-8") -> None:
        self.send_payload(status, body.encode("utf-8"),
                          content_type=content_type)

    def body_length(self, limit: int) -> Optional[int]:
        """The request's ``Content-Length``, checked before any body read.

        A value that is not a non-negative decimal is answered 400 and one
        above ``limit`` bytes 413, here; both return None, and because the
        body is left unread the connection closes after that response.
        """
        raw = (self.headers.get("Content-Length") or "0").strip()
        if not (raw.isascii() and raw.isdigit()):
            status, error = 400, "Content-Length must be a byte count"
        # Digits first: int() refuses strings of thousands of digits.
        elif len(raw) > len(str(limit)) or int(raw) > limit:
            status, error = 413, f"request body exceeds {limit} bytes"
        else:
            return int(raw)
        self.close_connection = True
        self.send_json(status, {"error": error})
        return None

    def drain_body(self, length: int) -> None:
        """Consume ``length`` unread body bytes without parsing them.

        Any handler path that answers *without* reading the body (shed,
        unknown route) must still drain it: under HTTP/1.1 keep-alive
        the leftover bytes would otherwise be parsed as the start of the
        connection's next request.
        """
        while length > 0:
            chunk = self.rfile.read(min(length, 65536))
            if not chunk:
                break
            length -= len(chunk)

    def read_json_body(self, length: int) -> dict:
        """The ``length``-byte body as a JSON object (``{}`` when empty).

        Raises :class:`ValueError` on malformed JSON — nesting too deep
        for the decoder included — or a non-object payload, which routing
        code maps to a 400.
        """
        if length == 0:
            return {}
        raw = self.rfile.read(length)
        try:
            document = json.loads(raw.decode("utf-8"))
        except RecursionError:
            raise ValueError("request body nests too deeply") from None
        if not isinstance(document, dict):
            raise ValueError("request body must be a JSON object")
        return document


class HttpDaemon:
    """A :class:`ThreadingHTTPServer` on a background daemon thread.

    Parameters
    ----------
    handler:
        The :class:`QuietHandler` (or any ``BaseHTTPRequestHandler``)
        subclass that routes requests.
    port:
        TCP port; ``0`` binds an ephemeral port (read :attr:`port` after
        :meth:`start` for the resolved value — what the tests use).
    host:
        Bind address; loopback by default.
    context:
        Attributes to attach to the server object so handlers can reach
        shared state as ``self.server.<name>``.
    """

    def __init__(self, handler: Type[BaseHTTPRequestHandler], port: int = 0,
                 host: str = "127.0.0.1", name: str = "repro-httpd",
                 **context):
        self._handler = handler
        self._requested = (host, int(port))
        self._name = name
        self._context = context
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        """The bound port (resolves ephemeral requests after start)."""
        if self._server is not None:
            return self._server.server_address[1]
        return self._requested[1]

    @property
    def host(self) -> str:
        return self._requested[0]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def running(self) -> bool:
        return self._server is not None

    def start(self) -> "HttpDaemon":
        if self._server is not None:
            raise RuntimeError(f"{self._name} already started")
        # ThreadingHTTPServer sets allow_reuse_address (SO_REUSEADDR), so
        # a restart never trips over the previous socket's TIME_WAIT.
        assert ThreadingHTTPServer.allow_reuse_address
        self._server = ThreadingHTTPServer(self._requested, self._handler)
        self._server.daemon_threads = True
        for attr, value in self._context.items():
            setattr(self._server, attr, value)
        self._thread = threading.Thread(
            target=self._server.serve_forever, name=self._name, daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
            self._thread = None

    def __enter__(self) -> "HttpDaemon":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def __repr__(self) -> str:
        state = "serving" if self.running else "stopped"
        return f"HttpDaemon({self.url!r}, {state})"
