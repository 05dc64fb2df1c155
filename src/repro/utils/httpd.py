"""Shared stdlib-HTTP plumbing for the repo's two servers.

:mod:`repro.obs.serve` (the Prometheus ``/metrics`` exporter) and
:mod:`repro.serve.httpd` (the DTU decision service) both serve
``http.server`` request handlers the same way, so the plumbing lives here
once and the two servers cannot drift: ``SO_REUSEADDR`` so restarts don't
trip over ``TIME_WAIT`` sockets, port-``0`` ephemeral binds resolved at
start, per-request stderr chatter silenced, and a clean ``stop()``.

**One thread serves every connection.**  :class:`HttpDaemon` runs its
listener and its connections as callbacks on one asyncio event loop —
the caller's (the decision server runs on its coordinator's loop) or a
private loop thread of its own — never a thread per connection.  Each
connection buffers its bytes and reads one request at a time: once the
head's blank line is in, its :class:`QuietHandler` parses the head from
memory (:meth:`QuietHandler.read_request`), which answers a malformed
or refused head, writes ``100 Continue`` when the client asks for it,
and says how many body bytes follow; once those are in, the handler
takes the body (:meth:`QuietHandler.read_body`, where a handler may
admit or refuse the request).  The request is answered on the loop's
next pass (:meth:`QuietHandler.answer_request`), after every other
connection whose request arrived in the same pass has been read.  The
handler's output bytes go back in one write.  A connection reads its
next request only once it answered the last, as a connection's thread
did, and not while its client is behind on reading its answers.
asyncio disables Nagle on every TCP connection, so small keep-alive
replies never stall ~40 ms on Nagle + delayed ACK.

A connection is closed unanswered when a request has not arrived whole
within :attr:`QuietHandler.timeout` seconds of its first byte, and
dropped when its client has not read an answer that long after it was
written (the handler's :meth:`~QuietHandler.timed_out` hook counts
both); an idle keep-alive connection closes after the same time.  A
head that outgrows 64 KiB without its blank line is answered 431.  A
handler that raises closes only its own connection, with the traceback
on stderr, as ``socketserver`` reports it.

:class:`QuietHandler` is a :class:`~http.server.BaseHTTPRequestHandler`
base with logging silenced, a JSON/text response helper that always
sends ``Content-Length`` (keep-alive safe under ``HTTP/1.1``), and
request-body readers that check the client's ``Content-Length`` before
reading a byte.

:class:`HttpDaemon` owns the server lifecycle::

    daemon = HttpDaemon(MyHandler, port=0).start()
    print(daemon.port)        # the resolved ephemeral port
    ...
    daemon.stop()

Arbitrary attributes passed via ``context`` are attached to the object
handlers see as ``self.server``, which is how they reach their backing
state (``self.server.<name>``) — the idiom ``http.server`` itself uses.
"""

from __future__ import annotations

import io
import json
import socket
import sys
import threading
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler
from types import SimpleNamespace
from typing import Optional, Type

#: A request head may grow this large before its blank line arrives.
_MAX_HEAD = 64 * 1024


class QuietHandler(BaseHTTPRequestHandler):
    """A request handler base: silent logs + framed response helpers."""

    # Seconds a connection may sit idle, take to deliver one whole
    # request from its first byte, or leave an answer unread, before it
    # is closed; without a bound a stalled client holds it forever.
    timeout = 30.0

    def log_message(self, *args) -> None:
        """Silence per-request stderr chatter (requests are high-volume)."""

    # -- one buffered request: head, body, answer --------------------------

    def read_request(self, head: bytes) -> Optional[int]:
        """Parse one request's head (request line and headers) from memory.

        ``handle_one_request``'s first half; the stdlib's
        ``handle_expect_100`` writes ``100 Continue`` here.  Returns the
        body bytes to buffer before the request is answered
        (:meth:`request_length`), or None when the request was answered
        here — malformed, or refused by ``parse_request`` or by its
        length — and its connection is to close.
        """
        self.rfile = io.BytesIO(head)
        self.raw_requestline = self.rfile.readline(65537)
        if len(self.raw_requestline) > 65536:
            self.requestline = self.request_version = self.command = ""
            self.send_error(HTTPStatus.REQUEST_URI_TOO_LONG)
            return None
        if not self.parse_request():
            return None
        return self.request_length()

    def request_length(self) -> Optional[int]:
        """The parsed request's body length: its ``Content-Length`` up to
        1 MiB, through :meth:`body_length`.  A handler with a body limit
        of its own overrides this."""
        return self.body_length(1 << 20)

    def read_body(self, body: bytes) -> None:
        """The request's body is in whole: :attr:`rfile` reads it.

        The request is read; a subclass may admit or refuse it here, and
        :meth:`answer_request` answers it on the loop's next pass.
        """
        self.rfile = io.BytesIO(body)

    def answer_request(self) -> None:
        """Run the read request's ``do_<command>`` method."""
        method = getattr(self, "do_" + self.command, None)
        if method is None:
            self.send_error(HTTPStatus.NOT_IMPLEMENTED,
                            f"Unsupported method ({self.command!r})")
        else:
            method()

    def timed_out(self) -> None:
        """Hook: the connection closed at its deadline (:attr:`timeout`)
        with a request incomplete or an answer unread."""

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
        above ``limit`` bytes 413, here; both return None and close the
        connection after that response.
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


def _head_end(buffer: bytearray, start: int) -> int:
    """The index just past the blank line that ends the head, or −1.

    A blank line is ``\\r\\n`` or a bare ``\\n``, as ``http.client``
    reads header lines; the search begins at ``start``, before which the
    buffer is known to hold none.
    """
    crlf = buffer.find(b"\n\r\n", start)
    lf = buffer.find(b"\n\n", start, crlf + 2) if crlf >= 0 \
        else buffer.find(b"\n\n", start)
    if lf >= 0:
        return lf + 2
    return crlf + 3 if crlf >= 0 else -1


class _Output(list):
    """A handler's ``wfile``: its writes, joined into one transport write."""

    write = list.append

    def flush(self) -> None:
        """Nothing to flush: the connection writes the bytes after the
        handler returns."""


class _Connection:
    """One client connection: an asyncio protocol on the daemon's loop.

    The connection owns one handler (as a connection's thread did) and
    reads one request at a time off its buffer: the head once its blank
    line is in, then as many body bytes as the head asks for.  It queues
    itself to be answered on the loop's next pass; while it waits,
    further bytes only buffer.  Once its unsent output passes the
    transport's high-water mark (:meth:`pause_writing`) it stops reading
    until that drains, so a client that does not read its answers cannot
    make the daemon buffer them.  One timer enforces every deadline —
    idle, a request's from its first byte, an answer's from its write —
    re-armed lazily from :attr:`deadline`.
    """

    def __init__(self, daemon: "HttpDaemon"):
        self.daemon = daemon
        self.loop = daemon._loop
        self.transport = None
        self.handler: Optional[QuietHandler] = None
        self.buffer = bytearray()
        self.scanned = 0          # buffered bytes searched for a blank line
        self.need: Optional[int] = None   # body length of the head read
        self.waiting = False      # a request is read and not yet answered
        self.paused = False       # unsent output past the high-water mark
        self.eof = False
        self.deadline = 0.0
        self.timer = None

    # -- asyncio protocol callbacks ----------------------------------------

    def connection_made(self, transport) -> None:
        self.transport = transport
        daemon = self.daemon
        daemon._connections.add(self)
        handler = daemon._handler.__new__(daemon._handler)
        handler.server = daemon.server
        handler.client_address = transport.get_extra_info("peername")
        handler.wfile = _Output()
        self.handler = handler
        self._arm()

    def data_received(self, data: bytes) -> None:
        if not self.buffer and self.need is None and not self.waiting:
            self._arm()                  # a request's first byte
        self.buffer += data
        if not self.waiting:
            self._read()

    def eof_received(self) -> bool:
        self.eof = True
        if not self.waiting:
            self.transport.close()
        return True                      # keep writing what is owed

    def pause_writing(self) -> None:
        """The client is behind on reading its answers: read nothing more."""
        self.paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.paused = False
        if not self.transport.is_closing():
            self.transport.resume_reading()
            if not self.waiting:
                self._next()

    def connection_lost(self, exc) -> None:
        if self.timer is not None:
            self.timer.cancel()
        self.daemon._connections.discard(self)

    # -- one request at a time ---------------------------------------------

    def _read(self) -> None:
        """Read the next request off the buffer: its head once the blank
        line is in, then its body once all of it is."""
        buffer = self.buffer
        if self.need is None:
            end = _head_end(buffer, max(0, self.scanned - 3))
            if end < 0:
                self.scanned = len(buffer)
                if len(buffer) > _MAX_HEAD:
                    self._refuse_head()
                return
            head = bytes(buffer[:end])
            del buffer[:end]
            self.scanned = 0
            try:
                self.need = self.handler.read_request(head)
            except Exception:
                self._fail()
                return
            if self.handler.wfile:       # 100 Continue, or the refusal
                self._flush()
            if self.need is None:        # answered from its head
                self.transport.close()
                return
        if len(buffer) < self.need:
            return
        body = bytes(buffer[:self.need])
        del buffer[:self.need]
        self.need = None
        try:
            self.handler.read_body(body)
        except Exception:
            self._fail()
            return
        self.waiting = True
        self.daemon._answer_later(self)

    def answer(self) -> None:
        """Answer the request read last, then read the next one in."""
        handler = self.handler
        try:
            handler.answer_request()
        except Exception:
            self._fail()
            return
        self.waiting = False
        if self.transport.is_closing():  # the client left, or stop()
            handler.wfile.clear()
            return
        self._flush()
        self._arm()                      # idle, and the answer's deadline
        if handler.close_connection:
            self.transport.close()
        else:
            self._next()

    def _next(self) -> None:
        """Read the next buffered request, unless the client is behind on
        its answers; a half-closed client with none left is closed."""
        if self.paused:
            return
        self._read()
        if self.eof and not self.waiting:
            self.transport.close()

    def _flush(self) -> None:
        """Write the handler's output in one write."""
        output = self.handler.wfile
        self.transport.write(b"".join(output))
        output.clear()

    def _refuse_head(self) -> None:
        handler = self.handler
        handler.requestline = handler.request_version = handler.command = ""
        handler.send_error(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE)
        self._flush()
        self.transport.close()

    def _fail(self) -> None:
        """A handler raised: report it and drop only this connection."""
        import traceback      # as socketserver does: only on an error

        print("-" * 40, file=sys.stderr)
        print("Exception occurred during processing of request from",
              self.handler.client_address, file=sys.stderr)
        traceback.print_exc()
        print("-" * 40, file=sys.stderr)
        self.handler.wfile.clear()
        self.waiting = False
        self.transport.close()

    # -- deadlines ---------------------------------------------------------

    def _arm(self) -> None:
        """Restart the deadline: now plus the handler's timeout."""
        timeout = self.handler.timeout
        self.deadline = self.loop.time() + timeout
        if self.timer is None:
            self.timer = self.loop.call_later(timeout, self._expire)

    def _expire(self) -> None:
        self.timer = None
        if self.waiting:
            return                       # answer() re-arms
        remaining = self.deadline - self.loop.time()
        if remaining > 0:
            self.timer = self.loop.call_later(remaining, self._expire)
            return
        transport = self.transport
        if transport.get_write_buffer_size():
            # The client has stopped reading: a close would wait for it.
            self.handler.timed_out()
            transport.abort()
        elif not transport.is_closing():
            if self.buffer or self.need is not None:
                self.handler.timed_out()
            transport.close()


def _run_forever(loop) -> None:
    try:
        loop.run_forever()
    finally:
        loop.close()


class HttpDaemon:
    """An HTTP listener whose connections are callbacks on one event loop.

    Parameters
    ----------
    handler:
        The :class:`QuietHandler` subclass that routes requests.
    port:
        TCP port; ``0`` binds an ephemeral port (read :attr:`port` after
        :meth:`start` for the resolved value — what the tests use).
    host:
        Bind address; loopback by default.
    context:
        Attributes handlers reach as ``self.server.<name>``.
    """

    def __init__(self, handler: Type[QuietHandler], port: int = 0,
                 host: str = "127.0.0.1", name: str = "repro-httpd",
                 **context):
        self._handler = handler
        self._requested = (host, int(port))
        self._name = name
        self.server = SimpleNamespace(**context)
        self._loop = None
        self._listener = None          # the asyncio.Server
        self._thread: Optional[threading.Thread] = None   # a private loop's
        self._port: Optional[int] = None
        self._connections: set = set()
        self._ready: list = []         # connections read, to answer next pass

    @property
    def port(self) -> int:
        """The bound port (resolves ephemeral requests after start)."""
        return self._port if self._port is not None else self._requested[1]

    @property
    def host(self) -> str:
        return self._requested[0]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def running(self) -> bool:
        return self._listener is not None

    def start(self, loop=None) -> "HttpDaemon":
        """Bind in the calling thread, then serve on ``loop``.

        ``loop`` is a running asyncio loop owned by the caller; without
        one the daemon starts a private loop thread.  A port that cannot
        be bound raises :class:`OSError` here, before anything runs.
        """
        if self._listener is not None:
            raise RuntimeError(f"{self._name} already started")
        # Imported here: the virtual-time runtimes import this module
        # (through repro.obs) and must not load asyncio.
        import asyncio

        # SO_REUSEADDR (set on POSIX), so a restart never trips over the
        # previous socket's TIME_WAIT.
        sock = socket.create_server(self._requested)
        try:
            if loop is None:
                loop = asyncio.new_event_loop()
                thread = threading.Thread(
                    target=_run_forever, args=(loop,), name=self._name,
                    daemon=True)
                thread.start()
                self._thread = thread
            self._loop = loop
            self._listener = asyncio.run_coroutine_threadsafe(
                loop.create_server(lambda: _Connection(self), sock=sock),
                loop).result()
        except BaseException:
            sock.close()
            self._stop_thread()
            self._loop = None
            raise
        self._port = sock.getsockname()[1]
        return self

    def _answer_later(self, connection: _Connection) -> None:
        """Answer ``connection``'s request on the loop's next pass."""
        if not self._ready:
            self._loop.call_soon(self._answer_ready)
        self._ready.append(connection)

    def _answer_ready(self) -> None:
        ready, self._ready = self._ready, []
        for connection in ready:
            connection.answer()

    def stop(self) -> None:
        """Close the listener and every connection on the loop, then stop
        a private loop and join its thread."""
        listener, loop = self._listener, self._loop
        if listener is None:
            return
        closed = threading.Event()

        def close() -> None:
            listener.close()
            for connection in list(self._connections):
                connection.transport.abort()
            # Queued behind the aborts' connection_lost callbacks.
            loop.call_soon(closed.set)

        try:
            loop.call_soon_threadsafe(close)
        except RuntimeError:             # the loop's owner closed it first
            listener.close()
        else:
            closed.wait(5.0)
        self._stop_thread()
        self._listener = self._loop = None

    def _stop_thread(self) -> None:
        thread = self._thread
        if thread is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
            thread.join(5.0)
            self._thread = None

    def __enter__(self) -> "HttpDaemon":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def __repr__(self) -> str:
        state = "serving" if self.running else "stopped"
        return f"HttpDaemon({self.url!r}, {state})"
