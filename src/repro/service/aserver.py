"""The sweep service's HTTP transport: ``repro serve``.

:class:`AsyncSweepServer` puts the :class:`ServiceCore` (routes, frame
codec, cache, coalescing, group commit) on the network from a single
``asyncio`` event loop:

* **The loop owns every socket.**  :class:`_Connection` is an
  ``asyncio.Protocol``; an incremental HTTP/1.1 parser
  (:class:`_RequestParser`) accepts partial reads and multiple
  pipelined requests per ``data_received`` buffer, so ten thousand idle
  connections cost file descriptors and parser state, not threads.
  Request bodies are capped at 256 MiB and heads at 64 KiB.
* **Compute runs on a bounded pool.**  Each parsed request is handed to
  a ``ThreadPoolExecutor`` (``workers`` threads, total — not per
  connection) via ``run_in_executor``; the loop never blocks on the
  disk tier, the planner, or NumPy.  The one exception is a warm hit in
  the memory tier
  (:meth:`~repro.service.server.ServiceCore.memory_response`): a dict
  probe and a frame header, answered on the loop because the two
  thread hand-offs would cost more than the hit itself.
* **Pipelined responses keep request order.**  HTTP/1.1 pipelining lets
  a client send N requests before reading one response; responses MUST
  come back in request order.  Each connection keeps an ordered queue
  of response futures and a single writer task that awaits the head —
  requests *compute* concurrently on the pool but *serialize* onto the
  socket in arrival order.
* **Backpressure, not buffering.**  When a connection's in-flight
  window reaches ``max_pipeline``, the transport stops reading
  (``pause_reading``) until the writer catches up — a client blasting
  requests cannot balloon server memory.
* **Zero-copy frame writes.**  Binary-frame responses reach the socket
  as the same ``memoryview`` chunks :func:`repro.service.frame.encode_frame`
  produced — each cached array's buffer is handed to
  ``transport.write`` directly; small responses gather into one write
  (warm hits are latency-bound on syscalls, not bandwidth).

Lifecycle: ``read_timeout_s`` reaps idle and half-open connections
(slowloris hardening), and shutdown stops accepting, 503s new requests,
drains in-flight ones (responses written, not just computed) within
``drain_timeout_s``, then flushes the cache.
"""

from __future__ import annotations

import asyncio
import signal
import socket
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor

from repro.errors import ReproError
from repro.service.server import (
    DEFAULT_DRAIN_TIMEOUT_S,
    DEFAULT_PORT,
    DEFAULT_READ_TIMEOUT_S,
    Response,
    ServiceCore,
)

__all__ = ["AsyncSweepServer", "DEFAULT_WORKERS", "DEFAULT_MAX_PIPELINE"]

#: Compute threads shared by every connection — the whole point: the
#: thread count is a function of the worker pool, not the client count.
DEFAULT_WORKERS = 8

#: Per-connection in-flight request window; past it the transport stops
#: reading until responses drain (HTTP/1.1 pipelining backpressure).
DEFAULT_MAX_PIPELINE = 64

#: A request head (request line + headers) larger than this is not a
#: request — 431 and hang up.
_MAX_HEAD_BYTES = 64 * 1024

#: Largest accepted request body: one ``/v1/compute`` JSON request.
_MAX_BODY_BYTES = 256 * 2**20

#: Bodies at most this large are gathered into one ``transport.write``;
#: larger ones hand each chunk (the arrays' own buffers) to the
#: transport individually.
_GATHER_BYTES = 256 * 1024

class _HttpError(Exception):
    """A protocol violation: answer ``status`` and close the connection."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class _Request:
    """One fully parsed request, ready for :meth:`ServiceCore.handle_request`."""

    __slots__ = ("method", "path", "headers", "body", "close")

    def __init__(
        self,
        method: str,
        path: str,
        headers: dict[str, str],
        body: bytes,
        close: bool,
    ) -> None:
        self.method = method
        self.path = path
        self.headers = headers
        self.body = body
        self.close = close


class _RequestParser:
    """Incremental HTTP/1.1 request parser.

    ``feed`` accepts arbitrary byte slices — half a header, three
    pipelined requests and the start of a fourth, a body split across
    reads — and returns every request completed so far.  State between
    calls is the unconsumed buffer plus the half-parsed head, so memory
    is bounded by one request, not the connection's history.

    Structural violations raise :class:`_HttpError`; the connection
    answers it and closes (parser state is unrecoverable mid-stream).
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._head: tuple[str, str, dict[str, str], int, bool] | None = None

    @property
    def mid_request(self) -> bool:
        """Bytes of an unfinished request are sitting in the buffer."""
        return bool(self._buffer) or self._head is not None

    def feed(self, data: bytes) -> list[_Request]:
        self._buffer += data
        requests: list[_Request] = []
        while True:
            request = self._parse_one()
            if request is None:
                return requests
            requests.append(request)

    def _parse_one(self) -> _Request | None:
        if self._head is None:
            end = self._buffer.find(b"\r\n\r\n")
            if end < 0:
                if len(self._buffer) > _MAX_HEAD_BYTES:
                    raise _HttpError(431, "request head exceeds 64 KiB")
                return None
            self._head = self._parse_head(bytes(self._buffer[:end]))
            del self._buffer[: end + 4]
        method, path, headers, body_len, close = self._head
        if len(self._buffer) < body_len:
            return None
        body = bytes(self._buffer[:body_len])
        del self._buffer[:body_len]
        self._head = None
        return _Request(method, path, headers, body, close)

    @staticmethod
    def _parse_head(head: bytes) -> tuple[str, str, dict[str, str], int, bool]:
        try:
            lines = head.decode("latin-1").split("\r\n")
        except UnicodeDecodeError:  # latin-1 never fails; keep mypy honest
            raise _HttpError(400, "undecodable request head") from None
        parts = lines[0].split()
        if len(parts) != 3:
            raise _HttpError(400, f"malformed request line {lines[0]!r}")
        method, path, version = parts
        if not version.startswith("HTTP/1."):
            raise _HttpError(505, f"unsupported protocol {version!r}")
        headers: dict[str, str] = {}
        for line in lines[1:]:
            name, sep, value = line.partition(":")
            if not sep or not name or name != name.strip():
                raise _HttpError(400, f"malformed header line {line!r}")
            # Duplicate headers: last wins, matching http.client's
            # behaviour for the headers this service reads.
            headers[name.lower()] = value.strip()
        if "chunked" in headers.get("transfer-encoding", "").lower():
            raise _HttpError(501, "chunked request bodies are not supported")
        raw_length = headers.get("content-length", "0")
        try:
            body_len = int(raw_length)
        except ValueError:
            raise _HttpError(400, f"bad Content-Length {raw_length!r}") from None
        if body_len < 0:
            raise _HttpError(400, f"bad Content-Length {raw_length!r}")
        if body_len > _MAX_BODY_BYTES:
            raise _HttpError(413, "request body exceeds the 256 MiB limit")
        connection = headers.get("connection", "").lower()
        close = "close" in connection or (
            version == "HTTP/1.0" and "keep-alive" not in connection
        )
        return method, path, headers, body_len, close


class _Connection(asyncio.Protocol):
    """One client connection: parse, dispatch, write back in order.

    Everything here runs on the event loop thread except the compute
    itself — request handling other than a warm memory-tier hit is
    posted to the server's executor, and
    the per-connection ``_pending`` queue (request-order futures) is
    loop-confined state, so no locks are needed or taken.
    """

    def __init__(self, app: "AsyncSweepServer") -> None:
        self.app = app
        self.transport: asyncio.Transport | None = None
        self.parser = _RequestParser()
        #: Responses owed to this connection, in request order.  Each
        #: entry is ``(future, owes_end)`` — ``owes_end`` marks futures
        #: whose request was admitted and must be balanced with
        #: ``end_request`` once the response hits the socket.
        self._pending: deque[tuple[asyncio.Future[Response], bool]] = deque()
        self._writer: asyncio.Task[None] | None = None
        self._paused = False
        self._broken = False
        self._last_activity = 0.0
        self._idle_handle: asyncio.TimerHandle | None = None

    # ------------------------------------------------------------- lifecycle

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        assert isinstance(transport, asyncio.Transport)
        self.transport = transport
        sock = transport.get_extra_info("socket")
        if sock is not None:
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass  # e.g. a unix socket in tests; Nagle is TCP-only
        loop = asyncio.get_running_loop()
        self._last_activity = loop.time()
        self.app._register(self)
        if self.app.read_timeout_s > 0:
            self._idle_handle = loop.call_later(
                self.app.read_timeout_s, self._check_idle
            )

    def connection_lost(self, exc: Exception | None) -> None:
        self.app._unregister(self)
        if self._idle_handle is not None:
            self._idle_handle.cancel()
            self._idle_handle = None
        self.transport = None
        # The writer task keeps draining _pending: it awaits each
        # future (consuming exceptions) and balances end_request, it
        # just skips the socket writes.

    def _check_idle(self) -> None:
        """Reap idle/half-open sockets: the slowloris hardening."""
        if self.transport is None:
            return
        loop = asyncio.get_running_loop()
        idle = loop.time() - self._last_activity
        if idle >= self.app.read_timeout_s and not self._pending:
            if self.parser.mid_request:
                # A half-sent request died mid-flight; tell the client
                # why before hanging up (best-effort).
                response = self.app.error_response(
                    "timed out waiting for the rest of the request", 408, close=True
                )
                self.transport.write(response.head_bytes())
                self.transport.write(response.body_bytes())
            self.transport.close()
            return
        self._idle_handle = loop.call_later(
            max(self.app.read_timeout_s - idle, 0.01), self._check_idle
        )

    # ------------------------------------------------------------------ read

    def data_received(self, data: bytes) -> None:
        if self._broken or self.transport is None:
            return
        loop = asyncio.get_running_loop()
        self._last_activity = loop.time()
        try:
            requests = self.parser.feed(data)
        except _HttpError as exc:
            # Parser state is unrecoverable; answer (after anything
            # already queued) and close.  Stop reading — whatever else
            # the client sends cannot be framed.
            self._broken = True
            if not self._paused:
                self.transport.pause_reading()
                self._paused = True
            self._enqueue_ready(
                self.app.error_response(exc.message, exc.status, close=True),
                owes_end=False,
            )
            return
        for request in requests:
            self._dispatch(request, loop)

    def _dispatch(self, request: _Request, loop: asyncio.AbstractEventLoop) -> None:
        if not self.app.begin_request():
            self._enqueue_ready(
                self.app.error_response("server is draining", 503, close=True),
                owes_end=False,
            )
            return
        response = self.app.memory_response(request.method, request.path, request.body)
        if response is not None:
            # A warm memory hit costs less than the executor hand-off.
            response.close = request.close
            self._enqueue_ready(response, owes_end=True)
            return
        future = loop.run_in_executor(self.app.executor, self._work, request)
        if request.close:
            future = self._with_close(future, loop)
        self._enqueue(future, owes_end=True)

    def _work(self, request: _Request) -> Response:
        """Executor-side: the shared core does all the real work."""
        return self.app.handle_request(request.method, request.path, request.body)

    @staticmethod
    def _with_close(
        future: asyncio.Future[Response], loop: asyncio.AbstractEventLoop
    ) -> asyncio.Future[Response]:
        """Honor the request's ``Connection: close`` on its response."""

        async def wrap() -> Response:
            response = await future
            response.close = True
            return response

        return loop.create_task(wrap())

    # ----------------------------------------------------------------- write

    def _enqueue_ready(self, response: Response, owes_end: bool) -> None:
        future: asyncio.Future[Response] = asyncio.get_running_loop().create_future()
        future.set_result(response)
        self._enqueue(future, owes_end=owes_end)

    def _enqueue(self, future: asyncio.Future[Response], owes_end: bool) -> None:
        self._pending.append((future, owes_end))
        if (
            not self._paused
            and self.transport is not None
            and len(self._pending) >= self.app.max_pipeline
        ):
            # In-flight window full: stop reading until the writer
            # catches up.  The client's send() backs up instead of the
            # server's memory.
            self.transport.pause_reading()
            self._paused = True
        if self._writer is None:
            self._writer = asyncio.get_running_loop().create_task(
                self._write_responses()
            )

    async def _write_responses(self) -> None:
        """The per-connection writer: one response at a time, in order.

        Requests compute concurrently on the pool; this task alone
        touches the transport, so pipelined responses cannot interleave
        or reorder.
        """
        # Small responses that are ready back to back (a pipelined burst
        # of warm hits) are gathered into one write; ``owed`` counts
        # their end_request calls, made only once the bytes are written.
        gathered: list[bytes | memoryview] = []
        owed = 0
        while self._pending:
            future, owes_end = self._pending[0]
            if not future.done():
                owed = self._flush(gathered, owed)
            try:
                response = await future
            except (Exception, asyncio.CancelledError) as exc:
                # handle_request never raises; this is executor
                # teardown racing shutdown.  The connection is closing
                # anyway — answer 503 if the socket is still up.
                response = self.app.error_response(
                    f"request aborted: {type(exc).__name__}", 503, close=True
                )
            self._pending.popleft()
            transport = self.transport
            if transport is not None and not transport.is_closing():
                self._last_activity = asyncio.get_running_loop().time()
                gathered.append(response.head_bytes())
                if response.content_length <= _GATHER_BYTES:
                    gathered.extend(response.chunks)
                else:
                    owed = self._flush(gathered, owed)
                    for chunk in response.chunks:
                        # memoryview chunks alias the cached arrays —
                        # the zero-copy path all the way down.
                        transport.write(chunk)
                if response.close:
                    owed = self._flush(gathered, owed)
                    transport.close()
            if owes_end:
                owed += 1
            if (
                self._paused
                and self.transport is not None
                and len(self._pending) <= self.app.max_pipeline // 2
            ):
                self.transport.resume_reading()
                self._paused = False
        self._flush(gathered, owed)
        # No await between the emptiness check and this hand-off, so a
        # data_received on the same loop cannot slip a request in
        # unnoticed: it would see _writer set and enqueue normally.
        self._writer = None

    def _flush(self, gathered: list[bytes | memoryview], owed: int) -> int:
        """Write the gathered responses, then balance their end_request.

        Returns the debt left, zero, for the caller to carry on from.
        """
        transport = self.transport
        if gathered and transport is not None and not transport.is_closing():
            transport.write(b"".join(gathered))
        gathered.clear()
        for _ in range(owed):
            self.app.end_request()
        return 0

    @property
    def busy(self) -> bool:
        """Responses still owed (shutdown waits for these to flush)."""
        return bool(self._pending)


class AsyncSweepServer(ServiceCore):
    """``repro serve``: the :class:`ServiceCore` on an event loop.

    Connection scalability is decoupled from the thread count: the loop
    holds every socket, and ``workers`` executor threads bound the
    compute concurrency no matter how many clients connect.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks an ephemeral port.  The listener
        is bound here, so :attr:`url` names the real port before the
        loop starts.
    workers:
        Compute threads shared by all connections.
    max_pipeline:
        Per-connection in-flight request window before the transport
        stops reading (pipelining backpressure).
    **core keyword arguments**:
        See :class:`ServiceCore`.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        cache_dir: str | None = None,
        max_cache_mb: float | None = None,
        compute_timeout_s: float = 600.0,
        read_timeout_s: float = DEFAULT_READ_TIMEOUT_S,
        drain_timeout_s: float = DEFAULT_DRAIN_TIMEOUT_S,
        workers: int = DEFAULT_WORKERS,
        max_pipeline: int = DEFAULT_MAX_PIPELINE,
    ) -> None:
        super().__init__(
            cache_dir=cache_dir,
            max_cache_mb=max_cache_mb,
            compute_timeout_s=compute_timeout_s,
            read_timeout_s=read_timeout_s,
            drain_timeout_s=drain_timeout_s,
        )
        self.workers = max(1, int(workers))
        self.max_pipeline = max(1, int(max_pipeline))
        self.executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-sweepd"
        )
        self._sock = socket.create_server((host, port))
        sockname = self._sock.getsockname()
        self._address = (str(sockname[0]), int(sockname[1]))
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._connections: set[_Connection] = set()  # loop-confined
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._thread: threading.Thread | None = None

    # ---------------------------------------------------------------- address

    @property
    def host(self) -> str:
        return self._address[0]

    @property
    def port(self) -> int:
        return self._address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------- loop-confined registry

    def _register(self, connection: _Connection) -> None:
        self._connections.add(connection)

    def _unregister(self, connection: _Connection) -> None:
        self._connections.discard(connection)

    @property
    def connection_count(self) -> int:
        """Open connections right now (the bench's scalability figure)."""
        return len(self._connections)

    # ---------------------------------------------------------------- running

    def serve_forever(self) -> None:
        """Run the event loop until :meth:`shutdown` (or SIGTERM/SIGINT)."""
        asyncio.run(self._run_loop())

    async def _run_loop(self) -> None:
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._stop_event = asyncio.Event()
        handled_signals: list[signal.Signals] = []
        try:
            server = await loop.create_server(lambda: _Connection(self), sock=self._sock)
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            raise
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self._stop_event.set)
                handled_signals.append(signum)
            except (NotImplementedError, ValueError, RuntimeError):
                break  # not the main thread (start_background) or no unix signals
        self._ready.set()
        try:
            await self._stop_event.wait()
        finally:
            for signum in handled_signals:
                loop.remove_signal_handler(signum)
            # 1. Stop accepting.  2. Drain (new requests 503 while
            # in-flight ones finish computing AND writing — end_request
            # fires after the socket write).  3. Close what remains.
            server.close()
            await server.wait_closed()
            await loop.run_in_executor(None, self.drain)
            deadline = loop.time() + 1.0
            while any(c.busy for c in self._connections) and loop.time() < deadline:
                await asyncio.sleep(0.01)
            for connection in list(self._connections):
                if connection.transport is not None:
                    connection.transport.close()
            self.executor.shutdown(wait=False)
            self.flush()
            self._loop = None
            self._stop_event = None

    def start_background(self) -> "AsyncSweepServer":
        """Serve on a daemon thread (tests, benches, the quickstart)."""
        self._ready.clear()
        self._startup_error = None
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise ReproError("asyncio sweep server did not start within 30 s")
        if self._startup_error is not None:
            error = self._startup_error
            self._thread.join(timeout=5.0)
            self._thread = None
            raise ReproError(f"asyncio sweep server failed to start: {error}")
        return self

    def shutdown(self) -> None:
        """Graceful stop from any thread: drain, flush, join the loop."""
        loop, stop = self._loop, self._stop_event
        if loop is not None and stop is not None:
            try:
                loop.call_soon_threadsafe(stop.set)
            except RuntimeError:
                pass  # the loop finished on its own in the meantime
        if self._thread is not None:
            self._thread.join(timeout=30.0)
            self._thread = None
        self._sock.close()  # a server that never ran still holds it

    def __enter__(self) -> "AsyncSweepServer":
        return self.start_background()

    def __exit__(self, *exc: object) -> None:
        self.shutdown()
