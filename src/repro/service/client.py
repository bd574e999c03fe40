"""The sweep server's client: family requests in, exact arrays out.

:class:`ServiceClient` wraps the daemon's HTTP surface with exact array
round-tripping.  Its one way to ask for a result is a family request
(:mod:`repro.graph.families`) posted to ``/v1/compute``:
``client.compute(family_for(kind).payload(...))``, or many at once
through :meth:`ServiceClient.compute_many`.  ``/healthz`` and
``/v1/stats`` are the only other routes, both bodiless GETs.
:meth:`ServiceClient.allocation_curve` returns the allocation family's
result as an :class:`~repro.batch.AllocationCurve`.

Transport: every request — one compute, a pipelined batch, ``/healthz``,
``/v1/stats`` — is written as raw HTTP/1.1 bytes to a keep-alive socket (Nagle off) from a thread-safe pool, and its reply
is read back by one small buffered parser.  A warm request therefore
costs one socket write and one read, not a TCP handshake.  The parser
frames replies by ``Content-Length`` only, which is all the daemon
sends; a chunked or close-delimited reply is a protocol error, never a
misread body.  Every request is replayable — the routes are GETs and
the pure ``/v1/compute`` POST — so a stale pooled socket (the server
closed an idle keep-alive connection) is replayed on a fresh
connection, and genuinely transient transport errors get a bounded
exponential-backoff retry.  One loop does both for every request.

Protocol: compute results come back as binary frames
(:mod:`repro.service.frame`).  Requests, errors, ``/healthz`` and
``/v1/stats`` are JSON.

Retries back off with *full jitter*: the nth retry sleeps a uniform
random duration in ``[0, backoff_s * 2**n]`` rather than the
deterministic cap, so a fleet of clients reconnecting to a restarted
daemon spreads out instead of stampeding in lockstep.  Tests inject a
seeded :class:`random.Random` to keep the schedule exact.

Pipelining: :meth:`ServiceClient.compute_many` sends up to ``pipeline``
requests down one pooled keep-alive socket before reading the first
response (HTTP/1.1 pipelining).  The daemon computes the requests
concurrently on its worker pool while the responses come back in
order — one connection, no client threads, and the per-request round
trip amortized across the window.  :meth:`ServiceClient.compute` is the
same path at depth 1.
"""

from __future__ import annotations

import json
import random
import socket
import threading
import time
import urllib.parse
from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.parameters import DEFAULT_T_FLOP
from repro.errors import ReproError
from repro.service.frame import (
    FRAME_CONTENT_TYPE,
    FrameError,
    decode_frame,
)
from repro.service.schema import allocation_payload

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(ReproError, RuntimeError):
    """The sweep server rejected a request or could not be reached."""


class _ProtocolError(Exception):
    """A reply this client cannot frame: not worth a retry."""


#: ``(status, content type, body)`` of one reply.
_Reply = tuple[int, str, bytes]


class _SocketReader:
    """Minimal buffered HTTP/1.1 response reader.

    Parses exactly what the sweep daemon sends — a status line, headers,
    and a ``Content-Length`` body — and leaves any unconsumed bytes
    buffered for the next response, so N pipelined replies come off one
    socket.  A reply without ``Content-Length``, or with any
    ``Transfer-Encoding``, raises :class:`_ProtocolError`: its body
    could not be delimited.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._buffer = bytearray()

    @property
    def clean(self) -> bool:
        """No leftover bytes — the socket is safe to return to the pool."""
        return not self._buffer

    def _fill(self) -> None:
        chunk = self._sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buffer += chunk

    def read_response(self) -> tuple[int, str, bytes, bool]:
        """One response: ``(status, content_type, body, close)``."""
        while True:
            end = self._buffer.find(b"\r\n\r\n")
            if end >= 0:
                break
            self._fill()
        lines = self._buffer[:end].decode("latin-1").split("\r\n")
        del self._buffer[: end + 4]
        parts = lines[0].split(None, 2)
        if (
            len(parts) < 2
            or not parts[0].startswith("HTTP/1.")
            or not parts[1].isdigit()
        ):
            raise _ProtocolError(f"bad status line {lines[0]!r}")
        headers: dict[str, str] = {}
        for line in lines[1:]:
            name, _sep, value = line.partition(":")
            headers[name.lower()] = value.strip()
        if "transfer-encoding" in headers:
            raise _ProtocolError(
                f"unsupported Transfer-Encoding {headers['transfer-encoding']!r}"
            )
        raw_length = headers.get("content-length")
        if raw_length is None or not raw_length.isdigit():
            raise _ProtocolError(f"bad or missing Content-Length {raw_length!r}")
        length = int(raw_length)
        while len(self._buffer) < length:
            self._fill()
        if len(self._buffer) == length:
            body = bytes(self._buffer)
            self._buffer.clear()
        else:
            body = bytes(self._buffer[:length])
            del self._buffer[:length]
        connection = headers.get("connection", "").lower()
        close = "close" in connection or (
            parts[0] == "HTTP/1.0" and "keep-alive" not in connection
        )
        return int(parts[1]), headers.get("content-type", ""), body, close


class _Connection:
    """One keep-alive socket to the daemon, connected on first use.

    Nagle is off: request and response each fit one small burst, and
    letting Nagle hold the last segment behind a delayed ACK costs
    ~40 ms per round trip on an otherwise sub-millisecond warm hit.
    """

    def __init__(self, host: str, port: int, timeout: float) -> None:
        self._address = (host, port)
        self._timeout = timeout
        self.sock: socket.socket | None = None

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None

    def exchange(self, requests: Sequence[bytes], depth: int) -> list[_Reply]:
        """Send ``requests`` and read their replies, in order.

        Keeps a window: at most ``depth`` requests are on the wire ahead
        of the replies read back, which matches the server's own
        per-connection in-flight bound instead of blasting the whole
        batch blind.  Any failure, including a reply that closes the
        connection before the last one, closes the socket and
        propagates.  A socket the server closed, or one holding unread
        bytes, is closed too, so the pool drops it.
        """
        try:
            sock = self.sock
            if sock is None:
                sock = socket.create_connection(self._address, timeout=self._timeout)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self.sock = sock
            reader = _SocketReader(sock)
            replies: list[_Reply] = []
            sent = 0
            closed = False
            while len(replies) < len(requests):
                # Refill the window once half of it has drained, in one
                # write: fewer, larger segments for both ends to handle.
                if sent < len(requests) and sent - len(replies) <= depth // 2:
                    upto = min(len(requests), len(replies) + depth)
                    sock.sendall(
                        requests[sent] if upto == sent + 1
                        else b"".join(requests[sent:upto])
                    )
                    sent = upto
                status, ctype, body, closed = reader.read_response()
                replies.append((status, ctype, body))
                if closed and len(replies) < len(requests):
                    raise ConnectionError("server closed the connection mid-pipeline")
        except BaseException:
            self.close()
            raise
        if closed or not reader.clean:
            self.close()
        return replies


class _ConnectionPool:
    """A bounded stack of reusable keep-alive connections to one host.

    ``acquire`` pops an idle connection (or makes a fresh one);
    ``release`` returns a healthy connection for the next request,
    closing it instead once ``size`` are already idle, and dropping one
    whose socket is already closed.  Threads beyond ``size`` are never
    blocked — they just pay for a fresh socket.
    """

    def __init__(self, host: str, port: int, timeout: float, size: int) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.size = max(1, int(size))
        self._lock = threading.Lock()
        self._idle: list[_Connection] = []  # guarded-by: _lock

    def acquire(self) -> tuple[_Connection, bool]:
        """``(connection, pooled)`` — ``pooled`` means it may be stale."""
        with self._lock:
            if self._idle:
                return self._idle.pop(), True
        return _Connection(self.host, self.port, self.timeout), False

    def release(self, connection: _Connection) -> None:
        if connection.sock is None:
            return
        with self._lock:
            if len(self._idle) < self.size:
                self._idle.append(connection)
                return
        connection.close()

    def close(self) -> None:
        with self._lock:
            idle = self._idle
            self._idle = []
        for connection in idle:
            connection.close()


class ServiceClient:
    """HTTP client for a running :class:`~repro.service.AsyncSweepServer`.

    Parameters
    ----------
    base_url:
        ``http://host:port`` of the daemon (a path prefix is honored).
    timeout:
        Per-request socket timeout in seconds.
    pool_size:
        Keep-alive connections retained for reuse; concurrent callers
        beyond this open (and afterwards discard) extra sockets.
    retries, backoff_s:
        Bounded retry budget for transient transport errors.  The nth retry sleeps a full-jitter
        uniform duration in ``[0, backoff_s * 2**n]``, so concurrent
        clients retrying a restarted daemon spread out instead of
        stampeding in lockstep.  ``retries=0`` disables everything
        except the single stale-socket replay that keep-alive pooling
        requires.
    pipeline:
        Default HTTP/1.1 pipelining depth for :meth:`compute_many`:
        how many requests ride one socket before the first response is
        read.  ``1`` (the default) keeps every call strictly
        request-response.
    rng:
        Source of retry jitter; inject a seeded :class:`random.Random`
        to make the backoff schedule deterministic (tests).
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 120.0,
        pool_size: int = 4,
        retries: int = 2,
        backoff_s: float = 0.05,
        pipeline: int = 1,
        rng: random.Random | None = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        target = self.base_url if "://" in self.base_url else f"http://{self.base_url}"
        split = urllib.parse.urlsplit(target)
        if split.scheme != "http":
            raise ServiceError(
                f"unsupported scheme {split.scheme!r} in {base_url!r}: the sweep "
                "daemon speaks plain http"
            )
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff_s = float(backoff_s)
        self.pipeline = max(1, int(pipeline))
        self._rng = rng if rng is not None else random.Random()
        self._prefix = split.path.rstrip("/")
        self._pool = _ConnectionPool(
            split.hostname or "127.0.0.1", split.port or 80, timeout, pool_size
        )
        self._host_line = f"Host: {self._pool.host}:{self._pool.port}\r\n"
        #: How the server answered the most recent compute call —
        #: ``memory``/``disk``/``coalesced``/``batched``/``computed``.
        self.last_served: str | None = None

    def close(self) -> None:
        """Drop pooled connections (idle daemons, test teardown)."""
        self._pool.close()

    # ------------------------------------------------------------- transport

    def _retry_delay(self, attempt: int) -> float:
        """Full-jitter backoff: uniform over ``[0, backoff_s * 2**attempt]``.

        The *cap* grows exponentially; the draw is uniform below it, so
        N clients that all failed at the same instant retry at N
        different times.  Deterministic under an injected seeded
        ``rng``.
        """
        return self._rng.uniform(0.0, self.backoff_s * (2.0**attempt))

    def _raw_request(
        self,
        method: str,
        path: str,
        data: bytes | None = None,
        content_type: str | None = None,
        accept: str | None = None,
    ) -> bytes:
        """One request as the bytes that go on the wire."""
        head = f"{method} {self._prefix}{path} HTTP/1.1\r\n{self._host_line}"
        if content_type is not None:
            head += f"Content-Type: {content_type}\r\n"
        if accept is not None:
            head += f"Accept: {accept}\r\n"
        if data is None:
            return (head + "\r\n").encode("ascii")
        return (head + f"Content-Length: {len(data)}\r\n\r\n").encode("ascii") + data

    def _exchange(self, requests: Sequence[bytes], depth: int) -> list[_Reply]:
        """Send ``requests`` over a pooled connection; their replies, in order.

        A transport failure on a *pooled* connection is replayed on a
        fresh socket without consuming the retry budget — that is the
        normal fate of a keep-alive socket the server timed out, not a
        server problem.  Fresh-connection failures consume ``retries``
        with full-jitter backoff.  Either replay resends every request,
        which is safe because every route is pure.  Timeouts and replies
        that cannot be framed are never retried.
        """
        attempts = 0
        replays = 0
        while True:
            connection, pooled = self._pool.acquire()
            try:
                replies = connection.exchange(requests, depth)
            except TimeoutError:
                raise ServiceError(
                    f"sweep server timed out at {self.base_url} after {self.timeout}s"
                ) from None
            except ConnectionError as exc:
                if pooled and replays <= self._pool.size:
                    replays += 1  # a stale keep-alive socket, not a failure
                    continue
                if attempts < self.retries:
                    time.sleep(self._retry_delay(attempts))
                    attempts += 1
                    continue
                raise ServiceError(
                    f"sweep server unreachable at {self.base_url}: "
                    f"{type(exc).__name__}: {exc}"
                ) from None
            except OSError as exc:
                raise ServiceError(
                    f"sweep server unreachable at {self.base_url}: {exc}"
                ) from None
            except _ProtocolError as exc:
                raise ServiceError(
                    f"sweep server at {self.base_url} sent a malformed response: {exc}"
                ) from None
            self._pool.release(connection)
            return replies

    def _request(
        self,
        path: str,
        data: bytes | None = None,
        method: str = "GET",
        content_type: str | None = None,
        accept: str | None = None,
    ) -> tuple[int, str, bytes]:
        """One request over a pooled connection: ``(status, ctype, body)``."""
        request = self._raw_request(method, path, data, content_type, accept)
        (reply,) = self._exchange([request], 1)
        return reply

    def _parse_json(self, status: int, body: bytes, path: str) -> dict[str, Any]:
        try:
            decoded = json.loads(body)
        except json.JSONDecodeError:
            raise ServiceError(
                f"sweep server returned non-JSON ({status}) for {path}"
            ) from None
        if status != 200 or decoded.get("status") != "ok":
            raise ServiceError(
                decoded.get("error", f"sweep server error {status} for {path}")
            )
        return dict(decoded)

    def _json(self, path: str) -> dict[str, Any]:
        """``GET path``, bodiless, and its JSON reply."""
        status, _ctype, body = self._request(path)
        return self._parse_json(status, body, path)

    # ------------------------------------------------------------ endpoints

    def health(self) -> dict[str, Any]:
        return self._json("/healthz")

    def stats(self) -> dict[str, Any]:
        return self._json("/v1/stats")

    def _decode_compute_response(
        self, status: int, ctype: str, body: bytes
    ) -> dict[str, np.ndarray]:
        """Decode one ``/v1/compute`` response: a frame, or a JSON error."""
        if not ctype.startswith(FRAME_CONTENT_TYPE):
            self._parse_json(status, body, "/v1/compute")  # raises the error
            raise ServiceError(f"sweep server answered {ctype!r}, not a frame")
        try:
            arrays, meta = decode_frame(body)
        except FrameError as exc:
            raise ServiceError(f"sweep server sent a bad frame: {exc}") from None
        if status != 200 or meta.get("status") != "ok":
            raise ServiceError(str(meta.get("error", f"sweep server error {status}")))
        self.last_served = meta.get("served")
        return arrays

    def compute(self, payload: Mapping[str, Any]) -> dict[str, np.ndarray]:
        """POST one request; returns the named arrays, bit-exact."""
        return self.compute_many([payload], pipeline=1)[0]

    def compute_many(
        self,
        payloads: Sequence[Mapping[str, Any]],
        pipeline: int | None = None,
    ) -> list[dict[str, np.ndarray]]:
        """POST many requests, pipelined; one result list, request order.

        Up to ``pipeline`` (or the constructor default) requests are
        written to one pooled keep-alive socket before the first
        response is read — the server computes them concurrently and
        streams the responses back in order.  Depth 1 is plain
        request-response, which is what :meth:`compute` uses.  Each
        result is decoded the same way; when a batch has more than one
        request, a request the server rejected raises
        :class:`ServiceError` naming its index.

        ``/v1/compute`` is pure (same request, same bytes), so a
        transport failure replays the whole batch under the
        stale-socket-then-bounded-retries contract of :meth:`_exchange`.
        """
        depth = self.pipeline if pipeline is None else max(1, int(pipeline))
        if not payloads:
            return []
        requests = [
            self._raw_request(
                "POST",
                "/v1/compute",
                json.dumps(payload).encode(),
                "application/json",
                FRAME_CONTENT_TYPE,
            )
            for payload in payloads
        ]
        replies = self._exchange(requests, depth)
        results: list[dict[str, np.ndarray]] = []
        for index, reply in enumerate(replies):
            try:
                results.append(self._decode_compute_response(*reply))
            except ServiceError as exc:
                if len(replies) == 1:
                    raise
                raise ServiceError(
                    f"pipelined request {index} of {len(replies)} failed: {exc}"
                ) from None
        return results

    def allocation_curve(
        self,
        machine: str,
        stencil: str,
        kind: str,
        grid_sides: Any,
        t_flop: float = DEFAULT_T_FLOP,
        max_processors: float | None = None,
        integer: bool = False,
    ) -> Any:
        """The daemon-served :class:`repro.batch.AllocationCurve`."""
        from repro.batch.analysis import AllocationCurve
        from repro.stencils.perimeter import PartitionKind

        arrays = self.compute(
            allocation_payload(
                machine, stencil, kind, grid_sides, t_flop, max_processors, integer
            )
        )
        return AllocationCurve.from_arrays(arrays, PartitionKind(kind))
