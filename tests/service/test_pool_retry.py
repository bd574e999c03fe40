"""Connection pooling and retry against a deliberately flaky server.

The keep-alive pool's failure modes are all timing-shaped — a server
that closed an idle socket, a connection reset mid-restart, a daemon
that drops the first N connection attempts — so these tests build
in-process servers that misbehave *on demand* and pin the client
contract: stale sockets are replayed invisibly and transient errors are
retried with bounded backoff.  Raw-socket stubs pin how a reply is
framed: only by ``Content-Length``, never by a guess.
"""

from __future__ import annotations

import random
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from repro.service import AsyncSweepServer, ServiceClient, ServiceError
from repro.service.frame import FRAME_CONTENT_TYPE, frame_bytes

SIDES = list(range(64, 256, 16))
FRAME_ARRAYS = {"curve": np.linspace(0.0, 1.0, 9), "n": np.arange(3)}


class _FlakyServer(ThreadingHTTPServer):
    """An HTTP server whose next N connections die before a response.

    ``fail_connections(n)`` arms it: the next ``n`` accepted
    connections are closed immediately (the client sees a reset or an
    empty status line — exactly what a crashing or restarting daemon
    produces).  Requests and connection attempts are counted so tests
    can assert how many times the client actually knocked.
    """

    daemon_threads = True

    def __init__(self, handler) -> None:
        super().__init__(("127.0.0.1", 0), handler)
        self.lock = threading.Lock()
        self.fail_budget = 0  # guarded-by: lock
        self.connections = 0  # guarded-by: lock
        self.requests = 0  # guarded-by: lock

    def fail_connections(self, n: int) -> None:
        with self.lock:
            self.fail_budget = n

    def count_request(self) -> None:
        with self.lock:
            self.requests += 1

    def process_request(self, request, client_address):
        with self.lock:
            self.connections += 1
            drop = self.fail_budget > 0
            if drop:
                self.fail_budget -= 1
        if drop:
            self.shutdown_request(request)
            return
        super().process_request(request, client_address)

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server_address[1]}"


class _OkHandler(BaseHTTPRequestHandler):
    """Answers every route with a tiny JSON body, keep-alive."""

    protocol_version = "HTTP/1.1"
    close_after_response = False  # claim keep-alive, then hang up anyway
    extra_headers: tuple[tuple[str, str], ...] = ()

    def log_message(self, format, *args):
        pass

    def _respond(self):
        self.server.count_request()
        body = b'{"status": "ok"}'
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in self.extra_headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)
        if self.close_after_response:
            # Close without having advertised Connection: close — the
            # client's pooled socket goes stale, as after a keep-alive
            # timeout.
            self.close_connection = True

    do_GET = do_POST = _respond


class _OneShotHandler(_OkHandler):
    close_after_response = True


class _FrameHandler(_OkHandler):
    """Answers ``GET`` with JSON and ``POST`` with a frame, as the daemon does."""

    def do_POST(self):
        self.server.count_request()
        length = int(self.headers.get("Content-Length", 0))
        self.rfile.read(length)
        body = frame_bytes(FRAME_ARRAYS, {"status": "ok", "served": "computed"})
        self.send_response(200)
        self.send_header("Content-Type", FRAME_CONTENT_TYPE)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        if self.close_after_response:
            self.close_connection = True


class _OneShotFrameHandler(_FrameHandler):
    close_after_response = True


class _PathHandler(_OkHandler):
    """Records every request path it is asked for."""

    def _respond(self):
        with self.server.lock:
            self.server.paths.append(self.path)
        super()._respond()

    do_GET = do_POST = _respond


class _ClosingHandler(_OkHandler):
    """Answers, advertises ``Connection: close``, and hangs up."""

    extra_headers = (("Connection", "close"),)


class _CannedServer:
    """A raw socket server that answers every request with fixed bytes.

    Each accepted connection reads one request head (kept, as sent, in
    ``heads``), writes ``reply`` (nothing at all when it is ``None``: a
    stalled server), and then closes the socket — so a body without
    ``Content-Length`` is delimited only by the close, as a chunked or
    HTTP/1.0-style reply would be.
    """

    def __init__(self, reply: bytes | None) -> None:
        self.reply = reply
        self.connections = 0
        self.heads: list[bytes] = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.05)  # poll, so close() is prompt
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self._listener.getsockname()[1]}"

    def _serve(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _addr = self._listener.accept()
            except TimeoutError:
                continue
            except OSError:
                return
            conn.settimeout(None)
            self.connections += 1
            with conn:
                head = b""
                while b"\r\n\r\n" not in head:
                    chunk = conn.recv(65536)
                    if not chunk:
                        break
                    head += chunk
                self.heads.append(head)
                if self.reply is None:
                    self._stop.wait(5.0)
                else:
                    conn.sendall(self.reply)

    def close(self) -> None:
        self._stop.set()
        self._listener.close()
        self._thread.join(timeout=5.0)


@pytest.fixture()
def flaky():
    server = _FlakyServer(_OkHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


@pytest.fixture()
def paths():
    server = _FlakyServer(_PathHandler)
    server.paths = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


@pytest.fixture()
def closing():
    server = _FlakyServer(_ClosingHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


@pytest.fixture()
def canned():
    servers = []

    def start(reply: bytes | None) -> _CannedServer:
        servers.append(_CannedServer(reply))
        return servers[-1]

    yield start
    for server in servers:
        server.close()


@pytest.fixture()
def oneshot():
    server = _FlakyServer(_OneShotHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


class TestStaleSocketReplay:
    def test_stale_keepalive_socket_is_replayed_invisibly(self, oneshot):
        # Every response leaves the pooled socket secretly dead; each
        # subsequent request must notice and replay on a fresh
        # connection without surfacing an error or consuming retries.
        client = ServiceClient(oneshot.url, retries=0)
        for _ in range(4):
            assert client.health()["status"] == "ok"
        with oneshot.lock:
            assert oneshot.requests == 4

    def test_healthy_keepalive_reuses_one_connection(self, flaky):
        client = ServiceClient(flaky.url)
        for _ in range(5):
            client.health()
        with flaky.lock:
            assert flaky.connections == 1
            assert flaky.requests == 5


class TestTransientRetry:
    def test_dropped_connections_are_retried_with_backoff(self, flaky):
        flaky.fail_connections(2)
        client = ServiceClient(flaky.url, retries=3, backoff_s=0.01)
        assert client.health()["status"] == "ok"
        with flaky.lock:
            assert flaky.connections == 3  # 2 drops + 1 success
            assert flaky.requests == 1

    def test_retry_budget_exhausted_raises_service_error(self, flaky):
        flaky.fail_connections(5)
        client = ServiceClient(flaky.url, retries=1, backoff_s=0.01)
        with pytest.raises(ServiceError, match="unreachable"):
            client.health()
        with flaky.lock:
            assert flaky.connections == 2  # the first try + 1 retry

    def test_retries_zero_fails_on_first_transient_error(self, flaky):
        flaky.fail_connections(1)
        client = ServiceClient(flaky.url, retries=0)
        with pytest.raises(ServiceError, match="unreachable"):
            client.health()

    def test_unreachable_server_still_raises_cleanly(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=0.5, retries=0)
        with pytest.raises(ServiceError, match="unreachable"):
            client.health()


def _check_frame(arrays):
    assert sorted(arrays) == sorted(FRAME_ARRAYS)
    for name, array in FRAME_ARRAYS.items():
        np.testing.assert_array_equal(arrays[name], array)
    return True


# Every request the client can make, each with how many HTTP requests
# one call sends.  Every one of them is pure, so every one is replayed.
CLIENT_CALLS = {
    "health": (lambda client: client.health()["status"] == "ok", 1),
    "stats": (lambda client: client.stats()["status"] == "ok", 1),
    "compute": (lambda client: _check_frame(client.compute({"kind": "plan"})), 1),
    "compute_many": (
        lambda client: all(
            _check_frame(a) for a in client.compute_many([{"kind": "plan"}] * 3, 3)
        ),
        3,
    ),
}


@pytest.fixture()
def framed():
    servers = []

    def start(handler) -> _FlakyServer:
        server = _FlakyServer(handler)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


class TestEveryRequestIsReplayable:
    """No request is exempt from the stale-socket replay or the retry."""

    # A pipelined batch is replayed whole, so a server that hangs up
    # after every response can never answer one; that case is a single
    # compute here.
    @pytest.mark.parametrize("call", ["health", "stats", "compute"])
    def test_stale_keepalive_socket_is_replayed(self, framed, call):
        server = framed(_OneShotFrameHandler)
        run, _sent = CLIENT_CALLS[call]
        client = ServiceClient(server.url, retries=0)
        for _ in range(3):
            assert run(client)
        with server.lock:
            assert server.requests == 3
            assert server.connections == 3  # one replay per stale socket

    @pytest.mark.parametrize("call", sorted(CLIENT_CALLS))
    def test_dropped_connections_are_retried(self, framed, call):
        server = framed(_FrameHandler)
        run, sent = CLIENT_CALLS[call]
        server.fail_connections(2)
        client = ServiceClient(server.url, retries=3, backoff_s=0.01)
        assert run(client)
        with server.lock:
            assert server.connections == 3  # 2 drops + 1 success
            assert server.requests == sent


class TestBackoffJitter:
    """Retries back off with full jitter: uniform below an exponential cap.

    Deterministic backoff makes N clients that all lost the daemon at
    the same instant retry at the same instants — a reconnect
    stampede.  The schedule must be random per client, bounded by
    ``backoff_s * 2**attempt``, and exactly reproducible under an
    injected seeded RNG (so these tests, and anyone else pinning retry
    behaviour, stay exact).
    """

    def _recorded_sleeps(self, flaky, monkeypatch, rng) -> list[float]:
        from repro.service import client as client_mod

        sleeps: list[float] = []
        monkeypatch.setattr(client_mod.time, "sleep", sleeps.append)
        flaky.fail_connections(8)
        client = ServiceClient(flaky.url, retries=3, backoff_s=0.05, rng=rng)
        with pytest.raises(ServiceError, match="unreachable"):
            client.health()
        return sleeps

    def test_schedule_is_exact_under_a_seeded_rng(self, flaky, monkeypatch):
        seed = 20260808
        sleeps = self._recorded_sleeps(flaky, monkeypatch, random.Random(seed))
        twin = random.Random(seed)
        assert sleeps == [twin.uniform(0.0, 0.05 * 2.0**i) for i in range(3)]

    def test_every_delay_is_bounded_by_the_exponential_cap(
        self, flaky, monkeypatch
    ):
        sleeps = self._recorded_sleeps(flaky, monkeypatch, random.Random(7))
        assert len(sleeps) == 3  # one per consumed retry
        for attempt, delay in enumerate(sleeps):
            assert 0.0 <= delay <= 0.05 * 2.0**attempt

    def test_differently_seeded_clients_do_not_stampede_in_lockstep(
        self, flaky, monkeypatch
    ):
        first = self._recorded_sleeps(flaky, monkeypatch, random.Random(1))
        second = self._recorded_sleeps(flaky, monkeypatch, random.Random(2))
        assert first != second


class TestClientContract:
    """What the one transport keeps from the HTTP library it replaced."""

    def test_base_url_path_prefix_reaches_the_server(self, paths):
        client = ServiceClient(paths.url + "/prefix/")
        client.health()
        client.stats()
        # The stub answers JSON, not a frame: the path is what counts.
        with pytest.raises(ServiceError, match="not a frame"):
            client.compute({"kind": "plan", "machine": "paper-bus", "n": 64})
        with paths.lock:
            assert paths.paths == [
                "/prefix/healthz",
                "/prefix/v1/stats",
                "/prefix/v1/compute",
            ]

    def test_bodiless_gets_are_sent_without_a_content_type(self, canned):
        server = canned(
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            b'Content-Length: 16\r\n\r\n{"status": "ok"}'
        )
        client = ServiceClient(server.url)
        assert client.health() == client.stats() == {"status": "ok"}
        host = b"Host: " + server.url.removeprefix("http://").encode() + b"\r\n"
        assert server.heads == [
            b"GET /healthz HTTP/1.1\r\n" + host + b"\r\n",
            b"GET /v1/stats HTTP/1.1\r\n" + host + b"\r\n",
        ]

    def test_stalled_server_raises_a_timeout(self, canned):
        stalled = canned(None)
        client = ServiceClient(stalled.url, timeout=0.2, retries=2, backoff_s=0.01)
        with pytest.raises(ServiceError, match="timed out"):
            client.health()
        assert stalled.connections == 1  # a timeout is never retried

    def test_connection_close_reply_is_not_pooled(self, closing):
        client = ServiceClient(closing.url, retries=0)
        for _ in range(3):
            assert client.health()["status"] == "ok"
            with client._pool._lock:
                assert client._pool._idle == []
        with closing.lock:
            # A fresh connection per request, and no stale-socket replay.
            assert closing.connections == 3
            assert closing.requests == 3

    def test_keep_alive_reply_is_pooled(self, flaky):
        client = ServiceClient(flaky.url)
        client.health()
        with client._pool._lock:
            (idle,) = client._pool._idle
        assert idle.sock is not None


class TestStrictFraming:
    """A reply whose body cannot be delimited by ``Content-Length``."""

    BODY = b'{"status": "ok"}'

    @pytest.mark.parametrize(
        "head",
        [
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n",
            b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            b"Transfer-Encoding: chunked\r\nContent-Length: 16\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: sixteen\r\n\r\n",
            b"HTTP/1.1 OK 200\r\nContent-Length: 16\r\n\r\n",
        ],
        ids=[
            "no-length",
            "http-1.0-close-delimited",
            "chunked",
            "chunked-with-length",
            "bad-length",
            "bad-status-line",
        ],
    )
    def test_unframeable_reply_is_a_protocol_error(self, canned, head):
        if b"chunked" in head:
            body = b"%x\r\n%s\r\n0\r\n\r\n" % (len(self.BODY), self.BODY)
        else:
            body = self.BODY
        server = canned(head + body)
        client = ServiceClient(server.url, retries=2, backoff_s=0.01)
        with pytest.raises(ServiceError, match="malformed response"):
            client.health()
        assert server.connections == 1  # not retried: the reply is wrong
        with client._pool._lock:
            assert client._pool._idle == []

    def test_compute_surfaces_the_protocol_error(self, canned):
        server = canned(b"HTTP/1.1 200 OK\r\n\r\n")
        client = ServiceClient(server.url)
        with pytest.raises(ServiceError, match="Content-Length"):
            client.compute({"kind": "allocation_curve"})

    def test_length_framed_reply_is_read_exactly(self, canned):
        server = canned(
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(self.BODY), self.BODY)
        )
        assert ServiceClient(server.url).health() == {"status": "ok"}


class TestAgainstTheRealDaemon:
    def test_pool_survives_concurrent_clients_and_stays_exact(self):
        sides = SIDES
        with AsyncSweepServer(port=0) as server:
            shared = ServiceClient(server.url, pool_size=2)
            results = []
            lock = threading.Lock()

            def fire():
                curve = shared.allocation_curve(
                    "paper-bus", "5-point", "square", sides, integer=True
                )
                with lock:
                    results.append(curve)

            threads = [threading.Thread(target=fire) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(results) == 8
            for curve in results[1:]:
                assert curve.speedup.tobytes() == results[0].speedup.tobytes()

    def test_client_close_drops_pooled_connections(self):
        with AsyncSweepServer(port=0) as server:
            client = ServiceClient(server.url)
            client.health()
            client.close()
            # The pool refills transparently afterwards.
            assert client.health()["status"] == "ok"
