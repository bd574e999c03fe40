"""The asyncio transport: parser, timeouts, drains, transport contract.

The transport's contract is that it adds nothing to the
:class:`ServiceCore` it serves: a request stream sent over HTTP gets
the bodies, and moves the counters, that the same stream gets when the
core is driven in process.  These tests pin that, the parser (partial
reads, pipelined buffers, malformed input), the slowloris read
timeout, the graceful-shutdown drain (a slow request racing shutdown
finishes; new requests 503), and connection scalability without
threads.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.batch.cache import SweepCache
from repro.batch.engine import SweepSpec
from repro.graph.families import family_for, kinds
from repro.service import AsyncSweepServer, ServiceClient, ServiceCore
from repro.service.aserver import _HttpError, _RequestParser
from repro.service.frame import FRAME_CONTENT_TYPE, decode_frame
from repro.service.schema import allocation_payload

SIDES = list(range(64, 256, 16))


def _recv_all(sock: socket.socket, timeout: float = 5.0) -> bytes:
    """Read until the peer closes (or the timeout trips)."""
    sock.settimeout(timeout)
    chunks = []
    while True:
        try:
            chunk = sock.recv(65536)
        except (TimeoutError, OSError):
            break
        if not chunk:
            break
        chunks.append(chunk)
    return b"".join(chunks)


def _http(method: str, path: str, body: bytes = b"", headers: str = "") -> bytes:
    return (
        f"{method} {path} HTTP/1.1\r\nHost: t\r\n{headers}"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    ).encode() + body


# --------------------------------------------------------------------------
# The incremental parser
# --------------------------------------------------------------------------


class TestRequestParser:
    REQUEST = (
        b"POST /v1/compute HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n"
        b"Content-Length: 7\r\n\r\n{\"a\":1}"
    )

    def test_whole_request_in_one_feed(self):
        (req,) = _RequestParser().feed(self.REQUEST)
        assert req.method == "POST"
        assert req.path == "/v1/compute"
        assert req.headers["content-type"] == "application/json"
        assert req.body == b'{"a":1}'
        assert req.close is False

    def test_byte_at_a_time_feed(self):
        parser = _RequestParser()
        collected = []
        for index in range(len(self.REQUEST)):
            collected += parser.feed(self.REQUEST[index : index + 1])
            # Mid-request state is visible (the slowloris detector).
            if not collected:
                assert parser.mid_request
        (req,) = collected
        assert req.body == b'{"a":1}'
        assert not parser.mid_request

    def test_three_pipelined_requests_in_one_buffer_plus_a_tail(self):
        tail = b"GET /healthz HTTP/1.1\r\nHo"  # start of a fourth request
        requests = _RequestParser().feed(self.REQUEST * 3 + tail)
        assert len(requests) == 3
        assert all(r.body == b'{"a":1}' for r in requests)

    def test_body_split_across_feeds(self):
        parser = _RequestParser()
        head, rest = self.REQUEST[:-4], self.REQUEST[-4:]
        assert parser.feed(head) == []
        (req,) = parser.feed(rest)
        assert req.body == b'{"a":1}'

    def test_connection_close_and_http10_semantics(self):
        (req,) = _RequestParser().feed(
            b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        assert req.close is True
        (req,) = _RequestParser().feed(b"GET / HTTP/1.0\r\n\r\n")
        assert req.close is True
        (req,) = _RequestParser().feed(
            b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
        )
        assert req.close is False

    @pytest.mark.parametrize(
        "raw, status",
        [
            (b"NONSENSE\r\n\r\n", 400),
            (b"GET /x SPDY/3\r\n\r\n", 505),
            (b"GET / HTTP/1.1\r\nContent-Length: banana\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\nContent-Length: -3\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 501),
            (b"GET / HTTP/1.1\r\nno colon here\r\n\r\n", 400),
        ],
    )
    def test_malformed_heads_raise_with_the_right_status(self, raw, status):
        with pytest.raises(_HttpError) as err:
            _RequestParser().feed(raw)
        assert err.value.status == status

    def test_oversized_head_is_rejected_431(self):
        parser = _RequestParser()
        with pytest.raises(_HttpError) as err:
            parser.feed(b"GET / HTTP/1.1\r\nX-Pad: " + b"a" * 70_000)
        assert err.value.status == 431


# --------------------------------------------------------------------------
# The listener
# --------------------------------------------------------------------------


class TestListenerBinding:
    def test_url_names_the_bound_port_before_start(self):
        server = AsyncSweepServer(port=0)
        try:
            assert server.port > 0
            assert server.url == f"http://127.0.0.1:{server.port}"
            server.start_background()
            assert ServiceClient(server.url).health()["status"] == "ok"
        finally:
            server.shutdown()

    def test_taken_port_fails_at_construction(self):
        with AsyncSweepServer(port=0) as first:
            with pytest.raises(OSError):
                AsyncSweepServer(port=first.port)
            # The first server is untouched by the failed bind.
            assert ServiceClient(first.url).health()["status"] == "ok"


# --------------------------------------------------------------------------
# Read timeouts (slowloris)
# --------------------------------------------------------------------------


class TestReadTimeout:
    def test_healthz_advertises_kinds_and_timeout(self):
        with AsyncSweepServer(port=0, read_timeout_s=12.5) as server:
            health = ServiceClient(server.url).health()
            assert health["kinds"] == list(kinds())
            assert health["read_timeout_s"] == 12.5
            # One transport and one array encoding: nothing to advertise.
            assert "backend" not in health and "protocols" not in health

    def test_half_a_request_head_then_stall_gets_disconnected(self):
        with AsyncSweepServer(port=0, read_timeout_s=0.5) as server:
            with socket.create_connection((server.host, server.port)) as sock:
                sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: stall")  # ...and stop
                start = time.monotonic()
                data = _recv_all(sock, timeout=10.0)
                elapsed = time.monotonic() - start
            # The server hung up on its own — well before the 10 s the
            # reader was willing to wait, and not before the timeout.
            assert elapsed < 5.0
            # Whatever was sent first (a 408 courtesy response), the
            # connection ended.
            if data:
                assert b"408" in data.split(b"\r\n", 1)[0]

    def test_idle_keepalive_connection_is_reaped(self):
        with AsyncSweepServer(port=0, read_timeout_s=0.5) as server:
            with socket.create_connection((server.host, server.port)) as sock:
                sock.sendall(
                    b"GET /healthz HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n"
                )
                start = time.monotonic()
                data = _recv_all(sock, timeout=10.0)
                elapsed = time.monotonic() - start
            assert b"200" in data.split(b"\r\n", 1)[0]  # the request was served
            assert elapsed < 5.0  # ...and the idle socket reaped after it


# --------------------------------------------------------------------------
# Graceful shutdown
# --------------------------------------------------------------------------


class TestGracefulShutdown:
    def test_slow_request_racing_shutdown_still_completes(self, monkeypatch):
        server = AsyncSweepServer(port=0).start_background()
        try:
            slow_started = threading.Event()
            real = server.compute_with_key

            def slow(payload):
                slow_started.set()
                time.sleep(0.5)
                return real(payload)

            monkeypatch.setattr(server, "compute_with_key", slow)
            client = ServiceClient(server.url)
            result: dict = {}

            def fire():
                result["curve"] = client.allocation_curve(
                    "paper-bus", "5-point", "square", SIDES
                )

            thread = threading.Thread(target=fire)
            thread.start()
            assert slow_started.wait(5.0)
            server.shutdown()  # races the sleeping compute
            thread.join(timeout=10.0)
            assert not thread.is_alive()
            # The in-flight request was drained, not killed: the full,
            # correct response got out before the server exited.
            assert result["curve"].speedup.shape == (len(SIDES),)
        finally:
            server.shutdown()

    def test_draining_server_rejects_new_requests_with_503(self):
        with AsyncSweepServer(port=0) as server:
            assert server.drain(timeout_s=1.0) is True  # nothing in flight
            with socket.create_connection((server.host, server.port)) as sock:
                sock.sendall(_http("GET", "/healthz"))
                data = _recv_all(sock)
            head, _, body = data.partition(b"\r\n\r\n")
            assert b"503" in head.split(b"\r\n", 1)[0]
            assert json.loads(body)["error"] == "server is draining"

    def test_drain_times_out_when_a_request_outlasts_it(self):
        core = AsyncSweepServer(port=0)
        try:
            assert core.begin_request() is True
            start = time.monotonic()
            assert core.drain(timeout_s=0.2) is False
            assert 0.15 <= time.monotonic() - start < 2.0
            core.end_request()
            assert core.drain(timeout_s=1.0) is True
        finally:
            core.shutdown()

    def test_close_flushes_memory_entries_back_to_disk(self, tmp_path):
        server = AsyncSweepServer(port=0, cache_dir=str(tmp_path)).start_background()
        client = ServiceClient(server.url)
        client.allocation_curve("paper-bus", "5-point", "square", SIDES)
        client.close()
        written = list(tmp_path.glob(f"*{SweepCache.ENTRY_SUFFIX}"))
        assert written  # store() wrote through at compute time
        for path in written:
            path.unlink()  # simulate a lost disk tier
        server.shutdown()
        assert list(tmp_path.glob(f"*{SweepCache.ENTRY_SUFFIX}"))  # close() flushed them back


class TestSweepCacheFlush:
    def test_flush_rewrites_only_missing_disk_entries(self, tmp_path):
        cache = SweepCache(tmp_path)
        cache.store("a" * 64, {"x": np.arange(3.0)})
        cache.store("b" * 64, {"y": np.arange(4.0)})
        assert cache.flush() == 0  # store() already wrote through
        (tmp_path / ("a" * 64 + SweepCache.ENTRY_SUFFIX)).unlink()
        assert cache.flush() == 1
        arrays, level = cache.lookup_level("a" * 64)
        assert level == "memory"
        np.testing.assert_array_equal(arrays["x"], np.arange(3.0))

    def test_memory_only_cache_flushes_nothing(self):
        cache = SweepCache(None)
        cache.store("c" * 64, {"z": np.zeros(2)})
        assert cache.flush() == 0


# --------------------------------------------------------------------------
# Connection scalability: sockets are not threads
# --------------------------------------------------------------------------


class TestConnectionScalability:
    def test_idle_connections_cost_no_threads(self):
        workers = 4
        before = threading.active_count()
        with AsyncSweepServer(port=0, workers=workers) as server:
            sockets = []
            try:
                # A real request first, so the executor is warmed up.
                client = ServiceClient(server.url)
                client.health()
                client.close()
                sockets = [
                    socket.create_connection((server.host, server.port))
                    for _ in range(200)
                ]
                deadline = time.monotonic() + 10.0
                while (
                    server.connection_count < 200 and time.monotonic() < deadline
                ):
                    time.sleep(0.01)
                assert server.connection_count >= 200
                # The whole server — loop + executor — added a bounded
                # handful of threads, not one per connection.
                assert threading.active_count() - before <= workers + 3
            finally:
                for sock in sockets:
                    sock.close()


class TestWarmHitsOnTheLoop:
    def test_warm_frame_hit_skips_the_executor(self, monkeypatch):
        from repro.service import aserver

        handed_off: list[str] = []
        original = aserver._Connection._work

        def work(connection, request):
            handed_off.append(request.path)
            return original(connection, request)

        monkeypatch.setattr(aserver._Connection, "_work", work)
        payload = allocation_payload("paper-bus", "5-point", "square", SIDES)
        with AsyncSweepServer(port=0) as server:
            client = ServiceClient(server.url)
            cold = client.compute(payload)
            assert handed_off == ["/v1/compute"]
            warm = client.compute(payload)
            assert client.last_served == "memory"
            assert handed_off == ["/v1/compute"]  # answered on the loop
            for name, value in cold.items():
                assert warm[name].tobytes() == value.tobytes()
            # No Accept header at all: still a frame, still on the loop.
            status, ctype, body = client._request(
                "/v1/compute",
                json.dumps(payload).encode(),
                method="POST",
                content_type="application/json",
            )
            assert (status, ctype) == (200, FRAME_CONTENT_TYPE)
            arrays, meta = decode_frame(body)
            assert meta["served"] == "memory"
            assert arrays["speedup"].tobytes() == cold["speedup"].tobytes()
            assert handed_off == ["/v1/compute"]
            counters = client.stats()["counters"]
            assert counters["requests"] == 3 and counters["hits"] == 2
            client.close()


class TestGatheredWrites:
    def test_gathered_pipelined_responses_balance_every_request(self):
        payload = allocation_payload("paper-bus", "5-point", "square", SIDES)
        with AsyncSweepServer(port=0) as server:
            client = ServiceClient(server.url)
            expected = client.compute(payload)
            results = client.compute_many([payload] * 32, pipeline=16)
            assert len(results) == 32
            for arrays in results:
                assert arrays["speedup"].tobytes() == expected["speedup"].tobytes()
            # Every admitted request was balanced once its bytes were
            # written, so a drain finds nothing in flight.
            assert server.drain(timeout_s=5.0)
            with server._inflight_cv:
                assert server._inflight == 0
            client.close()


# --------------------------------------------------------------------------
# Transport contract: HTTP adds nothing to the core
# --------------------------------------------------------------------------


#: The contract's request stream: every compute kind, each asked for
#: twice (cold compute, then the warm fast path), plus an invalid
#: request (the error envelope is part of the surface).
CONTRACT_STREAM = [
    allocation_payload("paper-bus", "5-point", "square", SIDES),
    allocation_payload("paper-bus", "5-point", "square", SIDES),
    allocation_payload("ipsc", "5-point", "strip", SIDES, integer=True),
    allocation_payload("ipsc", "5-point", "strip", SIDES, integer=True),
    family_for("plan").payload("paper-bus", 256),
    family_for("plan").payload("paper-bus", 256, [8, 16, 32]),
    family_for("plan").payload("paper-bus", 256, [8, 16, 32]),
    *[
        family_for("sweep").payload(
            SweepSpec.across_catalog(SIDES, [4, 16], machines=["paper-bus", "flex32"])
        )
    ] * 2,
    *[
        family_for("sim_sweep").payload(
            machine="paper-bus", n=32, n_processors=4, seeds=range(8), jitter=0.1
        )
    ] * 2,
    *[family_for("sim_validate").payload("ipsc", n=24, processor_counts=[1, 2, 4, 8])] * 2,
    {"kind": "allocation_curve", "machine": "no-such-machine"},
]


def _counters(stats: dict) -> dict:
    return {
        "counters": stats["counters"],
        "cache": stats["cache"],
        "entries": stats["entries"],
        "dedup_ratio": stats["dedup_ratio"],
    }


class TestTransportContract:
    def test_bodies_and_counters_match_the_in_process_core(self):
        bodies = [json.dumps(payload).encode() for payload in CONTRACT_STREAM]
        core = ServiceCore()
        expected = []
        for body in bodies:
            response = core.handle_request("POST", "/v1/compute", body)
            expected.append((response.status, response.content_type, response.body_bytes()))
        with AsyncSweepServer(port=0) as server:
            client = ServiceClient(server.url)
            served = [
                client._request(
                    "/v1/compute",
                    body,
                    method="POST",
                    content_type="application/json",
                    accept=FRAME_CONTENT_TYPE,
                )
                for body in bodies
            ]
            stats = client.stats()
            client.close()
        assert len(served) == len(CONTRACT_STREAM)
        for index, (ours, theirs) in enumerate(zip(served, expected)):
            assert ours[0] == theirs[0], f"status diverged at request {index}"
            assert ours[1] == theirs[1], f"content-type diverged at request {index}"
            assert ours[2] == theirs[2], f"body diverged at request {index}"
        # The same stream moved every counter identically: hits,
        # misses, coalesces, planner work.
        assert _counters(stats) == _counters(core.stats_payload())
