"""HTTP/1.1 pipelining through ``ServiceClient.compute_many``.

Pipelining is only worth having if it is invisible except in the
timing: the results must be bit-identical to sequential ``compute()``
calls, in request order, whatever the client-side depth or the
server-side ``max_pipeline`` cap.  These
tests pin that, plus the failure surface — a rejected request raises
naming its index without poisoning the connection, and a stale pooled
socket replays the whole batch invisibly (``/v1/compute`` is pure).
"""

from __future__ import annotations

import socket

import numpy as np
import pytest

from repro.service import AsyncSweepServer, ServiceClient, ServiceError
from repro.service.schema import allocation_payload

SIDES = list(range(64, 256, 16))


def _payloads(count: int) -> list[dict]:
    """``count`` distinguishable requests: each has a different curve length."""
    return [
        allocation_payload("paper-bus", "5-point", "square", SIDES[: 2 + index % 10])
        for index in range(count)
    ]


def _assert_same_arrays(ours: dict, theirs: dict) -> None:
    assert sorted(ours) == sorted(theirs)
    for name in ours:
        assert ours[name].tobytes() == theirs[name].tobytes()


# Every service behaviour below must hold whether the daemon keeps its
# cache in memory only or, as ``repro serve --cache-dir`` runs it, with
# the frame-file disk tier underneath.
@pytest.fixture(params=["memory", "disk"])
def server(request, tmp_path):
    cache_dir = str(tmp_path / "cache") if request.param == "disk" else None
    with AsyncSweepServer(port=0, cache_dir=cache_dir) as srv:
        yield srv


class TestPipelinedResults:
    def test_depth_one_is_the_sequential_path(self, server):
        client = ServiceClient(server.url)
        payloads = _payloads(3)
        results = client.compute_many(payloads, pipeline=1)
        expected = [client.compute(p) for p in payloads]
        for ours, theirs in zip(results, expected):
            _assert_same_arrays(ours, theirs)

    def test_pipelined_results_are_bit_identical_to_sequential(self, server):
        client = ServiceClient(server.url, pipeline=8)
        payloads = _payloads(12)
        pipelined = client.compute_many(payloads)
        sequential = [client.compute(p) for p in payloads]
        for ours, theirs in zip(pipelined, sequential):
            _assert_same_arrays(ours, theirs)

    def test_responses_come_back_in_request_order(self, server):
        # Each payload has a distinct curve length, so a reordered
        # response stream cannot masquerade as correct.
        client = ServiceClient(server.url)
        payloads = _payloads(10)
        results = client.compute_many(payloads, pipeline=10)
        for payload, arrays in zip(payloads, results):
            assert arrays["speedup"].shape == (len(payload["grid_sides"]),)


class TestDepthVersusServerCap:
    def test_client_depth_beyond_server_max_pipeline_still_drains(self):
        # A 32-deep client burst against a server that pauses reading
        # at 4 queued responses: backpressure (pause_reading/resume)
        # must stall the writer, not deadlock or drop requests.
        with AsyncSweepServer(port=0, max_pipeline=4) as srv:
            client = ServiceClient(srv.url)
            payloads = _payloads(32)
            results = client.compute_many(payloads, pipeline=32)
            assert len(results) == 32
            for payload, arrays in zip(payloads, results):
                assert arrays["speedup"].shape == (len(payload["grid_sides"]),)


class TestPipelineFailures:
    def test_rejected_request_names_its_index(self, server):
        payloads = _payloads(5)
        payloads[2] = {"kind": "allocation_curve", "machine": "no-such-machine"}
        client = ServiceClient(server.url)
        with pytest.raises(ServiceError, match="pipelined request 2 of 5"):
            client.compute_many(payloads, pipeline=5)
        # A 400 is an application answer, not a transport failure: the
        # keep-alive connection survives and the client keeps working.
        assert client.health()["status"] == "ok"
        good = _payloads(3)
        assert len(client.compute_many(good, pipeline=3)) == 3

    def test_stale_pooled_socket_replays_the_whole_batch(self, server):
        client = ServiceClient(server.url, retries=0)
        client.compute_many(_payloads(2), pipeline=2)  # park a pooled socket
        with client._pool._lock:
            (idle,) = client._pool._idle
        assert idle.sock is not None
        idle.sock.shutdown(socket.SHUT_RDWR)  # the server "timed it out"
        payloads = _payloads(4)
        results = client.compute_many(payloads, pipeline=4)  # replays, 0 retries
        sequential = [client.compute(p) for p in payloads]
        for ours, theirs in zip(results, sequential):
            _assert_same_arrays(ours, theirs)

    def test_empty_batch_is_a_no_op(self, server):
        assert ServiceClient(server.url).compute_many([]) == []


class TestWarmHitsStayWarm:
    def test_pipelined_repeats_hit_the_cache(self, server):
        client = ServiceClient(server.url)
        payload = allocation_payload("paper-bus", "5-point", "square", SIDES)
        client.compute(payload)  # seed
        before = client.stats()["counters"]["hits"]
        results = client.compute_many([payload] * 16, pipeline=16)
        after = client.stats()["counters"]["hits"]
        assert after - before == 16
        reference = client.compute(payload)
        for arrays in results:
            _assert_same_arrays(arrays, reference)
