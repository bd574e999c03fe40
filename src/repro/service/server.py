"""The sweep service core: routing, cache, one admission table.

Request lifecycle for ``POST /v1/compute``:

1. The request's ``kind`` names a request family
   (:mod:`repro.graph.families`); its declaration parses the request
   into a lazy :class:`~repro.graph.nodes.Node` whose fingerprint is the
   *same* one the offline analysis layer uses, so a store warmed by CLI
   runs serves the daemon and vice versa (and bus presets sharing a
   closed form share entries — see :mod:`repro.batch.cache`).  Every
   family, the capacity plan included, takes the steps below.
2. A fingerprint hit answers straight from the shared
   :class:`~repro.batch.SweepCache` (``served: memory|disk``).
3. A miss enters admission: one table keyed by the node's
   fusion-compatibility group — same family, machine closed form,
   stencil, partition kind, scalars; only the axis differs — holding
   each busy group's running round and at most one pending round.  A
   node whose fingerprint is already in one of them waits for that
   round instead of recomputing (``served: coalesced``).  Otherwise a
   node whose group is idle is evaluated at once, with no wait, and
   one whose group is running joins the pending round.  When the
   running round finishes, the pending round's first member hands
   every node to the sweep-graph planner (:mod:`repro.graph`), which
   fuses them onto a single vectorized evaluation over the union axis.
   Each requester gets its own slice, stored under its own fingerprint
   (``served: batched`` for riders, ``computed`` for the one thread
   that did the work).  Slices are bit-identical to computing each
   request alone — every fusable family is elementwise in its axis.  A
   non-fusable node (a capacity plan) is a group of its own.

Endpoints::

    GET  /healthz             liveness + served kinds + timeouts
    GET  /v1/stats            cache + coalescing counters
    POST /v1/compute          one request of any registered family

Any other path is a 404 and any other method a 501: store entries are
reached only through the compute requests they answer.

Everything above lives in :class:`ServiceCore`, which is
transport-agnostic: it turns ``(method, path, body)`` into a
:class:`Response` (status, content type, body chunks) and knows nothing
about sockets.  Tests drive it in process; ``repro serve`` runs it
behind :class:`~repro.service.aserver.AsyncSweepServer`, an ``asyncio``
event loop that owns every socket, parses pipelined HTTP/1.1 requests
incrementally, and offloads each request's compute to a bounded worker
pool.

Every response carries a ``Content-Length``, so a client can hold one
connection open across requests instead of paying a TCP handshake per
call.  Arrays travel only as the binary frame
(:mod:`repro.service.frame`): the arrays' buffers are written straight
to the socket, with no base64 and no JSON number formatting.  JSON
carries requests, errors, ``/healthz`` and ``/v1/stats``.

Lifecycle: ``shutdown()`` (or SIGTERM via ``repro serve``) stops
accepting new connections, rejects new requests with a 503 while
waiting up to ``drain_timeout_s`` for in-flight computes to finish and
their responses to be written, then flushes the cache's memory tier to
disk so a restart warm-starts.  Idle and half-open connections (a slowloris
client sending half a header and stalling) are closed after
``read_timeout_s``; the timeout is advertised in ``/healthz``.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from typing import Any, Mapping

import numpy as np

from repro.batch.cache import SweepCache, max_cache_bytes
from repro.errors import InvalidParameterError, ReproError
from repro.graph import nodes as graph_nodes
from repro.graph.executors import NumpyExecutor
from repro.graph.families import kinds
from repro.graph.nodes import Node
from repro.graph.planner import plan as plan_graph
from repro.service.frame import FRAME_CONTENT_TYPE, encode_frame, frame_length
from repro.service.schema import error_body, json_body, parse_request

__all__ = [
    "Response",
    "ServiceCore",
    "DEFAULT_PORT",
    "DEFAULT_READ_TIMEOUT_S",
    "DEFAULT_DRAIN_TIMEOUT_S",
]

DEFAULT_PORT = 8733

#: Idle/half-open connections (a client that sent half a request header
#: and stalled, or a keep-alive socket nobody uses) are closed after
#: this many seconds — slowloris hardening.
DEFAULT_READ_TIMEOUT_S = 60.0

#: How long a graceful shutdown waits for in-flight requests to finish
#: before giving up on them.
DEFAULT_DRAIN_TIMEOUT_S = 10.0

#: Request-body → fingerprint memo entries kept (LRU).  Bodies are a
#: few hundred bytes when their integer axes travel as ``LO:HI[:STEP]``
#: and a few KiB as lists, so the memo is at most ~1–2 MiB at the cap —
#: cheap insurance that a warm hit never re-parses and re-hashes an
#: identical request.
_REQUEST_KEY_MEMO_MAX = 512


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    408: "Request Timeout",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    505: "HTTP Version Not Supported",
}


class Response:
    """One transport-agnostic HTTP response: status, type, body chunks.

    ``chunks`` is a list of ``bytes``/``memoryview`` pieces whose
    concatenation is the body — binary frames keep their zero-copy
    memoryview chunks all the way to the socket write.  ``close`` asks
    the transport to hang up after writing (protocol errors, draining).
    """

    __slots__ = ("status", "content_type", "chunks", "close")

    def __init__(
        self,
        status: int,
        content_type: str,
        chunks: list[bytes | memoryview],
        close: bool = False,
    ) -> None:
        self.status = status
        self.content_type = content_type
        self.chunks = chunks
        self.close = close

    @property
    def content_length(self) -> int:
        return frame_length(self.chunks)

    def head_bytes(self) -> bytes:
        """The response head the transport writes before the body."""
        head = (
            f"HTTP/1.1 {self.status} {_REASONS.get(self.status, 'Unknown')}\r\n"
            "Server: repro-sweepd/1\r\n"
            f"Content-Type: {self.content_type}\r\n"
            f"Content-Length: {self.content_length}\r\n"
        )
        if self.close:
            head += "Connection: close\r\n"
        return (head + "\r\n").encode("ascii")

    def body_bytes(self) -> bytes:
        """The whole body as one ``bytes`` (tests, small responses)."""
        return b"".join(self.chunks)


class _Round:
    """One evaluation of a compatibility group and everyone waiting on it.

    ``nodes`` maps each distinct fingerprint to its node in arrival
    order; it grows only while the round is pending.  ``done`` fires
    once, after ``results`` (fingerprint → stored arrays) or ``error``
    is set.
    """

    __slots__ = ("nodes", "done", "results", "error")

    def __init__(self, node: Node) -> None:
        self.nodes: dict[str, Node] = {node.key: node}
        self.done = threading.Event()
        self.results: dict[str, dict[str, np.ndarray]] = {}
        self.error: str | None = None


class ServiceCore:
    """The transport-agnostic sweep service: routing, cache, admission.

    :meth:`handle_request` turns ``(method, path, body)`` into a
    :class:`Response`; :class:`~repro.service.aserver.AsyncSweepServer`
    puts it on the network, and tests call it in process.

    Parameters
    ----------
    cache_dir, max_cache_mb:
        The shared store: optional frame-file directory and the per-tier
        LRU bound (MiB) — both forwarded to :class:`SweepCache`.
    compute_timeout_s:
        The one bound every admission waiter uses: a twin waiting on the
        round that holds its fingerprint, a rider waiting on its pending
        round, and a pending round's leader waiting for the running
        round.  A waiter that runs out fails with a ``timed out`` error;
        a pending leader that runs out withdraws its round, failing
        every member and twin with it.
    read_timeout_s:
        Idle/half-open connections are closed after this many seconds
        (slowloris hardening); advertised in ``/healthz``.
    drain_timeout_s:
        Graceful-shutdown bound: how long :meth:`drain` waits for
        in-flight requests before giving up.
    """

    def __init__(
        self,
        cache_dir: str | None = None,
        max_cache_mb: float | None = None,
        compute_timeout_s: float = 600.0,
        read_timeout_s: float = DEFAULT_READ_TIMEOUT_S,
        drain_timeout_s: float = DEFAULT_DRAIN_TIMEOUT_S,
    ) -> None:
        self.cache = SweepCache(cache_dir, max_bytes=max_cache_bytes(max_cache_mb))
        self.compute_timeout_s = float(compute_timeout_s)
        self.read_timeout_s = float(read_timeout_s)
        self.drain_timeout_s = float(drain_timeout_s)
        self.started = time.time()
        #: Exact request bytes → cache fingerprint, learned on first
        #: compute.  The warm-hit fast path: identical bodies skip JSON
        #: parsing, validation, and fingerprint hashing entirely.
        self._request_keys: OrderedDict[bytes, str] = OrderedDict()  # guarded-by: _request_keys_lock
        self._request_keys_lock = threading.Lock()
        # Admission: a compatibility group is a key while one of its
        # rounds runs; the value is the running round, then at most one
        # pending round.  Idle groups are not kept.
        self._groups: dict[tuple[str, str | None], list[_Round]] = {}  # guarded-by: _batch_lock
        self._batch_lock = threading.Lock()
        self._counters = {
            "requests": 0,
            "hits": 0,  # /v1/compute answered straight from the cache
            "computed": 0,
            "coalesced": 0,
            "batched": 0,
            # sim_sweep/sim_validate requests through the parse pipeline
            # (warm byte-identical repeats ride fast_serve and are
            # counted as plain hits, like every other family).
            "sim": 0,
        }
        self._counters_lock = threading.Lock()
        # Graceful-shutdown state: requests in flight and the draining
        # flag share one condition so drain() can wait for zero.
        self._inflight_cv = threading.Condition()
        self._inflight = 0  # guarded-by: _inflight_cv
        self._draining = False  # guarded-by: _inflight_cv

    # ------------------------------------------------------- request lifetime

    def begin_request(self) -> bool:
        """Admit one request; ``False`` once the server is draining."""
        with self._inflight_cv:
            if self._draining:
                return False
            self._inflight += 1
            return True

    def end_request(self) -> None:
        """The matching exit: transports call this after the response."""
        with self._inflight_cv:
            self._inflight -= 1
            if self._inflight == 0:
                self._inflight_cv.notify_all()

    def drain(self, timeout_s: float | None = None) -> bool:
        """Stop admitting requests and wait for in-flight ones to finish.

        Returns ``True`` when the server went quiet within the bound,
        ``False`` on timeout (the remaining requests are abandoned to
        their threads).  Idempotent — a second call just waits again.
        """
        bound = self.drain_timeout_s if timeout_s is None else float(timeout_s)
        deadline = time.monotonic() + bound
        with self._inflight_cv:
            self._draining = True
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._inflight_cv.wait(remaining)
            return True

    @property
    def draining(self) -> bool:
        with self._inflight_cv:
            return self._draining

    def flush(self) -> int:
        """Flush the cache's memory tier to disk (graceful shutdown)."""
        return self.cache.flush()

    # ------------------------------------------------------------ bookkeeping

    def _count(self, counter: str) -> None:
        with self._counters_lock:
            self._counters[counter] += 1

    def stats_payload(self) -> dict[str, Any]:
        with self._counters_lock:
            counters = dict(self._counters)
        dedup = counters["hits"] + counters["coalesced"] + counters["batched"]
        # A locked snapshot, not a field-by-field read of cache.stats: a
        # concurrent compute landing mid-read would tear the counters
        # (hits moved but misses not yet, dedup ratio off by one).
        snapshot = self.cache.stats_snapshot()
        return {
            "uptime_s": time.time() - self.started,
            "cache": snapshot,
            "entries": len(self.cache),
            "max_bytes": self.cache.max_bytes,
            "cache_dir": None if self.cache.cache_dir is None else str(self.cache.cache_dir),
            "counters": counters,
            "dedup_ratio": (dedup / counters["requests"]) if counters["requests"] else 0.0,
            "planner": {
                "nodes_planned": snapshot["nodes_planned"],
                "siblings_fused": snapshot["siblings_fused"],
                "subgraphs_deduped": snapshot["subgraphs_deduped"],
                "executor_runs": snapshot["executor_runs"],
            },
        }

    # -------------------------------------------------------------- computing

    def compute_arrays(
        self, payload: Mapping[str, Any]
    ) -> tuple[dict[str, np.ndarray], str]:
        """Dispatch one compute request; returns ``(arrays, served)``."""
        arrays, served, _key = self.compute_with_key(payload)
        return arrays, served

    def compute_with_key(
        self, payload: Mapping[str, Any]
    ) -> tuple[dict[str, np.ndarray], str, str]:
        """``(arrays, served, fingerprint)`` for one compute request.

        The fingerprint is what the request-body memo learns: a later
        byte-identical request can be answered by one cache lookup.
        """
        self._count("requests")
        family, args = parse_request(payload)
        if family.sim:
            self._count("sim")
        node = graph_nodes.build(family.op, args)
        arrays, served = self._serve(node)
        return arrays, served, node.key

    # The warm-hit fast path -------------------------------------------------

    def fast_serve(
        self, body: bytes, memory_only: bool = False
    ) -> tuple[dict[str, np.ndarray], str] | None:
        """Serve a byte-identical repeat request by cache lookup alone.

        ``None`` means the body is unknown (or its entry was evicted, or
        with ``memory_only`` is not in the memory tier) and the full
        parse → fingerprint → serve pipeline must run.  Counters move
        exactly as they would on the slow path's cache hit, so
        ``/v1/stats`` cannot tell the two apart.
        """
        with self._request_keys_lock:
            key = self._request_keys.get(body)
            if key is not None:
                self._request_keys.move_to_end(body)
        if key is None:
            return None
        if memory_only:
            arrays, level = self.cache.lookup_memory(key), "memory"
        else:
            arrays, level = self.cache.lookup_level(key)
        if arrays is None or level is None:
            return None
        self._count("requests")
        self._count("hits")
        return arrays, level

    def memory_response(self, method: str, path: str, body: bytes) -> Response | None:
        """A warm ``/v1/compute`` hit from the memory tier.

        ``None`` for anything else — other routes, an unknown body, an
        entry not in memory.  Such a hit costs a dict probe and a frame
        header that aliases the cached arrays, so a transport may answer
        it in place of :meth:`handle_request` without blocking on
        compute, disk or encoding; the response and counters are the
        same as that method's.
        """
        if method != "POST" or path != "/v1/compute":
            return None
        fast = self.fast_serve(body, memory_only=True)
        if fast is None:
            return None
        return self._respond_arrays(*fast)

    def remember_request(self, body: bytes, key: str) -> None:
        """Memoize body → fingerprint after a successful full serve."""
        with self._request_keys_lock:
            self._request_keys[body] = key
            self._request_keys.move_to_end(body)
            while len(self._request_keys) > _REQUEST_KEY_MEMO_MAX:
                self._request_keys.popitem(last=False)

    def _serve(self, node: Node) -> tuple[dict[str, np.ndarray], str]:
        """Cache probe, then admission into the node's group."""
        arrays, level = self.cache.lookup_level(node.key)
        if arrays is not None and level is not None:
            self._count("hits")
            return arrays, level
        return self._family_batch(node)

    # The batcher -----------------------------------------------------------

    def _family_batch(self, node: Node) -> tuple[dict[str, np.ndarray], str]:
        """Admit one cold node into its group's rounds; wait or run.

        The group is the node's family plus its fusion-compatibility
        fingerprint; a non-fusable node is a group of its own.  One lock
        acquisition settles admission:

        * the fingerprint is already in a round: wait for it (``coalesced``);
        * the fingerprint is in the memory tier — a round stored it and
          left after this request's cache probe missed: answer from it
          (``coalesced``), counting no second hit;
        * the group has a pending round: join it (``batched``);
        * the group is running: open the pending round and lead it once
          the running round is done;
        * the group is idle: run at once.

        A leader hands its round's nodes to the planner, which fuses them
        onto one evaluation and stores each slice under its own
        fingerprint (``computed``).  ``lookup=False`` because the request
        pipeline already counted each member's miss — daemon hit/miss
        totals stay identical to the offline path.  Whatever ends the
        round — results, a failure, or the leader timing out behind the
        running round — retires it and wakes every member and twin.
        """
        key = node.key
        group = (node.op, node.compat if node.is_fusable else key)
        running: _Round | None = None
        with self._batch_lock:
            rounds = self._groups.get(group, [])
            round_ = next((r for r in rounds if key in r.nodes), None)
            resident = None if round_ is not None else self.cache.resident(key)
            if round_ is not None or resident is not None:
                served = "coalesced"
            elif len(rounds) == 2:
                round_ = rounds[1]
                round_.nodes[key] = node
                served = "batched"
            else:
                running = rounds[0] if rounds else None
                round_ = _Round(node)
                rounds.append(round_)
                self._groups[group] = rounds
                served = "computed"
        if resident is not None:
            self._count(served)
            return resident, served
        assert round_ is not None  # only a resident hit leaves no round
        if served != "computed":
            if not round_.done.wait(self.compute_timeout_s):
                raise ReproError("timed out waiting for an in-flight round")
            if round_.error is not None:
                raise ReproError(round_.error)
            self._count(served)
            return round_.results[key], served
        try:
            if running is not None and not running.done.wait(self.compute_timeout_s):
                raise ReproError("timed out waiting for the running batch")
            stored = plan_graph(
                list(round_.nodes.values()),
                cache=self.cache,
                executor=NumpyExecutor(),
                lookup=False,
            ).execute()
            round_.results = dict(zip(round_.nodes, stored))
        except BaseException as exc:
            round_.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            # The group's list outlives the round: it is dropped only
            # once empty.  The pending round, if any, runs next.
            with self._batch_lock:
                rounds.remove(round_)
                if not rounds:
                    del self._groups[group]
            round_.done.set()
        self._count("computed")
        return round_.results[key], served

    # ------------------------------------------------------- HTTP semantics

    def _respond_json(
        self, payload: Mapping[str, Any], status: int = 200
    ) -> Response:
        return Response(status, "application/json", [json_body(payload)])

    def error_response(
        self, message: str, status: int, close: bool = False
    ) -> Response:
        return Response(status, "application/json", [error_body(message)], close=close)

    def _respond_arrays(
        self, arrays: Mapping[str, np.ndarray], served: str
    ) -> Response:
        """One binary frame: header chunk, then each array's own buffer.

        The memoryview chunks alias the arrays — no base64, no JSON
        number formatting, no per-array ``bytes`` materialization — and
        ride untouched to the transport's socket write.
        """
        meta = {"status": "ok", "served": served}
        return Response(200, FRAME_CONTENT_TYPE, encode_frame(arrays, meta))

    def handle_request(self, method: str, path: str, body: bytes) -> Response:
        """Route one HTTP request; never raises.

        No route reads request headers: every array goes out as a
        binary frame whatever the client's ``Accept``.  The transport
        calls this from a worker thread, so everything here must stay
        thread-safe.
        """
        try:
            if method == "GET":
                return self._handle_get(path)
            if method == "POST":
                return self._handle_post(path, body)
            return self.error_response(f"unsupported method {method}", 501)
        except Exception as exc:  # the transport must always get a response
            return self.error_response(f"{type(exc).__name__}: {exc}", 500)

    def _handle_get(self, path: str) -> Response:
        if path == "/healthz":
            return self._respond_json(
                {
                    "status": "ok",
                    "service": "repro-sweepd",
                    "kinds": list(kinds()),
                    "read_timeout_s": self.read_timeout_s,
                }
            )
        if path == "/v1/stats":
            return self._respond_json({"status": "ok", **self.stats_payload()})
        return self.error_response(f"no route {path}", 404)

    def _handle_post(self, path: str, body: bytes) -> Response:
        if path != "/v1/compute":
            return self.error_response(f"no route {path}", 404)
        fast = self.fast_serve(body)
        if fast is not None:
            return self._respond_arrays(*fast)
        try:
            payload = json.loads(body or b"{}")
        except json.JSONDecodeError as exc:
            return self.error_response(f"bad JSON body: {exc}", 400)
        try:
            arrays, served, key = self.compute_with_key(payload)
        except InvalidParameterError as exc:
            return self.error_response(str(exc), 400)
        except Exception as exc:  # compute failures are the server's 500s
            return self.error_response(f"{type(exc).__name__}: {exc}", 500)
        self.remember_request(body, key)
        return self._respond_arrays(arrays, served)
