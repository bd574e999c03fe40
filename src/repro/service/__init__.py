"""repro.service — a long-running sweep server and its clients.

The paper's deliverable is a *function*: ``(problem size, machine,
stencil) → optimal allocation and speedup``.  This package serves that
function over HTTP with nothing beyond the standard library:

* :class:`ServiceCore` — the service itself, with no sockets: one
  shared, size-bounded :class:`repro.batch.SweepCache`.  Identical
  concurrent requests coalesce on their cache fingerprint (one compute,
  many answers), and *compatible* requests — same family, machine,
  stencil, partition kind, and tolerances, different grid axes — are
  group-committed: a cold request computes at once, and those arriving
  while its evaluation runs are fused onto the next single vectorized
  call, whose per-request slices are bit-identical to computing each
  alone.
* :class:`AsyncSweepServer` (``repro serve``) — the core on an
  ``asyncio`` event loop: thousands of idle keep-alive connections
  without per-connection threads, HTTP/1.1 pipelining with in-order
  responses and read backpressure, compute on a bounded thread pool.
* :class:`ServiceClient` — family requests
  (``client.compute(family_for(kind).payload(...))``) with exact
  ``float`` round-tripping, so a curve fetched from the daemon equals
  the offline computation byte for byte.
  Every request, pipelined or not, takes one raw-socket HTTP/1.1 path
  over a thread-safe keep-alive connection pool, with stale-socket
  replay and bounded exponential-backoff retry; arrays travel
  as zero-copy binary frames (:mod:`repro.service.frame`).

A family request posted to ``/v1/compute`` is the only way to use the
daemon: it has no route that reads or writes store entries directly.

Usage::

    # one terminal (or a background thread in tests):
    #   python -m repro serve --port 8733 --cache-dir results/cache \
    #       --max-cache-mb 64
    from repro.service import ServiceClient

    from repro.graph.families import family_for

    client = ServiceClient("http://127.0.0.1:8733")
    curve = client.allocation_curve(
        "paper-bus", "5-point", "square", range(64, 4096, 64), integer=True
    )
    plan = client.compute(family_for("plan").payload("paper-bus", 256))

The server answers from the shared cache whenever it can; the
response's ``served`` field says how (``memory``/``disk``/``coalesced``
/``batched``/``computed``).
"""

from repro.service.aserver import AsyncSweepServer
from repro.service.client import ServiceClient, ServiceError
from repro.service.frame import FRAME_CONTENT_TYPE, FrameError, decode_frame, encode_frame, frame_bytes
from repro.service.server import ServiceCore

__all__ = [
    "FRAME_CONTENT_TYPE",
    "AsyncSweepServer",
    "FrameError",
    "ServiceClient",
    "ServiceCore",
    "ServiceError",
    "decode_frame",
    "encode_frame",
    "frame_bytes",
]
