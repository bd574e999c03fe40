"""Span recording for the repository benchmark.

A :class:`Tracer` records spans at the program's layer boundaries: layer
name, span id, parent span id, request id, start and end
(``perf_counter_ns``).  A span opened while another is open on the same
thread is its child, and every span of one call tree carries the root's
id as its request id.  A layer's *self time* is its span's duration
minus the part its child spans cover; the tracer keeps running totals
of calls, wall time and self time per layer as spans close.

:func:`instrument` wraps the program's functions listed in
:data:`LAYERS` from outside; the program itself carries no tracing.
The benchmark installs the wrappers only on a ``--trace 1`` run, so
end-to-end metrics are always measured untraced.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterator

#: Raw spans kept per process for the trace file; the per-layer totals
#: keep counting past this bound.
MAX_SPANS = 100_000

#: Control lines the traced daemon prints on stdout.
RESET_LINE = "PERFBENCH reset"
TOTALS_LINE = "PERFBENCH totals "

#: Every wrapped layer boundary: ``(layer, module, qualified name)``.  A
#: module-level function is wrapped wherever a ``repro`` module holds
#: it, renamed imports included; a method is wrapped on its class.
#: :func:`instrument` refuses to run if the program no longer has one of
#: them, so a renamed layer shows up as a benchmark edit rather than as
#: a layer that suddenly costs nothing.
LAYERS: tuple[tuple[str, str, str], ...] = (
    # transport: the event loop's HTTP parser and socket writes
    ("http_parse", "repro.service.aserver", "_RequestParser.feed"),
    ("write", "asyncio.selector_events", "_SelectorSocketTransport.write"),
    # service core: routing, the warm fast path, validation, batching
    ("route", "repro.service.server", "ServiceCore.handle_request"),
    ("fast_path", "repro.service.server", "ServiceCore.fast_serve"),
    ("parse", "repro.service.schema", "parse_allocation"),
    ("batch_wait", "repro.service.server", "ServiceCore._family_batch"),
    ("encode", "repro.service.frame", "encode_frame"),
    # sweep graph: node builder, planner, executor
    ("build", "repro.graph.nodes", "allocation_curve"),
    ("plan", "repro.graph.planner", "plan"),
    ("execute", "repro.graph.planner", "Plan.execute"),
    ("kernel", "repro.graph.executors", "NumpyExecutor.evaluate"),
    # sweep cache: both tiers; a probe's self time includes waiting for
    # the cache lock, which it holds while reading the disk tier
    ("fingerprint", "repro.batch.cache", "fingerprint"),
    ("cache_probe", "repro.batch.cache", "SweepCache.lookup_level"),
    ("disk_read", "repro.batch.cache", "SweepCache._disk_fetch"),
    ("store", "repro.batch.cache", "SweepCache.store"),
    ("disk_write", "repro.batch.cache", "SweepCache._disk_put"),
    # client library: response decoding and curve assembly
    ("decode", "repro.service.frame", "decode_frame"),
    ("curve", "repro.batch.analysis", "AllocationCurve.from_arrays"),
)

#: The benchmark opens this span itself, around each call a client makes
#: into the program.  Its self time is mostly waiting for the daemon, so
#: it is reported only as the part outside the daemon's spans
#: (``wire_us`` in the benchmark).
CLIENT_LAYER = "client"

#: The layers whose self time is reported, in report order.
LAYER_NAMES: tuple[str, ...] = tuple(dict.fromkeys(name for name, _, _ in LAYERS))


class Tracer:
    """In-memory span recorder with running per-layer totals."""

    def __init__(self) -> None:
        self._local = threading.local()
        # Re-entrant: the daemon resets from a signal handler, which may
        # interrupt a span closing on the same thread.
        self._lock = threading.RLock()
        self._next_id = 0  # guarded-by: _lock
        #: ``(span id, parent id, request id, layer, start ns, end ns)``
        self.spans: list[tuple[int, int, int, str, int, int]] = []  # guarded-by: _lock
        #: layer -> ``[calls, wall ns, self ns]``
        self.totals: dict[str, list[int]] = {}  # guarded-by: _lock

    def reset(self) -> None:
        """Forget everything recorded so far (the end of warm-up)."""
        with self._lock:
            self.spans.clear()
            self.totals.clear()

    @contextlib.contextmanager
    def span(self, layer: str) -> Iterator[None]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        parent = stack[-1] if stack else None
        # [span id, parent id, request id, ns covered by child spans]
        frame = [span_id, parent[0] if parent else 0, parent[2] if parent else span_id, 0]
        stack.append(frame)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            duration = end - start
            if parent is not None:
                parent[3] += duration
            with self._lock:
                total = self.totals.setdefault(layer, [0, 0, 0])
                total[0] += 1
                total[1] += duration
                total[2] += duration - frame[3]
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((frame[0], frame[1], frame[2], layer, start, end))

    def wrap(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn``, recording one ``layer`` span per call."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(layer):
                return fn(*args, **kwargs)

        return traced

    def totals_snapshot(self) -> dict[str, list[int]]:
        with self._lock:
            return {layer: list(total) for layer, total in self.totals.items()}

    def write_spans(self, path: Path) -> None:
        """Write the kept spans to ``path`` as JSON lines."""
        with self._lock:
            spans = list(self.spans)
        keys = ("span", "parent", "request", "layer", "start_ns", "end_ns")
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


def instrument(tracer: Tracer) -> None:
    """Wrap every :data:`LAYERS` target; fail naming any the program lacks."""
    missing = []
    for layer, module_name, qualname in LAYERS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            missing.append(f"{module_name}.{qualname}")
            continue
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            original = vars(owner).get(attr) if isinstance(owner, type) else None
            if isinstance(original, (classmethod, staticmethod)):
                kind = type(original)
                setattr(owner, attr, kind(tracer.wrap(layer, original.__func__)))
            elif callable(original):
                setattr(owner, attr, tracer.wrap(layer, original))
            else:
                missing.append(f"{module_name}.{qualname}")
            continue
        original = getattr(module, attr, None)
        if not callable(original):
            missing.append(f"{module_name}.{qualname}")
            continue
        wrapped = tracer.wrap(layer, original)
        for name, holder in list(sys.modules.items()):
            if holder is None or not (name == module_name or name.startswith("repro")):
                continue
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapped)
    if missing:
        raise RuntimeError(
            "layer targets the program no longer has (update spans.LAYERS): "
            + ", ".join(missing)
        )


def merge_totals(*parts: dict[str, list[int]]) -> dict[str, list[int]]:
    """Sum per-layer totals recorded in several processes."""
    merged: dict[str, list[int]] = {}
    for part in parts:
        for layer, total in part.items():
            into = merged.setdefault(layer, [0, 0, 0])
            for i, value in enumerate(total):
                into[i] += int(value)
    return merged
