"""Repository benchmark: the sweep daemon, end to end.

Run from the repository root; the program is imported from ``src/``:

    python3 perfbench/run.py --workload warm --seed 1 --seconds 10 --trace 0

Every workload drives ``repro serve`` in a child process, started as the
README starts a shared daemon (disk-backed store of 64 MiB per tier,
asyncio backend, eight workers), with allocation-curve requests of 500
grid sides on one machine, stencil and partition.  Client and daemon
share one CPU.  Each traffic mix copies a caller the repository has:

``warm``
    One keep-alive client, a closed loop of one request at a time over
    sixteen curves computed during warm-up, as
    ``benchmarks/bench_service.py`` measures warm latency.  Every timed
    request is a memory-tier hit on the request-body fast path.
``pipelined``
    One client sending the same sixteen warm requests per call through
    ``compute_many(pipeline=16)``, as the pipelining benchmark and
    ``examples/sweep_service.py`` do.  Latency is per call.
``cold``
    Eight clients firing together each round, as the dedup benchmark
    does, two clients per curve and four curves per round, all new:
    coalescing answers the twins, the micro-batcher gathers the four
    curves and the planner fuses them into one evaluation that is
    stored to both tiers.  The store is bounded at 2 MiB, which warm-up
    fills, so each store also evicts: with the README's 64 MiB the
    store would grow through the whole run and latency with it.
``disk``
    A daemon restarted on a store another daemon filled with 256
    curves, its memory tier cut to 1 MiB, below that working set.
    Eight clients ask for the curves in round-robin order, so every
    timed request is read from the disk tier.  No caller in the
    repository runs this mix; it stands for the restart the daemon's
    flush-on-close exists for.

The seed moves the grid axes; it does not change how much work a
request is.

Correctness: the answers to every 32nd call of each client (round, on
``cold``) must equal the same requests evaluated in this process by
:func:`repro.batch.optimal_allocation_curve`, bit for bit.

The last line on stdout is one JSON object with ``correct``,
``attempted`` and ``failed`` (counting requests) and ``metrics``.  With
``--trace 0`` the metrics are end to end: median call latency (see
:func:`end_to_end`), and ``setup_s``, the median over seven launches of
the time from starting a fresh daemon until it answers ``/healthz``.  With ``--trace 1`` spans are recorded at every
layer boundary (``spans.py``) and written to ``.perfbench/``, and the
metrics are per-layer self times and counts per timed request.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import itertools
import json
import os
import queue
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    # One string-hash layout in this process and the daemons for every
    # run, so dictionaries and sets are laid out alike.
    os.execve(
        sys.executable,
        [sys.executable, *sys.argv],
        {**os.environ, "PYTHONHASHSEED": "0"},
    )

# A benchmark run must not rewrite the repository's bytecode.
sys.dont_write_bytecode = True

import spans  # noqa: E402  (this script's directory is on sys.path)

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
#: Daemon stores and trace files, removed or overwritten by the next run.
WORK_DIR = ROOT / ".perfbench"

#: Fresh daemons launched to time set-up; the median is reported.
SETUP_LAUNCHES = 7
#: The served requests: one machine, stencil and partition, so every
#: request costs the same and only the grid axis differs.
SERVED_CURVE = ("paper-bus", "5-point", "square")
CURVE_POINTS = 500
CURVE_STEP = 4
#: The store bound per tier, as the README starts the daemon.
STORE_MB = 64
#: The cold store bound: small enough that warm-up fills it, so every
#: timed store evicts, as in a daemon that has run for a while.
COLD_STORE_MB = 2
#: Concurrent keep-alive clients, as ``benchmarks/bench_service.py``.
CLIENTS = 8
#: Distinct curves the warm and pipelined workloads repeat.
WARM_KEYS = 16
#: Pipelining depth, as ``benchmarks/bench_service.py``.
PIPELINE_DEPTH = 16
#: New curves per cold round; CLIENTS // COLD_KEYS clients ask for each.
COLD_KEYS = 4
#: The answers of every CHECK_EVERY-th call of each client (round, on
#: ``cold``) are kept and checked against offline.
CHECK_EVERY = 32
#: Curves on disk, and the memory tier that cannot hold them.
DISK_KEYS = 256
DISK_MEMORY_MB = 1
#: Calls (rounds) per client before timing starts: one pass over the
#: disk curves, so each has been seen once by the request-body memo.
WARMUP_CALLS = DISK_KEYS // CLIENTS
#: The median latency is taken over the calls that ended in each window
#: of this many seconds, and the lowest of those medians reported.
WINDOW_S = 1.0
#: Seconds to wait for a daemon to come up or acknowledge a signal.
DAEMON_TIMEOUT_S = 60.0

# The client (this process) and the daemon are pinned to one CPU, so the
# scheduler cannot place them differently from one run to the next.  On
# a two-CPU virtual machine a request that crosses CPUs also waits for
# the idle one to wake: the warm median was 1.06 ms with a CPU each
# against 0.84 ms on one, a run each.  Set before numpy starts a thread.
CPU = min(os.sched_getaffinity(0))
os.sched_setaffinity(0, {CPU})


def child_env() -> dict[str, str]:
    """The environment for the daemon: ``src/`` importable."""
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}


# --------------------------------------------------------------------------
# The daemon
# --------------------------------------------------------------------------


class Daemon:
    """``repro serve`` in a child process (``serve.py``).

    Stopped by SIGKILL: a graceful drain would flush the memory tier to
    disk, which on a full store takes longer than the run, and every
    answer a daemon gave was written through to disk before it was sent.
    """

    def __init__(self, store: Path, max_mb: float, spans_path: Path | None) -> None:
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            self.port = probe.getsockname()[1]
        self.url = f"http://127.0.0.1:{self.port}"
        command = [
            sys.executable,
            "-B",
            str(HERE / "serve.py"),
            "--port",
            str(self.port),
            "--cpu",
            str(CPU),
            "--cache-dir",
            str(store),
            "--max-cache-mb",
            f"{max_mb:g}",
        ]
        if spans_path is not None:
            command += ["--trace", str(spans_path)]
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command,
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.lines: queue.Queue[str] = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        try:
            self._wait_until_healthy()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _read(self) -> None:
        assert self.process.stdout is not None
        for line in self.process.stdout:
            self.lines.put(line.rstrip("\n"))

    def _wait_until_healthy(self) -> None:
        from repro.service import ServiceClient

        deadline = time.monotonic() + DAEMON_TIMEOUT_S
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(f"daemon exited with code {self.process.returncode}")
            try:
                socket.create_connection(("127.0.0.1", self.port), timeout=1.0).close()
                break
            except OSError:
                if time.monotonic() > deadline:
                    raise RuntimeError("daemon did not start listening") from None
                time.sleep(0.002)
        client = ServiceClient(self.url, retries=0)
        try:
            client.health()
        finally:
            client.close()

    def _expect(self, prefix: str) -> str:
        """The rest of the next stdout line starting with ``prefix``."""
        deadline = time.monotonic() + DAEMON_TIMEOUT_S
        while True:
            try:
                line = self.lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise RuntimeError(f"daemon never printed {prefix!r}") from None
            if line.startswith(prefix):
                return line[len(prefix) :]

    def reset_trace(self) -> None:
        self.process.send_signal(signal.SIGUSR1)
        self._expect(spans.RESET_LINE)

    def stop(self) -> None:
        self.process.kill()
        self.process.wait()
        self._reader.join(timeout=DAEMON_TIMEOUT_S)

    def trace_totals(self) -> dict[str, list[int]]:
        """The per-layer totals of a traced daemon, its spans written out."""
        self.process.send_signal(signal.SIGUSR2)
        return json.loads(self._expect(spans.TOTALS_LINE))


# --------------------------------------------------------------------------
# Timing and result
# --------------------------------------------------------------------------


class Timed:
    """What the clients of one timed loop saw, merged over threads."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        #: ``(end ns, latency ns)`` of each answered call
        self.latencies: list[tuple[int, int]] = []  # guarded-by: lock
        #: ``(request key, answer)`` of each answered request
        self.answers: list[tuple[Any, Any]] = []  # guarded-by: lock
        self.requests = 0  # guarded-by: lock
        self.failed = 0  # guarded-by: lock
        self.start_ns = time.perf_counter_ns()

    def call(
        self,
        send: Callable[[], list[tuple[Any, Any]]],
        tracer: spans.Tracer | None,
        keep: bool,
    ) -> None:
        """Time one client call; ``send`` returns ``(key, answer)`` pairs."""
        from repro.errors import ReproError

        scope = tracer.span(spans.CLIENT_LAYER) if tracer else contextlib.nullcontext()
        start = time.perf_counter_ns()
        try:
            with scope:
                answers = send()
        except ReproError as exc:
            print(f"perfbench: request failed: {exc}", file=sys.stderr)
            with self.lock:
                self.failed += 1
            return
        end = time.perf_counter_ns()
        with self.lock:
            self.latencies.append((end, end - start))
            self.requests += len(answers)
            if keep:
                self.answers.extend(answers)


def run_clients(bodies: list[Callable[[], None]]) -> None:
    """Run each client body on a thread of its own; re-raise any error."""
    errors: list[BaseException] = []

    def guarded(body: Callable[[], None]) -> None:
        try:
            body()
        except BaseException as exc:  # surfaced in the main thread below
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(body,)) for body in bodies]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def end_to_end(timed: Timed, seconds: float, setups: list[float]) -> dict[str, Any]:
    """Median call latency and set-up time.

    Calls are grouped by the :data:`WINDOW_S` window of the timed loop
    they ended in; the partial window while clients stop is dropped.
    The median is taken in each window and the lowest is reported.  On
    a shared virtual machine other tenants slow the CPU by up to a half
    for seconds at a time, switching between two or three speeds; the
    report is the latency in the second they disturbed least.  Over six
    runs of ``warm`` the spread (interquartile range over median) of this
    figure was 0.08, against 0.19 for the median of the whole run and
    0.18 for the 10th percentile over windows.  No
    tail percentile is reported: the 90th moved by more than a quarter
    between batches of ten runs.
    """
    windows: list[list[int]] = [[] for _ in range(int(seconds / WINDOW_S))]
    for end, latency in timed.latencies:
        index = int((end - timed.start_ns) / 1e9 / WINDOW_S)
        if index < len(windows):
            windows[index].append(latency)
    p50 = min(statistics.median(window) for window in windows if window) / 1e6
    return {
        "latency_p50_ms": {"value": p50, "unit": "ms"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }


def per_layer(
    totals: dict[str, list[int]], requests: int, counts: dict[str, float]
) -> dict[str, Any]:
    """Self time per layer and counts, each per timed request."""

    def total(layer: str, field: int) -> int:
        return totals.get(layer, [0, 0, 0])[field]

    metrics: dict[str, Any] = {}
    for layer in spans.LAYER_NAMES:
        metrics[f"{layer}_us"] = {"value": total(layer, 2) / requests / 1e3, "unit": "us"}
    # Time a request spends outside the daemon's spans: client library,
    # sockets, the event loop and the hand-off to a worker thread.  Where
    # one client call keeps several requests in flight (pipelined), the
    # daemon's spans overlap and only the remainder is counted.
    daemon_ns = sum(total(layer, 1) for layer in ("route", "http_parse", "write"))
    wire_ns = max(0, total(spans.CLIENT_LAYER, 2) - daemon_ns)
    metrics["wire_us"] = {"value": wire_ns / requests / 1e3, "unit": "us"}
    for name in ("kernel", "fingerprint", "disk_read"):
        metrics[f"{name}_calls"] = {"value": total(name, 0) / requests, "unit": "count"}
    for name, value in counts.items():
        metrics[name] = {"value": value / requests, "unit": "count"}
    return metrics


def store_counts(before: dict[str, Any], after: dict[str, Any]) -> dict[str, float]:
    """What the daemon's ``/v1/stats`` counters did during the timed loop."""

    def delta(*path: str) -> float:
        values = []
        for stats in (before, after):
            value: Any = stats
            for key in path:
                value = value[key]
            values.append(value)
        return float(values[1] - values[0])

    return {
        "memory_hits": delta("cache", "memory_hits"),
        "disk_hits": delta("cache", "disk_hits"),
        "cache_misses": delta("cache", "misses"),
        "batched": delta("counters", "batched"),
        "coalesced": delta("counters", "coalesced"),
        "fused": delta("planner", "siblings_fused"),
    }


# --------------------------------------------------------------------------
# Requests and their reference answers
# --------------------------------------------------------------------------


def curve_sides(start: int) -> list[int]:
    return list(range(start, start + CURVE_STEP * CURVE_POINTS, CURVE_STEP))


def curve_digest(curve: Any) -> str:
    """Hash of every field of an allocation curve, dtypes included."""
    digest = hashlib.sha256()
    for name in ("grid_sides", "processors", "area", "cycle_time", "speedup", "efficiency"):
        array = getattr(curve, name)
        digest.update(f"{name}:{array.dtype.str}:{array.shape}:".encode())
        digest.update(array.tobytes())
    digest.update("\0".join(curve.regime).encode())
    return digest.hexdigest()


def offline_digest(start: int) -> str:
    from repro.batch import optimal_allocation_curve
    from repro.machines.catalog import DEFAULT_MACHINES
    from repro.stencils.library import by_name as stencil_by_name
    from repro.stencils.perimeter import PartitionKind

    machine, stencil, kind = SERVED_CURVE
    return curve_digest(
        optimal_allocation_curve(
            DEFAULT_MACHINES[machine],
            stencil_by_name(stencil),
            PartitionKind(kind),
            curve_sides(start),
            integer=True,
        )
    )


def count_wrong(answers: list[tuple[int, Any]]) -> int:
    """Served curves that differ from the same request made offline."""
    from repro.batch.analysis import AllocationCurve
    from repro.stencils.perimeter import PartitionKind

    kind = PartitionKind(SERVED_CURVE[2])
    references: dict[int, str] = {}
    wrong = 0
    for start, answer in answers:
        if isinstance(answer, dict):  # raw arrays from compute_many
            answer = AllocationCurve.from_arrays(answer, kind)
        if start not in references:
            references[start] = offline_digest(start)
        wrong += curve_digest(answer) != references[start]
    if wrong:
        print(f"perfbench: {wrong} served curves differ from offline", file=sys.stderr)
    return wrong


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------


class Workload:
    """One traffic mix against a daemon: warm-up, then a timed loop."""

    #: Daemon store bound in MiB per tier.
    store_mb: float = STORE_MB

    def __init__(self, seed: int) -> None:
        self.base = random.Random(seed).randrange(16, 1024)

    def prepare(self, store: Path) -> None:
        """Fill the store before the daemon that is timed starts."""

    def clients(
        self,
        url: str,
        timed: Timed,
        done: Callable[[int], bool],
        tracer: spans.Tracer | None,
    ) -> list[Callable[[], None]]:
        """One body per client thread; each stops once ``done(calls made)``."""
        raise NotImplementedError


def allocation(client: Any, start: int) -> list[tuple[int, Any]]:
    machine, stencil, kind = SERVED_CURVE
    curve = client.allocation_curve(machine, stencil, kind, curve_sides(start), integer=True)
    return [(start, curve)]


class Warm(Workload):
    def start_of(self, key: int) -> int:
        return self.base + key % WARM_KEYS

    def clients(self, url, timed, done, tracer):
        from repro.service import ServiceClient

        def body() -> None:
            client = ServiceClient(url)
            try:
                for index in itertools.count():
                    if done(index):
                        return
                    start = self.start_of(index)
                    keep = index % CHECK_EVERY == 0
                    timed.call(lambda: allocation(client, start), tracer, keep)
            finally:
                client.close()

        return [body]


class Pipelined(Warm):
    def clients(self, url, timed, done, tracer):
        from repro.service import ServiceClient
        from repro.service.schema import allocation_payload

        machine, stencil, kind = SERVED_CURVE
        starts = [self.start_of(key) for key in range(WARM_KEYS)]
        payloads = [
            allocation_payload(machine, stencil, kind, curve_sides(s), integer=True)
            for s in starts
        ]

        def body() -> None:
            client = ServiceClient(url)
            try:
                for index in itertools.count():
                    if done(index):
                        return
                    timed.call(
                        lambda: list(
                            zip(starts, client.compute_many(payloads, pipeline=PIPELINE_DEPTH))
                        ),
                        tracer,
                        # sixteen answers a call: keep as many as the others do
                        keep=index % (CHECK_EVERY * 4) == 0,
                    )
            finally:
                client.close()

        return [body]


class Cold(Workload):
    store_mb = COLD_STORE_MB

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.rounds = itertools.count()

    def start_of(self, round_: int, key: int) -> int:
        # Neighbouring starts: distinct keys whose axes overlap.
        return self.base + round_ * COLD_KEYS + key

    def clients(self, url, timed, done, tracer):
        from repro.service import ServiceClient

        state = {"round": 0, "stop": False, "calls": 0}

        def next_round() -> None:  # run by one thread per barrier trip
            state["stop"] = done(state["calls"])
            state["round"] = next(self.rounds)
            state["calls"] += 1

        barrier = threading.Barrier(CLIENTS, action=next_round)

        def body(number: int) -> None:
            client = ServiceClient(url)
            try:
                while True:
                    barrier.wait()
                    if state["stop"]:
                        return
                    round_ = state["round"]
                    start = self.start_of(round_, number % COLD_KEYS)
                    keep = round_ % CHECK_EVERY == 0
                    timed.call(lambda: allocation(client, start), tracer, keep)
            finally:
                client.close()

        return [lambda n=n: body(n) for n in range(CLIENTS)]


class Disk(Workload):
    # Only the memory tier is bounded in effect: the disk tier is
    # trimmed when a curve is stored, and the timed daemon stores none.
    store_mb = DISK_MEMORY_MB

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.next_key = itertools.count()
        self.next_lock = threading.Lock()

    def start_of(self, key: int) -> int:
        return self.base + key % DISK_KEYS

    def prepare(self, store: Path) -> None:
        """Have a daemon with a full-size memory tier compute every curve,
        then stop it; its store keeps them on disk."""
        from repro.service import ServiceClient
        from repro.service.schema import allocation_payload

        machine, stencil, kind = SERVED_CURVE
        daemon = Daemon(store, STORE_MB, None)
        try:
            client = ServiceClient(daemon.url)
            payloads = [
                allocation_payload(
                    machine, stencil, kind, curve_sides(self.start_of(key)), integer=True
                )
                for key in range(DISK_KEYS)
            ]
            client.compute_many(payloads, pipeline=PIPELINE_DEPTH)
            client.close()
        finally:
            daemon.stop()

    def clients(self, url, timed, done, tracer):
        from repro.service import ServiceClient

        def body() -> None:
            client = ServiceClient(url)
            try:
                for index in itertools.count():
                    if done(index):
                        return
                    with self.next_lock:
                        start = self.start_of(next(self.next_key))
                    keep = index % CHECK_EVERY == 0
                    timed.call(lambda: allocation(client, start), tracer, keep)
            finally:
                client.close()

        return [body for _ in range(CLIENTS)]


WORKLOADS: dict[str, type[Workload]] = {
    "warm": Warm,
    "pipelined": Pipelined,
    "cold": Cold,
    "disk": Disk,
}


def run(args: argparse.Namespace) -> dict[str, Any]:
    from repro.service import ServiceClient

    workload = WORKLOADS[args.workload](args.seed)
    tracer = spans.Tracer() if args.trace else None
    name = f"{args.workload}-{args.seed}"
    store = WORK_DIR / f"{name}-store"
    shutil.rmtree(store, ignore_errors=True)
    store.mkdir(parents=True)
    setups: list[float] = []
    daemon: Daemon | None = None
    try:
        workload.prepare(store)
        for _ in range(1 if tracer else SETUP_LAUNCHES):
            if daemon is not None:
                daemon.stop()
            daemon = Daemon(
                store,
                workload.store_mb,
                WORK_DIR / f"{name}-daemon.jsonl" if tracer else None,
            )
            setups.append(daemon.setup_s)

        run_clients(
            workload.clients(daemon.url, Timed(), lambda calls: calls >= WARMUP_CALLS, None)
        )
        stats = ServiceClient(daemon.url)
        before = stats.stats()
        if tracer is not None:
            spans.instrument(tracer)
            daemon.reset_trace()
        gc.collect()
        gc.freeze()
        timed = Timed()
        deadline = time.perf_counter() + args.seconds
        run_clients(
            workload.clients(
                daemon.url, timed, lambda calls: time.perf_counter() >= deadline, tracer
            )
        )
        after = stats.stats()
        stats.close()
        totals: dict[str, list[int]] = {}
        if tracer is not None:
            tracer.write_spans(WORK_DIR / f"{name}-client.jsonl")
            totals = spans.merge_totals(tracer.totals_snapshot(), daemon.trace_totals())
    finally:
        if daemon is not None:
            daemon.stop()
        shutil.rmtree(store, ignore_errors=True)

    wrong = count_wrong(timed.answers)
    metrics = (
        per_layer(totals, timed.requests, store_counts(before, after))
        if tracer is not None
        else end_to_end(timed, args.seconds, setups)
    )
    return {
        "correct": timed.failed == 0 and wrong == 0 and bool(timed.answers),
        "attempted": timed.requests + timed.failed,
        "failed": timed.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro package under {SRC}; run from the repository root",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
