"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands
-----------
``machines``
    List the preset machines and their constants.
``optimize``
    Optimal allocation for a problem on a preset machine.
``plan``
    Capacity planning: max useful processors and minimal grid sizes.
``simulate``
    Batched replica simulation: Monte Carlo cycle-time bands for one
    (machine, grid, P) configuration, many seeds at once.
``experiments``
    Run registered experiments serially, printing each report and
    writing its CSV artifacts.
``serve``
    Long-running sweep server: plan/optimize/sweep over HTTP with a
    shared, size-bounded, deduplicated result cache.
``lint``
    Static invariant checks over the ``repro`` source tree.

``optimize``, ``plan`` and ``simulate`` each answer with one request of
one family in :mod:`repro.graph.families` (``allocation_curve``,
``plan`` and ``sim_sweep``).  Offline the request is planned and
executed in process; ``--cache-dir`` serves repeats from the
content-addressed sweep cache, in point mode too, and ends the output
with a ``sweep cache:`` line (``--max-cache-mb`` bounds the store).
With ``--server URL`` the same request goes to a running ``repro
serve`` daemon instead.  ``--explain`` prints the planned sweep graph
(nodes, fusion groups, cache hits) without executing anything, and
``--executor`` picks the graph backend: the default vectorized
``numpy`` executor or the scalar ``oracle`` reference.  Every route
renders the same bytes.  ``optimize`` and ``plan`` also run in
whole-curve mode: ``--grid LO:HI[:STEP]`` (or an explicit comma list)
sweeps grid sides or machine sizes.

Examples::

    python -m repro machines
    python -m repro optimize --machine paper-bus --n 256 --stencil 5-point \
        --partition square --max-processors 16
    python -m repro optimize --machine paper-bus --grid 64:4096:64 \
        --cache-dir results/cache
    python -m repro plan --machine paper-bus --n 256
    python -m repro plan --machine paper-bus --grid 2:2000
    python -m repro simulate --machine paper-bus --n 64 --processors 16 \
        --replicas 1000 --jitter 0.05
    python -m repro experiments E-FIG7
    python -m repro serve --port 8733 --cache-dir results/cache --max-cache-mb 64
    python -m repro optimize --machine paper-bus --grid 64:4096:64 \
        --server http://127.0.0.1:8733
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.errors import InvalidParameterError
from repro.machines.bus import BusArchitecture
from repro.machines.catalog import DEFAULT_MACHINES
from repro.report.tables import format_kv_block, format_table
from repro.stencils.library import ALL_STENCILS

__all__ = ["main", "build_parser", "parse_axis"]


def parse_axis(spec: str) -> list[int]:
    """Parse a ``--grid`` axis: ``LO:HI``, ``LO:HI:STEP``, or ``a,b,c``.

    Ranges are inclusive of ``HI`` when the step lands on it, matching
    what a capacity plan over "64 to 4096 by 64" means.
    """
    try:
        if ":" in spec:
            parts = [int(p) for p in spec.split(":")]
            if len(parts) == 2:
                lo, hi, step = parts[0], parts[1], 1
            elif len(parts) == 3:
                lo, hi, step = parts
            else:
                raise ValueError("expected LO:HI or LO:HI:STEP")
            if step < 1 or lo > hi:
                raise ValueError("need LO <= HI and STEP >= 1")
            return list(range(lo, hi + 1, step))
        values = [int(p) for p in spec.split(",") if p.strip()]
        if not values:
            raise ValueError("empty axis")
        return values
    except ValueError as exc:
        raise InvalidParameterError(f"bad --grid axis {spec!r}: {exc}") from None


def _reject_server_plus_cache(args: argparse.Namespace) -> None:
    """Fail fast on flags that do nothing once a daemon owns the work."""
    if not getattr(args, "server", None):
        if getattr(args, "executor", "numpy") != "numpy":
            # Resolve eagerly so a typo fails before any work, naming
            # the registered backends.
            from repro.graph.executors import get_executor

            get_executor(args.executor)
        return
    if getattr(args, "cache_dir", None):
        raise InvalidParameterError(
            "--server and --cache-dir are mutually exclusive: a running "
            "daemon owns the shared store (start it with `repro serve "
            "--cache-dir ...`)"
        )
    if getattr(args, "max_cache_mb", None) is not None:
        raise InvalidParameterError(
            "--max-cache-mb has no effect with --server here: bound the "
            "daemon's store instead (`repro serve --max-cache-mb ...`)"
        )
    if getattr(args, "explain", False):
        raise InvalidParameterError(
            "--explain is local: it plans the sweep graph without "
            "executing, so there is nothing to route through a daemon"
        )
    if getattr(args, "executor", "numpy") != "numpy":
        raise InvalidParameterError(
            "--executor has no effect with --server: the daemon picks "
            "its own executor"
        )


def _cmd_machines(_args: argparse.Namespace) -> int:
    rows = []
    for name, machine in sorted(DEFAULT_MACHINES.items()):
        params = {
            f.name: getattr(machine, f.name)
            for f in machine.__dataclass_fields__.values()  # type: ignore[attr-defined]
        }
        rows.append(
            (name, type(machine).__name__, ", ".join(f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}" for k, v in params.items()))
        )
    print(format_table(["preset", "model", "parameters"], rows))
    return 0


def _evaluate(args: argparse.Namespace, render, op: str, **params) -> int:
    """Answer a command with one request of the ``op`` family.

    ``params`` are the family's builder arguments, machines and stencils
    by catalog name.  With ``--server`` the family's wire payload goes
    to the daemon; otherwise its node is planned on ``--executor``
    against the ``--cache-dir`` store, then explained or executed.
    ``render(args, arrays)`` prints the result, so every route prints
    the same bytes.
    """
    from repro.graph.families import family_for

    family = family_for(op)
    if args.server:
        from repro.service import ServiceClient

        client = ServiceClient(args.server)
        try:
            arrays = client.compute(family.payload(**params))
        finally:
            client.close()
        render(args, arrays)
        return 0
    from repro.batch.cache import SweepCache, max_cache_bytes
    from repro.graph.planner import plan as plan_graph

    cache = None
    if args.cache_dir is not None:
        cache = SweepCache(args.cache_dir, max_bytes=max_cache_bytes(args.max_cache_mb))
    plan = plan_graph([family.node(**params)], cache=cache, executor=args.executor)
    if args.explain:
        print(plan.explain())
        return 0
    render(args, plan.execute()[0])
    if cache is not None:
        print()
        print(f"sweep cache: {cache.stats.describe()}")
    return 0


# --------------------------------------------------------------------------
# optimize
# --------------------------------------------------------------------------

#: ``allocation_curve`` result columns, and their labels.
_ALLOCATION_COLUMNS = (
    "grid_sides", "regime", "processors", "area", "cycle_time", "speedup", "efficiency"
)
_ALLOCATION_LABELS = (
    "n", "regime", "processors", "points per processor", "cycle time (s)", "speedup", "efficiency"
)


def _render_optimize(args: argparse.Namespace, arrays) -> None:
    """One row per grid side; point mode prints its one row as a kv block."""
    rows = [
        (int(n), regime, round(p, 2), round(area, 1), cycle_time, round(s, 3), round(e, 3))
        for n, regime, p, area, cycle_time, s, e in zip(
            *(arrays[name].tolist() for name in _ALLOCATION_COLUMNS)
        )
    ]
    if args.grid is None:
        problem = {
            "machine": args.machine,
            "grid": f"{args.n} x {args.n}",
            "stencil": args.stencil,
            "partition": args.partition,
        }
        allocation = dict(zip(_ALLOCATION_LABELS[1:], rows[0][1:]))
        print(format_kv_block({**problem, **allocation}, title="Optimal allocation"))
        return
    print(
        format_table(
            list(_ALLOCATION_LABELS),
            rows,
            title=(
                f"Optimal allocation curve: {args.machine}, {args.stencil}, "
                f"{args.partition} partitions, {len(rows)} grid sides"
            ),
        )
    )


def _cmd_optimize(args: argparse.Namespace) -> int:
    _reject_server_plus_cache(args)
    return _evaluate(
        args,
        _render_optimize,
        "allocation_curve",
        machine=args.machine,
        stencil=args.stencil,
        kind=args.partition,
        grid_sides=[args.n] if args.grid is None else parse_axis(args.grid),
        t_flop=args.t_flop,
        max_processors=args.max_processors,
        integer=True,
    )


# --------------------------------------------------------------------------
# plan
# --------------------------------------------------------------------------


def _render_plan(args: argparse.Namespace, plan) -> None:
    rows = [
        (stencil, kind, round(value, 1))
        for stencil, values in zip(plan["stencils"].tolist(), plan["max_useful"].tolist())
        for kind, value in zip(("strip", "square"), values)
    ]
    print(
        format_table(
            ["stencil", "partition", "max useful processors"],
            rows,
            title=f"Capacity plan: {args.machine}, {args.n} x {args.n}",
        )
    )
    print()
    if args.grid is None:
        sizes = zip(plan["default_processors"].tolist(), plan["default_sides"].tolist())
        print(
            format_table(
                ["N processors", "min grid side (squares, 5-point)"],
                [(p, round(side)) for p, side in sizes],
            )
        )
        return
    sizes = zip(
        plan["grid_processors"].tolist(),
        plan["grid_strip"].tolist(),
        plan["grid_square"].tolist(),
    )
    rows = [(p, round(strip), round(square)) for p, strip, square in sizes]
    print(
        format_table(
            ["N processors", "min grid side (strips)", "min grid side (squares)"],
            rows,
            title=f"Capacity curve: {args.machine}, {len(rows)} machine sizes",
        )
    )


def _cmd_plan(args: argparse.Namespace) -> int:
    _reject_server_plus_cache(args)
    if not isinstance(DEFAULT_MACHINES[args.machine], BusArchitecture):
        print(
            f"{args.machine} is not a bus: allocation is extremal — use all "
            "processors (or one, if the network is slower than computing "
            "locally).  Capacity planning thresholds apply to buses."
        )
        return 0
    return _evaluate(
        args,
        _render_plan,
        "plan",
        machine=args.machine,
        n=args.n,
        grid=None if args.grid is None else parse_axis(args.grid),
    )


# --------------------------------------------------------------------------
# simulate
# --------------------------------------------------------------------------


def _render_simulation(args: argparse.Namespace, arrays) -> None:
    """One replica ensemble as a kv block, plus a per-seed table when small."""
    import numpy as np

    cycles = np.asarray(arrays["cycle_times"], dtype=np.float64)
    print(
        format_kv_block(
            {
                "machine": args.machine,
                "grid": f"{args.n} x {args.n}",
                "processors": args.processors,
                "stencil": args.stencil,
                "partition": args.partition,
                "mode": args.mode,
                "jitter": args.jitter,
                "replicas": int(cycles.size),
                "mean cycle time (s)": cycles.mean().item(),
                "std cycle time (s)": cycles.std().item(),
                "min cycle time (s)": cycles.min().item(),
                "q05 cycle time (s)": np.quantile(cycles, 0.05).item(),
                "q95 cycle time (s)": np.quantile(cycles, 0.95).item(),
                "max cycle time (s)": cycles.max().item(),
            },
            title="Replica simulation",
        )
    )
    if cycles.size <= 16:
        seeds = np.asarray(arrays["seeds"]).tolist()
        print()
        print(
            format_table(
                ["seed", "cycle time (s)"],
                [(int(s), c.item()) for s, c in zip(seeds, cycles)],
            )
        )


def _cmd_simulate(args: argparse.Namespace) -> int:
    _reject_server_plus_cache(args)
    if args.replicas < 1:
        raise InvalidParameterError(f"--replicas must be >= 1, got {args.replicas}")
    # The family bounds the replica count on either route, before any
    # seed list is built; over the wire the range is two integers.
    return _evaluate(
        args,
        _render_simulation,
        "sim_sweep",
        machine=args.machine,
        stencil=args.stencil,
        kind=args.partition,
        n=args.n,
        n_processors=args.processors,
        seeds=range(args.seed, args.seed + args.replicas),
        t_flop=args.t_flop,
        mode=args.mode,
        jitter=args.jitter,
    )


# --------------------------------------------------------------------------
# experiments / serve
# --------------------------------------------------------------------------


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_from_args

    return run_from_args(args)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import AsyncSweepServer

    server = AsyncSweepServer(
        host=args.host,
        port=args.port,
        cache_dir=None if args.cache_dir is None else str(args.cache_dir),
        max_cache_mb=args.max_cache_mb,
        read_timeout_s=args.read_timeout,
        drain_timeout_s=args.drain_timeout,
        workers=args.workers,
    )
    bound = "unbounded" if args.max_cache_mb is None else f"{args.max_cache_mb:g} MiB/tier"
    store = "memory only" if args.cache_dir is None else str(args.cache_dir)
    print(f"repro sweep server listening on {server.url}", flush=True)
    print(f"store: {store} ({bound}); GET /v1/stats for counters", flush=True)
    # SIGTERM and ^C stop the event loop, which drains in-flight
    # requests and flushes the store before serve_forever returns.
    server.serve_forever()
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analyze import lint_tree, render_text, write_json

    report = lint_tree()
    if args.format == "json":
        output = args.output if args.output is not None else Path("results/LINT.json")
        write_json(report, output)
        print(f"wrote {output} ({'clean' if report.ok else 'FINDINGS'})")
    else:
        print(render_text(report))
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("machines", help="list machine presets").set_defaults(
        func=_cmd_machines
    )

    stencils = sorted(s.name for s in ALL_STENCILS)
    # The flags of the commands that answer with one family request.
    evaluated = argparse.ArgumentParser(add_help=False)
    evaluated.add_argument(
        "--cache-dir", type=Path, default=None, help="sweep-cache directory"
    )
    evaluated.add_argument(
        "--max-cache-mb",
        type=float,
        default=None,
        help="LRU bound per cache tier (MiB); default unbounded",
    )
    evaluated.add_argument(
        "--server",
        default=None,
        help="route through a running `repro serve` daemon (URL)",
    )
    evaluated.add_argument(
        "--explain",
        action="store_true",
        help="print the optimized sweep graph (nodes, fusion groups, "
        "cache hits) without executing",
    )
    evaluated.add_argument(
        "--executor",
        default="numpy",
        help="graph executor: numpy (vectorized, default) or oracle "
        "(scalar reference)",
    )

    opt = sub.add_parser(
        "optimize", parents=[evaluated], help="optimal allocation for a problem"
    )
    opt.add_argument("--machine", default="paper-bus", choices=sorted(DEFAULT_MACHINES))
    opt.add_argument("--n", type=int, default=256)
    opt.add_argument("--stencil", default="5-point", choices=stencils)
    opt.add_argument("--partition", default="square", choices=["strip", "square"])
    opt.add_argument("--max-processors", type=int, default=None)
    opt.add_argument("--t-flop", type=float, default=1e-6)
    opt.add_argument(
        "--grid",
        default=None,
        help="sweep grid sides (LO:HI[:STEP] or a,b,c) — whole-curve output",
    )
    opt.set_defaults(func=_cmd_optimize)

    plan = sub.add_parser(
        "plan", parents=[evaluated], help="capacity planning thresholds"
    )
    plan.add_argument("--machine", default="paper-bus", choices=sorted(DEFAULT_MACHINES))
    plan.add_argument("--n", type=int, default=256)
    plan.add_argument(
        "--grid",
        default=None,
        help="sweep machine sizes N (LO:HI[:STEP] or a,b,c) — whole-curve output",
    )
    plan.set_defaults(func=_cmd_plan)

    simc = sub.add_parser(
        "simulate",
        parents=[evaluated],
        help="batched replica simulation (Monte Carlo bands)",
    )
    simc.add_argument("--machine", default="paper-bus", choices=sorted(DEFAULT_MACHINES))
    simc.add_argument("--n", type=int, default=64)
    simc.add_argument(
        "--processors", type=int, default=16, help="processor count P"
    )
    simc.add_argument("--stencil", default="5-point", choices=stencils)
    simc.add_argument("--partition", default="square", choices=["strip", "square"])
    simc.add_argument(
        "--mode",
        default="barrier",
        choices=["barrier", "pipelined"],
        help="bus scheduling discipline",
    )
    simc.add_argument(
        "--replicas", type=int, default=1, help="ensemble size (consecutive seeds)"
    )
    simc.add_argument("--seed", type=int, default=0, help="first replica seed")
    simc.add_argument(
        "--jitter",
        type=float,
        default=0.0,
        help="per-phase multiplicative noise amplitude in [0, 1); 0 is "
        "the deterministic event-level trace",
    )
    simc.add_argument("--t-flop", type=float, default=1e-6)
    simc.set_defaults(func=_cmd_simulate)

    exps = sub.add_parser("experiments", help="run paper experiments")
    exps.add_argument("ids", nargs="*", help="experiment ids (default: all)")
    exps.add_argument("--list", action="store_true", help="list experiment ids")
    exps.add_argument("--output", type=Path, default=None, help="CSV directory")
    exps.set_defaults(func=_cmd_experiments)

    serve = sub.add_parser(
        "serve", help="long-running sweep server (HTTP)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8733, help="0 picks an ephemeral port"
    )
    serve.add_argument(
        "--cache-dir", type=Path, default=None, help="shared frame-file store directory"
    )
    serve.add_argument(
        "--max-cache-mb",
        type=float,
        default=None,
        help="LRU bound per cache tier (MiB); default unbounded",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=8,
        help="compute threads shared by all connections",
    )
    serve.add_argument(
        "--read-timeout",
        type=float,
        default=60.0,
        help="seconds before an idle or half-open connection is closed",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        help="seconds a graceful shutdown waits for in-flight requests",
    )
    serve.set_defaults(func=_cmd_serve)

    lint = sub.add_parser(
        "lint",
        help="static invariant checks over the repro source tree",
        description=(
            "Run the repo's own AST analyzer: fingerprint purity, lock "
            "discipline, vectorization guard, and parity coverage. "
            "Exits 0 only when no unsuppressed finding remains."
        ),
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    lint.add_argument(
        "--output",
        type=Path,
        default=None,
        help="JSON output path (default results/LINT.json; json format only)",
    )
    lint.set_defaults(func=_cmd_lint)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
