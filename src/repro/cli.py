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
    Run registered experiments (same as ``repro.experiments.runner``).
``serve``
    Long-running sweep server: plan/optimize/sweep over HTTP with a
    shared, size-bounded, deduplicated result cache.

``optimize`` and ``plan`` also run in whole-curve mode: ``--grid
LO:HI[:STEP]`` (or an explicit comma list) sweeps the axis through the
vectorized analysis layer and ``--cache-dir`` serves repeats from the
content-addressed sweep cache (``--max-cache-mb`` bounds it).  With
``--server URL`` both commands route through a
running ``repro serve`` daemon instead of computing locally — the
output is byte-identical either way.  Both commands also take
``--explain`` (print the optimized sweep graph — nodes, fusion groups,
cache hits — without executing anything) and ``--executor`` (pick the
graph backend: the default vectorized ``numpy`` executor or the scalar
``oracle`` reference; the rendered bytes are identical on both).

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

from repro.core.allocation import optimize_allocation
from repro.core.minimal_size import max_useful_processors, minimal_grid_side
from repro.core.parameters import Workload
from repro.errors import InvalidParameterError
from repro.machines.bus import BusArchitecture
from repro.machines.catalog import DEFAULT_MACHINES, by_name
from repro.report.tables import format_kv_block, format_table
from repro.stencils.library import ALL_STENCILS
from repro.stencils.library import by_name as stencil_by_name
from repro.stencils.perimeter import PartitionKind

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


def _open_cache(cache_dir: Path | None, max_cache_mb: float | None = None):
    if cache_dir is None:
        return None
    from repro.batch.cache import SweepCache, max_cache_bytes

    return SweepCache(cache_dir, max_bytes=max_cache_bytes(max_cache_mb))


def _reject_server_plus_cache(
    args: argparse.Namespace, locally_meaningful: tuple[str, ...] = ()
) -> None:
    """Fail fast on flags that do nothing once a daemon owns the work.

    ``experiments --server`` passes ``locally_meaningful`` for the flags
    that still act in this process — ``--max-cache-mb`` bounds each
    worker's memory tier — while for ``optimize``/``plan`` the daemon
    owns store and bound.
    """
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
    if (
        getattr(args, "max_cache_mb", None) is not None
        and "max_cache_mb" not in locally_meaningful
    ):
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


# --------------------------------------------------------------------------
# optimize
# --------------------------------------------------------------------------


def _render_optimize_point(
    args: argparse.Namespace,
    kind: PartitionKind,
    regime: str,
    processors: float,
    area: float,
    cycle_time: float,
    speedup: float,
    efficiency: float,
) -> None:
    """One allocation as a kv block — the shape both the offline scalar
    path and the daemon-served path feed, so their bytes can't drift."""
    print(
        format_kv_block(
            {
                "machine": args.machine,
                "grid": f"{args.n} x {args.n}",
                "stencil": args.stencil,
                "partition": kind.value,
                "regime": regime,
                "processors": round(processors, 2),
                "points per processor": round(area, 1),
                "cycle time (s)": cycle_time,
                "speedup": round(speedup, 3),
                "efficiency": round(efficiency, 3),
            },
            title="Optimal allocation",
        )
    )


def _cmd_optimize(args: argparse.Namespace) -> int:
    _reject_server_plus_cache(args)
    machine = by_name(args.machine)
    kind = PartitionKind(args.partition)
    if args.explain:
        return _optimize_explain(args, machine, kind)
    if args.grid is not None:
        return _optimize_grid(args, machine, kind)
    if args.server:
        # A one-point curve: element 0 equals the scalar optimizer bit
        # for bit (the analysis layer's pinned contract), so the block
        # below renders the same bytes the offline branch prints.
        from repro.service import ServiceClient

        curve = ServiceClient(args.server).allocation_curve(
            args.machine,
            args.stencil,
            kind.value,
            [args.n],
            t_flop=args.t_flop,
            max_processors=args.max_processors,
            integer=True,
        )
        _render_optimize_point(
            args,
            kind,
            curve.regime[0],
            curve.processors[0].item(),
            curve.area[0].item(),
            curve.cycle_time[0].item(),
            curve.speedup[0].item(),
            curve.efficiency[0].item(),
        )
        return 0
    if args.executor != "numpy":
        # One-point graph evaluation on the chosen backend; element 0
        # equals the scalar optimizer bit for bit, so the same bytes
        # render either way.
        from repro.graph import nodes as graph_nodes
        from repro.graph.planner import evaluate as graph_evaluate

        node = graph_nodes.allocation_curve(
            machine,
            stencil_by_name(args.stencil),
            kind,
            [args.n],
            t_flop=args.t_flop,
            max_processors=args.max_processors,
            integer=True,
        )
        arrays = graph_evaluate([node], executor=args.executor)[0]
        _render_optimize_point(
            args,
            kind,
            arrays["regime"][0],
            arrays["processors"][0].item(),
            arrays["area"][0].item(),
            arrays["cycle_time"][0].item(),
            arrays["speedup"][0].item(),
            arrays["efficiency"][0].item(),
        )
        return 0
    workload = Workload(n=args.n, stencil=stencil_by_name(args.stencil), t_flop=args.t_flop)
    alloc = optimize_allocation(
        machine, workload, kind, max_processors=args.max_processors, integer=True
    )
    _render_optimize_point(
        args,
        kind,
        alloc.regime,
        alloc.processors,
        alloc.area,
        alloc.cycle_time,
        alloc.speedup,
        alloc.efficiency,
    )
    return 0


def _render_allocation_curve(
    args: argparse.Namespace, kind: PartitionKind, curve, n_sides: int
) -> None:
    rows = [
        (
            int(curve.grid_sides[i]),
            curve.regime[i],
            round(curve.processors[i].item(), 2),
            round(curve.area[i].item(), 1),
            curve.cycle_time[i].item(),
            round(curve.speedup[i].item(), 3),
            round(curve.efficiency[i].item(), 3),
        )
        for i in range(len(curve))
    ]
    print(
        format_table(
            [
                "n",
                "regime",
                "processors",
                "points per processor",
                "cycle time (s)",
                "speedup",
                "efficiency",
            ],
            rows,
            title=(
                f"Optimal allocation curve: {args.machine}, {args.stencil}, "
                f"{kind.value} partitions, {n_sides} grid sides"
            ),
        )
    )


def _optimize_explain(args: argparse.Namespace, machine, kind: PartitionKind) -> int:
    """``optimize --explain``: print the planned graph, execute nothing."""
    from repro.graph import nodes as graph_nodes
    from repro.graph.planner import plan as plan_graph

    sides = [args.n] if args.grid is None else parse_axis(args.grid)
    node = graph_nodes.allocation_curve(
        machine,
        stencil_by_name(args.stencil),
        kind,
        sides,
        t_flop=args.t_flop,
        max_processors=args.max_processors,
        integer=True,
    )
    cache = _open_cache(args.cache_dir, args.max_cache_mb)
    print(plan_graph([node], cache=cache, executor=args.executor).explain())
    return 0


def _optimize_grid(args: argparse.Namespace, machine, kind: PartitionKind) -> int:
    """Whole-curve ``optimize``: one table over the swept grid sides."""
    sides = parse_axis(args.grid)
    if args.server:
        from repro.service import ServiceClient

        curve = ServiceClient(args.server).allocation_curve(
            args.machine,
            args.stencil,
            kind.value,
            sides,
            t_flop=args.t_flop,
            max_processors=args.max_processors,
            integer=True,
        )
        _render_allocation_curve(args, kind, curve, len(sides))
        return 0
    cache = _open_cache(args.cache_dir, args.max_cache_mb)
    if args.executor != "numpy":
        from repro.batch.analysis import AllocationCurve
        from repro.graph import nodes as graph_nodes
        from repro.graph.planner import evaluate as graph_evaluate

        node = graph_nodes.allocation_curve(
            machine,
            stencil_by_name(args.stencil),
            kind,
            sides,
            t_flop=args.t_flop,
            max_processors=args.max_processors,
            integer=True,
        )
        arrays = graph_evaluate([node], cache=cache, executor=args.executor)[0]
        curve = AllocationCurve.from_arrays(arrays, kind)
    else:
        from repro.batch import optimal_allocation_curve

        curve = optimal_allocation_curve(
            machine,
            stencil_by_name(args.stencil),
            kind,
            sides,
            t_flop=args.t_flop,
            max_processors=args.max_processors,
            integer=True,
            cache=cache,
        )
    _render_allocation_curve(args, kind, curve, len(sides))
    if cache is not None:
        print()
        print(f"sweep cache: {cache.stats.describe()}")
    return 0


# --------------------------------------------------------------------------
# plan
# --------------------------------------------------------------------------


def _render_plan_thresholds(args: argparse.Namespace, rows: list[tuple]) -> None:
    print(
        format_table(
            ["stencil", "partition", "max useful processors"],
            rows,
            title=f"Capacity plan: {args.machine}, {args.n} x {args.n}",
        )
    )


def _render_plan_defaults(rows: list[tuple]) -> None:
    print()
    print(
        format_table(
            ["N processors", "min grid side (squares, 5-point)"],
            rows,
        )
    )


def _render_plan_grid(args: argparse.Namespace, rows: list[tuple], n_points: int) -> None:
    print()
    print(
        format_table(
            ["N processors", "min grid side (strips)", "min grid side (squares)"],
            rows,
            title=f"Capacity curve: {args.machine}, {n_points} machine sizes",
        )
    )


def _cmd_plan(args: argparse.Namespace) -> int:
    _reject_server_plus_cache(args)
    machine = by_name(args.machine)
    if not isinstance(machine, BusArchitecture):
        print(
            f"{args.machine} is not a bus: allocation is extremal — use all "
            "processors (or one, if the network is slower than computing "
            "locally).  Capacity planning thresholds apply to buses."
        )
        return 0
    if args.server:
        return _plan_via_server(args)
    if args.explain:
        return _plan_explain(args, machine)
    rows = []
    for stencil in ALL_STENCILS:
        w = Workload(n=args.n, stencil=stencil)
        for kind in (PartitionKind.STRIP, PartitionKind.SQUARE):
            rows.append(
                (
                    stencil.name,
                    kind.value,
                    round(max_useful_processors(machine, w, kind), 1),
                )
            )
    _render_plan_thresholds(args, rows)
    if args.grid is not None:
        return _plan_grid(args, machine)
    rows = []
    for n_procs in (8, 16, 32):
        side = minimal_grid_side(machine, 1, 5.0, 1e-6, n_procs, PartitionKind.SQUARE)
        rows.append((n_procs, round(side)))
    _render_plan_defaults(rows)
    return 0


def _plan_via_server(args: argparse.Namespace) -> int:
    """The whole ``plan`` output from one daemon request, same bytes."""
    from repro.service import ServiceClient

    grid = None if args.grid is None else parse_axis(args.grid)
    plan = ServiceClient(args.server).plan(args.machine, args.n, grid)
    kinds = (PartitionKind.STRIP, PartitionKind.SQUARE)
    rows = [
        (
            str(plan["stencils"][i]),
            kind.value,
            round(plan["max_useful"][i, j].item(), 1),
        )
        for i in range(plan["stencils"].size)
        for j, kind in enumerate(kinds)
    ]
    _render_plan_thresholds(args, rows)
    if grid is None:
        _render_plan_defaults(
            [
                (int(p), round(side.item()))
                for p, side in zip(plan["default_processors"], plan["default_sides"])
            ]
        )
        return 0
    _render_plan_grid(
        args,
        [
            (
                int(plan["grid_processors"][i]),
                round(plan["grid_strip"][i].item()),
                round(plan["grid_square"][i].item()),
            )
            for i in range(plan["grid_processors"].size)
        ],
        len(grid),
    )
    return 0


def _plan_explain(args: argparse.Namespace, machine) -> int:
    """``plan --explain``: the graph a capacity plan builds, unexecuted.

    One max-useful threshold node per (stencil, partition) pair plus the
    minimal-grid-side node over the machine-size axis (``--grid`` or the
    default sizes) — the pieces the daemon's ``plan`` family computes as
    one bundle.
    """
    from repro.graph import nodes as graph_nodes
    from repro.graph.planner import plan as plan_graph

    forest = [
        graph_nodes.max_useful_processors(machine, stencil, kind, [args.n])
        for stencil in ALL_STENCILS
        for kind in (PartitionKind.STRIP, PartitionKind.SQUARE)
    ]
    axis = [8, 16, 32] if args.grid is None else parse_axis(args.grid)
    forest.append(graph_nodes.plan_grid(machine, axis))
    cache = _open_cache(args.cache_dir, args.max_cache_mb)
    print(plan_graph(forest, cache=cache, executor=args.executor).explain())
    return 0


def _plan_grid(args: argparse.Namespace, machine) -> int:
    """Whole-curve capacity plan: minimal grid sides over the N axis."""
    from repro.graph import nodes as graph_nodes
    from repro.graph.planner import evaluate as graph_evaluate

    processors = parse_axis(args.grid)
    cache = _open_cache(args.cache_dir, args.max_cache_mb)
    curves = graph_evaluate(
        [graph_nodes.plan_grid(machine, processors)],
        cache=cache,
        executor=args.executor,
    )[0]
    rows = [
        (
            n_procs,
            round(curves[PartitionKind.STRIP.value][i].item()),
            round(curves[PartitionKind.SQUARE.value][i].item()),
        )
        for i, n_procs in enumerate(processors)
    ]
    _render_plan_grid(args, rows, len(processors))
    if cache is not None:
        print()
        print(f"sweep cache: {cache.stats.describe()}")
    return 0


# --------------------------------------------------------------------------
# simulate
# --------------------------------------------------------------------------


def _render_simulation(args: argparse.Namespace, kind: PartitionKind, arrays) -> None:
    """One replica ensemble as a kv block (plus a per-seed table when
    small) — the shape both the offline graph path and the daemon-served
    path feed, so their bytes can't drift."""
    import numpy as np

    cycles = np.asarray(arrays["cycle_times"], dtype=np.float64)
    print(
        format_kv_block(
            {
                "machine": args.machine,
                "grid": f"{args.n} x {args.n}",
                "processors": args.processors,
                "stencil": args.stencil,
                "partition": kind.value,
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
    kind = PartitionKind(args.partition)
    if args.replicas < 1:
        raise InvalidParameterError(f"--replicas must be >= 1, got {args.replicas}")
    seeds = list(range(args.seed, args.seed + args.replicas))

    def build_node():
        from repro.graph import nodes as graph_nodes

        return graph_nodes.sim_sweep(
            by_name(args.machine),
            stencil_by_name(args.stencil),
            kind,
            args.n,
            args.processors,
            seeds,
            t_flop=args.t_flop,
            mode=args.mode,
            jitter=args.jitter,
        )

    if args.explain:
        from repro.graph.planner import plan as plan_graph

        cache = _open_cache(args.cache_dir, args.max_cache_mb)
        print(plan_graph([build_node()], cache=cache, executor=args.executor).explain())
        return 0
    if args.server:
        from repro.service import ServiceClient

        arrays = ServiceClient(args.server).sim_sweep(
            args.machine,
            args.n,
            args.processors,
            args.stencil,
            kind.value,
            replicas=args.replicas,
            seed=args.seed,
            t_flop=args.t_flop,
            mode=args.mode,
            jitter=args.jitter,
        )
    else:
        from repro.graph.planner import evaluate as graph_evaluate

        cache = _open_cache(args.cache_dir, args.max_cache_mb)
        arrays = graph_evaluate(
            [build_node()], cache=cache, executor=args.executor
        )[0]
    _render_simulation(args, kind, arrays)
    return 0


# --------------------------------------------------------------------------
# experiments / serve
# --------------------------------------------------------------------------


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_and_report

    if args.list:
        from repro.experiments import all_experiments

        for exp_id in sorted(all_experiments()):
            print(exp_id)
        return 0
    _reject_server_plus_cache(args, locally_meaningful=("max_cache_mb",))
    return run_and_report(
        args.output,
        args.ids or None,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        server=args.server,
        max_cache_mb=args.max_cache_mb,
    )


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

    opt = sub.add_parser("optimize", help="optimal allocation for a problem")
    opt.add_argument("--machine", default="paper-bus", choices=sorted(DEFAULT_MACHINES))
    opt.add_argument("--n", type=int, default=256)
    opt.add_argument("--stencil", default="5-point")
    opt.add_argument("--partition", default="square", choices=["strip", "square"])
    opt.add_argument("--max-processors", type=int, default=None)
    opt.add_argument("--t-flop", type=float, default=1e-6)
    opt.add_argument(
        "--grid",
        default=None,
        help="sweep grid sides (LO:HI[:STEP] or a,b,c) — whole-curve output",
    )
    opt.add_argument(
        "--cache-dir", type=Path, default=None, help="sweep-cache directory"
    )
    opt.add_argument(
        "--max-cache-mb",
        type=float,
        default=None,
        help="LRU bound per cache tier (MiB); default unbounded",
    )
    opt.add_argument(
        "--server",
        default=None,
        help="route through a running `repro serve` daemon (URL)",
    )
    opt.add_argument(
        "--explain",
        action="store_true",
        help="print the optimized sweep graph (nodes, fusion groups, "
        "cache hits) without executing",
    )
    opt.add_argument(
        "--executor",
        default="numpy",
        help="graph executor: numpy (vectorized, default) or oracle "
        "(scalar repro.core reference)",
    )
    opt.set_defaults(func=_cmd_optimize)

    plan = sub.add_parser("plan", help="capacity planning thresholds")
    plan.add_argument("--machine", default="paper-bus", choices=sorted(DEFAULT_MACHINES))
    plan.add_argument("--n", type=int, default=256)
    plan.add_argument(
        "--grid",
        default=None,
        help="sweep machine sizes N (LO:HI[:STEP] or a,b,c) — whole-curve output",
    )
    plan.add_argument(
        "--cache-dir", type=Path, default=None, help="sweep-cache directory"
    )
    plan.add_argument(
        "--max-cache-mb",
        type=float,
        default=None,
        help="LRU bound per cache tier (MiB); default unbounded",
    )
    plan.add_argument(
        "--server",
        default=None,
        help="route through a running `repro serve` daemon (URL)",
    )
    plan.add_argument(
        "--explain",
        action="store_true",
        help="print the optimized sweep graph (nodes, fusion groups, "
        "cache hits) without executing",
    )
    plan.add_argument(
        "--executor",
        default="numpy",
        help="graph executor: numpy (vectorized, default) or oracle "
        "(scalar repro.core reference)",
    )
    plan.set_defaults(func=_cmd_plan)

    simc = sub.add_parser(
        "simulate", help="batched replica simulation (Monte Carlo bands)"
    )
    simc.add_argument("--machine", default="paper-bus", choices=sorted(DEFAULT_MACHINES))
    simc.add_argument("--n", type=int, default=64)
    simc.add_argument(
        "--processors", type=int, default=16, help="processor count P"
    )
    simc.add_argument("--stencil", default="5-point")
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
    simc.add_argument(
        "--cache-dir", type=Path, default=None, help="sweep-cache directory"
    )
    simc.add_argument(
        "--max-cache-mb",
        type=float,
        default=None,
        help="LRU bound per cache tier (MiB); default unbounded",
    )
    simc.add_argument(
        "--server",
        default=None,
        help="route through a running `repro serve` daemon (URL)",
    )
    simc.add_argument(
        "--explain",
        action="store_true",
        help="print the optimized sweep graph (nodes, fusion groups, "
        "cache hits) without executing",
    )
    simc.add_argument(
        "--executor",
        default="numpy",
        help="graph executor: numpy (vectorized, default) or oracle "
        "(scalar event-level reference)",
    )
    simc.set_defaults(func=_cmd_simulate)

    exp = sub.add_parser("experiments", help="run paper experiments")
    exp.add_argument("ids", nargs="*", help="experiment ids (default: all)")
    exp.add_argument("--list", action="store_true")
    exp.add_argument("--output", type=Path, default=None, help="CSV directory")
    exp.add_argument(
        "--jobs", type=int, default=1, help="experiments to run concurrently"
    )
    exp.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="enable the disk-backed sweep cache under this directory",
    )
    exp.add_argument(
        "--max-cache-mb",
        type=float,
        default=None,
        help="LRU bound per cache tier (MiB); default unbounded",
    )
    exp.add_argument(
        "--server",
        default=None,
        help="route sweeps through a running `repro serve` daemon (URL)",
    )
    exp.set_defaults(func=_cmd_experiments)

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
