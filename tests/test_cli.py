"""CLI subcommands drive the library end to end."""

import pytest

from repro.batch import SweepCache
from repro.cli import build_parser, main


class TestMachines:
    def test_lists_presets(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        assert "paper-bus" in out
        assert "flex32" in out
        assert "Hypercube" in out


class TestOptimize:
    def test_interior_allocation_reported(self, capsys):
        code = main(
            [
                "optimize",
                "--machine",
                "paper-bus",
                "--n",
                "256",
                "--max-processors",
                "16",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "interior" in out
        assert "processors" in out

    def test_hypercube_uses_all(self, capsys):
        main(["optimize", "--machine", "ipsc", "--n", "128", "--max-processors", "32"])
        out = capsys.readouterr().out
        assert "regime" in out

    def test_rejects_unknown_machine(self):
        with pytest.raises(SystemExit):
            main(["optimize", "--machine", "cray-1"])


class TestPlan:
    def test_bus_plan_contains_anchor(self, capsys):
        main(["plan", "--machine", "paper-bus", "--n", "256"])
        out = capsys.readouterr().out
        assert "14" in out  # the Section 6.1 anchor
        assert "max useful processors" in out

    def test_non_bus_machine_explains_extremal(self, capsys):
        main(["plan", "--machine", "ipsc", "--n", "256"])
        out = capsys.readouterr().out
        assert "extremal" in out


class TestExperiments:
    def test_list(self, capsys):
        main(["experiments", "--list"])
        out = capsys.readouterr().out
        assert "E-FIG7" in out
        assert "E-TAB1" in out

    def test_run_one(self, capsys):
        main(["experiments", "E-KTAB"])
        out = capsys.readouterr().out
        assert "[E-KTAB]" in out
        assert "5-point" in out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--backend", "thread"],
            ["serve", "--jobs", "2"],
            ["optimize", "--grid", "64:128:64", "--jobs", "2"],
            ["experiments", "--cache-dir", "x"],
            ["experiments", "--max-cache-mb", "4"],
            ["experiments", "--server", "http://127.0.0.1:1"],
            ["experiments", "--jobs", "2"],
        ],
        ids=[
            "serve-backend",
            "serve-jobs",
            "optimize-jobs",
            "experiments-cache-dir",
            "experiments-max-cache-mb",
            "experiments-server",
            "experiments-jobs",
        ],
    )
    def test_removed_flags_are_rejected(self, capsys, argv):
        # One transport and no process pools: nothing to select.
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["serve", "optimize"])
    def test_help_lists_no_removed_flags(self, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command, "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "--jobs" not in out
        assert "--backend" not in out

    def test_serve_keeps_its_worker_pool_flag(self):
        args = build_parser().parse_args(["serve", "--port", "0", "--workers", "3"])
        assert (args.port, args.workers) == (0, 3)


class TestParseAxis:
    def test_range_inclusive(self):
        from repro.cli import parse_axis

        assert parse_axis("2:6") == [2, 3, 4, 5, 6]
        assert parse_axis("64:256:64") == [64, 128, 192, 256]

    def test_comma_list(self):
        from repro.cli import parse_axis

        assert parse_axis("8,16,32") == [8, 16, 32]

    def test_bad_specs_rejected(self):
        from repro.cli import parse_axis
        from repro.errors import InvalidParameterError

        for bad in ("", "5:2", "1:10:0", "a:b", "1:2:3:4", ","):
            with pytest.raises(InvalidParameterError):
                parse_axis(bad)


class TestExitCodes:
    def test_all_subcommands_return_zero(self, capsys, tmp_path):
        assert main(["machines"]) == 0
        assert main(["optimize", "--machine", "paper-bus", "--n", "64"]) == 0
        assert main(["plan", "--machine", "paper-bus", "--n", "64"]) == 0
        assert main(["experiments", "--list"]) == 0
        capsys.readouterr()

    def test_table_headers_present(self, capsys):
        main(["machines"])
        out = capsys.readouterr().out
        assert "preset" in out and "model" in out and "parameters" in out
        main(["plan", "--machine", "paper-bus", "--n", "256"])
        out = capsys.readouterr().out
        assert "stencil" in out and "partition" in out
        assert "min grid side (squares, 5-point)" in out


class TestOptimizeGrid:
    def test_whole_curve_table(self, capsys):
        code = main(
            ["optimize", "--machine", "paper-bus", "--grid", "64:256:64"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Optimal allocation curve" in out
        assert "regime" in out and "speedup" in out and "efficiency" in out
        # One row per swept grid side.
        assert all(f"\n{n} " in out for n in (64, 128, 192, 256))

    def test_grid_rows_match_scalar_optimizer(self, capsys):
        from repro.core.allocation import optimize_allocation
        from repro.core.parameters import Workload
        from repro.machines.catalog import PAPER_BUS
        from repro.stencils.library import FIVE_POINT
        from repro.stencils.perimeter import PartitionKind

        main(["optimize", "--machine", "paper-bus", "--grid", "256:256"])
        out = capsys.readouterr().out
        scalar = optimize_allocation(
            PAPER_BUS,
            Workload(n=256, stencil=FIVE_POINT),
            PartitionKind.SQUARE,
            integer=True,
        )
        assert str(round(scalar.speedup, 3)) in out
        assert scalar.regime in out

    def test_cache_dir_reports_cold_then_warm(self, capsys, tmp_path):
        args = [
            "optimize",
            "--machine",
            "paper-bus",
            "--grid",
            "64:128:64",
            "--cache-dir",
            str(tmp_path / "cache"),
        ]
        main(args)
        assert "[cold]" in capsys.readouterr().out
        main(args)
        out = capsys.readouterr().out
        assert "[warm]" in out and "sweep cache" in out

    @pytest.mark.parametrize("command", ["optimize", "plan"])
    def test_point_mode_serves_repeat_from_store(self, capsys, tmp_path, command):
        argv = [command, "--machine", "paper-bus", "--n", "256",
                "--cache-dir", str(tmp_path / "cache")]
        main(argv)
        cold = capsys.readouterr().out
        main(argv)
        warm = capsys.readouterr().out
        assert "sweep cache:" in cold and "[cold]" in cold
        assert "[warm]" in warm

    def test_bad_grid_spec_raises(self):
        from repro.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            main(["optimize", "--machine", "paper-bus", "--grid", "9:1"])


class TestPlanGrid:
    def test_capacity_curve_table(self, capsys):
        code = main(["plan", "--machine", "paper-bus", "--grid", "2:10:2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Capacity curve" in out
        assert "min grid side (strips)" in out
        assert "min grid side (squares)" in out
        # The --n anchor table is still shown above the curve.
        assert "max useful processors" in out

    def test_cache_warm_hit_reported(self, capsys, tmp_path):
        args = [
            "plan",
            "--machine",
            "paper-bus",
            "--grid",
            "2:20:2",
            "--cache-dir",
            str(tmp_path / "cache"),
        ]
        main(args)
        capsys.readouterr()
        main(args)
        assert "[warm]" in capsys.readouterr().out


class TestExplainAndExecutor:
    def test_optimize_explain_plans_without_executing(self, capsys):
        code = main(
            ["optimize", "--machine", "paper-bus", "--grid", "64:256:16", "--explain"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep graph: 1 request(s)" in out
        assert "allocation_curve[paper-bus" in out
        assert "compute" in out
        # No allocation table was printed — the graph was not executed.
        assert "Optimal allocation curve" not in out

    def test_plan_explain_shows_the_whole_forest(self, capsys):
        # A capacity plan is one node of the plan family.
        code = main(["plan", "--machine", "paper-bus", "--n", "256", "--explain"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep graph: 1 request(s) -> 1 node(s)" in out
        assert "plan[paper-bus n=256 p_axis=3]" in out
        assert "max useful processors" not in out  # anchor table not printed

    def test_explain_reports_cache_hits(self, capsys, tmp_path):
        args = [
            "optimize",
            "--machine",
            "paper-bus",
            "--grid",
            "64:128:64",
            "--cache-dir",
            str(tmp_path / "cache"),
        ]
        main(args)
        capsys.readouterr()
        main(args + ["--explain"])
        out = capsys.readouterr().out
        assert "1 cache hit(s)" in out
        assert "cached (" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["optimize", "--machine", "flex32", "--grid", "64:256:16"],
            ["optimize", "--machine", "paper-bus", "--n", "256"],
            # 301 points: a curve long enough that it once went out to
            # worker processes; it is one in-process array call now.
            ["optimize", "--machine", "paper-bus", "--grid", "64:4864:16"],
            ["plan", "--machine", "paper-bus-async", "--grid", "2:32:2"],
        ],
    )
    def test_oracle_executor_output_is_byte_identical(self, capsys, argv):
        assert main(argv) == 0
        via_numpy = capsys.readouterr().out
        assert main(argv + ["--executor", "oracle"]) == 0
        via_oracle = capsys.readouterr().out
        assert via_oracle == via_numpy

    def test_unknown_executor_rejected(self):
        from repro.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError, match="unknown executor"):
            main(
                ["optimize", "--machine", "paper-bus", "--n", "64",
                 "--executor", "cuda"]
            )

    def test_explain_with_server_rejected(self):
        from repro.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError, match="--explain is local"):
            main(
                ["optimize", "--machine", "paper-bus", "--grid", "64:128:64",
                 "--server", "http://127.0.0.1:1", "--explain"]
            )

    def test_executor_with_server_rejected(self):
        from repro.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError, match="--executor"):
            main(
                ["plan", "--machine", "paper-bus", "--n", "64",
                 "--server", "http://127.0.0.1:1", "--executor", "oracle"]
            )


class TestSimulate:
    ARGV = [
        "simulate", "--machine", "paper-bus", "--n", "48",
        "--processors", "8", "--replicas", "12", "--jitter", "0.05",
    ]

    def test_band_and_per_seed_table(self, capsys):
        assert main(self.ARGV) == 0
        out = capsys.readouterr().out
        assert "Replica simulation" in out
        assert "mean cycle time (s)" in out
        assert "q95 cycle time (s)" in out
        # 12 replicas is small enough for the per-seed table.
        assert "seed" in out and "cycle time (s)" in out

    def test_band_matches_offline_simulator(self, capsys):
        import numpy as np

        from repro.batch.sim import ReplicaBatchSpec, simulate_replicas
        from repro.machines.catalog import PAPER_BUS
        from repro.stencils.library import FIVE_POINT
        from repro.stencils.perimeter import PartitionKind

        main(self.ARGV)
        out = capsys.readouterr().out
        spec = ReplicaBatchSpec.monte_carlo(
            PAPER_BUS, FIVE_POINT, PartitionKind.SQUARE, 48, 8, 12,
            jitter=0.05,
        )
        mean = simulate_replicas(spec).cycle_times.mean()
        assert f"{np.float64(mean).item():g}" in out

    def test_oracle_executor_output_is_byte_identical(self, capsys):
        assert main(self.ARGV) == 0
        via_numpy = capsys.readouterr().out
        assert main(self.ARGV + ["--executor", "oracle"]) == 0
        via_oracle = capsys.readouterr().out
        assert via_oracle == via_numpy

    def test_cache_dir_serves_repeat_from_store(self, capsys, tmp_path):
        argv = self.ARGV + ["--cache-dir", str(tmp_path / "cache")]
        main(argv)
        cold_block, cold_stats = capsys.readouterr().out.split("\nsweep cache: ")
        main(argv)
        warm_block, warm_stats = capsys.readouterr().out.split("\nsweep cache: ")
        assert warm_block == cold_block
        assert "[cold]" in cold_stats
        assert "[warm]" in warm_stats

    def test_explain_plans_without_executing(self, capsys):
        assert main(self.ARGV + ["--explain"]) == 0
        out = capsys.readouterr().out
        assert "sim_sweep" in out
        assert "compute" in out
        assert "Replica simulation" not in out

    def test_bad_replicas_rejected(self):
        from repro.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError, match="--replicas"):
            main(["simulate", "--replicas", "0"])

    @pytest.mark.parametrize("route", ["offline", "server"])
    def test_too_many_replicas_rejected_before_any_seed_list(self, monkeypatch, route):
        import socket

        from repro.errors import InvalidParameterError
        from repro.graph.families import MAX_REPLICAS

        def no_connection(*args, **kwargs):
            raise AssertionError("the request must be refused before connecting")

        monkeypatch.setattr(socket, "create_connection", no_connection)
        server = ["--server", "http://127.0.0.1:1"] if route == "server" else []
        with pytest.raises(InvalidParameterError, match="at most 100000 replicas"):
            main(["simulate", "--replicas", str(MAX_REPLICAS + 1)] + server)

    @pytest.mark.parametrize("route", ["offline", "server"])
    def test_replicas_at_the_cap_are_accepted(self, monkeypatch, capsys, route):
        # The CLI's bound is the daemon's: exactly MAX_REPLICAS runs on
        # either route, one more is refused.  A small cap keeps it quick.
        import contextlib

        from repro.errors import InvalidParameterError
        from repro.graph import families
        from repro.service import AsyncSweepServer

        monkeypatch.setattr(families, "MAX_REPLICAS", 4)
        argv = self.ARGV[: self.ARGV.index("--replicas")] + ["--jitter", "0.05"]
        assert main(argv + ["--replicas", "4"]) == 0
        offline = capsys.readouterr().out
        assert "Replica simulation" in offline
        with contextlib.ExitStack() as stack:
            server = []
            if route == "server":
                srv = stack.enter_context(AsyncSweepServer(port=0))
                server = ["--server", srv.url]
            assert main(argv + ["--replicas", "4"] + server) == 0
            assert capsys.readouterr().out == offline
            with pytest.raises(InvalidParameterError, match="at most 4 replicas"):
                main(argv + ["--replicas", "5"] + server)

    def test_server_sends_consecutive_seeds_as_the_shorthand(self, monkeypatch, capsys):
        # 100000 replicas travel as two integers, not a seed list, and
        # print exactly what the offline route prints.
        import json

        from repro.service import AsyncSweepServer, ServiceClient

        bodies = []
        raw_request = ServiceClient._raw_request

        def recording(self, method, path, data=None, *args):
            bodies.append(data)
            return raw_request(self, method, path, data, *args)

        monkeypatch.setattr(ServiceClient, "_raw_request", recording)
        argv = self.ARGV[: self.ARGV.index("--replicas")] + ["--jitter", "0.05"]
        argv += ["--replicas", "100000"]
        assert main(argv) == 0
        offline = capsys.readouterr().out
        with AsyncSweepServer(port=0) as srv:
            assert main(argv + ["--server", srv.url]) == 0
        assert capsys.readouterr().out == offline
        (body,) = bodies
        assert len(body) < 300
        assert (json.loads(body)["replicas"], json.loads(body)["seed"]) == (100000, 0)

    def test_server_plus_cache_rejected(self):
        from repro.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError, match="mutually exclusive"):
            main(
                self.ARGV
                + ["--server", "http://127.0.0.1:1", "--cache-dir", "/tmp/x"]
            )


class TestExperimentsOutput:
    def test_output_directory_created(self, capsys, tmp_path):
        target = tmp_path / "fresh" / "nested"
        assert not target.exists()
        code = main(["experiments", "E-KTAB", "--output", str(target)])
        assert code == 0
        assert target.is_dir()
        assert list(target.glob("e-ktab_*.csv"))
        capsys.readouterr()

    def test_artifact_names_are_ascii_slugs(self, capsys, tmp_path):
        main(["experiments", "E-KTAB", "--output", str(tmp_path)])
        capsys.readouterr()
        for path in tmp_path.glob("*.csv"):
            assert all(
                c.islower() or c.isdigit() or c in "._-" for c in path.name
            ), path.name


class TestServerRouting:
    """`--server` responses are byte-identical to the offline CLI."""

    @pytest.fixture()
    def server(self):
        from repro.service import AsyncSweepServer

        with AsyncSweepServer(port=0) as srv:
            yield srv

    def _run(self, capsys, argv):
        assert main(argv) == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["optimize", "--machine", "paper-bus", "--grid", "64:512:64"],
            ["optimize", "--machine", "flex32", "--n", "256", "--max-processors", "16"],
            ["optimize", "--machine", "paper-bus-async", "--n", "128", "--partition", "strip"],
            ["plan", "--machine", "paper-bus", "--n", "256"],
            ["plan", "--machine", "paper-bus", "--grid", "2:64:7"],
            ["plan", "--machine", "ipsc", "--n", "256"],  # non-bus: local answer
            ["optimize", "--machine", "paper-bus", "--grid", "64:512:64",
             "--partition", "strip", "--max-processors", "16"],
            TestSimulate.ARGV,
        ],
    )
    def test_byte_identical_to_offline(self, capsys, server, argv):
        offline = self._run(capsys, argv)
        routed = self._run(capsys, argv + ["--server", server.url])
        assert routed == offline

    def test_concurrent_requests_then_cli_output_agrees(self, capsys, server):
        # Hammer the daemon with identical concurrent requests first
        # (stdout redirection is process-global, so the byte comparison
        # itself runs sequentially afterwards).
        import threading

        from repro.service import ServiceClient

        argv = ["optimize", "--machine", "paper-bus", "--grid", "64:256:16"]
        offline = self._run(capsys, argv)

        def fire():
            ServiceClient(server.url).allocation_curve(
                "paper-bus", "5-point", "square", list(range(64, 257, 16)),
                integer=True,
            )

        threads = [threading.Thread(target=fire) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        routed = self._run(capsys, argv + ["--server", server.url])
        assert routed == offline

    @pytest.mark.parametrize(
        "argv",
        [
            ["optimize", "--machine", "paper-bus", "--grid", "64:128:64"],
            # Rejected before plan's local answer for a non-bus machine.
            ["plan", "--machine", "ipsc"],
        ],
    )
    def test_server_with_cache_dir_rejected(self, capsys, tmp_path, argv):
        from repro.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError, match="mutually exclusive"):
            main(argv + ["--server", "http://127.0.0.1:1", "--cache-dir", str(tmp_path)])
        assert capsys.readouterr().out == ""

    def test_server_with_max_cache_mb_rejected(self):
        from repro.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError, match="no effect with --server"):
            main(
                [
                    "plan",
                    "--machine",
                    "paper-bus",
                    "--n",
                    "64",
                    "--server",
                    "http://127.0.0.1:1",
                    "--max-cache-mb",
                    "4",
                ]
            )

    def test_max_cache_mb_bounds_the_local_store(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        for lo in ("64", "128", "256", "512"):
            assert (
                main(
                    [
                        "optimize",
                        "--machine",
                        "paper-bus",
                        "--grid",
                        f"{lo}:{int(lo) + 8}",
                        "--cache-dir",
                        str(cache_dir),
                        "--max-cache-mb",
                        "0.004",
                    ]
                )
                == 0
            )
        capsys.readouterr()
        entries = list(cache_dir.glob(f"*{SweepCache.ENTRY_SUFFIX}"))
        assert entries, "nothing was stored: the bound check would be vacuous"
        total = sum(p.stat().st_size for p in entries)
        assert total <= int(0.004 * 2**20)


class TestServeSubcommand:
    def test_serve_starts_answers_and_stops(self, tmp_path):
        import json
        import os
        import signal
        import subprocess
        import sys
        import urllib.request

        env = dict(os.environ)
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            banner = process.stdout.readline()
            assert "listening on http://" in banner
            url = banner.strip().rsplit(" ", 1)[-1]
            with urllib.request.urlopen(f"{url}/healthz", timeout=10) as response:
                assert json.load(response)["status"] == "ok"
        finally:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                raise
        assert process.returncode == 0

    def test_serve_has_no_batching_window(self, capsys):
        # Cold requests group-commit instead of sleeping a fixed window,
        # so there is no window to configure.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--batch-window", "0.005"])
        assert "--batch-window" in capsys.readouterr().err


class TestLintSubcommand:
    @pytest.fixture(autouse=True)
    def _shared_report(self, lint_report, monkeypatch):
        """The CLI renders the session's one lint run instead of its own."""
        monkeypatch.setattr("repro.analyze.lint_tree", lambda: lint_report)

    def test_text_mode_reports_clean_tree(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "repro lint" in out
        assert "fingerprint-purity" in out
        assert "parity coverage" in out

    def test_json_mode_writes_report_file(self, capsys, tmp_path):
        target = tmp_path / "LINT.json"
        assert main(["lint", "--format", "json", "--output", str(target)]) == 0
        out = capsys.readouterr().out
        assert str(target) in out
        assert "clean" in out
        import json as _json

        payload = _json.loads(target.read_text())
        assert payload["ok"] is True
        assert set(payload["rules"]) == {
            "fingerprint-purity",
            "lock-discipline",
            "parity-coverage",
            "vectorization-guard",
        }

    def test_parser_defaults(self):
        args = build_parser().parse_args(["lint"])
        assert args.format == "text"
        assert args.output is None
