"""The shared bench harness: interleaved timing, the stamp, the one main."""

from __future__ import annotations

import ast
import importlib.util
import json
import platform
from pathlib import Path

import numpy as np
import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture(scope="module")
def harness():
    spec = importlib.util.spec_from_file_location("harness", BENCHMARKS / "harness.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCompare:
    def test_arms_rotate_and_summaries_are_numpy_percentiles(self, harness, monkeypatch):
        # Every duration is a multiple of 1/8, so the fake clock's
        # differences are exact; warm-up rounds take 1000 s, so a
        # warm-up sample in a summary would show.
        now = [0.0]
        monkeypatch.setattr(harness, "perf_counter", lambda: now[0])
        warmup, repeats = 2, 5
        durations = {
            "a": [1000.0] * warmup + [0.5, 0.125, 2.0, 0.25, 1.0],
            "b": [1000.0] * warmup + [3.0, 0.375, 0.625, 4.0, 0.75],
            "c": [1000.0] * warmup + [0.125, 0.125, 8.0, 0.5, 0.25],
        }
        order, contexts, checked = [], [], []

        def arm(name):
            def run(context):
                order.append(name)
                now[0] += durations[name][context]
                return (name, context)

            return run

        def setup(i):
            contexts.append(i)
            return i

        def check(context, outputs):
            checked.append(context)
            assert outputs == {name: (name, context) for name in "abc"}

        timed = harness.compare(
            {name: arm(name) for name in "abc"},
            repeats=repeats,
            warmup=warmup,
            setup=setup,
            check=check,
        )
        rounds = warmup + repeats
        assert contexts == checked == list(range(rounds))
        rotations = ["abc", "bca", "cab"]
        assert order == [name for i in range(rounds) for name in rotations[i % 3]]
        for name, samples in durations.items():
            q1, median, q3 = np.percentile(samples[warmup:], [25, 50, 75])
            assert timed[name] == {
                "median": median, "q1": q1, "q3": q3, "n": repeats, "warmup": warmup,
            }


class TestStamp:
    def test_the_stamp_names_the_environment(self, harness):
        stamp = harness.stamp()
        assert set(stamp) == {"cpu_count", "cpu_affinity", "python", "numpy", "git_sha"}
        assert stamp["cpu_count"] >= 1
        assert stamp["python"] == platform.python_version()
        assert stamp["numpy"] == np.__version__
        assert stamp["git_sha"] is None or len(stamp["git_sha"]) == 40


class TestMain:
    @pytest.mark.parametrize("ok, code", [(True, 0), (False, 1)])
    def test_main_writes_the_stamped_json_and_exits_on_gates(
        self, harness, monkeypatch, tmp_path, capsys, ok, code
    ):
        monkeypatch.setattr(harness, "RESULTS", tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            harness.main("demo", lambda: {"ratio": 0.5}, lambda f: [("ratio holds", ok)])
        assert exit_info.value.code == code
        payload = json.loads((tmp_path / "BENCH_demo.json").read_text())
        assert payload == {"bench": "demo", "stamp": harness.stamp(), "ratio": 0.5}
        out = capsys.readouterr().out
        assert f"{'PASS' if ok else 'FAIL'}: ratio holds" in out


class TestScripts:
    SCRIPTS = sorted(BENCHMARKS.glob("bench_*.py"))

    def test_the_five_benches_are_present(self):
        assert [p.stem for p in self.SCRIPTS] == [
            "bench_analysis", "bench_batch", "bench_graph", "bench_service", "bench_sim",
        ]

    @pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.stem)
    def test_no_bench_keeps_its_own_clock_or_writer(self, path):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert "json" not in [alias.name for alias in node.names], path.name
            if isinstance(node, ast.ImportFrom):
                assert node.module != "json", path.name
                assert "perf_counter" not in [alias.name for alias in node.names], path.name
            if isinstance(node, ast.Attribute):
                assert node.attr not in ("perf_counter", "write_text", "dump"), (
                    f"{path.name}:{node.lineno} uses .{node.attr}"
                )
                if isinstance(node.value, ast.Name) and node.value.id == "time":
                    assert node.attr != "time", f"{path.name}:{node.lineno}"
            if isinstance(node, ast.FunctionDef):
                assert not node.name.startswith("test_"), f"{path.name}: {node.name}"
