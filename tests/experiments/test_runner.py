"""Runner semantics: id selection, output handling, failures, artifacts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ExperimentError
from repro.experiments import registry
from repro.experiments.runner import run_experiments

FAST_IDS = ["E-KTAB", "E-TEXT1"]


def _deliberately_failing_experiment():
    raise ValueError("deliberate boom for the traceback test")


@pytest.fixture()
def failing_experiment():
    """Register a crashing experiment for the duration of one test."""
    exp_id = "E-FAIL-TEST"
    registry._REGISTRY[exp_id] = _deliberately_failing_experiment
    try:
        yield exp_id
    finally:
        registry._REGISTRY.pop(exp_id, None)


class TestIdSelection:
    def test_empty_list_runs_nothing(self, tmp_path):
        # ids=[] must not silently fall through to "run everything".
        assert run_experiments(tmp_path, ids=[]) == []
        assert not list(tmp_path.glob("*.csv"))

    def test_unknown_id_raises_before_running(self, tmp_path):
        with pytest.raises(ExperimentError, match="E-NOPE"):
            run_experiments(tmp_path, ids=["E-KTAB", "E-NOPE"])
        # The known experiment listed first must not have run.
        assert not list(tmp_path.glob("e-ktab*"))

    def test_selection_order_is_preserved(self, tmp_path):
        runs = run_experiments(tmp_path, ids=list(reversed(FAST_IDS)))
        assert [r.experiment_id for r in runs] == list(reversed(FAST_IDS))

    def test_duplicate_ids_collapse_to_one_run(self, tmp_path):
        # A repeated id neither runs twice nor rewrites its CSVs.
        runs = run_experiments(tmp_path, ids=["E-KTAB", "E-KTAB"])
        assert [r.experiment_id for r in runs] == ["E-KTAB"]


class TestOutputDirectory:
    def test_missing_output_dir_is_created(self, tmp_path):
        deep = tmp_path / "does" / "not" / "exist"
        runs = run_experiments(deep, ids=["E-KTAB"])
        assert deep.is_dir()
        assert runs[0].csv_paths
        assert all(p.exists() for p in runs[0].csv_paths)


class TestTiming:
    def test_wall_time_recorded(self, tmp_path):
        (run,) = run_experiments(tmp_path, ids=["E-KTAB"])
        assert run.seconds > 0.0


class TestFailures:
    def test_failure_propagates_unwrapped(self, tmp_path, failing_experiment):
        # Experiments run in process, where the real traceback survives;
        # the original exception type must not be masked.
        with pytest.raises(ValueError, match="deliberate boom"):
            run_experiments(tmp_path, ids=[failing_experiment])


class TestCommittedArtifacts:
    #: Experiments whose code paths changed since their artifacts were
    #: committed (a shared sweep store, a run-time cross-check, a series
    #: table once written only by a bench), with how many CSVs each
    #: writes; every run must still write the same bytes.
    STORE_CSVS = {
        "E-ABL-MAPPING": 2,
        "E-EXT-FULLASYNC": 2,
        "E-EXTREME": 1,
        "E-FIG6": 2,
        "E-FIG7": 3,
        "E-ISO": 1,
        "E-TEXT1": 1,
        "E-TEXT2": 1,
        "E-TEXT4": 2,
    }

    @pytest.mark.parametrize("exp_id", sorted(STORE_CSVS))
    def test_csvs_are_byte_identical_to_the_committed_results(self, tmp_path, exp_id):
        committed = Path(__file__).resolve().parents[2] / "results"
        (run,) = run_experiments(tmp_path, ids=[exp_id])
        assert len(run.csv_paths) == self.STORE_CSVS[exp_id]
        for path in run.csv_paths:
            assert path.read_bytes() == (committed / path.name).read_bytes(), path.name


class TestEntryPoints:
    def test_the_runner_module_is_not_an_entry_point(self, tmp_path):
        """``repro experiments`` is the one way to run experiments."""
        src = Path(__file__).resolve().parents[2] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.experiments.runner", "E-KTAB",
             "--output", str(tmp_path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            check=False,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ""
        assert not list(tmp_path.iterdir())
