"""Runner semantics: id selection, output handling, concurrency."""

from pathlib import Path

import pytest

from repro.errors import ExperimentError, InvalidParameterError
from repro.experiments import registry
from repro.experiments.runner import run_all, run_experiments

FAST_IDS = ["E-KTAB", "E-TEXT1"]


def _deliberately_failing_experiment():
    raise ValueError("deliberate boom for the traceback test")


@pytest.fixture()
def failing_experiment():
    """Register a crashing experiment; workers inherit it via fork."""
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
        assert run_all(tmp_path, ids=[]) == []
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
        # Two concurrent workers must never write the same CSV paths.
        runs = run_experiments(tmp_path, ids=["E-KTAB", "E-KTAB"], jobs=2)
        assert [r.experiment_id for r in runs] == ["E-KTAB"]


class TestOutputDirectory:
    def test_missing_output_dir_is_created(self, tmp_path):
        deep = tmp_path / "does" / "not" / "exist"
        runs = run_experiments(deep, ids=["E-KTAB"])
        assert deep.is_dir()
        assert runs[0].csv_paths
        assert all(p.exists() for p in runs[0].csv_paths)


class TestConcurrency:
    def test_parallel_matches_serial_reports(self, tmp_path):
        serial = run_experiments(tmp_path / "s", ids=FAST_IDS, jobs=1)
        parallel = run_experiments(tmp_path / "p", ids=FAST_IDS, jobs=2)
        assert [r.experiment_id for r in parallel] == [
            r.experiment_id for r in serial
        ]
        assert [r.report for r in parallel] == [r.report for r in serial]

    def test_wall_time_recorded(self, tmp_path):
        (run,) = run_experiments(tmp_path, ids=["E-KTAB"])
        assert run.seconds > 0.0

    def test_invalid_jobs_rejected(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            run_experiments(tmp_path, ids=FAST_IDS, jobs=0)


class TestBackCompat:
    def test_run_all_returns_reports(self, tmp_path):
        reports = run_all(tmp_path, ids=["E-KTAB"])
        assert len(reports) == 1
        assert reports[0].startswith("[E-KTAB]")


class TestWorkerFailures:
    def test_pool_failure_names_experiment_and_keeps_traceback(
        self, tmp_path, failing_experiment
    ):
        with pytest.raises(ExperimentError) as excinfo:
            run_experiments(
                tmp_path, ids=["E-KTAB", failing_experiment], jobs=2
            )
        message = str(excinfo.value)
        assert failing_experiment in message
        assert "Traceback (most recent call last)" in message
        assert "deliberate boom for the traceback test" in message
        assert "_deliberately_failing_experiment" in message

    def test_single_process_failure_propagates_unwrapped(
        self, tmp_path, failing_experiment
    ):
        # jobs=1 runs in-process where the real traceback survives; the
        # original exception type must not be masked.
        with pytest.raises(ValueError, match="deliberate boom"):
            run_experiments(tmp_path, ids=[failing_experiment], jobs=1)


class TestCommittedArtifacts:
    #: The experiments that once read and wrote a shared sweep store,
    #: with how many CSVs each writes; they now compute directly and
    #: must still write the same bytes.
    STORE_CSVS = {
        "E-ABL-MAPPING": 2,
        "E-EXT-FULLASYNC": 2,
        "E-EXTREME": 1,
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
    """``repro experiments`` and ``python -m repro.experiments.runner``
    parse one flag set and run one flow."""

    @staticmethod
    def _both(capsys, argv_for):
        from repro.cli import main as cli_main
        from repro.experiments.runner import main as runner_main

        assert cli_main(["experiments", *argv_for("cli")]) == 0
        via_cli = capsys.readouterr().out
        assert runner_main(argv_for("runner")) == 0
        return via_cli, capsys.readouterr().out

    def test_list_output_is_identical(self, capsys):
        via_cli, via_runner = self._both(capsys, lambda _entry: ["--list"])
        assert via_runner == via_cli
        assert "E-TEXT1" in via_cli.split()

    def test_run_output_is_identical(self, capsys, tmp_path):
        via_cli, via_runner = self._both(
            capsys,
            lambda entry: FAST_IDS + ["--jobs", "1", "--output", str(tmp_path / entry)],
        )
        # Everything but the wall times, which differ from run to run.
        reports = via_cli.split("Per-experiment wall time")[0]
        assert reports.strip()
        assert via_runner.split("Per-experiment wall time")[0] == reports
        written = sorted(p.name for p in (tmp_path / "cli").iterdir())
        assert written == sorted(p.name for p in (tmp_path / "runner").iterdir())
        for name in written:
            assert (tmp_path / "cli" / name).read_bytes() == (
                tmp_path / "runner" / name
            ).read_bytes()

    @pytest.mark.parametrize(
        "flag",
        [["--cache-dir", "x"], ["--max-cache-mb", "8"], ["--server", "http://h:1"]],
        ids=["cache-dir", "max-cache-mb", "server"],
    )
    def test_runner_rejects_the_removed_flags(self, capsys, flag):
        from repro.experiments.runner import main as runner_main

        with pytest.raises(SystemExit) as excinfo:
            runner_main(["E-TEXT1", *flag])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
