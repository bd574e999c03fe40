"""Runner semantics: id selection, output handling, concurrency."""

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


class TestRunnerServer:
    @pytest.fixture()
    def server(self):
        from repro.service import AsyncSweepServer

        with AsyncSweepServer(port=0) as srv:
            yield srv

    def test_server_reports_match_offline_and_totals_match_single_process(
        self, tmp_path, server
    ):
        ids = ["E-TEXT2", "E-KTAB"]

        def totals(runs):
            reported = [r.cache_stats for r in runs if r.cache_stats is not None]
            return (
                sum(s["memory_hits"] + s["disk_hits"] for s in reported),
                sum(s["misses"] for s in reported),
            )

        offline = run_experiments(
            tmp_path / "a", ids=ids, jobs=1, cache_dir=tmp_path / "cache"
        )
        routed = run_experiments(tmp_path / "b", ids=ids, jobs=2, server=server.url)
        assert [r.report for r in routed] == [r.report for r in offline]
        # Cold pass: same misses either way.
        assert totals(routed) == totals(offline)
        # Warm pass: hits served by the daemon are counted by each
        # worker's own stats, so --jobs does not undercount them.
        offline_warm = run_experiments(
            tmp_path / "a", ids=ids, jobs=1, cache_dir=tmp_path / "cache"
        )
        routed_warm = run_experiments(
            tmp_path / "b", ids=ids, jobs=2, server=server.url
        )
        assert totals(routed_warm) == totals(offline_warm)
        assert totals(routed_warm)[1] == 0  # fully warm: no misses


class TestRunnerCache:
    def test_cache_stats_surfaced_and_warm_on_second_run(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cold = run_experiments(tmp_path / "out", ids=["E-TEXT2"], cache_dir=cache_dir)
        assert cold[0].cache_stats is not None
        assert cold[0].cache_stats["misses"] > 0
        warm = run_experiments(tmp_path / "out", ids=["E-TEXT2"], cache_dir=cache_dir)
        assert warm[0].cache_stats["misses"] == 0
        assert warm[0].cache_stats["disk_hits"] > 0

    def test_no_cache_dir_means_no_stats(self, tmp_path):
        runs = run_experiments(tmp_path / "out", ids=["E-KTAB"])
        assert runs[0].cache_stats is None

    def test_callers_default_cache_is_restored(self, tmp_path):
        from repro.batch.cache import (
            clear_default_cache,
            configure_default_cache,
            default_cache,
        )

        mine = configure_default_cache(tmp_path / "mine")
        try:
            run_experiments(
                tmp_path / "out", ids=["E-KTAB"], cache_dir=tmp_path / "other"
            )
            assert default_cache() is mine
        finally:
            clear_default_cache()
