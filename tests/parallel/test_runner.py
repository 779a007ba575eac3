"""Tests for the parallel experiment driver."""

import os
from dataclasses import fields

import pytest

from repro.errors import ConfigurationError, ExperimentError
from repro.parallel import RetryPolicy, RunReport, default_worker_count, run_tasks
from repro.parallel.runner import MAX_RESPAWNS


def _square(x):
    return x * x


def _square_and_pid(x):
    return x * x, os.getpid()


# Sentinel-file helpers: "misbehave on the first call, succeed on the
# second" — the file system carries the attempt count across worker
# processes, so each helper is deterministic under retries.
def _fail_once(marker):
    if not os.path.exists(marker):
        with open(marker, "w") as stream:
            stream.write("attempted")
        raise ValueError("flaky first attempt")
    return "recovered"


def _always_fail(item):
    raise ValueError(f"doomed {item}")


def _hang_once(marker):
    import time

    if not os.path.exists(marker):
        with open(marker, "w") as stream:
            stream.write("attempted")
        time.sleep(60)
    return "awake"


def _crash_once(marker):
    if not os.path.exists(marker):
        with open(marker, "w") as stream:
            stream.write("attempted")
        os._exit(1)  # hard death: no exception, no cleanup
    return "respawned"


def _always_crash(item):
    os._exit(1)


def test_serial_map_preserves_order():
    assert run_tasks(_square, [3, 1, 2], workers=1).results == [9, 1, 4]


def test_empty_items():
    report = run_tasks(_square, [], workers=1)
    assert report.results == [] and report.failures == []


def test_single_item_runs_in_process():
    report = run_tasks(_square_and_pid, [7], workers=4)
    assert report.results == [(49, os.getpid())]


def test_default_worker_count_positive():
    assert default_worker_count() >= 1


def test_invalid_workers_rejected():
    with pytest.raises(ConfigurationError):
        run_tasks(_square, [1], workers=0)


def test_process_pool_path():
    """Runs through the pool when workers > 1 and multiple items exist."""
    report = run_tasks(_square_and_pid, list(range(8)), workers=2)
    assert [square for square, _pid in report.results] == [x * x for x in range(8)]
    assert os.getpid() not in {pid for _square, pid in report.results}


# ----------------------------------------------------------------------
# run_tasks: retry semantics
# ----------------------------------------------------------------------
def test_serial_retry_then_success(tmp_path):
    marker = str(tmp_path / "marker")
    report = run_tasks(
        _fail_once,
        [marker],
        keys=["impact/flaky"],
        workers=1,
        policy=RetryPolicy(max_attempts=2),
    )
    assert report.results == ["recovered"]
    assert report.failures == []
    assert len(report.transients) == 1
    assert report.transients[0].category == "exception"
    assert report.transients[0].key == "impact/flaky"
    assert "flaky first attempt" in report.transients[0].message


def test_in_process_retry_waits_while_later_tasks_run(tmp_path):
    # The retried task goes to the back of the queue; the task behind it
    # runs first, exactly as on the pool path.
    steady = tmp_path / "steady"
    steady.write_text("attempted")
    landed = []
    report = run_tasks(
        _fail_once,
        [str(tmp_path / "flaky"), str(steady)],
        keys=["flaky", "steady"],
        workers=1,
        policy=RetryPolicy(max_attempts=2),
        on_result=lambda _index, key, _value: landed.append(key),
    )
    assert landed == ["steady", "flaky"]
    assert report.results == ["recovered", "recovered"]
    assert report.failures == []
    assert [record.key for record in report.transients] == ["flaky"]


def test_pool_retry_then_success(tmp_path):
    marker = str(tmp_path / "marker")
    report = run_tasks(
        _fail_once,
        [marker, str(tmp_path / "other")],  # both flaky-once, distinct markers
        keys=["a", "b"],
        workers=2,
        policy=RetryPolicy(max_attempts=3),
    )
    assert report.results == ["recovered", "recovered"]
    assert report.failures == []
    assert {t.key for t in report.transients} == {"a", "b"}


def test_persistent_failure_becomes_hole_not_exception(tmp_path):
    report = run_tasks(
        _always_fail,
        ["x", "y"],
        keys=["pair/x", "pair/y"],
        workers=1,
        policy=RetryPolicy(max_attempts=3),
    )
    assert report.results == [None, None]
    assert len(report.failures) == 2
    for record in report.failures:
        assert record.category == "exception"
        assert record.attempts == 3  # charged every attempt
    # two transients per task (attempts 1 and 2), terminal attempt is not one
    assert len(report.transients) == 4


def test_mixed_success_and_failure_leaves_targeted_holes():
    def collect(index, key, value):
        landed.append((key, value))

    landed = []
    report = run_tasks(
        _square,
        [2, 3],
        keys=["good/2", "good/3"],
        workers=1,
        policy=RetryPolicy(max_attempts=1),
        on_result=collect,
    )
    assert report.results == [4, 9]
    assert landed == [("good/2", 4), ("good/3", 9)]


# ----------------------------------------------------------------------
# run_tasks: timeout enforcement
# ----------------------------------------------------------------------
def test_hung_task_is_killed_and_retried(tmp_path):
    marker = str(tmp_path / "marker")
    report = run_tasks(
        _hang_once,
        [marker],
        keys=["impact/hang"],
        workers=2,
        policy=RetryPolicy(max_attempts=2, timeout=1.0),
    )
    assert report.results == ["awake"]
    assert report.failures == []
    assert report.pool_respawns >= 1
    timeouts = [t for t in report.transients if t.category == "timeout"]
    assert len(timeouts) == 1
    assert "task timeout" in timeouts[0].message


def test_single_worker_with_timeout_still_enforces(tmp_path):
    # workers=1 + timeout must not fall back to the (unkillable) serial path.
    marker = str(tmp_path / "marker")
    report = run_tasks(
        _hang_once,
        [marker],
        keys=["impact/hang"],
        workers=1,
        policy=RetryPolicy(max_attempts=2, timeout=1.0),
    )
    assert report.results == ["awake"]


# ----------------------------------------------------------------------
# run_tasks: broken-pool recovery
# ----------------------------------------------------------------------
def test_worker_crash_respawns_pool_and_retries(tmp_path):
    marker = str(tmp_path / "marker")
    report = run_tasks(
        _crash_once,
        [marker, str(tmp_path / "other")],
        keys=["crash/a", "crash/b"],
        workers=2,
        policy=RetryPolicy(max_attempts=3),
    )
    assert report.results == ["respawned", "respawned"]
    assert report.failures == []
    assert report.pool_respawns >= 1
    assert any(t.category == "worker-crash" for t in report.transients)


def test_respawn_budget_aborts_run():
    # A crash on every attempt exhausts MAX_RESPAWNS: that is an
    # environment-level failure, so the run raises instead of looping.
    with pytest.raises(ExperimentError, match=f"more than {MAX_RESPAWNS} respawns"):
        run_tasks(
            _always_crash,
            [0, 1],
            workers=2,
            policy=RetryPolicy(max_attempts=MAX_RESPAWNS + 5),
        )


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_attempts": 0},
        {"timeout": 0.0},
        {"timeout": -1.0},
    ],
)
def test_retry_policy_validation(kwargs):
    with pytest.raises(ConfigurationError):
        RetryPolicy(**kwargs)


def test_the_runner_holds_no_budget_or_backoff():
    # Which tasks run is the caller's decision (the pipeline admits the
    # measurement budget), and a retry is requeued at once.
    assert [field.name for field in fields(RetryPolicy)] == ["max_attempts", "timeout"]
    assert [field.name for field in fields(RunReport)] == [
        "results",
        "failures",
        "transients",
        "pool_respawns",
    ]


def test_keys_length_mismatch_rejected():
    with pytest.raises(ConfigurationError, match="length mismatch"):
        run_tasks(_square, [1, 2], keys=["only-one"], workers=1)


# ----------------------------------------------------------------------
# Worker sizing
# ----------------------------------------------------------------------
def test_default_worker_count_respects_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert default_worker_count() == 2  # 3 usable cores, one reserved


def test_default_worker_count_floor_of_one(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert default_worker_count() == 1
