"""Campaign-level telemetry: the report file, bit-identity, fault accounting."""

import json

import pytest

from repro import telemetry
from repro.cluster import small_test_config
from repro.core.experiments import PipelineSettings, ReproductionPipeline
from repro.faults import ENV_VAR as FAULTS_ENV, set_fault_plan
from repro.parallel import RetryPolicy
from repro.telemetry.live import LIVE_REPORT_NAME
from repro.telemetry.report import (
    TELEMETRY_REPORT_NAME,
    load_report,
    render_report,
    trace_from_report,
)
from repro.units import MS
from repro.workloads import FFTW, MCB, CompressionConfig


@pytest.fixture(autouse=True)
def _clean_fault_state(monkeypatch):
    monkeypatch.delenv(FAULTS_ENV, raising=False)
    set_fault_plan(None)
    yield
    set_fault_plan(None)


def _pipeline(cache_path, **kwargs):
    return ReproductionPipeline(
        settings=PipelineSettings(
            profile="quick",
            seed=0,
            impact_duration=0.01,
            signature_duration=0.01,
            calibration_duration=0.02,
            probe_interval=0.1 * MS,
            engine="analytic",
        ),
        machine_config=small_test_config(seed=0),
        cache_path=cache_path,
        **kwargs,
    )


def _signature(pipeline):
    """Canonical byte-level fingerprint of every cached product."""
    return json.dumps(pipeline._cache.snapshot(), sort_keys=True)


def test_campaign_writes_telemetry_report(tmp_path):
    telemetry.enable()
    pipeline = _pipeline(tmp_path / "cache")
    stats = pipeline.ensure_all(workers=2)

    path = tmp_path / "cache" / TELEMETRY_REPORT_NAME
    assert stats["telemetry_report"] == str(path)
    document = load_report(path)

    # Counters agree with the campaign stats.
    counters = document["counters"]
    assert counters["pipeline.experiments_completed"] == stats["executed"]
    assert counters["runner.tasks_completed"] == stats["executed"]
    assert counters["pipeline.cache_hits"] > 0  # descriptor building re-reads
    # Phases cover the dependency stages, each with wall and cpu time.
    assert set(document["phases"]) == {"calibration", "measurements", "dependents"}
    for values in document["phases"].values():
        assert values["wall"] >= 0.0 and values["cpu"] >= 0.0
    # The span set has its campaign root plus per-task and engine spans.
    names = {record["name"] for record in document["spans"]["records"]}
    assert "campaign" in names
    assert any(name.startswith("task:") for name in names)
    assert any(name.startswith("solve:") for name in names)
    # The report renders and converts to a loadable Chrome trace.
    assert "counters:" in render_report(document)
    trace = trace_from_report(document)
    assert trace["traceEvents"]
    json.dumps(trace)


def test_no_telemetry_campaign_is_bit_identical_and_writes_no_report(tmp_path):
    # With the process-wide switch off the campaign stays dark: it records
    # nothing and writes neither report — and the products are
    # byte-identical either way.
    telemetry.enable()
    with_telemetry = _pipeline(tmp_path / "on")
    with_telemetry.ensure_all(workers=2)

    telemetry.disable()
    telemetry.reset()
    without = _pipeline(tmp_path / "off")
    without.ensure_all(workers=2)

    assert not (tmp_path / "off" / TELEMETRY_REPORT_NAME).exists()
    assert not (tmp_path / "off" / LIVE_REPORT_NAME).exists()
    assert telemetry.snapshot()["metrics"]["counters"] == {}
    assert telemetry.snapshot()["spans"] == []
    assert (tmp_path / "on" / TELEMETRY_REPORT_NAME).exists()
    assert _signature(with_telemetry) == _signature(without)


def test_sim_runs_counts_every_executed_sim_product(tmp_path):
    # Calibration, impacts and signatures run the simulator too, so each of
    # the 16 products is one ``sim.runs``.
    pipeline = ReproductionPipeline(
        settings=PipelineSettings(
            profile="quick",
            seed=0,
            impact_duration=0.01,
            signature_duration=0.01,
            calibration_duration=0.02,
            probe_interval=0.1 * MS,
        ),
        machine_config=small_test_config(seed=0),
        applications={
            "fftw": FFTW(iterations=1, pack_compute=5e-5),
            "mcb": MCB(iterations=2, track_compute=2e-4),
        },
        catalog=[CompressionConfig(1, 1, 2.5e6), CompressionConfig(2, 1, 2.5e5)],
        cache_path=tmp_path / "cache",
    )
    telemetry.enable()
    stats = pipeline.ensure_all(workers=1)
    counters = load_report(tmp_path / "cache" / TELEMETRY_REPORT_NAME)["counters"]
    assert stats["executed"] == 16
    assert counters["sim.runs"] == stats["executed"]


def test_stats_report_none_without_cache_directory(tmp_path):
    telemetry.enable()
    pipeline = _pipeline(None)
    stats = pipeline.ensure_all(workers=1)
    assert stats["telemetry_report"] is None


def test_faulted_campaign_telemetry_matches_failure_report(tmp_path, monkeypatch):
    poisoned = "analytic:pair/fftw/mcb"
    hung = "analytic:impact/mcb"
    monkeypatch.setenv(
        FAULTS_ENV,
        json.dumps(
            {
                "fail": {poisoned: "*"},  # permanent hole (2 failed attempts)
                "hang": {hung: [1]},  # first attempt killed at the timeout
                "hang_seconds": 60.0,
            }
        ),
    )
    pipeline = _pipeline(
        tmp_path / "faulted",
        retry=RetryPolicy(max_attempts=2, timeout=2.0),
        failure_budget=1,
    )
    telemetry.enable()
    stats = pipeline.ensure_all(workers=2)
    assert stats["failed"] == 1

    failure_report = json.loads(
        (tmp_path / "faulted" / "failure_report.json").read_text()
    )
    document = load_report(tmp_path / "faulted" / TELEMETRY_REPORT_NAME)
    counters = document["counters"]

    def total(prefix):
        return sum(v for k, v in counters.items() if k.startswith(prefix))

    # Terminal failures and retried transients agree with the report
    # (dependency records never run, so they don't appear in runner counters).
    executed_failures = [
        row for row in failure_report["failures"] if row["category"] != "dependency"
    ]
    assert total("runner.tasks_failed") == len(executed_failures)
    assert total("runner.tasks_retried") == failure_report["transient_count"]
    timeout_transients = [
        row for row in failure_report["transients"] if row["category"] == "timeout"
    ]
    assert counters.get("runner.timeouts", 0) == len(timeout_transients) == 1
    assert counters["runner.pool_respawns"] == 1  # the hang kill broke the pool
    # Completions + holes account for every submitted task.
    assert (
        counters["runner.tasks_completed"] + total("runner.tasks_failed")
        == counters["runner.tasks_submitted"]
    )
