"""Serial/parallel campaign equivalence and crash-safe resume tests.

The campaign must produce bit-identical products no matter how it is
executed (in-process, through a process pool, cold, or resumed from a
partially written sharded cache) — that is what makes the cache safe to
share between the CLI, the scripts, and the benchmark suite.
"""

import json
import shutil

import pytest

from repro.cluster import small_test_config
from repro.core.experiments import PipelineSettings, ReproductionPipeline
from repro.errors import CampaignError, FailureRecord
from repro.parallel import run_tasks
from repro.units import MS
from repro.workloads import FFTW, MCB, CompressionConfig, Workload


def _pipeline(cache_path=None, seed=0, applications=None, verbose=False):
    return ReproductionPipeline(
        settings=PipelineSettings(
            profile="quick",
            seed=seed,
            impact_duration=0.01,
            signature_duration=0.01,
            calibration_duration=0.02,
            probe_interval=0.1 * MS,
        ),
        machine_config=small_test_config(seed=seed),
        applications=applications
        if applications is not None
        else {
            "fftw": FFTW(iterations=1, pack_compute=5e-5),
            "mcb": MCB(iterations=2, track_compute=2e-4),
        },
        catalog=[
            CompressionConfig(1, 1, 2.5e6),
            CompressionConfig(2, 1, 2.5e5),
        ],
        cache_path=cache_path,
        verbose=verbose,
    )


def _signature(pipeline):
    """Canonical byte-level fingerprint of every cached product."""
    return json.dumps(pipeline._cache.snapshot(), sort_keys=True)


def _burn(x: float) -> float:
    """A picklable stand-in experiment with nontrivial float arithmetic."""
    total = 0.0
    for i in range(1, 200):
        total += (x * i) ** 0.5 / i
    return total


class _Boom(Workload):
    """A workload that always fails to launch (worker-failure injection)."""

    name = "boom"

    def build(self, ctx):
        raise RuntimeError("boom: this workload never runs")


# ----------------------------------------------------------------------
# run_tasks equivalence
# ----------------------------------------------------------------------
def test_run_tasks_pool_matches_in_process_bitwise():
    items = [0.1 * i for i in range(12)]
    in_process = run_tasks(_burn, items, workers=1)
    pooled = run_tasks(_burn, items, workers=2)
    assert in_process.failures == pooled.failures == []
    assert in_process.results == pooled.results  # float equality: bit-identical


# ----------------------------------------------------------------------
# Campaign equivalence
# ----------------------------------------------------------------------
def test_campaign_parallel_matches_serial(tmp_path):
    serial = _pipeline(tmp_path / "serial")
    stats = serial.ensure_all(workers=1)
    assert stats["executed"] == stats["total"] == len(serial.product_keys())

    pooled = _pipeline(tmp_path / "pooled")
    pooled.ensure_all(workers=2)
    assert _signature(serial) == _signature(pooled)


def test_campaign_results_identical_with_and_without_cache_warmup(tmp_path):
    cold = _pipeline()  # memory-only
    cold.ensure_all(workers=1)
    cold_errors = cold.prediction_errors()

    warm = _pipeline(tmp_path / "cache")
    warm.ensure_all(workers=1)
    resumed = _pipeline(tmp_path / "cache")  # fresh instance, warm shards
    assert resumed.pending_keys() == []
    assert resumed.prediction_errors() == cold_errors
    assert _signature(resumed) == _signature(cold)


def test_second_ensure_all_is_all_cache_hits(tmp_path):
    pipeline = _pipeline(tmp_path / "cache")
    first = pipeline.ensure_all(workers=1)
    second = _pipeline(tmp_path / "cache").ensure_all(workers=1)
    assert first["executed"] > 0
    assert second["executed"] == 0
    assert second["cached"] == second["total"]


# ----------------------------------------------------------------------
# Crash-safe sharding & resume
# ----------------------------------------------------------------------
def test_shards_land_per_product_group(tmp_path):
    pipeline = _pipeline(tmp_path / "cache")
    pipeline.ensure_all(workers=1)
    shards = {path.name for path in (tmp_path / "cache").glob("*.json")}
    assert shards == {
        "calibration.json",
        "impact.json",
        "comp_sig.json",
        "baseline.json",
        "degradation.json",
        "pair.json",
        "failure_report.json",  # reserved: the campaign's health record
    }


def test_resume_after_lost_shards_recomputes_only_those(tmp_path):
    pipeline = _pipeline(tmp_path / "cache")
    pipeline.ensure_all(workers=1)
    reference = _signature(pipeline)

    (tmp_path / "cache" / "degradation.json").unlink()
    (tmp_path / "cache" / "pair.json").unlink()

    resumed = _pipeline(tmp_path / "cache")
    pending = resumed.pending_keys()
    assert pending and all(
        key.startswith(("degradation/", "pair/")) for key in pending
    )
    resumed.ensure_all(workers=1)
    assert _signature(resumed) == reference


def test_resume_from_partial_stage_one_write(tmp_path):
    # Simulate a campaign killed mid-run: only the shards that completed
    # their atomic write survive.  The re-run must skip them entirely and
    # still converge to the same products.
    done = _pipeline(tmp_path / "full")
    done.ensure_all(workers=1)
    reference = _signature(done)

    partial = tmp_path / "partial"
    partial.mkdir()
    for survivor in ("calibration.json", "impact.json", "baseline.json"):
        shutil.copy(tmp_path / "full" / survivor, partial / survivor)
    (partial / "junk.tmp").write_text("interrupted mid-write")  # ignored

    resumed = _pipeline(partial)
    pending = set(resumed.pending_keys())
    assert not any(key.startswith(("impact/", "baseline/")) for key in pending)
    assert "calibration" not in pending
    resumed.ensure_all(workers=2)
    assert _signature(resumed) == reference


def test_parallel_resume_matches_serial_resume(tmp_path):
    full = _pipeline(tmp_path / "full")
    full.ensure_all(workers=1)
    for flavor in ("serial", "pooled"):
        target = tmp_path / flavor
        target.mkdir()
        shutil.copy(tmp_path / "full" / "calibration.json", target / "calibration.json")
        shutil.copy(tmp_path / "full" / "baseline.json", target / "baseline.json")
    serial = _pipeline(tmp_path / "serial")
    serial.ensure_all(workers=1)
    pooled = _pipeline(tmp_path / "pooled")
    pooled.ensure_all(workers=2)
    assert _signature(serial) == _signature(pooled) == _signature(full)


# ----------------------------------------------------------------------
# Failure handling
# ----------------------------------------------------------------------
def test_failing_experiment_exceeds_default_budget_and_raises(tmp_path):
    pipeline = _pipeline(
        tmp_path / "cache",
        applications={"boom": _Boom()},
    )
    with pytest.raises(CampaignError, match="failure budget") as excinfo:
        pipeline.ensure_all(workers=1)
    message = str(excinfo.value)
    assert "boom" in message
    records = excinfo.value.failures
    assert records and all(isinstance(r, FailureRecord) for r in records)
    # Every attempt was consumed before the task was declared a hole.
    attempted = [r for r in records if r.category == "exception"]
    assert attempted and all(r.attempts == 2 for r in attempted)
    # Pairs/degradations of the failed baseline were skipped, not attempted.
    assert any(r.category == "dependency" for r in records)
    # Products computed before the failure stayed cached for the next resume.
    assert "calibration" in pipeline._cache
    # The machine-readable report was written even though the run raised.
    report = json.loads((tmp_path / "cache" / "failure_report.json").read_text())
    assert report["failure_count"] == len(records)
    assert {row["key"] for row in report["failures"]} == {r.key for r in records}


def test_campaign_completes_with_holes_within_budget(tmp_path):
    pipeline = _pipeline(
        tmp_path / "cache",
        applications={
            "fftw": FFTW(iterations=1, pack_compute=5e-5),
            "boom": _Boom(),
        },
    )
    budget = 32  # boom's impact/baseline + every dependent degradation/pair
    stats = pipeline.ensure_all(workers=1, failure_budget=budget)
    assert stats["failed"] > 0
    assert stats["executed"] + stats["failed"] == stats["total"]
    failed_keys = {row["key"] for row in stats["failure_records"]}
    assert all("boom" in key for key in failed_keys)
    # The healthy application's products all landed despite the holes.
    assert pipeline.app_baseline("fftw") > 0
    assert pipeline.pair_slowdown("fftw", "fftw") is not None

    # A follow-up run with the faulty app replaced backfills only the holes.
    fixed = _pipeline(
        tmp_path / "cache",
        applications={
            "fftw": FFTW(iterations=1, pack_compute=5e-5),
            "boom": MCB(iterations=2, track_compute=2e-4),
        },
    )
    assert set(fixed.pending_keys()) == failed_keys
    stats2 = fixed.ensure_all(workers=1)
    assert stats2["failed"] == 0
    assert not fixed.pending_keys()
