"""The one campaign executor: ``ensure_products`` and its exit path.

``ensure_all`` is ``ensure_products`` over every product plus the failure
budget, and the planner calls ``ensure_products`` once per round, so the
exit path (reports, live frame, calibration abort) and the missing-input
rule are pinned here once for every caller.
"""

import json

import pytest

import repro.core.experiments.pipeline as pipeline_mod
from repro import telemetry
from repro.cluster import leaf_spine_config, small_test_config
from repro.core.experiments import PipelineSettings, ReproductionPipeline, ShardedCache
from repro.core.experiments.cache import FAILURE_REPORT_NAME
from repro.errors import AnalyticModelError, CampaignError
from repro.parallel import RetryPolicy
from repro.planner import PlannedCampaign, get_planner
from repro.telemetry.live import LIVE_REPORT_NAME, load_live
from repro.telemetry.report import TELEMETRY_REPORT_NAME
from repro.units import MS
from repro.workloads import FFTW, MCB, CompressionConfig

CATALOG = [
    CompressionConfig(1, 1, 2.5e6),
    CompressionConfig(2, 1, 2.5e6),
    CompressionConfig(2, 1, 2.5e5),
    CompressionConfig(3, 2, 2.5e5),
]


@pytest.fixture(autouse=True)
def _dark_telemetry():
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


def _pipeline(cache_path, machine_config=None, **kwargs):
    return ReproductionPipeline(
        settings=PipelineSettings(
            profile="quick",
            impact_duration=0.005,
            signature_duration=0.005,
            calibration_duration=0.005,
            probe_interval=0.1 * MS,
            engine="analytic",
        ),
        machine_config=machine_config or small_test_config(seed=0),
        applications={
            "fftw": FFTW(iterations=1, pack_compute=5e-5),
            "mcb": MCB(iterations=2, track_compute=2e-4),
        },
        catalog=list(CATALOG),
        cache_path=cache_path,
        retry=RetryPolicy(),
        **kwargs,
    )


def _broken_calibration(monkeypatch, error):
    """Make every calibration attempt raise ``error``; log every attempt."""
    real = pipeline_mod.run_experiment
    attempted = []

    def run(descriptor):
        attempted.append(descriptor.key)
        if descriptor.kind == "calibration":
            raise error
        return real(descriptor)

    monkeypatch.setattr(pipeline_mod, "run_experiment", run)
    return attempted


# ----------------------------------------------------------------------
# Calibration abort
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "error",
    [ValueError("probe rig offline"), AnalyticModelError("idle switch refused")],
    ids=["exception", "refusal"],
)
@pytest.mark.parametrize("entry", ["ensure_all", "subset"])
def test_failed_calibration_aborts_after_writing_both_reports(
    tmp_path, monkeypatch, error, entry
):
    attempted = _broken_calibration(monkeypatch, error)
    cache = tmp_path / "cache"
    telemetry.enable()
    pipeline = _pipeline(cache, failure_budget=10)
    with pytest.raises(CampaignError, match="calibration failed permanently") as excinfo:
        if entry == "ensure_all":
            pipeline.ensure_all(workers=1)
        else:
            pipeline.ensure_products(
                ["calibration", "impact/idle", "baseline/fftw", "pair/fftw/mcb"], workers=1
            )

    # Nothing but the calibration was attempted, and nothing landed.
    assert set(attempted) == {"analytic:calibration"}
    assert [record.key for record in excinfo.value.failures] == ["analytic:calibration"]
    assert ShardedCache(cache).snapshot() == {}
    # Both reports were written before the raise, and the live watch ended.
    report = json.loads((cache / FAILURE_REPORT_NAME).read_text())
    assert [row["key"] for row in report["failures"]] == ["analytic:calibration"]
    assert (cache / TELEMETRY_REPORT_NAME).exists()
    assert load_live(cache / LIVE_REPORT_NAME)["complete"] is True


# ----------------------------------------------------------------------
# Missing inputs are holes, never inline computations
# ----------------------------------------------------------------------
def test_missing_calibration_on_a_refusing_fabric_is_a_dependency_hole(tmp_path):
    # The analytic engine refuses leaf-spine fabrics; the calibration that
    # impact/idle needs was not requested, so it must not run inline.
    pipeline = _pipeline(tmp_path / "cache", machine_config=leaf_spine_config(seed=0))
    stats = pipeline.ensure_products(["impact/idle"], workers=1)
    assert [record["category"] for record in stats["failure_records"]] == ["dependency"]
    assert stats["executed"] == 0
    assert not pipeline.has_product("calibration")


def test_missing_calibration_is_neither_charged_nor_counted(tmp_path):
    pipeline = _pipeline(tmp_path / "cache")
    stats = pipeline.ensure_products(["impact/idle"], workers=1, costs=[1.0], budget=1.0)
    assert [record["category"] for record in stats["failure_records"]] == ["dependency"]
    assert stats["executed"] == 0
    assert stats["budget_spent"] == 0.0
    assert not pipeline.has_product("calibration")


# ----------------------------------------------------------------------
# One exit path for every caller
# ----------------------------------------------------------------------
def test_both_entry_points_return_the_same_stats_and_products(tmp_path):
    full = _pipeline(tmp_path / "full")
    full_stats = full.ensure_all(workers=1)
    subset = _pipeline(tmp_path / "subset")
    subset_stats = subset.ensure_products(
        [subset.raw_key(key) for key in subset.product_keys()], workers=1
    )
    assert set(full_stats) == set(subset_stats)
    assert full_stats["total"] == subset_stats["total"] == len(full.product_keys())
    assert full._cache.snapshot() == subset._cache.snapshot()


def test_planned_campaign_writes_the_reports_and_no_fake_shards(tmp_path):
    cache = tmp_path / "cache"
    telemetry.enable()
    pipeline = _pipeline(cache)
    result = PlannedCampaign(
        pipeline, get_planner("uncertainty"), max_rounds=2, workers=1
    ).run()
    assert result.executed > 0
    report = json.loads((cache / FAILURE_REPORT_NAME).read_text())
    assert report["failure_count"] == 0
    assert (cache / TELEMETRY_REPORT_NAME).exists()
    assert load_live(cache / LIVE_REPORT_NAME)["complete"] is True
    # The live report sits next to the shards but never loads as one.
    assert set(ShardedCache(cache).snapshot()) <= set(pipeline.product_keys())
