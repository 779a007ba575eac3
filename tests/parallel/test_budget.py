"""Budget admission of campaign stages (the planner's admission layer).

The measurement budget is enforced *up front*, stage by stage, from
per-key cost estimates: ``ensure_products`` admits each stage's runnable
keys with :func:`admit_within_budget` before running any of them, so
admission is deterministic in key order regardless of worker count or
completion order, zero-cost keys are always free, and a deterministic
model refusal refunds its cost — a refusal is knowledge, not a spent
experiment.  The task runner itself knows nothing of costs.
"""

import json

import pytest

import repro.core.experiments.pipeline as pipeline_mod
from repro.cli import main
from repro.cluster import small_test_config
from repro.core.experiments import PipelineSettings, ReproductionPipeline
from repro.core.experiments.pipeline import admit_within_budget
from repro.errors import AnalyticModelError, ConfigurationError, ExperimentError
from repro.parallel import RetryPolicy
from repro.planner import CostModel
from repro.units import MS
from repro.workloads import FFTW, MCB, CompressionConfig

#: Keys of the measurement stage, which needs only the calibration.
MEASUREMENTS = [
    "impact/idle",
    "impact/fftw",
    "impact/mcb",
    "baseline/fftw",
    "baseline/mcb",
    "comp_sig/P2xM1xB2.5e+05",
]

_run_experiment = pipeline_mod.run_experiment


def _refuse_impacts(descriptor):
    """``run_experiment``, except that the model refuses the app impacts.

    Top-level, so pool workers can unpickle it by reference.
    """
    if pipeline_mod.ReproductionPipeline.raw_key(descriptor.key) in (
        "impact/fftw",
        "impact/mcb",
    ):
        raise AnalyticModelError("utilization past the ceiling")
    return _run_experiment(descriptor)


def _calibrated(**kwargs):
    """A small analytic pipeline whose calibration is already cached, so a
    request's costs are all charged in its measurement stage."""
    pipeline = ReproductionPipeline(
        settings=PipelineSettings(
            profile="quick",
            impact_duration=0.005,
            signature_duration=0.005,
            calibration_duration=0.005,
            probe_interval=0.1 * MS,
            engine="analytic",
        ),
        machine_config=small_test_config(seed=0),
        applications={
            "fftw": FFTW(iterations=1, pack_compute=5e-5),
            "mcb": MCB(iterations=2, track_compute=2e-4),
        },
        catalog=[CompressionConfig(1, 1, 2.5e6), CompressionConfig(2, 1, 2.5e5)],
        **kwargs,
    )
    pipeline.ensure_products(["calibration"], workers=1)
    return pipeline


def _tracked(monkeypatch):
    """Record the key of every experiment that runs (in-process only)."""
    calls = []

    def run(descriptor):
        calls.append(pipeline_mod.ReproductionPipeline.raw_key(descriptor.key))
        return _run_experiment(descriptor)

    monkeypatch.setattr(pipeline_mod, "run_experiment", run)
    return calls


def test_costs_accumulate_without_budget():
    pipeline = _calibrated()
    stats = pipeline.ensure_products(MEASUREMENTS[:3], workers=1, costs=[1.0, 2.0, 3.5])
    assert stats["executed"] == 3
    assert stats["budget_spent"] == pytest.approx(6.5)
    assert stats["budget_refunded"] == 0.0
    assert stats["skipped"] == []


def test_admission_is_in_item_order_and_later_cheap_items_still_fit():
    # 3.0 + 3.0 exhausts a budget of 6.5; the 2.0 key no longer fits, but
    # the final 0.5 key does — admission walks the list, it is not a
    # prefix cut.
    assert admit_within_budget([3.0, 3.0, 2.0, 0.5], 6.5) == [True, True, False, True]
    pipeline = _calibrated()
    stats = pipeline.ensure_products(
        MEASUREMENTS[:4], workers=1, costs=[3.0, 3.0, 2.0, 0.5], budget=6.5
    )
    assert stats["skipped"] == ["analytic:impact/mcb"]
    assert [pipeline.has_product(raw) for raw in MEASUREMENTS[:4]] == [
        True,
        True,
        False,
        True,
    ]
    assert stats["budget_spent"] == pytest.approx(6.5)


def test_skipped_items_are_never_executed_and_never_failures(monkeypatch):
    pipeline = _calibrated()
    calls = _tracked(monkeypatch)
    stats = pipeline.ensure_products(
        MEASUREMENTS[:3], workers=1, costs=[5.0, 5.0, 5.0], budget=5.0
    )
    assert calls == ["impact/idle"]
    assert stats["failure_records"] == []
    assert stats["skipped"] == ["analytic:impact/fftw", "analytic:impact/mcb"]
    assert stats["executed"] == 1


def test_zero_cost_items_are_always_admitted():
    # Cached products enter the planner's rounds with cost 0 — they must
    # pass admission even when the budget is already exhausted.
    assert admit_within_budget([0.0], 0.0) == [True]
    pipeline = _calibrated()
    stats = pipeline.ensure_products(
        MEASUREMENTS[:3], workers=1, costs=[7.0, 0.0, 0.0], budget=7.0
    )
    assert stats["executed"] == 3
    assert stats["skipped"] == []
    assert stats["budget_spent"] == pytest.approx(7.0)


def test_unsupported_refusal_refunds_its_cost_serial(monkeypatch):
    pipeline = _calibrated(retry=RetryPolicy(max_attempts=3))
    monkeypatch.setattr(pipeline_mod, "run_experiment", _refuse_impacts)
    stats = pipeline.ensure_products(
        ["impact/fftw", "impact/idle"], workers=1, costs=[4.0, 1.0], budget=10.0
    )
    (record,) = stats["failure_records"]
    assert record["category"] == "unsupported"
    assert record["attempts"] == 1  # a refusal is never retried
    assert stats["budget_spent"] == pytest.approx(1.0)  # net of the refund
    assert stats["budget_refunded"] == pytest.approx(4.0)


def test_unsupported_refusal_refunds_its_cost_pooled(monkeypatch):
    pipeline = _calibrated(retry=RetryPolicy(max_attempts=2))
    monkeypatch.setattr(pipeline_mod, "run_experiment", _refuse_impacts)
    stats = pipeline.ensure_products(
        MEASUREMENTS[:4], workers=2, costs=[1.0, 1.0, 1.0, 1.0], budget=10.0
    )
    assert sorted(record["key"] for record in stats["failure_records"]) == [
        "analytic:impact/fftw",
        "analytic:impact/mcb",
    ]
    assert all(r["category"] == "unsupported" for r in stats["failure_records"])
    assert stats["budget_spent"] == pytest.approx(2.0)
    assert stats["budget_refunded"] == pytest.approx(2.0)


def test_ordinary_failures_are_not_refunded(monkeypatch):
    def boom(descriptor):
        raise ValueError("flaky")

    pipeline = _calibrated(retry=RetryPolicy(max_attempts=2))
    monkeypatch.setattr(pipeline_mod, "run_experiment", boom)
    stats = pipeline.ensure_products(
        ["impact/idle"], workers=1, costs=[3.0], budget=10.0
    )
    (record,) = stats["failure_records"]
    assert record["category"] == "exception"
    assert stats["budget_spent"] == pytest.approx(3.0)
    assert stats["budget_refunded"] == 0.0


def test_admission_is_identical_across_worker_counts():
    costs = [1.0, 2.0, 3.0, 1.0, 2.0, 3.0]

    def run(workers):
        pipeline = _calibrated()
        stats = pipeline.ensure_products(MEASUREMENTS, workers=workers, costs=costs, budget=7.0)
        return stats, pipeline._cache.snapshot()

    (serial, serial_cache), (pooled, pooled_cache) = run(1), run(3)
    assert serial["skipped"] == pooled["skipped"] == [
        "analytic:baseline/mcb",
        "analytic:comp_sig/P2xM1xB2.5e+05",
    ]
    assert serial_cache == pooled_cache
    assert serial["budget_spent"] == pooled["budget_spent"]


def test_budget_validation():
    with pytest.raises(ConfigurationError):
        admit_within_budget([-1.0], None)  # negative cost
    with pytest.raises(ConfigurationError):
        admit_within_budget([1.0], -2.0)  # negative budget
    pipeline = _calibrated()
    with pytest.raises(ExperimentError):
        pipeline.ensure_products(MEASUREMENTS[:2], workers=1, costs=[1.0])  # length
    with pytest.raises(ConfigurationError):
        pipeline.ensure_products(MEASUREMENTS[:1], workers=1, costs=[-1.0])
    with pytest.raises(ConfigurationError):
        pipeline.ensure_products(MEASUREMENTS[:1], workers=1, costs=[1.0], budget=-2.0)
    assert not pipeline.has_product(MEASUREMENTS[0])


def test_everything_skipped_returns_without_running(monkeypatch):
    pipeline = _calibrated()
    calls = _tracked(monkeypatch)
    stats = pipeline.ensure_products(
        MEASUREMENTS[:2], workers=1, costs=[5.0, 5.0], budget=1.0
    )
    assert calls == []
    assert stats["executed"] == 0
    assert len(stats["skipped"]) == 2
    assert stats["budget_spent"] == 0.0


@pytest.mark.parametrize("budget", [0.05, 0.5, 1.3, 3.0, 100.0])
def test_plan_preview_admits_what_run_tasks_admits(tmp_path, capsys, budget):
    # `repro plan` previews admission over every pending product at once;
    # a campaign over the same keys, costs and budget admits as many,
    # stage by stage.
    cache = str(tmp_path / "cache")
    argv = ["--engine", "analytic", "--profile", "quick", "--cache", cache]
    argv += ["--legacy-cache", "", "plan", "--measurement-budget", str(budget), "--json"]
    assert main(argv) == 0
    preview = json.loads(capsys.readouterr().out)

    pipeline = ReproductionPipeline(
        settings=PipelineSettings(profile="quick", engine="analytic"), cache_path=cache
    )
    raws = [pipeline.raw_key(key) for key in pipeline.product_keys()]
    costs = CostModel.from_settings(pipeline.settings).costs_for(raws)
    stats = pipeline.ensure_products(raws, workers=1, costs=costs, budget=budget)
    assert preview["pending"] == len(raws)
    assert preview["budget_admits"] == len(raws) - len(stats["skipped"])
    assert stats["failure_records"] == []
