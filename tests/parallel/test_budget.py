"""Budget accounting in the task runner (the planner's admission layer).

The measurement budget is enforced *up front* from per-item cost
estimates: admission must be deterministic in item order regardless of
worker count or completion order, cached-equivalent zero-cost items are
always free, and a deterministic model refusal refunds its cost — a
refusal is knowledge, not a spent experiment.
"""

import json

import pytest

from repro.cli import main
from repro.core.experiments import PipelineSettings, ReproductionPipeline
from repro.errors import AnalyticModelError, ConfigurationError
from repro.parallel import RetryPolicy, run_tasks
from repro.planner import CostModel


def _double(x):
    return x * 2


def _refuse_odd(x):
    if x % 2:
        raise AnalyticModelError(f"utilization past ceiling for {x}")
    return x * 2


def test_costs_accumulate_without_budget():
    report = run_tasks(_double, [1, 2, 3], workers=1, costs=[1.0, 2.0, 3.5])
    assert report.results == [2, 4, 6]
    assert report.budget_spent == pytest.approx(6.5)
    assert report.budget_refunded == 0.0
    assert report.skipped == []


def test_admission_is_in_item_order_and_later_cheap_items_still_fit():
    # 3.0 + 3.0 exhausts a budget of 6.5; the 2.0 item no longer fits, but
    # the final 0.5 item does — admission walks the list, it is not a
    # prefix cut.
    report = run_tasks(
        _double,
        [10, 20, 30, 40],
        keys=["a", "b", "c", "d"],
        workers=1,
        costs=[3.0, 3.0, 2.0, 0.5],
        budget=6.5,
    )
    assert report.results == [20, 40, None, 80]
    assert report.skipped == ["c"]
    assert report.budget_spent == pytest.approx(6.5)


def test_skipped_items_are_never_executed_and_never_failures():
    calls = []

    def track(x):
        calls.append(x)
        return x

    report = run_tasks(
        track, [1, 2, 3], workers=1, costs=[5.0, 5.0, 5.0], budget=5.0
    )
    assert calls == [1]
    assert report.failures == []
    assert len(report.skipped) == 2


def test_zero_cost_items_are_always_admitted():
    # Cached products enter the planner's rounds with cost 0 — they must
    # pass admission even when the budget is already exhausted.
    report = run_tasks(
        _double, [1, 2, 3], workers=1, costs=[7.0, 0.0, 0.0], budget=7.0
    )
    assert report.results == [2, 4, 6]
    assert report.skipped == []
    assert report.budget_spent == pytest.approx(7.0)


def test_unsupported_refusal_refunds_its_cost_serial():
    report = run_tasks(
        _refuse_odd,
        [1, 2],
        keys=["odd", "even"],
        workers=1,
        policy=RetryPolicy(max_attempts=3, backoff_base=0.0),
        costs=[4.0, 1.0],
        budget=10.0,
    )
    (record,) = report.failures
    assert record.category == "unsupported"
    assert report.budget_spent == pytest.approx(1.0)  # net of the refund
    assert report.budget_refunded == pytest.approx(4.0)


def test_unsupported_refusal_refunds_its_cost_pooled():
    report = run_tasks(
        _refuse_odd,
        [1, 2, 3, 4],
        workers=2,
        policy=RetryPolicy(max_attempts=2, backoff_base=0.0),
        costs=[1.0, 1.0, 1.0, 1.0],
        budget=10.0,
    )
    assert len(report.failures) == 2
    assert all(r.category == "unsupported" for r in report.failures)
    assert report.budget_spent == pytest.approx(2.0)
    assert report.budget_refunded == pytest.approx(2.0)


def test_ordinary_failures_are_not_refunded():
    def boom(x):
        raise ValueError("flaky")

    report = run_tasks(
        boom,
        [1],
        workers=1,
        policy=RetryPolicy(max_attempts=2, backoff_base=0.0),
        costs=[3.0],
        budget=10.0,
    )
    (record,) = report.failures
    assert record.category == "exception"
    assert report.budget_spent == pytest.approx(3.0)
    assert report.budget_refunded == 0.0


def test_admission_is_identical_across_worker_counts():
    costs = [1.0, 2.0, 3.0, 1.0, 2.0, 3.0]
    items = list(range(6))
    serial = run_tasks(_double, items, workers=1, costs=costs, budget=7.0)
    pooled = run_tasks(_double, items, workers=3, costs=costs, budget=7.0)
    assert serial.skipped == pooled.skipped
    assert serial.results == pooled.results
    assert serial.budget_spent == pooled.budget_spent


def test_budget_validation():
    with pytest.raises(ConfigurationError):
        run_tasks(_double, [1, 2], workers=1, costs=[1.0])  # length mismatch
    with pytest.raises(ConfigurationError):
        run_tasks(_double, [1], workers=1, budget=1.0)  # budget needs costs
    with pytest.raises(ConfigurationError):
        run_tasks(_double, [1], workers=1, costs=[-1.0])  # negative cost
    with pytest.raises(ConfigurationError):
        run_tasks(_double, [1], workers=1, costs=[1.0], budget=-2.0)


def test_everything_skipped_returns_without_running():
    calls = []

    def track(x):
        calls.append(x)
        return x

    report = run_tasks(track, [1, 2], workers=1, costs=[5.0, 5.0], budget=1.0)
    assert calls == []
    assert report.results == [None, None]
    assert len(report.skipped) == 2
    assert report.budget_spent == 0.0


@pytest.mark.parametrize("budget", [0.05, 0.5, 1.3, 3.0, 100.0])
def test_plan_preview_admits_what_run_tasks_admits(tmp_path, capsys, budget):
    # `repro plan` previews admission over every pending product at once;
    # the runner, given the same costs and budget, must admit as many.
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
    report = run_tasks(
        _double, list(range(len(raws))), keys=raws, workers=1, costs=costs, budget=budget
    )
    assert preview["pending"] == len(raws)
    assert preview["budget_admits"] == len(raws) - len(report.skipped)
