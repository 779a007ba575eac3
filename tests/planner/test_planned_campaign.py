"""Planned-campaign integration: budget, cache resume, refusals, determinism.

These are ISSUE 10's satellite-4 scenarios: the planner and the runner
must agree on what a budget means — cached products are free, admission is
deterministic, refusals are refunded — and two identical planned campaigns
must produce bit-identical plans and cache shards.
"""

import json

import pytest

import repro.core.experiments.pipeline as pipeline_mod
from repro.core.experiments.cache import RESERVED_FILES
from repro.errors import AnalyticModelError, CampaignError
from repro.planner import CostModel, PlannedCampaign, get_planner

from .conftest import make_pipeline


def _campaign(pipeline, budget=None, planner="uncertainty", **kwargs):
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("max_rounds", 4)
    return PlannedCampaign(
        pipeline, get_planner(planner), measurement_budget=budget, **kwargs
    )


def test_unbudgeted_campaign_completes_and_tracks_costs(pipeline):
    result = _campaign(pipeline).run()
    assert result.stop_reason in (
        "stabilized",
        "nothing-to-propose",
        "max-rounds",
    )
    assert result.executed > 0
    assert result.skipped == 0
    assert result.budget_spent > 0  # informational even without a budget
    assert result.final_error is not None
    # This tiny fixture can be exhausted, but never overrun: requesting a
    # product twice must hit the cache, not the engine.  (The "fewer
    # experiments than exhaustive" claim is the benchmark's to prove, on
    # the paper-sized catalog.)
    assert result.executed <= result.total_products


def test_budget_exhaustion_mid_round(pipeline):
    # Enough for the bootstrap sweep plus a little: some later round must
    # hit admission and stop the campaign.
    model = CostModel.from_settings(pipeline.settings)
    sweep_cost = sum(
        model.cost_of(k)
        for k in ["calibration", "impact/idle"]
        + [f"impact/{a}" for a in pipeline.app_names]
        + [f"comp_sig/{c.label}" for c in pipeline.catalog]
        + [f"baseline/{a}" for a in pipeline.app_names]
    )
    budget = sweep_cost + 3 * model.cost_of("degradation/x/y")
    result = _campaign(pipeline, budget=budget).run()
    assert result.stop_reason == "budget-exhausted"
    assert result.skipped > 0
    assert result.budget_spent <= budget + 1e-6
    # Skipped keys are holes in the plan, not failures.
    assert result.failed == 0


def test_resume_from_cache_costs_zero_budget(tmp_path):
    cache = tmp_path / "cache"
    first = _campaign(make_pipeline(cache_path=cache)).run()
    assert first.executed > 0

    # Fresh pipeline over the same shards: every product the planner asks
    # for is already there, so nothing executes and nothing is charged.
    resumed = _campaign(make_pipeline(cache_path=cache)).run()
    assert resumed.executed == 0
    assert resumed.budget_spent == 0.0
    assert resumed.cached > 0
    assert resumed.stop_reason in ("stabilized", "nothing-to-propose", "max-rounds")


def test_deterministic_plans_and_shards_across_runs(tmp_path):
    def run(directory, workers):
        pipeline = make_pipeline(cache_path=directory)
        result = _campaign(pipeline, budget=2.0, workers=workers).run()
        trace = json.dumps(result.trace_document(), sort_keys=True)
        shards = {
            path.name: path.read_bytes()
            for path in sorted(directory.glob("*.json"))
            if path.name not in RESERVED_FILES
        }
        return trace, shards

    trace_one, shards_one = run(tmp_path / "one", workers=1)
    trace_two, shards_two = run(tmp_path / "two", workers=2)
    assert trace_one == trace_two  # bit-identical plan, even across workers
    assert shards_one == shards_two  # bit-identical shards


def test_unsupported_refusals_are_refunded_and_exempt(pipeline, monkeypatch):
    real = pipeline_mod.run_experiment

    def refuse_mcb_baseline(descriptor):
        if descriptor.key.endswith("baseline/mcb"):
            raise AnalyticModelError("mcb drives utilization past the ceiling")
        return real(descriptor)

    monkeypatch.setattr(pipeline_mod, "run_experiment", refuse_mcb_baseline)
    model = CostModel.from_settings(pipeline.settings)
    result = _campaign(pipeline, budget=50.0).run()  # ample budget

    # The refusal and its dependents are unsupported holes, not failures —
    # the campaign completes despite failure_budget=0.
    assert result.unsupported > 0
    assert result.failed == result.unsupported
    # The baseline's cost came back; dependents were never charged.
    assert result.budget_refunded == pytest.approx(
        model.cost_of("baseline/mcb")
    )
    # Refused keys are never re-proposed in later rounds.
    proposed = [key for entry in result.rounds for key in entry["requested"]]
    assert proposed.count("baseline/mcb") == 1
    # mcb drops out of planning: no degradation of mcb was ever executed.
    assert not any(
        key.startswith("degradation/mcb/") and key not in entry["skipped"]
        for entry in result.rounds
        for key in entry["requested"]
        if pipeline.has_product(key)
    )


def test_real_failures_still_enforce_the_failure_budget(pipeline, monkeypatch):
    real = pipeline_mod.run_experiment

    def flaky_baseline(descriptor):
        if descriptor.key.endswith("baseline/mcb"):
            raise ValueError("infrastructure blew up")
        return real(descriptor)

    monkeypatch.setattr(pipeline_mod, "run_experiment", flaky_baseline)
    with pytest.raises(CampaignError):
        _campaign(pipeline).run()


def test_plan_trace_has_no_wallclock_fields(pipeline):
    result = _campaign(pipeline, budget=2.0).run()
    document = result.trace_document()
    assert "elapsed" not in document
    assert all("elapsed" not in entry for entry in document["rounds"])
    # to_dict is the observational superset.
    assert "elapsed" in result.to_dict()


def test_greedy_strategy_also_runs_to_completion(pipeline):
    result = _campaign(pipeline, planner="greedy").run()
    assert result.planner == "greedy"
    assert result.executed > 0
    assert result.final_error is not None
