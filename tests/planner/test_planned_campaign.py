"""Planned-campaign integration: budget, cache resume, refusals, determinism.

These are ISSUE 10's satellite-4 scenarios: the planner and the runner
must agree on what a budget means — cached products are free, admission is
deterministic, refusals are refunded — and two identical planned campaigns
must produce bit-identical plans and cache shards.
"""

import hashlib
import json
import statistics
from collections import Counter

import pytest

import repro.core.experiments.pipeline as pipeline_mod
from repro.core.experiments import PipelineSettings, ReproductionPipeline
from repro.core.experiments.cache import RESERVED_FILES
from repro.errors import AnalyticModelError, CampaignError
from repro.planner import PRODUCT_KINDS, CostModel, PlannedCampaign, get_planner

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
    # product twice must hit the cache, not the engine.
    assert result.executed <= result.total_products


def test_planner_matches_the_exhaustive_paper_campaign_at_half_the_products():
    # The planner's claim, on the paper-sized catalog (6 apps x 40
    # configs, 330 products) and the analytic engine: four uncertainty
    # rounds of nine holdout pairs reach the exhaustive campaign's Queue
    # mean error within 2 points while executing at most half the
    # products.  Deterministic: 14.15 vs 12.65 after 156 of 330.
    def paper():
        return ReproductionPipeline(
            settings=PipelineSettings(profile="paper", engine="analytic", seed=0)
        )

    full = paper()
    full.ensure_all(workers=1)
    full_error = statistics.fmean(full.prediction_errors()["Queue"].values())
    result = PlannedCampaign(
        paper(),
        get_planner("uncertainty"),
        max_rounds=4,
        holdout_per_round=9,
        workers=1,
    ).run()
    assert result.executed <= 0.5 * result.total_products
    assert abs(result.final_error - full_error) <= 2.0


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


def test_a_round_the_budget_cannot_admit_is_not_run():
    # The quick-profile analytic campaign at budget 3.0 has 0.04 left after
    # round 1, less than any key round 2 would request: it stops there
    # instead of running a round that admits nothing.
    pipeline = ReproductionPipeline(
        settings=PipelineSettings(profile="quick", engine="analytic")
    )
    result = _campaign(pipeline, budget=3.0, max_rounds=8).run()
    assert result.stop_reason == "budget-exhausted"
    assert [entry["round"] for entry in result.rounds] == [0, 1]
    assert all(entry["executed"] > 0 for entry in result.rounds)
    assert result.budget_spent <= 3.0


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


def _refuse_mcb_baseline(monkeypatch):
    real = pipeline_mod.run_experiment

    def refuse_mcb_baseline(descriptor):
        if descriptor.key.endswith("baseline/mcb"):
            raise AnalyticModelError("mcb drives utilization past the ceiling")
        return real(descriptor)

    monkeypatch.setattr(pipeline_mod, "run_experiment", refuse_mcb_baseline)


def test_unsupported_refusals_are_refunded_and_exempt(pipeline, monkeypatch):
    _refuse_mcb_baseline(monkeypatch)
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


@pytest.mark.parametrize(
    "planner, budget, digest",
    [
        (
            "greedy",
            0.09,
            "f67c33bdc954df9f2cad7619472a3fd82d4af0699ac3e9daf0ba6e56b64b26df",
        ),
        (
            "greedy",
            0.105,
            "94af2f86894bc3a9805e00b0a7a46e8e5e9349843025ed9d58884e98d9362574",
        ),
        (
            "uncertainty",
            0.09,
            "cd38dca65a16db9c2300527cd2390d6494c9eacd6aaddfb52155a292fbfd7d4a",
        ),
        (
            "uncertainty",
            0.105,
            "497aa067f5e6da902b17e6014b4b99f9337732fee94a5371bb2b3b2767ddffc4",
        ),
    ],
)
def test_refund_traces_are_pinned(pipeline, monkeypatch, planner, budget, digest):
    # SHA-256 of each trace's sorted-key JSON with baseline/mcb refused.
    # At 0.09 the campaign ends in the bootstrap with one key skipped, and
    # its spend is the sweep's charge less the 0.005 refund, taken in that
    # order; at 0.105 round 1 skips one key after the refund was spent.
    _refuse_mcb_baseline(monkeypatch)
    result = _campaign(pipeline, budget=budget, planner=planner).run()
    trace = json.dumps(result.trace_document(), sort_keys=True).encode()
    assert hashlib.sha256(trace).hexdigest() == digest
    assert result.budget_refunded == 0.005
    assert result.skipped == 1
    if budget == 0.09:
        assert [entry["round"] for entry in result.rounds] == [0]
        assert result.budget_spent == 0.08499999999999999


def test_holdout_pairs_skipped_for_budget_lead_the_next_round(pipeline):
    # Pairs cost 100 times any other kind, and 1.3 admits the bootstrap's
    # first holdout pair but not its second: each skipped holdout pair is
    # requested again, first, in the next round's slice of the schedule
    # instead of being dropped from it.
    model = CostModel({kind: 1.0 if kind == "pair" else 0.01 for kind in PRODUCT_KINDS})
    result = _campaign(pipeline, budget=1.3, cost_model=model).run()
    requested = [
        [key for key in entry["requested"] if key.startswith("pair/")]
        for entry in result.rounds
    ]
    skipped = [
        [pipeline.raw_key(key) for key in entry["skipped"] if "pair/" in key]
        for entry in result.rounds
    ]
    assert skipped[0] == ["pair/mcb/fftw"]
    assert len(result.rounds) > 1
    for deferred, pairs in zip(skipped, requested[1:]):
        assert pairs[: len(deferred)] == deferred


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


@pytest.mark.parametrize(
    "planner, budget, digest",
    [
        (
            "greedy",
            None,
            "7b946b74383a00ea527124f726b6a4063945373fdf67374fb072cebd1a26e9d0",
        ),
        (
            "greedy",
            0.15,
            "2934ce4e37c80186ff90c0fa7987571f889ff587887577153213d966ac85626d",
        ),
        (
            "uncertainty",
            None,
            "9350df06f0baae041ac2ac8e1a986e399f707cd3c6c7ddde4d392b76c1da89b3",
        ),
        (
            "uncertainty",
            0.15,
            "459cbd24cc86891aa92b338cafd870bcc45201cf4bc38a0a6e9738338237ebc1",
        ),
    ],
)
def test_plan_traces_are_pinned(pipeline, planner, budget, digest):
    # SHA-256 of each trace's sorted-key JSON.  Budget 0.15 runs out in the
    # second adaptive round (five keys skipped), so the budgeted traces pin
    # admission too.
    result = _campaign(pipeline, budget=budget, planner=planner).run()
    trace = json.dumps(result.trace_document(), sort_keys=True).encode()
    assert hashlib.sha256(trace).hexdigest() == digest


def test_the_measured_state_is_read_once_per_round(pipeline, monkeypatch):
    # One snapshot after each ensure_products call: two in the bootstrap,
    # one per adaptive round.  Each reads every signature once, and no
    # measurement is read more often than that (the calibration and the
    # baselines are also read as the inputs of the products executed).
    reads = Counter()
    product = pipeline.product

    def counted(raw):
        reads[raw] += 1
        return product(raw)

    monkeypatch.setattr(pipeline, "product", counted)
    result = _campaign(pipeline).run()
    snapshots = len(result.rounds) + 1
    assert snapshots >= 3
    assert {f"comp_sig/{config.label}" for config in pipeline.catalog} <= set(reads)
    assert all(
        count == snapshots
        for raw, count in reads.items()
        if raw.startswith("comp_sig/")
    )
    assert all(
        count <= snapshots
        for raw, count in reads.items()
        if raw.startswith(("impact/", "comp_sig/", "degradation/", "pair/"))
    )
