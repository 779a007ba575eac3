"""Strategy unit tests: deterministic, uncertainty-guided, cost-aware."""

import math

from repro.analysis.degradation import fit_degradation_trend
from repro.planner import (
    CostModel,
    GreedyCostPlanner,
    PlanContext,
    UncertaintyPlanner,
    available_planners,
    get_planner,
    holdout_schedule,
)
from repro.planner.strategies import LABELS_PER_ROUND
from repro.core.experiments import PipelineSettings


def _context(fits, degradations, utilization, apps=("a", "b"), refused=()):
    labels = tuple(sorted(utilization))
    complete = tuple(
        label
        for label in labels
        if all(label in degradations.get(app, {}) for app in apps)
    )
    return PlanContext(
        round_index=1,
        app_names=tuple(apps),
        catalog_labels=labels,
        utilization=utilization,
        degradations=degradations,
        complete_labels=complete,
        fits=fits,
        refused=frozenset(refused),
        cost_model=CostModel.from_settings(PipelineSettings(profile="quick")),
        seed=0,
    )


def _noisy_fit(xs, noise):
    # Points on y = 10x with alternating residuals of the given magnitude.
    points = [
        (x, 10.0 * x + (noise if i % 2 else -noise)) for i, x in enumerate(xs)
    ]
    return fit_degradation_trend(points)


def test_registry_exposes_both_strategies():
    assert available_planners() == ("greedy", "uncertainty")
    assert get_planner("uncertainty").name == "uncertainty"
    assert get_planner("greedy").name == "greedy"


def test_holdout_schedule_is_seed_deterministic_and_complete():
    apps = ("a", "b", "c")
    one = holdout_schedule(apps, seed=7)
    two = holdout_schedule(apps, seed=7)
    other = holdout_schedule(apps, seed=8)
    assert one == two
    assert sorted(one) == sorted((x, y) for x in apps for y in apps)
    assert one != other  # different seed, different order


def test_uncertainty_targets_the_widest_confidence_band():
    # Fit measured at U ∈ {0.1, 0.2, 0.3}: the band widens away from the
    # measured mass, so the candidates farthest out win, widest first, and
    # the interior one (U=0.25) comes last.
    fit = _noisy_fit([0.1, 0.2, 0.3], noise=1.0)
    measured = {"L1": 1.0, "L2": 2.0, "L3": 3.0}
    degradations = {"a": dict(measured), "b": dict(measured)}
    utilization = {
        "L1": 0.1,
        "L2": 0.2,
        "L3": 0.3,
        "far": 0.9,
        "out": 0.6,
        "near": 0.25,
    }
    context = _context({"a": fit, "b": fit}, degradations, utilization)
    proposal = UncertaintyPlanner().propose(context, None)
    assert proposal.labels == ("far", "out", "near")[:LABELS_PER_ROUND]
    assert proposal.keys == tuple(
        f"degradation/{app}/{label}" for label in proposal.labels for app in "ab"
    )


def test_uncertainty_prefers_unfit_apps_first():
    # App "b" has no fit at all → infinite stderr everywhere → any label
    # completing b's curve outranks a finite band; ties break by label.
    fit = _noisy_fit([0.1, 0.5, 0.9], noise=0.01)
    degradations = {
        "a": {"L1": 1.0, "L2": 5.0, "L3": 9.0},
        "b": {},
    }
    utilization = {"L1": 0.1, "L2": 0.5, "L3": 0.9}
    context = _context({"a": fit}, degradations, utilization)
    proposal = UncertaintyPlanner().propose(context, None)
    # inf scores, label tie-break
    assert proposal.labels == ("L1", "L2", "L3")[:LABELS_PER_ROUND]


def test_refused_keys_are_never_proposed():
    degradations = {"a": {}, "b": {}}
    utilization = {"L1": 0.2}
    context = _context(
        {}, degradations, utilization, refused={"degradation/a/L1"}
    )
    proposal = UncertaintyPlanner().propose(context, None)
    assert proposal.keys == ("degradation/b/L1",)


def test_empty_proposal_when_everything_measured():
    degradations = {"a": {"L1": 1.0}, "b": {"L1": 2.0}}
    context = _context({}, degradations, {"L1": 0.2})
    assert not UncertaintyPlanner().propose(context, None)
    assert not GreedyCostPlanner().propose(context, None)


def test_greedy_fills_the_largest_utilization_gap():
    # Measured coverage at U ∈ {0.1, 0.2}; candidates at 0.22, 0.25 and 0.8
    # with equal cost → the 0.8 candidate fills by far the largest gap,
    # then 0.25 (0.05 from the nearest coverage) beats 0.22 (0.02).
    measured = {"L1": 1.0, "L2": 2.0}
    degradations = {"a": dict(measured), "b": dict(measured)}
    utilization = {"L1": 0.1, "L2": 0.2, "near": 0.22, "mid": 0.25, "far": 0.8}
    context = _context({}, degradations, utilization)
    proposal = GreedyCostPlanner().propose(context, None)
    assert proposal.labels == ("far", "mid", "near")[:LABELS_PER_ROUND]


def test_greedy_recomputes_coverage_after_each_pick():
    # Measured at U=0.5.  Before any pick "hi2" (gap 0.43) outranks "lo"
    # (0.4); once "hi" (0.45) is picked it covers hi2's neighbourhood (gap
    # 0.02), so the second pick is the other extreme.
    measured = {"L1": 1.0}
    degradations = {"a": dict(measured), "b": dict(measured)}
    utilization = {"L1": 0.5, "hi": 0.95, "hi2": 0.93, "lo": 0.1}
    context = _context({}, degradations, utilization)
    proposal = GreedyCostPlanner().propose(context, None)
    assert proposal.labels == ("hi", "lo", "hi2")[:LABELS_PER_ROUND]


def test_proposals_are_deterministic():
    fit = _noisy_fit([0.1, 0.5, 0.9], noise=0.5)
    measured = {"L1": 1.0, "L2": 5.0, "L3": 9.0}
    degradations = {"a": dict(measured), "b": dict(measured)}
    utilization = {"L1": 0.1, "L2": 0.5, "L3": 0.9, "c1": 0.3, "c2": 0.7}
    for planner in (UncertaintyPlanner(), GreedyCostPlanner()):
        context = _context({"a": fit, "b": fit}, degradations, utilization)
        first = planner.propose(context, None)
        second = planner.propose(context, None)
        assert first.keys == second.keys
        assert first.labels == second.labels
