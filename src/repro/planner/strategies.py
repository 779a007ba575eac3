"""The two shipped planning strategies: uncertainty-driven and cost-greedy.

Both strategies answer the same question each round — *which CompressionB
configs should the next degradation experiments target?* — from opposite
ends:

* :class:`UncertaintyPlanner` is model-driven: it refines where the linear
  degradation-trend fit is least sure of itself, sending the next round to
  the utilization with the widest OLS confidence band (max over apps).
* :class:`GreedyCostPlanner` is model-free: a coverage/cost greedy baseline
  that spreads measurements across the utilization axis, always buying the
  biggest gap-fill per estimated experiment-second.

Either way the per-round *pair* holdout comes from the same seeded schedule
(:func:`holdout_schedule`), so strategies are compared on identical
evaluation data.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Tuple, Type

from ..errors import ConfigurationError
from .base import PlanContext, PlanProposal, Planner

__all__ = [
    "LABELS_PER_ROUND",
    "UncertaintyPlanner",
    "GreedyCostPlanner",
    "available_planners",
    "get_planner",
    "holdout_schedule",
]


#: CompressionB configs whose degradation rows (config × every app) each
#: round completes.
LABELS_PER_ROUND = 2


def holdout_schedule(
    app_names: Tuple[str, ...], seed: int
) -> List[Tuple[str, str]]:
    """Every ordered app pair, in a seed-deterministic shuffled order.

    The shuffle decorrelates the holdout from the paper's display order
    (which clusters similar apps) while staying bit-identical for a given
    seed — the determinism contract of planned campaigns hinges on it.
    """
    pairs = [
        (measured, other) for measured in app_names for other in app_names
    ]
    random.Random(f"planner-pairs:{seed}").shuffle(pairs)
    return pairs


def _score_order(scores: Dict[str, float]) -> List[str]:
    """Labels by descending score; ties (and inf vs inf) break by label."""
    return [
        label
        for label, _ in sorted(
            scores.items(), key=lambda item: (-item[1], item[0])
        )
    ]


def _rows_proposal(
    context: PlanContext, chosen: List[str], reason: str
) -> PlanProposal:
    """Complete the chosen labels' degradation rows, in pick order."""
    return PlanProposal(
        keys=tuple(
            key for label in chosen for key in context.degradation_keys(label)
        ),
        labels=tuple(chosen),
        reason=reason if chosen else "no unmeasured labels remain",
    )


class UncertaintyPlanner(Planner):
    """Send the next experiments where the trend fit's CI is widest.

    For each candidate label the score is the *max over apps* of the OLS
    standard error of the fitted mean at that label's measured utilization
    (:meth:`~repro.analysis.degradation.LinearFit.predict_stderr`).  An app
    with no fit yet — or a fit without residual degrees of freedom — scores
    infinite, so sparsely-covered curves are completed first; among equally
    unknown labels the tie breaks by label name, keeping plans
    deterministic.
    """

    name = "uncertainty"

    def propose(
        self, context: PlanContext, budget_remaining: Optional[float]
    ) -> PlanProposal:
        scores: Dict[str, float] = {}
        for label in context.runnable_labels():
            utilization = context.utilization[label]
            score = 0.0
            for name in context.app_names:
                fit = context.fits.get(name)
                stderr = fit.predict_stderr(utilization) if fit else math.inf
                score = max(score, stderr)
            scores[label] = score
        chosen = _score_order(scores)[:LABELS_PER_ROUND]
        return _rows_proposal(
            context,
            chosen,
            "widest fitted-mean CI at "
            + ", ".join(
                f"{label} (U={context.utilization[label]:.3f})" for label in chosen
            ),
        )


class GreedyCostPlanner(Planner):
    """Coverage-per-cost greedy baseline over the utilization axis.

    Iteratively picks the unmeasured label maximizing
    ``gap / cost``, where ``gap`` is the label's utilization distance to
    the nearest already-covered utilization (measured or picked earlier
    this round) and ``cost`` is the estimated price of completing its
    degradation row.  A simple LP-relaxation-flavored stand-in: no model
    fit involved, so it doubles as the control arm when evaluating the
    uncertainty strategy.
    """

    name = "greedy"

    def propose(
        self, context: PlanContext, budget_remaining: Optional[float]
    ) -> PlanProposal:
        covered = [
            context.utilization[label]
            for label in context.complete_labels
            if label in context.utilization
        ]
        candidates = {
            label: context.utilization[label]
            for label in context.runnable_labels()
        }
        chosen: List[str] = []
        while candidates and len(chosen) < LABELS_PER_ROUND:
            best_label: Optional[str] = None
            best_score = -math.inf
            for label in sorted(candidates):
                utilization = candidates[label]
                gap = (
                    min(abs(utilization - u) for u in covered)
                    if covered
                    else 1.0
                )
                cost = sum(
                    context.cost_model.cost_of(key)
                    for key in context.degradation_keys(label)
                )
                score = gap / cost if cost > 0 else math.inf
                if score > best_score:
                    best_score, best_label = score, label
            assert best_label is not None
            chosen.append(best_label)
            covered.append(candidates.pop(best_label))
        return _rows_proposal(
            context,
            chosen,
            "largest utilization gap per estimated cost: " + ", ".join(chosen),
        )


_PLANNERS: Dict[str, Type[Planner]] = {
    UncertaintyPlanner.name: UncertaintyPlanner,
    GreedyCostPlanner.name: GreedyCostPlanner,
}


def available_planners() -> Tuple[str, ...]:
    """Registered strategy names, sorted."""
    return tuple(sorted(_PLANNERS))


def get_planner(name: str) -> Planner:
    """Instantiate a strategy by CLI name."""
    try:
        cls = _PLANNERS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown planner {name!r}; available: "
            + ", ".join(available_planners())
        ) from None
    return cls()
