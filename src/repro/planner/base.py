"""The planner seam's contracts: what a strategy sees and what it returns.

A :class:`Planner` never touches the pipeline or the cache directly — each
round it receives a :class:`PlanContext` snapshot of everything measured so
far (signatures, degradation curves, their linear-fit uncertainty) and
returns a :class:`PlanProposal` of raw product keys worth running next.
The :class:`~repro.planner.campaign.PlannedCampaign` driver owns execution,
budget enforcement, refitting, and stopping.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Tuple

from ..analysis.degradation import LinearFit
from .costs import CostModel

__all__ = ["PlanContext", "PlanProposal", "Planner"]


@dataclass(frozen=True)
class PlanContext:
    """Immutable snapshot of campaign state a strategy plans against.

    Attributes:
        round_index: 1-based adaptive round number (the bootstrap is 0).
        app_names: applications, in the paper's display order.
        catalog_labels: every CompressionB label, in catalog order.
        utilization: measured switch utilization per signature label
            (only labels whose ``comp_sig`` landed appear).
        degradations: measured ``app → label → %`` degradation points.
        complete_labels: labels measured for *every* app — the only ones a
            model refit may use (:class:`~repro.core.models.base.FittedTable`
            needs a full column per observation).
        fits: per-app linear degradation trend over ``complete_labels``
            (absent until an app has ≥ 2 such points with x-spread).
        refused: raw keys the engine deterministically refused
            (``unsupported``) — proposing them again wastes a round.
        cost_model: the campaign's cost estimates.
        seed: campaign seed (strategies must derive any randomness from it).
    """

    round_index: int
    app_names: Tuple[str, ...]
    catalog_labels: Tuple[str, ...]
    utilization: Dict[str, float]
    degradations: Dict[str, Dict[str, float]]
    complete_labels: Tuple[str, ...]
    fits: Dict[str, LinearFit]
    refused: FrozenSet[str]
    cost_model: CostModel
    seed: int

    def runnable_labels(self) -> Tuple[str, ...]:
        """Labels with a known utilization and a degradation key left to run
        (so never a complete label)."""
        return tuple(
            label
            for label in self.catalog_labels
            if label in self.utilization and self.degradation_keys(label)
        )

    def degradation_keys(self, label: str) -> Tuple[str, ...]:
        """The degradation keys completing one label's row, refusals pruned."""
        return tuple(
            key
            for name in self.app_names
            if (key := f"degradation/{name}/{label}") not in self.refused
            and label not in self.degradations.get(name, {})
        )


@dataclass(frozen=True)
class PlanProposal:
    """One round's worth of work, in priority order.

    Attributes:
        keys: raw product keys to run, highest priority first (the budget
            admits a prefix-biased subset: earlier keys are admitted first).
        labels: the CompressionB labels this round targets (trace/debug).
        reason: one-line human explanation recorded in the plan trace.
    """

    keys: Tuple[str, ...]
    labels: Tuple[str, ...] = field(default=())
    reason: str = ""

    def __bool__(self) -> bool:
        return bool(self.keys)


class Planner(ABC):
    """Strategy interface: pick the next experiments from measured state."""

    #: Registry/CLI name of the strategy.
    name: str = "base"

    @abstractmethod
    def propose(
        self, context: PlanContext, budget_remaining: Optional[float]
    ) -> PlanProposal:
        """Select the next round's raw product keys.

        Args:
            context: snapshot of everything measured so far.
            budget_remaining: experiment-seconds left (``None`` = unbudgeted).
                Purely advisory — admission is enforced downstream — but a
                strategy that proposes far past it just wastes its round.

        Returns:
            The proposal; an empty one tells the campaign the strategy has
            nothing left worth measuring (a stop condition).
        """
