"""The planned-campaign driver: bootstrap, adaptive rounds, stopping.

A :class:`PlannedCampaign` wraps a
:class:`~repro.core.experiments.pipeline.ReproductionPipeline` and replaces
the exhaustive :meth:`~repro.core.experiments.pipeline.ReproductionPipeline.ensure_all`
with rounds of *plan → measure → refit*:

1. **Bootstrap (round 0)** — the cheap instrument sweep every strategy
   needs: calibration, impacts, every CompressionB signature (signatures
   are how a config's utilization becomes known at all), baselines, then a
   3-config seed of degradation rows at the min/median/max measured
   utilization plus the first holdout pairs.
2. **Adaptive rounds** — the strategy proposes the next degradation rows
   from the refitted curves; a fresh slice of the seeded pair-holdout
   schedule rides along, led by the holdout pairs the previous round
   skipped for budget; :meth:`~ReproductionPipeline.ensure_products`
   admits the subset under the remaining measurement budget and executes
   it with the campaign's fault-tolerant runner and cache.
3. **Stop** — when the Queue model's mean holdout prediction error has
   stabilized for two consecutive rounds, the budget is exhausted or
   admits none of the next round's uncached keys, the strategy has
   nothing left to propose, or ``max_rounds`` is hit.

Everything is deterministic for a given (catalog, seed, budget): costs are
settings-derived estimates, admission is order-based, the holdout schedule
is a seeded shuffle, and the resulting :meth:`PlanResult.trace_document`
contains no wall-clock fields — two identical runs produce bit-identical
traces and cache shards.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .. import telemetry
from ..analysis.degradation import LinearFit, fit_degradation_trend
from ..core.experiments.compression import CompressionObservation
from ..core.experiments.impact import ImpactResult
from ..core.experiments.pipeline import admit_within_budget, enforce_failure_budget
from ..core.models import PredictionEngine, default_models
from ..errors import ConfigurationError, ExperimentError
from .base import PlanContext, Planner
from .costs import CostModel
from .strategies import holdout_schedule

__all__ = ["PlannedCampaign", "PlanResult"]

#: Degradation rows seeded before any adaptive planning: the extremes pin
#: the fit's slope, the median anchors its middle.
_SEED_ROW_COUNT = 3

#: |Δ holdout error| (percentage points) under which a round counts as stable.
_STABILITY_TOL = 0.25

#: Consecutive stable rounds that stop the campaign.
_PATIENCE = 2

#: Model whose holdout prediction error drives the stopping criterion (the
#: paper's best-performing predictor).
_HOLDOUT_MODEL = "Queue"

#: The ``ensure_products`` stats each round's trace entry records (the
#: bootstrap's entry sums its two calls').
_ROUND_STATS = (
    "executed",
    "cached",
    "failed",
    "unsupported",
    "skipped",
    "budget_spent",
    "budget_refunded",
)


@dataclass(frozen=True)
class _Snapshot(PlanContext):
    """One read of the measured state: the context a round plans against,
    plus each measured config's parsed signature (the observations a
    partial engine is fitted on)."""

    observations: Dict[str, CompressionObservation]


@dataclass
class PlanResult:
    """Outcome of one planned campaign.

    ``trace_document`` is the determinism contract: same catalog + seed +
    budget ⇒ bit-identical document (no wall-clock, no host state).
    ``to_dict`` adds the observational extras (elapsed seconds).
    """

    planner: str
    seed: int
    budget: Optional[float]
    cost_model: Dict[str, object]
    rounds: List[Dict[str, object]] = field(default_factory=list)
    stop_reason: str = "unknown"
    holdout_errors: List[Optional[float]] = field(default_factory=list)
    executed: int = 0
    cached: int = 0
    failed: int = 0
    unsupported: int = 0
    skipped: int = 0
    budget_spent: float = 0.0
    budget_refunded: float = 0.0
    total_products: int = 0
    elapsed: float = 0.0
    failure_records: List[dict] = field(default_factory=list)

    @property
    def final_error(self) -> Optional[float]:
        """Last non-``None`` holdout error, if any round produced one."""
        for error in reversed(self.holdout_errors):
            if error is not None:
                return error
        return None

    def trace_document(self) -> Dict[str, object]:
        """The deterministic plan trace (what CI diffs across runs)."""
        return {
            "planner": self.planner,
            "seed": self.seed,
            "budget": self.budget,
            "cost_model": self.cost_model,
            "rounds": [dict(entry) for entry in self.rounds],
            "stop_reason": self.stop_reason,
            "holdout_errors": list(self.holdout_errors),
            "executed": self.executed,
            "cached": self.cached,
            "failed": self.failed,
            "unsupported": self.unsupported,
            "skipped": self.skipped,
            "budget_spent": self.budget_spent,
            "budget_refunded": self.budget_refunded,
            "total_products": self.total_products,
        }

    def to_dict(self) -> Dict[str, object]:
        document = self.trace_document()
        document["elapsed"] = self.elapsed
        document["failure_records"] = [dict(r) for r in self.failure_records]
        return document


class PlannedCampaign:
    """Adaptive measurement-budgeted campaign over one pipeline.

    Args:
        pipeline: the (cached, fault-tolerant) experiment pipeline.
        planner: selection strategy (see :mod:`repro.planner.strategies`).
        measurement_budget: estimated experiment-seconds the whole campaign
            may spend (``None`` = unbudgeted; rounds still stop on
            stability).  Cached products are free; ``unsupported``
            refusals are refunded.
        max_rounds: adaptive-round ceiling (bootstrap not counted).
        holdout_per_round: new holdout pairs measured each round
            (default: one per application).
        workers: forwarded to ``ensure_products``.
        cost_model: override the settings-derived cost estimates (e.g. one
            calibrated from a previous campaign's ``telemetry.json``).

    The campaign tolerates the pipeline's own failure budget of
    non-``unsupported`` permanent failures across all its rounds.
    """

    def __init__(
        self,
        pipeline,
        planner: Planner,
        measurement_budget: Optional[float] = None,
        max_rounds: int = 8,
        holdout_per_round: Optional[int] = None,
        workers: Optional[int] = None,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        if measurement_budget is not None and measurement_budget <= 0:
            raise ConfigurationError(
                f"measurement_budget must be > 0, got {measurement_budget}"
            )
        if max_rounds < 1:
            raise ConfigurationError(f"max_rounds must be >= 1, got {max_rounds}")
        self.pipeline = pipeline
        self.planner = planner
        self.budget = measurement_budget
        self.max_rounds = max_rounds
        self.holdout_per_round = (
            holdout_per_round
            if holdout_per_round is not None
            else len(pipeline.app_names)
        )
        if self.holdout_per_round < 1:
            raise ConfigurationError("holdout_per_round must be >= 1")
        self.workers = workers
        self.cost_model = (
            cost_model
            if cost_model is not None
            else CostModel.from_settings(pipeline.settings)
        )
        self.seed = pipeline.settings.seed
        self._schedule = holdout_schedule(
            tuple(pipeline.app_names), self.seed
        )
        self._schedule_pos = 0
        self._failure_records: List[dict] = []
        self._refused: set[str] = set()
        self._holdout_pairs: List[Tuple[str, str]] = []
        # Raw keys of the holdout pairs the last ensure_products call
        # skipped for budget.
        self._deferred: List[str] = []

    # ------------------------------------------------------------------
    # Measured-state snapshots
    # ------------------------------------------------------------------
    def _context(self, round_index: int = 0) -> _Snapshot:
        """The measured state: every landed signature and degradation point,
        each read and parsed once, for round ``round_index`` to plan against.

        Apps whose impact or baseline is missing (typically a refusal
        upstream) drop out.  Complete labels have a signature and a
        degradation point for every remaining app; the fits use only those.
        """
        pipeline = self.pipeline
        labels = [config.label for config in pipeline.catalog]
        apps = [
            name
            for name in pipeline.app_names
            if pipeline.has_product(f"impact/{name}")
            and pipeline.has_product(f"baseline/{name}")
        ]
        observations = {
            label: CompressionObservation.from_dict(
                pipeline.product(f"comp_sig/{label}")
            )
            for label in labels
            if pipeline.has_product(f"comp_sig/{label}")
        }
        utilization = {
            label: observation.utilization
            for label, observation in observations.items()
        }
        degradations = {
            name: {
                label: float(pipeline.product(f"degradation/{name}/{label}"))
                for label in labels
                if pipeline.has_product(f"degradation/{name}/{label}")
            }
            for name in apps
        }
        complete = [
            label
            for label in utilization
            if apps and all(label in degradations[name] for name in apps)
        ]
        fits: Dict[str, LinearFit] = {}
        for name in apps:
            points = [
                (utilization[label], degradations[name][label])
                for label in complete
            ]
            try:
                fits[name] = fit_degradation_trend(points)
            except ExperimentError:
                continue  # < 2 points or no x-spread yet
        return _Snapshot(
            round_index=round_index,
            app_names=tuple(apps),
            catalog_labels=tuple(labels),
            utilization=utilization,
            degradations=degradations,
            complete_labels=tuple(complete),
            fits=fits,
            refused=frozenset(self._refused),
            cost_model=self.cost_model,
            seed=self.seed,
            observations=observations,
        )

    def partial_engine(
        self, snapshot: Optional[_Snapshot] = None
    ) -> Optional[PredictionEngine]:
        """A prediction engine fitted on what has been measured *so far*.

        Never triggers new experiments (unlike ``pipeline.engine()``, which
        computes anything missing): observations are restricted to the
        complete labels so the fitted table has a full column per
        observation, and apps without a landed impact/baseline drop out.
        Reads a fresh snapshot unless given one.
        """
        if snapshot is None:
            snapshot = self._context()
        apps, labels = snapshot.app_names, snapshot.complete_labels
        if not apps or not labels:
            return None
        return PredictionEngine(
            observations=[snapshot.observations[label] for label in labels],
            degradations={
                name: {label: snapshot.degradations[name][label] for label in labels}
                for name in apps
            },
            signatures={
                name: ImpactResult.from_dict(
                    self.pipeline.product(f"impact/{name}")
                ).signature
                for name in apps
            },
            models=default_models(),
        )

    def _holdout_error(self, snapshot: Optional[_Snapshot] = None) -> Optional[float]:
        """Mean |measured − predicted| over the measured holdout pairs."""
        if snapshot is None:
            snapshot = self._context()
        engine = self.partial_engine(snapshot)
        if engine is None:
            return None
        apps = set(snapshot.app_names)
        errors: List[float] = []
        for measured_app, other in self._holdout_pairs:
            if measured_app not in apps or other not in apps:
                continue
            raw = f"pair/{measured_app}/{other}"
            if not self.pipeline.has_product(raw):
                continue
            measured = float(self.pipeline.product(raw))
            predicted = engine.predict(measured_app, other, _HOLDOUT_MODEL)
            errors.append(abs(measured - predicted))
        if not errors:
            return None
        return statistics.fmean(errors)

    # ------------------------------------------------------------------
    # Round execution
    # ------------------------------------------------------------------
    def _next_holdout(self, snapshot: Optional[_Snapshot] = None) -> List[str]:
        """Raw keys of the next slice of the seeded pair schedule.

        The holdout pairs the last measurement skipped for budget lead the
        slice (a skip defers a holdout, it does not drop it), and new pairs
        from the schedule fill the rest.  Schedule pairs involving an
        unusable app (impact or baseline missing — typically a model
        refusal upstream) are dropped, not deferred: requesting them would
        only mint dependency holes.
        """
        if snapshot is None:
            snapshot = self._context()
        usable = set(snapshot.app_names)
        keys = list(self._deferred)
        while (
            len(keys) < self.holdout_per_round
            and self._schedule_pos < len(self._schedule)
        ):
            measured_app, other = self._schedule[self._schedule_pos]
            self._schedule_pos += 1
            if measured_app not in usable or other not in usable:
                continue
            raw = f"pair/{measured_app}/{other}"
            if raw in self._refused or self.pipeline.has_product(raw):
                continue
            self._holdout_pairs.append((measured_app, other))
            keys.append(raw)
        return keys

    def _run_subset(
        self, keys: List[str], remaining: Optional[float]
    ) -> Dict[str, object]:
        stats = self.pipeline.ensure_products(
            keys,
            workers=self.workers,
            costs=self.cost_model.costs_for(keys),
            budget=remaining,
        )
        # Every requested pair is a holdout: strategies propose degradations.
        self._deferred = [
            raw
            for raw in map(self.pipeline.raw_key, stats["skipped"])
            if raw.startswith("pair/")
        ]
        for record in stats["failure_records"]:
            self._failure_records.append(record)
            if record["category"] == "unsupported":
                self._refused.add(self.pipeline.raw_key(record["key"]))
        return stats

    def _admits_any(self, keys: List[str], remaining: float) -> bool:
        """Whether ``remaining`` admits one of the uncached ``keys`` (or
        every key is cached, so the round costs nothing)."""
        uncached = [key for key in keys if not self.pipeline.has_product(key)]
        return not uncached or any(
            admit_within_budget(self.cost_model.costs_for(uncached), remaining)
        )

    @staticmethod
    def _round_entry(
        round_index: int,
        stage: str,
        keys: List[str],
        labels: Tuple[str, ...],
        reason: str,
        stats: Dict[str, object],
        error: Optional[float],
        stable: int,
    ) -> Dict[str, object]:
        entry: Dict[str, object] = {
            "round": round_index,
            "stage": stage,
            "labels": list(labels),
            "reason": reason,
            "requested": list(keys),
        }
        entry.update((name, stats[name]) for name in _ROUND_STATS)
        entry.update(holdout_error=error, stable_rounds=stable)
        return entry

    def _accumulate(self, result: PlanResult, stats: Dict[str, object]) -> None:
        result.executed += stats["executed"]
        result.cached += stats["cached"]
        result.failed += stats["failed"]
        result.unsupported += stats["unsupported"]
        result.skipped += len(stats["skipped"])
        result.budget_spent += stats["budget_spent"]
        result.budget_refunded += stats["budget_refunded"]
        result.elapsed += stats["elapsed"]
        if telemetry.enabled():
            registry = telemetry.registry()
            registry.counter_inc(
                "planner.budget_spent", float(stats["budget_spent"])
            )
            registry.counter_inc(
                "planner.budget_refunded", float(stats["budget_refunded"])
            )
            registry.counter_inc(
                "planner.selected", float(len(stats["skipped"])), outcome="skipped"
            )
            registry.counter_inc(
                "planner.selected", float(stats["executed"]), outcome="executed"
            )
            registry.counter_inc(
                "planner.selected", float(stats["cached"]), outcome="cached"
            )

    def _seed_labels(self, utilization: Dict[str, float]) -> List[str]:
        """Min/median/max-utilization labels (ties break by label name)."""
        if not utilization:
            return []
        ordered = sorted(utilization.items(), key=lambda kv: (kv[1], kv[0]))
        picks = {ordered[0][0], ordered[len(ordered) // 2][0], ordered[-1][0]}
        return sorted(picks)[:_SEED_ROW_COUNT]

    def run(self) -> PlanResult:
        """Execute the planned campaign; returns its :class:`PlanResult`.

        Raises:
            CampaignError: the calibration failed permanently, or
                non-``unsupported`` permanent failures exceeded the failure
                budget (the rule ``ensure_all`` applies too).
        """
        result = PlanResult(
            planner=self.planner.name,
            seed=self.seed,
            budget=self.budget,
            cost_model=self.cost_model.to_dict(),
            total_products=len(self.pipeline.product_keys()),
        )
        remaining = self.budget

        def measure(
            keys: List[str], next_round: int
        ) -> Tuple[Dict[str, object], _Snapshot]:
            """Run ``keys`` under the remaining budget, then read the state
            the next round plans against."""
            nonlocal remaining
            stats = self._run_subset(keys, remaining)
            self._accumulate(result, stats)
            if remaining is not None:
                remaining = max(0.0, remaining - float(stats["budget_spent"]))
            return stats, self._context(next_round)

        # -- bootstrap: instrument sweep, then seed rows + first holdout --
        with telemetry.span("planner:bootstrap", "planner", strategy=self.planner.name):
            sweep = ["calibration", "impact/idle"]
            sweep += [f"impact/{name}" for name in self.pipeline.app_names]
            sweep += [
                f"comp_sig/{config.label}" for config in self.pipeline.catalog
            ]
            sweep += [f"baseline/{name}" for name in self.pipeline.app_names]
            sweep_stats, snapshot = measure(sweep, 0)

            seed_labels = self._seed_labels(snapshot.utilization)
            seed_keys = [
                key for label in seed_labels for key in snapshot.degradation_keys(label)
            ]
            seed_keys += self._next_holdout(snapshot)
            seed_stats, snapshot = measure(seed_keys, 1)

        error = self._holdout_error(snapshot)
        result.holdout_errors.append(error)
        result.rounds.append(
            self._round_entry(
                0,
                "bootstrap",
                sweep + seed_keys,
                tuple(seed_labels),
                "instrument sweep + min/median/max-utilization seed rows",
                {name: sweep_stats[name] + seed_stats[name] for name in _ROUND_STATS},
                error,
                0,
            )
        )

        # -- adaptive rounds ---------------------------------------------
        stable = 0
        result.stop_reason = "max-rounds"
        for round_index in range(1, self.max_rounds + 1):
            if remaining is not None and remaining <= 1e-9:
                result.stop_reason = "budget-exhausted"
                break
            proposal = self.planner.propose(snapshot, remaining)
            keys = list(proposal.keys) + self._next_holdout(snapshot)
            if not keys:
                result.stop_reason = "nothing-to-propose"
                break
            if remaining is not None and not self._admits_any(keys, remaining):
                result.stop_reason = "budget-exhausted"
                break
            if telemetry.enabled():
                telemetry.registry().counter_inc("planner.rounds")
            with telemetry.span(
                f"planner:round-{round_index}",
                "planner",
                strategy=self.planner.name,
                selected=len(keys),
            ):
                stats, snapshot = measure(keys, round_index + 1)

            error = self._holdout_error(snapshot)
            previous = result.holdout_errors[-1]
            if (
                error is not None
                and previous is not None
                and abs(error - previous) <= _STABILITY_TOL
            ):
                stable += 1
            else:
                stable = 0
            result.holdout_errors.append(error)
            result.rounds.append(
                self._round_entry(
                    round_index,
                    "adaptive",
                    keys,
                    proposal.labels,
                    proposal.reason,
                    stats,
                    error,
                    stable,
                )
            )
            if stats["skipped"] and stats["executed"] == 0:
                result.stop_reason = "budget-exhausted"
                break
            if stable >= _PATIENCE:
                result.stop_reason = "stabilized"
                break

        result.failure_records = list(self._failure_records)
        enforce_failure_budget(self._failure_records, self.pipeline.failure_budget)
        return result
