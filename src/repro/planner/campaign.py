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
   schedule rides along; :meth:`~ReproductionPipeline.ensure_products`
   executes the subset under the remaining measurement budget with the
   campaign's fault-tolerant runner and cache.
3. **Stop** — when the Queue model's mean holdout prediction error has
   stabilized for ``patience`` consecutive rounds, the budget is
   exhausted, the strategy has nothing left to propose, or ``max_rounds``
   is hit.

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
from ..core.experiments.pipeline import enforce_failure_budget
from ..core.models import PredictionEngine, default_models
from ..errors import ConfigurationError, ExperimentError
from .base import PlanContext, Planner
from .costs import CostModel
from .strategies import holdout_schedule

__all__ = ["PlannedCampaign", "PlanResult"]

#: Degradation rows seeded before any adaptive planning: the extremes pin
#: the fit's slope, the median anchors its middle.
_SEED_ROW_COUNT = 3

#: Model whose holdout prediction error drives the stopping criterion (the
#: paper's best-performing predictor).
_HOLDOUT_MODEL = "Queue"


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
        stability_tol: |Δ holdout error| (percentage points) under which a
            round counts as stable.
        patience: consecutive stable rounds required to stop.
        workers / chunksize: forwarded to ``ensure_products``.
        cost_model: override the settings-derived cost estimates (e.g. one
            calibrated from a previous campaign's ``telemetry.json``).
        failure_budget: non-``unsupported`` permanent failures tolerated
            across the whole campaign (default: the pipeline's own).
    """

    def __init__(
        self,
        pipeline,
        planner: Planner,
        measurement_budget: Optional[float] = None,
        max_rounds: int = 8,
        holdout_per_round: Optional[int] = None,
        stability_tol: float = 0.25,
        patience: int = 2,
        workers: Optional[int] = None,
        chunksize: Optional[int] = None,
        cost_model: Optional[CostModel] = None,
        failure_budget: Optional[int] = None,
    ) -> None:
        if measurement_budget is not None and measurement_budget <= 0:
            raise ConfigurationError(
                f"measurement_budget must be > 0, got {measurement_budget}"
            )
        if max_rounds < 1:
            raise ConfigurationError(f"max_rounds must be >= 1, got {max_rounds}")
        if patience < 1:
            raise ConfigurationError(f"patience must be >= 1, got {patience}")
        if stability_tol < 0:
            raise ConfigurationError(
                f"stability_tol must be >= 0, got {stability_tol}"
            )
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
        self.stability_tol = stability_tol
        self.patience = patience
        self.workers = workers
        self.chunksize = chunksize
        self.cost_model = (
            cost_model
            if cost_model is not None
            else CostModel.from_settings(pipeline.settings)
        )
        self.failure_budget = (
            failure_budget
            if failure_budget is not None
            else pipeline.failure_budget
        )
        self.seed = pipeline.settings.seed
        self._schedule = holdout_schedule(
            tuple(pipeline.app_names), self.seed
        )
        self._schedule_pos = 0
        self._failure_records: List[dict] = []
        self._refused: set[str] = set()
        self._holdout_pairs: List[Tuple[str, str]] = []

    # ------------------------------------------------------------------
    # Measured-state snapshots
    # ------------------------------------------------------------------
    def _usable_apps(self) -> List[str]:
        """Apps whose impact and baseline landed (refusals drop out)."""
        return [
            name
            for name in self.pipeline.app_names
            if self.pipeline.has_product(f"impact/{name}")
            and self.pipeline.has_product(f"baseline/{name}")
        ]

    def _utilization(self) -> Dict[str, float]:
        table: Dict[str, float] = {}
        for config in self.pipeline.catalog:
            raw = f"comp_sig/{config.label}"
            if self.pipeline.has_product(raw):
                observation = CompressionObservation.from_dict(
                    self.pipeline.product(raw)
                )
                table[config.label] = observation.utilization
        return table

    def _degradations(self, apps: List[str]) -> Dict[str, Dict[str, float]]:
        table: Dict[str, Dict[str, float]] = {}
        for name in apps:
            row: Dict[str, float] = {}
            for config in self.pipeline.catalog:
                raw = f"degradation/{name}/{config.label}"
                if self.pipeline.has_product(raw):
                    row[config.label] = float(self.pipeline.product(raw))
            table[name] = row
        return table

    def _complete_labels(
        self,
        apps: List[str],
        utilization: Dict[str, float],
        degradations: Dict[str, Dict[str, float]],
    ) -> List[str]:
        """Labels with a signature and a degradation point for every app."""
        if not apps:
            return []
        return [
            config.label
            for config in self.pipeline.catalog
            if config.label in utilization
            and all(config.label in degradations[name] for name in apps)
        ]

    def _fits(
        self,
        apps: List[str],
        utilization: Dict[str, float],
        degradations: Dict[str, Dict[str, float]],
        labels: List[str],
    ) -> Dict[str, LinearFit]:
        fits: Dict[str, LinearFit] = {}
        for name in apps:
            points = [
                (utilization[label], degradations[name][label])
                for label in labels
            ]
            try:
                fits[name] = fit_degradation_trend(points)
            except ExperimentError:
                continue  # < 2 points or no x-spread yet
        return fits

    def _context(self, round_index: int) -> PlanContext:
        apps = self._usable_apps()
        utilization = self._utilization()
        degradations = self._degradations(apps)
        labels = self._complete_labels(apps, utilization, degradations)
        return PlanContext(
            round_index=round_index,
            app_names=tuple(apps),
            catalog_labels=tuple(
                config.label for config in self.pipeline.catalog
            ),
            utilization=utilization,
            degradations=degradations,
            complete_labels=tuple(labels),
            fits=self._fits(apps, utilization, degradations, labels),
            refused=frozenset(self._refused),
            cost_model=self.cost_model,
            seed=self.seed,
        )

    def partial_engine(self) -> Optional[PredictionEngine]:
        """A prediction engine fitted on what has been measured *so far*.

        Never triggers new experiments (unlike ``pipeline.engine()``, which
        computes anything missing): observations are restricted to the
        complete labels so the fitted table has a full column per
        observation, and apps without a landed impact/baseline drop out.
        """
        apps = self._usable_apps()
        utilization = self._utilization()
        degradations = self._degradations(apps)
        labels = self._complete_labels(apps, utilization, degradations)
        if not apps or not labels:
            return None
        observations = [
            CompressionObservation.from_dict(
                self.pipeline.product(f"comp_sig/{label}")
            )
            for label in labels
        ]
        signatures = {
            name: ImpactResult.from_dict(
                self.pipeline.product(f"impact/{name}")
            ).signature
            for name in apps
        }
        return PredictionEngine(
            observations=observations,
            degradations={
                name: {label: degradations[name][label] for label in labels}
                for name in apps
            },
            signatures=signatures,
            models=default_models(),
        )

    def _holdout_error(self) -> Optional[float]:
        """Mean |measured − predicted| over the measured holdout pairs."""
        engine = self.partial_engine()
        if engine is None:
            return None
        apps = set(self._usable_apps())
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
    def _next_holdout(self) -> List[str]:
        """Raw keys of the next slice of the seeded pair schedule.

        Pairs involving an unusable app (impact or baseline missing —
        typically a model refusal upstream) are dropped, not deferred:
        requesting them would only mint dependency holes.
        """
        usable = set(self._usable_apps())
        keys: List[str] = []
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
            chunksize=self.chunksize,
            costs=self.cost_model.costs_for(keys),
            budget=remaining,
        )
        for record in stats["failure_records"]:
            self._failure_records.append(record)
            if record["category"] == "unsupported":
                self._refused.add(self.pipeline.raw_key(record["key"]))
        return stats

    def _round_entry(
        self,
        round_index: int,
        stage: str,
        keys: List[str],
        labels: Tuple[str, ...],
        reason: str,
        stats: Dict[str, object],
        error: Optional[float],
        stable: int,
    ) -> Dict[str, object]:
        return {
            "round": round_index,
            "stage": stage,
            "labels": list(labels),
            "reason": reason,
            "requested": list(keys),
            "executed": stats["executed"],
            "cached": stats["cached"],
            "failed": stats["failed"],
            "unsupported": stats["unsupported"],
            "skipped": list(stats["skipped"]),
            "budget_spent": stats["budget_spent"],
            "budget_refunded": stats["budget_refunded"],
            "holdout_error": error,
            "stable_rounds": stable,
        }

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

        def spend(stats: Dict[str, object]) -> Optional[float]:
            if remaining is None:
                return None
            return max(0.0, remaining - float(stats["budget_spent"]))

        # -- bootstrap: instrument sweep, then seed rows + first holdout --
        with telemetry.span("planner:bootstrap", "planner", strategy=self.planner.name):
            sweep = ["calibration", "impact/idle"]
            sweep += [f"impact/{name}" for name in self.pipeline.app_names]
            sweep += [
                f"comp_sig/{config.label}" for config in self.pipeline.catalog
            ]
            sweep += [f"baseline/{name}" for name in self.pipeline.app_names]
            stats = self._run_subset(sweep, remaining)
            self._accumulate(result, stats)
            remaining = spend(stats)

            seed_keys: List[str] = []
            context = self._context(0)
            seed_labels = self._seed_labels(context.utilization)
            for label in seed_labels:
                seed_keys.extend(context.degradation_keys(label))
            seed_keys.extend(self._next_holdout())
            seed_stats = self._run_subset(seed_keys, remaining)
            self._accumulate(result, seed_stats)
            remaining = spend(seed_stats)

        error = self._holdout_error()
        result.holdout_errors.append(error)
        result.rounds.append(
            self._round_entry(
                0,
                "bootstrap",
                sweep + seed_keys,
                tuple(seed_labels),
                "instrument sweep + min/median/max-utilization seed rows",
                {
                    key: (
                        stats[key] + seed_stats[key]
                        if isinstance(stats[key], (int, float))
                        else list(stats[key]) + list(seed_stats[key])
                    )
                    for key in (
                        "executed",
                        "cached",
                        "failed",
                        "unsupported",
                        "skipped",
                        "budget_spent",
                        "budget_refunded",
                    )
                },
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
            context = self._context(round_index)
            proposal = self.planner.propose(context, remaining)
            keys = list(proposal.keys) + self._next_holdout()
            if not keys:
                result.stop_reason = "nothing-to-propose"
                break
            if telemetry.enabled():
                telemetry.registry().counter_inc("planner.rounds")
            with telemetry.span(
                f"planner:round-{round_index}",
                "planner",
                strategy=self.planner.name,
                selected=len(keys),
            ):
                stats = self._run_subset(keys, remaining)
            self._accumulate(result, stats)
            remaining = spend(stats)

            error = self._holdout_error()
            previous = result.holdout_errors[-1]
            if (
                error is not None
                and previous is not None
                and abs(error - previous) <= self.stability_tol
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
            if stable >= self.patience:
                result.stop_reason = "stabilized"
                break

        result.failure_records = list(self._failure_records)
        enforce_failure_budget(self._failure_records, self.failure_budget)
        return result
