"""The full reproduction pipeline: sharded caching + parallel execution.

Reproducing the paper end to end needs ~330 simulation runs:

* 1 idle calibration,
* 40 CompressionB+ImpactB signature runs (Fig. 6),
* 6 application impact runs (Fig. 3),
* 6 isolated baselines,
* 240 application × CompressionB degradation runs (Fig. 7),
* 36 application-pair co-runs (Table I, Figs. 8–9).

Every run is a pure function of ``(settings, machine_config, workload)``, so
the campaign decomposes into picklable :class:`ExperimentDescriptor` s that
:meth:`ReproductionPipeline.ensure_products` — the one campaign executor,
behind both :meth:`~ReproductionPipeline.ensure_all` and the adaptive
planner — fans out through :func:`repro.parallel.run_tasks` in two
dependency stages (measurements after calibration, then degradations/co-runs
after baselines), under a
retry/timeout policy that turns permanent failures into structured
:class:`~repro.errors.FailureRecord` holes instead of a dead campaign.

Products are memoized in memory and, when a cache directory is given, in a
:class:`~repro.core.experiments.cache.ShardedCache` — one atomic JSON shard
per product group.  A campaign journals each product as it lands and
rewrites each shard once at the end of its stage, so an interrupted
campaign resumes from its shards plus its journal.  A legacy monolithic
``paper_cache.json`` migrates automatically on first load.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ... import telemetry
from ...config import MachineConfig, scenario_tag
from ...core.measurement import ProbeSignature
from ...engine.base import (
    available_engines,
    ensure_scenario_supported,
    get_engine,
)
from ...errors import CampaignError, ExperimentError, FailureRecord
from ...faults import active_fault_plan, current_attempt
from ...parallel import RetryPolicy, default_worker_count, run_tasks
from ...queueing import ServiceEstimate
from ...telemetry.live import LIVE_REPORT_NAME, LiveReporter
from ...telemetry.report import TELEMETRY_REPORT_NAME, build_report, write_report
from ...units import MS
from ...workloads import CompressionConfig, Workload
from ..models import PredictionEngine, default_models
from .cache import FAILURE_REPORT_NAME, ShardedCache
from .catalog import APP_NAMES, paper_applications, paper_compression_catalog, quick_compression_catalog
from .compression import CompressionObservation
from .impact import ImpactResult

__all__ = [
    "PipelineSettings",
    "ReproductionPipeline",
    "ExperimentDescriptor",
    "enforce_failure_budget",
    "run_experiment",
]

@dataclass(frozen=True)
class PipelineSettings:
    """Knobs of one reproduction campaign.

    Attributes:
        profile: ``"paper"`` (40 configs) or ``"quick"`` (10-config subset).
        seed: root RNG seed for every machine built by the pipeline.
        impact_duration: simulated seconds per impact measurement.
        signature_duration: simulated seconds per CompressionB signature run.
        calibration_duration: simulated seconds of idle probing.
        probe_interval: mean probe gap (the paper's 100 ms, scaled ×1/400).
        engine: experiment backend — ``"sim"`` (discrete-event reference),
            ``"analytic"`` (closed-form M/G/1 fast path, single switch
            only), or ``"fluid"`` (flow-level per-link fixed points for
            large fabrics).  Non-default engines get their own cache
            namespace (see :meth:`ReproductionPipeline._key`).
    """

    profile: str = "paper"
    seed: int = 0
    impact_duration: float = 0.03
    signature_duration: float = 0.03
    calibration_duration: float = 0.05
    probe_interval: float = 0.25 * MS
    engine: str = "sim"

    def __post_init__(self) -> None:
        if self.profile not in ("paper", "quick"):
            raise ExperimentError(f"unknown profile {self.profile!r}")
        if self.engine not in available_engines():
            raise ExperimentError(
                f"unknown engine {self.engine!r}; "
                f"available: {', '.join(available_engines())}"
            )


@dataclass(frozen=True)
class ExperimentDescriptor:
    """One self-contained, picklable experiment of the campaign.

    Carries everything a worker process needs to recompute the product from
    scratch: the campaign settings, the machine description, the workload(s)
    involved, and any already-computed inputs (calibration estimate,
    baseline runtime) the experiment depends on.

    Attributes:
        key: the product's cache key (also determines its shard group).
        kind: ``calibration`` | ``impact`` | ``comp_sig`` | ``baseline`` |
            ``degradation`` | ``pair``.
        settings: campaign knobs (durations, probe interval).
        machine_config: machine to build (fresh per experiment).
        workload: probed/measured workload (``None`` for the idle impact).
        other: co-runner workload (``pair`` only).
        comp_config: CompressionB configuration (``comp_sig``/``degradation``).
        calibration: serialized idle-switch :class:`ServiceEstimate`.
        baseline: isolated runtime of the measured app (stage-two kinds).
        label: registry name of the measured app (``pair`` bookkeeping).
    """

    key: str
    kind: str
    settings: PipelineSettings
    machine_config: MachineConfig
    workload: Optional[Workload] = None
    other: Optional[Workload] = None
    comp_config: Optional[CompressionConfig] = None
    calibration: Optional[dict] = None
    baseline: Optional[float] = None
    label: Optional[str] = None


def run_experiment(descriptor: ExperimentDescriptor) -> object:
    """Execute one descriptor and return its JSON-ready product value.

    Dispatches to the engine named in the descriptor's settings (``"sim"``
    resolves to the discrete-event reference, ``"analytic"`` to the M/G/1
    fast path, ``"fluid"`` to the flow-level fabric solver).  Pure for a
    fixed engine: the product is a function of the descriptor alone, so
    results are identical whether this runs in the driver process or a
    pool worker.

    Capability dispatch happens here, at the registry level: the scenario
    is checked against the engine's declared
    :meth:`~repro.engine.base.ExperimentEngine.capabilities` before the
    engine sees the descriptor, so an unsupported scenario raises
    :class:`~repro.errors.UnsupportedScenario` (naming the engines that do
    support it) identically whichever engine was asked.

    This is also the fault-injection point of the engine seam: an active
    :class:`~repro.faults.FaultPlan` naming this descriptor's key fires
    here, inside whichever process executes the experiment, before the
    engine runs.
    """
    plan = active_fault_plan()
    if plan is not None:
        plan.on_experiment(descriptor.key, current_attempt())
    engine = get_engine(descriptor.settings.engine)
    ensure_scenario_supported(engine, descriptor.machine_config)
    value = engine.run(descriptor)
    # Counted here, not in the driver: the increment happens in whichever
    # process actually executed the experiment, so worker tallies merge
    # back through the chunk envelope and the campaign-wide count is exact.
    if telemetry.enabled():
        telemetry.registry().counter_inc("pipeline.experiments_completed")
    return value


def enforce_failure_budget(records: Sequence[Dict[str, object]], budget: int) -> None:
    """Raise :class:`~repro.errors.CampaignError` if failures overrun ``budget``.

    ``records`` are failure records as dicts (the campaign stats' form).
    ``unsupported`` records — deterministic model refusals and their
    cascades — are documented holes, not flakiness, so they are exempt;
    every other category is charged.  More charged records than
    ``budget`` raises a ``CampaignError`` carrying them.
    """
    charged = [
        FailureRecord.from_dict(record)
        for record in records
        if record["category"] != "unsupported"
    ]
    if len(charged) > budget:
        raise CampaignError(
            f"{len(charged)} experiment(s) failed permanently, exceeding "
            f"the failure budget of {budget}: "
            + "; ".join(record.describe() for record in charged),
            charged,
        )


class _CampaignProgress:
    """Completed/total, elapsed, ETA, and live-file reporting for one campaign.

    Human-facing progress goes to stderr; with a :class:`LiveReporter`
    attached, every advance also feeds the throttled atomic rewrite of
    ``telemetry.live.json`` that ``repro top`` tails.
    """

    def __init__(
        self, total: int, verbose: bool, reporter: Optional[LiveReporter] = None
    ) -> None:
        self.total = total
        self.done = 0
        self.start = time.time()
        self.verbose = verbose
        self.reporter = reporter
        self.stage = "pending"
        self.failed = 0
        self.retried = 0
        self.stages: List[Dict[str, object]] = []
        self._stage_done0 = 0
        self._stage_start = self.start

    def begin_stage(self, name: str, total: int) -> None:
        self.stage = name
        self._stage_done0 = self.done
        self._stage_start = time.time()
        self.stages.append({"stage": name, "total": total, "done": 0, "elapsed": 0.0})
        self.publish(force=True)

    def end_stage(self, failed: int, retried: int) -> None:
        self.failed = failed
        self.retried = retried
        if self.stages:
            entry = self.stages[-1]
            entry["done"] = self.done - self._stage_done0
            entry["elapsed"] = time.time() - self._stage_start
        self.publish(force=True)

    def eta(self) -> Optional[float]:
        """Seconds until campaign completion, from the *current stage's* rate.

        Campaign stages have wildly different per-product costs (a
        calibration vs. a pairwise co-run), so the cumulative campaign rate
        systematically lies across a stage boundary — after a fast
        measurement stage it promises the slow pairwise stage will finish
        at measurement speed.  The stage's own throughput is the honest
        estimator; the global rate is only used before the current stage
        has completed anything, and before any completion there is no
        estimate at all.
        """
        now = time.time()
        remaining = self.total - self.done
        stage_done = self.done - self._stage_done0
        if stage_done > 0:
            return ((now - self._stage_start) / stage_done) * remaining
        if self.done > 0:
            return ((now - self.start) / self.done) * remaining
        return None

    def progress_document(self) -> Dict[str, object]:
        elapsed = time.time() - self.start
        return {
            "stage": self.stage,
            "done": self.done,
            "total": self.total,
            "elapsed": elapsed,
            "eta": self.eta(),
            "failed": self.failed,
            "retried": self.retried,
            "stages": [dict(entry) for entry in self.stages],
        }

    def publish(self, *, force: bool = False, complete: bool = False) -> None:
        if self.reporter is None:
            return
        metrics = (
            (lambda: telemetry.registry().snapshot()) if telemetry.enabled() else None
        )
        self.reporter.publish(
            self.progress_document(), metrics, complete=complete, force=force
        )

    def advance(self, key: str) -> None:
        self.done += 1
        if self.stages:
            self.stages[-1]["done"] = self.done - self._stage_done0
            self.stages[-1]["elapsed"] = time.time() - self._stage_start
        self.publish()
        if not self.verbose:
            return
        elapsed = time.time() - self.start
        remaining = self.eta()
        eta_text = f"{remaining:.1f}s" if remaining is not None else "?"
        # Progress/ETA is diagnostics, not output: stderr keeps stdout clean
        # for machine-readable results (`repro campaign --json | ...`).
        print(
            f"[pipeline] {self.done}/{self.total} {key} · "
            f"elapsed {elapsed:.1f}s · eta {eta_text}",
            flush=True,
            file=sys.stderr,
        )


class ReproductionPipeline:
    """Runs and caches every experiment the paper's evaluation needs.

    Args:
        settings: campaign knobs.
        machine_config: override the Cab-like default machine.
        cache_path: directory of the sharded result cache (created on first
            save; safe to commit — results are deterministic).  Passing a
            path to an *existing file* treats it as a legacy monolithic
            cache: its contents migrate into a sibling directory named
            after the file's stem.
        applications: override the application registry (tests use small
            fast apps here).
        catalog: override the CompressionB catalog.
        verbose: print per-experiment and campaign-progress lines.
        legacy_cache: optional legacy monolithic JSON cache migrated into
            the shard directory on load (ignored when ``cache_path`` itself
            is a legacy file).
        workers: default process count for :meth:`ensure_products` and
            :meth:`ensure_all` (``None`` → all usable cores but one).
        chunksize: default descriptors per pool task submission.
        retry: per-task retry/timeout/backoff policy for campaign execution
            (``None`` → :class:`~repro.parallel.RetryPolicy`'s defaults:
            two attempts, no timeout).
        failure_budget: how many products :meth:`ensure_all` may leave as
            holes before raising :class:`~repro.errors.CampaignError`
            (0 = any permanent failure raises, preserving the historical
            all-or-nothing behavior).
        telemetry: collect metrics/spans during :meth:`ensure_products`
            (so :meth:`ensure_all` and planned rounds too) and write
            ``telemetry.json`` next to the shards.  ``None`` (default)
            follows the process-wide switch (:func:`repro.telemetry.enabled`,
            i.e. the ``REPRO_TELEMETRY`` environment variable or an earlier
            ``enable()``); ``True``/``False`` forces it for this pipeline.
            Purely observational — products and shards are bit-identical
            either way.
    """

    def __init__(
        self,
        settings: PipelineSettings = PipelineSettings(),
        machine_config: Optional[MachineConfig] = None,
        cache_path: Optional[str | Path] = None,
        applications: Optional[Dict[str, Workload]] = None,
        catalog: Optional[Sequence[CompressionConfig]] = None,
        verbose: bool = False,
        legacy_cache: Optional[str | Path] = None,
        workers: Optional[int] = None,
        chunksize: int = 1,
        retry: Optional[RetryPolicy] = None,
        failure_budget: int = 0,
        telemetry: Optional[bool] = None,
    ) -> None:
        from ...cluster import cab_config

        if failure_budget < 0:
            raise ExperimentError(
                f"failure_budget must be >= 0, got {failure_budget}"
            )
        self.settings = settings
        self.retry = retry if retry is not None else RetryPolicy()
        self.failure_budget = failure_budget
        self.machine_config = machine_config or cab_config(seed=settings.seed)
        self.applications = applications if applications is not None else paper_applications()
        if catalog is None:
            catalog = (
                paper_compression_catalog()
                if settings.profile == "paper"
                else quick_compression_catalog()
            )
        self.catalog: List[CompressionConfig] = list(catalog)
        self.verbose = verbose
        self.workers = workers
        self.chunksize = chunksize
        # Optional[bool]: None defers to the process-wide switch at campaign
        # time (the parameter shadows the telemetry module in this scope).
        self.telemetry = telemetry
        directory, legacy = self._resolve_cache_paths(cache_path, legacy_cache)
        self.cache_path = directory
        self.legacy_cache = legacy
        self._cache = ShardedCache(directory, legacy)

    @staticmethod
    def _resolve_cache_paths(
        cache_path: Optional[str | Path], legacy_cache: Optional[str | Path]
    ) -> Tuple[Optional[Path], Optional[Path]]:
        directory = Path(cache_path) if cache_path else None
        legacy = Path(legacy_cache) if legacy_cache else None
        if directory is not None and directory.is_file():
            # A pre-sharding monolithic cache was passed directly: migrate
            # it into a sibling directory named after the file's stem.
            legacy = directory
            directory = directory.parent / directory.stem
        return directory, legacy

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------
    def _key(self, raw: str) -> str:
        """Engine- and scenario-qualified cache key for one product.

        The default ``sim`` engine on the default single-switch healthy
        machine keeps the bare key, so pre-engine caches (and the committed
        paper cache) stay valid byte for byte.  Other engines prefix
        ``"<engine>:"``; non-default fabric scenarios (leaf-spine and/or
        link faults) prefix the machine's :func:`~repro.config.scenario_tag`
        — each qualifier lands its products in their own shard files, so a
        fabric campaign can share a cache directory with the single-switch
        baseline without ever colliding.
        """
        qualifiers = []
        tag = scenario_tag(self.machine_config)
        if tag is not None:
            qualifiers.append(tag)
        if self.settings.engine != "sim":
            qualifiers.append(self.settings.engine)
        if not qualifiers:
            return raw
        return ":".join(qualifiers) + ":" + raw

    @staticmethod
    def raw_key(key: str) -> str:
        """Inverse of :meth:`_key`: strip the ``":"``-joined qualifiers."""
        return key.rsplit(":", 1)[-1]

    def _memo(self, key: str, compute: Callable[[], object]) -> object:
        if key in self._cache:
            self._note_cache_hit()
            return self._cache[key]
        if telemetry.enabled():
            telemetry.registry().counter_inc("pipeline.cache_misses")
        start = time.time()
        value = compute()
        if self.verbose:
            print(
                f"[pipeline] {key}: {time.time() - start:.1f}s",
                flush=True,
                file=sys.stderr,
            )
        self._cache.put(key, value)
        return value

    @staticmethod
    def _note_cache_hit() -> None:
        if telemetry.enabled():
            telemetry.registry().counter_inc("pipeline.cache_hits")

    @property
    def app_names(self) -> List[str]:
        """Application names in the paper's display order."""
        ordered = [name for name in APP_NAMES if name in self.applications]
        extras = sorted(set(self.applications) - set(ordered))
        return ordered + extras

    def _app(self, name: str) -> Workload:
        try:
            return self.applications[name]
        except KeyError as exc:
            raise ExperimentError(f"unknown application {name!r}") from exc

    def product_keys(self) -> List[str]:
        """Every cache key of the full evaluation, in campaign order."""
        keys = ["calibration", "impact/idle"]
        for name in self.app_names:
            keys.append(f"impact/{name}")
            keys.append(f"baseline/{name}")
        keys.extend(f"comp_sig/{config.label}" for config in self.catalog)
        for name in self.app_names:
            keys.extend(
                f"degradation/{name}/{config.label}" for config in self.catalog
            )
        for measured in self.app_names:
            keys.extend(f"pair/{measured}/{other}" for other in self.app_names)
        return [self._key(key) for key in keys]

    def pending_keys(self) -> List[str]:
        """Products not yet present in the cache (what a resume would run)."""
        return [key for key in self.product_keys() if key not in self._cache]

    def has_product(self, raw: str) -> bool:
        """Whether one raw (unqualified) product key is already cached."""
        return self._key(raw) in self._cache

    def product(self, raw: str) -> object:
        """The cached value of one raw product key (raises if absent)."""
        key = self._key(raw)
        if key not in self._cache:
            raise ExperimentError(f"product {raw!r} is not in the cache")
        return self._cache[key]

    def descriptor_for(self, raw: str) -> ExperimentDescriptor:
        """Build the descriptor of one raw product key — the planner seam.

        Accepts the same unqualified key grammar :meth:`product_keys` emits
        (``calibration``, ``impact/<app>|idle``, ``comp_sig/<label>``,
        ``baseline/<app>``, ``degradation/<app>/<label>``,
        ``pair/<app>/<app>``); engine/scenario qualification happens inside
        the descriptor builders.  CompressionB labels contain no ``/``, so
        splitting on it is unambiguous.

        Raises:
            ExperimentError: unknown key shape, application, or catalog
                label.
        """
        parts = raw.split("/")
        kind = parts[0]
        if raw == "calibration":
            return self._calibration_descriptor()
        if kind == "impact" and len(parts) == 2:
            return self._impact_descriptor(None if parts[1] == "idle" else parts[1])
        if kind == "comp_sig" and len(parts) == 2:
            return self._comp_sig_descriptor(self._config(parts[1]))
        if kind == "baseline" and len(parts) == 2:
            return self._baseline_descriptor(parts[1])
        if kind == "degradation" and len(parts) == 3:
            return self._degradation_descriptor(parts[1], self._config(parts[2]))
        if kind == "pair" and len(parts) == 3:
            return self._pair_descriptor(parts[1], parts[2])
        raise ExperimentError(f"unrecognized product key {raw!r}")

    def _config(self, label: str) -> CompressionConfig:
        for config in self.catalog:
            if config.label == label:
                return config
        raise ExperimentError(f"unknown CompressionB label {label!r}")

    # ------------------------------------------------------------------
    # Descriptor builders
    # ------------------------------------------------------------------
    def _calibration_descriptor(self) -> ExperimentDescriptor:
        return ExperimentDescriptor(
            key=self._key("calibration"),
            kind="calibration",
            settings=self.settings,
            machine_config=self.machine_config,
        )

    def _calibration_data(self) -> dict:
        self.calibration()
        return self._cache[self._key("calibration")]  # type: ignore[return-value]

    def _impact_descriptor(self, name: Optional[str]) -> ExperimentDescriptor:
        return ExperimentDescriptor(
            key=self._key(f"impact/{name}" if name else "impact/idle"),
            kind="impact",
            settings=self.settings,
            machine_config=self.machine_config,
            workload=self._app(name) if name else None,
            calibration=self._calibration_data(),
        )

    def _comp_sig_descriptor(self, config: CompressionConfig) -> ExperimentDescriptor:
        return ExperimentDescriptor(
            key=self._key(f"comp_sig/{config.label}"),
            kind="comp_sig",
            settings=self.settings,
            machine_config=self.machine_config,
            comp_config=config,
            calibration=self._calibration_data(),
        )

    def _baseline_descriptor(self, name: str) -> ExperimentDescriptor:
        return ExperimentDescriptor(
            key=self._key(f"baseline/{name}"),
            kind="baseline",
            settings=self.settings,
            machine_config=self.machine_config,
            workload=self._app(name),
        )

    def _degradation_descriptor(
        self, name: str, config: CompressionConfig
    ) -> ExperimentDescriptor:
        return ExperimentDescriptor(
            key=self._key(f"degradation/{name}/{config.label}"),
            kind="degradation",
            settings=self.settings,
            machine_config=self.machine_config,
            workload=self._app(name),
            comp_config=config,
            baseline=self.app_baseline(name),
        )

    def _pair_descriptor(self, measured: str, other: str) -> ExperimentDescriptor:
        return ExperimentDescriptor(
            key=self._key(f"pair/{measured}/{other}"),
            kind="pair",
            settings=self.settings,
            machine_config=self.machine_config,
            workload=self._app(measured),
            other=self._app(other),
            baseline=self.app_baseline(measured),
            label=measured,
        )

    # ------------------------------------------------------------------
    # Primitive products
    # ------------------------------------------------------------------
    def calibration(self) -> ServiceEstimate:
        """Idle-switch service estimate (µ, Var(S))."""
        descriptor = self._calibration_descriptor()
        data = self._memo(descriptor.key, lambda: run_experiment(descriptor))
        return ServiceEstimate.from_dict(data)  # type: ignore[arg-type]

    def idle_signature(self) -> ProbeSignature:
        """The idle switch's probe signature (Fig. 3's 'No App' series)."""
        data = self._memo(
            self._key("impact/idle"),
            lambda: run_experiment(self._impact_descriptor(None)),
        )
        return ImpactResult.from_dict(data).signature  # type: ignore[arg-type]

    def app_impact(self, name: str) -> ImpactResult:
        """Impact experiment on one application (probe signature + ρ)."""
        self._app(name)  # validate before touching the cache
        data = self._memo(
            self._key(f"impact/{name}"),
            lambda: run_experiment(self._impact_descriptor(name)),
        )
        return ImpactResult.from_dict(data)  # type: ignore[arg-type]

    def compression_signature(self, config: CompressionConfig) -> CompressionObservation:
        """Signature of one CompressionB config (Fig. 6 point)."""
        data = self._memo(
            self._key(f"comp_sig/{config.label}"),
            lambda: run_experiment(self._comp_sig_descriptor(config)),
        )
        return CompressionObservation.from_dict(data)  # type: ignore[arg-type]

    def compression_signatures(self) -> List[CompressionObservation]:
        """All catalog configs' signatures."""
        return [self.compression_signature(config) for config in self.catalog]

    def app_baseline(self, name: str) -> float:
        """Isolated runtime of one application."""
        descriptor = self._baseline_descriptor(name)
        return float(self._memo(descriptor.key, lambda: run_experiment(descriptor)))  # type: ignore[arg-type]

    def app_degradation(self, name: str, config: CompressionConfig) -> float:
        """% degradation of one app under one CompressionB config (Fig. 7 point)."""
        key = self._key(f"degradation/{name}/{config.label}")
        if key in self._cache:
            self._note_cache_hit()
            return float(self._cache[key])  # type: ignore[arg-type]
        descriptor = self._degradation_descriptor(name, config)
        return float(self._memo(key, lambda: run_experiment(descriptor)))  # type: ignore[arg-type]

    def degradation_table(self) -> Dict[str, Dict[str, float]]:
        """Per-app, per-config % degradations for the whole catalog."""
        return {
            name: {
                config.label: self.app_degradation(name, config)
                for config in self.catalog
            }
            for name in self.app_names
        }

    def pair_slowdown(self, measured: str, other: str) -> float:
        """Measured % slowdown of ``measured`` co-running with ``other``."""
        key = self._key(f"pair/{measured}/{other}")
        if key in self._cache:
            self._note_cache_hit()
            return float(self._cache[key])  # type: ignore[arg-type]
        descriptor = self._pair_descriptor(measured, other)
        return float(self._memo(key, lambda: run_experiment(descriptor)))  # type: ignore[arg-type]

    def measured_pairs(self) -> Dict[Tuple[str, str], float]:
        """All ordered pairs' measured slowdowns (Table I)."""
        return {
            (measured, other): self.pair_slowdown(measured, other)
            for measured in self.app_names
            for other in self.app_names
        }

    # ------------------------------------------------------------------
    # Model products
    # ------------------------------------------------------------------
    def engine(self) -> PredictionEngine:
        """A prediction engine fitted on this pipeline's products."""
        signatures = {
            name: self.app_impact(name).signature for name in self.app_names
        }
        return PredictionEngine(
            observations=self.compression_signatures(),
            degradations=self.degradation_table(),
            signatures=signatures,
            models=default_models(),
        )

    def model_artifact(self):
        """Freeze this pipeline's model inputs into a serializable artifact.

        The returned :class:`~repro.serving.artifact.ModelArtifact` carries
        the catalog signatures, degradation tables, impact signatures, and
        calibration — everything :meth:`engine` fits on — plus provenance
        metadata, so predictions can be served without the campaign cache.
        """
        # Imported lazily: repro.serving imports the models package, which
        # lives under repro.core — a module-level import would be circular.
        from ...serving.artifact import ModelArtifact

        return ModelArtifact(
            observations=self.compression_signatures(),
            degradations=self.degradation_table(),
            signatures={
                name: self.app_impact(name).signature for name in self.app_names
            },
            calibration=self.calibration(),
            metadata={
                "engine": self.settings.engine,
                "profile": self.settings.profile,
                "seed": self.settings.seed,
                "apps": self.app_names,
                "catalog_size": len(self.catalog),
                "scenario": scenario_tag(self.machine_config) or "single-switch",
            },
        )

    def prediction_errors(self) -> Dict[str, Dict[Tuple[str, str], float]]:
        """|measured − predicted| per model per ordered pair (Fig. 8)."""
        engine = self.engine()
        measured = self.measured_pairs()
        errors: Dict[str, Dict[Tuple[str, str], float]] = {
            name: {} for name in engine.model_names
        }
        for (app, other), real in measured.items():
            for model in engine.model_names:
                predicted = engine.predict(app, other, model)
                errors[model][(app, other)] = abs(real - predicted)
        return errors

    # ------------------------------------------------------------------
    # Campaign execution
    # ------------------------------------------------------------------
    def ensure_all(
        self,
        workers: Optional[int] = None,
        chunksize: Optional[int] = None,
        failure_budget: Optional[int] = None,
    ) -> Dict[str, object]:
        """Run (or load) every product of the full evaluation, fault-tolerantly.

        :meth:`ensure_products` over every key of :meth:`product_keys`,
        then the failure budget (:func:`enforce_failure_budget`): the
        campaign finishes with holes as long as the charged failures stay
        within it.  Deterministic model refusals (``unsupported``) are
        exempt — the budget guards against infrastructure flakiness, while
        a refusal is the model honestly declining a scenario outside its
        domain — so a campaign on an oversubscribed fabric completes with
        documented holes for the workloads that saturate it.

        Args:
            workers: process count (``None`` → the pipeline's default).
            chunksize: descriptors per pool submission (``None`` → default).
            failure_budget: override the pipeline's failure budget.

        Returns:
            The campaign stats of :meth:`ensure_products`.

        Raises:
            CampaignError: the calibration failed permanently (everything
                depends on it), or permanent failures exceeded the budget.
        """
        stats = self.ensure_products(
            [self.raw_key(key) for key in self.product_keys()],
            workers=workers,
            chunksize=chunksize,
        )
        enforce_failure_budget(
            stats["failure_records"],  # type: ignore[arg-type]
            failure_budget if failure_budget is not None else self.failure_budget,
        )
        return stats

    def ensure_products(
        self,
        raw_keys: Sequence[str],
        workers: Optional[int] = None,
        chunksize: Optional[int] = None,
        costs: Optional[Sequence[float]] = None,
        budget: Optional[float] = None,
    ) -> Dict[str, object]:
        """Run (or load) the requested products — the one campaign executor.

        :meth:`ensure_all` calls it with every product; the adaptive
        planner calls it once per round with the subset it chose.  Pending
        products run in dependency stages: the calibration alone, then
        impacts/signatures/baselines, then degradations/pairs.  Each task
        runs under the pipeline's :class:`~repro.parallel.RetryPolicy` —
        bounded retries with backoff, an optional per-task timeout that
        kills hung workers, and automatic pool respawn after a worker
        crash.  Each result is appended to the cache's journal as it
        lands, before its progress line, so interrupting the campaign never
        loses completed work; the end of each stage, also one cut short by
        an exception, rewrites every shard the stage touched once and
        deletes the journal.

        A product's input is the calibration (``impact``/``comp_sig``) or
        its app's baseline (``degradation``/``pair``).  An input missing
        from the cache when its dependent's stage starts is never computed
        inline; the dependent becomes a hole instead: ``skipped``
        (uncharged) if the input was skipped for budget in this call,
        ``unsupported`` if the input was refused, ``dependency`` otherwise.
        A calibration that was attempted and failed permanently — refusals
        included — raises :class:`~repro.errors.CampaignError`, since no
        other experiment can run without it.

        Budget semantics (estimated experiment-seconds):

        * already-cached products cost *zero* — they are loaded, never
          charged, so a resumed planned campaign spends its budget only on
          new measurements;
        * admission is decided up front per stage from the estimates
          (deterministic in key order, whatever the worker count); keys
          that don't fit land in ``skipped``;
        * a deterministic model refusal (``unsupported``) refunds its
          cost: a refusal is knowledge about the model's domain, not a
          spent experiment, and the refund is available to the *next*
          stage (and the planner's next round).

        Every call — finished, or aborted by a failed calibration — writes
        ``failure_report.json`` next to the shards; with telemetry on it
        also writes ``telemetry.json`` and keeps the live
        ``telemetry.live.json`` current, ending with a ``complete`` frame.

        Args:
            raw_keys: unqualified product keys (see :meth:`descriptor_for`);
                duplicates are collapsed, first occurrence wins.
            workers: process count (``None`` → the pipeline's default).
            chunksize: descriptors per pool submission (``None`` → default).
            costs: estimated cost per entry of ``raw_keys`` (default: all
                zero, i.e. unbudgeted).
            budget: admission ceiling over ``costs`` for this call.

        Returns:
            Stats: total (distinct requested)/executed/cached/failed/
            unsupported product counts, skipped (qualified) keys,
            ``budget_spent``/``budget_refunded``, retries, elapsed seconds,
            worker count, the failure records as dicts, and the paths of
            the failure report and (telemetry on) ``telemetry.json``, where
            written.

        Raises:
            CampaignError: the calibration was attempted and failed
                permanently.
        """
        count = workers if workers is not None else self.workers
        if count is None:
            count = default_worker_count()
        chunk = chunksize if chunksize is not None else self.chunksize
        if costs is not None and len(costs) != len(raw_keys):
            raise ExperimentError(
                f"costs/raw_keys length mismatch: {len(costs)} != {len(raw_keys)}"
            )
        telemetry_on = self.telemetry if self.telemetry is not None else telemetry.enabled()
        if telemetry_on:
            telemetry.enable()

        cost_of: Dict[str, float] = {}
        for index, raw in enumerate(raw_keys):
            if raw not in cost_of:
                cost_of[raw] = float(costs[index]) if costs is not None else 0.0

        start = time.time()
        pending = [raw for raw in cost_of if not self.has_product(raw)]
        for _ in range(len(cost_of) - len(pending)):
            self._note_cache_hit()
        # Dependency stages: the calibration alone (everything depends on
        # it), then the measurements, then the baseline-dependent products.
        stages: List[Tuple[str, int, List[str]]] = [
            ("calibration", 1, []),
            ("measurements", count, []),
            ("dependents", count, []),
        ]
        stage_of = {"calibration": 0, "impact": 1, "comp_sig": 1, "baseline": 1}
        for raw in pending:
            stages[stage_of.get(raw.split("/")[0], 2)][2].append(raw)

        # The live document only makes sense with telemetry on and a real
        # cache directory to sit next to; a dark campaign pays nothing.
        reporter = (
            LiveReporter(self._cache.directory / LIVE_REPORT_NAME)
            if telemetry_on and self._cache.directory is not None
            else None
        )
        progress = _CampaignProgress(len(pending), self.verbose, reporter=reporter)
        failures: List[FailureRecord] = []
        transients: List[FailureRecord] = []
        skipped: List[str] = []
        phases: Dict[str, Dict[str, float]] = {}
        budget_spent = 0.0
        budget_refunded = 0.0
        remaining = budget

        def write_reports() -> Tuple[Optional[Path], Optional[Path]]:
            report_path = self._write_failure_report(failures, transients, start, count)
            telemetry_path = self._write_telemetry_report(
                telemetry_on, phases, self._campaign_meta(count, start, failures, transients), start
            )
            # Final live frame — marked complete so `repro top` knows to stop.
            progress.publish(force=True, complete=True)
            return report_path, telemetry_path

        for name, stage_workers, raws in stages:
            if not raws:
                continue
            runnable = self._admit_inputs(raws, failures, skipped)
            progress.begin_stage(name, len(runnable))
            wall0, cpu0 = time.time(), time.process_time()
            with telemetry.span(f"stage:{name}", "pipeline", engine=self.settings.engine):
                report = self._run_stage(
                    [self.descriptor_for(raw) for raw in runnable],
                    stage_workers,
                    chunk,
                    progress,
                    failures,
                    transients,
                    costs=[cost_of[raw] for raw in runnable],
                    budget=remaining,
                )
            phases[name] = {
                "wall": time.time() - wall0,
                "cpu": time.process_time() - cpu0,
            }
            progress.end_stage(len(failures), len(transients))
            if report is not None:
                skipped.extend(report.skipped)
                budget_spent += report.budget_spent
                budget_refunded += report.budget_refunded
                if remaining is not None:
                    remaining = max(0.0, remaining - report.budget_spent)
            if name == "calibration" and failures:
                write_reports()
                raise CampaignError(
                    "calibration failed permanently — no experiment can run "
                    "without it: " + failures[-1].describe(),
                    failures,
                )

        elapsed = time.time() - start
        report_path, telemetry_path = write_reports()
        unsupported = sum(1 for record in failures if record.category == "unsupported")
        executed = len(pending) - len(failures) - len(skipped)
        if self.verbose and pending:
            holes = f", {len(failures)} hole(s)" if failures else ""
            if unsupported:
                holes += f" ({unsupported} unsupported by this engine)"
            if skipped:
                holes += f", {len(skipped)} skipped for budget"
            print(
                f"[pipeline] campaign complete: {executed} "
                f"experiment(s){holes} in {elapsed:.1f}s with {count} worker(s)",
                flush=True,
                file=sys.stderr,
            )
        return {
            "total": len(cost_of),
            "executed": executed,
            "cached": len(cost_of) - len(pending),
            "failed": len(failures),
            "unsupported": unsupported,
            "retried": len(transients),
            "skipped": list(skipped),
            "budget_spent": budget_spent,
            "budget_refunded": budget_refunded,
            "elapsed": elapsed,
            "workers": count,
            "failure_records": [record.to_dict() for record in failures],
            "failure_report": str(report_path) if report_path else None,
            "telemetry_report": str(telemetry_path) if telemetry_path else None,
        }

    def _admit_inputs(
        self, raws: List[str], failures: List[FailureRecord], skipped: List[str]
    ) -> List[str]:
        """The keys of ``raws`` whose input is cached; the rest become holes.

        A key whose input is missing is never run: it is ``skipped`` when
        the input was skipped for budget, an ``unsupported`` record when
        the input was refused, and a ``dependency`` record otherwise.
        """
        outcome = {record.key: record.category for record in failures}
        runnable: List[str] = []
        for raw in raws:
            parts = raw.split("/")
            if parts[0] in ("impact", "comp_sig"):
                needed = "calibration"
            elif parts[0] in ("degradation", "pair") and len(parts) > 1:
                needed = f"baseline/{parts[1]}"
            else:
                runnable.append(raw)
                continue
            needed_key = self._key(needed)
            if needed_key in self._cache:
                runnable.append(raw)
            elif needed_key in skipped:
                skipped.append(self._key(raw))
            else:
                refused = outcome.get(needed_key) == "unsupported"
                reason = (
                    "model refusal upstream"
                    if refused
                    else "failed upstream"
                    if needed_key in outcome
                    else "not in the cache"
                )
                failures.append(
                    FailureRecord(
                        key=self._key(raw),
                        category="unsupported" if refused else "dependency",
                        message=f"{needed} unavailable ({reason})",
                        attempts=0,
                        kind=parts[0],
                    )
                )
        return runnable

    def _campaign_meta(
        self,
        workers: int,
        start: float,
        failures: List[FailureRecord],
        transients: List[FailureRecord],
    ) -> Dict[str, object]:
        return {
            "engine": self.settings.engine,
            "profile": self.settings.profile,
            "workers": workers,
            "elapsed": time.time() - start,
            "failed": len(failures),
            "retried": len(transients),
        }

    def _write_telemetry_report(
        self,
        active: bool,
        phases: Dict[str, Dict[str, float]],
        campaign: Dict[str, object],
        start: float,
    ) -> Optional[Path]:
        """Write ``telemetry.json`` next to the shards (telemetry-on only).

        Records the enclosing ``campaign`` span first so the trace always
        has its root, then snapshots the merged driver+worker telemetry.
        Memory-only caches skip the write, like the failure report.
        """
        if not active or self._cache.directory is None:
            return None
        telemetry.tracer().record(
            "campaign",
            start,
            time.time() - start,
            category="pipeline",
            args={"engine": self.settings.engine, "profile": self.settings.profile},
        )
        snap = telemetry.snapshot()
        document = build_report(
            snap["metrics"], snap["spans"], phases=phases, campaign=campaign
        )
        self._cache.directory.mkdir(parents=True, exist_ok=True)
        return write_report(self._cache.directory / TELEMETRY_REPORT_NAME, document)

    def _run_stage(
        self,
        descriptors: List[ExperimentDescriptor],
        workers: int,
        chunksize: int,
        progress: _CampaignProgress,
        failures: List[FailureRecord],
        transients: List[FailureRecord],
        costs: Optional[Sequence[float]] = None,
        budget: Optional[float] = None,
    ):
        if not descriptors:
            return None
        by_key = {descriptor.key: descriptor for descriptor in descriptors}

        def land(_index: int, key: str, value: object) -> None:
            # Journaled: on disk before the progress line, in its shard by
            # the stage-end flush below.
            self._cache.put(key, value, flush=False)
            progress.advance(key)

        try:
            report = run_tasks(
                run_experiment,
                descriptors,
                keys=[descriptor.key for descriptor in descriptors],
                workers=workers,
                chunksize=chunksize,
                policy=self.retry,
                on_result=land,
                costs=costs,
                budget=budget,
            )
        finally:
            self._cache.flush()
        for record in report.failures:
            record.kind = by_key[record.key].kind
            failures.append(record)
            if self.verbose:
                print(f"[pipeline] FAILED {record.describe()}", flush=True, file=sys.stderr)
        for record in report.transients:
            record.kind = by_key[record.key].kind
            transients.append(record)
            if self.verbose:
                print(f"[pipeline] retrying {record.describe()}", flush=True, file=sys.stderr)
        return report

    def _write_failure_report(
        self,
        failures: List[FailureRecord],
        transients: List[FailureRecord],
        start: float,
        workers: int,
    ) -> Optional[Path]:
        """Persist the campaign's failure accounting next to the shards.

        Written on every campaign (an empty report overwrites stale ones) so
        automation can always read the latest campaign's health from one
        well-known file.  Memory-only caches skip the write.
        """
        if self._cache.directory is None:
            return None
        path = self._cache.directory / FAILURE_REPORT_NAME
        document = {
            "engine": self.settings.engine,
            "profile": self.settings.profile,
            "started_at": start,
            "elapsed": time.time() - start,
            "workers": workers,
            "failure_count": len(failures),
            "failures": [record.to_dict() for record in failures],
            "transient_count": len(transients),
            "transients": [record.to_dict() for record in transients],
            "quarantined_shards": [
                str(shard) for shard in self._cache.quarantined
            ],
        }
        self._cache.directory.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document, indent=2) + "\n")
        return path
