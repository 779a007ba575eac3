"""The full reproduction pipeline: sharded caching + parallel execution.

Reproducing the paper end to end needs ~330 simulation runs:

* 1 idle calibration,
* 40 CompressionB+ImpactB signature runs (Fig. 6),
* 6 application impact runs (Fig. 3),
* 6 isolated baselines,
* 240 application × CompressionB degradation runs (Fig. 7),
* 36 application-pair co-runs (Table I, Figs. 8–9).

One definition drives every product: :data:`PRODUCT_KINDS` gives each of
the six kinds its key fields and dependency stage, and :func:`input_of`
gives each key its input (the calibration for impacts and signatures, the
app's baseline for degradations and co-runs).  Every run is a pure
function of its picklable :class:`ExperimentDescriptor`, which
:meth:`ReproductionPipeline.descriptor_for` alone builds.

Products are reached two ways.  :meth:`ReproductionPipeline.product` — the
one memo, behind every typed accessor — returns a cached value or runs the
experiment in this process.  :meth:`ReproductionPipeline.ensure_products`
— the one campaign executor, behind both
:meth:`~ReproductionPipeline.ensure_all` and the adaptive planner — admits
the pending keys of each stage under the measurement budget
(:func:`admit_within_budget`) and fans the admitted ones out through
:func:`repro.parallel.run_tasks`, under a retry/timeout policy that turns
permanent failures into structured :class:`~repro.errors.FailureRecord`
holes instead of a dead campaign.

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
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ... import jsonfile, telemetry
from ...config import MachineConfig, scenario_tag
from ...core.measurement import ProbeSignature
from ...engine.base import (
    available_engines,
    ensure_scenario_supported,
    get_engine,
)
from ...errors import CampaignError, ConfigurationError, ExperimentError, FailureRecord
from ...faults import active_fault_plan, current_attempt
from ...parallel import RetryPolicy, default_worker_count, run_tasks
from ...queueing import ServiceEstimate
from ...telemetry.live import LIVE_REPORT_NAME, LiveReporter
from ...telemetry.report import TELEMETRY_REPORT_NAME, build_report, write_report
from ...units import MS
from ...workloads import CompressionConfig, Workload
from ..models import PredictionEngine
from .cache import FAILURE_REPORT_NAME, ShardedCache
from .catalog import APP_NAMES, paper_applications, paper_compression_catalog, quick_compression_catalog
from .compression import CompressionObservation
from .impact import ImpactResult

__all__ = [
    "PRODUCT_KINDS",
    "PipelineSettings",
    "ReproductionPipeline",
    "ExperimentDescriptor",
    "admit_within_budget",
    "enforce_failure_budget",
    "input_of",
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


#: The six product kinds, in campaign order.  Each maps to the descriptor
#: field that each ``/``-separated name of its key fills (so the tuple's
#: length is the key's arity) and to its dependency stage.  Stages run in
#: the order they first appear here: everything needs the calibration,
#: and degradations and co-runs need their app's baseline.
PRODUCT_KINDS: Dict[str, Tuple[Tuple[str, ...], str]] = {
    "calibration": ((), "calibration"),
    "impact": (("workload",), "measurements"),
    "comp_sig": (("comp_config",), "measurements"),
    "baseline": (("workload",), "measurements"),
    "degradation": (("workload", "comp_config"), "dependents"),
    "pair": (("workload", "other"), "dependents"),
}


def _parse(raw: str) -> Tuple[str, List[str]]:
    """Split a raw key into its kind and names, checking the kind's arity."""
    kind, *names = raw.split("/")
    if kind not in PRODUCT_KINDS or len(PRODUCT_KINDS[kind][0]) != len(names):
        raise ExperimentError(f"unrecognized product key {raw!r}")
    return kind, names


def input_of(raw: str) -> Optional[str]:
    """The raw key whose value the descriptor of ``raw`` carries, if any.

    Impacts and CompressionB signatures carry the idle calibration;
    degradations and co-runs carry the measured app's isolated baseline.

    Raises:
        ExperimentError: ``raw`` is not a well-formed product key.
    """
    kind, names = _parse(raw)
    if kind in ("impact", "comp_sig"):
        return "calibration"
    if kind in ("degradation", "pair"):
        return f"baseline/{names[0]}"
    return None


def run_experiment(descriptor: ExperimentDescriptor) -> object:
    """Execute one descriptor and return its JSON-ready product value.

    Dispatches to the engine named in the descriptor's settings (``"sim"``
    resolves to the discrete-event reference, ``"analytic"`` to the M/G/1
    fast path, ``"fluid"`` to the flow-level fabric solver).  Pure for a
    fixed engine: the product is a function of the descriptor alone, so
    results are identical whether this runs in the driver process or a
    pool worker.

    The capability check happens here: the scenario is checked against
    the engine's declared
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
    # back through the task envelope and the campaign-wide count is exact.
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


def admit_within_budget(
    costs: Sequence[float], budget: Optional[float]
) -> List[bool]:
    """Budget admission control: which items a budget admits, in order.

    Items are admitted in order while their estimated cost still fits what
    the items admitted before them left of ``budget``; an item that does
    not fit is refused, and later, cheaper items may still be admitted.
    A pure function of the estimates — never of wall-clock measurements or
    completion order — so the same costs and budget always admit the same
    subset, whatever the worker count.  ``budget=None`` admits everything.

    Raises:
        ConfigurationError: a negative cost or budget.
    """
    if budget is not None and budget < 0:
        raise ConfigurationError(f"budget must be >= 0, got {budget}")
    admitted: List[bool] = []
    spent = 0.0
    for cost in costs:
        if cost < 0:
            raise ConfigurationError(f"cost must be >= 0, got {cost}")
        fits = budget is None or spent + cost <= budget + 1e-9
        if fits:
            spent += cost
        admitted.append(fits)
    return admitted


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

    Typed accessors (:meth:`calibration`, :meth:`app_impact`, …) parse the
    value :meth:`product` returns, computing it in this process when it is
    missing; campaigns run many products at once through
    :meth:`ensure_products`, one task per product.

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
        retry: per-task retry/timeout policy for campaign execution
            (``None`` → :class:`~repro.parallel.RetryPolicy`'s defaults:
            two attempts, no timeout).
        failure_budget: how many products :meth:`ensure_all` may leave as
            holes before raising :class:`~repro.errors.CampaignError`
            (0 = any permanent failure raises, preserving the historical
            all-or-nothing behavior).

    Telemetry follows the process-wide switch
    (:func:`repro.telemetry.enabled`: the ``REPRO_TELEMETRY`` environment
    variable, ``repro --telemetry``/``--no-telemetry``, or
    :func:`repro.telemetry.enable`): with it on, :meth:`ensure_products`
    writes ``telemetry.json`` and keeps ``telemetry.live.json`` current
    next to the shards.  Purely observational — products and shards are
    bit-identical either way.
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
        retry: Optional[RetryPolicy] = None,
        failure_budget: int = 0,
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

    def product(self, raw: str) -> Any:
        """The value of one raw product key — the one memo.

        A cached value is returned as is.  A missing one is computed in
        this process from :meth:`descriptor_for` (which fills the key's
        input through this memo first) and stored in the cache at once, so
        an engine's own exception (a refusal included) reaches the caller.
        """
        key = self._key(raw)
        if key in self._cache:
            self._note_cache_hit()
            return self._cache[key]
        descriptor = self.descriptor_for(raw)
        if telemetry.enabled():
            telemetry.registry().counter_inc("pipeline.cache_misses")
        start = time.time()
        value = run_experiment(descriptor)
        if self.verbose:
            print(
                f"[pipeline] {key}: {time.time() - start:.1f}s",
                flush=True,
                file=sys.stderr,
            )
        self._cache.put(key, value)
        return value

    def descriptor_for(self, raw: str) -> ExperimentDescriptor:
        """Build the descriptor of one raw product key — the one builder.

        Accepts the key grammar :meth:`product_keys` emits, unqualified
        (``calibration``, ``impact/<app>|idle``, ``comp_sig/<label>``,
        ``baseline/<app>``, ``degradation/<app>/<label>``,
        ``pair/<app>/<app>``): :data:`PRODUCT_KINDS` gives each kind's
        fields, and the key's input (:func:`input_of`) is filled through
        :meth:`product`.  CompressionB labels contain no ``/``, so
        splitting on it is unambiguous.

        Raises:
            ExperimentError: unknown key shape, application, or catalog
                label.
        """
        kind, names = _parse(raw)
        fields: Dict[str, object] = {}
        for field_name, name in zip(PRODUCT_KINDS[kind][0], names):
            if field_name == "comp_config":
                fields[field_name] = self._config(name)
            elif raw != "impact/idle":  # the idle impact probes an empty switch
                fields[field_name] = self._app(name)
        needed = input_of(raw)
        if needed == "calibration":
            fields["calibration"] = self.product(needed)
        elif needed is not None:
            fields["baseline"] = float(self.product(needed))
        return ExperimentDescriptor(
            key=self._key(raw),
            kind=kind,
            settings=self.settings,
            machine_config=self.machine_config,
            **fields,  # type: ignore[arg-type]
        )

    def _config(self, label: str) -> CompressionConfig:
        for config in self.catalog:
            if config.label == label:
                return config
        raise ExperimentError(f"unknown CompressionB label {label!r}")

    # ------------------------------------------------------------------
    # Primitive products
    # ------------------------------------------------------------------
    def calibration(self) -> ServiceEstimate:
        """Idle-switch service estimate (µ, Var(S))."""
        return ServiceEstimate.from_dict(self.product("calibration"))

    def idle_signature(self) -> ProbeSignature:
        """The idle switch's probe signature (Fig. 3's 'No App' series)."""
        return ImpactResult.from_dict(self.product("impact/idle")).signature

    def app_impact(self, name: str) -> ImpactResult:
        """Impact experiment on one application (probe signature + ρ)."""
        return ImpactResult.from_dict(self.product(f"impact/{name}"))

    def compression_signature(self, config: CompressionConfig) -> CompressionObservation:
        """Signature of one CompressionB config (Fig. 6 point)."""
        return CompressionObservation.from_dict(self.product(f"comp_sig/{config.label}"))

    def compression_signatures(self) -> List[CompressionObservation]:
        """All catalog configs' signatures."""
        return [self.compression_signature(config) for config in self.catalog]

    def app_baseline(self, name: str) -> float:
        """Isolated runtime of one application."""
        return float(self.product(f"baseline/{name}"))

    def app_degradation(self, name: str, config: CompressionConfig) -> float:
        """% degradation of one app under one CompressionB config (Fig. 7 point)."""
        return float(self.product(f"degradation/{name}/{config.label}"))

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
        return float(self.product(f"pair/{measured}/{other}"))

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
        return self.model_artifact().engine()

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
        costs: Optional[Sequence[float]] = None,
        budget: Optional[float] = None,
    ) -> Dict[str, object]:
        """Run (or load) the requested products — the one campaign executor.

        :meth:`ensure_all` calls it with every product; the adaptive
        planner calls it once per round with the subset it chose.  Pending
        products run in the dependency stages of :data:`PRODUCT_KINDS`, one
        task per product.  Each task runs under the pipeline's
        :class:`~repro.parallel.RetryPolicy` — bounded retries, an optional
        per-task timeout that kills hung workers, and automatic pool
        respawn after a worker crash.  Each result is appended to the
        cache's journal as it lands, before its progress line, so
        interrupting the campaign never loses completed work; the end of
        each stage, also one cut short by an exception, rewrites every
        shard the stage touched once and deletes the journal.

        A product's input (:func:`input_of`) missing from the cache when
        its dependent's stage starts is never computed inline; the
        dependent becomes a hole instead: ``skipped``
        (uncharged) if the input was skipped for budget in this call,
        ``unsupported`` if the input was refused, ``dependency`` otherwise.
        A calibration that was attempted and failed permanently — refusals
        included — raises :class:`~repro.errors.CampaignError`, since no
        other experiment can run without it.

        Budget semantics (estimated experiment-seconds):

        * already-cached products cost *zero* — they are loaded, never
          charged, so a resumed planned campaign spends its budget only on
          new measurements;
        * admission (:func:`admit_within_budget`) is decided up front per
          stage from the estimates, before the stage runs (deterministic
          in key order, whatever the worker count); keys that don't fit
          land in ``skipped`` and never run;
        * a deterministic model refusal (``unsupported``) refunds its
          cost: a refusal is knowledge about the model's domain, not a
          spent experiment, and the refund is available to the *next*
          stage (and the planner's next round).

        Every call — finished, or aborted by a failed calibration — writes
        ``failure_report.json`` next to the shards; with the process-wide
        telemetry switch on it also writes ``telemetry.json`` and keeps
        the live ``telemetry.live.json`` current, ending with a
        ``complete`` frame.

        Args:
            raw_keys: unqualified product keys (see :meth:`descriptor_for`);
                duplicates are collapsed, first occurrence wins.
            workers: process count (``None`` → the pipeline's default).
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
            ConfigurationError: a negative cost or budget.
        """
        count = workers if workers is not None else self.workers
        if count is None:
            count = default_worker_count()
        if costs is not None and len(costs) != len(raw_keys):
            raise ExperimentError(
                f"costs/raw_keys length mismatch: {len(costs)} != {len(raw_keys)}"
            )
        telemetry_on = telemetry.enabled()

        cost_of: Dict[str, float] = {}
        for index, raw in enumerate(raw_keys):
            if raw not in cost_of:
                cost_of[raw] = float(costs[index]) if costs is not None else 0.0

        start = time.time()
        pending = [raw for raw in cost_of if not self.has_product(raw)]
        for _ in range(len(cost_of) - len(pending)):
            self._note_cache_hit()
        # Dependency stages in table order: the calibration alone (on one
        # worker), then the measurements, then the baseline-dependent products.
        stages: Dict[str, List[str]] = {
            stage: [] for _fields, stage in PRODUCT_KINDS.values()
        }
        for raw in pending:
            stages[PRODUCT_KINDS[_parse(raw)[0]][1]].append(raw)

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

        for name, raws in stages.items():
            if not raws:
                continue
            runnable = self._admit_inputs(raws, failures, skipped)
            progress.begin_stage(name, len(runnable))
            wall0, cpu0 = time.time(), time.process_time()
            with telemetry.span(f"stage:{name}", "pipeline", engine=self.settings.engine):
                spent, refunded = self._run_stage(
                    runnable,
                    [cost_of[raw] for raw in runnable],
                    remaining,
                    1 if name == "calibration" else count,
                    progress,
                    failures,
                    transients,
                    skipped,
                )
            phases[name] = {
                "wall": time.time() - wall0,
                "cpu": time.process_time() - cpu0,
            }
            progress.end_stage(len(failures), len(transients))
            budget_spent += spent
            budget_refunded += refunded
            if remaining is not None:
                remaining = max(0.0, remaining - spent)
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
            needed = input_of(raw)
            if needed is None or self.has_product(needed):
                runnable.append(raw)
                continue
            needed_key = self._key(needed)
            if needed_key in skipped:
                skipped.append(self._key(raw))
                continue
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
                    kind=_parse(raw)[0],
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
        raws: List[str],
        costs: List[float],
        budget: Optional[float],
        workers: int,
        progress: _CampaignProgress,
        failures: List[FailureRecord],
        transients: List[FailureRecord],
        skipped: List[str],
    ) -> Tuple[float, float]:
        """Admit one stage's runnable keys under ``budget`` and run them.

        The keys that do not fit join ``skipped`` in key order and never
        run.  Returns ``(spent, refunded)``: the admitted keys' costs less
        the cost of each one that went terminal as ``unsupported``, and
        the sum of those refunds.
        """
        fits = admit_within_budget(costs, budget)
        skipped.extend(self._key(raw) for raw, fit in zip(raws, fits) if not fit)
        charged = {
            self._key(raw): cost for raw, cost, fit in zip(raws, costs, fits) if fit
        }
        spent, refunded = sum(charged.values(), 0.0), 0.0
        if not charged:
            return spent, refunded
        descriptors = [self.descriptor_for(raw) for raw, fit in zip(raws, fits) if fit]
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
                policy=self.retry,
                on_result=land,
            )
        finally:
            self._cache.flush()
        for record in report.failures:
            record.kind = by_key[record.key].kind
            failures.append(record)
            if record.category == "unsupported" and charged[record.key] > 0:
                spent -= charged[record.key]
                refunded += charged[record.key]
            if self.verbose:
                print(f"[pipeline] FAILED {record.describe()}", flush=True, file=sys.stderr)
        for record in report.transients:
            record.kind = by_key[record.key].kind
            transients.append(record)
            if self.verbose:
                print(f"[pipeline] retrying {record.describe()}", flush=True, file=sys.stderr)
        return spent, refunded

    def _write_failure_report(
        self,
        failures: List[FailureRecord],
        transients: List[FailureRecord],
        start: float,
        workers: int,
    ) -> Optional[Path]:
        """Persist the campaign's failure accounting next to the shards.

        Written atomically on every campaign (an empty report overwrites
        stale ones) so automation can always read the latest campaign's
        health from one well-known file.  Memory-only caches skip the write.
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
        return jsonfile.write_text(path, json.dumps(document, indent=2) + "\n")
