"""ContentionAnalyzer — the one-object API for the paper's workflow.

For a downstream user the methodology is three verbs:

* ``fingerprint(app)`` — how much switch does this application use?
* ``degradation_curve(app)`` — how does it behave as the switch weakens?
* ``predict(app, other)`` — what happens if these two share a switch?

The analyzer wraps the cached :class:`ReproductionPipeline` and the fitted
models behind those verbs, registering custom workloads on the fly.

Example::

    from repro import cab_config
    from repro.core.analyzer import ContentionAnalyzer
    from repro.workloads import FFTW, MILC

    analyzer = ContentionAnalyzer.quick(cab_config())
    analyzer.register(FFTW())
    analyzer.register(MILC())
    print(analyzer.fingerprint("fftw").utilization)
    print(analyzer.predict("fftw", "milc"))
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..analysis.report import degradation_curves
from ..config import MachineConfig
from ..core.measurement import ProbeSignature
from ..errors import ExperimentError
from ..workloads import Workload
from .experiments import PipelineSettings, ReproductionPipeline
from .models import PredictionEngine

__all__ = ["ContentionAnalyzer"]


class ContentionAnalyzer:
    """High-level facade over the active-measurement methodology.

    Args:
        pipeline: a configured reproduction pipeline.  Applications can be
            pre-registered via the pipeline or added with :meth:`register`.
    """

    def __init__(self, pipeline: ReproductionPipeline) -> None:
        self.pipeline = pipeline
        self._engine: Optional[PredictionEngine] = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def quick(
        cls,
        machine_config: Optional[MachineConfig] = None,
        cache_path=None,
        seed: int = 0,
    ) -> "ContentionAnalyzer":
        """An analyzer on the 10-config quick catalog (minutes, not tens)."""
        pipeline = ReproductionPipeline(
            settings=PipelineSettings(
                profile="quick",
                seed=seed,
                impact_duration=0.02,
                signature_duration=0.02,
            ),
            machine_config=machine_config,
            cache_path=cache_path,
            applications={},
        )
        return cls(pipeline)

    @classmethod
    def paper(
        cls,
        cache_path="results/cache",
        legacy_cache="results/paper_cache.json",
    ) -> "ContentionAnalyzer":
        """The full 40-config catalog with the paper's six applications."""
        return cls(
            ReproductionPipeline(
                settings=PipelineSettings(profile="paper"),
                cache_path=cache_path,
                legacy_cache=legacy_cache,
            )
        )

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, workload: Workload) -> None:
        """Add an application to the analyzer's registry.

        Raises:
            ExperimentError: if a different workload already uses the name.
        """
        existing = self.pipeline.applications.get(workload.name)
        if existing is not None and existing is not workload:
            raise ExperimentError(
                f"an application named {workload.name!r} is already registered"
            )
        self.pipeline.applications[workload.name] = workload
        self._engine = None  # registry changed; refit lazily

    @property
    def applications(self) -> List[str]:
        return self.pipeline.app_names

    # ------------------------------------------------------------------
    # The three verbs
    # ------------------------------------------------------------------
    def fingerprint(self, app: str) -> ProbeSignature:
        """The application's switch signature (Impact experiment)."""
        return self.pipeline.app_impact(app).signature

    def degradation_curve(self, app: str) -> List[Tuple[float, float]]:
        """(utilization, % degradation) points over the catalog, sorted."""
        return sorted(degradation_curves(self.pipeline)[app])

    def predict(self, app: str, other: str) -> Dict[str, float]:
        """All models' predicted % slowdown of ``app`` next to ``other``."""
        if self._engine is None:
            self._engine = self.pipeline.engine()
        return {
            prediction.model: prediction.predicted
            for prediction in self._engine.predict_pair(app, other)
        }

    def measure(self, app: str, other: str) -> float:
        """Ground truth: actually co-run the pair and return the slowdown."""
        return self.pipeline.pair_slowdown(app, other)

    def interference_matrix(self) -> Dict[Tuple[str, str], Dict[str, float]]:
        """Predictions for every ordered pair of registered applications."""
        return {
            (app, other): self.predict(app, other)
            for app in self.applications
            for other in self.applications
        }
