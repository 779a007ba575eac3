"""Experiment layer: calibration, impact, compression, co-run, pipeline."""

from .cache import ShardedCache, group_of
from .calibration import calibrate
from .catalog import (
    APP_NAMES,
    PAPER_MESSAGES,
    PAPER_PARTNERS,
    PAPER_SLEEP_CYCLES,
    paper_applications,
    paper_compression_catalog,
    quick_compression_catalog,
)
from .compression import (
    CompressionExperiment,
    CompressionObservation,
    corun_slowdown,
    isolated_runtime,
    percent_slowdown,
)
from .future import (
    ScalingPoint,
    equivalent_utilization,
    network_scaling_study,
    scaled_network,
)
from .impact import ImpactExperiment, ImpactResult
from .pipeline import (
    ExperimentDescriptor,
    PipelineSettings,
    ReproductionPipeline,
    run_experiment,
)
from .runner import JobSpec, RunResult, execute

__all__ = [
    "calibrate",
    "ShardedCache",
    "group_of",
    "ExperimentDescriptor",
    "run_experiment",
    "ImpactExperiment",
    "ImpactResult",
    "CompressionExperiment",
    "CompressionObservation",
    "percent_slowdown",
    "isolated_runtime",
    "corun_slowdown",
    "ScalingPoint",
    "network_scaling_study",
    "equivalent_utilization",
    "scaled_network",
    "JobSpec",
    "RunResult",
    "execute",
    "PipelineSettings",
    "ReproductionPipeline",
    "paper_applications",
    "paper_compression_catalog",
    "quick_compression_catalog",
    "APP_NAMES",
    "PAPER_PARTNERS",
    "PAPER_SLEEP_CYCLES",
    "PAPER_MESSAGES",
]
