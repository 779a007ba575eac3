"""The paper's primary contribution: active measurement + prediction.

Sub-packages:

* :mod:`repro.core.measurement` — latency collection, histograms, probe
  signatures;
* :mod:`repro.core.experiments` — calibration, Impact, Compression, co-run
  experiments, and the cached reproduction pipeline;
* :mod:`repro.core.models` — the four slowdown-prediction models.

Experiments and models are exposed lazily: they depend on
:mod:`repro.workloads`, which itself uses :mod:`repro.core.measurement`, so
eager imports here would create a cycle.
"""

from .measurement import LatencyCollector, LatencyHistogram, ProbeSignature

__all__ = [
    "ContentionAnalyzer",
    "LatencyCollector",
    "LatencyHistogram",
    "ProbeSignature",
    "calibrate",
    "ImpactExperiment",
    "CompressionExperiment",
    "PipelineSettings",
    "ReproductionPipeline",
    "AverageLT",
    "AverageStDevLT",
    "PDFLT",
    "QueueModel",
    "PredictionEngine",
    "default_models",
]

_EXPERIMENT_NAMES = {
    "calibrate",
    "ImpactExperiment",
    "CompressionExperiment",
    "PipelineSettings",
    "ReproductionPipeline",
}
_ANALYZER_NAMES = {"ContentionAnalyzer"}
_MODEL_NAMES = {
    "AverageLT",
    "AverageStDevLT",
    "PDFLT",
    "QueueModel",
    "PredictionEngine",
    "default_models",
}


def __getattr__(name: str):
    if name in _ANALYZER_NAMES:
        from . import analyzer

        return getattr(analyzer, name)
    if name in _EXPERIMENT_NAMES:
        from . import experiments

        return getattr(experiments, name)
    if name in _MODEL_NAMES:
        from . import models

        return getattr(models, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
