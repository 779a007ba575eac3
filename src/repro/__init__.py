"""repro — Active measurement of network-switch utilization impact.

A full reproduction of Casas & Bronevetsky, *Active Measurement of the
Impact of Network Switch Utilization on Application Performance* (IPPS
2014), built on a discrete-event cluster simulator.

Quickstart::

    from repro import ReproductionPipeline, PipelineSettings

    pipeline = ReproductionPipeline(PipelineSettings(profile="quick"))
    print(pipeline.pair_slowdown("fftw", "milc"))

Layers (bottom-up): :mod:`repro.sim` (event kernel), :mod:`repro.network`
(NICs, switches), :mod:`repro.mpi` (message passing), :mod:`repro.cluster`
(machines, placement), :mod:`repro.workloads` (probes + applications),
:mod:`repro.queueing` (M/G/1 theory), :mod:`repro.core` (experiments +
models), :mod:`repro.analysis` (reports).
"""

from .config import MachineConfig, NetworkConfig, NodeConfig, Scale
from .core.experiments import (
    CompressionExperiment,
    ImpactExperiment,
    PipelineSettings,
    ReproductionPipeline,
    calibrate,
    paper_applications,
    paper_compression_catalog,
)
from .core.analyzer import ContentionAnalyzer
from .core.measurement import LatencyCollector, LatencyHistogram, ProbeSignature
from .core.models import (
    AverageLT,
    AverageStDevLT,
    PDFLT,
    PredictionEngine,
    QueueModel,
    default_models,
)
from .cluster import Machine, cab_config
from .errors import ReproError
from .mpi import MPIWorld
from .workloads import (
    AMG,
    FFTW,
    CompressionB,
    CompressionConfig,
    ImpactB,
    Lulesh,
    MCB,
    MILC,
    VPFFT,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    "MachineConfig",
    "NetworkConfig",
    "NodeConfig",
    "Scale",
    "Machine",
    "cab_config",
    "MPIWorld",
    "ImpactB",
    "CompressionB",
    "CompressionConfig",
    "AMG",
    "FFTW",
    "Lulesh",
    "MCB",
    "MILC",
    "VPFFT",
    "LatencyCollector",
    "LatencyHistogram",
    "ProbeSignature",
    "calibrate",
    "ContentionAnalyzer",
    "ImpactExperiment",
    "CompressionExperiment",
    "PipelineSettings",
    "ReproductionPipeline",
    "paper_applications",
    "paper_compression_catalog",
    "AverageLT",
    "AverageStDevLT",
    "PDFLT",
    "QueueModel",
    "PredictionEngine",
    "default_models",
]
