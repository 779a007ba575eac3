"""Fitted-model artifacts, the model registry, and the prediction servers.

The campaign measures; this package serves.  A
:class:`~repro.serving.artifact.ModelArtifact` freezes everything the four
prediction models need (catalog signatures, degradation tables, impact
signatures, calibration) into one checksummed JSON file; a
:class:`~repro.serving.registry.ModelRegistry` keeps many such artifacts as
immutable versions behind an atomically-updated ``CURRENT`` pointer with
promote/rollback verbs; :class:`~repro.serving.server.PredictionServer`
answers single and batch prediction requests over plain HTTP, hot-reloading
on registry promotions without dropping a request; and
:class:`~repro.serving.prefork.ShardedPredictionServer` pre-forks N such
servers onto one ``SO_REUSEPORT``-shared port for per-core parallelism.
No campaign cache is required at serving time.
"""

from .artifact import ARTIFACT_FORMAT, ModelArtifact, load_artifact, save_artifact
from .fleet import fleet_document, publish_stats, read_shard_documents, stats_path
from .prefork import ShardedPredictionServer
from .registry import CURRENT_POINTER, ModelRegistry, RegistryEntry
from .server import PredictionServer, ServingState, UNKNOWN_ENDPOINT

__all__ = [
    "ARTIFACT_FORMAT",
    "ModelArtifact",
    "load_artifact",
    "save_artifact",
    "CURRENT_POINTER",
    "ModelRegistry",
    "RegistryEntry",
    "PredictionServer",
    "ServingState",
    "UNKNOWN_ENDPOINT",
    "ShardedPredictionServer",
    "fleet_document",
    "publish_stats",
    "read_shard_documents",
    "stats_path",
]
