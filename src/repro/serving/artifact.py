"""Fitted-model artifacts: everything the four models need, in one file.

A campaign's model inputs — the CompressionB catalog signatures, the
per-app degradation tables, the per-app impact signatures, and the idle
calibration — are serialized into a single versioned JSON document wrapped
in the same checksum envelope the sharded cache uses::

    {
        "__artifact_format__": 1,
        "sha256": "<sha256 of the canonical payload text>",
        "payload": { "observations": [...], "degradations": {...},
                     "signatures": {...}, "calibration": {...},
                     "metadata": {...} }
    }

Because prediction models canonicalize their fitting table (sorted by
config label, ties broken by label), a loaded artifact reproduces the
original engine's predictions bit for bit — JSON round-trips floats
exactly, and the fitting order no longer matters.

Loading is paranoid by design: truncated files, garbled JSON, checksum
mismatches, unknown format versions, and missing payload sections all
raise :class:`~repro.errors.ArtifactError` instead of fitting on damaged
products.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .. import jsonfile
from ..core.experiments.compression import CompressionObservation
from ..core.measurement import ProbeSignature
from ..core.models import PredictionEngine, SlowdownModel, default_models
from ..errors import ArtifactError, CorruptDocument, ReproError
from ..queueing import ServiceEstimate

__all__ = [
    "ARTIFACT_FORMAT",
    "ModelArtifact",
    "save_artifact",
    "load_artifact",
]

#: Version stamp of the artifact document; bump on incompatible changes.
ARTIFACT_FORMAT = 1

#: What converting or fitting a checksummed payload's sections can raise
#: when they hold JSON of the wrong shape or type.
_MALFORMED = (LookupError, TypeError, AttributeError, ValueError, ArithmeticError)


@dataclass
class ModelArtifact:
    """The complete, serializable input set of the prediction models.

    Attributes:
        observations: the CompressionB catalog signatures.
        degradations: per-app, per-config measured % degradations.
        signatures: per-app impact signatures (each app measured alone).
        calibration: the idle-switch service estimate (``None`` when the
            campaign ran uncalibrated).
        metadata: free-form provenance (engine, profile, seed, ...).
    """

    observations: List[CompressionObservation]
    degradations: Dict[str, Dict[str, float]]
    signatures: Dict[str, ProbeSignature]
    calibration: Optional[ServiceEstimate] = None
    metadata: Dict[str, object] = field(default_factory=dict)

    def engine(
        self, models: Optional[Sequence[SlowdownModel]] = None
    ) -> PredictionEngine:
        """Fit a fresh :class:`PredictionEngine` on the artifact's products.

        The models' canonical fitting makes the result independent of the
        order observations were stored in, so an engine built here predicts
        identically to the one the artifact was exported from.

        Raises:
            ArtifactError: if the products cannot be fitted (a checksummed
                artifact can still hold nonsense, say a non-numeric mean).
        """
        try:
            return PredictionEngine(
                observations=self.observations,
                degradations=self.degradations,
                signatures=self.signatures,
                models=models if models is not None else default_models(),
            )
        except _MALFORMED as exc:
            raise ArtifactError(f"artifact products cannot be fitted: {exc}") from exc

    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """JSON-ready payload (the ``payload`` section of the document)."""
        return {
            "observations": [obs.to_dict() for obs in self.observations],
            "degradations": {
                app: dict(table) for app, table in self.degradations.items()
            },
            "signatures": {
                app: signature.to_dict()
                for app, signature in self.signatures.items()
            },
            "calibration": (
                self.calibration.to_dict() if self.calibration is not None else None
            ),
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ModelArtifact":
        """Rebuild an artifact from a verified payload mapping.

        Raises:
            ArtifactError: on missing sections or malformed entries.
        """
        if not isinstance(payload, dict):
            raise ArtifactError(
                f"artifact payload must be a mapping, got {type(payload).__name__}"
            )
        missing = [
            section
            for section in ("observations", "degradations", "signatures")
            if section not in payload
        ]
        if missing:
            raise ArtifactError(
                f"artifact payload lacks required section(s): {', '.join(missing)}"
            )
        calibration = payload.get("calibration")
        try:
            return cls(
                observations=[
                    CompressionObservation.from_dict(entry)
                    for entry in payload["observations"]
                ],
                degradations={
                    app: {label: float(value) for label, value in table.items()}
                    for app, table in payload["degradations"].items()
                },
                signatures={
                    app: ProbeSignature.from_dict(entry)
                    for app, entry in payload["signatures"].items()
                },
                calibration=(
                    ServiceEstimate.from_dict(calibration)
                    if calibration is not None
                    else None
                ),
                metadata=dict(payload.get("metadata") or {}),
            )
        except (*_MALFORMED, ReproError) as exc:
            raise ArtifactError(f"artifact payload is malformed: {exc}") from exc


def save_artifact(artifact: ModelArtifact, path: str | Path) -> Path:
    """Write ``artifact`` to ``path`` atomically, under a checksum envelope.

    The payload is checksummed over its canonical (sorted-keys) JSON text
    and written durably by :func:`repro.jsonfile.write_text` (temp file +
    fsync + ``os.replace`` + directory fsync), so a crashed write — or a
    crash right after the rename — leaves either the previous artifact or
    the complete new one, never a torn or empty file.  Registry promotion
    relies on this: the ``CURRENT`` pointer only ever names fully-durable
    artifacts.
    """
    payload = artifact.to_payload()
    document = {
        "__artifact_format__": ARTIFACT_FORMAT,
        "sha256": jsonfile.seal(json.dumps(payload, sort_keys=True)),
        "payload": payload,
    }
    return jsonfile.write_text(path, json.dumps(document) + "\n", durable=True)


def load_artifact(path: str | Path) -> ModelArtifact:
    """Load and verify a fitted-model artifact.

    Raises:
        ArtifactError: if the file is missing, unparsable, fails its
            checksum, declares an unknown format version, or lacks any
            required payload section.
    """
    try:
        document = jsonfile.read(path, f"artifact {path}")
    except CorruptDocument as exc:
        raise ArtifactError(str(exc)) from exc
    if not isinstance(document, dict):
        raise ArtifactError(
            f"artifact {path} must be a JSON object, got {type(document).__name__}"
        )
    version = document.get("__artifact_format__")
    if version != ARTIFACT_FORMAT:
        raise ArtifactError(
            f"artifact {path} has format {version!r}; this build reads "
            f"format {ARTIFACT_FORMAT}"
        )
    payload = document.get("payload")
    recorded = document.get("sha256")
    if not isinstance(payload, dict) or not isinstance(recorded, str):
        raise ArtifactError(f"artifact {path} lacks its payload or checksum")
    actual = jsonfile.seal(json.dumps(payload, sort_keys=True))
    if actual != recorded:
        raise ArtifactError(
            f"artifact {path} failed its checksum (recorded {recorded[:12]}…, "
            f"actual {actual[:12]}…); refusing to fit on damaged products"
        )
    return ModelArtifact.from_payload(payload)
