"""Versioned on-disk model registry with atomic promotion and rollback.

A registry is a directory of checksummed fitted-model artifacts plus one
pointer file naming the version currently being served::

    registry/
        versions/
            v0001.json      <- save_artifact envelopes (sha256-checksummed)
            v0002.json
            canary.json     <- caller-named versions are fine too
        CURRENT             <- {"version": "v0002", "previous": "v0001", ...}

Every write is atomic-and-durable (temp file + fsync + ``os.replace`` +
directory fsync, via :func:`repro.jsonfile.write_text`), so readers —
including a :class:`~repro.serving.server.PredictionServer` watcher thread
in another process — always see either the old pointer or the new one,
never a torn file.

Promotion is paranoid: :meth:`ModelRegistry.promote` fully loads and
checksum-verifies the candidate artifact *before* the pointer moves, so a
truncated, garbled, or tampered version can never become ``CURRENT``.  The
pointer records the previously-served version, which is what
:meth:`ModelRegistry.rollback` flips back to (after re-verifying it — the
old artifact may have been damaged while it was out of service).

Registry *usage* errors (unknown version, name collision, malformed
pointer, rollback with no history) raise
:class:`~repro.errors.RegistryError`; artifact *content* damage keeps
raising :class:`~repro.errors.ArtifactError`.  An unreadable pointer blocks
nothing but :meth:`ModelRegistry.rollback`: the next good promotion
overwrites it.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

from .. import jsonfile
from ..errors import CorruptDocument, RegistryError
from .artifact import ModelArtifact, load_artifact, save_artifact

__all__ = ["CURRENT_POINTER", "ModelRegistry", "RegistryEntry"]

#: Name of the pointer file inside the registry root.
CURRENT_POINTER = "CURRENT"

#: Version names are path-safe single components: no separators, no
#: dots-only, and short enough that no file system refuses the file name.
_VERSION_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,99}$")

#: Auto-assigned version names: v0001, v0002, ... (lexically == numerically
#: sortable up to 9999, and still unambiguous beyond).
_AUTO_RE = re.compile(r"^v(\d{4,})$")


@dataclass(frozen=True)
class RegistryEntry:
    """One registered version, as ``repro registry list`` reports it.

    Attributes:
        version: the version name (file stem under ``versions/``).
        path: the artifact file.
        sha256: the artifact envelope's recorded payload checksum (read
            without verifying; promotion is what verifies).
        current: whether ``CURRENT`` points at this version.
    """

    version: str
    path: Path
    sha256: str
    current: bool

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "path": str(self.path),
            "sha256": self.sha256,
            "current": self.current,
        }


class ModelRegistry:
    """A directory of versioned artifacts behind an atomic ``CURRENT`` pointer.

    Args:
        root: the registry directory (created lazily on first publish).
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    @property
    def versions_dir(self) -> Path:
        return self.root / "versions"

    @property
    def pointer_path(self) -> Path:
        return self.root / CURRENT_POINTER

    def artifact_path(self, version: str) -> Path:
        """Path of one version's artifact file (which may not exist yet)."""
        self._check_name(version)
        return self.versions_dir / f"{version}.json"

    @staticmethod
    def _check_name(version: str) -> None:
        if not _VERSION_RE.match(version):
            raise RegistryError(
                f"invalid version name {version!r}: use up to 100 letters, "
                "digits, '.', '_' or '-' (must start with a letter or digit)"
            )

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def next_version(self) -> str:
        """The next auto-assigned version name (``v0001``, ``v0002``, ...)."""
        highest = 0
        if self.versions_dir.is_dir():
            for path in self.versions_dir.glob("v*.json"):
                match = _AUTO_RE.match(path.stem)
                if match:
                    highest = max(highest, int(match.group(1)))
        return f"v{highest + 1:04d}"

    def publish(
        self, artifact: ModelArtifact, version: Optional[str] = None
    ) -> str:
        """Register a new artifact version; does **not** move ``CURRENT``.

        Auto-assigns the next ``vNNNN`` name when ``version`` is omitted.
        Re-publishing an existing version name is refused — versions are
        immutable once written (promote/rollback depend on that).

        Returns:
            the version name the artifact was registered under.
        """
        if version is None:
            version = self.next_version()
        path = self.artifact_path(version)
        if path.exists():
            raise RegistryError(
                f"version {version!r} already exists in {self.root}; "
                "versions are immutable — publish under a new name"
            )
        save_artifact(artifact, path)
        return version

    # ------------------------------------------------------------------
    # Pointer
    # ------------------------------------------------------------------
    def _read_pointer(self) -> Optional[dict]:
        if not self.pointer_path.exists():
            return None  # nothing promoted yet
        try:
            record = jsonfile.read(
                self.pointer_path, f"registry pointer {self.pointer_path}"
            )
        except CorruptDocument as exc:
            raise RegistryError(str(exc)) from exc
        if not isinstance(record, dict) or not isinstance(
            record.get("version"), str
        ):
            raise RegistryError(
                f"registry pointer {self.pointer_path} lacks a 'version' field"
            )
        return record

    def current_version(self) -> Optional[str]:
        """The version ``CURRENT`` names, or ``None`` before any promotion."""
        record = self._read_pointer()
        return record["version"] if record else None

    def previous_version(self) -> Optional[str]:
        """The version served before the last promotion, if any."""
        record = self._read_pointer()
        previous = record.get("previous") if record else None
        return previous if isinstance(previous, str) else None

    def _write_pointer(self, version: str, previous: Optional[str]) -> None:
        record = {"version": version, "previous": previous}
        jsonfile.write_text(
            self.pointer_path, json.dumps(record, sort_keys=True) + "\n", durable=True
        )

    # ------------------------------------------------------------------
    # Promotion / rollback
    # ------------------------------------------------------------------
    def verify(self, version: str) -> ModelArtifact:
        """Load and checksum-verify one version's artifact.

        Raises:
            RegistryError: if the version is not registered.
            ArtifactError: if the artifact file is damaged.
        """
        path = self.artifact_path(version)
        if not path.exists():
            known = ", ".join(e.version for e in self.entries()) or "<none>"
            raise RegistryError(
                f"unknown version {version!r} in {self.root} (known: {known})"
            )
        return load_artifact(path)

    def promote(self, version: str) -> ModelArtifact:
        """Atomically point ``CURRENT`` at ``version``; returns its artifact.

        The candidate artifact is fully loaded and checksum-verified first —
        a damaged file raises :class:`ArtifactError` and the pointer does
        not move.  Promoting the already-current version is a no-op (the
        pointer is not rewritten, so watchers see no spurious flip).  An
        unreadable pointer is replaced by a fresh one with no history.
        """
        artifact = self.verify(version)
        try:
            current = self.current_version()
        except RegistryError:
            current = None
        if current == version:
            return artifact
        self._write_pointer(version, previous=current)
        return artifact

    def rollback(self) -> Tuple[str, ModelArtifact]:
        """Flip ``CURRENT`` back to the previously-served version.

        Returns:
            ``(version, artifact)`` of the version rolled back to.

        Raises:
            RegistryError: if nothing is current or there is no history.
            ArtifactError: if the previous artifact is damaged (the pointer
                stays where it is).
        """
        record = self._read_pointer()
        if record is None:
            raise RegistryError(f"nothing has been promoted in {self.root} yet")
        previous = record.get("previous")
        if not isinstance(previous, str):
            raise RegistryError(
                f"no rollback history in {self.root}: {record['version']!r} "
                "is the only version ever promoted"
            )
        artifact = self.verify(previous)
        self._write_pointer(previous, previous=record["version"])
        return previous, artifact

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def load(self, version: str) -> ModelArtifact:
        """Alias of :meth:`verify` (loading *is* verifying)."""
        return self.verify(version)

    def load_current(self) -> Tuple[str, ModelArtifact]:
        """The current version name and its verified artifact.

        Raises:
            RegistryError: if nothing has been promoted yet.
        """
        version = self.current_version()
        if version is None:
            raise RegistryError(
                f"nothing has been promoted in {self.root} yet; run "
                "`repro registry promote <version>` first"
            )
        return version, self.verify(version)

    def entries(self) -> List[RegistryEntry]:
        """Every registered version, sorted by name, current one flagged."""
        current = None
        try:
            current = self.current_version()
        except RegistryError:
            pass  # a garbled pointer should not hide the version listing
        rows: List[RegistryEntry] = []
        if self.versions_dir.is_dir():
            for path in sorted(self.versions_dir.glob("*.json")):
                sha = ""
                try:
                    envelope = jsonfile.read(path)
                    if isinstance(envelope, dict):
                        sha = str(envelope.get("sha256") or "")
                except CorruptDocument:
                    sha = "<unreadable>"
                rows.append(
                    RegistryEntry(
                        version=path.stem,
                        path=path,
                        sha256=sha,
                        current=path.stem == current,
                    )
                )
        return rows

    def describe(self) -> dict:
        """JSON-ready summary (what ``repro registry list --json`` prints)."""
        try:
            record = self._read_pointer() or {}
        except RegistryError:
            record = {}  # a garbled pointer should not hide the listing
        previous = record.get("previous")
        return {
            "root": str(self.root),
            "current": record.get("version"),
            "previous": previous if isinstance(previous, str) else None,
            "versions": [entry.to_dict() for entry in self.entries()],
        }
