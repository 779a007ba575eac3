"""How a JSON document reaches disk, and which failures of its bytes mean corrupt.

Every file the program keeps (cache shards, campaign reports, the live
document, fleet stats, artifacts and the registry pointer) is written by
:func:`write_text` and read back by :func:`read`, or by :func:`parse` for
bytes already in memory.  Callers keep their own encoding (indent,
``sort_keys``, trailing newline), so each file's bytes are theirs.

* :func:`write_text` writes a temp file beside the target
  (``<name>.<random>.tmp``; a cache's load sweeps ``*.tmp``) created with
  mode ``0o666``, so the umask applies as for a plain ``open``, then
  renames it over the target: a reader, a crash or a write cut short
  leaves the whole old file or the whole new one.  ``durable=True`` also
  fsyncs the file and its directory (artifacts and the registry pointer).
* :func:`read` and :func:`parse` raise one
  :class:`~repro.errors.CorruptDocument` for an unreadable file,
  undecodable text, bad JSON, an integer past the interpreter's digit
  limit and nesting past its recursion limit.
* :func:`seal` is the SHA-256 checksum of shard payloads, journal lines
  and artifact payloads.
"""

from __future__ import annotations

import hashlib
import json
import os
import secrets
from pathlib import Path

from .errors import CorruptDocument

__all__ = ["parse", "read", "seal", "write_text"]


def seal(text: str | bytes) -> str:
    """SHA-256 hex digest of ``text`` (UTF-8 encoded when a ``str``)."""
    return hashlib.sha256(text.encode("utf-8") if isinstance(text, str) else text).hexdigest()


def parse(text: str | bytes, name: str = "document") -> object:
    """Decode untrusted JSON ``text``; ``name`` labels the error message."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: text, JSON, digits
        raise CorruptDocument(f"{name} is not valid JSON: {exc}") from exc


def read(path: str | Path, name: str | None = None) -> object:
    """Read and decode the JSON file at ``path`` (``name`` labels errors)."""
    name = name or str(path)
    try:
        raw = Path(path).read_bytes()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise CorruptDocument(f"cannot read {name}: {exc}") from exc
    return parse(raw, f"{name} (truncated or corrupt)")


def write_text(path: str | Path, text: str, *, durable: bool = False) -> Path:
    """Replace the file at ``path`` with ``text`` (UTF-8) in one rename.

    Creates the parent directory.  On any failure the temp file is removed
    and the previous file at ``path`` is untouched.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    while True:
        temp = path.with_name(f"{path.name}.{secrets.token_hex(4)}.tmp")
        try:
            handle = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:  # pragma: no cover - a 32-bit name collision
            continue
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as stream:
            stream.write(text)
            if durable:
                stream.flush()
                os.fsync(stream.fileno())
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
    if durable:
        directory = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)
    return path
