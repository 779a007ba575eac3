"""Crash-safe, integrity-checked sharded experiment cache.

Campaign products are grouped by the first segment of their cache key
(``degradation/fftw/P1M1B2.5e6`` → group ``degradation``); each group lives
in its own JSON shard ``<directory>/<group>.json``, rewritten atomically
by :func:`repro.jsonfile.write_text`.  ``put(key, value)`` rewrites the key's shard
at once.  ``put(key, value, flush=False)`` instead appends one checksummed
line, ``<sha256> <json [key, value]>``, to ``<directory>/journal.jsonl`` in
a single flushed write, and :meth:`ShardedCache.flush` later rewrites each
dirty shard once and deletes the journal.  A campaign journals every
product as it lands and flushes at the end of each stage, so each shard is
written once per stage rather than once per product, and a crashed or
interrupted campaign still keeps every product that finished: the next
load replays the journal's verified lines, drops a torn or corrupt one
(its product is simply pending again), and compacts the journal into the
shards.

The cache trusts nothing it reads back.  Shards are written with a SHA-256
checksum over their canonical payload; on load, a shard that is truncated,
unparseable, or fails its checksum is **quarantined** — renamed aside to
``<group>.json.corrupt`` (never silently deleted, never raised as a parse
error) — and its keys simply become pending again, so the next
campaign recomputes exactly the quarantined products.  Stale ``*.tmp`` files
leaked by a crash before a write's rename are swept on load.

A legacy monolithic cache (the old single ``paper_cache.json``) migrates on
first load: keys absent from the shards are imported and their shards
written out immediately.  Pre-checksum shards (a bare JSON object of
products) load as-is and are upgraded to the checksummed format on their
next write.  The legacy file itself is left untouched so the migration is
safe to interrupt and re-run.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set

from ... import jsonfile
from ...errors import CorruptDocument
from ...faults import active_fault_plan
from ...telemetry.live import LIVE_REPORT_NAME
from ...telemetry.report import TELEMETRY_REPORT_NAME

__all__ = ["ShardedCache", "group_of", "SHARD_FORMAT", "JOURNAL_NAME"]

_SAFE_GROUP = re.compile(r"[^A-Za-z0-9_.-]")

#: Longest group name: its shard and quarantine names stay far below the
#: 255-byte file-name limit whatever key a legacy file or journal holds.
_MAX_GROUP = 100

#: Current on-disk shard format version.
SHARD_FORMAT = 2

#: Name of the machine-readable failure report written into the cache
#: directory by every campaign call.
FAILURE_REPORT_NAME = "failure_report.json"

#: Append-only log of products stored with ``put(..., flush=False)`` and
#: not yet written into their shards.
JOURNAL_NAME = "journal.jsonl"

#: Files inside the cache directory that are not shards (never loaded,
#: never quarantined): the failure report and the telemetry reports.
RESERVED_FILES = frozenset({FAILURE_REPORT_NAME, TELEMETRY_REPORT_NAME, LIVE_REPORT_NAME})


def group_of(key: str) -> str:
    """Shard group of a cache key: its first ``/``-separated segment,
    made file-name safe and cut to ``_MAX_GROUP`` characters."""
    return _SAFE_GROUP.sub("_", key.split("/", 1)[0])[:_MAX_GROUP]


def _read_object(path: Path) -> Optional[Dict[str, object]]:
    """The JSON object in ``path``; ``None`` if it is unreadable or not an object."""
    try:
        document = jsonfile.read(path)
    except CorruptDocument:
        return None
    return document if isinstance(document, dict) else None


class ShardedCache:
    """A string-keyed store of JSON-serializable values, sharded on disk.

    Args:
        directory: shard directory (created lazily on first write).  ``None``
            makes the cache memory-only — lookups and stores work, flushing
            is a no-op.
        legacy_path: optional monolithic JSON cache to migrate from on load.

    Attributes:
        quarantined: shard files set aside by the last load because they
            were corrupt or truncated (empty on a healthy cache).
    """

    def __init__(
        self,
        directory: Optional[str | Path] = None,
        legacy_path: Optional[str | Path] = None,
    ) -> None:
        self.directory = Path(directory) if directory is not None else None
        self.legacy_path = Path(legacy_path) if legacy_path is not None else None
        self._data: Dict[str, object] = {}
        self._groups: Dict[str, Set[str]] = {}  # group -> its keys
        self._dirty: Set[str] = set()
        self._journaled = False  # the journal may hold lines flush() must fold in
        self.quarantined: List[Path] = []
        self._load()

    # ------------------------------------------------------------------
    # Loading, integrity checking & migration
    # ------------------------------------------------------------------
    def _load(self) -> None:
        if self.directory is not None and self.directory.is_dir():
            self._sweep_stale_temp_files()
            for shard in sorted(self.directory.glob("*.json")):
                if shard.name in RESERVED_FILES:
                    continue
                products = self._read_shard(shard)
                if products is None:
                    self.quarantined.append(self._quarantine(shard))
                else:
                    self._data.update(products)
                    for key in products:
                        self._index(key)
            if self.journal_path.is_file():
                self._replay(self.journal_path)
                self._journaled = True
        if self.legacy_path is not None and self.legacy_path.is_file():
            legacy = _read_object(self.legacy_path) or {}
            fresh = {key: value for key, value in legacy.items() if key not in self._data}
            self._data.update(fresh)
            self._dirty.update(self._index(key) for key in fresh)
        self.flush()  # compaction: replayed and migrated products into shards

    def _sweep_stale_temp_files(self) -> None:
        """Remove ``*.tmp`` orphans left by a crash mid-``_write_shard``.

        An interrupted write never reached ``os.replace``, so the temp file
        holds at best a duplicate of data that was re-derived anyway; left
        alone they would accumulate forever.
        """
        assert self.directory is not None
        for stale in self.directory.glob("*.tmp"):
            try:
                stale.unlink()
            except OSError:  # pragma: no cover - raced by another process
                pass

    @staticmethod
    def _read_shard(path: Path) -> Optional[Dict[str, object]]:
        """Parse and verify one shard; ``None`` means corrupt (quarantine it).

        Accepts both the checksummed v2 envelope and pre-checksum bare
        product mappings (format 1).
        """
        document = _read_object(path)
        if document is None:
            return None
        if "__shard_format__" not in document:
            return document  # format 1: a bare product mapping, no checksum
        products = document.get("products")
        recorded = document.get("sha256")
        if not isinstance(products, dict) or not isinstance(recorded, str):
            return None
        if jsonfile.seal(json.dumps(products, sort_keys=True)) != recorded:
            return None
        return products

    def _quarantine(self, shard: Path) -> Path:
        """Rename a corrupt shard aside so its keys recompute cleanly.

        The payload is preserved (``<name>.corrupt``, numbered on clashes)
        for post-mortems; only the ``.json`` name is freed so the next flush
        writes a clean shard.
        """
        target = shard.with_name(shard.name + ".corrupt")
        serial = 1
        while target.exists():
            target = shard.with_name(f"{shard.name}.corrupt{serial}")
            serial += 1
        os.replace(shard, target)
        return target

    def _replay(self, journal: Path) -> None:
        """Apply the journal's verified lines in order; skip the rest.

        A line is ``<sha256> <json [key, value]>``.  A torn last line (a
        crash mid-write) or any line whose checksum or shape is wrong is
        dropped, so its product is pending again.
        """
        for line in journal.read_bytes().split(b"\n"):
            recorded, _, text = line.partition(b" ")
            if jsonfile.seal(text).encode() != recorded:
                continue
            try:
                record = jsonfile.parse(text)
            except CorruptDocument:
                continue
            if isinstance(record, list) and len(record) == 2 and isinstance(record[0], str):
                key, value = record
                self._data[key] = value
                self._dirty.add(self._index(key))

    # ------------------------------------------------------------------
    # Mapping interface
    # ------------------------------------------------------------------
    def __contains__(self, key: str) -> bool:
        return key in self._data

    def __getitem__(self, key: str) -> object:
        return self._data[key]

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[str]:
        return iter(self._data)

    def get(self, key: str, default: object = None) -> object:
        return self._data.get(key, default)

    def keys(self) -> List[str]:
        return list(self._data)

    def snapshot(self) -> Dict[str, object]:
        """A shallow copy of every key/value pair (for equivalence checks)."""
        return dict(self._data)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def put(self, key: str, value: object, flush: bool = True) -> None:
        """Store ``value`` and make it durable.

        By default the key's shard is rewritten atomically at once (with
        every other dirty shard, which empties the journal).  With
        ``flush=False`` the product is appended to the journal instead, one
        line in one flushed write, and its shard waits for :meth:`flush`.
        """
        self._data[key] = value
        self._dirty.add(self._index(key))
        if flush:
            self.flush()
        elif self.directory is not None:
            record = json.dumps([key, value], sort_keys=True)
            if not self._journaled:
                self.directory.mkdir(parents=True, exist_ok=True)
            with open(self.journal_path, "ab") as journal:
                journal.write(f"{jsonfile.seal(record)} {record}\n".encode("utf-8"))
            self._journaled = True

    def _index(self, key: str) -> str:
        """Record ``key`` under its shard group and return the group."""
        group = group_of(key)
        self._groups.setdefault(group, set()).add(key)
        return group

    def flush(self) -> None:
        """Rewrite each dirty shard once, then delete the journal."""
        if self.directory is None:
            return
        for group in sorted(self._dirty):
            self._write_shard(group)
        self._dirty.clear()
        if self._journaled:  # every line it holds is in a shard now
            self.journal_path.unlink(missing_ok=True)
            self._journaled = False

    def _write_shard(self, group: str) -> None:
        assert self.directory is not None
        payload = {key: self._data[key] for key in self._groups[group]}
        # sort_keys makes the shard *byte*-deterministic: results land in
        # completion order, which varies with worker count, but the file on
        # disk must not.  The envelope's keys sort as __shard_format__ <
        # products < sha256, so this text is exactly
        # json.dumps(document, sort_keys=True), with the payload encoded once.
        payload_text = json.dumps(payload, sort_keys=True)
        text = (
            f'{{"__shard_format__": {SHARD_FORMAT}, "products": {payload_text}, '
            f'"sha256": "{jsonfile.seal(payload_text)}"}}'
        )
        jsonfile.write_text(self.shard_path(group), text)
        plan = active_fault_plan()
        if plan is not None and plan.take_shard_corruption(group):
            # Injected fault: garble the shard *after* a clean write, exactly
            # what a torn page / partial disk flush leaves behind.
            path = self.shard_path(group)
            raw = path.read_bytes()
            path.write_bytes(raw[: max(1, len(raw) // 2)])

    @property
    def journal_path(self) -> Path:
        """Path of the journal of products not yet in their shards."""
        if self.directory is None:
            raise ValueError("memory-only cache has no journal")
        return self.directory / JOURNAL_NAME

    def shard_path(self, group: str) -> Path:
        """Path of one group's shard file."""
        if self.directory is None:
            raise ValueError("memory-only cache has no shard paths")
        return self.directory / f"{group}.json"

    def groups(self) -> Set[str]:
        """Shard groups currently holding at least one key."""
        return set(self._groups)
