"""Cross-shard stats aggregation for the pre-forked serving fleet.

``SO_REUSEPORT`` sharding means a scrape of ``/metrics`` lands on *one*
shard chosen by the kernel — fine for liveness, useless for fleet totals.
This module closes that gap with a filesystem rendezvous: every shard
periodically publishes its own stats document to
``<stats_dir>/shard-<pid>.json`` atomically (:func:`repro.jsonfile.write_text`),
and any shard can answer ``GET /metrics/fleet`` by reading all documents,
dropping dead publishers (``kill -0`` liveness), and folding the metric
snapshots together with the PR 4 merge algebra
(:func:`repro.telemetry.merge_snapshots`) — which was designed to be
associative and commutative for exactly this.

A shard publishes on a timer *and* synchronously before answering
``/metrics/fleet`` or ``/healthz``, so the answering shard's own numbers
are always current and a quiesced fleet aggregates exactly: after load
stops, one ``/healthz`` poll per shard (each poll refreshes the answering
shard's file) followed by a single ``/metrics/fleet`` scrape yields
counters equal to the true fleet totals.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, List, Optional

from .. import jsonfile
from ..errors import CorruptDocument
from ..telemetry import merge_snapshots

__all__ = [
    "STATS_FILE_PREFIX",
    "STATS_FILE_SUFFIX",
    "fleet_document",
    "publish_stats",
    "read_shard_documents",
    "stats_path",
]

STATS_FILE_PREFIX = "shard-"
STATS_FILE_SUFFIX = ".json"

_EMPTY_METRICS: Dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}}


def stats_path(stats_dir: "Path | str", pid: Optional[int] = None) -> Path:
    """The per-pid stats file path inside ``stats_dir``."""
    pid = os.getpid() if pid is None else pid
    return Path(stats_dir) / f"{STATS_FILE_PREFIX}{pid}{STATS_FILE_SUFFIX}"


def publish_stats(stats_dir: "Path | str", document: dict) -> Optional[Path]:
    """Atomically write this process's stats document; ``None`` on failure.

    Publishing is observational: an unwritable stats dir degrades the
    fleet view, never the serving path, so all ``OSError`` is swallowed.
    """
    path = stats_path(stats_dir, int(document.get("pid") or os.getpid()))
    try:
        return jsonfile.write_text(path, json.dumps(document, sort_keys=True) + "\n")
    except OSError:
        return None


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - pid exists, not ours
        return True
    except OSError:  # pragma: no cover - e.g. platforms without kill
        return True
    return True


def read_shard_documents(stats_dir: "Path | str") -> List[dict]:
    """All live shards' stats documents, sorted by pid.

    Documents whose publisher is dead are skipped and their files pruned
    best-effort, so a restarted fleet does not double-count ghosts.
    Unreadable or torn files (impossible under ``os.replace``, but cheap to
    guard) are skipped silently.
    """
    directory = Path(stats_dir)
    documents: List[dict] = []
    try:
        entries = sorted(directory.iterdir())
    except OSError:
        return documents
    for entry in entries:
        name = entry.name
        if not (name.startswith(STATS_FILE_PREFIX) and name.endswith(STATS_FILE_SUFFIX)):
            continue
        try:
            document = jsonfile.read(entry)
        except CorruptDocument:
            continue
        if not isinstance(document, dict):
            continue
        pid = document.get("pid")
        if not isinstance(pid, int) or not _pid_alive(pid):
            try:
                entry.unlink()
            except OSError:
                pass
            continue
        documents.append(document)
    documents.sort(key=lambda doc: doc.get("pid", 0))
    return documents


def fleet_document(shard_documents: List[dict]) -> dict:
    """Fold per-shard stats documents into one fleet view.

    Metric snapshots merge with the snapshot algebra; per-shard summaries
    (pid, version, request tally, reload state) ride along so a promotion
    can be watched flipping shard-by-shard.
    """
    merged: dict = dict(_EMPTY_METRICS)
    shards: List[dict] = []
    requests_served = 0
    for document in shard_documents:
        shards.append(
            {
                "pid": document.get("pid"),
                "version": document.get("version"),
                "shard_requests_served": document.get("shard_requests_served", 0),
                "reloads": document.get("reloads", 0),
                "reload_failures": document.get("reload_failures", 0),
                "last_reload_error": document.get("last_reload_error"),
                "updated_at": document.get("updated_at"),
            }
        )
        requests_served += int(document.get("shard_requests_served", 0))
        metrics = document.get("metrics")
        if metrics:
            merged = merge_snapshots(merged, metrics)
    return {
        "generated_at": time.time(),
        "shards": shards,
        "shard_count": len(shards),
        "requests_served": requests_served,
        "metrics": merged,
    }
