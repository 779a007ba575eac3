"""The campaign telemetry report: build, persist, load, render.

Every telemetry-enabled ``ensure_products`` call (``ensure_all`` and each
planned round) writes one ``telemetry.json`` next to
``failure_report.json``: the campaign summary (engine, profile, workers,
elapsed, failures), the merged metrics snapshot (driver plus all
workers), the span records and their per-name summary, and wall/CPU per
dependency phase.  The ``repro telemetry`` CLI subcommand renders the
document as a human table or converts its spans into a Chrome trace.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Mapping, Optional

from .. import jsonfile
from ..errors import CorruptDocument
from .spans import chrome_trace, span_summary

__all__ = [
    "TELEMETRY_REPORT_NAME",
    "TELEMETRY_VERSION",
    "build_report",
    "write_report",
    "load_report",
    "render_report",
    "trace_from_report",
]

#: File written into the cache/results directory (reserved: never a shard).
TELEMETRY_REPORT_NAME = "telemetry.json"

#: Document format version.
TELEMETRY_VERSION = 1


def build_report(
    metrics_snapshot: Mapping[str, object],
    span_records: List[dict],
    phases: Optional[Mapping[str, Mapping[str, float]]] = None,
    campaign: Optional[Mapping[str, object]] = None,
) -> dict:
    """Assemble the ``telemetry.json`` document (pure, JSON-ready)."""
    return {
        "version": TELEMETRY_VERSION,
        "campaign": dict(campaign) if campaign else {},
        "phases": {name: dict(values) for name, values in (phases or {}).items()},
        "counters": dict(metrics_snapshot.get("counters", {})),  # type: ignore[arg-type]
        "gauges": dict(metrics_snapshot.get("gauges", {})),  # type: ignore[arg-type]
        "histograms": dict(metrics_snapshot.get("histograms", {})),  # type: ignore[arg-type]
        "spans": {
            "count": len(span_records),
            "by_name": span_summary(span_records),
            "records": span_records,
        },
    }


def write_report(path: Path, document: Mapping[str, object]) -> Path:
    """Write the document as indented JSON (trailing newline, UTF-8), atomically."""
    return jsonfile.write_text(path, json.dumps(document, indent=2, sort_keys=True) + "\n")


def load_report(path: Path) -> dict:
    """Read a ``telemetry.json`` back.

    Raises:
        CorruptDocument: if the file is missing, unreadable, or not a
            telemetry report.
    """
    document = jsonfile.read(path)
    if not isinstance(document, dict) or "version" not in document:
        raise CorruptDocument(f"{path} is not a telemetry report")
    return document


def trace_from_report(document: Mapping[str, object]) -> dict:
    """Chrome ``trace_event`` JSON from a loaded report's span records."""
    records = document.get("spans", {}).get("records", [])  # type: ignore[union-attr]
    return chrome_trace(records)


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return f"{int(value):,}"
    return f"{value:.6g}"


def render_report(document: Mapping[str, object]) -> str:
    """Human-readable table of a telemetry report."""
    lines: List[str] = []
    campaign: Dict[str, object] = dict(document.get("campaign", {}))  # type: ignore[arg-type]
    if campaign:
        head = " · ".join(
            f"{key}={campaign[key]}"
            for key in ("engine", "profile", "workers", "elapsed")
            if key in campaign
        )
        lines.append(f"campaign: {head}")
    phases: Dict[str, Mapping[str, float]] = dict(document.get("phases", {}))  # type: ignore[arg-type]
    if phases:
        lines.append("phases:")
        for name, values in phases.items():
            wall = values.get("wall", 0.0)
            cpu = values.get("cpu", 0.0)
            lines.append(f"  {name:24s} wall {wall:8.3f}s  cpu {cpu:8.3f}s")
    counters: Dict[str, float] = dict(document.get("counters", {}))  # type: ignore[arg-type]
    if counters:
        lines.append("counters:")
        for key in sorted(counters):
            lines.append(f"  {key:48s} {_format_value(counters[key]):>14s}")
    gauges: Dict[str, float] = dict(document.get("gauges", {}))  # type: ignore[arg-type]
    if gauges:
        lines.append("gauges:")
        for key in sorted(gauges):
            lines.append(f"  {key:48s} {_format_value(gauges[key]):>14s}")
    histograms: Dict[str, dict] = dict(document.get("histograms", {}))  # type: ignore[arg-type]
    if histograms:
        lines.append("histograms:")
        for key in sorted(histograms):
            state = histograms[key]
            count = int(state.get("count", 0))
            mean = float(state.get("sum", 0.0)) / count if count else 0.0
            lines.append(
                f"  {key:48s} n={count:<8d} mean={mean:.6g} "
                f"min={state.get('min')} max={state.get('max')}"
            )
    spans: Dict[str, object] = dict(document.get("spans", {}))  # type: ignore[arg-type]
    by_name: Dict[str, dict] = dict(spans.get("by_name", {}))  # type: ignore[arg-type]
    if by_name:
        lines.append(f"spans ({spans.get('count', 0)} total):")
        ordered = sorted(by_name.items(), key=lambda kv: -kv[1]["total_s"])
        for name, entry in ordered:
            lines.append(
                f"  {name:48s} n={entry['count']:<6d} "
                f"total {entry['total_s']:9.3f}s  max {entry['max_s']:8.3f}s"
            )
    return "\n".join(lines) if lines else "(empty telemetry report)"
