"""End-to-end telemetry: metrics registry, span tracing, campaign reports.

The paper's argument is that the right measurements predict application
behaviour; this subsystem applies the same discipline to the reproduction
stack itself.  Every layer — the sim kernel, the engines, the parallel
runner, the pipeline — records into one process-local
:class:`~repro.telemetry.metrics.MetricsRegistry` and one
:class:`~repro.telemetry.spans.SpanTracer`, both exposed here as
process-wide singletons behind a single cheap on/off switch.

Telemetry is **off by default** and purely observational: enabling it
never touches an RNG stream, a product value, or a cache shard, so
campaign results are bit-identical with and without it.  Overhead when off
is one boolean check per instrumentation site; when on, instrumentation
happens at run/solve/task granularity, never inside the kernel's per-event
hot loop.

Enablement:

* programmatic — :func:`enable` / :func:`disable` (what the CLI's
  ``--telemetry`` / ``--no-telemetry`` flags call); a campaign writes its
  ``telemetry.json`` and ``telemetry.live.json`` if and only if the
  switch is on;
* environment — ``REPRO_TELEMETRY=1`` turns it on at import time (and is
  how spawned pool workers can inherit the setting; forked workers inherit
  the flag directly, and the task protocol re-enables explicitly either
  way).

Worker processes accumulate into their own registry/tracer copies; the
parallel runner resets them per task, snapshots the delta, and ships it
back in the result envelope for the driver to :func:`merge_worker`.
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from typing import ContextManager, List, Mapping, Optional

from .metrics import (
    MetricsRegistry,
    MetricsSnapshot,
    histogram_percentile,
    merge_snapshots,
    parse_key,
    serialize_key,
)
from .exposition import (
    PROMETHEUS_CONTENT_TYPE,
    lint_exposition,
    parse_exposition,
    render_prometheus,
)
from .spans import SpanTracer, chrome_trace, span_summary
from .live import LIVE_REPORT_NAME, LiveReporter, load_live, render_top
from . import logs
from .report import (
    TELEMETRY_REPORT_NAME,
    build_report,
    load_report,
    render_report,
    trace_from_report,
    write_report,
)

__all__ = [
    "MetricsRegistry",
    "MetricsSnapshot",
    "SpanTracer",
    "merge_snapshots",
    "parse_key",
    "serialize_key",
    "histogram_percentile",
    "PROMETHEUS_CONTENT_TYPE",
    "lint_exposition",
    "parse_exposition",
    "render_prometheus",
    "chrome_trace",
    "span_summary",
    "logs",
    "LIVE_REPORT_NAME",
    "LiveReporter",
    "load_live",
    "render_top",
    "TELEMETRY_REPORT_NAME",
    "build_report",
    "load_report",
    "render_report",
    "trace_from_report",
    "write_report",
    "ENV_VAR",
    "enabled",
    "enable",
    "disable",
    "registry",
    "tracer",
    "span",
    "snapshot",
    "merge_worker",
    "reset",
]

#: Environment switch: any value other than ""/"0" enables telemetry.
ENV_VAR = "REPRO_TELEMETRY"

_registry = MetricsRegistry()
_tracer = SpanTracer()
_enabled = os.environ.get(ENV_VAR, "") not in ("", "0")


def enabled() -> bool:
    """Whether telemetry is currently being collected in this process."""
    return _enabled


def enable() -> None:
    """Turn collection on (idempotent; existing data is kept)."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn collection off (idempotent; existing data is kept)."""
    global _enabled
    _enabled = False


def registry() -> MetricsRegistry:
    """The process-wide metrics registry (collects only while enabled)."""
    return _registry


def tracer() -> SpanTracer:
    """The process-wide span tracer (collects only while enabled)."""
    return _tracer


def span(name: str, category: str = "repro", **args: object) -> ContextManager[None]:
    """Context manager timing a block as one span; no-op when disabled.

    The disabled path costs one boolean check and a shared
    ``nullcontext`` — safe to leave in warm-ish code.
    """
    if not _enabled:
        return nullcontext()
    return _tracer.span(name, category, **args)


def snapshot() -> dict:
    """Picklable delta of this process's telemetry: metrics + spans."""
    return {"metrics": _registry.snapshot(), "spans": _tracer.snapshot()}


def merge_worker(payload: Optional[Mapping[str, object]]) -> None:
    """Fold one worker's :func:`snapshot` payload into this process."""
    if not payload:
        return
    metrics = payload.get("metrics")
    if metrics:
        _registry.merge(metrics)  # type: ignore[arg-type]
    spans: List[dict] = payload.get("spans") or []  # type: ignore[assignment]
    if spans:
        _tracer.merge(spans)


def reset() -> None:
    """Clear all collected metrics and spans (enablement is unchanged)."""
    _registry.reset()
    _tracer.reset()
