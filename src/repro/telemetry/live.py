"""Live campaign watch: the ``telemetry.live.json`` file and its renderer.

``telemetry.json`` only materializes after a campaign exits; this module
gives a campaign a pulse while it runs.  The pipeline's ``ensure_all``
holds a :class:`LiveReporter` and calls :meth:`LiveReporter.publish` on
every landed task; the reporter throttles to one atomic rewrite of
``telemetry.live.json`` per ``interval`` seconds (:func:`repro.jsonfile.write_text`,
so a tailing reader never sees a torn document), with a final forced write
marked ``complete`` when the campaign finishes.

The document is self-contained: campaign progress and ETA per stage,
failure/retry counters, and the driver's merged metrics snapshot.  The
``repro top`` subcommand tails it and renders :func:`render_top` — task
throughput, retry/failure counters, and hot histogram percentiles — as a
refreshing terminal table.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional

from .. import jsonfile
from ..errors import CorruptDocument
from .metrics import histogram_percentile

__all__ = [
    "LIVE_REPORT_NAME",
    "LiveReporter",
    "load_live",
    "render_top",
]

#: File name of the live campaign document, next to the cache shards.
LIVE_REPORT_NAME = "telemetry.live.json"

_EMPTY_METRICS: Dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}}


class LiveReporter:
    """Throttled atomic publisher of the live campaign document.

    ``publish`` is cheap to call per landed task: unless ``force`` is set
    or ``interval`` seconds have passed since the last write, it returns
    immediately.  Writes never raise — a full disk must not kill the
    campaign it is observing.
    """

    def __init__(self, path: "Path | str", interval: float = 2.0) -> None:
        self.path = Path(path)
        self.interval = float(interval)
        self._last_write: Optional[float] = None

    def publish(
        self,
        progress: Mapping[str, object],
        metrics: "Optional[Mapping[str, object] | Callable[[], Mapping[str, object]]]" = None,
        *,
        complete: bool = False,
        force: bool = False,
    ) -> bool:
        """Maybe rewrite the live file; returns whether a write happened.

        ``metrics`` may be a snapshot or a zero-arg callable producing one;
        the callable is only invoked when a write actually happens, so the
        per-task cost of a throttled call stays a clock read.
        """
        now = time.monotonic()
        if (
            not force
            and not complete
            and self._last_write is not None
            and now - self._last_write < self.interval
        ):
            return False
        if callable(metrics):
            metrics = metrics()
        document = {
            "version": 1,
            "updated_at": time.time(),
            "complete": bool(complete),
            "progress": dict(progress),
            "metrics": dict(metrics) if metrics else dict(_EMPTY_METRICS),
        }
        try:
            jsonfile.write_text(self.path, json.dumps(document, sort_keys=True) + "\n")
        except OSError:
            return False
        self._last_write = now
        return True


def load_live(path: "Path | str") -> Optional[dict]:
    """Read a live document; ``None`` if absent or mid-replace unreadable."""
    try:
        return jsonfile.read(path)
    except CorruptDocument:
        return None


def _format_eta(seconds: Optional[float]) -> str:
    if seconds is None:
        return "--"
    seconds = max(0.0, float(seconds))
    if seconds < 60:
        return f"{seconds:.0f}s"
    minutes, secs = divmod(int(seconds), 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


def _format_quantity(value: float) -> str:
    if value == int(value) and abs(value) < 1e12:
        return str(int(value))
    return f"{value:.4g}"


def render_top(document: Mapping[str, object], *, now: Optional[float] = None) -> str:
    """Render one ``repro top`` frame from a live document (plain text)."""
    now = time.time() if now is None else now
    progress: Mapping[str, object] = document.get("progress", {})  # type: ignore[assignment]
    metrics: Mapping[str, object] = document.get("metrics", {})  # type: ignore[assignment]
    updated_at = float(document.get("updated_at", now))  # type: ignore[arg-type]
    age = max(0.0, now - updated_at)

    lines: List[str] = []
    state = "complete" if document.get("complete") else "in flight"
    stage = progress.get("stage", "?")
    lines.append(f"repro top — campaign {state} · stage {stage} · updated {age:.1f}s ago")

    done = int(progress.get("done", 0))  # type: ignore[arg-type]
    total = int(progress.get("total", 0))  # type: ignore[arg-type]
    elapsed = float(progress.get("elapsed", 0.0))  # type: ignore[arg-type]
    rate = done / elapsed if elapsed > 0 else 0.0
    pct = 100.0 * done / total if total else 0.0
    eta = progress.get("eta")
    lines.append(
        f"  tasks {done}/{total} ({pct:.1f}%) · {rate:.2f} tasks/s · "
        f"elapsed {_format_eta(elapsed)} · eta {_format_eta(eta)}"  # type: ignore[arg-type]
    )
    failed = int(progress.get("failed", 0))  # type: ignore[arg-type]
    retried = int(progress.get("retried", 0))  # type: ignore[arg-type]
    lines.append(f"  failures {failed} · retries {retried}")

    stages: List[Mapping[str, object]] = progress.get("stages", [])  # type: ignore[assignment]
    if stages:
        lines.append("")
        lines.append(f"  {'stage':<24} {'done':>8} {'total':>8} {'seconds':>9}")
        for entry in stages:
            lines.append(
                f"  {str(entry.get('stage', '?')):<24} "
                f"{int(entry.get('done', 0)):>8} "  # type: ignore[arg-type]
                f"{int(entry.get('total', 0)):>8} "  # type: ignore[arg-type]
                f"{float(entry.get('elapsed', 0.0)):>9.2f}"  # type: ignore[arg-type]
            )

    counters: Mapping[str, float] = metrics.get("counters", {})  # type: ignore[assignment]
    if counters:
        lines.append("")
        lines.append(f"  {'counter':<52} {'value':>12}")
        hot = sorted(counters.items(), key=lambda item: (-item[1], item[0]))[:10]
        for key, value in hot:
            lines.append(f"  {key[:52]:<52} {_format_quantity(float(value)):>12}")

    histograms: Mapping[str, Mapping[str, object]] = metrics.get("histograms", {})  # type: ignore[assignment]
    if histograms:
        lines.append("")
        lines.append(
            f"  {'histogram':<40} {'count':>8} {'mean':>10} {'p50':>10} {'p90':>10} {'p99':>10}"
        )
        hot_hists = sorted(
            histograms.items(),
            key=lambda item: (-int(item[1].get("count", 0)), item[0]),  # type: ignore[arg-type]
        )[:8]
        for key, state_doc in hot_hists:
            count = int(state_doc.get("count", 0))  # type: ignore[arg-type]
            total_sum = float(state_doc.get("sum", 0.0))  # type: ignore[arg-type]
            nonfinite = int(state_doc.get("buckets", {}).get("nonfinite", 0))  # type: ignore[union-attr]
            finite = max(0, count - nonfinite)
            mean = total_sum / finite if finite else 0.0
            cells = []
            for quantile in (0.5, 0.9, 0.99):
                estimate = histogram_percentile(state_doc, quantile)
                cells.append("--" if estimate is None else f"{estimate:.4g}")
            lines.append(
                f"  {key[:40]:<40} {count:>8} {mean:>10.4g} "
                f"{cells[0]:>10} {cells[1]:>10} {cells[2]:>10}"
            )
    return "\n".join(lines) + "\n"
