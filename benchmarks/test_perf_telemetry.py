"""Telemetry overhead benchmark on the analytic paper campaign.

Runs the full paper catalog through the analytic engine twice — dark and
with the whole observability stack enabled (metrics + spans, structured
JSON-lines logging to a file, and the throttled ``telemetry.live.json``
publisher) — from a cold cache each time, takes the best of three repeats
per mode, and asserts that observing the campaign costs at most 5% of its
wall time.  The measurement lands in ``BENCH_telemetry.json`` in the
artifact directory so CI runs can be compared over time.
"""

import json
import tempfile
import time
from pathlib import Path

from repro import telemetry
from repro.core.experiments import PipelineSettings, ReproductionPipeline
from repro.telemetry import logs
from repro.telemetry.live import LIVE_REPORT_NAME, load_live

REPEATS = 3


def _campaign_seconds(enable: bool) -> float:
    """Wall time of one cold analytic paper campaign.

    ``enable`` switches the full observability stack, not just metrics:
    structured logging appends to a scratch file and the pipeline's
    LiveReporter rewrites ``telemetry.live.json`` alongside the cache.
    """
    telemetry.disable()
    telemetry.reset()
    with tempfile.TemporaryDirectory() as scratch:
        cache = Path(scratch) / "cache"
        logs.configure(str(Path(scratch) / "events.jsonl") if enable else None)
        if enable:
            telemetry.enable()
        try:
            pipeline = ReproductionPipeline(
                settings=PipelineSettings(profile="paper", engine="analytic"),
                cache_path=cache,
            )
            start = time.perf_counter()
            stats = pipeline.ensure_all(workers=1)
            elapsed = time.perf_counter() - start
        finally:
            logs.configure(None)
        if enable:
            # The live document must exist and carry the final frame.
            live = load_live(cache / LIVE_REPORT_NAME)
            assert live is not None and live["complete"] is True
    telemetry.disable()
    telemetry.reset()
    assert stats["failed"] == 0
    return elapsed


def test_perf_telemetry_overhead(artifact_dir):
    dark = min(_campaign_seconds(False) for _ in range(REPEATS))
    instrumented = min(_campaign_seconds(True) for _ in range(REPEATS))

    delta = instrumented - dark
    overhead = delta / dark if dark > 0 else 0.0
    # ≤5% of campaign wall, with a small absolute floor so scheduler jitter
    # on a sub-second campaign can't fail the run.
    assert delta <= max(0.05 * dark, 0.1), (
        f"observability overhead {overhead:.1%} ({delta:.3f}s on {dark:.3f}s)"
    )

    payload = {
        "engine": "analytic",
        "profile": "paper",
        "repeats": REPEATS,
        "instruments": ["metrics", "spans", "structured_logs", "live_snapshots"],
        "dark_seconds": round(dark, 4),
        "instrumented_seconds": round(instrumented, 4),
        "overhead_seconds": round(delta, 4),
        "overhead_fraction": round(overhead, 4),
    }
    path = artifact_dir / "BENCH_telemetry.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"\nobservability overhead {overhead:+.1%} "
        f"({dark:.3f}s dark → {instrumented:.3f}s instrumented, "
        "logs + live snapshots included)\n"
        f"[artifact saved to {path}]"
    )
