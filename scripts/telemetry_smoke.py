"""Telemetry smoke: an instrumented campaign writes a valid telemetry report.

Usage: python scripts/telemetry_smoke.py CACHE_DIR

Runs the paper-profile analytic campaign on two workers with telemetry on
into CACHE_DIR, then checks ``telemetry.json``: its experiment count
equals the campaign's, it saw cache hits, it has the calibration and
measurement phases, and it converts to a non-empty Chrome trace, which is
written to ``CACHE_DIR/trace.json``.  Exits non-zero on any violation.
"""

import json
import pathlib
import sys

from repro import telemetry
from repro.core.experiments import PipelineSettings, ReproductionPipeline
from repro.telemetry.report import load_report, trace_from_report


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    cache = pathlib.Path(argv[0])
    telemetry.enable()
    pipeline = ReproductionPipeline(
        settings=PipelineSettings(profile="paper", engine="analytic"),
        cache_path=cache,
    )
    stats = pipeline.ensure_all(workers=2)
    assert stats["failed"] == 0, stats
    assert len(pipeline.measured_pairs()) == 36

    document = load_report(cache / "telemetry.json")
    counters = document["counters"]
    assert counters["pipeline.experiments_completed"] == stats["executed"] > 0
    assert counters["pipeline.cache_hits"] > 0, counters
    assert set(document["phases"]) >= {"calibration", "measurements"}

    trace = trace_from_report(document)
    assert trace["traceEvents"], "empty Chrome trace"
    (cache / "trace.json").write_text(json.dumps(trace))
    print(
        f"OK: telemetry.json covers {stats['executed']} experiments, "
        f"{counters['pipeline.cache_hits']:.0f} cache hits, "
        f"{len(trace['traceEvents'])} trace events"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
