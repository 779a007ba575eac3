"""Fault-injection drill: a faulted campaign survives and heals.

Usage: python scripts/fault_drill_smoke.py

Runs the paper-profile analytic campaign on two workers in a fresh
temporary cache directory under three ``REPRO_FAULTS`` faults: a pair
that fails on every attempt (a permanent hole), an impact whose worker
dies on its first attempt (a retried crash), and a garbled write of the
calibration shard.  Asserts the campaign finishes with exactly the hole
and records the crash as a retried transient.  Then, faults off, a
reopened pipeline must quarantine the garbled shard, find exactly the
hole and the calibration pending, and heal both.  Exits non-zero on any
violation.
"""

import json
import os
import pathlib
import sys
import tempfile

from repro.core.experiments import PipelineSettings, ReproductionPipeline
from repro.parallel import RetryPolicy


def main() -> int:
    with tempfile.TemporaryDirectory() as cache:
        drill(cache)
    return 0


def drill(cache: str) -> None:
    plan = {
        "fail": {"analytic:pair/fftw/mcb": "*"},     # permanent hole
        "crash": {"analytic:impact/mcb": [1]},       # worker dies once
        "corrupt_shards": ["analytic_calibration"],  # shard garbled
    }
    os.environ["REPRO_FAULTS"] = json.dumps(plan)

    def pipeline():
        return ReproductionPipeline(
            settings=PipelineSettings(profile="paper", engine="analytic"),
            cache_path=cache,
            retry=RetryPolicy(max_attempts=2, backoff_base=0.0),
        )

    stats = pipeline().ensure_all(workers=2, failure_budget=1)
    assert stats["failed"] == 1, stats
    holes = [row["key"] for row in stats["failure_records"]]
    assert holes == ["analytic:pair/fftw/mcb"], holes
    report = json.loads(
        pathlib.Path(cache, "failure_report.json").read_text()
    )
    assert report["failure_count"] == 1
    assert any(
        row["category"] == "worker-crash" for row in report["transients"]
    ), "crash fault was not recorded as a retried transient"

    # Faults off: only the hole and the corrupt shard are recomputed.
    del os.environ["REPRO_FAULTS"]
    healed = pipeline()
    pending = set(healed.pending_keys())
    assert pending == {"analytic:pair/fftw/mcb", "analytic:calibration"}, pending
    assert healed._cache.quarantined, "corrupt shard was not quarantined"
    stats2 = healed.ensure_all(workers=2)
    assert stats2["failed"] == 0 and not healed.pending_keys()
    print(
        "OK: campaign survived injected fail/crash/corruption "
        f"and healed {len(pending)} product(s) on rerun"
    )


if __name__ == "__main__":
    sys.exit(main())
