"""Analytic smoke: the full paper campaign on the analytic engine.

Usage:
    python scripts/analytic_smoke.py campaign CACHE_DIR
    python scripts/analytic_smoke.py namespaced CACHE_DIR

``campaign`` runs (or resumes) the paper-profile analytic campaign on one
worker into CACHE_DIR and checks that every product executed, that all 36
pairs are measured, that it took under a minute, and that every model has
prediction errors.  ``namespaced`` checks that every shard in CACHE_DIR
carries the analytic engine's prefix, so analytic products never collide
with sim shards.  Exits non-zero on any violation.
"""

import pathlib
import sys
import time

from repro.core.experiments import PipelineSettings, ReproductionPipeline
from repro.core.experiments.cache import RESERVED_FILES


def check_campaign(cache: str) -> None:
    start = time.time()
    pipeline = ReproductionPipeline(
        settings=PipelineSettings(profile="paper", engine="analytic"),
        cache_path=cache,
        workers=1,
    )
    stats = pipeline.ensure_all(workers=1)
    elapsed = time.time() - start
    assert stats["executed"] == stats["total"], stats
    pairs = pipeline.measured_pairs()
    assert len(pairs) == 36, f"expected 36 pairs, got {len(pairs)}"
    assert elapsed < 60, f"analytic campaign took {elapsed:.1f}s"
    errors = pipeline.prediction_errors()
    assert all(table for table in errors.values())
    print(
        f"OK: {stats['total']} analytic products ({len(pairs)} pairs) "
        f"in {elapsed:.1f}s"
    )


def check_namespaced(cache: str) -> None:
    shards = sorted(
        p.name for p in pathlib.Path(cache).glob("*.json")
        if p.name not in RESERVED_FILES
    )
    assert shards and all(s.startswith("analytic_") for s in shards), shards
    print(f"OK: analytic shards namespaced: {', '.join(shards)}")


CHECKS = {"campaign": check_campaign, "namespaced": check_namespaced}


def main(argv) -> int:
    if len(argv) != 2 or argv[0] not in CHECKS:
        print(__doc__, file=sys.stderr)
        return 2
    CHECKS[argv[0]](argv[1])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
