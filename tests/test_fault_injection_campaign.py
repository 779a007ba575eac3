"""End-to-end fault-injection acceptance test.

One analytic campaign (all 6 apps → 36 co-run pairs) runs with three faults
injected through ``REPRO_FAULTS`` — a permanently poisoned pair experiment,
an impact experiment that hangs past the task timeout on its first attempt,
and a corrupted calibration shard — and must still complete end to end,
reporting exactly the injected damage.  A faults-disabled rerun then
backfills the holes from the intact shards and converges bit-for-bit to a
clean reference campaign.
"""

import json

import pytest

from repro.cluster import small_test_config
from repro.core.experiments import PipelineSettings, ReproductionPipeline
from repro.faults import ENV_VAR, set_fault_plan
from repro.parallel import RetryPolicy
from repro.units import MS

POISONED_PAIR = "analytic:pair/fftw/mcb"
HUNG_IMPACT = "analytic:impact/mcb"
CORRUPTED_SHARD = "analytic_calibration"  # written exactly once per campaign

FAULT_PLAN = {
    "fail": {POISONED_PAIR: "*"},  # every attempt: a permanent hole
    "hang": {HUNG_IMPACT: [1]},  # first attempt only: killed, then retried
    "hang_seconds": 60.0,
    "corrupt_shards": [CORRUPTED_SHARD],
}


@pytest.fixture(autouse=True)
def _clean_fault_state(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    set_fault_plan(None)
    yield
    set_fault_plan(None)


def _pipeline(cache_path, **kwargs):
    return ReproductionPipeline(
        settings=PipelineSettings(
            profile="quick",
            seed=0,
            impact_duration=0.01,
            signature_duration=0.01,
            calibration_duration=0.02,
            probe_interval=0.1 * MS,
            engine="analytic",
        ),
        machine_config=small_test_config(seed=0),
        cache_path=cache_path,
        **kwargs,
    )


def _signature(pipeline):
    return json.dumps(pipeline._cache.snapshot(), sort_keys=True)


def test_faulted_campaign_survives_and_heals(tmp_path, monkeypatch):
    # Clean reference: what the campaign must eventually converge to.
    reference = _pipeline(tmp_path / "clean")
    assert reference.ensure_all(workers=2)["failed"] == 0
    assert len([k for k in reference.product_keys() if ":pair/" in k]) == 36

    # --- Campaign 1: all three faults active (workers inherit the env) ---
    monkeypatch.setenv(ENV_VAR, json.dumps(FAULT_PLAN))
    faulted = _pipeline(
        tmp_path / "faulted",
        retry=RetryPolicy(max_attempts=2, timeout=2.0),
        failure_budget=1,
    )
    stats = faulted.ensure_all(workers=2)

    # It finished end to end, with exactly the poisoned pair as a hole.
    assert stats["failed"] == 1
    assert [row["key"] for row in stats["failure_records"]] == [POISONED_PAIR]
    assert stats["failure_records"][0]["category"] == "exception"
    assert stats["failure_records"][0]["attempts"] == 2
    assert stats["executed"] == stats["total"] - 1

    # The hang was killed at the timeout and healed by its retry.
    report = json.loads(
        (tmp_path / "faulted" / "failure_report.json").read_text()
    )
    assert report["failure_count"] == 1
    assert report["failures"][0]["key"] == POISONED_PAIR
    timeouts = [
        row for row in report["transients"] if row["category"] == "timeout"
    ]
    assert [row["key"] for row in timeouts] == [HUNG_IMPACT]
    assert HUNG_IMPACT not in {row["key"] for row in report["failures"]}

    # The corruption really reached the disk: the calibration shard no
    # longer parses as a healthy checksummed document.
    shard = tmp_path / "faulted" / f"{CORRUPTED_SHARD}.json"
    try:
        healthy = json.loads(shard.read_text()).get("__shard_format__") == 2
    except json.JSONDecodeError:
        healthy = False
    assert not healthy

    # --- Campaign 2: faults disabled; backfill from the intact shards ---
    monkeypatch.delenv(ENV_VAR)
    healed = _pipeline(tmp_path / "faulted")
    pending = set(healed.pending_keys())
    # Exactly the damage is pending: the hole plus the quarantined shard.
    assert pending == {POISONED_PAIR, "analytic:calibration"}
    assert [p.name for p in healed._cache.quarantined] == [
        f"{CORRUPTED_SHARD}.json.corrupt"
    ]

    stats2 = healed.ensure_all(workers=2)
    assert stats2["failed"] == 0
    assert stats2["executed"] == 2
    assert healed.pending_keys() == []
    assert _signature(healed) == _signature(reference)

    # The healed cache's failure report is clean again.
    report2 = json.loads(
        (tmp_path / "faulted" / "failure_report.json").read_text()
    )
    assert report2["failure_count"] == 0
    assert report2["quarantined_shards"] == [
        str(tmp_path / "faulted" / f"{CORRUPTED_SHARD}.json.corrupt")
    ]
