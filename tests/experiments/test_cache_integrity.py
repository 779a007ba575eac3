"""Integrity tests for the checksummed, quarantining ShardedCache."""

import hashlib
import json

import pytest

from repro.core.experiments.cache import FAILURE_REPORT_NAME, ShardedCache, group_of
from repro.faults import FaultPlan, set_fault_plan
from repro.telemetry.live import LIVE_REPORT_NAME
from repro.telemetry.report import TELEMETRY_REPORT_NAME


@pytest.fixture(autouse=True)
def _no_fault_plan():
    set_fault_plan(None)
    yield
    set_fault_plan(None)


def _populate(directory):
    cache = ShardedCache(directory)
    cache.put("impact/fftw", {"mean": 1.5})
    cache.put("impact/mcb", {"mean": 2.5})
    cache.put("baseline/fftw", 0.25)
    return cache


# ----------------------------------------------------------------------
# Checksummed format
# ----------------------------------------------------------------------
def test_shards_carry_verifiable_checksums(tmp_path):
    _populate(tmp_path)
    document = json.loads((tmp_path / "impact.json").read_text())
    assert document["__shard_format__"] == 2
    assert set(document["products"]) == {"impact/fftw", "impact/mcb"}
    import hashlib

    expected = hashlib.sha256(
        json.dumps(document["products"], sort_keys=True).encode()
    ).hexdigest()
    assert document["sha256"] == expected


def test_roundtrip_through_disk(tmp_path):
    original = _populate(tmp_path)
    reloaded = ShardedCache(tmp_path)
    assert reloaded.snapshot() == original.snapshot()
    assert reloaded.quarantined == []


def test_legacy_bare_mapping_shard_still_loads(tmp_path):
    (tmp_path / "impact.json").write_text(json.dumps({"impact/fftw": 7}))
    cache = ShardedCache(tmp_path)
    assert cache["impact/fftw"] == 7
    assert cache.quarantined == []
    # The next write of that group upgrades it to the checksummed format.
    cache.put("impact/mcb", 8)
    document = json.loads((tmp_path / "impact.json").read_text())
    assert document["__shard_format__"] == 2
    assert document["products"]["impact/fftw"] == 7


# ----------------------------------------------------------------------
# Shard bytes
# ----------------------------------------------------------------------
PAYLOADS = {
    "impact/nested": {
        "histogram": {"edges": [0.0, 1.5e-06, 2.0], "counts": [3, 0, 1]},
        "meta": {"ok": True, "skip": None, "rows": [[1, 2], [], {"a": []}]},
    },
    "impact/text": {"label": "Größe in µs — 日本語", "empty": ""},
    "impact/special": {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf")},
    "impact/scalars": [1, -2, 0, 2**70, True, False, None, 1e300, -0.0, 0.1],
    "baseline/fftw": 0.25,
}


def _expected_shard(products):
    """A shard as the plain sorted-keys encoding of its whole envelope."""
    payload_text = json.dumps(products, sort_keys=True)
    document = {
        "__shard_format__": 2,
        "sha256": hashlib.sha256(payload_text.encode("utf-8")).hexdigest(),
        "products": products,
    }
    return json.dumps(document, sort_keys=True).encode("ascii")


def _group(products, group):
    return {key: value for key, value in products.items() if group_of(key) == group}


def test_shard_bytes_are_the_sorted_envelope(tmp_path):
    cache = ShardedCache(tmp_path)
    for key, value in reversed(PAYLOADS.items()):  # insertion order is irrelevant
        cache.put(key, value)
    assert (tmp_path / "impact.json").read_bytes() == _expected_shard(
        _group(PAYLOADS, "impact")
    )
    assert (tmp_path / "baseline.json").read_bytes() == _expected_shard(
        _group(PAYLOADS, "baseline")
    )
    reloaded = ShardedCache(tmp_path)
    assert reloaded.quarantined == []
    assert json.dumps(reloaded.snapshot(), sort_keys=True) == json.dumps(
        PAYLOADS, sort_keys=True
    )


def test_put_after_reopen_rewrites_the_whole_group(tmp_path):
    _populate(tmp_path)
    reopened = ShardedCache(tmp_path)
    reopened.put("impact/lulesh", {"mean": 3.5})
    assert (tmp_path / "impact.json").read_bytes() == _expected_shard(
        {
            "impact/fftw": {"mean": 1.5},
            "impact/mcb": {"mean": 2.5},
            "impact/lulesh": {"mean": 3.5},
        }
    )
    assert reopened.groups() == {"impact", "baseline"}


def test_put_after_legacy_migration_rewrites_the_whole_group(tmp_path):
    legacy = tmp_path / "legacy.json"
    legacy.write_text(
        json.dumps({"impact/fftw": {"mean": 1.5}, "baseline/fftw": 0.25})
    )
    shards = tmp_path / "shards"
    migrated = ShardedCache(shards, legacy_path=legacy)
    migrated.put("impact/mcb", {"mean": 2.5})
    assert (shards / "impact.json").read_bytes() == _expected_shard(
        {"impact/fftw": {"mean": 1.5}, "impact/mcb": {"mean": 2.5}}
    )
    reopened = ShardedCache(shards)  # from the migrated shards alone
    reopened.put("baseline/milc", 0.5)
    assert (shards / "baseline.json").read_bytes() == _expected_shard(
        {"baseline/fftw": 0.25, "baseline/milc": 0.5}
    )
    assert reopened.groups() == {"impact", "baseline"}


def test_sanitized_groups_share_one_shard(tmp_path):
    cache = ShardedCache(tmp_path)
    cache.put("weird key/x", 1)
    cache.put("weird_key/y", 2)
    assert cache.groups() == {"weird_key"}
    assert (tmp_path / "weird_key.json").read_bytes() == _expected_shard(
        {"weird key/x": 1, "weird_key/y": 2}
    )


# ----------------------------------------------------------------------
# Quarantine instead of raising
# ----------------------------------------------------------------------
def test_truncated_shard_is_quarantined_not_raised(tmp_path):
    _populate(tmp_path)
    shard = tmp_path / "impact.json"
    shard.write_text(shard.read_text()[:20])  # torn write
    cache = ShardedCache(tmp_path)  # must not raise JSONDecodeError
    assert "impact/fftw" not in cache
    assert "baseline/fftw" in cache  # intact shards untouched
    assert [p.name for p in cache.quarantined] == ["impact.json.corrupt"]
    assert not shard.exists()  # the bad file was renamed aside, not deleted
    assert (tmp_path / "impact.json.corrupt").exists()


def test_checksum_mismatch_is_quarantined(tmp_path):
    _populate(tmp_path)
    shard = tmp_path / "impact.json"
    document = json.loads(shard.read_text())
    document["products"]["impact/fftw"] = {"mean": 999.0}  # bit-rot
    shard.write_text(json.dumps(document))
    cache = ShardedCache(tmp_path)
    assert "impact/fftw" not in cache
    assert len(cache.quarantined) == 1


def test_non_mapping_shard_is_quarantined(tmp_path):
    (tmp_path / "impact.json").write_text("[1, 2, 3]")
    cache = ShardedCache(tmp_path)
    assert len(cache) == 0
    assert len(cache.quarantined) == 1


def test_quarantine_names_never_collide(tmp_path):
    _populate(tmp_path)
    (tmp_path / "impact.json.corrupt").write_text("older corpse")
    (tmp_path / "impact.json").write_text("{broken")
    cache = ShardedCache(tmp_path)
    assert [p.name for p in cache.quarantined] == ["impact.json.corrupt1"]
    assert (tmp_path / "impact.json.corrupt").read_text() == "older corpse"


def test_quarantined_keys_recompute_and_rewrite_cleanly(tmp_path):
    _populate(tmp_path)
    (tmp_path / "impact.json").write_text("{broken")
    cache = ShardedCache(tmp_path)
    cache.put("impact/fftw", {"mean": 1.5})  # recomputed product
    healed = ShardedCache(tmp_path)
    assert healed["impact/fftw"] == {"mean": 1.5}
    assert healed.quarantined == []


@pytest.mark.parametrize(
    "name", [FAILURE_REPORT_NAME, TELEMETRY_REPORT_NAME, LIVE_REPORT_NAME]
)
def test_reserved_file_is_not_a_shard(tmp_path, name):
    # A reserved report is a bare JSON mapping, which would otherwise load
    # as a format-1 shard and leak its fields in as product keys.
    _populate(tmp_path)
    (tmp_path / name).write_text(json.dumps({"failures": [], "complete": True}))
    cache = ShardedCache(tmp_path)
    assert "failures" not in cache and "complete" not in cache
    assert cache.quarantined == []
    assert (tmp_path / name).exists()


# ----------------------------------------------------------------------
# Stale temp-file sweep
# ----------------------------------------------------------------------
def test_stale_tmp_files_are_swept_on_load(tmp_path):
    _populate(tmp_path)
    orphan = tmp_path / "tmpabc123.tmp"
    orphan.write_text("crashed between mkstemp and os.replace")
    cache = ShardedCache(tmp_path)
    assert not orphan.exists()
    assert "impact/fftw" in cache  # sweep touches only *.tmp


def test_sweep_only_runs_with_a_directory():
    ShardedCache(None)  # memory-only: no directory to sweep, no crash


# ----------------------------------------------------------------------
# Injected corruption (the fault-plan hook)
# ----------------------------------------------------------------------
def test_fault_plan_corrupts_exactly_one_write(tmp_path):
    set_fault_plan(FaultPlan.from_dict({"corrupt_shards": ["impact"]}))
    cache = ShardedCache(tmp_path)
    cache.put("impact/fftw", {"mean": 1.5})  # this write gets garbled
    cache.put("baseline/fftw", 0.25)  # other groups stay clean
    cache.put("impact/mcb", {"mean": 2.5})  # consumed: clean again, heals shard
    set_fault_plan(None)

    reloaded = ShardedCache(tmp_path)
    # The healing rewrite contains the full group, so nothing is lost here;
    # what matters is the corruption really hit the disk once.
    assert reloaded.quarantined == []
    assert reloaded["impact/mcb"] == {"mean": 2.5}


def test_fault_plan_corruption_surfaces_as_quarantine(tmp_path):
    set_fault_plan(FaultPlan.from_dict({"corrupt_shards": ["impact"]}))
    cache = ShardedCache(tmp_path)
    cache.put("impact/fftw", {"mean": 1.5})
    cache.put("baseline/fftw", 0.25)
    set_fault_plan(None)

    reloaded = ShardedCache(tmp_path)
    assert "impact/fftw" not in reloaded  # quarantined → pending again
    assert "baseline/fftw" in reloaded
    assert len(reloaded.quarantined) == 1


def test_group_of_sanitizes():
    assert group_of("degradation/fftw/P1") == "degradation"
    assert group_of("weird key/x") == "weird_key"
    assert group_of("x" * 300 + "/a") == "x" * 100  # a file name any system takes
