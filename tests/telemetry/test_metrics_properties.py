"""Property tests of the snapshot-merge algebra, plus the real-campaign check.

The merge must be associative and commutative so that driver-side
accumulation over worker deltas is order-independent — N workers finishing
in any order produce the same campaign totals as one process doing all the
work.  The algebraic half is checked with hypothesis over integer-valued
snapshots (floating-point addition is not associative, so real counters can
drift in the last ulp; the *structure* of the algebra is what's under
test).  The empirical half runs the same analytic campaign serially and
with two workers and compares every counter exactly.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.cluster import small_test_config
from repro.core.experiments import PipelineSettings, ReproductionPipeline
from repro.telemetry.metrics import MetricsRegistry, merge_snapshots
from repro.units import MS

# ----------------------------------------------------------------------
# Algebraic properties
# ----------------------------------------------------------------------
_NAMES = st.sampled_from(["alpha", "beta", "gamma{k=v}"])
_AMOUNTS = st.integers(min_value=0, max_value=1000)


@st.composite
def snapshots(draw):
    """A registry snapshot built from integer-valued operations."""
    registry = MetricsRegistry()
    for _ in range(draw(st.integers(0, 8))):
        registry.counter_inc(draw(_NAMES), draw(_AMOUNTS))
    for _ in range(draw(st.integers(0, 4))):
        registry.gauge_max(draw(_NAMES), draw(_AMOUNTS))
    for _ in range(draw(st.integers(0, 8))):
        registry.observe(draw(_NAMES), draw(_AMOUNTS))
    return registry.snapshot()


@settings(max_examples=60, deadline=None)
@given(a=snapshots(), b=snapshots())
def test_merge_is_commutative(a, b):
    assert merge_snapshots(a, b) == merge_snapshots(b, a)


@settings(max_examples=60, deadline=None)
@given(a=snapshots(), b=snapshots(), c=snapshots())
def test_merge_is_associative(a, b, c):
    left = merge_snapshots(merge_snapshots(a, b), c)
    right = merge_snapshots(a, merge_snapshots(b, c))
    assert left == right


@settings(max_examples=60, deadline=None)
@given(parts=st.lists(snapshots(), min_size=0, max_size=5))
def test_merging_deltas_equals_single_registry(parts):
    # Folding N worker deltas into an empty snapshot, in any order the
    # scheduler happens to produce, equals one registry seeing everything.
    folded = {"counters": {}, "gauges": {}, "histograms": {}}
    for part in parts:
        folded = merge_snapshots(folded, part)
    combined = MetricsRegistry()
    for part in parts:
        combined.merge(part)
    assert folded == combined.snapshot()


@settings(max_examples=60, deadline=None)
@given(a=snapshots())
def test_empty_snapshot_is_identity(a):
    empty = {"counters": {}, "gauges": {}, "histograms": {}}
    assert merge_snapshots(a, empty) == merge_snapshots(empty, a)
    assert json.dumps(merge_snapshots(a, empty), sort_keys=True) == json.dumps(
        {
            "counters": a["counters"],
            "gauges": a["gauges"],
            "histograms": a["histograms"],
        },
        sort_keys=True,
    )


# ----------------------------------------------------------------------
# Empirical property: worker merge == single process on a real campaign
# ----------------------------------------------------------------------
def _pipeline(cache_path):
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
    )


def _campaign_counters(tmp_path, label, workers):
    telemetry.disable()
    telemetry.reset()
    telemetry.enable()
    pipeline = _pipeline(tmp_path / label)
    stats = pipeline.ensure_all(workers=workers)
    assert stats["failed"] == 0
    counters = telemetry.registry().snapshot()["counters"]
    telemetry.disable()
    telemetry.reset()
    return counters


def test_two_worker_campaign_counts_equal_serial(tmp_path):
    serial = _campaign_counters(tmp_path, "serial", workers=1)
    pooled = _campaign_counters(tmp_path, "pooled", workers=2)
    assert serial == pooled
    # And the campaign really did something worth counting.
    assert serial["pipeline.experiments_completed"] > 0
    assert serial["runner.tasks_completed"] == serial["runner.tasks_submitted"]
