"""Tests for the analytic M/G/1 engine: validity, determinism, consistency."""

import math

import pytest

from repro.cluster import small_test_config
from repro.core.experiments import ExperimentDescriptor, PipelineSettings
from repro.engine import get_engine
from repro.errors import AnalyticModelError
from repro.queueing import ServiceEstimate, utilization_from_sojourn
from repro.units import MS
from repro.workloads import FFTW, Workload
from repro.workloads.traffic import TrafficSummary


SETTINGS = PipelineSettings(
    profile="quick",
    impact_duration=0.01,
    signature_duration=0.01,
    calibration_duration=0.02,
    probe_interval=0.1 * MS,
    engine="analytic",
)


class _Saturating(Workload):
    """Offers far more traffic per round than the switch can ever drain."""

    name = "saturating"

    def traffic(self, config):
        return TrafficSummary(
            ranks=2,
            rounds=1,
            compute=1e-6,
            packets=1e6,
            bytes=1e10,
            blocking_bytes=0.0,
            blocking_latencies=0.0,
        )

    def build(self, ctx):  # pragma: no cover - never simulated
        yield


class _NoTraffic(Workload):
    """A workload that never grew an analytic traffic summary."""

    name = "opaque"

    def build(self, ctx):  # pragma: no cover - never simulated
        yield


def _descriptor(**kwargs):
    defaults = dict(
        key="test",
        settings=SETTINGS,
        machine_config=small_test_config(seed=0),
    )
    defaults.update(kwargs)
    return ExperimentDescriptor(**defaults)


@pytest.fixture(scope="module")
def engine():
    return get_engine("analytic")


@pytest.fixture(scope="module")
def calibration(engine):
    return engine.run(_descriptor(kind="calibration"))


def test_saturating_workload_fails_loudly(engine):
    with pytest.raises(AnalyticModelError, match="saturated"):
        engine.run(_descriptor(kind="baseline", workload=_Saturating()))


def test_workload_without_traffic_summary_fails_loudly(engine):
    with pytest.raises(AnalyticModelError, match="opaque"):
        engine.run(_descriptor(kind="baseline", workload=_NoTraffic()))


def test_products_are_deterministic(engine, calibration):
    descriptor = _descriptor(
        kind="impact", workload=FFTW(), calibration=calibration
    )
    assert engine.run(descriptor) == engine.run(descriptor)
    assert engine.run(_descriptor(kind="calibration")) == calibration


def test_signature_inverts_to_true_utilization(engine, calibration):
    # The synthesized probe mean must round-trip through the same P-K
    # inversion the downstream queue models apply, recovering exactly the
    # utilization the engine solved for.
    product = engine.run(
        _descriptor(kind="impact", workload=FFTW(), calibration=calibration)
    )
    estimate = ServiceEstimate.from_dict(calibration)
    recovered = utilization_from_sojourn(
        product["signature"]["mean"], estimate.rate, estimate.variance
    )
    assert recovered == pytest.approx(product["true_utilization"], rel=1e-9)
    assert product["signature"]["utilization"] == pytest.approx(
        product["true_utilization"]
    )


def test_histogram_mass_matches_sample_count(engine, calibration):
    product = engine.run(_descriptor(kind="impact", calibration=calibration))
    signature = product["signature"]
    histogram = signature["histogram"]
    assert sum(histogram["counts"]) + histogram["overflow"] == signature["count"]
    assert signature["count"] >= 2


def test_impact_utilization_within_validity_range(engine, calibration):
    product = engine.run(
        _descriptor(kind="impact", workload=FFTW(), calibration=calibration)
    )
    assert 0.0 < product["true_utilization"] < engine.max_utilization
    assert math.isfinite(product["signature"]["mean"])


def test_baseline_positive_and_scales_with_rounds(engine):
    one = engine.run(
        _descriptor(kind="baseline", workload=FFTW(iterations=1))
    )
    three = engine.run(
        _descriptor(kind="baseline", workload=FFTW(iterations=3))
    )
    assert one > 0
    assert three == pytest.approx(3 * one, rel=1e-9)


def test_signature_requires_calibration(engine):
    with pytest.raises(AnalyticModelError, match="calibration"):
        engine.run(_descriptor(kind="impact", workload=FFTW()))


def test_warm_start_cuts_round_time_evaluations(monkeypatch):
    """A paper campaign verifies its warm starts in a few evaluations.

    A cold bisection from [0, 1] evaluates the round time 57.2 times per
    solve here.  A hint that drifts out of step with ``_round_time`` fails
    its check and quietly falls back to that, so the bound catches it.
    """
    from repro.core.experiments import ReproductionPipeline
    from repro.engine.analytic import AnalyticEngine

    calls = solves = 0
    prepare, solve = AnalyticEngine._round_time, AnalyticEngine._solve_rho

    def counted_prepare(self, *args):
        round_time, *coefficients = prepare(self, *args)

        def counted(rho_total):
            nonlocal calls
            calls += 1
            return round_time(rho_total)

        return (counted, *coefficients)

    def counted_solve(self, *args):
        nonlocal solves
        solves += 1
        return solve(self, *args)

    monkeypatch.setattr(AnalyticEngine, "_round_time", counted_prepare)
    monkeypatch.setattr(AnalyticEngine, "_solve_rho", counted_solve)
    pipeline = ReproductionPipeline(
        settings=PipelineSettings(profile="paper", engine="analytic"), workers=1
    )
    stats = pipeline.ensure_all(workers=1)
    assert stats["executed"] == len(pipeline.product_keys()) and solves > 10_000
    assert calls / solves <= 16
