"""Tests for compression and co-run experiments."""

import pytest

from repro.cluster import small_test_config
from repro.core.experiments import (
    CompressionExperiment,
    CompressionObservation,
    calibrate,
    corun_slowdown,
    percent_slowdown,
)
from repro.errors import ExperimentError
from repro.units import MS
from repro.workloads import FFTW, MCB, CompressionConfig


CFG = small_test_config()


def _comm_app():
    return FFTW(iterations=1, pack_compute=5e-5, bytes_per_pair=4096)


def _quiet_app():
    return MCB(iterations=2, track_compute=2e-4, migration_bytes=1024)


def test_percent_slowdown():
    assert percent_slowdown(1.5, 1.0) == pytest.approx(50.0)
    assert percent_slowdown(1.0, 1.0) == 0.0


def test_percent_slowdown_invalid_baseline():
    with pytest.raises(ExperimentError):
        percent_slowdown(1.0, 0.0)


def test_signature_of_config():
    calibration = calibrate(CFG, duration=0.02, probe_interval=0.1 * MS)
    experiment = CompressionExperiment(CFG, calibration, probe_interval=0.1 * MS)
    obs = experiment.signature_of(CompressionConfig(2, 1, 2.5e5), duration=0.02)
    assert 0.0 <= obs.utilization < 1.0
    assert obs.label == "P2xM1xB2.5e+05"


def test_observation_serialization_roundtrip():
    calibration = calibrate(CFG, duration=0.02, probe_interval=0.1 * MS)
    experiment = CompressionExperiment(CFG, calibration, probe_interval=0.1 * MS)
    obs = experiment.signature_of(CompressionConfig(2, 1, 2.5e5), duration=0.02)
    restored = CompressionObservation.from_dict(obs.to_dict())
    assert restored.label == obs.label
    assert restored.utilization == obs.utilization
    assert restored.config == obs.config


def test_degradation_of_comm_bound_app_is_positive():
    experiment = CompressionExperiment(CFG)
    app = _comm_app()
    baseline = experiment.baseline(app)
    degradation = experiment.degradation(app, CompressionConfig(3, 10, 2.5e4), baseline)
    assert degradation > 5.0


def test_degradation_monotone_in_interference():
    experiment = CompressionExperiment(CFG)
    app = _comm_app()
    baseline = experiment.baseline(app)
    light = experiment.degradation(app, CompressionConfig(1, 1, 2.5e7), baseline)
    heavy = experiment.degradation(app, CompressionConfig(3, 10, 2.5e4), baseline)
    assert heavy > light


def test_quiet_app_barely_degrades():
    experiment = CompressionExperiment(CFG)
    app = _quiet_app()
    degradation = experiment.degradation(app, CompressionConfig(3, 1, 2.5e5))
    assert degradation < 15.0


# ----------------------------------------------------------------------
# Co-run
# ----------------------------------------------------------------------
def test_corun_slowdown_of_comm_app_next_to_itself():
    slowdown = corun_slowdown(CFG, _comm_app(), _comm_app())
    # Two all-to-all jobs on one switch must interfere measurably.
    assert slowdown > 1.0


def test_corun_quiet_pair_barely_interferes():
    slowdown = corun_slowdown(CFG, _quiet_app(), _quiet_app())
    assert abs(slowdown) < 10.0


def test_corun_asymmetry_comm_vs_quiet():
    """The quiet app hurts the comm app less than another comm app would."""
    vs_quiet = corun_slowdown(CFG, _comm_app(), _quiet_app())
    vs_comm = corun_slowdown(CFG, _comm_app(), _comm_app())
    assert vs_comm > vs_quiet
