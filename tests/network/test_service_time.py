"""Tests for service-time distribution models."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.network import (
    DeterministicService,
    ExponentialService,
    LognormalService,
    MixtureService,
    default_fabric_service,
)

RNG = np.random.default_rng(0)


def test_deterministic_always_mean():
    model = DeterministicService(2e-6)
    assert model.sample(RNG) == 2e-6
    assert model.variance == 0.0
    assert model.scv == 0.0
    np.testing.assert_array_equal(model.sample_many(RNG, 5), np.full(5, 2e-6))


def test_exponential_moments():
    model = ExponentialService(1e-6)
    assert model.mean == 1e-6
    assert model.variance == pytest.approx(1e-12)
    assert model.scv == pytest.approx(1.0)


def test_exponential_empirical_mean():
    model = ExponentialService(3e-6)
    samples = model.sample_many(np.random.default_rng(1), 50_000)
    assert samples.mean() == pytest.approx(3e-6, rel=0.03)


def test_lognormal_hits_target_mean():
    model = LognormalService(mean=0.8e-6, sigma=0.5)
    samples = model.sample_many(np.random.default_rng(2), 100_000)
    assert samples.mean() == pytest.approx(0.8e-6, rel=0.02)
    assert samples.var(ddof=1) == pytest.approx(model.variance, rel=0.1)


def test_lognormal_zero_sigma_is_deterministic():
    model = LognormalService(mean=1e-6, sigma=0.0)
    assert model.sample(RNG) == pytest.approx(1e-6)
    assert model.variance == pytest.approx(0.0, abs=1e-20)


def test_mixture_moments_law_of_total_variance():
    fast = DeterministicService(1.0)
    slow = DeterministicService(3.0)
    mix = MixtureService([fast, slow], [0.5, 0.5])
    assert mix.mean == pytest.approx(2.0)
    assert mix.variance == pytest.approx(1.0)  # pure between-component variance


def test_mixture_empirical_matches_analytic():
    mix = default_fabric_service()
    samples = mix.sample_many(np.random.default_rng(3), 200_000)
    assert samples.mean() == pytest.approx(mix.mean, rel=0.02)
    assert samples.var(ddof=1) == pytest.approx(mix.variance, rel=0.1)


def test_default_fabric_has_heavy_tail():
    """~2% of default-fabric services should be several times the mean."""
    mix = default_fabric_service()
    samples = mix.sample_many(np.random.default_rng(4), 100_000)
    tail_fraction = (samples > 2.5 * mix.mean).mean()
    assert 0.01 < tail_fraction < 0.05


def test_mixture_weights_normalized():
    mix = MixtureService([DeterministicService(1.0), DeterministicService(2.0)], [2.0, 2.0])
    assert mix.mean == pytest.approx(1.5)


def test_invalid_parameters_rejected():
    with pytest.raises(ConfigurationError):
        DeterministicService(0.0)
    with pytest.raises(ConfigurationError):
        DeterministicService(-1e-6)
    with pytest.raises(ConfigurationError):
        LognormalService(1e-6, sigma=-0.1)
    with pytest.raises(ConfigurationError):
        LognormalService(1e-6, sigma=float("nan"))
    with pytest.raises(ConfigurationError):
        LognormalService(1e-6, sigma=float("inf"))
    with pytest.raises(ConfigurationError):
        MixtureService([], [])
    with pytest.raises(ConfigurationError):
        MixtureService([DeterministicService(1.0)], [0.0])
    with pytest.raises(ConfigurationError):
        MixtureService([DeterministicService(1.0)], [1.0, 2.0])


def test_rate_is_reciprocal_mean():
    assert DeterministicService(0.5).rate == pytest.approx(2.0)


@settings(max_examples=25, deadline=None)
@given(
    mean=st.floats(min_value=1e-8, max_value=1e-3),
    sigma=st.floats(min_value=0.0, max_value=1.5),
)
def test_property_lognormal_samples_positive_and_mean_consistent(mean, sigma):
    model = LognormalService(mean, sigma)
    samples = model.sample_many(np.random.default_rng(5), 2000)
    assert np.all(samples > 0)
    assert model.mean == pytest.approx(mean)
    assert model.variance >= 0
