"""Tests for the M/G/1 Pollaczek–Khinchine closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import EstimationError
from repro.queueing import MG1, MM1, pk_sojourn_time, pk_waiting_time, pk_waiting_times


def test_zero_arrivals_gives_pure_service_time():
    queue = MG1(arrival_rate=0.0, service_rate=2.0, service_variance=0.1)
    assert queue.waiting_time == 0.0
    assert queue.sojourn_time == pytest.approx(0.5)
    assert queue.utilization == 0.0


def test_utilization_is_lambda_over_mu():
    queue = MG1(arrival_rate=3.0, service_rate=4.0, service_variance=0.0)
    assert queue.utilization == pytest.approx(0.75)


def test_md1_half_of_mm1_waiting():
    """Deterministic service (M/D/1) waits exactly half as long as M/M/1."""
    lam, mu = 5.0, 10.0
    md1 = MG1(lam, mu, 0.0)
    mm1_as_mg1 = MG1(lam, mu, 1.0 / mu**2)
    assert md1.waiting_time == pytest.approx(mm1_as_mg1.waiting_time / 2.0)


def test_matches_mm1_special_case():
    """M/G/1 with exponential variance reproduces M/M/1 exactly."""
    lam, mu = 7.0, 11.0
    via_pk = MG1(lam, mu, 1.0 / mu**2)
    direct = MM1(lam, mu)
    assert via_pk.sojourn_time == pytest.approx(direct.sojourn_time)
    assert via_pk.waiting_time == pytest.approx(direct.waiting_time)


def test_paper_form_equals_standard_form():
    """The formula exactly as printed in the paper equals the textbook form."""
    queue = MG1(arrival_rate=0.6e6, service_rate=1.25e6, service_variance=2e-13)
    assert queue.paper_sojourn_form() == pytest.approx(queue.sojourn_time, rel=1e-12)


def test_waiting_grows_without_bound_near_saturation():
    mu, var = 10.0, 0.005
    wait_90 = pk_waiting_time(9.0, mu, var)
    wait_99 = pk_waiting_time(9.9, mu, var)
    assert wait_99 > 10 * wait_90


def test_unstable_queue_rejected():
    with pytest.raises(EstimationError, match="unstable"):
        MG1(arrival_rate=10.0, service_rate=10.0, service_variance=0.0)


def test_negative_arrival_rate_rejected():
    with pytest.raises(EstimationError):
        MG1(arrival_rate=-1.0, service_rate=10.0, service_variance=0.0)


def test_zero_service_rate_rejected():
    with pytest.raises(EstimationError):
        MG1(arrival_rate=0.0, service_rate=0.0, service_variance=0.0)


def test_negative_variance_rejected():
    with pytest.raises(EstimationError):
        MG1(arrival_rate=1.0, service_rate=10.0, service_variance=-1e-9)


def test_littles_law_consistency():
    queue = MG1(arrival_rate=4.0, service_rate=9.0, service_variance=0.02)
    assert queue.mean_queue_length == pytest.approx(queue.arrival_rate * queue.waiting_time)
    assert queue.mean_in_system == pytest.approx(queue.arrival_rate * queue.sojourn_time)


def test_scv_property():
    queue = MG1(arrival_rate=1.0, service_rate=2.0, service_variance=0.25)
    # E[S] = 0.5, so SCV = 0.25 / 0.25 = 1
    assert queue.service_scv == pytest.approx(1.0)


@given(
    rho=st.floats(min_value=0.0, max_value=0.95),
    mu=st.floats(min_value=0.1, max_value=1e7),
    scv=st.floats(min_value=0.0, max_value=10.0),
)
def test_property_sojourn_monotone_in_load(rho, mu, scv):
    """W strictly increases with λ (the paper's monotonicity premise)."""
    var = scv / mu**2
    w_low = pk_sojourn_time(rho * mu, mu, var)
    w_high = pk_sojourn_time(min(rho + 0.04, 0.99) * mu, mu, var)
    assert w_high >= w_low
    assert w_low >= 1.0 / mu - 1e-12


@given(
    lam=st.floats(min_value=0.0, max_value=9.0),
    scv=st.floats(min_value=0.0, max_value=5.0),
)
def test_property_waiting_increases_with_variance(lam, scv):
    """At fixed load, more service variance means longer waits."""
    mu = 10.0
    base = pk_waiting_time(lam, mu, scv / mu**2)
    more = pk_waiting_time(lam, mu, (scv + 1.0) / mu**2)
    if lam > 1e-6:
        assert more > base
    else:
        # At (near-)zero load the wait is (near-)zero regardless of variance.
        assert more >= base


# ----------------------------------------------------------------------
# Vectorized P–K (the fluid engine's per-resource waits)
# ----------------------------------------------------------------------
def _clamped_scalar_wait(utilization, mean_service, variance):
    """The scalar path under the engines' clamp, as SwitchModel.waiting_time."""
    rho = min(max(utilization, 0.0), 0.999)
    return pk_waiting_time(rho / mean_service, 1.0 / mean_service, variance)


EDGE_UTILIZATIONS = [-1.0, -1e-300, 0.0, 1e-300, 0.5, 0.999, 0.9990001, 1.0, 7.0, math.nan]


@given(
    utilizations=st.lists(
        st.floats() | st.sampled_from(EDGE_UTILIZATIONS), min_size=1, max_size=40
    ),
    mean_service=st.floats(min_value=1e-9, max_value=1e-3),
    variance=st.floats(min_value=0.0, max_value=1e-12),
)
def test_pk_waiting_times_matches_clamped_scalar(utilizations, mean_service, variance):
    waits = pk_waiting_times(np.array(utilizations), mean_service, variance)
    expected = [_clamped_scalar_wait(u, mean_service, variance) for u in utilizations]
    assert np.array_equal(waits, np.array(expected), equal_nan=True)
    # A one-element array is the scalar path, bit for bit.
    for utilization, scalar in zip(utilizations, expected):
        one = pk_waiting_times(np.array([utilization]), mean_service, variance)
        assert float(one[0]).hex() == float(scalar).hex()


def test_pk_waiting_times_edge_utilizations():
    mean_service, variance = 2e-7, 1e-15
    waits = pk_waiting_times(np.array(EDGE_UTILIZATIONS), mean_service, variance)
    by_utilization = dict(zip(EDGE_UTILIZATIONS[:-1], waits[:-1]))
    assert by_utilization[-1.0] == by_utilization[0.0] == 0.0  # clamped below
    assert by_utilization[1.0] == by_utilization[7.0] == by_utilization[0.999]
    assert by_utilization[0.9990001] == by_utilization[0.999]  # clamped above
    assert math.isnan(waits[-1])  # NaN passes through the clamp


@given(
    utilizations=st.lists(
        st.floats() | st.sampled_from(EDGE_UTILIZATIONS), min_size=1, max_size=40
    ),
    mean_service=st.floats(min_value=1e-9, max_value=1e-3),
    variance=st.floats(min_value=0.0, max_value=1e-12),
)
def test_pk_waiting_times_out_buffer_equals_allocating_path(
    utilizations, mean_service, variance
):
    rho = np.array(utilizations)
    fresh = pk_waiting_times(rho, mean_service, variance)
    buffer = np.full_like(rho, 123.0)  # stale contents must not leak through
    written = pk_waiting_times(rho, mean_service, variance, out=buffer)
    assert written is buffer
    assert np.array_equal(buffer, fresh, equal_nan=True)
    assert np.array_equal(rho, np.array(utilizations), equal_nan=True)  # input intact


def test_pk_waiting_times_validates_moments():
    with pytest.raises(EstimationError, match="mean service"):
        pk_waiting_times(np.array([0.5]), 0.0, 0.0)
    with pytest.raises(EstimationError, match="variance"):
        pk_waiting_times(np.array([0.5]), 1e-6, -1.0)
