"""Property tests for the scenario/demand seam.

The demand machinery makes three promises every engine builds on:

* **Conservation** — distributing a traffic summary over pair weights and
  folding it onto the fabric never creates or loses traffic: matrix totals
  equal summary totals, every packet is delivered exactly once, and link
  flow is balanced (what goes up the uplinks comes down the downlinks).
* **Fast path = definition** — the leaf-spine closed-form fold agrees with
  the route-by-route ``fold_reference`` oracle for arbitrary demand.
* **Permutation invariance** — relabeling nodes within a leaf permutes
  nothing the fabric can see, so folds are invariant under it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import leaf_spine_config, small_test_config
from repro.errors import ConfigurationError
from repro.scenario import (
    ScenarioSpec,
    paired_node_weights,
    ring_node_weights,
    uniform_node_weights,
)
from repro.workloads.traffic import TrafficSummary


def _summary(packets=120.0, bytes_=9.6e5):
    return TrafficSummary(
        ranks=4,
        rounds=1,
        compute=1e-4,
        packets=packets,
        bytes=bytes_,
        blocking_bytes=bytes_ / 4,
        blocking_latencies=2.0,
        period=0.0,
    )


def _spec(leaves, npl, spines):
    return ScenarioSpec.from_machine(
        leaf_spine_config(
            seed=0, leaf_count=leaves, nodes_per_leaf=npl, spine_count=spines
        )
    )


@st.composite
def fabric_demand(draw):
    """A small random fabric plus a random non-trivial weight matrix."""
    leaves = draw(st.integers(min_value=1, max_value=3))
    npl = draw(st.integers(min_value=1, max_value=4))
    spines = draw(st.integers(min_value=1, max_value=3))
    n = leaves * npl
    cells = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            min_size=n * n,
            max_size=n * n,
        )
    )
    weights = np.asarray(cells).reshape(n, n)
    np.fill_diagonal(weights, 0.0)
    return leaves, npl, spines, weights


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", [1, 2, 3, 4, 9, 18])
def test_weight_builders_are_normalized(n):
    for weights in (
        uniform_node_weights(n),
        paired_node_weights(n),
        ring_node_weights(n, partners=3),
    ):
        assert weights.shape == (n, n)
        assert np.all(weights >= 0)
        assert np.all(np.diag(weights) == 0)
        total = weights.sum()
        # A 1-node machine (or unpaired singleton) offers nothing; every
        # other builder distributes exactly the whole summary.
        assert total == pytest.approx(1.0) or total == 0.0


def test_zero_weights_with_traffic_is_refused():
    spec = ScenarioSpec.from_machine(small_test_config(seed=0, node_count=1))
    with pytest.raises(ConfigurationError):
        spec.demand_matrix(_summary(), uniform_node_weights(1))


# ----------------------------------------------------------------------
# Conservation
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(fabric_demand())
def test_demand_and_fold_conserve_traffic(case):
    leaves, npl, spines, weights = case
    if weights.sum() == 0.0:
        return
    spec = _spec(leaves, npl, spines)
    summary = _summary()
    matrix = spec.demand_matrix(summary, weights)
    assert matrix.total_packets == pytest.approx(summary.packets)
    assert matrix.total_bytes == pytest.approx(summary.bytes)
    assert np.all(np.diag(matrix.packets) == 0)

    demand = spec.fold(matrix)
    # Every packet is delivered at exactly one endpoint.
    assert demand.delivered_packets.sum() == pytest.approx(summary.packets)
    # Uplink flow equals downlink flow equals cross-leaf traffic.
    up = sum(v for k, v in demand.link_packets.items() if k.startswith("leaf"))
    down = sum(v for k, v in demand.link_packets.items() if k.startswith("spine"))
    assert up == pytest.approx(down)
    # A packet visits at least its destination switch and at most
    # source leaf + spine + destination leaf.
    assert 1.0 <= demand.switch_visits_per_packet() <= 3.0 + 1e-9
    assert demand.link_traversals_per_packet() == pytest.approx(
        max(demand.switch_visits_per_packet() - 1.0, 0.0)
    )


# ----------------------------------------------------------------------
# Fast path against the route-walking oracle
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(fabric_demand())
def test_fold_fast_path_matches_reference(case):
    leaves, npl, spines, weights = case
    if weights.sum() == 0.0:
        return
    spec = _spec(leaves, npl, spines)
    matrix = spec.demand_matrix(_summary(), weights)
    fast = spec.fold(matrix)
    reference = spec.fold_reference(matrix)
    np.testing.assert_allclose(fast.switch_bytes, reference.switch_bytes, rtol=1e-9)
    np.testing.assert_allclose(fast.switch_packets, reference.switch_packets, rtol=1e-9)
    np.testing.assert_allclose(
        fast.delivered_packets, reference.delivered_packets, rtol=1e-9
    )
    assert set(fast.link_packets) == set(reference.link_packets)
    for name in fast.link_packets:
        assert fast.link_packets[name] == pytest.approx(
            reference.link_packets[name], rel=1e-9, abs=1e-12
        )
        assert fast.link_bytes[name] == pytest.approx(
            reference.link_bytes[name], rel=1e-9, abs=1e-12
        )


@settings(max_examples=50, deadline=None)
@given(fabric_demand())
def test_single_switch_folds_as_a_one_leaf_fabric(case):
    leaves, npl, spines, weights = case
    if weights.sum() == 0.0:
        return
    nodes = leaves * npl
    single = ScenarioSpec.from_machine(small_test_config(seed=0, node_count=nodes))
    one_leaf = _spec(1, nodes, spines)
    fast = single.fold(single.demand_matrix(_summary(), weights))
    reference = single.fold_reference(single.demand_matrix(_summary(), weights))
    leaf = one_leaf.fold(one_leaf.demand_matrix(_summary(), weights))
    np.testing.assert_allclose(fast.switch_bytes, reference.switch_bytes, rtol=1e-9)
    np.testing.assert_allclose(fast.switch_packets, reference.switch_packets, rtol=1e-9)
    assert fast.link_packets == reference.link_packets == {}
    # Bit for bit the one-leaf fabric's leaf, whose spines carry nothing.
    assert fast.switch_bytes.tolist() == leaf.switch_bytes[:1].tolist()
    assert fast.switch_packets.tolist() == leaf.switch_packets[:1].tolist()
    assert fast.delivered_packets.tolist() == leaf.delivered_packets[:1].tolist()
    assert fast.switch_visits_per_packet() == leaf.switch_visits_per_packet()


# ----------------------------------------------------------------------
# Permutation invariance
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(fabric_demand(), st.randoms(use_true_random=False))
def test_fold_is_invariant_under_within_leaf_relabeling(case, rng):
    leaves, npl, spines, weights = case
    if weights.sum() == 0.0:
        return
    # Permute node ids within each leaf: the fabric cannot tell the
    # difference, so the folded demand must be identical.
    perm = np.arange(leaves * npl)
    for leaf in range(leaves):
        block = list(range(leaf * npl, (leaf + 1) * npl))
        shuffled = block[:]
        rng.shuffle(shuffled)
        perm[block] = shuffled
    spec = _spec(leaves, npl, spines)
    matrix = spec.demand_matrix(_summary(), weights)
    permuted = spec.demand_matrix(_summary(), weights[np.ix_(perm, perm)])
    base, moved = spec.fold(matrix), spec.fold(permuted)
    np.testing.assert_allclose(base.switch_packets, moved.switch_packets, rtol=1e-9)
    np.testing.assert_allclose(base.switch_bytes, moved.switch_bytes, rtol=1e-9)
    for name in base.link_packets:
        assert base.link_packets[name] == pytest.approx(
            moved.link_packets[name], rel=1e-9, abs=1e-12
        )


def test_link_names_are_sorted_and_complete():
    spec = _spec(2, 3, 2)
    names = spec.link_names()
    assert list(names) == sorted(names)
    assert len(names) == 2 * 2 * 2  # leaves × spines, both directions
