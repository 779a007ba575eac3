"""Tests for topologies and routing."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.network import LeafSpineTopology, SingleSwitchTopology
from repro.network.topology import route_node_list


def test_single_switch_all_nodes_attach_to_switch_zero():
    topo = SingleSwitchTopology(18)
    assert topo.node_count == 18
    assert topo.switch_count == 1
    assert all(topo.attachment(n) == 0 for n in range(18))
    assert topo.route(0, 17) == (0,)


def test_single_switch_validates_node_ids():
    topo = SingleSwitchTopology(4)
    with pytest.raises(ConfigurationError):
        topo.attachment(4)
    with pytest.raises(ConfigurationError):
        topo.route(0, -1)


def test_single_switch_requires_a_node():
    with pytest.raises(ConfigurationError):
        SingleSwitchTopology(0)


def test_fat_tree_counts():
    topo = LeafSpineTopology(leaf_count=4, nodes_per_leaf=18, spine_count=2)
    assert topo.node_count == 72
    assert topo.switch_count == 6


def test_fat_tree_attachment_blocks():
    topo = LeafSpineTopology(leaf_count=3, nodes_per_leaf=2)
    assert [topo.attachment(n) for n in range(6)] == [0, 0, 1, 1, 2, 2]


def test_fat_tree_same_leaf_stays_local():
    topo = LeafSpineTopology(leaf_count=3, nodes_per_leaf=2, spine_count=2)
    assert topo.route(0, 1) == (0,)
    assert topo.route(4, 5) == (2,)


def test_fat_tree_cross_leaf_goes_via_root():
    topo = LeafSpineTopology(leaf_count=3, nodes_per_leaf=2, spine_count=2)
    route = topo.route(0, 5)
    assert len(route) == 3
    assert route[0] == 0 and route[2] == 2
    assert route[1] in (3, 4)  # a spine switch


def test_fat_tree_route_is_deterministic():
    topo = LeafSpineTopology(leaf_count=4, nodes_per_leaf=4, spine_count=3)
    assert topo.route(1, 14) == topo.route(1, 14)


def test_fat_tree_validation():
    with pytest.raises(ConfigurationError):
        LeafSpineTopology(0, 1)
    with pytest.raises(ConfigurationError):
        LeafSpineTopology(1, 0)
    with pytest.raises(ConfigurationError):
        LeafSpineTopology(1, 1, spine_count=0)
    with pytest.raises(ConfigurationError):
        LeafSpineTopology(-3, 2)
    with pytest.raises(ConfigurationError):
        LeafSpineTopology(2, -1, spine_count=2)


def test_route_rejects_equal_endpoints():
    # src == dst never enters the fabric; route() must refuse it rather
    # than fabricate a zero-hop path (regression: it used to return (leaf,)).
    for topo in (SingleSwitchTopology(4), LeafSpineTopology(2, 2, spine_count=2)):
        with pytest.raises(ConfigurationError):
            topo.route(1, 1)


def test_route_node_list_rejects_equal_endpoints():
    topo = LeafSpineTopology(2, 2, spine_count=2)
    assert route_node_list(topo, 0, 3) == list(topo.route(0, 3))
    with pytest.raises(ConfigurationError):
        route_node_list(topo, 2, 2)


@given(
    leaves=st.integers(min_value=1, max_value=6),
    per_leaf=st.integers(min_value=1, max_value=6),
    roots=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
def test_property_fat_tree_routes_start_and_end_correctly(leaves, per_leaf, roots, data):
    topo = LeafSpineTopology(leaves, per_leaf, roots)
    src = data.draw(st.integers(min_value=0, max_value=topo.node_count - 1))
    dst = data.draw(
        st.integers(min_value=0, max_value=topo.node_count - 1).filter(
            lambda n: n != src
        )
    )
    route = topo.route(src, dst)
    assert route[0] == topo.attachment(src)
    assert route[-1] == topo.attachment(dst)
    assert len(route) in (1, 3)
    if topo.attachment(src) == topo.attachment(dst):
        assert len(route) == 1
    else:
        assert route[1] >= leaves  # middle hop is a spine switch
