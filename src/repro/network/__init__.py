"""Network substrate: packets, NICs, switch fabrics, topologies.

The central abstraction is :class:`SwitchFabric` — the paper's switch-as-a-
queue — wrapped by :class:`InterconnectNetwork`, the message-level interface
the MPI layer drives.
"""

from .fabric_stats import FabricStats, LinkStats
from .link import FabricLink, Link
from .network import InterconnectNetwork
from .nic import NIC
from .packet import Packet, packet_count, packetize
from .sampling import SampleStream
from .service_time import (
    DeterministicService,
    ExponentialService,
    LognormalService,
    MixtureService,
    ServiceTimeModel,
    default_fabric_service,
    default_port_overhead,
)
from .switch import OutputQueuedSwitch, SwitchFabric
from .topology import LeafSpineTopology, SingleSwitchTopology, Topology

__all__ = [
    "Packet",
    "packetize",
    "packet_count",
    "Link",
    "FabricLink",
    "NIC",
    "SwitchFabric",
    "OutputQueuedSwitch",
    "FabricStats",
    "LinkStats",
    "SampleStream",
    "InterconnectNetwork",
    "Topology",
    "SingleSwitchTopology",
    "LeafSpineTopology",
    "ServiceTimeModel",
    "DeterministicService",
    "ExponentialService",
    "LognormalService",
    "MixtureService",
    "default_fabric_service",
    "default_port_overhead",
]
