"""Discrete-event simulation substrate.

The kernel executes callbacks in deterministic (time, insertion) order;
processes are Python generators that yield delays, events, or other processes.
See :mod:`repro.sim.kernel` for the execution model.
"""

from .events import AllOf, AnyOf, SimEvent
from .kernel import ScheduledCall, Simulator
from .process import Process
from .random import RandomStreams, stable_hash64

__all__ = [
    "Simulator",
    "ScheduledCall",
    "SimEvent",
    "AllOf",
    "AnyOf",
    "Process",
    "RandomStreams",
    "stable_hash64",
]
