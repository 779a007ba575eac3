"""Job launching: MPIWorld, RankContext, and Job handles.

An :class:`MPIWorld` binds a set of allocated cores to rank ids and builds
the per-rank matching engines and communicators.  ``launch`` spawns one
coroutine per rank from a workload factory and returns a :class:`Job` whose
``done`` event fires when every rank has returned.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional, Sequence

import numpy as np

from ..cluster import Core, Machine, Placement
from ..errors import ConfigurationError, MPIError
from ..sim import AllOf, Process
from ..trace import COMPUTE, SLEEP, StateTracer
from ..units import cycles_to_seconds
from .communicator import Comm
from .matching import MatchingEngine

__all__ = ["MPIWorld", "RankContext", "Job"]

WorkloadFactory = Callable[["RankContext"], Generator[Any, Any, Any]]


class RankContext:
    """Everything one rank's workload generator needs.

    Attributes:
        rank / size: position in the world.
        comm: the rank's communicator.
        core: the core this rank is pinned to.
        rng: the rank's private random stream.
    """

    __slots__ = ("world", "rank", "comm", "core", "rng")

    def __init__(self, world: "MPIWorld", rank: int) -> None:
        self.world = world
        self.rank = rank
        self.comm = Comm(world, rank)
        self.core = world.cores[rank]
        self.rng: np.random.Generator = world.machine.streams.stream(
            f"{world.name}.rank{rank}"
        )

    @property
    def size(self) -> int:
        return self.world.size

    @property
    def node_id(self) -> int:
        return self.core.node_id

    @property
    def local_index(self) -> int:
        """Index of this rank among the ranks on the same node."""
        return self.world.local_index_of(self.rank)

    @property
    def now(self) -> float:
        return self.comm.sim._now

    @property
    def clock_hz(self) -> float:
        return self.world.machine.config.node.clock_hz

    # ------------------------------------------------------------------
    # Time helpers (generators, composed with ``yield from``)
    # ------------------------------------------------------------------
    def compute(self, seconds: float, jitter: float = 0.0):
        """Model a compute phase of ``seconds``, with optional lognormal jitter.

        ``jitter`` is the shape parameter (0 = deterministic; 0.02 gives ~2%
        runtime noise, typical of real kernels).
        """
        if not seconds >= 0:  # negative or NaN
            raise MPIError(f"compute time must be non-negative, got {seconds}")
        if jitter > 0:
            seconds *= float(self.rng.lognormal(0.0, jitter))
        if seconds > 0:
            tracer = self.world.tracer
            if tracer is not None:
                start = self.now
                yield seconds
                tracer.record(self.rank, COMPUTE, start, self.now)
            else:
                yield seconds
        return None
        yield  # pragma: no cover - keeps this a generator even for 0s

    def sleep(self, seconds: float):
        """Idle for ``seconds`` (e.g. ImpactB's inter-probe gap)."""
        if not seconds >= 0:  # negative or NaN
            raise MPIError(f"sleep time must be non-negative, got {seconds}")
        if seconds > 0:
            tracer = self.world.tracer
            if tracer is not None:
                start = self.now
                yield seconds
                tracer.record(self.rank, SLEEP, start, self.now)
            else:
                yield seconds
        return None
        yield  # pragma: no cover

    def sleep_cycles(self, cycles: float):
        """Idle for a cycle count at this node's clock (CompressionB's *B*)."""
        yield from self.sleep(cycles_to_seconds(cycles, self.clock_hz))


class Job:
    """A launched job: per-rank processes plus completion tracking."""

    def __init__(self, world: "MPIWorld", processes: List[Process], started_at: float) -> None:
        self.world = world
        self.processes = processes
        self.started_at = started_at
        sim = world.machine.sim
        self.done: AllOf = sim.all_of(
            [process.terminated for process in processes], name=f"{world.name}.done"
        )

    @property
    def finished(self) -> bool:
        return self.done.triggered

    @property
    def finished_at(self) -> float:
        """Time the slowest rank returned (NaN while running)."""
        return self.done.trigger_time

    @property
    def elapsed(self) -> float:
        """Job makespan (NaN while running)."""
        return self.finished_at - self.started_at

    def results(self) -> List[Any]:
        """Per-rank return values (valid once finished)."""
        if not self.finished:
            raise MPIError("job has not finished")
        return [process.result for process in self.processes]


class MPIWorld:
    """A set of ranks bound to cores of one machine."""

    def __init__(
        self,
        machine: Machine,
        cores: Sequence[Core],
        name: str = "job",
        allow_self_messages: bool = False,
        tracer: Optional[StateTracer] = None,
        eager_threshold: Optional[int] = None,
    ) -> None:
        if not cores:
            raise ConfigurationError("an MPI world needs at least one rank")
        if eager_threshold is not None and eager_threshold < 0:
            raise ConfigurationError(
                f"eager_threshold must be non-negative, got {eager_threshold}"
            )
        self.machine = machine
        self.cores = list(cores)
        self.name = name
        self.allow_self_messages = allow_self_messages
        #: Optional state tracer (compute/sleep/wait intervals per rank).
        self.tracer = tracer
        #: Messages larger than this use the rendezvous protocol
        #: (None = eager-only, the default; 40 KB fits eager on most MPIs).
        self.eager_threshold = eager_threshold
        self._node_of = [core.node_id for core in self.cores]
        self._engines = [MatchingEngine(machine.sim, rank) for rank in range(len(cores))]
        # local index: position of each rank among ranks sharing its node.
        seen: dict[int, int] = {}
        self._local_index: List[int] = []
        for node_id in self._node_of:
            index = seen.get(node_id, 0)
            self._local_index.append(index)
            seen[node_id] = index + 1
        self._ranks_by_node: dict[int, List[int]] = {}
        for rank, node_id in enumerate(self._node_of):
            self._ranks_by_node.setdefault(node_id, []).append(rank)

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self.cores)

    @property
    def node_ids(self) -> List[int]:
        """Distinct node ids used by this world, ascending."""
        return sorted(self._ranks_by_node)

    def node_of(self, rank: int) -> int:
        """The node a rank runs on."""
        return self._node_of[rank]

    def local_index_of(self, rank: int) -> int:
        """Rank's position among the ranks on its node."""
        return self._local_index[rank]

    def ranks_on_node(self, node_id: int) -> List[int]:
        """All ranks of this world on ``node_id``, ascending."""
        return list(self._ranks_by_node.get(node_id, []))

    def engine(self, rank: int) -> MatchingEngine:
        """The matching engine of ``rank``."""
        return self._engines[rank]

    # ------------------------------------------------------------------
    def launch(self, factory: WorkloadFactory) -> Job:
        """Spawn one process per rank from ``factory(ctx)``."""
        sim = self.machine.sim
        processes = [
            sim.spawn(factory(RankContext(self, rank)), name=f"{self.name}.r{rank}")
            for rank in range(self.size)
        ]
        return Job(self, processes, started_at=sim.now)

    @classmethod
    def create(
        cls,
        machine: Machine,
        placement: Placement,
        name: str = "job",
        allow_self_messages: bool = False,
        tracer: Optional[StateTracer] = None,
        eager_threshold: Optional[int] = None,
    ) -> "MPIWorld":
        """Allocate cores via ``placement`` and build the world."""
        cores = machine.allocate(placement, label=name)
        return cls(
            machine,
            cores,
            name=name,
            allow_self_messages=allow_self_messages,
            tracer=tracer,
            eager_threshold=eager_threshold,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<MPIWorld {self.name!r} size={self.size}>"
