"""Shared experiment execution: build a machine, place jobs, run, snapshot.

Every experiment in the paper is some combination of at most three jobs on
one switch: an optional probe (ImpactB), an optional interference workload
(CompressionB or a looped application), and an optional measured (finite)
application.  :func:`execute` runs such a combination deterministically and
returns the timing/utilization snapshot.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from ... import telemetry
from ...cluster import Machine, Placement
from ...config import MachineConfig
from ...errors import ExperimentError
from ...mpi import MPIWorld
from ...workloads import Workload, looped

__all__ = ["JobSpec", "RunResult", "execute"]

#: Safety valve: no single experiment may execute more events than this.
DEFAULT_MAX_EVENTS = 60_000_000


@dataclass(frozen=True)
class JobSpec:
    """One workload to place and launch.

    Attributes:
        workload: the workload description.
        name: job label (used for core-occupancy bookkeeping and results).
        daemon: if True the workload is wrapped in an endless loop and not
            awaited (interference jobs); if False its completion is measured.
        placement: override the workload's preferred placement.
        eager_threshold: per-job MPI eager/rendezvous threshold in bytes
            (None = eager-only transport).
    """

    workload: Workload
    name: str
    daemon: bool = False
    placement: Optional[Placement] = None
    eager_threshold: Optional[int] = None


@dataclass
class RunResult:
    """Outcome of one experiment run.

    ``wall_seconds`` is host wall-clock spent executing the run — purely
    diagnostic (campaign progress/ETA calibration), never part of a cached
    product.  ``counters`` is the kernel's instrumentation snapshot
    (per-component event/callback tallies such as ``nic.packets`` or
    ``switch0.served``) — also diagnostic, for profiling and for comparing
    what different engines actually executed.
    """

    elapsed: Dict[str, float] = field(default_factory=dict)
    sim_time: float = 0.0
    true_utilization: float = 0.0
    events: int = 0
    wall_seconds: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)

    def elapsed_of(self, name: str) -> float:
        if name not in self.elapsed:
            raise ExperimentError(f"no measured job named {name!r} in this run")
        return self.elapsed[name]


def execute(
    config: MachineConfig,
    specs: Sequence[JobSpec],
    duration: Optional[float] = None,
    max_events: int = DEFAULT_MAX_EVENTS,
    warmup: Optional[float] = None,
) -> RunResult:
    """Run a set of jobs on a fresh machine.

    Jobs are placed in spec order (probes are conventionally listed first so
    they occupy the first core of each socket, as in the paper).  Daemon jobs
    run forever; measured jobs run to completion.

    Args:
        config: machine description (a fresh :class:`Machine` is built, so
            runs are isolated and reproducible).
        specs: jobs to launch.
        duration: if given, the simulation runs for exactly this long
            (required when there are no measured jobs); otherwise it runs
            until every measured job finishes.
        max_events: event budget guarding against runaway experiments.
        warmup: if given, the network's ground-truth counters restart at
            this simulated instant, so ``true_utilization`` covers only
            the rest of the run.

    Returns:
        A :class:`RunResult` with per-measured-job makespans and the
        ground-truth switch utilization over the run.
    """
    if not specs:
        raise ExperimentError("execute() needs at least one job spec")
    measured = [spec for spec in specs if not spec.daemon]
    if not measured and duration is None:
        raise ExperimentError("daemon-only runs need an explicit duration")

    wall_start = time.perf_counter()
    machine = Machine(config)
    jobs = []
    for spec in specs:
        placement = spec.placement or spec.workload.preferred_placement(config)
        world = MPIWorld.create(
            machine, placement, name=spec.name, eager_threshold=spec.eager_threshold
        )
        factory = looped(spec.workload) if spec.daemon else spec.workload
        job = world.launch(factory)
        if not spec.daemon:
            jobs.append((spec.name, job))

    if warmup is not None:
        machine.sim.run(until=warmup, max_events=max_events)
        machine.network.reset_stats()
    result = RunResult()
    if jobs:
        done = machine.sim.all_of([job.done for _name, job in jobs], name="measured.done")
        machine.sim.run_until_event(done, max_events=max_events)
        if duration is not None and machine.sim.now < duration:
            machine.sim.run(until=duration, max_events=max_events)
        for name, job in jobs:
            result.elapsed[name] = job.elapsed
    else:
        assert duration is not None
        machine.sim.run(until=duration, max_events=max_events)

    result.sim_time = machine.sim.now
    result.true_utilization = machine.network.true_utilization()
    result.events = machine.sim.events_executed
    result.wall_seconds = time.perf_counter() - wall_start
    result.counters = machine.sim.counters()
    if telemetry.enabled():
        _record_run_telemetry(result, [spec.name for spec in specs])
    return result


def _record_run_telemetry(result: RunResult, job_names: Sequence[str]) -> None:
    """Fold one run's pull-based kernel counters into the metrics registry.

    Instrumentation happens here, at run granularity, rather than inside
    the kernel's per-event loop: the simulator already accumulates its own
    tallies for free, so telemetry costs one harvest per experiment.
    """
    registry = telemetry.registry()
    registry.counter_inc("sim.runs")
    registry.counter_inc("sim.events", float(result.events))
    registry.counter_inc("sim.wall_seconds", result.wall_seconds)
    registry.gauge_max("sim.max_pending", result.counters.get("kernel.max_pending", 0.0))
    registry.observe("sim.switch_utilization", result.true_utilization)
    registry.observe("sim.run_wall_seconds", result.wall_seconds)
    for name, value in result.counters.items():
        # Component tallies (nic.packets, switch0.served, ...) become
        # campaign-wide counters; the kernel's own snapshot keys are
        # already covered above.
        if not name.startswith("kernel."):
            registry.counter_inc(f"sim.{name}", float(value))
    telemetry.tracer().record(
        "sim.run",
        time.time() - result.wall_seconds,
        result.wall_seconds,
        category="sim",
        args={"jobs": ",".join(job_names), "events": result.events},
    )
