"""Integration of the tracer with probes and the prediction engine."""

import pytest

from repro.cluster import Machine, PerSocketPlacement, small_test_config
from repro.core.measurement import LatencyCollector
from repro.mpi import MPIWorld
from repro.trace import SLEEP, WAIT, StateTracer
from repro.units import MS
from repro.workloads import FFTW, MILC, ImpactB

CFG = small_test_config()


def _fftw_and_milc(traced):
    """FFTW (one alltoall round) beside MILC on one machine; optionally traced."""
    machine = Machine(small_test_config(seed=0))
    jobs, tracers = [], []
    for app in (FFTW(iterations=1), MILC(iterations=3)):
        tracer = StateTracer() if traced else None
        world = MPIWorld.create(
            machine, app.preferred_placement(machine.config), name=app.name, tracer=tracer
        )
        jobs.append(world.launch(app))
        tracers.append(tracer)
    for job in jobs:
        machine.sim.run_until_event(job.done)
    return machine, jobs, tracers


def test_tracing_does_not_perturb_the_simulation():
    """A traced world waits through waitall, an untraced alltoall on the join
    itself; both must run the same heap entries, so nothing simulated moves."""
    plain, plain_jobs, _ = _fftw_and_milc(traced=False)
    traced, traced_jobs, tracers = _fftw_and_milc(traced=True)

    for plain_job, traced_job in zip(plain_jobs, traced_jobs):
        assert traced_job.elapsed == plain_job.elapsed
        assert [p.terminated.trigger_time for p in traced_job.processes] == [
            p.terminated.trigger_time for p in plain_job.processes
        ]
    # Switch, NIC, network and kernel counters, kernel.events included.
    assert traced.sim.counters() == plain.sim.counters()
    for job, tracer in zip(traced_jobs, tracers):
        assert all(tracer.totals(rank)[WAIT] > 0 for rank in range(job.world.size))


def test_traced_probe_records_sleep_and_wait():
    machine = Machine(CFG)
    tracer = StateTracer()
    collector = LatencyCollector()
    probe = ImpactB(collector, interval=0.1 * MS)
    world = MPIWorld.create(machine, PerSocketPlacement(1), name="probe", tracer=tracer)
    world.launch(probe)
    machine.sim.run(until=0.01)

    totals = tracer.totals()
    # Initiators sleep between exchanges; responders block in recv.
    assert totals[SLEEP] > 0
    assert totals[WAIT] > 0
    # The probe spends almost all its time idle or blocked, not computing.
    fractions = tracer.fractions()
    assert fractions["compute"] < 0.05


def test_responders_wait_initiators_sleep():
    machine = Machine(CFG)
    tracer = StateTracer()
    collector = LatencyCollector()
    probe = ImpactB(collector, interval=0.1 * MS, jitter=False, warmup=False)
    world = MPIWorld.create(machine, PerSocketPlacement(1), name="probe", tracer=tracer)
    world.launch(probe)
    machine.sim.run(until=0.01)

    # Node pairs: (0,1), (2,3); ranks 0,1 on node 0 are initiators, ranks
    # 2,3 on node 1 are responders (and so on).
    initiator_rank, responder_rank = 0, 2
    assert tracer.totals(initiator_rank)[SLEEP] > tracer.totals(responder_rank)[SLEEP]
    assert tracer.totals(responder_rank)[WAIT] > tracer.totals(initiator_rank)[WAIT]


def test_extended_models_fit_through_engine():
    """The prediction engine accepts the extended model list."""
    import numpy as np

    from repro.core.experiments import CompressionObservation
    from repro.core.experiments.impact import ImpactResult
    from repro.core.measurement import ProbeSignature
    from repro.core.models import PredictionEngine, extended_models
    from repro.queueing import ServiceEstimate, sojourn_from_utilization
    from repro.workloads import CompressionConfig

    calibration = ServiceEstimate(mean=1e-6, variance=1e-13, minimum=8e-7, sample_count=50)
    rng = np.random.default_rng(0)

    def signature(rho, seed):
        mean = sojourn_from_utilization(rho, calibration.rate, calibration.variance)
        samples = np.random.default_rng(seed).normal(mean, mean * 0.02, 200).clip(1e-9)
        return ProbeSignature.from_samples(samples, calibration)

    observations, degradations = [], {"app": {}}
    for index, rho in enumerate((0.2, 0.6)):
        obs = CompressionObservation(
            config=CompressionConfig(index + 1, 1, 2.5e5),
            impact=ImpactResult(signature(rho, index), rho, 0.01),
        )
        observations.append(obs)
        degradations["app"][obs.label] = 10.0 * (index + 1)

    engine = PredictionEngine(
        observations,
        degradations,
        {"app": signature(0.4, 9)},
        models=extended_models(calibration),
    )
    assert "PhaseAwareQueue" in engine.model_names
    assert len(engine.model_names) == 5
    value = engine.predict("app", "app", "PhaseAwareQueue")
    assert 5.0 <= value <= 25.0
