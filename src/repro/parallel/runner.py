"""Fault-tolerant parallel experiment execution.

The reproduction campaign is embarrassingly parallel: every experiment
builds its own machine and shares nothing.  :func:`run_tasks` runs a pure
function over task items with per-task future scheduling and a
:class:`RetryPolicy` — bounded retries, a per-task timeout that kills and
recycles hung workers, and recovery from a broken process pool (respawn,
requeue the in-flight items).  A failed attempt goes straight to the back
of the ready queue: every task is a deterministic function of its item, so
waiting before a retry could not change its outcome.  A task that
exhausts its attempts becomes a structured
:class:`~repro.errors.FailureRecord` instead of taking the campaign down.

One scheduler drives both execution modes, one task per submission.  With
one worker (or one task) and no timeout it runs in-process, through an
executor that runs each task the moment it is submitted; otherwise through
a process pool.  Retries and failure bookkeeping are the same code either
way.  Which tasks to run at all (the measurement budget) is the caller's
decision: see :func:`repro.core.experiments.pipeline.admit_within_budget`.

Functions and items must be picklable (top-level functions, dataclass
configs) for the process-pool path.
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from .. import faults, telemetry
from ..telemetry import logs
from ..errors import (
    ConfigurationError,
    ExperimentError,
    FailureRecord,
    classify_failure_message,
)

__all__ = [
    "run_tasks",
    "default_worker_count",
    "RetryPolicy",
    "RunReport",
]

ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")

#: Process-pool rebuilds (after crashes or timeout kills) before a run
#: aborts: past this the environment, not an experiment, is failing.
MAX_RESPAWNS = 5


def _available_cpu_count() -> int:
    """CPUs actually usable by this process.

    ``os.cpu_count()`` reports the machine's cores, which overcounts under
    CPU affinity masks and cgroup CPU sets (CI containers, ``taskset``,
    k8s limits); the scheduler affinity mask is the honest number where the
    platform exposes it.
    """
    getter = getattr(os, "sched_getaffinity", None)
    if getter is not None:
        try:
            return len(getter(0)) or 1
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return os.cpu_count() or 1


def default_worker_count() -> int:
    """Workers to use by default: all usable cores but one, at least 1."""
    return max(1, _available_cpu_count() - 1)


@dataclass(frozen=True)
class RetryPolicy:
    """How hard to try before declaring one task permanently failed.

    Attributes:
        max_attempts: total attempts per task (1 = no retry; the default 2
            preserves the campaign's historical retry-once behavior).
        timeout: per-task wall-clock budget in seconds; ``None`` disables
            timeouts.  Enforced only on the pool path — a hung task's worker
            is killed, the pool respawned, and the task retried.  (With
            ``workers=1`` a configured timeout forces a single-worker pool so
            it can still be enforced.)
    """

    max_attempts: int = 2
    timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.timeout is not None and self.timeout <= 0:
            raise ConfigurationError(f"timeout must be > 0, got {self.timeout}")


@dataclass
class RunReport:
    """Outcome of one :func:`run_tasks` call.

    Attributes:
        results: per-item results in item order; ``None`` where the task
            failed permanently (check ``failures`` to tell a ``None``
            result from a hole).
        failures: terminal :class:`~repro.errors.FailureRecord` s, in the
            order the tasks went terminal.
        transients: attempt-level failures that were later retried
            (successfully or not) — the observability trail of the retry
            machinery.
        pool_respawns: times the process pool was rebuilt.
    """

    results: List[Optional[object]] = field(default_factory=list)
    failures: List[FailureRecord] = field(default_factory=list)
    transients: List[FailureRecord] = field(default_factory=list)
    pool_respawns: int = 0


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _run_task(
    function: Callable[[ItemT], ResultT],
    key: str,
    attempt: int,
    item: ItemT,
    capture_telemetry: bool = False,
) -> Tuple[Optional[ResultT], Optional[str], Optional[dict]]:
    """Worker entry point: run one attempt of one task.

    The task's exception is captured as a string so one bad experiment
    never poisons the pool; only a hard process death (crash fault,
    segfault, OOM) escapes, surfacing driver-side as a broken pool.

    Returns ``(value, error, telemetry_payload)``.  With
    ``capture_telemetry`` the worker's registry/tracer are reset first
    (discarding any state inherited from a fork or an earlier task) and
    their delta — the task's span plus whatever the task function itself
    recorded — is snapshotted into the envelope for the driver to merge;
    otherwise the payload is ``None``.
    """
    if capture_telemetry:
        telemetry.enable()
        telemetry.reset()
    faults.set_current_attempt(attempt)
    try:
        with telemetry.span(f"task:{key}", "runner", attempt=attempt):
            value, error = function(item), None
    except Exception as exc:
        value, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        faults.set_current_attempt(1)
    return value, error, telemetry.snapshot() if capture_telemetry else None


# ----------------------------------------------------------------------
# Driver-side telemetry & structured task lifecycle log
# ----------------------------------------------------------------------
def _record_task_scheduled(key: str, attempt: int) -> None:
    if logs.enabled():
        logs.log_event("runner.task_scheduled", key=key, attempt=attempt)


def _record_task_landed(key: str, attempt: int, elapsed: float) -> None:
    if telemetry.enabled():
        registry = telemetry.registry()
        registry.counter_inc("runner.tasks_completed")
        registry.observe("runner.task_seconds", elapsed)
    if logs.enabled():
        logs.log_event(
            "runner.task_completed",
            key=key,
            attempt=attempt,
            seconds=round(elapsed, 6),
        )


def _record_attempt_failure(
    key: str,
    category: str,
    terminal: bool,
    attempt: int,
    message: str,
) -> None:
    """Count one failed attempt: terminal hole vs retried transient.

    With structured logging on, the same bookkeeping emits
    ``runner.task_failed`` / ``runner.task_retry`` events keyed by the
    experiment descriptor (timeout kills arrive with
    ``category="timeout"``), so a fleet log join reconstructs every task's
    attempt history.
    """
    if logs.enabled():
        if terminal:
            logs.log_event(
                "runner.task_failed",
                key=key,
                category=category,
                attempts=attempt,
                message=message,
            )
        else:
            logs.log_event(
                "runner.task_retry",
                key=key,
                category=category,
                attempt=attempt,
                message=message,
            )
    if not telemetry.enabled():
        return
    registry = telemetry.registry()
    if terminal:
        registry.counter_inc("runner.tasks_failed", category=category)
    else:
        registry.counter_inc("runner.tasks_retried", category=category)
    if category == "timeout":
        registry.counter_inc("runner.timeouts")


# ----------------------------------------------------------------------
# Scheduler
# ----------------------------------------------------------------------
@dataclass
class _Task:
    """Driver-side state of one item across its attempts."""

    index: int
    key: str
    item: object
    attempt: int = 1
    started: float = 0.0


class _InProcessExecutor:
    """The in-process stand-in for the pool: runs each task on submission.

    ``submit`` returns an already-completed future, so the scheduler's loop
    lands the task on its next collection.  Nothing here can break or
    hang-and-be-killed: the pool's respawn and timeout paths never fire.
    """

    def submit(self, function: Callable, *args) -> Future:
        future: Future = Future()
        future.set_result(function(*args))
        return future

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        pass


class _Scheduler:
    """Per-task future scheduling with retry, timeout, and pool recovery.

    Runs in-process when one worker (or one task) suffices and no timeout
    is set — a timeout needs a killable worker process.
    """

    def __init__(
        self,
        function: Callable,
        tasks: List[_Task],
        workers: int,
        policy: RetryPolicy,
        on_result: Optional[Callable[[int, str, object], None]],
        report: RunReport,
    ) -> None:
        self.function = function
        self.in_process = (workers == 1 or len(tasks) == 1) and policy.timeout is None
        self.workers = 1 if self.in_process else workers
        self.policy = policy
        self.on_result = on_result
        self.report = report
        # Tasks runnable now, retries included (requeued at the back).
        self.ready: deque = deque(tasks)
        self.in_flight: Dict[Future, Tuple[_Task, Optional[float]]] = {}
        self.pool = None
        # Decided once in the driver: workers only pay for telemetry capture
        # (and ship snapshot envelopes back) when the campaign asked for it.
        # In-process tasks record straight into the driver's registry,
        # which capture would reset.
        self.capture_telemetry = telemetry.enabled() and not self.in_process

    # -- pool lifecycle -------------------------------------------------
    def _spawn_pool(self) -> None:
        self.pool = (
            _InProcessExecutor()
            if self.in_process
            else ProcessPoolExecutor(max_workers=self.workers)
        )

    def _respawn_pool(self) -> None:
        self.report.pool_respawns += 1
        if telemetry.enabled():
            telemetry.registry().counter_inc("runner.pool_respawns")
        if self.report.pool_respawns > MAX_RESPAWNS:
            raise ExperimentError(
                f"process pool broke {self.report.pool_respawns} times "
                f"(more than {MAX_RESPAWNS} respawns); aborting — "
                "the environment, not individual experiments, is failing"
            )
        if self.pool is not None:
            self.pool.shutdown(wait=False, cancel_futures=True)
        self._spawn_pool()

    def _kill_pool_processes(self) -> None:
        """Terminate the pool's workers (the only way to stop a hung task)."""
        assert self.pool is not None
        processes = getattr(self.pool, "_processes", None) or {}
        for process in list(processes.values()):
            process.terminate()

    # -- outcome bookkeeping --------------------------------------------
    def _land(self, task: _Task, value: object) -> None:
        self.report.results[task.index] = value
        elapsed = time.monotonic() - task.started if task.started else 0.0
        _record_task_landed(task.key, task.attempt, elapsed)
        if self.on_result is not None:
            self.on_result(task.index, task.key, value)

    def _fail_attempt(self, task: _Task, category: str, message: str) -> None:
        """Charge one failed attempt; requeue the task or record the hole.

        ``unsupported`` failures (deterministic model refusals) go terminal
        on the first attempt — retrying a deterministic refusal can only
        waste the retry budget's wall clock.
        """
        elapsed = time.monotonic() - task.started if task.started else 0.0
        record = FailureRecord(
            key=task.key,
            category=category,
            message=message,
            attempts=task.attempt,
            elapsed=elapsed,
        )
        terminal = task.attempt >= self.policy.max_attempts or category == "unsupported"
        _record_attempt_failure(
            task.key, category, terminal=terminal, attempt=task.attempt, message=message
        )
        if terminal:
            self.report.failures.append(record)
            return
        self.report.transients.append(record)
        task.attempt += 1
        self.ready.append(task)

    # -- main loop -------------------------------------------------------
    def run(self) -> RunReport:
        self._spawn_pool()
        try:
            while self.ready or self.in_flight:
                self._submit_ready()
                self._collect()
        finally:
            if self.pool is not None:
                self.pool.shutdown(wait=False, cancel_futures=True)
        return self.report

    def _submit_ready(self) -> None:
        while self.ready and len(self.in_flight) < self.workers:
            task = self.ready.popleft()
            task.started = time.monotonic()
            _record_task_scheduled(task.key, task.attempt)
            try:
                future = self.pool.submit(
                    _run_task,
                    self.function,
                    task.key,
                    task.attempt,
                    task.item,
                    self.capture_telemetry,
                )
            except BrokenProcessPool:
                self.ready.appendleft(task)
                self._recover_from_broken_pool()
                continue
            deadline = (
                task.started + self.policy.timeout
                if self.policy.timeout is not None
                else None
            )
            self.in_flight[future] = (task, deadline)

    def _collect(self) -> None:
        now = time.monotonic()
        timeout = None
        deadlines = [dl for _, dl in self.in_flight.values() if dl is not None]
        if deadlines:
            timeout = max(0.0, min(deadlines) - now)
        done, _ = wait(list(self.in_flight), timeout=timeout, return_when=FIRST_COMPLETED)
        if not done:
            self._enforce_timeouts()
        elif self._settle(done):
            self._recover_from_broken_pool()

    def _settle(self, futures, timed_out: Optional[set] = None) -> bool:
        """Land or charge finished tasks, removing them from ``in_flight``.

        A task that ran lands its value, or is charged its own classified
        error.  A task whose future raised is charged one attempt:
        ``worker-crash`` for a broken pool (the culprit is not
        identifiable), ``exception`` for a driver-side failure such as an
        unpicklable result.  After a timeout kill (``timed_out`` given) the
        tasks that overran are charged a ``timeout`` instead, and
        bystanders are requeued uncharged.  Returns whether the pool broke.
        """
        broken = False
        for future in futures:
            task, _deadline = self.in_flight.pop(future)
            exc = future.exception()  # a broken or killed pool resolves fast
            if exc is None:
                value, error, payload = future.result()
                telemetry.merge_worker(payload)
                if error is None:
                    self._land(task, value)
                else:
                    self._fail_attempt(task, classify_failure_message(error), error)
                continue
            broken = broken or isinstance(exc, BrokenProcessPool)
            if timed_out is None:
                category = (
                    "worker-crash" if isinstance(exc, BrokenProcessPool) else "exception"
                )
                message = f"{type(exc).__name__}: {exc}"
            elif future in timed_out:
                category = "timeout"
                message = f"exceeded the {self.policy.timeout}s task timeout; worker killed"
            else:
                self.ready.append(task)  # killed through no fault of its own
                continue
            self._fail_attempt(task, category, message)
        return broken

    def _recover_from_broken_pool(self) -> None:
        """Drain doomed futures, charge crash attempts, respawn the pool.

        Once the pool is broken every in-flight future completes (with
        ``BrokenProcessPool``) almost immediately; anything that finished
        first still lands.
        """
        self._settle(list(self.in_flight))
        self._respawn_pool()

    def _enforce_timeouts(self) -> None:
        now = time.monotonic()
        guilty = {
            future
            for future, (_task, deadline) in self.in_flight.items()
            if deadline is not None and now >= deadline
        }
        if not guilty:
            return
        # A running future cannot be cancelled: kill the workers, which
        # breaks the pool, then sort the wreckage — the timed-out task is
        # charged a timeout attempt, bystanders are requeued uncharged, and
        # anything that squeaked through before the kill still lands.
        self._kill_pool_processes()
        self._settle(list(self.in_flight), timed_out=guilty)
        self._respawn_pool()


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def run_tasks(
    function: Callable[[ItemT], ResultT],
    items: Sequence[ItemT],
    keys: Optional[Sequence[str]] = None,
    workers: Optional[int] = None,
    policy: Optional[RetryPolicy] = None,
    on_result: Optional[Callable[[int, str, object], None]] = None,
) -> RunReport:
    """Run ``function`` over ``items`` fault-tolerantly; never raises per-task.

    Each attempt of each item is one submission, so a task's timeout is
    its own and a retry resubmits only that item.

    Args:
        function: pure task function (must be picklable for workers > 1).
        items: task inputs.
        keys: stable per-item labels used in failure records and fault
            matching (default: the item's index as a string).
        workers: process count; ``None`` → :func:`default_worker_count`;
            ``1`` (or a single item) runs in-process **unless** the policy
            sets a timeout (timeouts need a killable worker, so a
            single-worker pool is used instead).
        policy: retry/timeout knobs (default :class:`RetryPolicy`).
        on_result: called in the driver as each item lands (in completion
            order) with ``(index, key, value)``.

    Returns:
        A :class:`RunReport`: per-item results (``None`` at the holes),
        terminal failures, transient (retried) failures, and pool
        respawns.

    Raises:
        ConfigurationError: invalid ``workers``/``keys``.
        ExperimentError: the pool broke more than :data:`MAX_RESPAWNS`
            times — an environment-level failure no retry can fix.
    """
    if workers is not None and workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    if keys is not None and len(keys) != len(items):
        raise ConfigurationError(
            f"keys/items length mismatch: {len(keys)} != {len(items)}"
        )
    policy = policy if policy is not None else RetryPolicy()
    count = workers if workers is not None else default_worker_count()
    labels = list(keys) if keys is not None else [str(i) for i in range(len(items))]
    tasks = [_Task(index=i, key=labels[i], item=item) for i, item in enumerate(items)]
    if not tasks:
        return RunReport()
    report = RunReport(results=[None] * len(tasks))
    scheduler = _Scheduler(function, tasks, count, policy, on_result, report)
    if telemetry.enabled():
        registry = telemetry.registry()
        registry.counter_inc("runner.tasks_submitted", float(len(tasks)))
        registry.gauge_max("runner.workers", float(scheduler.workers))
    return scheduler.run()
