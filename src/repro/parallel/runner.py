"""Fault-tolerant parallel experiment execution.

The reproduction campaign is embarrassingly parallel: every experiment
builds its own machine and shares nothing.  :func:`run_tasks` runs a pure
function over task items with per-task future scheduling and a
:class:`RetryPolicy` — bounded retries with exponential backoff and
deterministic jitter, a per-task timeout that kills and recycles hung
workers, and recovery from a broken process pool (respawn, requeue the
in-flight items).  A task that exhausts its attempts becomes a structured
:class:`~repro.errors.FailureRecord` instead of taking the campaign down.

One scheduler drives both execution modes.  With one worker (or one task)
and no timeout it runs in-process, through an executor that runs each
chunk the moment it is submitted; otherwise through a process pool.
Retries, backoff, refunds, and failure bookkeeping are the same code
either way.

Functions and items must be picklable (top-level functions, dataclass
configs) for the process-pool path.
"""

from __future__ import annotations

import os
import random
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
        backoff_base: sleep before the second attempt, in seconds.
        backoff_factor: multiplier per further attempt (exponential).
        backoff_max: backoff ceiling in seconds.
        jitter: fractional jitter added to each backoff, derived
            deterministically from ``(task key, attempt)`` so reruns behave
            identically.
        max_respawns: how many times the process pool may be rebuilt (after
            crashes or timeout kills) before the run aborts.
    """

    max_attempts: int = 2
    timeout: Optional[float] = None
    backoff_base: float = 0.1
    backoff_factor: float = 2.0
    backoff_max: float = 30.0
    jitter: float = 0.1
    max_respawns: int = 5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.timeout is not None and self.timeout <= 0:
            raise ConfigurationError(f"timeout must be > 0, got {self.timeout}")
        if self.backoff_base < 0 or self.backoff_factor < 1 or self.backoff_max < 0:
            raise ConfigurationError("invalid backoff parameters")
        if not 0 <= self.jitter <= 1:
            raise ConfigurationError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.max_respawns < 0:
            raise ConfigurationError(
                f"max_respawns must be >= 0, got {self.max_respawns}"
            )

    def backoff_delay(self, key: str, attempt: int) -> float:
        """Seconds to wait before retry number ``attempt`` (2-based).

        Exponential in the attempt number with a deterministic jitter seeded
        from ``(key, attempt)``: two runs of the same campaign back off
        identically, but different tasks desynchronize.
        """
        if self.backoff_base == 0:
            return 0.0
        raw = self.backoff_base * self.backoff_factor ** max(0, attempt - 2)
        unit = random.Random(f"{key}:{attempt}").random()
        return min(self.backoff_max, raw * (1.0 + self.jitter * unit))


@dataclass
class RunReport:
    """Outcome of one :func:`run_tasks` call.

    Attributes:
        results: per-item results in item order; ``None`` where the task
            failed permanently or was skipped for budget (check ``failures``
            / ``skipped`` to distinguish a ``None`` result from a hole).
        failures: terminal :class:`~repro.errors.FailureRecord` s.
        transients: attempt-level failures that were later retried
            (successfully or not) — the observability trail of the retry
            machinery.
        pool_respawns: times the process pool was rebuilt.
        skipped: keys of tasks never scheduled because their estimated cost
            did not fit the remaining measurement budget (in item order).
        budget_spent: estimated cost charged against the budget — admitted
            tasks' costs minus any refunds.
        budget_refunded: cost given back for tasks that turned out to be
            deterministic model refusals (``unsupported``): a refusal is
            free knowledge, not a spent experiment.
    """

    results: List[Optional[object]] = field(default_factory=list)
    failures: List[FailureRecord] = field(default_factory=list)
    transients: List[FailureRecord] = field(default_factory=list)
    pool_respawns: int = 0
    skipped: List[str] = field(default_factory=list)
    budget_spent: float = 0.0
    budget_refunded: float = 0.0


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _run_chunk(
    function: Callable[[ItemT], ResultT],
    entries: List[Tuple[int, str, int, ItemT]],
    capture_telemetry: bool = False,
) -> Tuple[List[Tuple[int, Optional[ResultT], Optional[str]]], Optional[dict]]:
    """Worker entry point: run a chunk of ``(index, key, attempt, item)``.

    Per-item exceptions are captured as strings so one bad experiment never
    poisons its chunk-mates or the pool; only a hard process death (crash
    fault, segfault, OOM) escapes, surfacing driver-side as a broken pool.

    Returns ``(outcomes, telemetry_payload)``.  With ``capture_telemetry``
    the worker's registry/tracer are reset at chunk start (discarding any
    state inherited from a fork) and their delta — per-task spans plus
    whatever the task function itself recorded — is snapshotted into the
    envelope for the driver to merge; otherwise the payload is ``None``.
    """
    if capture_telemetry:
        telemetry.enable()
        telemetry.reset()
    outcomes: List[Tuple[int, Optional[ResultT], Optional[str]]] = []
    for index, key, attempt, item in entries:
        faults.set_current_attempt(attempt)
        try:
            with telemetry.span(f"task:{key}", "runner", attempt=attempt):
                outcomes.append((index, function(item), None))
        except Exception as exc:
            outcomes.append((index, None, f"{type(exc).__name__}: {exc}"))
        finally:
            faults.set_current_attempt(1)
    payload = telemetry.snapshot() if capture_telemetry else None
    return outcomes, payload


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
    delay: float = 0.0,
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
                delay=round(delay, 3),
                message=message,
            )
    if not telemetry.enabled():
        return
    registry = telemetry.registry()
    if terminal:
        registry.counter_inc("runner.tasks_failed", category=category)
    else:
        registry.counter_inc("runner.tasks_retried", category=category)
        if delay > 0:
            registry.counter_inc("runner.backoff_sleeps")
            registry.counter_inc("runner.backoff_seconds", delay)
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
    cost: float = 0.0


class _InProcessExecutor:
    """The in-process stand-in for the pool: runs each chunk on submission.

    ``submit`` returns an already-completed future, so the scheduler's loop
    lands the chunk on its next collection.  Nothing here can break or
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
        chunksize: int,
        policy: RetryPolicy,
        on_result: Optional[Callable[[int, str, object], None]],
        report: Optional[RunReport] = None,
    ) -> None:
        self.function = function
        self.tasks = {task.index: task for task in tasks}
        self.in_process = (workers == 1 or len(tasks) == 1) and policy.timeout is None
        self.workers = 1 if self.in_process else workers
        self.chunksize = chunksize
        self.policy = policy
        self.on_result = on_result
        self.report = report if report is not None else RunReport(results=[None] * len(tasks))
        # ready: chunks runnable now; waiting: (ready_at, chunk) backoff queue.
        self.ready: deque = deque()
        self.waiting: List[Tuple[float, List[_Task]]] = []
        for start in range(0, len(tasks), chunksize):
            self.ready.append(tasks[start : start + chunksize])
        self.in_flight: Dict[Future, Tuple[List[_Task], Optional[float]]] = {}
        self.pool = None
        # Decided once in the driver: workers only pay for telemetry capture
        # (and ship snapshot envelopes back) when the campaign asked for it.
        # In-process chunks record straight into the driver's registry,
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
        if self.report.pool_respawns > self.policy.max_respawns:
            raise ExperimentError(
                f"process pool broke {self.report.pool_respawns} times "
                f"(max_respawns={self.policy.max_respawns}); aborting — "
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
        del self.tasks[task.index]

    def _fail_attempt(self, task: _Task, category: str, message: str) -> None:
        """Charge one failed attempt; requeue with backoff or record the hole.

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
        if task.attempt >= self.policy.max_attempts or category == "unsupported":
            self.report.failures.append(record)
            if category == "unsupported":
                _refund_cost(self.report, task)
            _record_attempt_failure(
                task.key, category, terminal=True, attempt=task.attempt, message=message
            )
            del self.tasks[task.index]
            return
        self.report.transients.append(record)
        delay = self.policy.backoff_delay(task.key, task.attempt + 1)
        _record_attempt_failure(
            task.key,
            category,
            terminal=False,
            attempt=task.attempt,
            message=message,
            delay=delay,
        )
        task.attempt += 1
        self.waiting.append((time.monotonic() + delay, [task]))

    def _requeue(self, tasks: List[_Task]) -> None:
        """Put innocent (killed-through-no-fault) tasks back, uncharged."""
        live = [task for task in tasks if task.index in self.tasks]
        if live:
            self.ready.append(live)

    # -- main loop -------------------------------------------------------
    def run(self) -> RunReport:
        self._spawn_pool()
        try:
            while self.ready or self.waiting or self.in_flight:
                self._promote_waiting()
                self._submit_ready()
                if not self.in_flight:
                    self._sleep_until_next_waiting()
                    continue
                self._collect()
        finally:
            if self.pool is not None:
                self.pool.shutdown(wait=False, cancel_futures=True)
        return self.report

    def _promote_waiting(self) -> None:
        now = time.monotonic()
        still_waiting = []
        for ready_at, chunk in self.waiting:
            if ready_at <= now:
                self.ready.append(chunk)
            else:
                still_waiting.append((ready_at, chunk))
        self.waiting = still_waiting

    def _submit_ready(self) -> None:
        while self.ready and len(self.in_flight) < self.workers:
            chunk = [task for task in self.ready.popleft() if task.index in self.tasks]
            if not chunk:
                continue
            now = time.monotonic()
            for task in chunk:
                task.started = now
                _record_task_scheduled(task.key, task.attempt)
            entries = [
                (task.index, task.key, task.attempt, task.item) for task in chunk
            ]
            try:
                future = self.pool.submit(
                    _run_chunk, self.function, entries, self.capture_telemetry
                )
            except BrokenProcessPool:
                self.ready.appendleft(chunk)
                self._recover_from_broken_pool()
                continue
            deadline = (
                now + self.policy.timeout * len(chunk)
                if self.policy.timeout is not None
                else None
            )
            self.in_flight[future] = (chunk, deadline)

    def _sleep_until_next_waiting(self) -> None:
        if not self.waiting:
            return
        delay = min(ready_at for ready_at, _ in self.waiting) - time.monotonic()
        if delay > 0:
            time.sleep(min(delay, 0.5))

    def _collect(self) -> None:
        now = time.monotonic()
        timeout = None
        deadlines = [dl for _, dl in self.in_flight.values() if dl is not None]
        if deadlines:
            timeout = max(0.0, min(deadlines) - now)
        if self.waiting:
            next_ready = min(ready_at for ready_at, _ in self.waiting) - now
            timeout = max(0.0, next_ready) if timeout is None else min(timeout, max(0.0, next_ready))
        done, _ = wait(list(self.in_flight), timeout=timeout, return_when=FIRST_COMPLETED)
        if not done:
            self._enforce_timeouts()
        elif self._settle(done):
            self._recover_from_broken_pool()

    def _chunk_outcomes(self, future: Future) -> List[Tuple[int, object, Optional[str]]]:
        """Unpack a finished chunk envelope, folding its telemetry delta in."""
        outcomes, payload = future.result()
        telemetry.merge_worker(payload)
        return outcomes

    def _settle(self, futures, timed_out: Optional[set] = None) -> bool:
        """Land or charge finished chunks, removing them from ``in_flight``.

        A chunk that ran lands each outcome; an item that raised is charged
        its own classified error.  A chunk whose future raised charges each
        live task one attempt: ``worker-crash`` for a broken pool (the
        culprit is not identifiable), ``exception`` for a driver-side
        failure such as an unpicklable result.  After a timeout kill
        (``timed_out`` given) the chunks that overran are charged a
        ``timeout`` instead, and bystanders are requeued uncharged.
        Returns whether the pool broke.
        """
        broken = False
        for future in futures:
            chunk, _deadline = self.in_flight.pop(future)
            exc = future.exception()  # a broken or killed pool resolves fast
            if exc is None:
                for index, value, error in self._chunk_outcomes(future):
                    task = self.tasks.get(index)
                    if task is None:
                        continue
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
                self._requeue(chunk)
                continue
            for task in chunk:
                if task.index in self.tasks:
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
            for future, (_chunk, deadline) in self.in_flight.items()
            if deadline is not None and now >= deadline
        }
        if not guilty:
            return
        # A running future cannot be cancelled: kill the workers, which
        # breaks the pool, then sort the wreckage — the timed-out chunk is
        # charged a timeout attempt, bystanders are requeued uncharged, and
        # anything that squeaked through before the kill still lands.
        self._kill_pool_processes()
        self._settle(list(self.in_flight), timed_out=guilty)
        self._respawn_pool()


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def _refund_cost(report: RunReport, task: _Task) -> None:
    """Give a deterministic refusal's estimated cost back to the budget."""
    if task.cost <= 0:
        return
    report.budget_spent -= task.cost
    report.budget_refunded += task.cost
    if telemetry.enabled():
        telemetry.registry().counter_inc("runner.budget_refunded", task.cost)


def _admit_for_budget(
    tasks: List[_Task], budget: Optional[float], report: RunReport
) -> List[_Task]:
    """Budget admission control: the scheduling half of the planner seam.

    Tasks are admitted in item order while their estimated cost still fits
    the remaining budget; a task that does not fit is recorded in
    ``report.skipped`` (later, cheaper tasks may still be admitted).  The
    decision is made once, up front, from the deterministic cost estimates
    — never from wall-clock measurements or completion order — so the same
    items, costs, and budget always admit the same subset, whatever the
    worker count.  With ``budget=None`` every task is admitted and
    ``budget_spent`` simply accumulates the estimated costs.
    """
    admitted: List[_Task] = []
    for task in tasks:
        if budget is not None and report.budget_spent + task.cost > budget + 1e-9:
            report.skipped.append(task.key)
            continue
        admitted.append(task)
        report.budget_spent += task.cost
    if report.skipped and telemetry.enabled():
        telemetry.registry().counter_inc(
            "runner.tasks_skipped", float(len(report.skipped)), reason="budget"
        )
    return admitted


def run_tasks(
    function: Callable[[ItemT], ResultT],
    items: Sequence[ItemT],
    keys: Optional[Sequence[str]] = None,
    workers: Optional[int] = None,
    chunksize: int = 1,
    policy: Optional[RetryPolicy] = None,
    on_result: Optional[Callable[[int, str, object], None]] = None,
    costs: Optional[Sequence[float]] = None,
    budget: Optional[float] = None,
) -> RunReport:
    """Run ``function`` over ``items`` fault-tolerantly; never raises per-task.

    Args:
        function: pure task function (must be picklable for workers > 1).
        items: task inputs.
        keys: stable per-item labels used in failure records, fault matching,
            and backoff jitter (default: the item's index as a string).
        workers: process count; ``None`` → :func:`default_worker_count`;
            ``1`` (or a single item) runs in-process **unless** the policy
            sets a timeout (timeouts need a killable worker, so a
            single-worker pool is used instead).
        chunksize: items per pool submission (amortizes IPC for many small
            tasks; timeouts scale with chunk length; retries always resubmit
            individually).
        policy: retry/timeout/backoff knobs (default :class:`RetryPolicy`).
        on_result: called in the driver as each item lands (in completion
            order) with ``(index, key, value)``.
        costs: estimated cost per item, same length as ``items``.  Costs
            accumulate into ``report.budget_spent``; without a ``budget``
            they are purely informational.
        budget: admission ceiling over ``costs``.  Items are admitted in
            order while their estimated cost fits the remaining budget;
            the rest land in ``report.skipped`` with ``results[i] = None``
            and are never scheduled.  Admission is decided up front from
            the estimates, so it is deterministic regardless of worker
            count or completion order.  An item that terminally fails as
            ``unsupported`` refunds its cost (reported, not re-admitted).

    Returns:
        A :class:`RunReport`: per-item results (``None`` at the holes),
        terminal failures, transient (retried) failures, pool respawns,
        and budget accounting (``skipped``/``budget_spent``/
        ``budget_refunded``).

    Raises:
        ConfigurationError: invalid ``workers``/``chunksize``/``keys``/
            ``costs``/``budget``.
        ExperimentError: the pool broke more than ``policy.max_respawns``
            times — an environment-level failure no retry can fix.
    """
    if workers is not None and workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    if chunksize < 1:
        raise ConfigurationError(f"chunksize must be >= 1, got {chunksize}")
    if keys is not None and len(keys) != len(items):
        raise ConfigurationError(
            f"keys/items length mismatch: {len(keys)} != {len(items)}"
        )
    if costs is not None and len(costs) != len(items):
        raise ConfigurationError(
            f"costs/items length mismatch: {len(costs)} != {len(items)}"
        )
    if budget is not None:
        if costs is None:
            raise ConfigurationError("budget requires per-item costs")
        if budget < 0:
            raise ConfigurationError(f"budget must be >= 0, got {budget}")
    policy = policy if policy is not None else RetryPolicy()
    count = workers if workers is not None else default_worker_count()
    labels = list(keys) if keys is not None else [str(i) for i in range(len(items))]
    tasks = [_Task(index=i, key=labels[i], item=item) for i, item in enumerate(items)]
    if costs is not None:
        for task, cost in zip(tasks, costs):
            if cost < 0:
                raise ConfigurationError(
                    f"cost for task {task.key!r} must be >= 0, got {cost}"
                )
            task.cost = float(cost)
    if not tasks:
        return RunReport()
    report = RunReport(results=[None] * len(tasks))
    tasks = _admit_for_budget(tasks, budget, report)
    if not tasks:
        return report
    scheduler = _Scheduler(
        function, tasks, count, chunksize, policy, on_result, report=report
    )
    if telemetry.enabled():
        registry = telemetry.registry()
        registry.counter_inc("runner.tasks_submitted", float(len(tasks)))
        registry.gauge_max("runner.workers", float(scheduler.workers))
    return scheduler.run()

