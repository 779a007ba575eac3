"""Fault-tolerant parallel experiment driver (process pool with retry/timeout)."""

from .runner import (
    RetryPolicy,
    RunReport,
    admit_within_budget,
    default_worker_count,
    run_tasks,
)

__all__ = [
    "run_tasks",
    "admit_within_budget",
    "default_worker_count",
    "RetryPolicy",
    "RunReport",
]
