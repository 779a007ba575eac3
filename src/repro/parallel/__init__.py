"""Fault-tolerant parallel experiment driver (process pool with retry/timeout)."""

from .runner import (
    RetryPolicy,
    RunReport,
    default_worker_count,
    run_tasks,
)

__all__ = [
    "run_tasks",
    "default_worker_count",
    "RetryPolicy",
    "RunReport",
]
