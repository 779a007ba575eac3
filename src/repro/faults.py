"""Deterministic fault injection for exercising recovery paths.

Production measurement fleets treat partial failure as the normal case; to
*prove* the campaign driver survives worker crashes, hangs, poisoned
experiments, and corrupted cache shards, every one of those faults must be
reproducible on demand.  This module defines a declarative :class:`FaultPlan`
and a process-wide activation point that the experiment seam
(:func:`repro.core.experiments.pipeline.run_experiment`) and the sharded
cache consult.

A plan is a small JSON document::

    {
      "fail":  {"pair/fftw/mcb": "*"},        # raise InjectedFault (every attempt)
      "crash": {"baseline/mcb": [1]},         # os._exit the worker on attempt 1
      "hang":  {"impact/fftw": [1]},          # sleep hang_seconds on attempt 1
      "hang_seconds": 60.0,
      "corrupt_shards": ["degradation"]       # garble the shard's next write
    }

Activation is either programmatic (:func:`set_fault_plan`, used by tests) or
via the ``REPRO_FAULTS`` environment variable holding the JSON inline or
``@path/to/plan.json``.  Environment activation is what makes the plan reach
pool *workers*: child processes inherit the environment, so the same plan
fires identically in the driver and in every worker, serial or parallel.

Attempt numbers are 1-based and provided by the task scheduler through
:func:`set_current_attempt` — a fault keyed on attempt 1 only exercises the
retry path, a fault keyed ``"*"`` is a persistent hole.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Set, Tuple

from . import jsonfile
from .config import _finite
from .errors import ConfigurationError, CorruptDocument, InjectedFault

__all__ = [
    "FaultPlan",
    "ENV_VAR",
    "set_fault_plan",
    "active_fault_plan",
    "set_current_attempt",
    "current_attempt",
]

ENV_VAR = "REPRO_FAULTS"

#: Attempt spec: a set of 1-based attempt numbers, or None meaning "every
#: attempt" (the JSON form is an int, a list of ints or the string "*").
_Attempts = Optional[FrozenSet[int]]


def _parse_attempts(raw: object, context: str) -> _Attempts:
    if raw == "*" or raw == "all":
        return None
    attempts = raw if isinstance(raw, (list, tuple)) else [raw]
    if all(isinstance(a, int) and not isinstance(a, bool) and a >= 1 for a in attempts):
        return frozenset(attempts)
    raise ConfigurationError(
        f"fault plan {context}: attempts must be an int >= 1, a list of them, "
        f'or "*", got {raw!r}'
    )


def _matches(attempts: _Attempts, attempt: int) -> bool:
    return attempts is None or attempt in attempts


@dataclass
class FaultPlan:
    """A declarative set of faults to inject, keyed by cache key / shard group.

    Attributes:
        fail: experiment key → attempts on which to raise
            :class:`~repro.errors.InjectedFault`.
        crash: experiment key → attempts on which the hosting process exits
            hard (``os._exit``) — from a pool worker this breaks the pool.
        hang: experiment key → attempts on which the experiment sleeps
            ``hang_seconds`` (long enough to trip any sane task timeout).
        hang_seconds: how long a hung experiment sleeps.
        corrupt_shards: shard groups whose *next* on-disk write is garbled
            after landing (consumed once per group per process).
    """

    fail: Dict[str, _Attempts] = field(default_factory=dict)
    crash: Dict[str, _Attempts] = field(default_factory=dict)
    hang: Dict[str, _Attempts] = field(default_factory=dict)
    hang_seconds: float = 3600.0
    corrupt_shards: Tuple[str, ...] = ()
    _corrupted: Set[str] = field(default_factory=set, repr=False, compare=False)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        known = {"fail", "crash", "hang", "hang_seconds", "corrupt_shards"}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"fault plan has unknown field(s): {', '.join(map(repr, sorted(unknown)))}"
            )

        def spec(name: str) -> Dict[str, _Attempts]:
            raw = data.get(name, {})
            if not isinstance(raw, dict):
                raise ConfigurationError(f"fault plan {name!r} must be an object")
            return {
                key: _parse_attempts(value, f"{name}[{key!r}]")
                for key, value in raw.items()
            }

        corrupt = data.get("corrupt_shards", ())
        if not isinstance(corrupt, (list, tuple)) or not all(
            isinstance(g, str) for g in corrupt
        ):
            raise ConfigurationError(
                "fault plan 'corrupt_shards' must be a list of shard groups"
            )
        hang_seconds = _finite(
            data.get("hang_seconds", 3600.0), "fault plan 'hang_seconds'"
        )
        if hang_seconds < 0:
            raise ConfigurationError(
                f"fault plan 'hang_seconds' must be >= 0, got {hang_seconds!r}"
            )
        return cls(
            fail=spec("fail"),
            crash=spec("crash"),
            hang=spec("hang"),
            hang_seconds=hang_seconds,
            corrupt_shards=tuple(corrupt),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse a plan from its JSON ``text``, or from ``@path`` to a file."""
        try:
            if text.startswith("@"):
                data = jsonfile.read(text[1:], f"fault plan {text[1:]}")
            else:
                data = jsonfile.parse(text, "fault plan")
        except CorruptDocument as exc:
            raise ConfigurationError(str(exc)) from exc
        if not isinstance(data, dict):
            raise ConfigurationError("fault plan JSON must be an object")
        return cls.from_dict(data)

    def is_empty(self) -> bool:
        return not (self.fail or self.crash or self.hang or self.corrupt_shards)

    # ------------------------------------------------------------------
    # Injection points
    # ------------------------------------------------------------------
    def on_experiment(self, key: str, attempt: int) -> None:
        """Fire any fault this plan holds for ``key`` on ``attempt``.

        Called by :func:`repro.core.experiments.pipeline.run_experiment`
        before dispatching to the engine — i.e. inside whichever process
        (driver or pool worker) actually executes the experiment.
        """
        if _matches(self.crash.get(key, frozenset()), attempt):
            os._exit(23)  # simulated hard worker death: no cleanup, no excuse
        if _matches(self.hang.get(key, frozenset()), attempt):
            time.sleep(self.hang_seconds)
        if _matches(self.fail.get(key, frozenset()), attempt):
            raise InjectedFault(f"injected failure for {key!r} (attempt {attempt})")

    def take_shard_corruption(self, group: str) -> bool:
        """True exactly once per group listed in ``corrupt_shards``."""
        if group in self.corrupt_shards and group not in self._corrupted:
            self._corrupted.add(group)
            return True
        return False


# ----------------------------------------------------------------------
# Process-wide activation
# ----------------------------------------------------------------------
_override: Optional[FaultPlan] = None
_override_set = False
_env_cache: Tuple[Optional[str], Optional[FaultPlan]] = (None, None)


def set_fault_plan(plan: Optional[FaultPlan]) -> None:
    """Programmatically activate ``plan`` (or ``None`` to clear the override).

    An explicit plan takes precedence over ``REPRO_FAULTS``; clearing the
    override falls back to the environment again.  Tests should pair this
    with a ``finally: set_fault_plan(None)`` (or use the env var + monkeypatch).
    """
    global _override, _override_set
    _override = plan
    _override_set = plan is not None


def active_fault_plan() -> Optional[FaultPlan]:
    """The plan currently in force, or ``None`` (the overwhelmingly common case).

    Environment plans are parsed once per distinct ``REPRO_FAULTS`` value and
    cached, so the consumed-once state of shard corruption survives repeated
    lookups within one process.
    """
    global _env_cache
    if _override_set:
        return _override
    raw = os.environ.get(ENV_VAR)
    if not raw:
        return None
    if _env_cache[0] == raw:
        return _env_cache[1]
    plan = FaultPlan.from_json(raw)
    _env_cache = (raw, plan if not plan.is_empty() else None)
    return _env_cache[1]


# ----------------------------------------------------------------------
# Attempt context (set by the task scheduler, read by the injection point)
# ----------------------------------------------------------------------
_current_attempt = 1


def set_current_attempt(attempt: int) -> None:
    """Record which attempt of the current task is executing (1-based)."""
    global _current_attempt
    _current_attempt = attempt


def current_attempt() -> int:
    """The executing task's attempt number (1 outside any scheduler)."""
    return _current_attempt
