"""JSON-lines structured logging behind a ``REPRO_LOG`` knob.

Human-facing progress already goes to stderr; this channel is for
machines: one JSON object per line, one line per event, so a fleet's
worth of serving shards and campaign workers can be grepped, joined on
``request_id``, and loaded into any log pipeline without a parser.

Off by default.  ``REPRO_LOG`` (or :func:`configure`) selects the sink:

* ``""`` / unset / ``"0"`` — disabled (one boolean check per site);
* ``"stderr"``, ``"1"``, or ``"-"`` — JSON lines on stderr;
* anything else — a file path, opened in append mode.  Appends are
  line-buffered and short, so pre-forked shards can share one file; each
  process reopens its own handle after fork.

Every record carries ``ts`` (epoch seconds), ``pid``, and ``event``; the
current request id — set per handler thread via :func:`set_request_id` —
is attached automatically, so every event a request causes carries the
request's ``X-Request-Id``.

Event vocabulary (see docs/architecture.md for the field schema):
``serving.request``, ``serving.reload``, ``serving.reload_failed``,
``runner.task_scheduled``, ``runner.task_completed``,
``runner.task_retry``, ``runner.task_failed``.
"""

from __future__ import annotations

import contextvars
import json
import os
import sys
import threading
import time
from typing import IO, Optional

__all__ = [
    "ENV_VAR",
    "configure",
    "enabled",
    "log_event",
    "set_request_id",
    "current_request_id",
    "target",
]

#: Environment switch: "" / "0" off, "stderr"/"1"/"-" stderr, else file path.
ENV_VAR = "REPRO_LOG"

_STDERR_TOKENS = ("stderr", "1", "-")

_lock = threading.Lock()
_target: Optional[str] = None
_stream: Optional[IO[str]] = None
_stream_pid: Optional[int] = None

_request_id: "contextvars.ContextVar[Optional[str]]" = contextvars.ContextVar(
    "repro_log_request_id", default=None
)


def _normalize(raw: Optional[str]) -> Optional[str]:
    if raw is None:
        return None
    value = raw.strip()
    if value in ("", "0"):
        return None
    if value in _STDERR_TOKENS:
        return "stderr"
    return value


_target = _normalize(os.environ.get(ENV_VAR))


def enabled() -> bool:
    """Whether structured logging is currently emitting in this process."""
    return _target is not None


def target() -> Optional[str]:
    """The active sink: ``None`` (off), ``"stderr"``, or a file path."""
    return _target


def configure(raw: Optional[str]) -> None:
    """Programmatically (re)configure the sink; ``None``/``""`` disables.

    Accepts the same values as the environment variable.  Any open file
    handle is closed, so tests can redirect and restore freely.
    """
    global _target, _stream, _stream_pid
    with _lock:
        if _stream is not None:
            try:
                _stream.close()
            except OSError:
                pass
        _stream = None
        _stream_pid = None
        _target = _normalize(raw)


def set_request_id(request_id: Optional[str]) -> None:
    """Bind a request id to the current thread's context (``None`` clears).

    Subsequent :func:`log_event` calls on this thread attach it
    automatically, including events emitted from nested work.
    """
    _request_id.set(request_id)


def current_request_id() -> Optional[str]:
    """The request id bound to the current thread's context, if any."""
    return _request_id.get()


def _sink() -> IO[str]:
    global _stream, _stream_pid
    if _target == "stderr":
        return sys.stderr
    pid = os.getpid()
    if _stream is None or _stream_pid != pid:
        if _stream is not None:
            try:
                _stream.close()
            except OSError:
                pass
        _stream = open(_target, "a", encoding="utf-8")  # type: ignore[arg-type]
        _stream_pid = pid
    return _stream


def log_event(event: str, **fields: object) -> None:
    """Emit one structured log line (no-op unless logging is enabled).

    ``ts``/``pid``/``event`` are stamped automatically; the thread's bound
    request id is attached unless the caller supplies one explicitly.
    Values that are not JSON-native are stringified rather than raised on —
    a log line must never take down the code it observes.
    """
    if _target is None:
        return
    record: dict = {"ts": round(time.time(), 6), "pid": os.getpid(), "event": event}
    request_id = _request_id.get()
    if request_id is not None and "request_id" not in fields:
        record["request_id"] = request_id
    record.update(fields)
    try:
        line = json.dumps(record, sort_keys=True, default=str)
    except (TypeError, ValueError):
        line = json.dumps({"ts": record["ts"], "pid": record["pid"], "event": event})
    with _lock:
        try:
            sink = _sink()
            sink.write(line + "\n")
            sink.flush()
        except OSError:
            pass
