"""Dependency-free metrics: counters, gauges, and histograms with labels.

A :class:`MetricsRegistry` is a thread-safe, process-local store of named
instruments.  Three instrument families cover everything the reproduction
stack needs to observe about itself:

* **counters** — monotone tallies (events executed, cache hits, retries);
* **gauges** — last-known or high-water values (max heap depth, workload
  wait fractions);
* **histograms** — value distributions in fixed log₂ buckets (switch
  utilization samples, fixed-point residuals, per-run wall seconds).

Every instrument is addressed by a name plus optional labels, serialized
into a stable ``name{key=value,...}`` string, which makes a registry
snapshot a plain JSON object — picklable across the process pool, mergeable
across workers, and diff-able across campaigns.

The merge algebra is deliberately associative and commutative (counters
add, gauges take the max, histograms add bucket-wise and combine extrema),
so merging N worker snapshots in any order or grouping yields the same
totals as running everything in one process — a property the test suite
checks both algebraically and against a real two-worker campaign.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Mapping, Optional

__all__ = [
    "MetricsRegistry",
    "MetricsSnapshot",
    "NONFINITE_BUCKET",
    "histogram_percentile",
    "merge_snapshots",
    "parse_key",
    "serialize_key",
]

#: Snapshot document shape: three JSON objects keyed by serialized names.
MetricsSnapshot = Dict[str, Dict[str, object]]

#: Histogram bucket clamp: values outside [2^-64, 2^64) land on the edges.
_BUCKET_MIN = -64
_BUCKET_MAX = 64

#: Histogram bucket that tallies NaN/±inf samples (kept out of sum/extrema).
NONFINITE_BUCKET = "nonfinite"

#: Characters that would make ``name{k=v,...}`` ambiguous if they appeared
#: raw inside a label value; each is backslash-escaped on serialize.
_KEY_SPECIALS = "\\={,}"


def _escape_label_value(value: str) -> str:
    out = []
    for ch in value:
        if ch in _KEY_SPECIALS:
            out.append("\\" + ch)
        elif ch == "\n":
            out.append("\\n")
        else:
            out.append(ch)
    return "".join(out)


def serialize_key(name: str, labels: Mapping[str, object]) -> str:
    """Stable string address of one instrument: ``name{k=v,...}``.

    Labels are sorted, so the same logical instrument always serializes to
    the same key no matter the call-site keyword order.  Label values are
    backslash-escaped (``\\`` ``=`` ``,`` ``{`` ``}`` and newlines) so that
    hostile or merely unlucky values — request paths, error strings — can
    never collide with a differently-labelled instrument.  :func:`parse_key`
    is the exact inverse.
    """
    if not labels:
        return name
    parts = ",".join(
        f"{k}={_escape_label_value(str(labels[k]))}" for k in sorted(labels)
    )
    return f"{name}{{{parts}}}"


def parse_key(key: str) -> "tuple[str, Dict[str, str]]":
    """Invert :func:`serialize_key`: ``name{k=v,...}`` → ``(name, labels)``.

    Backslash escapes produced by :func:`serialize_key` are undone, so
    ``parse_key(serialize_key(n, l))`` round-trips for any label values.
    Keys without labels parse as ``(key, {})``.
    """
    brace = key.find("{")
    if brace < 0:
        return key, {}
    if not key.endswith("}"):
        raise ValueError(f"malformed instrument key: {key!r}")
    name = key[:brace]
    body = key[brace + 1 : -1]
    labels: Dict[str, str] = {}
    if not body:
        return name, labels
    label_key: Optional[str] = None
    current: list = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\" and i + 1 < len(body):
            nxt = body[i + 1]
            current.append("\n" if nxt == "n" else nxt)
            i += 2
            continue
        if ch == "=" and label_key is None:
            label_key = "".join(current)
            current = []
        elif ch == "," and label_key is not None:
            labels[label_key] = "".join(current)
            label_key = None
            current = []
        else:
            current.append(ch)
        i += 1
    if label_key is None:
        raise ValueError(f"malformed instrument key: {key!r}")
    labels[label_key] = "".join(current)
    return name, labels


def _bucket_of(value: float) -> str:
    """Log₂ bucket label of a finite value (``"zero"`` for v <= 0)."""
    if not math.isfinite(value):
        return NONFINITE_BUCKET
    if value <= 0.0:
        return "zero"
    index = int(math.floor(math.log2(value)))
    return str(max(_BUCKET_MIN, min(_BUCKET_MAX, index)))


def _empty_histogram() -> Dict[str, object]:
    return {"count": 0, "sum": 0.0, "min": None, "max": None, "buckets": {}}


class MetricsRegistry:
    """A thread-safe store of counters, gauges, and histograms.

    All updates go through methods (no instrument objects to plumb around);
    the internal state *is* the snapshot shape, so :meth:`snapshot` is a
    cheap deep copy and :meth:`merge` needs no parsing.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Dict[str, object]] = {}

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def counter_inc(self, name: str, amount: float = 1.0, **labels: object) -> None:
        """Add ``amount`` to a counter (created at zero on first touch)."""
        key = serialize_key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + amount

    def gauge_set(self, name: str, value: float, **labels: object) -> None:
        """Set a gauge to ``value`` (last write wins within a process)."""
        key = serialize_key(name, labels)
        with self._lock:
            self._gauges[key] = float(value)

    def gauge_max(self, name: str, value: float, **labels: object) -> None:
        """Raise a gauge to ``value`` if it is higher (high-water marks)."""
        key = serialize_key(name, labels)
        with self._lock:
            current = self._gauges.get(key)
            if current is None or value > current:
                self._gauges[key] = float(value)

    def observe(self, name: str, value: float, **labels: object) -> None:
        """Record one sample into a histogram.

        Non-finite samples (NaN, ±inf) are tallied in the dedicated
        :data:`NONFINITE_BUCKET` and counted, but kept out of ``sum`` and
        the extrema — one bad sample must not poison a whole campaign's
        aggregates with NaN.
        """
        key = serialize_key(name, labels)
        sample = float(value)
        finite = math.isfinite(sample)
        with self._lock:
            state = self._histograms.get(key)
            if state is None:
                state = self._histograms[key] = _empty_histogram()
            state["count"] = int(state["count"]) + 1  # type: ignore[arg-type]
            if finite:
                state["sum"] = float(state["sum"]) + sample  # type: ignore[arg-type]
                state["min"] = sample if state["min"] is None else min(state["min"], sample)  # type: ignore[type-var]
                state["max"] = sample if state["max"] is None else max(state["max"], sample)  # type: ignore[type-var]
            buckets: Dict[str, int] = state["buckets"]  # type: ignore[assignment]
            bucket = _bucket_of(sample)
            buckets[bucket] = buckets.get(bucket, 0) + 1

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def counter_value(self, name: str, **labels: object) -> float:
        """Current value of one counter (0.0 if never touched)."""
        with self._lock:
            return self._counters.get(serialize_key(name, labels), 0.0)

    def gauge_value(self, name: str, **labels: object) -> Optional[float]:
        """Current value of one gauge (``None`` if never set)."""
        with self._lock:
            return self._gauges.get(serialize_key(name, labels))

    def histogram_state(self, name: str, **labels: object) -> Dict[str, object]:
        """A copy of one histogram's state (empty shape if never observed)."""
        with self._lock:
            state = self._histograms.get(serialize_key(name, labels))
            if state is None:
                return _empty_histogram()
            copy = dict(state)
            copy["buckets"] = dict(state["buckets"])  # type: ignore[arg-type]
            return copy

    def snapshot(self) -> MetricsSnapshot:
        """JSON-ready copy of everything: counters, gauges, histograms."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    key: {**state, "buckets": dict(state["buckets"])}  # type: ignore[arg-type]
                    for key, state in self._histograms.items()
                },
            }

    # ------------------------------------------------------------------
    # Merge & reset
    # ------------------------------------------------------------------
    def merge(self, snapshot: Mapping[str, object]) -> None:
        """Fold another registry's snapshot into this one.

        Counters add; gauges keep the max; histograms add counts/sums
        bucket-wise and combine extrema — the same algebra as
        :func:`merge_snapshots`, so driver-side accumulation over worker
        deltas is order-independent.
        """
        with self._lock:
            merged = merge_snapshots(self.snapshot(), snapshot)
            self._counters = merged["counters"]  # type: ignore[assignment]
            self._gauges = merged["gauges"]  # type: ignore[assignment]
            self._histograms = merged["histograms"]  # type: ignore[assignment]

    def reset(self) -> None:
        """Drop every instrument (workers call this at task start)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


def _merge_histogram(
    left: Mapping[str, object], right: Mapping[str, object]
) -> Dict[str, object]:
    buckets: Dict[str, int] = dict(left.get("buckets", {}))  # type: ignore[arg-type]
    for bucket, count in right.get("buckets", {}).items():  # type: ignore[union-attr]
        buckets[bucket] = buckets.get(bucket, 0) + count
    extrema = [v for v in (left.get("min"), right.get("min")) if v is not None]
    maxima = [v for v in (left.get("max"), right.get("max")) if v is not None]
    return {
        "count": int(left.get("count", 0)) + int(right.get("count", 0)),  # type: ignore[arg-type]
        "sum": float(left.get("sum", 0.0)) + float(right.get("sum", 0.0)),  # type: ignore[arg-type]
        "min": min(extrema) if extrema else None,
        "max": max(maxima) if maxima else None,
        "buckets": buckets,
    }


def merge_snapshots(
    left: Mapping[str, object], right: Mapping[str, object]
) -> MetricsSnapshot:
    """Merge two registry snapshots into a new one (pure function).

    Associative and commutative by construction: counters add, gauges take
    the max, histograms merge bucket-wise.  Inputs are not modified.
    """
    counters: Dict[str, float] = dict(left.get("counters", {}))  # type: ignore[arg-type]
    for key, value in right.get("counters", {}).items():  # type: ignore[union-attr]
        counters[key] = counters.get(key, 0.0) + value
    gauges: Dict[str, float] = dict(left.get("gauges", {}))  # type: ignore[arg-type]
    for key, value in right.get("gauges", {}).items():  # type: ignore[union-attr]
        current = gauges.get(key)
        gauges[key] = value if current is None else max(current, value)
    histograms: Dict[str, Dict[str, object]] = {
        key: {**state, "buckets": dict(state.get("buckets", {}))}  # type: ignore[arg-type]
        for key, state in left.get("histograms", {}).items()  # type: ignore[union-attr]
    }
    for key, state in right.get("histograms", {}).items():  # type: ignore[union-attr]
        histograms[key] = _merge_histogram(histograms.get(key, _empty_histogram()), state)
    return {"counters": counters, "gauges": gauges, "histograms": histograms}


def histogram_percentile(state: Mapping[str, object], quantile: float) -> Optional[float]:
    """Upper-edge percentile estimate from a log₂ histogram state.

    Walks buckets in value order (``zero`` first, then ascending exponents)
    until the cumulative count covers ``quantile`` of the finite samples and
    returns that bucket's upper edge (``2^(i+1)``) — a conservative bound,
    exact to within one bucket width.  Non-finite samples are excluded; an
    empty histogram returns ``None``.
    """
    buckets: Mapping[str, int] = state.get("buckets", {})  # type: ignore[assignment]
    finite_total = sum(
        count for label, count in buckets.items() if label != NONFINITE_BUCKET
    )
    if finite_total <= 0:
        return None
    maximum = state.get("max")
    target = quantile * finite_total
    seen = buckets.get("zero", 0)
    if seen >= target:
        return 0.0
    for exponent in sorted(
        int(label) for label in buckets if label not in ("zero", NONFINITE_BUCKET)
    ):
        seen += buckets[str(exponent)]
        if seen >= target:
            edge = 2.0 ** (exponent + 1)
            # The observed maximum is a tighter bound than the top edge of
            # the final bucket the quantile lands in.
            return min(edge, float(maximum)) if maximum is not None else edge
    return float(maximum) if maximum is not None else None
