"""Pure helpers shared by the harness command, its workloads and its tests.

Nothing here imports ``repro``: the command (``bench.py``) stays a stdlib
program so it can report a missing source tree instead of crashing on it.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import math
import os
import platform
import signal
import socket
import statistics
import time
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

#: Percentiles a tail is reported at, highest first.
PERCENTILE_LADDER = (99.9, 99.0, 90.0, 50.0)

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10

#: Share of pairs the new side must win before a gain may be claimed.
GAIN_WIN_SHARE = 0.9

#: The speed probe times its work once every this many seconds of wall time.
PROBE_INTERVAL = 0.03

#: The probe work's fastest time on the host the bounds were measured on
#: (2 shared vCPUs).  Timed phases are reported at that speed; the value
#: only sets the unit.
PROBE_S = 0.0014

#: The same for the socket probe work, :func:`_round_trips`.
SOCKET_PROBE_S = 0.00014


class _Node:
    __slots__ = ("value", "children")

    def __init__(self, value: int) -> None:
        self.value = value
        self.children: List["_Node"] = []

    def total(self) -> int:
        return self.value + sum(child.total() for child in self.children)


def _probe_work() -> None:
    """A small fixed mix of what the program spends its time on.

    Heap-ordered event tuples and dict updates (the simulator kernel),
    small objects, method calls and generators (simulated processes), and
    short numpy expressions (the analytic and fluid solvers).
    """
    import numpy as np

    heap: list = []
    table: Dict[int, float] = {}
    for i in range(1_000):
        heapq.heappush(heap, ((i * 7919) % 1000 * 1e-3, i, (i, i & 15)))
        table[i & 1023] = table.get(i & 1023, 0) + 1
        if len(heap) > 64:
            _, _, item = heapq.heappop(heap)
            table[item[1]] = table.get(item[1], 0) + item[0] % 3

    def accumulate(step: int):
        total = 0
        while True:
            total += (yield total) * step

    for r in range(60):
        root = _Node(r)
        for i in range(6):
            child = _Node(i)
            child.children.append(_Node(i * 2))
            root.children.append(child)
        generator = accumulate(3)
        next(generator)
        for i in range(5):
            generator.send(i)
        root.total()

    values = np.linspace(0.0, 1.0, 64)
    for _ in range(35):
        clipped = np.minimum(values * 1.5 + 0.25, 1.0)
        values = np.sqrt(clipped) * (1.0 - 1e-9)
        float(clipped.sum())


def _round_trips(ends: Tuple[socket.socket, socket.socket]) -> None:
    """Loopback socket round trips: the kernel path each served request takes."""
    near, far = ends
    for _ in range(40):
        near.send(b"x" * 64)
        far.recv(64)
        far.send(b"y" * 64)
        near.recv(64)


class SpeedProbe:
    """Samples the machine's speed while a timed phase runs.

    This host's speed drifts: for seconds at a time the same code runs up
    to twice as slow, while the guest sees no CPU steal and CPU time tracks
    wall time.  So a timer signal interrupts the phase every
    :data:`PROBE_INTERVAL` seconds and times the fixed probe work, and
    :meth:`rescale` reports the phase at reference speed.  The probe is
    benchmark code run with the collector off, so no change to ``repro``
    can move it.  It is timed in thread CPU time, so waiting for the GIL
    behind the phase's own threads does not count as a slow machine.  Use
    it from the main thread, around one phase at a time.

    With ``sockets``, the probe work is loopback socket round trips instead
    of the interpreter mix.  Serving time goes mostly to the kernel's
    network path, which slows less than interpreted code when the host is
    busy, so only that probe tracks it.
    """

    def __init__(self, sockets: bool = False) -> None:
        self.sockets = sockets
        self.samples: List[float] = []
        self.wall_s = 0.0  # the probe's own share of the phase's wall time

    def __enter__(self) -> "SpeedProbe":
        import numpy  # noqa: F401  (imported before timing, not by the first sample)

        self.samples = []
        self.wall_s = 0.0
        self._ends = socket.socketpair() if self.sockets else None
        self._handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._handler)
        for end in self._ends or ():
            end.close()

    def _sample(self, _signum, _frame) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start, cpu = time.perf_counter(), time.thread_time()
            if self._ends is None:
                _probe_work()
            else:
                _round_trips(self._ends)
            self.samples.append(time.thread_time() - cpu)
            self.wall_s += time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()

    def scale(self) -> float:
        """Seconds at reference speed per second of the phase; 1 if never sampled.

        Samples are evenly spaced in wall time, so the work done meanwhile
        is proportional to the mean of ``reference / sample``: the harmonic
        mean of the samples sets the scale.
        """
        if not self.samples:
            return 1.0
        reference = SOCKET_PROBE_S if self.sockets else PROBE_S
        return reference / statistics.harmonic_mean(self.samples)

    def rescale(self, wall: float) -> float:
        """The phase's ``wall`` time, less the probe's own, at reference speed."""
        return (wall - self.wall_s) * self.scale()


def percentile(samples: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(count: int) -> Optional[float]:
    """Highest ladder percentile with at least ten of ``count`` samples beyond it."""
    for pct in PERCENTILE_LADDER:
        # Rounded, so 10 000 samples leave exactly ten beyond p99.9.
        if round(count * (100.0 - pct) / 100.0, 6) >= MIN_SAMPLES_BEYOND:
            return pct
    return None


def tail(samples: Sequence[float]) -> Tuple[Optional[float], float]:
    """``(percentile, value)`` of the reportable tail; ``(None, max)`` when too few."""
    pct = tail_percentile(len(samples))
    if pct is None:
        return None, max(samples) if samples else 0.0
    return pct, percentile(samples, pct)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else math.inf


def product_digest(value: object) -> str:
    """SHA-256 of one product's canonical JSON (independent of key order)."""
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode("utf-8")).hexdigest()


def set_digest(digests: Mapping[str, str]) -> str:
    """SHA-256 over a ``{key: product digest}`` mapping, in key order."""
    return product_digest(dict(digests))


def compare_runs(
    base: Sequence[float], new: Sequence[float], bound: float, better: str
) -> Dict[str, object]:
    """Judge one (metric, workload) pair of run sets by the benchmark's rule.

    Runs pair up in order.  ``unresolved`` when either side spreads wider
    than ``bound`` (unless every new run beats every base run),
    ``regression`` when the new median is worse by more than ``bound``,
    ``gain`` when the new side wins at least nine tenths of the pairs and
    the medians differ by more than the base's quartile distance, and
    ``same`` otherwise.
    """
    if not base or not new:
        raise ValueError("compare needs runs on both sides")
    sign = 1.0 if better == "higher" else -1.0
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    pairs = list(zip(base, new))
    won = sum(1 for b, n in pairs if sign * (n - b) > 0) / len(pairs)
    change = sign * (nmed - bmed) / abs(bmed)
    all_better = all(sign * (n - b) > 0 for b in base for n in new)
    if max(spread(base), spread(new)) > bound and not all_better:
        verdict = "unresolved"
    elif change < -bound:
        verdict = "regression"
    elif won >= GAIN_WIN_SHARE and abs(nmed - bmed) > bq3 - bq1:
        verdict = "gain"
    else:
        verdict = "same"
    return {
        "base": [bq1, bmed, bq3],
        "new": [nq1, nmed, nq3],
        "change": change,
        "won": won,
        "pairs": len(pairs),
        "bound": bound,
        "verdict": verdict,
    }


def git_revision(root: Path) -> Optional[str]:
    """The checkout's commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def env_fingerprint(root: Path) -> Dict[str, object]:
    """What a result depends on besides the code: interpreter, numpy, cores, commit."""
    try:
        numpy_version: Optional[str] = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "git_rev": git_revision(root),
    }


def load_records(path: Path) -> List[dict]:
    """Run records from a result file written by ``bench.py run --json``."""
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]
