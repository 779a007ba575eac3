"""Traced mode: spans and counts recorded from outside the program.

The harness never edits ``repro``.  A :class:`Tracer` replaces public
functions and methods with wrappers for the duration of a traced run and
puts the originals back afterwards.  Calls at layer boundaries (a campaign,
a task, an engine run, the simulator loop, a cache write, a planner round,
a model solve, an HTTP request) become spans kept in memory; calls made
once per message or per packet only bump a count, so tracing stays cheap
on the hot path.  :func:`layer_metrics` turns one traced run's spans and
counts into the benchmark's per-layer metrics, and :func:`chrome_trace`
exports the spans as a Chrome trace (``chrome://tracing``, Perfetto).
"""

from __future__ import annotations

import json
import os
import threading
from collections import defaultdict
from itertools import count
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from bench_stats import percentile

#: One span: (name, start_ns, duration_ns, span id, parent id, pid, tid, args).
Span = Tuple[str, int, int, int, int, int, int, dict]

#: Marks a patched attribute that its class only inherited.
_INHERITED = object()

#: Which end-to-end metric, on which workloads, each layer metric should move.
LAYER_TARGETS: Dict[str, List[Tuple[str, Tuple[str, ...]]]] = {
    "sim.loop_s": [("ops_per_s", ("sim-apps", "sim-compression"))],
    "sim.events": [("ops_per_s", ("sim-apps", "sim-compression"))],
    "sim.events_per_s": [("ops_per_s", ("sim-apps", "sim-compression"))],
    "sim.event_objects": [
        ("ops_per_s", ("sim-apps", "sim-compression")),
        ("peak_rss_mb", ("sim-apps",)),
    ],
    "sim.schedule_calls": [("ops_per_s", ("sim-apps", "sim-compression"))],
    "sim.events_per_packet": [("ops_per_s", ("sim-apps", "sim-compression"))],
    "mpi.messages": [("ops_per_s", ("sim-apps", "sim-compression"))],
    "mpi.waitalls": [("ops_per_s", ("sim-apps",))],
    "mpi.collectives": [("ops_per_s", ("sim-apps",))],
    "mpi.events_per_message": [("ops_per_s", ("sim-apps", "sim-compression"))],
    "net.messages": [("ops_per_s", ("sim-compression", "sim-apps"))],
    "net.bytes": [("ops_per_s", ("sim-compression",))],
    "nic.injections": [("ops_per_s", ("sim-compression",))],
    "switch.packets": [("ops_per_s", ("sim-compression",))],
    "switch.packets_per_message": [("ops_per_s", ("sim-compression",))],
    "engine.run_s": [
        ("ops_per_s", ("sim-apps", "sim-compression", "analytic-paper", "fluid-512"))
    ],
    "engine.self_s": [("ops_per_s", ("analytic-paper", "fluid-512"))],
    "engine.run_ms_p50": [("ops_per_s", ("analytic-paper", "fluid-512"))],
    "engine.run_ms_max": [("ops_per_s", ("sim-apps", "sim-compression", "fluid-512"))],
    "engine.products": [("ops_per_s", ("analytic-paper", "fluid-512"))],
    "engine.unsupported": [("ops_per_s", ("fluid-512",))],
    "analytic.waiting_time_calls": [("ops_per_s", ("analytic-paper", "analytic-planned"))],
    "fluid.pk_waiting_times_calls": [("ops_per_s", ("fluid-512",))],
    "pipeline.self_s": [("ops_per_s", ("analytic-paper",))],
    "pipeline.ensure_all_s": [("ops_per_s", ("analytic-paper", "fluid-512"))],
    "cache.puts": [("ops_per_s", ("analytic-paper", "analytic-planned"))],
    "cache.put_s": [("ops_per_s", ("analytic-paper",))],
    "cache.bytes_written": [("ops_per_s", ("analytic-paper",))],
    "runner.self_s": [("ops_per_s", ("analytic-paper", "analytic-planned"))],
    "planner.rounds": [("ops_per_s", ("analytic-planned",))],
    "planner.propose_s": [("ops_per_s", ("analytic-planned",))],
    "planner.products_executed": [("ops_per_s", ("analytic-planned",))],
    "planner.campaign_s": [("ops_per_s", ("analytic-planned",))],
    "models.predict_batch_calls": [("ops_per_s", ("serve-paper",))],
    "models.predict_batch_rows": [("ops_per_s", ("serve-paper",))],
    "models.predict_batch_us_per_row": [("ops_per_s", ("serve-paper",))],
    "models.predict_calls": [("ops_per_s", ("analytic-planned",))],
    "serving.p50_ms": [("ops_per_s", ("serve-paper",))],
    "serving.tail_ms": [("ops_per_s", ("serve-paper",))],
    "serving.batch_tail_ms": [("ops_per_s", ("serve-paper",))],
    "serving.openloop_tail_ms": [("ops_per_s", ("serve-paper",))],
    "serving.openloop_late_ms": [("ops_per_s", ("serve-paper",))],
    "serving.model_share": [("ops_per_s", ("serve-paper",))],
    "trace.overhead_frac": [
        (
            "ops_per_s",
            ("sim-apps", "sim-compression", "analytic-paper", "analytic-planned", "fluid-512",
             "serve-paper"),
        )
    ],
}


class Tracer:
    """In-memory spans and counts, plus the patches that produce them.

    Spans nest per thread: a span's parent is the innermost span open on
    the same thread when it started.  Counts are plain integers bumped
    without a lock, so only single-threaded code (the simulator, the
    campaign pipeline) is counted; the server's threads only record spans.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._ids = count(1)
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def patch(self, owner: object, attr: str, wrap: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` with ``wrap(original)`` until :meth:`restore`.

        ``owner`` is a class or a module.  An attribute a class only
        inherits is shadowed, and deleted again on restore.
        """
        self._patches.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, wrap(getattr(owner, attr)))

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def counted(self, name: str, amount: Optional[Callable[..., int]] = None):
        """Wrapper factory: bump ``counts[name]`` by 1 (or ``amount(*args)``)."""
        counts = self.counts

        def wrap(fn: Callable) -> Callable:
            if amount is None:

                def wrapper(*args, **kwargs):
                    counts[name] += 1
                    return fn(*args, **kwargs)

            else:

                def wrapper(*args, **kwargs):
                    counts[name] += 1
                    counts[name + ".amount"] += amount(*args, **kwargs)
                    return fn(*args, **kwargs)

            return wrapper

        return wrap

    def spanned(
        self,
        name: str,
        enter: Optional[Callable[..., object]] = None,
        leave: Optional[Callable[..., Optional[dict]]] = None,
    ):
        """Wrapper factory: record a span around each call.

        ``enter(*args, **kwargs)`` runs first and its result is handed to
        ``leave(state, args, kwargs, result, error)``, which may return
        extra span arguments.
        """
        tracer = self

        def wrap(fn: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else 0
                span_id = next(tracer._ids)
                stack.append(span_id)
                state = enter(*args, **kwargs) if enter is not None else None
                result = error = None
                start = perf_counter_ns()
                try:
                    result = fn(*args, **kwargs)
                    return result
                except BaseException as exc:
                    error = exc
                    raise
                finally:
                    end = perf_counter_ns()
                    stack.pop()
                    extra = (
                        leave(state, args, kwargs, result, error)
                        if leave is not None
                        else None
                    )
                    tracer.spans.append(
                        (
                            name,
                            start,
                            end - start,
                            span_id,
                            parent,
                            os.getpid(),
                            threading.get_ident(),
                            extra or {},
                        )
                    )

            return wrapper

        return wrap

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def document(self) -> dict:
        """Spans and counts as plain JSON (what a traced server hands back)."""
        return {"spans": [list(span) for span in self.spans], "counts": dict(self.counts)}


def chrome_trace(spans: Sequence[Span], counts: Dict[str, float]) -> dict:
    """A Chrome trace-event document: one complete event per span."""
    origin = min((span[1] for span in spans), default=0)
    events = []
    for name, start, duration, span_id, parent, pid, tid, args in spans:
        events.append(
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": (start - origin) / 1e3,
                "dur": duration / 1e3,
                "pid": pid,
                "tid": tid,
                "args": {"id": span_id, "parent": parent, **args},
            }
        )
    end = max((span[1] + span[2] for span in spans), default=origin)
    events.append(
        {
            "name": "counts",
            "ph": "C",
            "ts": (end - origin) / 1e3,
            "pid": spans[0][5] if spans else os.getpid(),
            "args": dict(counts),
        }
    )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: Path, spans: Sequence[Span], counts: Dict[str, float]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace(spans, counts)))
    return path


def self_times(spans: Iterable[Span]) -> Dict[int, int]:
    """Span id → its duration minus the time its child spans cover (ns)."""
    spans = list(spans)
    covered: Dict[Tuple[int, int], int] = defaultdict(int)
    for span in spans:
        if span[4]:
            covered[(span[5], span[4])] += span[2]
    return {span[3]: span[2] - covered[(span[5], span[3])] for span in spans}


# ----------------------------------------------------------------------
# Probes
# ----------------------------------------------------------------------
def install_campaign_probes(tracer: Tracer) -> None:
    """Wrap every layer boundary a campaign crosses, pipeline down to packet."""
    from repro.core.experiments import cache as cache_module
    from repro.core.experiments import pipeline as pipeline_module
    from repro.engine import analytic, available_engines, fluid, get_engine
    from repro.errors import AnalyticModelError
    from repro.mpi.communicator import Comm
    from repro.network.network import InterconnectNetwork
    from repro.network.nic import NIC
    from repro.network.switch import OutputQueuedSwitch, SwitchFabric
    from repro.planner import PlannedCampaign, Planner
    from repro.sim.kernel import Simulator

    P = pipeline_module.ReproductionPipeline
    tracer.patch(P, "ensure_all", tracer.spanned("pipeline.ensure_all"))
    tracer.patch(P, "ensure_products", tracer.spanned("pipeline.ensure_products"))
    tracer.patch(pipeline_module, "run_tasks", tracer.spanned("runner.run_tasks"))

    def refused(_state, _args, _kwargs, _result, error):
        if isinstance(error, AnalyticModelError):
            tracer.counts["engine.unsupported"] += 1
        return None

    tracer.patch(
        pipeline_module,
        "run_experiment",
        tracer.spanned("runner.run_experiment",
            leave=lambda s, a, k, r, e: refused(s, a, k, r, e) or {"key": a[0].key},
        ),
    )
    for name in available_engines():
        tracer.patch(type(get_engine(name)), "run", tracer.spanned("engine.run"))

    def shard_bytes(_state, args, kwargs, _result, error):
        cache, key = args[0], args[1]
        if error is None and cache.directory is not None:
            try:
                size = cache.shard_path(cache_module.group_of(key)).stat().st_size
            except FileNotFoundError:  # put(..., flush=False) writes nothing yet
                size = 0
            tracer.counts["cache.bytes_written"] += size
        return {"key": key}

    tracer.patch(
        cache_module.ShardedCache, "put", tracer.spanned("cache.put", leave=shard_bytes)
    )

    for planner_class in Planner.__subclasses__():
        if "propose" in planner_class.__dict__:
            tracer.patch(planner_class, "propose", tracer.spanned("planner.propose"))

    def executed(_state, _args, _kwargs, result, _error):
        if result is not None:
            tracer.counts["planner.products_executed"] += result.executed
        return None

    tracer.patch(
        PlannedCampaign, "run", tracer.spanned("planner.campaign", leave=executed)
    )
    install_model_probes(tracer)

    def loop_start(sim, *_args, **_kwargs):
        return sim, sim.events_executed

    def loop_end(state, _args, _kwargs, _result, _error):
        sim, before = state
        tracer.counts["sim.events"] += sim.events_executed - before
        return None

    for method in ("run", "run_until_event"):
        tracer.patch(
            Simulator, method, tracer.spanned("sim.loop", enter=loop_start, leave=loop_end)
        )
    for method in ("schedule", "schedule_at", "schedule_cancellable"):
        tracer.patch(Simulator, method, tracer.counted("sim.schedule_calls"))
    for method in ("event", "all_of", "any_of"):
        tracer.patch(Simulator, method, tracer.counted("sim.event_objects"))

    tracer.patch(Comm, "isend", tracer.counted("mpi.messages"))
    tracer.patch(Comm, "waitall", tracer.counted("mpi.waitalls"))
    for method in (
        "barrier", "bcast", "reduce", "allreduce", "gather", "allgather", "alltoall", "scatter"
    ):
        tracer.patch(Comm, method, tracer.counted("mpi.collectives"))

    def message_bytes(_network, _src, _dst, nbytes=0, *_args, **_kwargs):
        return nbytes

    tracer.patch(InterconnectNetwork, "send", tracer.counted("net.messages", message_bytes))
    tracer.patch(NIC, "inject", tracer.counted("nic.injections"))
    for switch_class in (OutputQueuedSwitch, SwitchFabric):
        tracer.patch(switch_class, "arrive", tracer.counted("switch.packets"))

    tracer.patch(
        analytic.SwitchModel, "waiting_time", tracer.counted("analytic.waiting_time_calls")
    )
    tracer.patch(fluid, "pk_waiting_times", tracer.counted("fluid.pk_waiting_times_calls"))


def install_model_probes(tracer: Tracer) -> None:
    """Spans around the prediction engine's scalar and batch entry points."""
    from repro.core.models.predictor import PredictionEngine

    def rows(_state, args, kwargs, _result, _error):
        return {"rows": len(args[1] if len(args) > 1 else kwargs["requests"])}

    tracer.patch(
        PredictionEngine,
        "predict_batch",
        tracer.spanned("models.predict_batch", leave=rows),
    )
    tracer.patch(PredictionEngine, "predict", tracer.spanned("models.predict"))


def install_server_probes(tracer: Tracer) -> None:
    """Spans around each HTTP request and the model solves it causes."""
    from repro.serving.server import _Handler

    def request_id(_state, args, _kwargs, _result, _error):
        handler = args[0]
        return {"request_id": handler.headers.get("X-Request-Id", ""), "path": handler.path}

    for method in ("do_GET", "do_POST"):
        tracer.patch(_Handler, method, tracer.spanned("http.request", leave=request_id))
    install_model_probes(tracer)


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: Sequence[Span], counts: Dict[str, float], units: int
) -> Dict[str, float]:
    """Per-layer metrics per unit of work, from one traced run.

    ``units`` is how many units of work (campaigns, or closed-loop rounds
    of requests) the spans and counts cover; totals are divided by it.
    Layers a workload never reaches read 0.
    """
    own = self_times(spans)
    total: Dict[str, int] = defaultdict(int)
    self_ns: Dict[str, int] = defaultdict(int)
    calls: Dict[str, int] = defaultdict(int)
    engine_runs: List[int] = []
    batch_rows = 0
    for span in spans:
        name = span[0]
        total[name] += span[2]
        self_ns[name] += own[span[3]]
        calls[name] += 1
        if name == "engine.run":
            engine_runs.append(span[2])
        elif name == "models.predict_batch":
            batch_rows += span[7].get("rows", 0)

    def per_unit(value: float) -> float:
        return value / units if units else 0.0

    def seconds(ns: float) -> float:
        return per_unit(ns / 1e9)

    events = counts.get("sim.events", 0)
    packets = counts.get("switch.packets", 0)
    messages = counts.get("mpi.messages", 0)
    return {
        "sim.loop_s": seconds(total["sim.loop"]),
        "sim.events": per_unit(events),
        "sim.events_per_s": _ratio(events, total["sim.loop"] / 1e9),
        "sim.event_objects": per_unit(counts.get("sim.event_objects", 0)),
        "sim.schedule_calls": per_unit(counts.get("sim.schedule_calls", 0)),
        "sim.events_per_packet": _ratio(events, packets),
        "mpi.messages": per_unit(messages),
        "mpi.waitalls": per_unit(counts.get("mpi.waitalls", 0)),
        "mpi.collectives": per_unit(counts.get("mpi.collectives", 0)),
        "mpi.events_per_message": _ratio(events, messages),
        "net.messages": per_unit(counts.get("net.messages", 0)),
        "net.bytes": per_unit(counts.get("net.messages.amount", 0)),
        "nic.injections": per_unit(counts.get("nic.injections", 0)),
        "switch.packets": per_unit(packets),
        "switch.packets_per_message": _ratio(packets, messages),
        "engine.run_s": seconds(total["engine.run"]),
        "engine.self_s": seconds(self_ns["engine.run"]),
        "engine.run_ms_p50": percentile(engine_runs, 50) / 1e6 if engine_runs else 0.0,
        "engine.run_ms_max": max(engine_runs) / 1e6 if engine_runs else 0.0,
        "engine.products": per_unit(calls["engine.run"]),
        "engine.unsupported": per_unit(counts.get("engine.unsupported", 0)),
        "analytic.waiting_time_calls": per_unit(counts.get("analytic.waiting_time_calls", 0)),
        "fluid.pk_waiting_times_calls": per_unit(counts.get("fluid.pk_waiting_times_calls", 0)),
        "pipeline.self_s": seconds(
            self_ns["pipeline.ensure_all"] + self_ns["pipeline.ensure_products"]
        ),
        "pipeline.ensure_all_s": seconds(total["pipeline.ensure_all"]),
        "cache.puts": per_unit(calls["cache.put"]),
        "cache.put_s": seconds(total["cache.put"]),
        "cache.bytes_written": per_unit(counts.get("cache.bytes_written", 0)),
        "runner.self_s": seconds(self_ns["runner.run_tasks"]),
        "planner.rounds": per_unit(calls["planner.propose"]),
        "planner.propose_s": seconds(total["planner.propose"]),
        "planner.products_executed": per_unit(counts.get("planner.products_executed", 0)),
        "planner.campaign_s": seconds(total["planner.campaign"]),
        "models.predict_batch_calls": per_unit(calls["models.predict_batch"]),
        "models.predict_batch_rows": per_unit(batch_rows),
        "models.predict_batch_us_per_row": _ratio(total["models.predict_batch"] / 1e3, batch_rows),
        "models.predict_calls": per_unit(calls["models.predict"]),
    }
