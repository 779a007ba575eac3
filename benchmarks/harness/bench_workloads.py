"""One benchmark workload, run in a fresh process by ``bench.py``.

Protocol: the process prints ``READY <probe seconds> <scale>`` on stdout as
soon as set-up is done (``bench.py`` times set-up from launch to that line
and rescales it with the set-up's speed probe), then runs the timed
phase for about ``--seconds`` seconds, checks every output, and prints one
JSON result as its last stdout line.  With ``--setup-only`` it exits right
after ``READY``.

Workloads (see README.md for why each exists):

* ``sim-apps`` / ``sim-compression`` / ``fluid-512`` / ``analytic-paper`` /
  ``analytic-planned`` — cold campaigns, ``workers=1``, one fresh cache
  directory per repetition.  A unit of work is one campaign; repetitions
  run until the next one would overrun ``--seconds``.
* ``serve-paper`` — ``repro serve`` on an artifact fitted from the
  committed paper cache, driven over HTTP by two client threads, client
  and server on one CPU.  A unit of work is one closed-loop round of
  requests.

Set-up and every unit of work run under a ``SpeedProbe``, which rescales
their wall time to reference speed, so the machine's drifting speed
cancels out of what is reported.

Outputs are checked against ``expected/<workload>.json`` when it holds the
seed, and otherwise against the first repetition of the same run.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from bench_stats import SpeedProbe, percentile, product_digest, set_digest, tail
from bench_trace import (
    Tracer,
    install_campaign_probes,
    layer_metrics,
    write_chrome_trace,
)

HARNESS = Path(__file__).resolve().parent
ROOT = HARNESS.parent.parent
EXPECTED = HARNESS / "expected"

#: Quick-profile durations, as ``benchmarks/conftest.py`` sets them.
QUICK = {"profile": "quick", "impact_duration": 0.02, "signature_duration": 0.02,
         "calibration_duration": 0.03}

#: Serving load shape.
CLIENT_THREADS = 2
ROUND_REQUESTS = 2000  # one closed-loop round, split across the client threads
WARMUP_REQUESTS = 1000
BATCH_EVERY = 4  # every 4th request is /predict/batch with all 36 pairs
OPENLOOP_RATE = 200.0  # requests per second
SERVER_TIMEOUT = 30.0


class Outcome:
    """What one repetition produced and how it compares to the reference."""

    def __init__(self) -> None:
        self.digests: Dict[str, str] = {}
        self.unsupported = 0
        self.plan_trace: Optional[str] = None
        self.attempted = 0
        self.failures: List[str] = []

    def summary(self, per_product: bool) -> dict:
        document = {"set": set_digest(self.digests), "unsupported": self.unsupported}
        if self.plan_trace is not None:
            document["plan_trace"] = self.plan_trace
        if per_product:
            document["products"] = dict(sorted(self.digests.items()))
        return document


def expected_entry(workload: str, seed: int) -> Optional[dict]:
    path = EXPECTED / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text())["seeds"].get(str(seed))


def compare_outcome(outcome: Outcome, reference: dict, label: str) -> List[str]:
    """Failure messages for every way ``outcome`` differs from ``reference``."""
    problems: List[str] = []
    products = reference.get("products")
    if products is not None:
        for key in sorted(set(products) | set(outcome.digests)):
            if products.get(key) != outcome.digests.get(key):
                problems.append(f"{key}: digest differs from {label}")
    elif reference["set"] != set_digest(outcome.digests):
        problems.append(f"product set digest differs from {label}")
    if reference["unsupported"] != outcome.unsupported:
        problems.append(
            f"{outcome.unsupported} unsupported holes, {label} has {reference['unsupported']}"
        )
    if reference.get("plan_trace") != outcome.plan_trace:
        problems.append(f"plan trace differs from {label}")
    return problems


# ----------------------------------------------------------------------
# Campaign workloads
# ----------------------------------------------------------------------
def campaign_outcome(directory: Path, result) -> Outcome:
    """Digest the products a repetition left on disk.

    ``result`` is what the campaign returned: ``ensure_*``'s stats, or a
    planned campaign's ``PlanResult``, whose plan trace is digested too.
    """
    from repro.core.experiments.cache import ShardedCache

    outcome = Outcome()
    if isinstance(result, dict):
        records = result["failure_records"]
    else:
        records = result.failure_records
        outcome.plan_trace = product_digest(result.trace_document())
    for key, value in ShardedCache(directory).snapshot().items():
        outcome.digests[key] = product_digest(value)
    for record in records:
        if record["category"] == "unsupported":
            outcome.unsupported += 1
        else:
            outcome.failures.append(f"{record['key']}: {record['category']} failure")
    outcome.attempted = len(outcome.digests) + len(records)
    return outcome


class Campaign(NamedTuple):
    """A cold-campaign workload: its engine, and how to build and run its pipelines."""

    engine: str
    build: Callable[[Path], object]
    run: Callable


def sim_apps(seed: int) -> Campaign:
    from repro.core.experiments import PipelineSettings, ReproductionPipeline
    from repro.core.experiments.catalog import paper_applications
    from repro.workloads import FFTW, MILC

    settings = PipelineSettings(**{**QUICK, "impact_duration": 0.004}, engine="sim", seed=seed)
    # One FFTW alltoall round and 16 MILC halo iterations keep one campaign
    # near four seconds, so several fit in a run.
    applications = paper_applications()
    applications.update(fftw=FFTW(iterations=1), milc=MILC(iterations=16))
    keys = ["calibration", "impact/idle", "impact/milc", "baseline/fftw", "baseline/milc",
            "pair/fftw/milc"]

    def build(directory: Path):
        return ReproductionPipeline(
            settings=settings, applications=applications, cache_path=directory, workers=1
        )

    return Campaign(
        settings.engine, build, lambda pipeline: pipeline.ensure_products(keys, workers=1)
    )


def sim_compression(seed: int) -> Campaign:
    from repro.core.experiments import PipelineSettings, ReproductionPipeline
    from repro.core.experiments.catalog import quick_compression_catalog

    settings = PipelineSettings(
        **{**QUICK, "signature_duration": 0.006}, engine="sim", seed=seed
    )
    keys = ["calibration", "impact/idle"] + [
        f"comp_sig/{config.label}" for config in quick_compression_catalog()
    ]

    def build(directory: Path):
        return ReproductionPipeline(settings=settings, cache_path=directory, workers=1)

    return Campaign(
        settings.engine, build, lambda pipeline: pipeline.ensure_products(keys, workers=1)
    )


def fluid_512(seed: int) -> Campaign:
    from repro.cluster import large_fabric_config
    from repro.core.experiments import PipelineSettings, ReproductionPipeline
    from repro.core.experiments.catalog import paper_applications, quick_compression_catalog

    settings = PipelineSettings(**QUICK, engine="fluid", seed=seed)
    machine = large_fabric_config(seed=seed)
    # FFTW is refused on this fabric (its dependents become documented
    # holes); the other three run.  Every other quick config keeps one
    # campaign near four seconds.
    applications = {
        name: app for name, app in paper_applications().items()
        if name in ("fftw", "lulesh", "milc", "amg")
    }
    catalog = quick_compression_catalog()[::2]

    def build(directory: Path):
        return ReproductionPipeline(
            settings=settings, machine_config=machine, applications=applications,
            catalog=catalog, cache_path=directory, workers=1,
        )

    return Campaign(settings.engine, build, lambda pipeline: pipeline.ensure_all(workers=1))


def analytic_paper(seed: int) -> Campaign:
    from repro.core.experiments import PipelineSettings, ReproductionPipeline

    settings = PipelineSettings(profile="paper", engine="analytic", seed=seed)

    def build(directory: Path):
        return ReproductionPipeline(settings=settings, cache_path=directory, workers=1)

    return Campaign(settings.engine, build, lambda pipeline: pipeline.ensure_all(workers=1))


def analytic_planned(seed: int) -> Campaign:
    from repro.core.experiments import PipelineSettings, ReproductionPipeline
    from repro.planner import PlannedCampaign, get_planner

    settings = PipelineSettings(profile="paper", engine="analytic", seed=seed)

    def build(directory: Path):
        return ReproductionPipeline(settings=settings, cache_path=directory, workers=1)

    def run(pipeline):
        return PlannedCampaign(
            pipeline, get_planner("uncertainty"), max_rounds=4, holdout_per_round=9, workers=1
        ).run()

    return Campaign(settings.engine, build, run)


CAMPAIGNS = {
    "sim-apps": sim_apps,
    "sim-compression": sim_compression,
    "fluid-512": fluid_512,
    "analytic-paper": analytic_paper,
    "analytic-planned": analytic_planned,
}


def run_campaign(args, workload: Campaign, first) -> dict:
    tracer = Tracer() if args.trace_dir else None
    walls: Dict[bool, List[float]] = {False: [], True: []}
    rescaled: Dict[bool, List[float]] = {False: [], True: []}  # at reference speed
    probe = SpeedProbe()
    outcomes: List[Outcome] = []
    reference: Optional[dict] = None if args.record else expected_entry(args.workload, args.seed)
    label = f"expected/{args.workload}.json"
    failures: List[str] = []
    start = time.perf_counter()
    built = first
    # Traced runs alternate untraced and traced repetitions, so the traced
    # overhead is measured on the same machine state.
    schedule = [False, True] if tracer is not None else [False]
    repetition = 0
    while True:
        for traced in schedule:
            directory = Path(args.work_dir) / f"rep{repetition}"
            if built is None:
                built = workload.build(directory)
            if traced:
                install_campaign_probes(tracer)
            try:
                with probe:
                    t0 = time.perf_counter()
                    result = workload.run(built)
                    t1 = time.perf_counter()
            finally:
                if traced:
                    tracer.restore()
            walls[traced].append(t1 - t0)
            rescaled[traced].append(probe.rescale(t1 - t0))
            built = None
            outcome = campaign_outcome(directory, result)
            shutil.rmtree(directory)
            failures += outcome.failures
            if reference is None:
                reference = outcome.summary(per_product=True)
                label = "the run's first repetition"
            else:
                failures += compare_outcome(outcome, reference, label)
            outcomes.append(outcome)
            repetition += 1
        elapsed = time.perf_counter() - start
        next_round = sum(statistics.median(w) for w in walls.values() if w)
        if args.record or elapsed + next_round > args.seconds:
            break

    result = {
        "attempted": sum(o.attempted for o in outcomes),
        "failures": failures,
        "outputs": outcomes[0].summary(per_product=args.record),
        "notes": {},
    }
    if tracer is None:
        per_rep = outcomes[0].attempted
        campaign_s = statistics.median(rescaled[False])
        result["metrics"] = {
            "ops_per_s": per_rep / campaign_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        result["notes"]["ops_per_s"] = (
            f"{per_rep} products in {campaign_s:.3f} s per campaign at reference speed, "
            f"median of {len(walls[False])} campaigns"
        )
        return result
    metrics = layer_metrics(tracer.spans, tracer.counts, len(walls[True]))
    metrics.update(dict.fromkeys(SERVING_LAYER_METRICS, 0.0))
    metrics["trace.overhead_frac"] = (
        statistics.median(rescaled[True]) / statistics.median(rescaled[False]) - 1
    )
    result["metrics"] = metrics
    path = write_chrome_trace(
        Path(args.trace_dir) / f"{args.workload}-seed{args.seed}.trace.json",
        tracer.spans,
        tracer.counts,
    )
    result["notes"]["trace.overhead_frac"] = f"{len(walls[True])} traced campaigns; trace {path}"
    return result


# ----------------------------------------------------------------------
# serve-paper
# ----------------------------------------------------------------------
SERVING_LAYER_METRICS = (
    "serving.p50_ms",
    "serving.tail_ms",
    "serving.batch_tail_ms",
    "serving.openloop_tail_ms",
    "serving.openloop_late_ms",
    "serving.model_share",
)


class ServerProcess:
    """``repro serve`` in a child process, through the benchmark's launcher."""

    def __init__(self, model: Path, stats: Path, traced: bool) -> None:
        self.stats = stats
        self.proc = subprocess.Popen(
            [sys.executable, str(HARNESS / "serve_launcher.py"), str(stats),
             "1" if traced else "0", "serve", "--model", str(model), "--port", "0"],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            self.port = self._await_port()
            self._drain = threading.Thread(target=self.proc.stderr.read, daemon=True)
            self._drain.start()
            self.health = self._await_health()
        except BaseException:
            self.kill()
            raise

    def _await_port(self) -> int:
        lines = []
        for line in self.proc.stderr:
            lines.append(line)
            match = re.search(r" on http://[^:]+:(\d+)", line)
            if match:
                return int(match.group(1))
        raise RuntimeError("server exited before listening:\n" + "".join(lines))

    def _await_health(self) -> dict:
        deadline = time.monotonic() + SERVER_TIMEOUT
        while True:
            try:
                status, body = request(self.port, "GET", "/healthz", None, "setup")
                if status == 200:
                    return json.loads(body)
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("server never answered /healthz")
            time.sleep(0.01)

    def stop(self) -> dict:
        """SIGINT the server, wait for it, and return its launcher's stats."""
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=SERVER_TIMEOUT)
        finally:
            self.kill()
        return json.loads(self.stats.read_text())

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def request(port: int, method: str, path: str, body: Optional[bytes], request_id: str):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=SERVER_TIMEOUT)
    try:
        headers = {"X-Request-Id": request_id}
        if body is not None:
            headers["Content-Type"] = "application/json"
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


class ServeLoad:
    """Seeded request plans, expected responses, and the client loops."""

    def __init__(self, seed: int, model: Path, health: dict) -> None:
        from repro.serving import load_artifact

        engine = load_artifact(model).engine()
        self.seed = seed
        apps = health["apps"]
        names = engine.model_names
        self.pairs = [(app, other) for app in apps for other in apps]
        version = health["version"]
        self.expected: Dict[Tuple[str, str], bytes] = {}
        for app, other in self.pairs:
            predictions = engine.predict_batch([(app, other, name) for name in names])
            self.expected[("/predict", f"{app}/{other}")] = _canonical(
                {"app": app, "other": other, "version": version,
                 "predictions": {p.model: p.predicted for p in predictions}}
            )
        batch_pairs = list(self.pairs)
        random.Random(seed).shuffle(batch_pairs)
        self.batch_body = json.dumps(
            {"requests": [[app, other, None] for app, other in batch_pairs]}
        ).encode()
        batch = engine.predict_batch(
            [(app, other, name) for app, other in batch_pairs for name in names]
        )
        self.expected[("/predict/batch", "")] = _canonical(
            {"version": version, "predictions": [
                {"app": p.app, "other": p.other, "model": p.model, "predicted": p.predicted}
                for p in batch
            ]}
        )
        self.lock = threading.Lock()
        self.attempted = 0
        self.failures: List[str] = []
        self.client_spans: List[tuple] = []
        self.tracing = False
        self.batch_response: Optional[bytes] = None

    def plan(self, label: str, count: int) -> List[Tuple[str, str]]:
        """``count`` requests as ``(path, pair)``; the seed picks the pairs."""
        rng = random.Random(f"{self.seed}/{label}")
        plan = []
        for index in range(count):
            if index % BATCH_EVERY == BATCH_EVERY - 1:
                plan.append(("/predict/batch", ""))
            else:
                app, other = rng.choice(self.pairs)
                plan.append(("/predict", f"{app}/{other}"))
        return plan

    def send(self, port: int, entry: Tuple[str, str], request_id: str, due: float) -> float:
        """One request, checked; returns its latency from ``due``."""
        path, pair = entry
        started = time.perf_counter()
        try:
            if path == "/predict":
                app, other = pair.split("/")
                status, body = request(
                    port, "GET", f"/predict?app={app}&other={other}", None, request_id
                )
            else:
                status, body = request(port, "POST", path, self.batch_body, request_id)
            problem = None if status == 200 else f"{path} answered {status}"
        except OSError as exc:
            body, problem = b"", f"{path}: {exc}"
        done = time.perf_counter()
        expected = self.expected[entry]
        if problem is None and body != expected and not _same_json(body, expected):
            problem = f"{path} {pair}: response differs from the in-process predict_batch"
        with self.lock:
            self.attempted += 1
            if problem is not None:
                self.failures.append(problem)
            if path == "/predict/batch" and self.batch_response is None and problem is None:
                self.batch_response = body
            if self.tracing:
                self.client_spans.append(
                    ("client.request", int(started * 1e9), int((done - started) * 1e9), 0, 0,
                     os.getpid(), threading.get_ident(), {"request_id": request_id, "path": path})
                )
        return done - due

    def closed_round(
        self, port: int, label: str, requests: int = ROUND_REQUESTS
    ) -> Tuple[float, List[float], List[float]]:
        """One closed-loop round; returns its wall time and per-kind latencies."""
        share = requests // CLIENT_THREADS
        plans = [self.plan(f"{label}/{thread}", share) for thread in range(CLIENT_THREADS)]
        latencies: Dict[str, List[float]] = {"/predict": [], "/predict/batch": []}

        def client(thread: int) -> None:
            local: Dict[str, List[float]] = {"/predict": [], "/predict/batch": []}
            for index, entry in enumerate(plans[thread]):
                now = time.perf_counter()
                local[entry[0]].append(
                    self.send(port, entry, f"{label}/{thread}/{index}", now)
                )
            with self.lock:
                for key, values in local.items():
                    latencies[key].extend(values)

        start = time.perf_counter()
        _run_threads(client)
        return time.perf_counter() - start, latencies["/predict"], latencies["/predict/batch"]

    def open_loop(self, port: int, seconds: float) -> Tuple[List[float], List[float]]:
        """Requests due at a fixed rate; latency counts from each due time."""
        total = int(seconds * OPENLOOP_RATE)
        plan = self.plan("open", total)
        cursor = iter(range(total))
        latencies: List[float] = []
        lateness: List[float] = []
        start = time.perf_counter() + 0.05

        def sender(_thread: int) -> None:
            while True:
                with self.lock:
                    index = next(cursor, None)
                if index is None:
                    return
                due = start + index / OPENLOOP_RATE
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                late = time.perf_counter() - due
                latency = self.send(port, plan[index], f"open/{index}", due)
                with self.lock:
                    latencies.append(latency)
                    lateness.append(late)

        _run_threads(sender)
        return latencies, lateness

    def queue_mean_error(self, measured: Dict[Tuple[str, str], float]) -> Optional[float]:
        """Mean |measured − served Queue prediction| over the 36 pairs."""
        if self.batch_response is None:
            return None
        served = {
            (row["app"], row["other"]): row["predicted"]
            for row in json.loads(self.batch_response)["predictions"]
            if row["model"] == "Queue"
        }
        return statistics.fmean(abs(measured[pair] - served[pair]) for pair in self.pairs)


def _canonical(document: dict) -> bytes:
    return json.dumps(document, sort_keys=True).encode("utf-8")


def _same_json(body: bytes, expected: bytes) -> bool:
    """Whether a response differing in bytes still carries the same values."""
    try:
        return json.loads(body) == json.loads(expected)
    except ValueError:
        return False


def _run_threads(target: Callable[[int], None]) -> None:
    errors: List[BaseException] = []

    def guarded(index: int) -> None:
        try:
            target(index)
        except BaseException as exc:  # handed to the caller below
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(i,)) for i in range(CLIENT_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def serve_setup(args):
    """Fit the artifact from the committed cache and start an untraced server."""
    from repro.core.experiments import PipelineSettings, ReproductionPipeline
    from repro.serving import save_artifact

    # Client and server share one CPU (the server inherits the affinity),
    # so the client's speed probe sees the CPU the server runs on too.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = Path(args.work_dir)
    pipeline = ReproductionPipeline(
        settings=PipelineSettings(profile="paper"),
        legacy_cache=ROOT / "results" / "paper_cache.json",
    )
    model = save_artifact(pipeline.model_artifact(), work / "model.json")
    server = ServerProcess(model, work / "server.json", traced=False)
    return pipeline, model, server


def run_serve(args, first) -> dict:
    pipeline, model, server = first
    load = ServeLoad(args.seed, model, server.health)
    traced = bool(args.trace_dir)
    # Untraced runs spend the whole budget on closed-loop rounds; traced
    # runs split it between an untraced reference session and a traced one
    # that adds the open loop.
    shares = (0.3, 0.3, 0.4) if traced else (1.0, 0.0, 0.0)
    try:
        reference = _session(load, server, "untraced", args.seconds * shares[0])
    finally:
        stats = server.stop()
    result = {"notes": {}}
    if traced:
        server = ServerProcess(model, Path(args.work_dir) / "server-traced.json", traced=True)
        load.tracing = True
        try:
            session = _session(load, server, "traced", args.seconds * shares[1])
            openloop, lateness = load.open_loop(server.port, args.seconds * shares[2])
        finally:
            traced_stats = server.stop()
        result.update(_serving_layers(args, load, reference, session, openloop, lateness,
                                      traced_stats))
    else:
        walls = reference["walls"]
        round_s = statistics.median(reference["rescaled"])
        result["metrics"] = {
            "ops_per_s": ROUND_REQUESTS / round_s,
            "peak_rss_mb": stats["peak_rss_mb"],
        }
        result["notes"]["ops_per_s"] = (
            f"{ROUND_REQUESTS} requests per closed-loop round at reference speed, "
            f"median of {len(walls)} rounds"
        )
        result["notes"]["peak_rss_mb"] = "server process"

    measured = pipeline.measured_pairs()
    error = load.queue_mean_error(measured)
    # The served artifact comes from the committed cache whatever the seed,
    # so seed 0's expected error holds for every seed.
    expected = None if args.record else expected_entry(args.workload, 0)
    if expected is not None and error != expected["queue_mean_error"]:
        load.failures.append(
            f"Queue mean error over the served pairs is {error!r}, "
            f"expected {expected['queue_mean_error']!r}"
        )
    result["attempted"] = load.attempted
    result["failures"] = load.failures
    result["outputs"] = {"queue_mean_error": error}
    return result


def _session(load: ServeLoad, server: ServerProcess, label: str, seconds: float) -> dict:
    """Warm-up, then closed-loop rounds until the next would overrun ``seconds``."""
    load.closed_round(server.port, f"warmup-{label}", WARMUP_REQUESTS)
    walls: List[float] = []
    rescaled: List[float] = []  # round times at reference speed
    probe = SpeedProbe(sockets=True)
    predict: List[float] = []
    batch: List[float] = []
    start = time.perf_counter()
    while True:
        with probe:
            wall, single, batched = load.closed_round(
                server.port, f"closed-{label}-{len(walls)}"
            )
        walls.append(wall)
        rescaled.append(probe.rescale(wall))
        predict += single
        batch += batched
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return {"walls": walls, "rescaled": rescaled, "predict": predict, "batch": batch}


def _serving_layers(args, load, reference, session, openloop, lateness, stats) -> dict:
    spans = [tuple(span) for span in stats["spans"]]
    # Server spans of the traced closed-loop rounds only: each HTTP span
    # carries the client's request id, and model spans nest under it.
    roots = {span[3]: span for span in spans if span[0] == "http.request"}
    closed = {sid for sid, span in roots.items()
              if span[7].get("request_id", "").startswith("closed-traced")}
    kept = [span for span in spans if span[3] in closed or span[4] in closed]
    metrics = layer_metrics(kept, {}, len(session["walls"]))
    model_ns = sum(span[2] for span in kept if span[0] == "models.predict_batch")
    client_s = sum(session["predict"]) + sum(session["batch"])
    notes = {}

    def tail_ms(name: str, samples: List[float]) -> float:
        pct, value = tail(samples)
        notes[name] = f"p{pct:g} of {len(samples)} requests" if pct else f"max of {len(samples)}"
        return value * 1e3

    metrics.update({
        "serving.p50_ms": percentile(session["predict"], 50) * 1e3,
        "serving.tail_ms": tail_ms("serving.tail_ms", session["predict"]),
        "serving.batch_tail_ms": tail_ms("serving.batch_tail_ms", session["batch"]),
        "serving.openloop_tail_ms": tail_ms("serving.openloop_tail_ms", openloop),
        "serving.openloop_late_ms": tail_ms("serving.openloop_late_ms", lateness),
        "serving.model_share": model_ns / 1e9 / client_s,
        "trace.overhead_frac": statistics.median(session["rescaled"])
        / statistics.median(reference["rescaled"]) - 1,
    })
    path = write_chrome_trace(
        Path(args.trace_dir) / f"{args.workload}-seed{args.seed}.trace.json",
        spans + load.client_spans,
        stats["counts"],
    )
    notes["trace.overhead_frac"] = f"trace {path}"
    return {"metrics": metrics, "notes": notes}


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted([*CAMPAIGNS, "serve-paper"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--trace-dir", default="")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    with SpeedProbe() as probe:
        if args.workload == "serve-paper":
            first = serve_setup(args)
        else:
            from repro.engine import get_engine

            workload = CAMPAIGNS[args.workload](args.seed)
            first = workload.build(Path(args.work_dir) / "rep0")
            get_engine(workload.engine)
    print(f"READY {probe.wall_s!r} {probe.scale()!r}", flush=True)
    if args.setup_only:
        if args.workload == "serve-paper":
            first[2].stop()
        return 0
    if args.workload == "serve-paper":
        result = run_serve(args, first)
    else:
        result = run_campaign(args, workload, first)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
