"""A stdlib-only batch prediction server with versioned hot-reload.

``repro serve`` loads (or fits) a :class:`~repro.serving.artifact.ModelArtifact`
— or watches a :class:`~repro.serving.registry.ModelRegistry` — builds a
:class:`~repro.core.models.PredictionEngine`, and answers HTTP:

* ``GET  /healthz``        — liveness, served version, request tally,
  reload counters, artifact metadata.
* ``GET  /models``         — fitted model names, apps, catalog size.
* ``GET  /predict``        — one triple via query string
  (``?app=fftw&other=milc&model=Queue``; ``model`` defaults to all).
* ``POST /predict``        — same as a JSON body
  (``{"app": ..., "other": ..., "model": ...}``).
* ``POST /predict/batch``  — ``{"requests": [[app, other, model], ...]}``;
  ``model`` may be ``null`` or omitted (a 2-tuple) to answer all models,
  matching ``/predict`` semantics.
* ``GET  /metrics``        — the telemetry registry's snapshot; JSON by
  default, Prometheus text exposition with ``Accept: text/plain``.
* ``GET  /metrics/fleet``  — every live shard's snapshot merged via the
  stats-dir rendezvous (see :mod:`repro.serving.fleet`); any shard
  answers for the whole fleet.  Same content negotiation as ``/metrics``.

**The answer table.**  A fitted artifact answers a small, fixed set of
(app, co-runner, model) triples, so each served version scores all of them
in one :meth:`~repro.core.models.PredictionEngine.predict_batch` call when
it loads, and keeps each :class:`~repro.core.models.PairPrediction` with
its ``/predict/batch`` row already JSON-encoded.  Requests are answered
from that table: a batch body is the encoded rows joined, byte-identical
to ``json.dumps(document, sort_keys=True)``.  A request naming any triple
the table lacks goes whole to the engine, so every error (unknown app,
co-runner or model) keeps its type, precedence and message.

**Request ids.**  Every response echoes an ``X-Request-Id`` header — the
client's, if it sent a sane one, otherwise a freshly minted hex id — and
the same id tags the request's structured log events when ``REPRO_LOG``
is on.

**Hot reload.**  When constructed over a registry, a daemon watcher thread
polls the registry's ``CURRENT`` pointer every ``reload_interval`` seconds.
On a version flip it loads and checksum-verifies the new artifact, fits a
fresh engine, builds its answer table, and swaps the whole bundle behind a
single attribute assignment — atomic under the GIL, so every request sees
one consistent bundle: in-flight requests finish on the old table, new
requests pick up the new one, and zero requests fail across the flip.  A
damaged artifact never swaps in: the watcher keeps serving the old
version and counts ``serving.reload_failures``.

**One write.**  The handler buffers its output, so a response's status
line, headers and body leave in one ``send`` when the request ends.

**Sharding.**  Pass ``reuse_port=True`` to bind with ``SO_REUSEPORT`` so
multiple server processes can share one port (see
:mod:`repro.serving.prefork` for the pre-forked front end).

Requests are served by a :class:`ThreadingHTTPServer`; each request reads
the serving bundle once, and the bundle is immutable, so concurrent reads
need no locking.  With telemetry enabled, every request
increments ``serving.requests{endpoint=...,status=...}`` and lands its
latency in the ``serving.request_seconds{endpoint=...}`` histogram; paths
that match no route are collapsed to a fixed ``<unknown>`` endpoint label
so arbitrary client paths cannot explode the label space.

Bad inputs map to structured JSON errors: unknown apps/models, missing
fields, malformed bodies, and malformed ``Content-Length`` headers are
400s carrying the :class:`~repro.errors.ModelError` message, unknown paths
are 404s, and a body that does not arrive within the handler's socket
timeout is a 408 that closes the connection.  The process never dies on a
bad request, and a request never loses its connection without an answer.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
import traceback
import uuid
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple
from urllib.parse import parse_qs, urlparse

from .. import jsonfile, telemetry
from ..telemetry import logs
from ..telemetry.exposition import PROMETHEUS_CONTENT_TYPE, render_prometheus
from ..core.models import PairPrediction, PredictionEngine
from ..errors import CorruptDocument, ModelError, ReproError
from . import fleet
from .artifact import ModelArtifact
from .registry import ModelRegistry

__all__ = ["PredictionServer", "ServingState", "UNKNOWN_ENDPOINT"]

#: Longest client-supplied ``X-Request-Id`` honored before we mint our own.
_REQUEST_ID_MAX = 128

#: Fixed telemetry endpoint label for paths that match no route — using the
#: raw request path would let clients mint unbounded label cardinality.
UNKNOWN_ENDPOINT = "<unknown>"

#: Version label served when the artifact came from a bare file, not a
#: registry.
UNVERSIONED = "unversioned"

#: Seconds between a server's periodic fleet stats publishes.
STATS_INTERVAL = 2.0


#: A served triple and what it answers: the prediction and its
#: ``/predict/batch`` row, encoded as ``json.dumps(row, sort_keys=True)``.
Triple = Tuple[str, str, str]
Answer = Tuple[PairPrediction, bytes]


def _encode_row(prediction: PairPrediction) -> bytes:
    row = {
        "app": prediction.app,
        "other": prediction.other,
        "model": prediction.model,
        "predicted": prediction.predicted,
    }
    return json.dumps(row, sort_keys=True).encode("utf-8")


@dataclass(frozen=True)
class ServingState:
    """One immutable (artifact, engine, version, answer table) bundle.

    The server holds exactly one reference to the live bundle; hot reload
    builds a complete replacement, answer table included, and swaps the
    reference in a single assignment.  Handlers read the reference once per
    request, so a request never sees a half-updated mix of two versions.
    """

    artifact: ModelArtifact
    engine: PredictionEngine
    version: str
    answers: Dict[Triple, Answer]
    loaded_at: float = field(default_factory=time.time)

    @classmethod
    def load(cls, artifact: ModelArtifact, version: str) -> "ServingState":
        """Fit ``artifact`` and table every triple its engine answers.

        One ``predict_batch`` call scores every (app, co-runner, model)
        triple.  If the engine refuses some triple (say, a co-runner
        signature without the utilization estimate the Queue model needs),
        each triple is scored alone and only the answered ones are tabled,
        so a request for another still reaches the engine's error.
        """
        engine = artifact.engine()
        triples = [
            (app, other, model)
            for model in engine.model_names
            for app in artifact.degradations
            for other in engine.signatures
        ]
        try:
            predictions = engine.predict_batch(triples)
        except ReproError:
            predictions = []
            for triple in triples:
                try:
                    predictions += engine.predict_batch([triple])
                except ReproError:
                    pass
        answers = {
            (p.app, p.other, p.model): (p, _encode_row(p)) for p in predictions
        }
        return cls(artifact, engine, version, answers)

    def answer(self, triples: List[Triple]) -> List[Answer]:
        """The answers to ``triples``, in order, as ``predict_batch`` gives them.

        A request holding any triple the table lacks goes whole to the
        engine, which raises the error the table would have hidden.
        """
        answers = self.answers
        try:
            return [answers[triple] for triple in triples]
        except KeyError:
            return [
                (p, _encode_row(p)) for p in self.engine.predict_batch(triples)
            ]


class _Handler(BaseHTTPRequestHandler):
    """Routes one request; the server instance hangs off ``self.server``."""

    server: "PredictionServer"  # type: ignore[assignment]

    # Buffer the response so its status line, headers and body leave in one
    # send: ``handle_one_request`` flushes after each request, and
    # ``finish`` after the stdlib's own error replies.  64 KiB holds a
    # paper-sized batch answer (about 13 KB) many times over.
    wbufsize = 1 << 16

    # Seconds a socket read or write may block.  Without it a client whose
    # Content-Length promises more bytes than it sends holds its handler
    # thread until shutdown; with it, such a body gets a 408, and an idle
    # keep-alive connection is closed by the stdlib's own timeout handling.
    timeout = 10.0

    # Silence the default stderr access log — the serving metrics cover it.
    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass

    # ------------------------------------------------------------------
    def _begin_request(self) -> str:
        """Adopt the client's ``X-Request-Id`` (sanitized) or mint one.

        The id is echoed on the response and bound to the handler thread so
        every structured log event this request causes carries it.
        """
        raw = self.headers.get("X-Request-Id") or ""
        request_id = "".join(
            ch for ch in raw.strip() if ch.isprintable() and ch not in '"\\'
        )[:_REQUEST_ID_MAX]
        if not request_id:
            request_id = uuid.uuid4().hex
        self.request_id = request_id
        logs.set_request_id(request_id)
        return request_id

    def _wants_prometheus(self) -> bool:
        accept = self.headers.get("Accept") or ""
        return "text/plain" in accept or "openmetrics" in accept

    def _finish(
        self,
        status: int,
        body: bytes,
        content_type: str,
        endpoint: str,
        t0: float,
    ) -> None:
        seconds = time.perf_counter() - t0
        self.server.note_request()
        # Metrics land before the response bytes: a client that has seen the
        # reply must also see the request counted.
        if telemetry.enabled():
            registry = telemetry.registry()
            registry.counter_inc(
                "serving.requests", endpoint=endpoint, status=status
            )
            registry.observe(
                "serving.request_seconds", seconds, endpoint=endpoint
            )
        if logs.enabled():
            logs.log_event(
                "serving.request",
                endpoint=endpoint,
                status=status,
                seconds=round(seconds, 6),
                method=self.command,
                path=self.path,
            )
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("X-Request-Id", getattr(self, "request_id", ""))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, document: dict, endpoint: str, t0: float) -> None:
        body = json.dumps(document, sort_keys=True).encode("utf-8")
        self._finish(status, body, "application/json", endpoint, t0)

    def _send_text(
        self, status: int, text: str, endpoint: str, t0: float, content_type: str
    ) -> None:
        self._finish(status, text.encode("utf-8"), content_type, endpoint, t0)

    def _read_body(self) -> dict:
        raw_length = self.headers.get("Content-Length")
        try:
            length = int(raw_length or 0)
        except ValueError as exc:
            raise ModelError(
                f"malformed Content-Length header {raw_length!r}"
            ) from exc
        raw = self.rfile.read(length) if length > 0 else b""
        if not raw:
            raise ModelError("request body must be a JSON object")
        try:
            document = jsonfile.parse(raw, "request body")
        except CorruptDocument as exc:
            raise ModelError(str(exc)) from exc
        if not isinstance(document, dict):
            raise ModelError("request body must be a JSON object")
        return document

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        t0 = time.perf_counter()
        self._begin_request()
        url = urlparse(self.path)
        if url.path == "/healthz":
            self._send_json(200, self.server.health(), "/healthz", t0)
        elif url.path == "/models":
            self._send_json(200, self.server.models(), "/models", t0)
        elif url.path == "/predict":
            query = parse_qs(url.query)
            self._predict(
                {
                    "app": (query.get("app") or [None])[0],
                    "other": (query.get("other") or [None])[0],
                    "model": (query.get("model") or [None])[0],
                },
                t0,
            )
        elif url.path == "/metrics":
            snapshot = telemetry.registry().snapshot()
            if self._wants_prometheus():
                self._send_text(
                    200,
                    render_prometheus(snapshot),
                    "/metrics",
                    t0,
                    PROMETHEUS_CONTENT_TYPE,
                )
            else:
                self._send_json(200, snapshot, "/metrics", t0)
        elif url.path == "/metrics/fleet":
            document = self.server.fleet()
            if self._wants_prometheus():
                self._send_text(
                    200,
                    render_prometheus(document["metrics"]),
                    "/metrics/fleet",
                    t0,
                    PROMETHEUS_CONTENT_TYPE,
                )
            else:
                self._send_json(200, document, "/metrics/fleet", t0)
        else:
            self._send_json(
                404, {"error": f"unknown path {url.path!r}"}, UNKNOWN_ENDPOINT, t0
            )

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        t0 = time.perf_counter()
        self._begin_request()
        url = urlparse(self.path)
        if url.path not in ("/predict", "/predict/batch"):
            self._send_json(
                404, {"error": f"unknown path {url.path!r}"}, UNKNOWN_ENDPOINT, t0
            )
            return
        try:
            body = self._read_body()
        except TimeoutError:
            # What did arrive is unframed, so the connection cannot be reused.
            self.close_connection = True
            self._send_json(
                408,
                {"error": f"request body did not arrive within {self.timeout}s"},
                url.path,
                t0,
            )
            return
        except ModelError as exc:
            self._send_json(400, {"error": str(exc)}, url.path, t0)
            return
        if url.path == "/predict":
            self._predict(body, t0)
        else:
            self._predict_batch(body, t0)

    # ------------------------------------------------------------------
    def _predict(self, request: dict, t0: float) -> None:
        app = request.get("app")
        other = request.get("other")
        model = request.get("model")
        if not app or not other:
            self._send_json(
                400,
                {"error": "both 'app' and 'other' are required"},
                "/predict",
                t0,
            )
            return
        if model is not None and not isinstance(model, str):
            self._send_json(
                400,
                {"error": "'model' must be a model name, or null for all models"},
                "/predict",
                t0,
            )
            return
        try:
            document = self.server.predict_one(str(app), str(other), model)
        except ReproError as exc:
            self._send_json(400, {"error": str(exc)}, "/predict", t0)
            return
        self._send_json(200, document, "/predict", t0)

    def _predict_batch(self, body: dict, t0: float) -> None:
        try:
            requests = body.get("requests")
            if not isinstance(requests, list):
                raise ModelError(
                    "'requests' must be a list of [app, other, model] entries"
                )
            pairs: List[Tuple[str, str, Optional[str]]] = []
            for entry in requests:
                if not isinstance(entry, (list, tuple)) or len(entry) not in (2, 3):
                    raise ModelError(
                        "each request must be [app, other, model] or "
                        "[app, other] (model null/omitted = all models)"
                    )
                model = entry[2] if len(entry) == 3 else None
                pairs.append(
                    (
                        str(entry[0]),
                        str(entry[1]),
                        str(model) if model is not None else None,
                    )
                )
            body = self.server.predict_batch(pairs)
        except ReproError as exc:
            self._send_json(400, {"error": str(exc)}, "/predict/batch", t0)
            return
        self._finish(200, body, "application/json", "/predict/batch", t0)


class PredictionServer(ThreadingHTTPServer):
    """Serves a fitted prediction engine over HTTP, hot-reloadable.

    Args:
        artifact: a fitted-model artifact to serve (static mode).  Mutually
            exclusive with ``registry``.
        host: bind address (default loopback).
        port: bind port (0 lets the OS pick one — handy in tests; read the
            chosen port back from :attr:`server_port`).
        registry: a :class:`ModelRegistry` to serve from; the currently
            promoted version is loaded at startup and a watcher thread
            follows subsequent promotions/rollbacks.
        reload_interval: seconds between registry pointer polls.
        reuse_port: bind with ``SO_REUSEPORT`` so sibling processes can
            share the port (pre-fork sharding).
        stats_dir: directory for the per-pid fleet stats rendezvous (see
            :mod:`repro.serving.fleet`).  ``None`` (default) keeps the
            server standalone; ``/metrics/fleet`` then reports a fleet of
            one.

    With a stats dir, the server publishes every :data:`STATS_INTERVAL`
    seconds, and synchronously before answering ``/metrics/fleet`` or
    ``/healthz``.
    """

    daemon_threads = True

    def __init__(
        self,
        artifact: Optional[ModelArtifact] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        registry: Optional[ModelRegistry] = None,
        reload_interval: float = 1.0,
        reuse_port: bool = False,
        stats_dir: "Optional[str | Path]" = None,
    ) -> None:
        if (artifact is None) == (registry is None):
            raise ModelError(
                "PredictionServer needs exactly one of 'artifact' or 'registry'"
            )
        if registry is not None:
            version, artifact = registry.load_current()
        else:
            assert artifact is not None
            version = str(artifact.metadata.get("version") or UNVERSIONED)
        # Load before binding, so a version that fails to load leaves no
        # listening socket behind.
        state = ServingState.load(artifact, version)
        self._reuse_port = reuse_port  # consumed by server_bind during init
        super().__init__((host, port), _Handler)
        self.registry = registry
        self.reload_interval = reload_interval
        self.state = state
        self.started_at = time.time()
        self.reloads = 0
        self.reload_failures = 0
        self.last_reload_error: Optional[str] = None
        self._requests_observed = 0
        self._requests_lock = threading.Lock()
        self._stop_watcher = threading.Event()
        self._watcher: Optional[threading.Thread] = None
        if registry is not None:
            self._watcher = threading.Thread(
                target=self._watch_registry, daemon=True, name="registry-watcher"
            )
            self._watcher.start()
        self.stats_dir = Path(stats_dir) if stats_dir is not None else None
        self._stats_thread: Optional[threading.Thread] = None
        if self.stats_dir is not None:
            self.publish_stats()
            self._stats_thread = threading.Thread(
                target=self._publish_loop, daemon=True, name="stats-publisher"
            )
            self._stats_thread.start()

    # Back-compat conveniences: the pre-registry server exposed these.
    @property
    def artifact(self) -> ModelArtifact:
        return self.state.artifact

    @property
    def engine(self) -> PredictionEngine:
        return self.state.engine

    @property
    def requests_served(self) -> int:
        with self._requests_lock:
            return self._requests_observed

    def note_request(self) -> None:
        """Count one served response (every endpoint, every status)."""
        with self._requests_lock:
            self._requests_observed += 1

    # ------------------------------------------------------------------
    # Socket options
    # ------------------------------------------------------------------
    def server_bind(self) -> None:
        if self._reuse_port:
            self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        super().server_bind()

    # ------------------------------------------------------------------
    # Hot reload
    # ------------------------------------------------------------------
    def _watch_registry(self) -> None:
        while not self._stop_watcher.wait(self.reload_interval):
            self.reload_now()

    def reload_now(self) -> bool:
        """One synchronous reload check; True if a new version swapped in.

        Reads the registry pointer; on a flip, verifies and fits the new
        artifact and builds its answer table *before* touching the live
        bundle, then swaps it in a single attribute assignment.  Any failure
        — damaged artifact, vanished registry, garbled pointer, an artifact
        whose products cannot be fitted — leaves the old bundle serving, is
        counted in ``serving.reload_failures`` and shown in ``/healthz`` as
        ``last_reload_error``; the watcher thread keeps polling.
        """
        if self.registry is None:
            return False
        try:
            version = self.registry.current_version()
            if version is None or version == self.state.version:
                return False
            fresh = ServingState.load(self.registry.verify(version), version)
        except Exception as exc:  # noqa: BLE001 - the watcher must outlive any bad version
            error = str(exc) if isinstance(exc, ReproError) else repr(exc)
            self.reload_failures += 1
            self.last_reload_error = error
            if telemetry.enabled():
                telemetry.registry().counter_inc("serving.reload_failures")
            if logs.enabled():
                logs.log_event(
                    "serving.reload_failed", error=error, traceback=traceback.format_exc()
                )
            return False
        previous = self.state.version
        self.state = fresh  # the atomic swap: one reference assignment
        self.reloads += 1
        self.last_reload_error = None
        if telemetry.enabled():
            telemetry.registry().counter_inc("serving.reloads")
        if logs.enabled():
            logs.log_event("serving.reload", version=version, previous=previous)
        return True

    # ------------------------------------------------------------------
    # Fleet stats (see repro.serving.fleet for the rendezvous protocol)
    # ------------------------------------------------------------------
    def shard_stats(self) -> dict:
        """This process's publishable stats document (metrics included)."""
        state = self.state
        return {
            "pid": os.getpid(),
            "started_at": self.started_at,
            "updated_at": time.time(),
            "version": state.version,
            "shard_requests_served": self.requests_served,
            "reloads": self.reloads,
            "reload_failures": self.reload_failures,
            "last_reload_error": self.last_reload_error,
            "metrics": telemetry.registry().snapshot(),
        }

    def publish_stats(self) -> None:
        """Atomically (re)write this shard's stats file (no-op if no dir)."""
        if self.stats_dir is not None:
            fleet.publish_stats(self.stats_dir, self.shard_stats())

    def _publish_loop(self) -> None:
        while not self._stop_watcher.wait(STATS_INTERVAL):
            self.publish_stats()

    def fleet(self) -> dict:
        """The merged fleet view: every live shard's stats folded together.

        Publishes this shard's own stats synchronously first, so the
        answering shard is always current in the merge; without a stats
        dir this is a fleet of one.
        """
        if self.stats_dir is not None:
            self.publish_stats()
            documents = fleet.read_shard_documents(self.stats_dir)
            if documents:
                document = fleet.fleet_document(documents)
            else:
                document = fleet.fleet_document([self.shard_stats()])
        else:
            document = fleet.fleet_document([self.shard_stats()])
        if telemetry.enabled():
            telemetry.registry().gauge_max(
                "serving.fleet_shards", float(document["shard_count"])
            )
        return document

    # ------------------------------------------------------------------
    # Endpoint documents (thread-safe: each reads one immutable bundle)
    # ------------------------------------------------------------------
    def health(self) -> dict:
        state = self.state
        fleet_view = self.fleet()
        return {
            "status": "ok",
            "uptime_seconds": time.time() - self.started_at,
            "version": state.version,
            "shard_requests_served": self.requests_served,
            "reloads": self.reloads,
            "reload_failures": self.reload_failures,
            "last_reload_error": self.last_reload_error,
            "pid": os.getpid(),
            "registry": str(self.registry.root) if self.registry else None,
            "models": state.engine.model_names,
            "apps": sorted(state.engine.signatures),
            "metadata": dict(state.artifact.metadata),
            "fleet": {
                "shard_count": fleet_view["shard_count"],
                "requests_served": fleet_view["requests_served"],
                "shards": fleet_view["shards"],
            },
        }

    def models(self) -> dict:
        state = self.state
        return {
            "models": state.engine.model_names,
            "apps": sorted(state.engine.signatures),
            "catalog_size": len(state.artifact.observations),
            "version": state.version,
        }

    def predict_one(self, app: str, other: str, model: Optional[str]) -> dict:
        """One pairing; all models when ``model`` is omitted."""
        state = self.state
        names = [model] if model else state.engine.model_names
        answers = state.answer([(app, other, name) for name in names])
        return {
            "app": app,
            "other": other,
            "version": state.version,
            "predictions": {p.model: p.predicted for p, _row in answers},
        }

    def predict_batch(
        self, pairs: Sequence[Tuple[str, str, Optional[str]]]
    ) -> bytes:
        """The ``/predict/batch`` body; ``model=None`` expands to all models.

        The body is joined from the table's encoded rows and equals
        ``json.dumps({"version": ..., "predictions": [row, ...]},
        sort_keys=True)`` byte for byte.
        """
        state = self.state
        triples: List[Triple] = []
        for app, other, model in pairs:
            if model is None:
                triples.extend(
                    (app, other, name) for name in state.engine.model_names
                )
            else:
                triples.append((app, other, model))
        answers = state.answer(triples)
        if telemetry.enabled():
            telemetry.registry().counter_inc(
                "serving.predictions", amount=float(len(answers))
            )
        return b"".join(
            (
                b'{"predictions": [',
                b", ".join(row for _p, row in answers),
                b'], "version": ',
                json.dumps(state.version).encode("utf-8"),
                b"}",
            )
        )

    # ------------------------------------------------------------------
    def serve_background(self) -> threading.Thread:
        """Start serving on a daemon thread (tests and `repro serve`)."""
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread

    def server_close(self) -> None:
        self._stop_watcher.set()
        if self._watcher is not None:
            self._watcher.join(timeout=5.0)
        if self._stats_thread is not None:
            self._stats_thread.join(timeout=5.0)
            self.publish_stats()  # final numbers for any still-running sibling
        super().server_close()
