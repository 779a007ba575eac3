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
it loads, and encodes every 200 body it can give: each ``/predict``
document (all models, and each model alone), each triple's
``/predict/batch`` row, and each pair's all-models rows joined.  A request
naming any triple the table lacks goes whole to the engine, so every error
(unknown app, co-runner or model) keeps its type, precedence and message.

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

**Connections.**  The accepting loop hands each connection to a handler
thread already waiting for one, or starts a new one, so a slow client
delays nobody; a handler that has answered waits for the next connection
unless :data:`MAX_IDLE_HANDLERS` already wait.  One request per connection
(HTTP/1.0).  The handler parses the request head itself, with the standard
library's limits and statuses (400, 414, 431, 501, 505); a header line that
is not ``name: value`` is a 400, names match in any case, and a header's
first occurrence wins.  The response head is formatted in one piece and
leaves with the body in one ``send``.

**Sharding.**  Pass ``reuse_port=True`` to bind with ``SO_REUSEPORT`` so
multiple server processes can share one port (see
:mod:`repro.serving.prefork` for the pre-forked front end).

With telemetry enabled, every response increments
``serving.requests{endpoint=...,status=...}`` and lands its latency in the
``serving.request_seconds{endpoint=...}`` histogram; unrouted paths and
requests refused before routing count under a fixed ``<unknown>`` label,
so clients cannot explode the label space.

Every error is a JSON ``{"error": ...}``: unknown apps/models, missing
fields, malformed bodies and a ``Content-Length`` that is not ASCII digits
are 400s carrying the :class:`~repro.errors.ModelError` message; a
``Content-Length`` over :data:`MAX_BODY_BYTES` is a 413, answered before
any body is read; unknown paths are 404s; a body that does not arrive
within the handler's socket timeout is a 408.  The process never dies on a
bad request, and a request never loses its connection without an answer.
"""

from __future__ import annotations

import json
import os
import queue
import re
import socket
import threading
import time
import traceback
import uuid
from dataclasses import dataclass, field
from email.utils import formatdate
from http.server import BaseHTTPRequestHandler, HTTPServer
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

#: Idle handler threads a server keeps waiting for connections.
MAX_IDLE_HANDLERS = 16

#: Largest request body a ``Content-Length`` may announce: 1 MiB, several
#: hundred times a paper-sized batch request (about 1.3 KB).
MAX_BODY_BYTES = 1 << 20

#: The standard library's request-head limits: bytes in one line, CRLF
#: included, and header lines.
_MAX_LINE = 65536
_MAX_HEADERS = 100


#: A served triple and what it answers: the prediction and its
#: ``/predict/batch`` row, encoded as ``json.dumps(row, sort_keys=True)``.
Triple = Tuple[str, str, str]
Answer = Tuple[PairPrediction, bytes]
#: A ``/predict`` query: (app, co-runner, model, or ``None`` for all models).
Query = Tuple[str, str, Optional[str]]


def _encode_row(prediction: PairPrediction) -> bytes:
    row = {
        "app": prediction.app,
        "other": prediction.other,
        "model": prediction.model,
        "predicted": prediction.predicted,
    }
    return json.dumps(row, sort_keys=True).encode("utf-8")


def _encode_document(
    app: str, other: str, version: str, predictions: Sequence[PairPrediction]
) -> bytes:
    """A ``/predict`` body."""
    predicted = {p.model: p.predicted for p in predictions}
    document = {"app": app, "other": other, "version": version, "predictions": predicted}
    return json.dumps(document, sort_keys=True).encode("utf-8")


#: A request line's HTTP version, its numbers bounded as the stdlib bounds them.
_VERSION = re.compile(r"HTTP/(\d{1,10})\.\d{1,10}", re.ASCII)


@dataclass(frozen=True)
class ServingState:
    """One immutable (artifact, engine, version, answer table) bundle.

    The server holds exactly one reference to the live bundle; hot reload
    builds a complete replacement, answer table included, and swaps the
    reference in a single assignment.  Handlers read the reference once per
    request, so a request never sees a half-updated mix of two versions.

    ``documents`` holds every ``/predict`` body the table answers, keyed by
    query, and ``pair_rows`` each fully answered pair's ``/predict/batch``
    rows for all models, joined.
    """

    artifact: ModelArtifact
    engine: PredictionEngine
    version: str
    answers: Dict[Triple, Answer]
    documents: Dict[Query, bytes]
    pair_rows: Dict[Tuple[str, str], bytes]
    loaded_at: float = field(default_factory=time.time)

    @classmethod
    def load(cls, artifact: ModelArtifact, version: str) -> "ServingState":
        """Fit ``artifact``, table every triple its engine answers, and
        encode every answer the table gives.

        One ``predict_batch`` call scores every (app, co-runner, model)
        triple.  If the engine refuses some triple (say, a co-runner
        signature without the utilization estimate the Queue model needs),
        each triple is scored alone and only the answered ones are tabled,
        so a request for another still reaches the engine's error.
        """
        engine = artifact.engine()
        names = engine.model_names
        triples = [
            (app, other, model)
            for model in names
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
        documents: Dict[Query, bytes] = {}
        pair_rows: Dict[Tuple[str, str], bytes] = {}
        for app in artifact.degradations:
            for other in engine.signatures:
                pair = [answers.get((app, other, name)) for name in names]
                for name, answer in zip(names, pair):
                    if answer is not None:
                        documents[app, other, name] = _encode_document(
                            app, other, version, [answer[0]]
                        )
                if None not in pair:
                    documents[app, other, None] = _encode_document(
                        app, other, version, [p for p, _row in pair]
                    )
                    pair_rows[app, other] = b", ".join(row for _p, row in pair)
        return cls(artifact, engine, version, answers, documents, pair_rows)

    def predict_body(self, app: str, other: str, model: Optional[str]) -> bytes:
        """The ``/predict`` body for one pairing; all models when ``model`` is None.

        A query the table lacks goes to the engine, which raises the error
        the table would have hidden.
        """
        body = self.documents.get((app, other, model))
        if body is None:
            names = self.engine.model_names if model is None else [model]
            predictions = self.engine.predict_batch(
                [(app, other, name) for name in names]
            )
            body = _encode_document(app, other, self.version, predictions)
        return body

    def batch_rows(self, queries: Sequence[Query]) -> bytes:
        """The ``/predict/batch`` rows for ``queries``, in order, joined.

        A request holding any query the table lacks goes whole to the
        engine, as in :meth:`predict_body`.
        """
        try:
            rows = [
                self.pair_rows[app, other]
                if model is None
                else self.answers[app, other, model][1]
                for app, other, model in queries
            ]
        except KeyError:
            names = self.engine.model_names
            triples = [
                (app, other, name)
                for app, other, model in queries
                for name in (names if model is None else [model])
            ]
            rows = [_encode_row(p) for p in self.engine.predict_batch(triples)]
        return b", ".join(rows)


class _Headers(dict):
    """Request headers by lower-cased name; the first occurrence wins."""

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:  # type: ignore[override]
        return dict.get(self, name.lower(), default)


class _BodyTooLarge(ModelError):
    """A ``Content-Length`` over :data:`MAX_BODY_BYTES`."""


class _Handler(BaseHTTPRequestHandler):
    """Routes one request; the server instance hangs off ``self.server``."""

    server: "PredictionServer"  # type: ignore[assignment]

    # Buffer the response so that it leaves in one send when
    # ``handle_one_request`` flushes.  64 KiB holds a paper-sized batch
    # answer (about 13 KB) many times over.
    wbufsize = 1 << 16

    # Seconds a socket read or write may block.  Without it a client whose
    # Content-Length promises more bytes than it sends holds its handler
    # thread until shutdown; with it, such a body gets a 408, and a head
    # that never ends closes the connection.
    timeout = 10.0

    # Until a request head parses, a handler has no path and no headers.
    path = ""
    headers = _Headers()

    # Silence the default stderr access log — the serving metrics cover it.
    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass

    # ------------------------------------------------------------------
    def parse_request(self) -> bool:
        """Parse the request line and read the headers; False once a bad head
        is answered."""
        self.command = None
        self.request_version = self.default_request_version
        self.close_connection = True
        requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        self.requestline = requestline
        words = requestline.split()
        if not words:
            return False
        if len(words) >= 3:
            version = words[-1]
            match = _VERSION.fullmatch(version)
            if match is None:
                self.send_error(400, f"Bad request version ({version!r})")
                return False
            if int(match[1]) >= 2:
                self.send_error(505, f"Invalid HTTP version ({version[5:]})")
                return False
            self.request_version = version
        if not 2 <= len(words) <= 3:
            self.send_error(400, f"Bad request syntax ({requestline!r})")
            return False
        command, path = words[:2]
        if len(words) == 2 and command != "GET":
            self.send_error(400, f"Bad HTTP/0.9 request type ({command!r})")
            return False
        self.command = command
        # A path starting with '//' reads as a scheme-less absolute URI.
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path
        headers = _Headers()
        for _ in range(_MAX_HEADERS + 1):
            line = self.rfile.readline(_MAX_LINE + 1)
            if len(line) > _MAX_LINE:
                self.send_error(431, "Line too long")
                return False
            if line in (b"\r\n", b"\n", b""):
                self.headers = headers
                return True
            name, colon, value = str(line, "iso-8859-1").partition(":")
            if not colon or name.split() != [name]:
                self.send_error(400, f"Bad header line ({line[:100]!r})")
                return False
            headers.setdefault(name.lower(), value.strip(" \t\r\n"))
        self.send_error(431, "Too many headers")
        return False

    def send_error(
        self, code: int, message: Optional[str] = None, explain: Optional[str] = None
    ) -> None:
        """Answer a request refused before routing as a counted JSON error."""
        t0 = time.perf_counter()
        code = int(code)
        # The reply carries a status line even when the request's version
        # was never read.
        self.request_version = self.protocol_version
        self._begin_request()
        self._error(code, message or self.responses[code][0], UNKNOWN_ENDPOINT, t0)

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
        if self.request_version != "HTTP/0.9":
            head = (
                f"{self.protocol_version} {status} {self.responses[status][0]}\r\n"
                f"Server: {self.version_string()}\r\n"
                f"Date: {self.server.http_date()}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"X-Request-Id: {self.request_id}\r\n\r\n"
            )
            body = head.encode("latin-1") + body
        self.wfile.write(body)

    def _send_json(self, status: int, document: dict, endpoint: str, t0: float) -> None:
        body = json.dumps(document, sort_keys=True).encode("utf-8")
        self._finish(status, body, "application/json", endpoint, t0)

    def _error(self, status: int, message: str, endpoint: str, t0: float) -> None:
        self._send_json(status, {"error": message}, endpoint, t0)

    def _read_body(self) -> dict:
        raw_length = self.headers.get("Content-Length", "0")
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise ModelError(f"malformed Content-Length header {raw_length!r}")
        digits = raw_length.lstrip("0") or "0"
        # int() refuses digit strings past the interpreter's limit.
        length = int(digits) if len(digits) < 20 else MAX_BODY_BYTES + 1
        if length > MAX_BODY_BYTES:
            raise _BodyTooLarge(
                f"Content-Length is over the {MAX_BODY_BYTES}-byte request body limit"
            )
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
        elif url.path in ("/metrics", "/metrics/fleet"):
            fleet_view = url.path == "/metrics/fleet"
            document = self.server.fleet() if fleet_view else telemetry.registry().snapshot()
            if self._wants_prometheus():
                text = render_prometheus(document["metrics"] if fleet_view else document)
                self._finish(200, text.encode("utf-8"), PROMETHEUS_CONTENT_TYPE, url.path, t0)
            else:
                self._send_json(200, document, url.path, t0)
        else:
            self._error(404, f"unknown path {url.path!r}", UNKNOWN_ENDPOINT, t0)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        t0 = time.perf_counter()
        self._begin_request()
        url = urlparse(self.path)
        if url.path not in ("/predict", "/predict/batch"):
            self._error(404, f"unknown path {url.path!r}", UNKNOWN_ENDPOINT, t0)
            return
        try:
            body = self._read_body()
        except TimeoutError:
            # What did arrive is unframed, so the connection cannot be reused.
            self.close_connection = True
            message = f"request body did not arrive within {self.timeout}s"
            self._error(408, message, url.path, t0)
            return
        except _BodyTooLarge as exc:
            self._error(413, str(exc), url.path, t0)
            return
        except ModelError as exc:
            self._error(400, str(exc), url.path, t0)
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
            self._error(400, "both 'app' and 'other' are required", "/predict", t0)
            return
        if model is not None and not isinstance(model, str):
            message = "'model' must be a model name, or null for all models"
            self._error(400, message, "/predict", t0)
            return
        try:
            body = self.server.state.predict_body(str(app), str(other), model or None)
        except ReproError as exc:
            self._error(400, str(exc), "/predict", t0)
            return
        self._finish(200, body, "application/json", "/predict", t0)

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
                    (str(entry[0]), str(entry[1]), None if model is None else str(model))
                )
            body = self.server.predict_batch(pairs)
        except ReproError as exc:
            self._error(400, str(exc), "/predict/batch", t0)
            return
        self._finish(200, body, "application/json", "/predict/batch", t0)


class PredictionServer(HTTPServer):
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

    # A burst of connections waits in the kernel's accept queue, rather than
    # having its connection attempts dropped and retried a second later.
    request_queue_size = socket.SOMAXCONN

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
        self.state = ServingState.load(artifact, version)
        self.registry = registry
        self.reload_interval = reload_interval
        self.started_at = time.time()
        self.reloads = 0
        self.reload_failures = 0
        self.last_reload_error: Optional[str] = None
        self._requests_observed = 0
        self._requests_lock = threading.Lock()
        self._stop_watcher = threading.Event()
        self._watcher: Optional[threading.Thread] = None
        self.stats_dir = Path(stats_dir) if stats_dir is not None else None
        self._stats_thread: Optional[threading.Thread] = None
        # Handler threads waiting for a connection, and the queue that hands
        # them one; ``(None, None)`` releases a waiting handler.
        self._idle = 0
        self._idle_lock = threading.Lock()
        self._handoff: "queue.SimpleQueue[tuple]" = queue.SimpleQueue()
        self._closed = False
        self._date = (0, "")
        self._reuse_port = reuse_port  # consumed by server_bind during init
        # Every attribute server_close reads is set: a failed bind calls it.
        super().__init__((host, port), _Handler)
        if registry is not None:
            self._watcher = threading.Thread(
                target=self._watch_registry, daemon=True, name="registry-watcher"
            )
            self._watcher.start()
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
    # Handler threads
    # ------------------------------------------------------------------
    def process_request(self, request: socket.socket, client_address: tuple) -> None:
        """Hand the connection to a waiting handler thread, or start one."""
        with self._idle_lock:
            waiting = self._idle > 0
            if waiting:
                self._idle -= 1
                self._handoff.put((request, client_address))
        if not waiting:
            threading.Thread(
                target=self._handle_connections,
                args=(request, client_address),
                daemon=True,
            ).start()

    def _handle_connections(
        self, request: Optional[socket.socket], client_address: Optional[tuple]
    ) -> None:
        """Serve connections until the server closes or enough handlers idle.

        A handler counts itself idle before it closes its connection, so a
        client's next request finds it waiting.
        """
        while request is not None:
            try:
                self.finish_request(request, client_address)
            except Exception:  # noqa: BLE001 - one connection's failure ends only it
                self.handle_error(request, client_address)
            with self._idle_lock:
                waiting = not self._closed and self._idle < MAX_IDLE_HANDLERS
                if waiting:
                    self._idle += 1
            self.shutdown_request(request)
            if not waiting:
                return
            request, client_address = self._handoff.get()

    def http_date(self) -> str:
        """The ``Date`` header's value, formatted at most once a second."""
        now = int(time.time())
        if self._date[0] != now:
            self._date = (now, formatdate(now, usegmt=True))
        return self._date[1]

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

    def predict_batch(
        self, pairs: Sequence[Tuple[str, str, Optional[str]]]
    ) -> bytes:
        """The ``/predict/batch`` body; ``model=None`` expands to all models.

        The body is joined from the table's encoded rows and equals
        ``json.dumps({"version": ..., "predictions": [row, ...]},
        sort_keys=True)`` byte for byte.
        """
        state = self.state
        rows = state.batch_rows(pairs)
        if telemetry.enabled():
            models = len(state.engine.model_names)
            telemetry.registry().counter_inc(
                "serving.predictions",
                amount=float(sum(models if m is None else 1 for _a, _o, m in pairs)),
            )
        return b"".join(
            (
                b'{"predictions": [',
                rows,
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
        with self._idle_lock:
            self._closed = True
            for _ in range(self._idle):
                self._handoff.put((None, None))
            self._idle = 0
        self._stop_watcher.set()
        if self._watcher is not None:
            self._watcher.join(timeout=5.0)
        if self._stats_thread is not None:
            self._stats_thread.join(timeout=5.0)
            self.publish_stats()  # final numbers for any still-running sibling
        super().server_close()
