"""Pre-forked multi-process serving: N servers sharing one port.

A single :class:`~repro.serving.server.PredictionServer` is a threaded
stdlib server, which is plenty for functional tests but leaves the GIL in
charge of throughput.  :class:`ShardedPredictionServer` spawns N worker
*processes*, each binding its own listening socket to the **same**
``(host, port)`` with ``SO_REUSEPORT`` — the kernel then hashes incoming
connections across the listeners, giving per-core parallelism with no
user-space load balancer and no shared accept lock.

Each worker is a full :class:`PredictionServer`: it serves from the same
on-disk registry (or artifact file), runs its own hot-reload watcher, and
reports its own ``pid`` in ``/healthz`` — so a promotion flips every shard
within one ``reload_interval``, and clients can observe the sharding by
sampling pids.  Every worker also publishes its stats document into a
shared ``stats_dir`` (see :mod:`repro.serving.fleet`), so ``GET
/metrics/fleet`` on the shared port — whichever shard the kernel picks —
answers with the whole fleet's merged metrics, and ``/healthz`` shows a
promotion flipping shard-by-shard.

Workers are handed *paths*, not live objects: each process loads the
artifact/registry from disk itself, which keeps the parent↔child surface
picklable and means a worker restart always serves the current on-disk
state.
"""

from __future__ import annotations

import multiprocessing
import shutil
import socket
import tempfile
import time
from pathlib import Path
from typing import List, Optional

from .. import telemetry
from ..telemetry import logs
from ..errors import ModelError

__all__ = ["ShardedPredictionServer"]


def _worker_main(
    host: str,
    port: int,
    artifact_path: Optional[str],
    registry_root: Optional[str],
    reload_interval: float,
    telemetry_on: bool,
    stats_dir: Optional[str],
    log_target: Optional[str],
) -> None:  # pragma: no cover - runs in child processes
    # Imported here so a spawn-context child pays the import cost itself.
    from .artifact import load_artifact
    from .registry import ModelRegistry
    from .server import PredictionServer

    if telemetry_on:
        telemetry.enable()
    logs.configure(log_target)
    server = PredictionServer(
        artifact=load_artifact(artifact_path) if artifact_path else None,
        host=host,
        port=port,
        registry=ModelRegistry(registry_root) if registry_root else None,
        reload_interval=reload_interval,
        reuse_port=True,
        stats_dir=stats_dir,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()


def _claim_port(host: str) -> "tuple[int, socket.socket]":
    """Pick a free port, holding a placeholder ``SO_REUSEPORT`` bind on it.

    The placeholder never calls ``listen()``, so the kernel routes no
    connections to it; it exists only to keep the port ours until every
    worker has bound its own listening socket.
    """
    placeholder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    placeholder.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    placeholder.bind((host, 0))
    return placeholder.getsockname()[1], placeholder


class ShardedPredictionServer:
    """N pre-forked :class:`PredictionServer` processes on one shared port.

    Args:
        artifact_path: fitted-model artifact file to serve (static mode).
            Mutually exclusive with ``registry_root``.
        registry_root: model-registry directory to serve and hot-follow.
        host: bind address.
        port: shared port (0 = pick a free one; read it back from
            :attr:`port` after construction).
        workers: worker process count (>= 1).
        reload_interval: forwarded to every worker's
            :class:`PredictionServer`.
        stats_dir: shared directory for the per-shard stats rendezvous
            (``/metrics/fleet`` aggregation).  ``None`` (default) creates a
            private temp dir, removed on :meth:`stop`.
    """

    def __init__(
        self,
        artifact_path: Optional[str | Path] = None,
        registry_root: Optional[str | Path] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        reload_interval: float = 1.0,
        stats_dir: Optional[str | Path] = None,
    ) -> None:
        if (artifact_path is None) == (registry_root is None):
            raise ModelError(
                "ShardedPredictionServer needs exactly one of "
                "'artifact_path' or 'registry_root'"
            )
        if workers < 1:
            raise ModelError(f"workers must be >= 1, got {workers}")
        self.host = host
        self.workers = workers
        self._placeholder: Optional[socket.socket] = None
        if port == 0:
            port, self._placeholder = _claim_port(host)
        self.port = port
        self._owns_stats_dir = stats_dir is None
        if stats_dir is None:
            stats_dir = tempfile.mkdtemp(prefix="repro-serving-stats-")
        self.stats_dir = Path(stats_dir)
        self._spec = (
            host,
            port,
            str(artifact_path) if artifact_path else None,
            str(registry_root) if registry_root else None,
            reload_interval,
            telemetry.enabled(),
            str(self.stats_dir),
            logs.target(),
        )
        self._processes: List[multiprocessing.Process] = []

    # ------------------------------------------------------------------
    def start(self, ready_timeout: float = 30.0) -> None:
        """Spawn every worker and wait until the shared port accepts."""
        for index in range(self.workers):
            process = multiprocessing.Process(
                target=_worker_main,
                args=self._spec,
                daemon=True,
                name=f"serving-shard-{index}",
            )
            process.start()
            self._processes.append(process)
        deadline = time.monotonic() + ready_timeout
        while True:
            try:
                with socket.create_connection(
                    (self.host, self.port), timeout=1.0
                ):
                    break
            except OSError:
                if time.monotonic() > deadline:
                    self.stop()
                    raise TimeoutError(
                        f"no serving shard accepted on "
                        f"{self.host}:{self.port} within {ready_timeout}s"
                    )
                if any(p.exitcode not in (None, 0) for p in self._processes):
                    self.stop()
                    raise RuntimeError(
                        "a serving shard died during startup; check stderr"
                    )
                time.sleep(0.05)
        # All connections now land on real listeners; the placeholder bind
        # (which never listens, so receives nothing) can go.
        if self._placeholder is not None:
            self._placeholder.close()
            self._placeholder = None

    def stop(self, timeout: float = 5.0) -> None:
        """Terminate and reap every worker (idempotent)."""
        for process in self._processes:
            if process.is_alive():
                process.terminate()
        for process in self._processes:
            process.join(timeout=timeout)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.kill()
                process.join(timeout=timeout)
        self._processes.clear()
        if self._placeholder is not None:
            self._placeholder.close()
            self._placeholder = None
        if self._owns_stats_dir:
            shutil.rmtree(self.stats_dir, ignore_errors=True)

    def alive(self) -> int:
        """How many worker processes are currently alive."""
        return sum(1 for p in self._processes if p.is_alive())

    # ------------------------------------------------------------------
    def __enter__(self) -> "ShardedPredictionServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
