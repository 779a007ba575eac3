"""End-to-end serving smoke: registry lifecycle, hot reload and sustained load.

Usage: python scripts/serving_load_smoke.py [--workdir results/serving-smoke]
           [--threads 6] [--settle 0.4]

Exercises the operator's whole playbook through the real CLI and HTTP
surfaces, in one process:

1. Run two analytic campaigns (seeds 0 and 1) and ``repro fit`` each into
   a checksummed artifact.
2. ``repro registry publish`` both as immutable versions ``v1``/``v2``;
   ``repro registry promote v1``.
3. Serve the registry with a fast CURRENT-pointer watcher and drive
   sustained concurrent load from N client threads.
4. ``repro registry promote v2`` *mid-load*, then keep the load running.
5. Garble ``CURRENT`` mid-load (a pointer nested 100 000 deep), then
   ``repro registry promote v1``, which rewrites the pointer.
6. Serve the ``v2`` artifact with telemetry on and fire a fixed load from
   ``SUSTAINED_THREADS`` client threads: every 4th request a 24-triple
   ``/predict/batch``, the rest single ``/predict`` calls.  Throughout the
   load, ``SLOW_CLIENTS`` connections (more than the server keeps idle
   handler threads for) each hold a ``POST /predict`` whose body stops 98
   bytes short of its ``Content-Length``.

Asserts: zero failed requests across the flip, every client thread's
observed version stream flips ``v1 -> v2`` exactly once (never back), the
server records exactly one reload, and post-flip predictions are
bit-identical to an engine rebuilt from the registry's ``v2`` artifact.
Across the garbled pointer: zero failed requests, ``/healthz`` still on
``v2`` with ``reload_failures`` >= 1 and ``last_reload_error`` set, then
one flip to ``v1``.  Under the fixed load: zero failed requests, at least
``THROUGHPUT_FLOOR_RPS`` requests per second, and a ``/predict`` p99 of at
most ``P99_CEILING_SECONDS`` both client-side and from the server's
``serving.request_seconds`` histogram, which counts exactly the
``/predict`` calls answered; the slow connections change none of it, and
each gets a 408 within ``SLOW_CLIENT_SECONDS``.  Exits non-zero on any
violation.
"""

import argparse
import concurrent.futures
import json
import socket
import sys
import threading
import time
import urllib.request
from pathlib import Path

from repro import telemetry
from repro.cli import main as repro
from repro.serving import ModelRegistry, PredictionServer

# Loose floors: the server clears them ten times over or more on a 2-vCPU
# host, even with the slow clients holding their connections; they catch
# serving-path regressions.
THROUGHPUT_FLOOR_RPS = 50.0
P99_CEILING_SECONDS = 0.5
SUSTAINED_THREADS = 8
REQUESTS_PER_THREAD = 60
BATCH_TRIPLES = 24
# Slow clients: a server that handed connections to a fixed pool of fewer
# handler threads would stall the load behind them until their 408s, after
# the handler's 10 s socket timeout.
SLOW_CLIENTS = 24
SLOW_CLIENT_SECONDS = 15.0


def run_cli(*argv: str) -> None:
    code = repro(list(argv))
    if code != 0:
        raise SystemExit(f"`repro {' '.join(argv)}` exited {code}")


def get(port: int, path: str) -> dict:
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=30
    ) as response:
        return json.loads(response.read())


def post(port: int, path: str, document: dict) -> dict:
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(document).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read())


def wait_for(predicate, what: str, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise SystemExit(f"server never showed {what}")
        time.sleep(0.01)


def under_load(port: int, apps: list, threads: int, settle: float, action) -> tuple:
    """Run ``action()`` while ``threads`` clients call ``/predict`` in a loop.

    Load runs ``settle`` seconds before and after the action.  Returns the
    request count and each client's stream of served versions; exits
    non-zero if any request failed.
    """
    stop = threading.Event()
    failures: list = []
    versions_per_thread: list = []

    def client(index: int) -> int:
        made = 0
        seen: list = []
        while not stop.is_set():
            app = apps[(index + made) % len(apps)]
            other = apps[(index + made + 1) % len(apps)]
            try:
                document = get(port, f"/predict?app={app}&other={other}")
            except Exception as exc:  # noqa: BLE001 - recorded, asserted empty
                failures.append(repr(exc))
                continue
            finally:
                made += 1
            if not seen or seen[-1] != document["version"]:
                seen.append(document["version"])
        versions_per_thread.append(seen)
        return made

    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
        workers = [pool.submit(client, i) for i in range(threads)]
        try:
            time.sleep(settle)
            action()
            time.sleep(settle)
        finally:
            stop.set()
        made = sum(worker.result(timeout=30) for worker in workers)
    if failures:
        raise SystemExit(f"{len(failures)} requests failed under load: {failures[:5]}")
    return made, versions_per_thread


def sustained_load(artifact) -> str:
    """Fixed concurrent load on one served artifact, checked against the
    throughput floor and the ``/predict`` p99 ceiling."""
    telemetry.reset()
    telemetry.enable()
    server = PredictionServer(artifact, port=0)
    server.serve_background()
    port = server.server_port
    apps = sorted(artifact.signatures)
    batch = {
        "requests": [
            [apps[i % len(apps)], apps[(i + 1) % len(apps)], None]
            for i in range(BATCH_TRIPLES)
        ]
    }
    failures: list = []
    slow: list = []

    def client(index: int) -> list:
        latencies = []
        for i in range(REQUESTS_PER_THREAD):
            app = apps[(index + i) % len(apps)]
            other = apps[(index + i + 1) % len(apps)]
            try:
                if i % 4 == 3:
                    post(port, "/predict/batch", batch)
                else:
                    start = time.perf_counter()
                    get(port, f"/predict?app={app}&other={other}")
                    latencies.append(time.perf_counter() - start)
            except Exception as exc:  # noqa: BLE001 - recorded, asserted empty
                failures.append(repr(exc))
        return latencies

    try:
        slow_since = time.monotonic()
        for _ in range(SLOW_CLIENTS):
            sock = socket.create_connection(("127.0.0.1", port), timeout=SLOW_CLIENT_SECONDS)
            slow.append(sock)
            sock.sendall(b"POST /predict HTTP/1.0\r\nContent-Length: 100\r\n\r\n{}")
        start = time.perf_counter()
        with concurrent.futures.ThreadPoolExecutor(
            max_workers=SUSTAINED_THREADS
        ) as pool:
            latencies = sorted(
                seconds
                for thread_latencies in pool.map(client, range(SUSTAINED_THREADS))
                for seconds in thread_latencies
            )
        elapsed = time.perf_counter() - start
        histogram = telemetry.registry().histogram_state(
            "serving.request_seconds", endpoint="/predict"
        )
        statuses = [slow_status(sock, slow_since) for sock in slow]
    finally:
        for sock in slow:
            sock.close()
        server.shutdown()
        server.server_close()
        telemetry.disable()

    if failures:
        raise SystemExit(f"{len(failures)} requests failed: {failures[:5]}")
    if statuses != [408] * SLOW_CLIENTS:
        raise SystemExit(
            f"slow clients got {statuses}, not a 408 each within {SLOW_CLIENT_SECONDS:.0f} s"
        )
    throughput = SUSTAINED_THREADS * REQUESTS_PER_THREAD / elapsed
    p99 = latencies[min(len(latencies) - 1, int(len(latencies) * 0.99))]
    server_p99 = telemetry.histogram_percentile(histogram, 0.99)
    if throughput < THROUGHPUT_FLOOR_RPS:
        raise SystemExit(
            f"{throughput:.0f} req/s under the {THROUGHPUT_FLOOR_RPS:.0f} floor"
        )
    if p99 > P99_CEILING_SECONDS or server_p99 > P99_CEILING_SECONDS:
        raise SystemExit(
            f"/predict p99 {p99 * 1e3:.1f} ms client-side, "
            f"{server_p99 * 1e3:.1f} ms from the histogram, over the "
            f"{P99_CEILING_SECONDS * 1e3:.0f} ms ceiling"
        )
    if histogram["count"] != len(latencies):
        raise SystemExit(
            f"histogram counted {histogram['count']} /predict calls, "
            f"clients made {len(latencies)}"
        )
    return (
        f"sustained load: {throughput:.0f} req/s over {SUSTAINED_THREADS} "
        f"threads, /predict p99 {p99 * 1e3:.1f} ms client-side and "
        f"<= {server_p99 * 1e3:.1f} ms from the histogram, while "
        f"{SLOW_CLIENTS} slow clients held their connections until their 408s"
    )


def slow_status(sock: socket.socket, since: float) -> object:
    """The status a slow connection got by ``since + SLOW_CLIENT_SECONDS``,
    or why it got none."""
    chunks = []
    try:
        while True:
            sock.settimeout(max(0.01, since + SLOW_CLIENT_SECONDS - time.monotonic()))
            chunk = sock.recv(1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    except OSError as exc:
        return repr(exc)
    words = b"".join(chunks).split(b" ", 2)
    return int(words[1]) if len(words) > 1 and words[1].isdigit() else repr(words)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", default="results/serving-smoke")
    parser.add_argument("--threads", type=int, default=6)
    parser.add_argument(
        "--settle",
        type=float,
        default=0.4,
        help="seconds of load before (and after) the mid-load promotion",
    )
    args = parser.parse_args()
    workdir = Path(args.workdir)
    registry_root = workdir / "registry"

    # 1. Two fitted artifact versions from two campaign seeds.
    for seed, version in ((0, "v1"), (1, "v2")):
        cache = str(workdir / f"cache-seed{seed}")
        artifact = str(workdir / f"model-{version}.json")
        run_cli(
            "--engine", "analytic", "--seed", str(seed), "--cache", cache,
            "campaign", "--workers", "2",
        )
        run_cli(
            "--engine", "analytic", "--seed", str(seed), "--cache", cache,
            "fit", "--out", artifact,
        )
        # 2. Published through the CLI as an immutable registry version.
        run_cli(
            "registry", "publish", "--registry", str(registry_root),
            "--model", artifact, "--version", version,
        )
    run_cli("registry", "promote", "--registry", str(registry_root), "--version", "v1")
    run_cli("registry", "list", "--registry", str(registry_root))

    # 3. Serve the registry and hammer it from N client threads.
    registry = ModelRegistry(registry_root)
    server = PredictionServer(registry=registry, port=0, reload_interval=0.05)
    server.serve_background()
    port = server.server_port
    apps = get(port, "/healthz")["apps"]

    def promote(version: str) -> None:
        """Promote through the CLI like an operator; wait for the flip."""
        run_cli(
            "registry", "promote", "--registry", str(registry_root),
            "--version", version,
        )
        wait_for(lambda: server.state.version == version, f"the {version} promotion")

    def garble_then_heal() -> None:
        registry.pointer_path.write_bytes(b"[" * 100_000)
        wait_for(lambda: server.reload_failures >= 1, "a counted reload failure")
        health = get(port, "/healthz")
        if health["version"] != "v2" or not health["last_reload_error"]:
            raise SystemExit(f"a garbled pointer changed the served state: {health}")
        promote("v1")

    try:
        # 4. The mid-load promotion.
        made, versions_per_thread = under_load(
            port, apps, args.threads, args.settle, lambda: promote("v2")
        )
        for seen in versions_per_thread:
            if seen not in (["v1", "v2"], ["v1"], ["v2"]):
                raise SystemExit(f"version stream flapped: {seen}")
        if not any(seen == ["v1", "v2"] for seen in versions_per_thread):
            raise SystemExit("no client thread observed the v1 -> v2 flip")
        health = get(port, "/healthz")
        if health["reloads"] != 1 or health["reload_failures"] != 0:
            raise SystemExit(f"expected exactly one clean reload: {health}")

        # Post-flip answers match an engine rebuilt from the v2 artifact.
        v2_engine = registry.load("v2").engine()
        for app in apps:
            other = apps[(apps.index(app) + 1) % len(apps)]
            document = get(port, f"/predict?app={app}&other={other}")
            assert document["version"] == "v2", document
            for model, predicted in document["predictions"].items():
                expected = v2_engine.predict(app, other, model)
                assert predicted == expected, (app, other, model)

        # 5. The garbled-pointer drill.
        drilled, drill_versions = under_load(
            port, apps, args.threads, args.settle, garble_then_heal
        )
        for seen in drill_versions:
            if seen not in (["v2", "v1"], ["v2"], ["v1"]):
                raise SystemExit(f"version stream flapped across the drill: {seen}")
        health = get(port, "/healthz")
        if health["reloads"] != 2 or health["last_reload_error"] is not None:
            raise SystemExit(f"expected the v1 promotion to heal the pointer: {health}")
    finally:
        server.shutdown()
        server.server_close()

    flipped = sum(1 for seen in versions_per_thread if seen == ["v1", "v2"])
    print(
        f"OK: {made} requests over {args.threads} threads, 0 failures; "
        f"{flipped} thread(s) observed the v1->v2 flip; exactly 1 reload; "
        "post-flip predictions bit-identical to the re-loaded v2 artifact"
    )
    print(
        f"OK: garbled CURRENT under load: {drilled} requests, 0 failures; "
        f"{health['reload_failures']} reload failure(s) counted on v2, then "
        "`repro registry promote v1` healed the pointer"
    )
    # 6. Fixed load on the promoted artifact, against the floors.
    print(f"OK: {sustained_load(registry.load('v2'))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
