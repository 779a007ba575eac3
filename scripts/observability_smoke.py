"""Observability smoke: campaign logs and live watch, then a fleet scrape.

Usage:
    python scripts/observability_smoke.py campaign LOG CACHE_DIR
    python scripts/observability_smoke.py fleet MODEL.json LOG

``campaign`` checks the structured log LOG of an instrumented campaign
(``repro --telemetry --log LOG ... campaign``) for task-lifecycle events,
and that the campaign's live document in CACHE_DIR is complete with every
product done.  ``fleet`` serves MODEL.json from two shards with
structured logging to LOG, sends 64 ``/predict`` requests, and checks the
request-id echo, both ``/metrics`` formats, that the fleet scrape lints
clean and counts the load exactly, and that every ``serving.request`` log
event carries a request id.  Exits non-zero on any violation.
"""

import concurrent.futures
import json
import sys
import time
import urllib.request

from repro import telemetry
from repro.serving import ShardedPredictionServer
from repro.telemetry import lint_exposition, logs, parse_exposition

ISSUED = 64
PREDICT_KEY = 'serving_requests_total{endpoint="/predict",status="200"}'


def check_campaign(log: str, cache: str) -> None:
    events = [json.loads(line) for line in open(log)]
    kinds = {event["event"] for event in events}
    assert "runner.task_scheduled" in kinds and "runner.task_completed" in kinds
    completed = sum(1 for e in events if e["event"] == "runner.task_completed")
    live = json.load(open(f"{cache}/telemetry.live.json"))
    assert live["complete"] is True
    assert live["progress"]["done"] == live["progress"]["total"] > 0
    print(f"OK: {completed} task-lifecycle events; live document complete")


def check_fleet(model: str, log: str) -> None:
    telemetry.enable()
    logs.configure(log)
    sharded = ShardedPredictionServer(artifact_path=model, workers=2)
    with sharded:
        base = f"http://127.0.0.1:{sharded.port}"

        def get(path, accept=None):
            headers = {"Accept": accept} if accept else {}
            request = urllib.request.Request(base + path, headers=headers)
            with urllib.request.urlopen(request, timeout=10) as response:
                return dict(response.headers), response.read()

        def one(i):
            headers, _ = get("/predict?app=fftw&other=milc")
            assert headers["X-Request-Id"], "response missing X-Request-Id"

        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(one, range(ISSUED)))

        # A client-supplied request id is echoed back verbatim.
        request = urllib.request.Request(
            base + "/models", headers={"X-Request-Id": "ci-smoke-1"}
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            assert response.headers["X-Request-Id"] == "ci-smoke-1"

        # Quiesce: one /healthz answer per shard refreshes its stats.
        pids = set()
        deadline = time.monotonic() + 15
        while len(pids) < 2 and time.monotonic() < deadline:
            pids.add(json.loads(get("/healthz")[1])["pid"])
        assert len(pids) == 2, pids

        # Both formats of the single-shard scrape.
        headers, body = get("/metrics")
        assert headers["Content-Type"].startswith("application/json")
        assert "counters" in json.loads(body)
        headers, body = get("/metrics", accept="text/plain")
        assert headers["Content-Type"].startswith("text/plain")
        assert lint_exposition(body.decode()) == []

        # The fleet scrape: lints clean and counts the load exactly.
        headers, body = get("/metrics/fleet", accept="text/plain")
        text = body.decode()
        problems = lint_exposition(text)
        assert problems == [], problems
        samples = parse_exposition(text)
        assert samples[PREDICT_KEY] == ISSUED, samples.get(PREDICT_KEY)

        health = json.loads(get("/healthz")[1])
        assert health["fleet"]["shard_count"] == 2

    logs.configure(None)
    events = [json.loads(line) for line in open(log)]
    served = [e for e in events if e["event"] == "serving.request"]
    assert len(served) >= ISSUED
    assert all(e.get("request_id") for e in served)
    assert any(e.get("request_id") == "ci-smoke-1" for e in events)
    print(
        f"OK: fleet scrape exact at {ISSUED} requests across pids "
        f"{sorted(pids)}; {len(served)} serving.request events, "
        "all request-id tagged"
    )


CHECKS = {"campaign": check_campaign, "fleet": check_fleet}


def main(argv) -> int:
    if len(argv) != 3 or argv[0] not in CHECKS:
        print(__doc__, file=sys.stderr)
        return 2
    CHECKS[argv[0]](*argv[1:])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
