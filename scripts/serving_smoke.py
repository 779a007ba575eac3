"""Serving smoke: a fitted artifact loads, and a server answers every endpoint.

Usage:
    python scripts/serving_smoke.py artifact MODEL.json
    python scripts/serving_smoke.py serve MODEL.json

``artifact`` checks that MODEL.json, fitted from an analytic campaign,
carries the analytic engine's metadata, six app signatures and the
40-config catalog.  ``serve`` starts a telemetry-enabled server on it,
exercises ``/healthz``, ``/models``, ``/predict`` and ``/predict/batch``,
checks that every batch prediction equals the engine's scalar answer, and
that ``/metrics`` counted the requests.  Exits non-zero on any violation.
"""

import json
import sys
import urllib.request

from repro import telemetry
from repro.serving import PredictionServer, load_artifact


def check_artifact(path: str) -> None:
    artifact = load_artifact(path)
    assert artifact.metadata["engine"] == "analytic"
    assert len(artifact.signatures) == 6, sorted(artifact.signatures)
    assert len(artifact.observations) == 40
    print(f"OK: artifact carries {len(artifact.observations)} configs")


def check_serving(path: str) -> None:
    telemetry.enable()
    server = PredictionServer(load_artifact(path), port=0)
    server.serve_background()
    base = f"http://127.0.0.1:{server.server_port}"

    health = json.load(urllib.request.urlopen(base + "/healthz"))
    assert health["status"] == "ok" and len(health["apps"]) == 6, health
    models = json.load(urllib.request.urlopen(base + "/models"))
    assert models["models"] == [
        "AverageLT", "AverageStDevLT", "PDFLT", "Queue"
    ], models

    one = json.load(urllib.request.urlopen(base + "/predict?app=fftw&other=milc"))
    assert set(one["predictions"]) == set(models["models"]), one

    requests = [
        [app, other, model]
        for app in health["apps"]
        for other in health["apps"]
        for model in models["models"]
    ]
    batch = json.load(urllib.request.urlopen(urllib.request.Request(
        base + "/predict/batch",
        data=json.dumps({"requests": requests}).encode(),
        method="POST",
    )))
    assert len(batch["predictions"]) == len(requests)
    scalar = {
        (p.app, p.other, p.model): p.predicted
        for p in server.engine.predict_all(health["apps"])
    }
    for row in batch["predictions"]:
        assert row["predicted"] == scalar[(row["app"], row["other"], row["model"])]

    metrics = json.load(urllib.request.urlopen(base + "/metrics"))
    counted = [k for k in metrics["counters"] if "serving.requests" in k]
    assert counted, metrics["counters"]
    server.shutdown()
    server.server_close()
    print(
        f"OK: {len(batch['predictions'])} batch predictions match scalar; "
        f"{len(counted)} serving counters recorded"
    )


CHECKS = {"artifact": check_artifact, "serve": check_serving}


def main(argv) -> int:
    if len(argv) != 2 or argv[0] not in CHECKS:
        print(__doc__, file=sys.stderr)
        return 2
    CHECKS[argv[0]](argv[1])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
