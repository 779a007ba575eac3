"""Pinned responses: every byte the server sends, but the ``Date`` value.

``golden_responses.json`` holds one response per request below, status
line, headers and body, as the server with the standard library's request
parsing and thread per connection sent them for the paper artifact.  The
``Date`` value is masked, and so is the Python version in ``Server``, which
is the interpreter's.  The server must go on sending exactly these bytes.
"""

import json
import re
import socket
import sys
from pathlib import Path

import pytest

from repro.serving import PredictionServer
from repro.serving.server import _Handler

GOLDEN = Path(__file__).with_name("golden_responses.json")


def _post(target, document, request_id):
    body = json.dumps(document).encode()
    return (
        f"POST {target} HTTP/1.0\r\nContent-Length: {len(body)}\r\n"
        f"X-Request-Id: {request_id}\r\n\r\n"
    ).encode() + body


def _get(target, request_id):
    return f"GET {target} HTTP/1.0\r\nX-Request-Id: {request_id}\r\n\r\n".encode()


#: Case name → the raw request.  ``timeout`` is answered with a 408: its
#: body never arrives in full.
REQUESTS = {
    "models": _get("/models", "golden-models"),
    "predict-get-all": _get("/predict?app=fftw&other=milc", "golden-1"),
    "predict-get-one": _get("/predict?app=lulesh&other=amg&model=Queue", "golden-2"),
    "predict-post-all": _post("/predict", {"app": "mcb", "other": "vpfft"}, "golden-3"),
    "predict-post-one": _post(
        "/predict", {"app": "milc", "other": "fftw", "model": "PDFLT"}, "golden-4"
    ),
    "batch-pairs": _post(
        "/predict/batch",
        {"requests": [["fftw", "milc"], ["amg", "mcb"], ["fftw", "milc"]]},
        "golden-5",
    ),
    "batch-triples": _post(
        "/predict/batch",
        {"requests": [["fftw", "milc", "Queue"], ["vpfft", "lulesh", "AverageStDevLT"]]},
        "golden-6",
    ),
    "batch-null-model": _post(
        "/predict/batch",
        {"requests": [["milc", "fftw", None], ["amg", "amg", "AverageLT"]]},
        "golden-7",
    ),
    "unknown-app": _get("/predict?app=ghost&other=milc", "golden-8"),
    "not-found": _get("/nowhere", "golden-9"),
    "timeout": (
        b"POST /predict HTTP/1.0\r\nContent-Length: 100\r\n"
        b"X-Request-Id: golden-10\r\n\r\n{}"
    ),
    "http09-models": b"GET /models\r\n\r\n",
}

#: Seconds the handler waits for the ``timeout`` case's body.
TIMEOUT = 0.5

_PYTHON = "Python/" + sys.version.split()[0]


def mask(response: bytes) -> str:
    """``response`` as text, with the ``Date`` value and Python version masked."""
    text = response.decode("latin-1")
    text = re.sub(r"\r\nDate: [^\r]*\r\n", "\r\nDate: <date>\r\n", text, count=1)
    return text.replace(_PYTHON, "Python/<version>", 1)


def exchange(port: int, raw: bytes) -> bytes:
    """Send ``raw`` and read the reply until the server closes."""
    chunks = []
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(raw)
        while True:
            chunk = sock.recv(1 << 16)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def capture(artifact) -> dict:
    """Every case's masked response from a fresh server on ``artifact``."""
    saved = _Handler.timeout
    _Handler.timeout = TIMEOUT
    server = PredictionServer(artifact, port=0)
    server.serve_background()
    try:
        return {
            name: mask(exchange(server.server_port, raw))
            for name, raw in REQUESTS.items()
        }
    finally:
        server.shutdown()
        server.server_close()
        _Handler.timeout = saved


@pytest.fixture(scope="module")
def responses(paper_pipeline):
    return capture(paper_pipeline.model_artifact())


@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_response_bytes_are_pinned(responses, name):
    assert responses[name] == json.loads(GOLDEN.read_text())[name]
