"""Run ``repro serve`` in this process, optionally traced, and report on exit.

Usage (from the serve-paper workload, never by hand)::

    python serve_launcher.py STATS.json TRACE serve --model FILE --port 0

``TRACE`` is ``1`` to wrap the HTTP handler and the prediction engine in
spans before handing the remaining arguments to ``repro.cli.main``.  The
server stops on SIGINT; the launcher then writes its peak memory, and its
spans and counts when traced, to ``STATS.json``.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

from bench_trace import Tracer, install_server_probes
from repro import cli


def main(argv: list) -> int:
    stats_path, traced, serve_argv = Path(argv[0]), argv[1] == "1", argv[2:]
    tracer = Tracer()
    if traced:
        install_server_probes(tracer)
    try:
        status = cli.main(serve_argv)
    finally:
        document = tracer.document()
        document["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        stats_path.write_text(json.dumps(document))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
