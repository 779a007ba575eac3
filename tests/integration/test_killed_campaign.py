"""A campaign SIGKILLed mid-stage keeps every product it reported.

``repro campaign`` runs in a subprocess on the analytic engine with one
worker, so products land in a fixed order.  A ``REPRO_FAULTS`` hang holds
the last dependents-stage product; once every other product's progress
line is out, the campaign is killed.  Each product whose line was printed
must be on disk, and a resumed campaign must execute only the held product
and end with the shards of an uninterrupted campaign.
"""

import json
import os
import queue
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.core.experiments.cache import JOURNAL_NAME, RESERVED_FILES, ShardedCache
from repro.faults import ENV_VAR

REPO = Path(__file__).resolve().parents[2]
PROGRESS = re.compile(r"^\[pipeline\] \d+/(\d+) (\S+) ")
CAMPAIGN = ["--profile", "quick", "--engine", "analytic", "--workers", "1"]
DEADLINE_S = 120.0


def _start(cache: Path, faults=None) -> subprocess.Popen:
    env = {"PYTHONPATH": str(REPO / "src"), "PATH": os.environ.get("PATH", "/usr/bin:/bin")}
    if faults is not None:
        env[ENV_VAR] = json.dumps(faults)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *CAMPAIGN, "--cache", str(cache),
         "--legacy-cache", "", "campaign"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=REPO,
        env=env,
    )


def _finish(cache: Path) -> tuple:
    process = _start(cache)
    out, err = process.communicate(timeout=DEADLINE_S)
    assert process.returncode == 0, err
    return out, err


def _landed(stderr_lines) -> list:
    return [match.group(2) for match in map(PROGRESS.match, stderr_lines) if match]


def _shards(directory: Path) -> dict:
    return {
        path.name: path.read_bytes()
        for path in sorted(directory.glob("*.json"))
        if path.name not in RESERVED_FILES
    }


def test_killed_campaign_keeps_every_reported_product_and_resumes(tmp_path):
    reference = tmp_path / "reference"
    order = _landed(_finish(reference)[1].splitlines())
    held = order[-1]  # the last product of the dependents stage
    assert held.split(":")[-1].startswith("pair/")

    killed = tmp_path / "killed"
    lines: "queue.Queue[str]" = queue.Queue()
    printed = []
    with _start(killed, {"hang": {held: "*"}, "hang_seconds": 600}) as process:
        reader = threading.Thread(
            target=lambda: [lines.put(line) for line in process.stderr], daemon=True
        )
        reader.start()
        deadline = time.monotonic() + DEADLINE_S
        try:
            while len(printed) < len(order) - 1:
                line = lines.get(timeout=max(0.0, deadline - time.monotonic()))
                printed.extend(_landed([line]))
        finally:
            process.send_signal(signal.SIGKILL)
        reader.join(timeout=DEADLINE_S)
        assert not reader.is_alive()
    assert held not in printed
    # The killed stage had not flushed: its products are still journaled.
    assert (killed / JOURNAL_NAME).is_file()

    inspected = tmp_path / "inspected"
    shutil.copytree(killed, inspected)
    reopened = ShardedCache(inspected)
    assert set(printed) <= set(reopened)
    assert held not in reopened
    assert not (inspected / JOURNAL_NAME).exists()

    out, _ = _finish(killed)  # replays the journal itself
    assert f"campaign done: 1 executed, {len(order) - 1} cached, 0 failed" in out
    assert not (killed / JOURNAL_NAME).exists()
    assert _shards(killed) == _shards(reference)
    assert set(_shards(reference)) == {
        f"analytic_{group}.json"
        for group in ("calibration", "impact", "comp_sig", "baseline", "degradation", "pair")
    }
