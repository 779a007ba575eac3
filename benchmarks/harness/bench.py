"""The repository's benchmark: one command for every workload and metric.

Run from the repository root::

    python3 benchmarks/harness/bench.py run [--workload NAME]... [--seed N]
        [--trace 0|1] [--json FILE]
    python3 benchmarks/harness/bench.py compare BASE.jsonl NEW.jsonl...
    python3 benchmarks/harness/bench.py record --workload NAME --seed N

``run`` runs each workload in fresh Python processes: it launches the
workload several times just to time set-up, then once more to measure for
``run_seconds`` of ``BENCHMARK.json``.  It prints every metric as
``workload metric value unit [note]`` and, as the last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Untraced runs (``--trace 0``) report the end-to-end metrics of
``BENCHMARK.json``; traced runs (``--trace 1``) report its per-layer
metrics and write Chrome traces to ``.bench_out/trace/``.  The exit status
is non-zero when any output check fails.  ``--json FILE`` appends one
record per workload, with an environment fingerprint, for ``compare``.
``--seconds`` may restate the run length, but only as ``run_seconds``.

``compare`` judges each (end-to-end metric, workload) pair of a base set
of records against each new set, and exits non-zero on a regression or an
unresolved pair.  ``record`` stores a seed's output digests in
``expected/`` after a deliberate change of outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import List, Optional

from bench_stats import compare_runs, env_fingerprint, load_records

HARNESS = Path(__file__).resolve().parent
ROOT = HARNESS.parent.parent
OUTPUT = ROOT / ".bench_out"
TRACES = OUTPUT / "trace"

#: Set-up is timed this many times per run; the median is reported.
SETUP_SAMPLES = 5

#: Workload processes still running this long after a run starts are killed.
RUN_TIMEOUT = 170.0

#: Seeds whose expected outputs ``record`` keeps per product.
PRODUCT_DIGEST_SEEDS = (0, 1)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class Child:
    """One workload process; times its set-up and collects its result.

    ``setup_s`` is the time from launch to the process's ``READY`` line,
    less the process's speed probe, at reference speed.
    """

    def __init__(self, argv: List[str], deadline: float) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), str(HARNESS), env.get("PYTHONPATH")])
        )
        started = time.perf_counter()
        # Its own session, so a timeout also takes down the server process
        # a serving workload starts.
        self.proc = subprocess.Popen(
            [sys.executable, str(HARNESS / "bench_workloads.py"), *argv],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            cwd=ROOT,
            start_new_session=True,
        )
        watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), self._kill)
        watchdog.start()
        self.setup_s: Optional[float] = None
        last = ""
        try:
            for line in self.proc.stdout:
                if line.startswith("READY ") and self.setup_s is None:
                    wall = time.perf_counter() - started
                    probe_s, scale = map(float, line.split()[1:])
                    self.setup_s = (wall - probe_s) * scale
                elif line.strip():
                    last = line
            self.status = self.proc.wait()
        finally:
            watchdog.cancel()
            if self.proc.poll() is None:
                self._kill()
                self.proc.wait()
        if self.status != 0 or self.setup_s is None:
            raise RuntimeError(f"workload process failed (exit {self.status})")
        self.result: dict = json.loads(last) if last else {}

    def _kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def run_workload(name: str, seed: int, seconds: int, traced: bool, record: bool) -> dict:
    """Set-up samples plus one measured run of one workload."""
    OUTPUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUTPUT))
    argv = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--work-dir", str(work)]
    if traced:
        argv += ["--trace-dir", str(TRACES)]
    if record:
        argv.append("--record")
    deadline = time.monotonic() + RUN_TIMEOUT
    setups: List[float] = []
    try:
        for _ in range(0 if record else SETUP_SAMPLES - 1):
            setups.append(Child(argv + ["--setup-only"], deadline).setup_s)
            shutil.rmtree(work)
            work.mkdir()
        child = Child(argv, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(child.setup_s)
    result = child.result
    if not traced:
        result["metrics"]["setup_s"] = statistics.median(setups)
        result["notes"]["setup_s"] = f"median of {len(setups)} launches, at reference speed"
    return result


def cmd_run(args: argparse.Namespace) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workload or names
    unknown = sorted(set(workloads) - set(names))
    if unknown:
        print(f"bench.py: unknown workload(s) {', '.join(unknown)}", file=sys.stderr)
        return 2
    seconds = spec["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        # Run length belongs to the benchmark, so runs of two commits compare.
        print(f"bench.py: --seconds must be run_seconds ({seconds}) from BENCHMARK.json",
              file=sys.stderr)
        return 2
    traced = args.trace == "1"
    declared = spec["per_layer"] if traced else spec["end_to_end"]
    env = env_fingerprint(ROOT)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads:
        result = run_workload(name, args.seed, seconds, traced, record=False)
        failures = result["failures"]
        for failure in failures[:20]:
            print(f"{name}: CHECK FAILED {failure}", file=sys.stderr)
        metrics = {}
        for metric in declared:
            value = result["metrics"][metric["name"]]
            metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
            note = result["notes"].get(metric["name"], "")
            print(f"{name} {metric['name']} {value:.6g} {metric['unit']} {note}".rstrip())
        print(f"{name} checks {result['attempted'] - len(failures)}/{result['attempted']} passed")
        summary["correct"] = summary["correct"] and not failures
        summary["attempted"] += result["attempted"]
        summary["failed"] += len(failures)
        for metric, entry in metrics.items():
            summary["metrics"][metric if len(workloads) == 1 else f"{name}/{metric}"] = entry
        if args.json:
            record = {
                "workload": name,
                "seed": args.seed,
                "seconds": seconds,
                "traced": traced,
                "correct": not failures,
                "attempted": result["attempted"],
                "failed": len(failures),
                "metrics": metrics,
                "outputs": result["outputs"],
                "env": env,
            }
            with open(args.json, "a") as stream:
                stream.write(json.dumps(record) + "\n")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def cmd_compare(args: argparse.Namespace) -> int:
    spec = load_spec()
    base = load_records(args.base)
    sets = {path: load_records(path) for path in args.new}
    lengths = {record["seconds"] for records in [base, *sets.values()] for record in records}
    if len(lengths) > 1:
        print(f"bench.py: records of different run lengths {sorted(lengths)} do not compare",
              file=sys.stderr)
        return 2
    status = 0
    for path, new in sets.items():
        print(f"== {args.base} -> {path}")
        for workload in [w["name"] for w in spec["workloads"]]:
            for metric in spec["end_to_end"]:
                name = metric["name"]
                sides = [
                    [r["metrics"][name]["value"] for r in records
                     if r["workload"] == workload and not r["traced"]]
                    for records in (base, new)
                ]
                if not all(sides):
                    continue
                verdict = compare_runs(*sides, bound=metric["bound"], better=metric["better"])
                if verdict["verdict"] in ("regression", "unresolved"):
                    status = 1
                print(
                    f"{workload:16s} {name:12s} base {_quartiles(verdict['base'])}  "
                    f"new {_quartiles(verdict['new'])} {metric['unit']}  "
                    f"change {verdict['change']:+.1%} (bound {metric['bound']:.0%})  "
                    f"won {verdict['won']:.0%} of {verdict['pairs']}  {verdict['verdict']}"
                )
    return status


def _quartiles(values: List[float]) -> str:
    q1, median, q3 = values
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def cmd_record(args: argparse.Namespace) -> int:
    result = run_workload(args.workload, args.seed, load_spec()["run_seconds"], False,
                          record=True)
    if result["failures"]:
        for failure in result["failures"]:
            print(f"{args.workload}: {failure}", file=sys.stderr)
        return 1
    path = HARNESS / "expected" / f"{args.workload}.json"
    document = json.loads(path.read_text()) if path.is_file() else {"seeds": {}}
    outputs = result["outputs"]
    if args.seed not in PRODUCT_DIGEST_SEEDS:
        outputs.pop("products", None)
    document["seeds"][str(args.seed)] = outputs
    document["seeds"] = dict(sorted(document["seeds"].items(), key=lambda kv: int(kv[0])))
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"recorded {args.workload} seed {args.seed} in {path}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run workloads and print their metrics")
    run.add_argument("--workload", action="append", help="workload name (repeatable; default all)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--seconds", type=int, help="the run length; must be run_seconds")
    run.add_argument("--trace", choices=("0", "1"), default="0",
                     help="1: per-layer metrics and Chrome traces in .bench_out/trace/")
    run.add_argument("--json", help="append one result record per workload to this file")
    compare = commands.add_parser("compare", help="compare sets of run records")
    compare.add_argument("base")
    compare.add_argument("new", nargs="+")
    record = commands.add_parser("record", help="store a seed's expected output digests")
    record.add_argument("--workload", required=True)
    record.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    if args.command == "compare":
        return cmd_compare(args)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench.py: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.command == "run":
        return cmd_run(args)
    return cmd_record(args)


if __name__ == "__main__":
    sys.exit(main())
