"""Command-line interface: regenerate any of the paper's artifacts.

Examples::

    repro calibrate
    repro impact fftw
    repro fig6 --profile quick
    repro campaign --workers 4           # run the whole campaign in parallel
    repro campaign --engine analytic     # closed-form M/G/1 campaign, seconds
    repro campaign --topology leaf-spine --faults lossy-spine   # fabric scenario
    repro fabric-report --topology leaf-spine --faults lossy-spine \
        --out results/artifacts/fabric_report.json   # compare vs baseline
    repro campaign --telemetry --json    # machine-readable stats + telemetry.json
    repro telemetry --cache results/cache          # last campaign's metrics/spans
    repro telemetry --trace-out trace.json         # Chrome trace for Perfetto
    repro table1 --cache results/cache
    repro predict fftw milc --cache results/cache
    repro fit --out model.json --cache results/cache  # export fitted models
    repro predict fftw milc --model model.json        # predict, no cache needed
    repro serve --model model.json --port 8100        # batch prediction HTTP API
    repro fit --registry results/registry             # publish a new version
    repro registry list --registry results/registry
    repro registry promote --registry results/registry --version v0001
    repro serve --registry results/registry --port 8100 \
        --http-workers 4 --batch-window 2  # sharded, hot-reloading, batching
    repro registry rollback --registry results/registry  # serving tier flips back
    repro top --cache results/cache      # live view of a campaign in flight
    repro campaign --telemetry --log campaign.jsonl   # structured task logs
    repro report --cache results/cache
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import telemetry as telemetry_mod
from .analysis import (
    render_fig6,
    render_fig7_series,
    render_fig8,
    render_fig9,
    render_histogram,
    render_table1,
    summarize_errors,
)
from .core.experiments import PipelineSettings, ReproductionPipeline
from .parallel import RetryPolicy

__all__ = ["main", "build_parser"]

# Applied after parsing (see build_parser for why not via argparse defaults).
_COMMON_DEFAULTS = {
    "profile": "paper",
    "engine": "sim",
    "seed": 0,
    "cache": "results/cache",
    "legacy_cache": "results/paper_cache.json",
    "workers": None,
    "chunksize": 1,
    "max_attempts": 2,
    "task_timeout": None,
    "retry_backoff": 0.1,
    "failure_budget": 0,
    "telemetry": None,
    "log": None,
    "json": False,
    "topology": "single",
    "leaves": 2,
    "nodes_per_leaf": 9,
    "spines": 2,
    "ecmp_seed": 0,
    "faults": "",
}


def build_parser() -> argparse.ArgumentParser:
    # Shared options work both before and after the subcommand
    # (``repro --cache X table1`` and ``repro table1 --cache X``).  The
    # options must SUPPRESS their defaults: subparsers parse into a fresh
    # namespace whose contents overwrite the outer one, so a plain default
    # (or set_defaults, which rewrites the shared parent actions) silently
    # clobbers any value given before the subcommand.  The real defaults
    # are filled in after parsing from _COMMON_DEFAULTS.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--profile",
        choices=("paper", "quick"),
        default=argparse.SUPPRESS,
        help="CompressionB catalog size (paper=40 configs, quick=10)",
    )
    common.add_argument(
        "--engine",
        choices=("sim", "analytic", "fluid"),
        default=argparse.SUPPRESS,
        help="experiment backend: 'sim' (discrete-event reference, default), "
        "'analytic' (closed-form M/G/1 fast path; single switch only), or "
        "'fluid' (flow-level per-link fixed points; healthy fabrics up to "
        "1000+ nodes).  Non-default engines use their own cache namespace "
        "and fail loudly near saturation; see `repro engines`",
    )
    common.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS, help="root RNG seed"
    )
    common.add_argument(
        "--cache",
        default=argparse.SUPPRESS,
        help="sharded result-cache directory, one JSON shard per product "
        "group (created as needed; a legacy monolithic .json file is "
        "migrated automatically; default results/cache)",
    )
    common.add_argument(
        "--legacy-cache",
        default=argparse.SUPPRESS,
        help="pre-sharding monolithic cache migrated into --cache on load "
        "(default results/paper_cache.json; pass '' to disable)",
    )
    common.add_argument(
        "--workers",
        type=int,
        default=argparse.SUPPRESS,
        help="campaign process count (default: all cores but one)",
    )
    common.add_argument(
        "--chunksize",
        type=int,
        default=argparse.SUPPRESS,
        help="experiments per pool task submission",
    )
    common.add_argument(
        "--max-attempts",
        type=int,
        default=argparse.SUPPRESS,
        help="attempts per experiment before it becomes a recorded hole "
        "(default 2 = retry once)",
    )
    common.add_argument(
        "--task-timeout",
        type=float,
        default=argparse.SUPPRESS,
        help="per-experiment wall-clock budget in seconds; a hung task's "
        "worker is killed and the task retried (default: no timeout)",
    )
    common.add_argument(
        "--retry-backoff",
        type=float,
        default=argparse.SUPPRESS,
        help="base seconds of exponential backoff between attempts "
        "(deterministically jittered; default 0.1)",
    )
    common.add_argument(
        "--failure-budget",
        type=int,
        default=argparse.SUPPRESS,
        help="how many experiments may fail permanently before the campaign "
        "errors out; failures within budget leave holes plus a "
        "failure_report.json next to the shards (default 0)",
    )
    common.add_argument(
        "--telemetry",
        dest="telemetry",
        action="store_true",
        default=argparse.SUPPRESS,
        help="collect metrics/spans during campaigns and write telemetry.json "
        "next to the cache shards (purely observational: products are "
        "bit-identical either way; default: the REPRO_TELEMETRY env var)",
    )
    common.add_argument(
        "--no-telemetry",
        dest="telemetry",
        action="store_false",
        default=argparse.SUPPRESS,
        help="force telemetry off, overriding REPRO_TELEMETRY",
    )
    common.add_argument(
        "--log",
        metavar="TARGET",
        default=argparse.SUPPRESS,
        help="JSON-lines structured log sink: 'stderr' or a file path "
        "(appended); overrides the REPRO_LOG env var (default: REPRO_LOG, "
        "off when unset)",
    )
    common.add_argument(
        "--json",
        action="store_true",
        default=argparse.SUPPRESS,
        help="emit machine-readable JSON on stdout (human/progress lines go "
        "to stderr, so the output pipes cleanly into other tools)",
    )
    common.add_argument(
        "--topology",
        choices=("single", "leaf-spine"),
        default=argparse.SUPPRESS,
        help="fabric layout: 'single' (the paper's one-switch platform, "
        "default) or 'leaf-spine' (2-level fabric with ECMP flow hashing; "
        "shape set by --leaves/--nodes-per-leaf/--spines)",
    )
    common.add_argument(
        "--leaves",
        type=int,
        default=argparse.SUPPRESS,
        help="leaf switches in the leaf-spine fabric (default 2)",
    )
    common.add_argument(
        "--nodes-per-leaf",
        type=int,
        default=argparse.SUPPRESS,
        help="compute nodes per leaf switch (default 9, keeping Cab's 18)",
    )
    common.add_argument(
        "--spines",
        type=int,
        default=argparse.SUPPRESS,
        help="spine switches (ECMP spreads flows across them; default 2)",
    )
    common.add_argument(
        "--ecmp-seed",
        type=int,
        default=argparse.SUPPRESS,
        help="seed folded into the ECMP flow hash (re-deals flows onto "
        "spines without touching any other randomness; default 0)",
    )
    common.add_argument(
        "--faults",
        metavar="SPEC",
        default=argparse.SUPPRESS,
        help="per-link fault scenario: a preset name (lossy-spine, "
        "degraded-spine, corrupting-spine, flaky-spine), inline JSON "
        "(a rule object or list of rules), or @file.json; requires "
        "--topology leaf-spine",
    )

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce Casas & Bronevetsky (IPPS 2014) artifacts.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text):
        return sub.add_parser(name, help=help_text, parents=[common])

    def add_planner_arguments(cmd, *, include_plan_out: bool) -> None:
        cmd.add_argument(
            "--planner",
            choices=("greedy", "uncertainty"),
            default=None,
            help="run an adaptive planned campaign instead of the exhaustive "
            "one: 'uncertainty' refines where the degradation trend's "
            "confidence band is widest, 'greedy' maximizes utilization "
            "coverage per estimated cost",
        )
        cmd.add_argument(
            "--measurement-budget",
            type=float,
            default=None,
            metavar="SECONDS",
            help="estimated simulated experiment-seconds the planned campaign "
            "may spend (cached products are free; unsupported refusals are "
            "refunded; default: unbudgeted, stop on error stability)",
        )
        cmd.add_argument(
            "--max-rounds",
            type=int,
            default=8,
            help="adaptive planning rounds after the bootstrap (default 8)",
        )
        cmd.add_argument(
            "--labels-per-round",
            type=int,
            default=2,
            help="CompressionB configs whose degradation rows each round "
            "completes (default 2)",
        )
        cmd.add_argument(
            "--cost-from",
            metavar="FILE",
            default=None,
            help="calibrate per-kind cost estimates from a previous "
            "campaign's telemetry.json (deterministic given the file; "
            "default: estimates derived from the campaign durations)",
        )
        if include_plan_out:
            cmd.add_argument(
                "--plan-out",
                metavar="FILE",
                default=None,
                help="write the deterministic plan trace (rounds, selections, "
                "budget accounting, holdout errors) as JSON",
            )

    command("calibrate", "idle-switch service estimate (µ, Var(S))")
    campaign_cmd = command(
        "campaign", "run every pending experiment of the evaluation"
    )
    add_planner_arguments(campaign_cmd, include_plan_out=True)
    plan_cmd = command(
        "plan",
        "preview a planned campaign: per-kind cost estimates, the bootstrap "
        "sweep, and what a measurement budget would admit (no experiments run)",
    )
    add_planner_arguments(plan_cmd, include_plan_out=False)
    command(
        "engines",
        "list registered experiment engines and their declared capabilities",
    )

    tele = command("telemetry", "render the last campaign's telemetry report")
    tele.add_argument(
        "--trace-out",
        metavar="FILE",
        help="also write the span records as Chrome trace_event JSON "
        "(open in Perfetto: https://ui.perfetto.dev)",
    )

    impact = command("impact", "probe one application's signature")
    impact.add_argument("app", help="application name (fftw, lulesh, mcb, milc, vpfft, amg)")

    command("fig3", "probe latency distributions (idle + all apps)")
    command("fig6", "CompressionB switch-utilization catalog")
    command("fig7", "per-app degradation vs utilization curves")
    command("table1", "measured pairwise slowdowns")
    command("fig8", "per-pairing prediction errors of all models")
    command("fig9", "quartile error summary per model")
    command("report", "everything: table1 + fig6-9 summaries")

    predict = command("predict", "predict one pairing with all models")
    predict.add_argument("app", help="the application whose slowdown is predicted")
    predict.add_argument("other", help="its co-runner")
    predict.add_argument(
        "--model",
        dest="artifact",
        metavar="FILE",
        help="predict from a fitted-model artifact (see `repro fit`) instead "
        "of the campaign cache; skips the measured-slowdown line",
    )

    fit = command("fit", "export the fitted-model artifact for serving")
    fit.add_argument(
        "--out",
        default="model.json",
        metavar="FILE",
        help="artifact path (checksummed JSON; default model.json)",
    )

    fit.add_argument(
        "--registry",
        dest="registry",
        metavar="DIR",
        help="also publish the artifact into this model registry as a new "
        "immutable version (does not move the CURRENT pointer; promote "
        "explicitly with `repro registry promote`)",
    )

    serve = command("serve", "serve batch predictions over HTTP")
    serve.add_argument(
        "--model",
        dest="artifact",
        metavar="FILE",
        help="fitted-model artifact to serve (default: fit from the cache)",
    )
    serve.add_argument(
        "--registry",
        dest="registry",
        metavar="DIR",
        help="serve the registry's CURRENT version and hot-reload on "
        "promotion/rollback (mutually exclusive with --model)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve.add_argument(
        "--port", type=int, default=8100, help="bind port (default 8100; 0 = ephemeral)"
    )
    serve.add_argument(
        "--reload-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="registry CURRENT-pointer poll interval (default 1.0)",
    )
    serve.add_argument(
        "--http-workers",
        type=int,
        default=1,
        metavar="N",
        help="pre-forked server processes sharing the port via SO_REUSEPORT "
        "(default 1 = single threaded server in this process; requires "
        "--port != 0 sources served from disk, i.e. --model or --registry)",
    )
    serve.add_argument(
        "--batch-window",
        type=float,
        default=0.0,
        metavar="MS",
        help="micro-batching window in milliseconds: concurrent /predict "
        "calls inside one window are coalesced into a single "
        "predict_batch solve (default 0 = off)",
    )
    serve.add_argument(
        "--batch-max",
        type=int,
        default=64,
        metavar="N",
        help="max coalesced requests per micro-batch solve (default 64)",
    )
    serve.add_argument(
        "--stats-dir",
        metavar="DIR",
        help="directory for the per-shard stats rendezvous backing "
        "/metrics/fleet (default: a private temp dir when sharded, "
        "standalone fleet-of-one otherwise)",
    )
    serve.add_argument(
        "--stats-interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="seconds between periodic per-shard stats publishes "
        "(default 2.0; shards also publish before answering "
        "/metrics/fleet and /healthz)",
    )

    top = command("top", "live view of a running campaign (tails telemetry.live.json)")
    top.add_argument(
        "--refresh",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="seconds between screen refreshes (default 2.0)",
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="render one frame and exit (no screen clearing; for scripts/CI)",
    )

    registry_cmd = command(
        "registry",
        "manage the versioned model registry (list/publish/promote/rollback)",
    )
    registry_cmd.add_argument(
        "verb",
        choices=("list", "publish", "promote", "rollback"),
        help="list versions, publish a new immutable version, atomically "
        "promote one to CURRENT (checksum-verified first), or roll back "
        "to the previously served version",
    )
    registry_cmd.add_argument(
        "--registry",
        dest="registry",
        default="results/registry",
        metavar="DIR",
        help="registry directory (default results/registry)",
    )
    registry_cmd.add_argument(
        "--model",
        dest="artifact",
        metavar="FILE",
        help="publish: artifact file to register (default: fit from the cache)",
    )
    registry_cmd.add_argument(
        "--version",
        metavar="NAME",
        help="publish: version name (default auto vNNNN); promote: required",
    )

    profile = command("profile", "trace one application's compute/wait/sleep breakdown")
    profile.add_argument("app", help="application name")

    whatif = command(
        "whatif", "run one application on progressively weaker networks"
    )
    whatif.add_argument("app", help="application name")
    whatif.add_argument(
        "--factors",
        type=float,
        nargs="+",
        default=[1.0, 2.0, 4.0],
        help="network slowdown factors (first is the baseline)",
    )

    fabric = command(
        "fabric-report",
        "compare a fabric scenario's prediction errors to the single-switch "
        "baseline (runs both campaigns if their products are not cached)",
    )
    fabric.add_argument(
        "--out",
        metavar="FILE",
        help="also write the comparison as a JSON artifact",
    )

    return parser


def _parse_faults(spec: str):
    """Resolve a --faults SPEC into a tuple of LinkFaultConfig rules.

    Accepts a preset name from :data:`repro.cluster.FAULT_SCENARIOS`,
    inline JSON (one rule object or a list of them), or ``@path`` to a
    JSON file with the same shape.
    """
    import json as json_mod

    from .cluster import FAULT_SCENARIOS, fault_scenario
    from .config import LinkFaultConfig

    spec = spec.strip()
    if not spec:
        return ()
    if spec.startswith("@"):
        spec = Path(spec[1:]).read_text().strip()
    if spec.startswith(("[", "{")):
        data = json_mod.loads(spec)
        if isinstance(data, dict):
            data = [data]
        return tuple(LinkFaultConfig.from_dict(rule) for rule in data)
    if spec in FAULT_SCENARIOS:
        return fault_scenario(spec)
    raise SystemExit(
        f"repro: unknown fault scenario {spec!r}; "
        f"known presets: {', '.join(sorted(FAULT_SCENARIOS))} "
        "(or pass inline JSON / @file.json)"
    )


def _machine_config(args: argparse.Namespace):
    """Build the machine the common fabric flags describe."""
    from .cluster import cab_config, leaf_spine_config

    faults = _parse_faults(args.faults)
    if args.topology == "single":
        if faults:
            raise SystemExit(
                "repro: --faults requires --topology leaf-spine (a single "
                "switch has no inter-switch links to degrade)"
            )
        return cab_config(seed=args.seed)
    return leaf_spine_config(
        seed=args.seed,
        leaf_count=args.leaves,
        nodes_per_leaf=args.nodes_per_leaf,
        spine_count=args.spines,
        ecmp_seed=args.ecmp_seed,
        faults=faults,
    )


def _pipeline(
    args: argparse.Namespace, machine_config=None
) -> ReproductionPipeline:
    return ReproductionPipeline(
        settings=PipelineSettings(
            profile=args.profile, seed=args.seed, engine=args.engine
        ),
        machine_config=machine_config
        if machine_config is not None
        else _machine_config(args),
        cache_path=args.cache,
        legacy_cache=args.legacy_cache,
        workers=args.workers,
        chunksize=args.chunksize,
        retry=RetryPolicy(
            max_attempts=args.max_attempts,
            timeout=args.task_timeout,
            backoff_base=args.retry_backoff,
        ),
        failure_budget=args.failure_budget,
        verbose=True,
        telemetry=args.telemetry,
    )


def _fig3(pipeline: ReproductionPipeline) -> str:
    chunks = []
    idle = pipeline.idle_signature()
    chunks.append(
        render_histogram(
            idle.histogram.fractions, idle.histogram.edges, title="No App"
        )
    )
    for name in pipeline.app_names:
        signature = pipeline.app_impact(name).signature
        chunks.append(
            render_histogram(
                signature.histogram.fractions,
                signature.histogram.edges,
                title=f"{name} (mean {signature.mean * 1e6:.2f}µs)",
            )
        )
    return "\n\n".join(chunks)


def _fig6(pipeline: ReproductionPipeline) -> str:
    utilizations = {
        obs.label: obs.utilization for obs in pipeline.compression_signatures()
    }
    return render_fig6(utilizations)


def _fig7(pipeline: ReproductionPipeline) -> str:
    curves = {}
    signatures = {obs.label: obs for obs in pipeline.compression_signatures()}
    for name in pipeline.app_names:
        curves[name] = [
            (signatures[label].utilization, degradation)
            for label, degradation in pipeline.degradation_table()[name].items()
        ]
    return render_fig7_series(curves)


def _table1(pipeline: ReproductionPipeline) -> str:
    return render_table1(pipeline.app_names, pipeline.measured_pairs())


def _fig8(pipeline: ReproductionPipeline) -> str:
    return render_fig8(pipeline.prediction_errors(), pipeline.app_names)


def _fig9(pipeline: ReproductionPipeline) -> str:
    summaries = {
        model: summarize_errors(list(table.values()))
        for model, table in pipeline.prediction_errors().items()
    }
    return render_fig9(summaries)


def _registry_main(args: argparse.Namespace, pipeline, human) -> int:
    """The `repro registry list|publish|promote|rollback` verbs."""
    from .errors import ArtifactError, RegistryError
    from .serving import ModelRegistry, load_artifact

    registry = ModelRegistry(args.registry)
    try:
        return _registry_verb(args, pipeline, human, registry, load_artifact)
    except (RegistryError, ArtifactError) as exc:
        print(f"repro registry {args.verb}: {exc}", file=sys.stderr)
        return 1


def _registry_verb(
    args: argparse.Namespace, pipeline, human, registry, load_artifact
) -> int:
    if args.verb == "list":
        document = registry.describe()
        if args.json:
            print(json.dumps(document, indent=2, sort_keys=True))
        else:
            if not document["versions"]:
                print(f"registry {registry.root}: no versions published")
            for row in document["versions"]:
                marker = "*" if row["current"] else " "
                print(f"{marker} {row['version']:16s} sha256={row['sha256'][:12]}…")
            if document["current"] is None:
                print("(nothing promoted yet)")
    elif args.verb == "publish":
        if getattr(args, "artifact", None):
            artifact = load_artifact(args.artifact)
        else:
            artifact = pipeline.model_artifact()
        version = registry.publish(artifact, version=args.version)
        print(
            f"published version {version} "
            f"({len(artifact.observations)} configs, "
            f"{len(artifact.signatures)} apps) in {registry.root}",
            file=human,
        )
        if args.json:
            print(json.dumps({"version": version, "root": str(registry.root)}))
    elif args.verb == "promote":
        if not args.version:
            print("repro registry promote: --version is required", file=sys.stderr)
            return 1
        registry.promote(args.version)
        print(f"promoted {args.version} to CURRENT in {registry.root}", file=human)
        if args.json:
            print(json.dumps(registry.describe(), indent=2, sort_keys=True))
    elif args.verb == "rollback":
        version, _artifact = registry.rollback()
        print(f"rolled back to {version} in {registry.root}", file=human)
        if args.json:
            print(json.dumps(registry.describe(), indent=2, sort_keys=True))
    return 0


def _top_main(args: argparse.Namespace) -> int:
    """The `repro top` command: tail ``telemetry.live.json`` as a live table."""
    import time as _time

    from .telemetry.live import LIVE_REPORT_NAME, load_live, render_top

    path = Path(args.cache) / LIVE_REPORT_NAME
    refresh = max(0.1, args.refresh)
    announced = False
    try:
        while True:
            document = load_live(path)
            if document is None:
                if args.once:
                    print(
                        f"repro top: no live document at {path} — is a "
                        "campaign running with telemetry on?",
                        file=sys.stderr,
                    )
                    return 1
                if not announced:
                    print(f"repro top: waiting for {path} ...", file=sys.stderr)
                    announced = True
                _time.sleep(refresh)
                continue
            frame = render_top(document)
            if args.once:
                print(frame, end="")
                return 0
            # ANSI clear + home keeps the table refreshing in place.
            sys.stdout.write("\x1b[2J\x1b[H" + frame)
            sys.stdout.flush()
            if document.get("complete"):
                return 0
            _time.sleep(refresh)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        return 0


def _serve_main(args: argparse.Namespace, pipeline) -> int:
    """The `repro serve` command: single-process or pre-forked sharding."""
    from .serving import (
        ModelRegistry,
        PredictionServer,
        ShardedPredictionServer,
        load_artifact,
        save_artifact,
    )

    # Serving metrics are the server's access log; collect them unless
    # the user forced telemetry off.
    if args.telemetry is not False:
        telemetry_mod.enable()
    if getattr(args, "registry", None) and getattr(args, "artifact", None):
        print("repro serve: --model and --registry are mutually exclusive",
              file=sys.stderr)
        return 1
    batch_window = args.batch_window / 1000.0  # CLI takes milliseconds
    endpoints = (
        "(endpoints: /healthz /models /predict /predict/batch "
        "/metrics /metrics/fleet)"
    )

    if args.http_workers > 1:
        # Pre-forked sharding: workers re-load the source from disk, so an
        # in-memory pipeline fit must be parked in a file first.
        artifact_path = getattr(args, "artifact", None)
        registry_root = getattr(args, "registry", None)
        if not artifact_path and not registry_root:
            artifact_path = str(Path(args.cache) / "served_model.json")
            save_artifact(pipeline.model_artifact(), artifact_path)
            print(f"fitted artifact parked at {artifact_path}", file=sys.stderr)
        sharded = ShardedPredictionServer(
            artifact_path=artifact_path,
            registry_root=registry_root,
            host=args.host,
            port=args.port,
            workers=args.http_workers,
            reload_interval=args.reload_interval,
            batch_window=batch_window,
            batch_max_size=args.batch_max,
            stats_dir=args.stats_dir,
            stats_interval=args.stats_interval,
        )
        sharded.start()
        print(
            f"serving on http://{args.host}:{sharded.port} across "
            f"{args.http_workers} SO_REUSEPORT shards "
            f"(fleet stats dir: {sharded.stats_dir}) {endpoints}",
            file=sys.stderr,
            flush=True,
        )
        try:
            while sharded.alive():
                import time as _time

                _time.sleep(1.0)
            print("all serving shards exited", file=sys.stderr)
            return 1
        except KeyboardInterrupt:  # pragma: no cover - interactive exit
            return 0
        finally:
            sharded.stop()

    if getattr(args, "registry", None):
        from .errors import ArtifactError, RegistryError

        try:
            server = PredictionServer(
                registry=ModelRegistry(args.registry),
                host=args.host,
                port=args.port,
                reload_interval=args.reload_interval,
                batch_window=batch_window,
                batch_max_size=args.batch_max,
                stats_dir=args.stats_dir,
                stats_interval=args.stats_interval,
            )
        except (RegistryError, ArtifactError) as exc:
            print(f"repro serve: {exc}", file=sys.stderr)
            return 1
    else:
        if getattr(args, "artifact", None):
            artifact = load_artifact(args.artifact)
        else:
            artifact = pipeline.model_artifact()
        server = PredictionServer(
            artifact,
            host=args.host,
            port=args.port,
            batch_window=batch_window,
            batch_max_size=args.batch_max,
            stats_dir=args.stats_dir,
            stats_interval=args.stats_interval,
        )
    state = server.state
    print(
        f"serving version {state.version}: {len(state.artifact.signatures)} "
        f"apps × {len(state.engine.model_names)} models on "
        f"http://{server.server_address[0]}:{server.server_port} {endpoints}",
        file=sys.stderr,
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    finally:
        server.server_close()
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    for key, value in _COMMON_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, value)
    if args.telemetry is True:
        telemetry_mod.enable()
    elif args.telemetry is False:
        telemetry_mod.disable()
    if args.log is not None:
        telemetry_mod.logs.configure(args.log)
    # Artifact-backed predict/serve, the registry listing, and `repro top`
    # never touch the cache: skip building the pipeline entirely, so they
    # neither create the cache directory nor trigger the legacy-cache
    # migration (`top` only reads the live file's path).
    cache_free = (
        args.command in ("engines", "top")
        or (args.command in ("predict", "serve") and getattr(args, "artifact", None))
        or (args.command == "serve" and getattr(args, "registry", None))
        or (
            args.command == "registry"
            and (args.verb != "publish" or getattr(args, "artifact", None))
        )
    )
    pipeline = None if cache_free else _pipeline(args)
    # With --json, stdout carries only the JSON document; human summaries
    # join the progress lines on stderr.
    human = sys.stderr if args.json else sys.stdout

    if args.command == "engines":
        from .analysis import engine_catalog, render_engine_catalog

        catalog = engine_catalog()
        if args.json:
            print(json.dumps(catalog, indent=2, sort_keys=True))
        else:
            print(render_engine_catalog(catalog))
        return 0

    if args.command == "campaign" and getattr(args, "planner", None):
        from .planner import CostModel, PlannedCampaign, get_planner

        cost_model = (
            CostModel.from_telemetry_report(args.cost_from, pipeline.settings)
            if args.cost_from
            else None
        )
        campaign = PlannedCampaign(
            pipeline,
            get_planner(args.planner, labels_per_round=args.labels_per_round),
            measurement_budget=args.measurement_budget,
            max_rounds=args.max_rounds,
            cost_model=cost_model,
        )
        result = campaign.run()
        final = result.final_error
        print(
            f"planned campaign ({args.planner}) done: {result.executed} "
            f"executed, {result.cached} cached, {result.skipped} skipped, "
            f"{result.failed} failed of {result.total_products} total "
            f"products in {len(result.rounds)} round(s) "
            f"({result.stop_reason}); "
            f"budget spent {result.budget_spent:.3f}s"
            + (f" of {result.budget:.3f}s" if result.budget is not None else "")
            + (
                f"; holdout error {final:.2f} points"
                if final is not None
                else "; no holdout error available"
            )
            + f"; cache at {pipeline.cache_path}",
            file=human,
        )
        if args.plan_out:
            Path(args.plan_out).write_text(
                json.dumps(result.trace_document(), indent=2, sort_keys=True)
                + "\n"
            )
            print(f"plan trace written to {args.plan_out}", file=human)
        if args.json:
            print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        # Mirror the exhaustive campaign's exit semantics: refusals are
        # documented limits, infrastructure holes are failures.
        if result.failed > result.unsupported:
            return 2
        return 0

    if args.command == "plan":
        from .planner import CostModel

        cost_model = (
            CostModel.from_telemetry_report(args.cost_from, pipeline.settings)
            if args.cost_from
            else CostModel.from_settings(pipeline.settings)
        )
        raw_keys = [pipeline.raw_key(key) for key in pipeline.product_keys()]
        pending = [raw for raw in raw_keys if not pipeline.has_product(raw)]
        budget = args.measurement_budget
        by_kind: dict = {}
        for raw in pending:
            kind = raw.split("/", 1)[0]
            entry = by_kind.setdefault(
                kind, {"count": 0, "unit_cost": cost_model.cost_of(raw), "cost": 0.0}
            )
            entry["count"] += 1
            entry["cost"] += cost_model.cost_of(raw)
        total_cost = sum(entry["cost"] for entry in by_kind.values())
        admitted = len(pending)
        if budget is not None:
            spent = 0.0
            admitted = 0
            for raw in pending:
                cost = cost_model.cost_of(raw)
                if spent + cost <= budget + 1e-9:
                    spent += cost
                    admitted += 1
        document = {
            "planner": args.planner or "uncertainty",
            "cost_model": cost_model.to_dict(),
            "total_products": len(raw_keys),
            "cached": len(raw_keys) - len(pending),
            "pending": len(pending),
            "estimated_cost": total_cost,
            "budget": budget,
            "budget_admits": admitted,
            "by_kind": by_kind,
        }
        if args.json:
            print(json.dumps(document, indent=2, sort_keys=True))
        else:
            print(
                f"plan preview (cost estimates from {cost_model.source}): "
                f"{len(pending)} pending of {len(raw_keys)} products, "
                f"estimated {total_cost:.3f} experiment-seconds"
            )
            for kind in sorted(by_kind):
                entry = by_kind[kind]
                print(
                    f"  {kind:12s} {entry['count']:4d} × "
                    f"{entry['unit_cost']:.4f}s = {entry['cost']:.3f}s"
                )
            if budget is not None:
                print(
                    f"  a budget of {budget:.3f}s admits {admitted} of "
                    f"{len(pending)} pending experiments up front "
                    "(an adaptive campaign re-plans each round, so its "
                    "selection will differ)"
                )
        return 0

    if args.command == "campaign":
        stats = pipeline.ensure_all()
        print(
            f"campaign done: {stats['executed']} executed, "
            f"{stats['cached']} cached, {stats['failed']} failed, "
            f"{stats['total']} total products "
            f"in {stats['elapsed']:.1f}s with {stats['workers']} worker(s); "
            f"cache at {pipeline.cache_path}",
            file=human,
        )
        if args.json:
            print(json.dumps(stats, indent=2, sort_keys=True))
        if stats["failed"]:
            unsupported = stats.get("unsupported", 0)
            note = (
                f" ({unsupported} unsupported by engine {args.engine!r})"
                if unsupported
                else ""
            )
            print(
                f"warning: campaign finished with {stats['failed']} hole(s)"
                f"{note}; see {stats['failure_report']}",
                file=human,
            )
            # Model refusals are documented limits, not failures: only
            # infrastructure holes make the campaign exit non-zero.
            if stats["failed"] > unsupported:
                return 2
    elif args.command == "telemetry":
        from .telemetry.report import (
            TELEMETRY_REPORT_NAME,
            load_report,
            render_report,
            trace_from_report,
        )

        path = (
            pipeline.cache_path / TELEMETRY_REPORT_NAME
            if pipeline.cache_path is not None
            else None
        )
        if path is None or not path.exists():
            print(
                f"no telemetry report at {path}; "
                "run `repro campaign --telemetry` first",
                file=sys.stderr,
            )
            return 1
        document = load_report(path)
        if args.trace_out:
            trace = trace_from_report(document)
            Path(args.trace_out).write_text(json.dumps(trace) + "\n")
            print(
                f"wrote Chrome trace ({len(trace['traceEvents'])} events) to "
                f"{args.trace_out} — open in https://ui.perfetto.dev",
                file=sys.stderr,
            )
        if args.json:
            print(json.dumps(document, indent=2, sort_keys=True))
        else:
            print(render_report(document))
    elif args.command == "calibrate":
        estimate = pipeline.calibration()
        print(
            f"idle service estimate: mean={estimate.mean * 1e6:.3f}µs "
            f"(µ={estimate.rate:.3e}/s) var={estimate.variance:.3e}s² "
            f"scv={estimate.scv:.2f} n={estimate.sample_count}"
        )
    elif args.command == "impact":
        result = pipeline.app_impact(args.app)
        signature = result.signature
        print(
            f"{args.app}: probe mean={signature.mean * 1e6:.2f}µs "
            f"std={signature.std * 1e6:.2f}µs "
            f"utilization(P-K)={signature.utilization * 100:.1f}% "
            f"true={result.true_utilization * 100:.1f}%"
        )
    elif args.command == "fig3":
        print(_fig3(pipeline))
    elif args.command == "fig6":
        print(_fig6(pipeline))
    elif args.command == "fig7":
        print(_fig7(pipeline))
    elif args.command == "table1":
        print(_table1(pipeline))
    elif args.command == "fig8":
        print(_fig8(pipeline))
    elif args.command == "fig9":
        print(_fig9(pipeline))
    elif args.command == "report":
        from .analysis import full_report

        print(full_report(pipeline))
    elif args.command == "predict":
        if getattr(args, "artifact", None):
            # Serving path: everything comes from the artifact, no cache —
            # there is no measured slowdown to compare against.
            from .serving import load_artifact

            engine = load_artifact(args.artifact).engine()
        else:
            engine = pipeline.engine()
            measured = pipeline.pair_slowdown(args.app, args.other)
            print(f"measured: {measured:.1f}%")
        for prediction in engine.predict_pair(args.app, args.other):
            print(f"{prediction.model:16s} predicted {prediction.predicted:6.1f}%")
    elif args.command == "fit":
        from .serving import ModelRegistry, save_artifact

        artifact = pipeline.model_artifact()
        path = save_artifact(artifact, args.out)
        print(
            f"wrote fitted-model artifact ({len(artifact.observations)} configs, "
            f"{len(artifact.signatures)} apps) to {path}",
            file=human,
        )
        version = None
        if getattr(args, "registry", None):
            version = ModelRegistry(args.registry).publish(artifact)
            print(
                f"published as version {version} in {args.registry} "
                f"(promote with `repro registry promote --registry "
                f"{args.registry} --version {version}`)",
                file=human,
            )
        if args.json:
            print(
                json.dumps(
                    {
                        "path": str(path),
                        "metadata": artifact.metadata,
                        "version": version,
                    }
                )
            )
    elif args.command == "registry":
        return _registry_main(args, pipeline, human)
    elif args.command == "serve":
        return _serve_main(args, pipeline)
    elif args.command == "top":
        return _top_main(args)
    elif args.command == "profile":
        from .core.experiments.catalog import paper_applications
        from .trace import profile_workload, render_profile

        apps = paper_applications()
        if args.app not in apps:
            print(f"unknown application {args.app!r}; choose from {sorted(apps)}")
            return 1
        profile = profile_workload(pipeline.machine_config, apps[args.app])
        print(render_profile(profile))
    elif args.command == "whatif":
        from .core.experiments import network_scaling_study
        from .core.experiments.catalog import paper_applications

        apps = paper_applications()
        if args.app not in apps:
            print(f"unknown application {args.app!r}; choose from {sorted(apps)}")
            return 1
        points = network_scaling_study(
            pipeline.machine_config, apps[args.app], factors=args.factors
        )
        print(f"{args.app} on progressively weaker networks:")
        for point in points:
            print(
                f"  {point.factor:5.1f}x slower network: "
                f"{point.elapsed * 1e3:8.2f}ms  ({point.slowdown_percent:+.1f}%)"
            )
    elif args.command == "fabric-report":
        from .analysis import (
            fabric_comparison,
            render_fabric_comparison,
            write_fabric_report,
        )
        from .cluster import cab_config

        if args.topology == "single":
            print(
                "repro fabric-report: pass --topology leaf-spine (and "
                "optionally --faults) to describe the fabric scenario",
                file=sys.stderr,
            )
            return 1
        baseline = _pipeline(args, machine_config=cab_config(seed=args.seed))
        for side, pipe in (("baseline", baseline), ("fabric", pipeline)):
            pending = len(pipe.pending_keys())
            if pending:
                print(
                    f"[fabric-report] {side}: {pending} products pending, running…",
                    file=sys.stderr,
                )
            pipe.ensure_all()
        comparison = fabric_comparison(baseline, pipeline)
        print(render_fabric_comparison(comparison), file=human)
        if args.out:
            path = write_fabric_report(comparison, args.out)
            print(f"wrote fabric comparison to {path}", file=sys.stderr)
        if args.json:
            print(
                json.dumps(
                    {
                        "baseline_tag": comparison["baseline_tag"],
                        "fabric_tag": comparison["fabric_tag"],
                        "delta": comparison["delta"],
                    },
                    indent=2,
                    sort_keys=True,
                )
            )
    return 0


if __name__ == "__main__":  # pragma: no cover - manual entry point
    sys.exit(main())
