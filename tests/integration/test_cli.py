"""Tests for the command-line interface."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.report import FIGURES
from repro.cli import build_parser, main

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=10,
)


def test_parser_knows_all_commands():
    parser = build_parser()
    for command in [
        "calibrate",
        "impact",
        "fig3",
        "fig6",
        "fig7",
        "table1",
        "fig8",
        "fig9",
        "report",
        "predict",
    ]:
        args = parser.parse_args(
            [command] + (["fftw"] if command == "impact" else [])
            + (["fftw", "mcb"] if command == "predict" else [])
        )
        assert args.command == command


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_profile_choices():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--profile", "huge", "calibrate"])


@pytest.mark.parametrize(
    "argv",
    [["--retry-backoff", "0.1", "campaign"], ["campaign", "--retry-backoff", "0.1"]],
)
def test_parser_has_no_retry_backoff(argv):
    # A failed attempt is requeued at once: every experiment is a
    # deterministic function of its descriptor, so waiting could not
    # change a retry's outcome and there is no backoff to configure.
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)


def _isolated(tmp_path, *argv):
    """CLI args pinned to a tmp cache, with legacy-cache migration off."""
    return ["--cache", str(tmp_path / "cache"), "--legacy-cache", "", *argv]


def test_options_before_subcommand_are_honored():
    # Regression: subparsers parse into a fresh namespace that overwrites
    # the outer one, so plain defaults on the shared options used to
    # clobber any value given before the subcommand.
    args = build_parser().parse_args(["--cache", "X", "--seed", "9", "calibrate"])
    assert args.cache == "X"
    assert args.seed == 9


@pytest.mark.parametrize(
    "command", ["fig3", "fig6", "fig7", "table1", "fig8", "fig9", "report"]
)
def test_cli_figure_commands_print_the_module_text(
    tmp_path, capsys, paper_cache, paper_pipeline, command
):
    code = main(
        ["--cache", str(tmp_path / "cache"), "--legacy-cache", str(paper_cache), command]
    )
    assert code == 0
    assert capsys.readouterr().out == FIGURES[command](paper_pipeline)[1] + "\n"


def test_cli_calibrate_runs(tmp_path, capsys):
    code = main(_isolated(tmp_path, "--profile", "quick", "calibrate"))
    assert code == 0
    out = capsys.readouterr().out
    assert "idle service estimate" in out
    assert "µs" in out


def test_cli_leaves_repo_results_untouched(tmp_path, capsys, monkeypatch):
    # A --cache given before the subcommand must be respected: nothing may
    # land in the default results/ tree.
    monkeypatch.chdir(tmp_path)
    code = main(_isolated(tmp_path, "--profile", "quick", "calibrate"))
    assert code == 0
    assert not (tmp_path / "results").exists()
    assert (tmp_path / "cache" / "calibration.json").exists()


def test_cli_profile_runs(tmp_path, capsys, monkeypatch):
    """Profile command traces a (shrunken) application on the Cab machine."""
    import repro.core.experiments.catalog as catalog
    from repro.workloads import MCB

    monkeypatch.setattr(
        catalog,
        "paper_applications",
        lambda: {"mcb": MCB(iterations=1, track_compute=1e-4)},
    )
    code = main(_isolated(tmp_path, "profile", "mcb"))
    assert code == 0
    out = capsys.readouterr().out
    assert "compute" in out and "wait" in out


def test_cli_profile_unknown_app(tmp_path, capsys):
    code = main(_isolated(tmp_path, "profile", "nosuch"))
    assert code == 1
    assert "unknown application" in capsys.readouterr().out


def test_cli_calibrate_uses_cache(tmp_path, capsys):
    main(_isolated(tmp_path, "--profile", "quick", "calibrate"))
    first = capsys.readouterr()
    main(_isolated(tmp_path, "--profile", "quick", "calibrate"))
    second = capsys.readouterr()
    # Identical estimate; the first run simulates, the second must hit the
    # shard ("[pipeline]" progress lines only appear on real runs — and on
    # stderr, keeping stdout machine-readable).
    assert first.out.splitlines()[-1] == second.out.splitlines()[-1]
    assert "[pipeline]" in first.err
    assert "[pipeline]" not in first.out
    assert "[pipeline]" not in second.err


def test_cli_whatif_runs(tmp_path, capsys, monkeypatch):
    import repro.core.experiments.catalog as catalog
    from repro.workloads import MCB

    monkeypatch.setattr(
        catalog,
        "paper_applications",
        lambda: {"mcb": MCB(iterations=1, track_compute=1e-4)},
    )
    code = main(_isolated(tmp_path, "whatif", "mcb", "--factors", "1", "3"))
    assert code == 0
    out = capsys.readouterr().out
    assert "weaker networks" in out
    assert "3.0x" in out


def test_cli_whatif_unknown_app(tmp_path, capsys):
    code = main(_isolated(tmp_path, "whatif", "nosuch"))
    assert code == 1


@pytest.fixture
def _clean_telemetry():
    from repro import telemetry

    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


def test_cli_campaign_json_round_trips(tmp_path, capsys, _clean_telemetry):
    import json

    code = main(
        _isolated(
            tmp_path,
            "--profile", "quick", "--engine", "analytic", "--workers", "1",
            "campaign", "--json",
        )
    )
    assert code == 0
    captured = capsys.readouterr()
    # stdout is pure JSON (progress and summaries live on stderr), so
    # `repro campaign --json | python -m json.tool` round-trips.
    stats = json.loads(captured.out)
    assert stats["failed"] == 0
    assert stats["executed"] > 0
    assert "campaign done" in captured.err
    assert "[pipeline]" in captured.err


def test_cli_telemetry_subcommand_renders_and_exports_trace(
    tmp_path, capsys, _clean_telemetry
):
    import json

    code = main(
        _isolated(
            tmp_path,
            "--profile", "quick", "--engine", "analytic", "--workers", "1",
            "campaign", "--telemetry",
        )
    )
    assert code == 0
    assert (tmp_path / "cache" / "telemetry.json").exists()
    capsys.readouterr()

    trace_path = tmp_path / "trace.json"
    code = main(_isolated(tmp_path, "telemetry", "--trace-out", str(trace_path)))
    assert code == 0
    out = capsys.readouterr().out
    assert "counters:" in out
    assert "pipeline.experiments_completed" in out
    trace = json.loads(trace_path.read_text())
    assert trace["traceEvents"]


def test_cli_telemetry_subcommand_without_report_fails(
    tmp_path, capsys, _clean_telemetry
):
    code = main(_isolated(tmp_path, "telemetry"))
    assert code == 1
    assert "no telemetry report" in capsys.readouterr().err


def test_cli_registry_usage_errors_are_friendly(tmp_path, capsys):
    # Operator mistakes print one-line errors and exit 1 — no tracebacks.
    registry = str(tmp_path / "registry")
    code = main(["registry", "rollback", "--registry", registry])
    assert code == 1
    err = capsys.readouterr().err
    assert "repro registry rollback:" in err and "promoted" in err

    code = main(["registry", "promote", "--registry", registry, "--version", "x"])
    assert code == 1
    assert "unknown version" in capsys.readouterr().err


def test_cli_serve_unpromoted_registry_is_friendly(tmp_path, capsys):
    code = main(
        ["serve", "--registry", str(tmp_path / "empty"), "--port", "0"]
    )
    assert code == 1
    assert "repro serve:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["telemetry"],
        ["--engine", "analytic", "plan", "--cost-from", "{report}"],
    ],
)
def test_cli_torn_telemetry_report_prints_one_line(tmp_path, capsys, argv):
    report = tmp_path / "cache" / "telemetry.json"
    report.parent.mkdir()
    report.write_text('{"version": 1, "spans": {"rec')  # a write cut short
    argv = [arg.format(report=report) for arg in argv]
    assert main(_isolated(tmp_path, *argv)) == 1
    err = capsys.readouterr().err
    assert err.startswith("repro: ") and err.count("\n") == 1
    assert "not valid JSON" in err


fault_specs = st.one_of(
    json_values.map(json.dumps),
    st.dictionaries(
        st.sampled_from(
            ["link", "drop_probability", "corrupt_probability", "speed_factor", "down"]
        ),
        json_values,
        max_size=3,
    ).map(json.dumps),
    st.text(max_size=12),
    st.sampled_from(
        [
            "--",
            "[1]",
            '{"drop_probability": "x"}',
            '{"down": [[1]]}',
            "[[[",
            "@/nonexistent.json",
            '{"bogus": 1}',
            '{"link": 5}',
            '{"speed_factor": NaN}',
            '{"down": [[NaN, 1]]}',
            '{"speed_factor": 1e400}',
            '{"link": "leaf0->spine0", "drop_probability": 0.01}',
            "[" * 100_000,
        ]
    ),
)


@settings(max_examples=60, deadline=None)
@given(spec=fault_specs)
def test_cli_faults_spec_never_prints_a_traceback(tmp_path_factory, spec):
    argv = _isolated(
        tmp_path_factory.mktemp("faults"),
        "--engine", "analytic", "--topology", "leaf-spine", f"--faults={spec}", "plan",
    )
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 0 or (
        code == 1 and err.getvalue().startswith("repro: ") and err.getvalue().count("\n") == 1
    ), err.getvalue()


@pytest.mark.parametrize(
    "plan",
    [
        '{"hang_seconds": "x"}',
        '{"hang_seconds": [1]}',
        '{"hang_seconds": -5}',
        '{"hang_seconds": NaN}',
        '{"fail": {"k": [true]}}',
        '{"fail": {"k": true}}',
        '{"fail": {"k": [0, -3]}}',
        '{"nope": 1}',
    ],
)
def test_cli_bad_fault_plan_fails_once_before_any_work(tmp_path, capsys, monkeypatch, plan):
    monkeypatch.setenv("REPRO_FAULTS", plan)
    argv = _isolated(tmp_path, "--engine", "analytic", "--profile", "quick", "campaign")
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("repro: fault plan") and err.count("\n") == 1, err
    assert not (tmp_path / "cache").exists()
