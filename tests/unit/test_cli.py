"""Unit tests for the command-line interface."""

import json
import re

import pytest

from repro.analysis import live_sources, source_digests
from repro.cli import _config, _parse_delays, _parse_fault, main
from repro.config import DELAY_VALUES_MS
from repro.errors import ReproError
from repro.pipeline import STAGES
from repro.systems import get_system
from repro.types import DELAY, EXCEPTION, FaultKey


def test_parse_fault():
    assert _parse_fault("a.b:delay") == FaultKey("a.b", DELAY)
    assert _parse_fault("x:exception") == FaultKey("x", EXCEPTION)


def test_parse_fault_rejects_garbage():
    with pytest.raises(ReproError, match="must look like"):
        _parse_fault("nonsense")
    with pytest.raises(ReproError, match=r"kind one of exception\|delay\|"):
        _parse_fault("site:banana")


def test_parse_delays():
    assert _parse_delays("250,1000,8000") == (250.0, 1000.0, 8000.0)
    assert _parse_delays("500.5") == (500.5,)
    with pytest.raises(SystemExit):
        _parse_delays("fast,slow")
    with pytest.raises(SystemExit):
        _parse_delays(",")


def test_config_defaults_to_paper_delay_sweep():
    """The CLI must not silently shadow CSnakeConfig defaults."""
    import argparse

    args = argparse.Namespace(budget=None, seed=None, repeats=None, delays=None, workers=None)
    assert _config(args).delay_values_ms == DELAY_VALUES_MS


def test_config_applies_flags():
    import argparse

    args = argparse.Namespace(budget=3, seed=11, repeats=4, delays="250,8000", workers=2)
    cfg = _config(args)
    assert cfg.budget_per_fault == 3
    assert cfg.seed == 11
    assert cfg.repeats == 4
    assert cfg.delay_values_ms == (250.0, 8000.0)
    assert cfg.experiment_workers == 2


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "toy" in out and "minihdfs2" in out


def test_list_rejects_experiment_flags():
    with pytest.raises(SystemExit):
        main(["list", "--budget", "3"])
    with pytest.raises(SystemExit):
        main(["list", "--seed", "1"])


def test_inject_command(capsys):
    rc = main([
        "inject", "toy", "toy.server.is_stale:negation", "toy.balancer",
        "--repeats", "2",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "inject" in out


@pytest.mark.parametrize("fault, test, message", [
    ("toy.client.send_loop:negation", "toy.idle",
     "negation cannot be injected at toy.client.send_loop .*kinds it hosts: delay$"),
    ("toy.client.send_loop:membership_churn", "toy.idle",
     "membership_churn cannot be injected at toy.client.send_loop"),
    ("env.node.worker-1:partition_during_restart", "toy.idle",
     "hosts: node_crash, membership_churn$"),
    ("toy.nope:delay", "toy.idle", "toy has no site 'toy.nope'$"),
    ("toy.client.send_loop:delay", "no.such.test",
     "toy has no test 'no.such.test'; its tests: toy.big_batches, "),
    ("toy.client.send_loop:gamma_burst", "toy.idle",
     r"kind one of exception\|delay\|.*got 'toy.client.send_loop:gamma_burst'$"),
])
def test_inject_rejects_a_fault_it_cannot_run(capsys, fault, test, message):
    assert main(["inject", "toy", fault, test, "--repeats", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and re.search(message, captured.err)


def test_run_command_on_toy(capsys):
    rc = main([
        "run", "toy", "--repeats", "2", "--seed", "7", "--budget", "2",
        "--delays", "2000", "-v",
    ])
    out, err = capsys.readouterr()
    assert "system: toy" in out
    assert rc in (0, 1)
    # -v: one format_event line per stage, labelled with the system.
    finished = re.findall(r"^\[toy\] stage_finished seconds=[0-9.e-]+, stage=(\w+)$", err, re.M)
    assert finished == [name for name, _ in STAGES]


def test_submit_wait_verbose_prints_every_event(monkeypatch, capsys):
    """`repro submit --wait -v` prints the campaign's whole event feed on
    stderr in `format_event`'s shape, labelled with the campaign id, as
    `--follow -v` does."""
    import repro.service
    from repro.core.report import DetectionReport

    feed = [{"kind": "campaign_submitted", "detail": {"label": "", "system": "toy"}}]
    feed += [
        {"kind": "stage_finished", "detail": {"seconds": 0.5, "stage": name}}
        for name, _ in STAGES
    ]
    feed.append({"kind": "campaign_done", "detail": {"digest": "d"}})
    for seq, event in enumerate(feed):
        event["seq"] = seq

    class StubTransport:
        def __init__(self, url):
            self.url = url

        def start_campaign(self, system, config, label=""):
            return {"campaign": "c-1"}

        def campaign_events(self, campaign_id, after=0, wait_s=0.0):
            events = [e for e in feed if e["seq"] >= after]
            return {"events": events, "next": len(feed), "state": "done"}

        def campaign_status(self, campaign_id):
            return {"state": "done"}

        def campaign_report(self, campaign_id):
            return DetectionReport("toy").to_dict()

    monkeypatch.setattr(repro.service, "HttpTransport", StubTransport)
    assert main(["submit", "toy", "--manager", "http://stub", "--wait", "-v"]) == 1
    out, err = capsys.readouterr()
    assert out.startswith("c-1\n") and "system: toy" in out
    finished = re.findall(r"^\[c-1\] stage_finished seconds=0.5, stage=(\w+)$", err, re.M)
    assert finished == [name for name, _ in STAGES]
    assert "[c-1] campaign_done digest=d" in err


def test_run_command_json_output(capsys):
    rc = main([
        "run", "toy", "--repeats", "2", "--seed", "7", "--budget", "2",
        "--delays", "2000", "--json",
    ])
    obj = json.loads(capsys.readouterr().out)
    assert obj["system"] == "toy"
    assert "summary" in obj and "bug_matches" in obj
    assert rc in (0, 1)


def test_run_command_out_file(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    main([
        "run", "toy", "--repeats", "2", "--seed", "7", "--budget", "2",
        "--delays", "2000", "--out", str(out_file),
    ])
    capsys.readouterr()
    obj = json.loads(out_file.read_text())
    assert obj["system"] == "toy"


def test_run_again_over_one_cache_dir_prints_the_same_report(tmp_path, capsys):
    """Re-running a campaign with its cache directory is how an
    interrupted one is recovered: same report, nothing simulated twice."""
    args = ["run", "toy", "--repeats", "2", "--seed", "7", "--budget", "2",
            "--delays", "2000", "--cache-dir", str(tmp_path / "c")]
    rc_first = main(args)
    first = capsys.readouterr()
    rc_again = main(args + ["--workers", "2"])
    again = capsys.readouterr()
    assert rc_again == rc_first
    assert again.out == first.out
    assert " 0 misses, 0 stored (" in again.err


def test_run_parallel_matches_serial(tmp_path, capsys):
    args = ["run", "toy", "--repeats", "2", "--seed", "7", "--budget", "2",
            "--delays", "2000", "--json"]
    main(args)
    serial = json.loads(capsys.readouterr().out)
    main(args + ["--workers", "3"])  # no --backend: the process backend
    parallel = json.loads(capsys.readouterr().out)
    assert serial == parallel


@pytest.mark.parametrize("argv", (["run", "toy", "--backend", "thread"], ["bench"]))
def test_removed_thread_backend_and_bench_verb_are_argparse_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", (
    pytest.param(["resume", "s"], "invalid choice: 'resume'", id="resume"),
    pytest.param(
        ["run", "toy", "--session-dir", "s"], "unrecognized arguments: --session-dir",
        id="session-dir",
    ),
    pytest.param(
        ["run", "toy", "--stages", "analyze"], "unrecognized arguments: --stages",
        id="stages",
    ),
))
def test_removed_session_verb_and_flags_are_argparse_errors(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_bare_cache_flag_is_an_argparse_error(capsys):
    """The cache directory has one spelling, ``--cache-dir DIR``: a bare
    ``--cache`` names no directory and is refused before any run."""
    with pytest.raises(SystemExit) as exc:
        main(["run", "toy", "--cache"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


def test_bare_cache_flag_is_an_argparse_error(capsys):
    """The cache directory has one spelling, ``--cache-dir DIR``: a bare
    ``--cache`` names no directory and is refused before any run."""
    with pytest.raises(SystemExit) as exc:
        main(["run", "toy", "--cache"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


def test_analyze_command_text(capsys):
    assert main(["analyze", "miniraft"]) == 0
    out = capsys.readouterr().out
    assert "slices:" in out and "fault space:" in out
    # the demo site declared dead is excluded
    assert "statically unreachable from any workload entry point" in out
    # registry entries whose code does not exist stay unresolved (unpruned)
    assert "unresolved raft.sec.cert_check" in out


def test_analyze_command_json(capsys):
    assert main(["analyze", "miniraft", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["analysis"]["system"] == "miniraft"
    slices = obj["slices"]
    modules = get_system("miniraft").source_modules
    assert slices["source_digest"] == source_digests(live_sources(modules)).source
    assert "ldr.compact.scan" not in {f.rsplit(":", 1)[0] for f in obj["analysis"]["faults"]}
    # stats are stable scalars: no wall-clock noise in the JSON form
    assert not any(k.startswith("wall_") for k in slices["stats"])


def test_analyze_env_kinds_change_fault_space(capsys):
    assert main(["analyze", "miniraft", "--fault-kinds", "all", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert any(f.endswith(":partition") for f in obj["analysis"]["faults"])


def _edited_tree(tmp_path):
    from pathlib import Path

    from examples.diffrun.edit_miniraft import make_edited_tree

    repo = Path(__file__).resolve().parents[2]
    return str(make_edited_tree(tmp_path / "edited", repo))


def test_diff_run_static_only_json(tmp_path, capsys):
    edited = _edited_tree(tmp_path)
    rc = main(["diff-run", ".", edited, "--system", "miniraft", "--static-only", "--json"])
    obj = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert obj["static"]["source_changed"]
    assert obj["static"]["functions"]["changed"] == [
        "repro.systems.miniraft.nodes:RaftNode.install_snapshot"
    ]
    assert obj["static"]["modules"]["changed"] == []
    assert obj["reports"] is None  # static-only: no campaigns were run


def test_diff_run_static_only_identical_sides(tmp_path, capsys):
    rc = main(["diff-run", ".", ".", "--system", "miniraft", "--static-only", "--json"])
    obj = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert not obj["static"]["source_changed"]
    assert obj["static"]["functions"]["changed"] == []


DIFF_RUN = ["diff-run", ".", ".", "--system", "toy", "--budget", "1", "--repeats", "2",
            "--delays", "2000", "--seed", "7", "--json"]


def test_diff_run_runs_both_child_campaigns(capsys):
    """Both sides run as ``python -m repro.cli run`` children, each on its
    own tree; a fleet campaign is ``repro submit``'s, so neither child
    can be pointed at a manager."""
    assert main(DIFF_RUN) == 0
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert reports["identical"]
    assert reports["old_summary"] == reports["new_summary"]
    assert reports["old_summary"]["budget_used"] > 0
    for extra in (["--backend", "remote"], ["--manager", "http://127.0.0.1:1"]):
        with pytest.raises(SystemExit) as exc:
            main(DIFF_RUN + extra)
        assert exc.value.code == 2, extra


def test_execution_flags_resolve_to_execution_only_fields(tmp_path):
    """Backend, workers and cache flags set only execution-only
    fields, and ``run``'s config carries exactly what they resolve to."""
    import os

    from repro.cli import _config, _execution_overrides, build_parser
    from repro.config import EXECUTION_ONLY_KNOBS

    parser = build_parser()
    for flags in (
        ["--backend", "process"],
        ["--backend", "serial"],
        ["--workers", "3"],
        ["--backend", "process", "--workers", "2"],
        ["--cache-dir", str(tmp_path / "c")],
        [],
    ):
        args = parser.parse_args(["run", "toy"] + flags)
        overrides = _execution_overrides(args)
        assert set(overrides) <= set(EXECUTION_ONLY_KNOBS), flags
        config = _config(args)
        for name, value in overrides.items():
            assert getattr(config, name) == value, (flags, name)
    run = ["run", "toy"]
    assert _execution_overrides(parser.parse_args(run + ["--backend", "process"]))[
        "experiment_workers"
    ] == (os.cpu_count() or 1)


def test_diff_run_rejects_unresolvable_operand(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["diff-run", "no-such-ref-xyz", ".", "--system", "miniraft",
              "--static-only"])


# ------------------------------------------------- one declaration per flag

EXPERIMENT_ARGV = [
    "--budget", "3", "--seed", "11", "--repeats", "2", "--delays", "250,8000",
    "--fault-kinds", "all", "--schedules", "all", "--adaptive-budget",
    "--sweep", "partition=10000,30000", "--sweep", "membership_churn=1,2",
]


def test_experiment_flags_mean_the_same_on_every_subcommand():
    from repro.cli import build_parser

    parser = build_parser()
    configs = [
        _config(parser.parse_args(head + EXPERIMENT_ARGV)).result_affecting()
        for head in (
            ["run", "toy"],
            ["inject", "toy", "toy.server.is_stale:negation", "toy.balancer"],
            ["submit", "toy", "--manager", "http://127.0.0.1:1"],
            ["diff-run", ".", ".", "--system", "toy"],
        )
    ]
    assert all(c == configs[0] for c in configs)
    assert configs[0]["sweep_overrides"] == [
        ["partition", [10000.0, 30000.0]], ["membership_churn", [1.0, 2.0]],
    ]
    assert configs[0]["adaptive_budget"] is True and configs[0]["budget_per_fault"] == 3


def test_every_flag_row_names_a_config_field_and_is_spelled_once():
    import dataclasses
    from pathlib import Path

    from repro import cli
    from repro.config import EXECUTION_ONLY_KNOBS, CSnakeConfig

    fields = {f.name for f in dataclasses.fields(CSnakeConfig)}
    source = Path(cli.__file__).read_text(encoding="utf-8")
    assert len(cli._EXPERIMENT_FLAGS) == 8
    for flag, field, _parse, _kwargs in cli._EXPERIMENT_FLAGS:
        assert field in fields and field not in EXECUTION_ONLY_KNOBS, flag
        # The table row is the only place the field is named ...
        assert len(re.findall(r'"%s"' % field, source)) == 1, field
        # ... and no add_argument call spells the flag by hand.
        assert not re.search(r'add_argument\(\s*"%s"' % flag, source), flag
    assert {field for _flag, field, *_ in cli._BACKEND_FLAGS} <= set(EXECUTION_ONLY_KNOBS)


def test_diff_run_children_get_every_experiment_and_backend_flag():
    """The child ``repro run`` must build the campaign diff-run was asked
    for — backend flags included, which a hand-kept list once dropped."""
    from repro.cli import _diffrun_argv, build_parser

    parser = build_parser()
    backend = ["--backend", "process", "--workers", "2"]
    args = parser.parse_args(
        ["diff-run", ".", ".", "--system", "miniraft"] + EXPERIMENT_ARGV + backend
    )
    child_argv = _diffrun_argv(args, "/tmp/shared-cache")
    assert child_argv[:5] == ["run", "miniraft", "--json", "--cache-dir", "/tmp/shared-cache"]
    child, asked = _config(parser.parse_args(child_argv)).to_dict(), _config(args).to_dict()
    assert child.pop("cache_dir") == "/tmp/shared-cache" and asked.pop("cache_dir") is None
    assert child == asked
    assert child["experiment_backend"] == "process" and child["experiment_workers"] == 2
    # Nothing passed, nothing forwarded.
    bare = parser.parse_args(["diff-run", ".", ".", "--system", "miniraft"])
    assert _diffrun_argv(bare, "c") == ["run", "miniraft", "--json", "--cache-dir", "c"]


def test_bad_config_from_flags_is_exit_2_naming_the_field(capsys):
    assert main(["run", "toy", "--repeats", "1"]) == 2
    assert "error: repeats" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags,named",
    [
        (["--sweep", "delay=1000", "--sweep", "delay=2000"], "'delay' twice"),
        (["--delays", "5000", "--sweep", "delay=1000"], "--delays and --sweep delay"),
    ],
    ids=["sweep-twice", "delays-and-sweep"],
)
def test_one_sweep_named_twice_is_exit_2(capsys, flags, named):
    assert main(["run", "toy", "--repeats", "2", "--budget", "1"] + flags) == 2
    assert named in capsys.readouterr().err
