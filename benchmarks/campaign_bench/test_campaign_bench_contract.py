"""Contract test of the campaign benchmark (collected by the tier-1 command).

Runs the runner at ``--smoke`` scale (toy system, a second of reps,
traced) and holds what it emits against what ``BENCHMARK.json``
declares, so neither can drift from the other.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUNNER = HERE / "run.py"
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def declared_units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in DECLARED[section]}


@pytest.fixture()
def runner(monkeypatch):
    """The runner as a module, with this process's environment restored after."""
    monkeypatch.syspath_prepend(str(HERE))
    monkeypatch.setenv("PYTHONPATH", "")
    import run

    return run


def test_benchmark_json_is_within_the_contract():
    assert set(DECLARED) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert DECLARED["paths"] == ["benchmarks/campaign_bench"]
    assert 2 <= len(DECLARED["workloads"]) <= 8
    assert 1 <= len(DECLARED["end_to_end"]) <= 16
    assert 1 <= len(DECLARED["per_layer"]) <= 128
    assert 1 <= DECLARED["run_seconds"] <= 60
    names = [e["name"] for s in ("workloads", "end_to_end", "per_layer") for e in DECLARED[s]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for workload in DECLARED["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in DECLARED["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in DECLARED["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in DECLARED["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


def test_runner_declares_the_same_workloads_and_units(runner):
    import workloads

    assert [w["name"] for w in DECLARED["workloads"]] == [w.name for w in workloads.WORKLOADS]
    assert declared_units("end_to_end") == runner.END_TO_END_UNITS
    assert declared_units("per_layer") == runner.PER_LAYER_UNITS


def test_smoke_run_emits_exactly_the_declared_layer_metrics(tmp_path):
    out = tmp_path / "smoke.json"
    proc = subprocess.run(
        [sys.executable, str(RUNNER), "--smoke", "--workload", "hdfs2_cold", "--seconds", "1",
         "--trace", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=120, cwd=str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared_units("per_layer")
    assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())
    # Every metric is also printed by name with its unit.
    for name, unit in {**declared_units("end_to_end"), **declared_units("per_layer")}.items():
        assert re.search(r"^hdfs2_cold\s+%s\s+\S+ %s" % (re.escape(name), re.escape(unit)),
                         proc.stdout, re.M), name
    result = json.loads(out.read_text(encoding="utf-8"))
    assert {k: v["unit"] for k, v in result["end_to_end"].items()} == declared_units("end_to_end")
    assert result["missing_spans"] == [] and result["claim"] is None
    assert result["checks"] == {"bugs_detected_frac": 1.0, "parity_ok": 1.0}
    for key in ("pid", "nproc", "platform", "python", "loadavg"):
        assert key in result["host"]
    assert result["seed"] == 0 and result["reps"]["traced"] >= 1 and result["samples"]
    assert not (HERE / ".tmp").exists()


def test_without_a_name_every_workload_runs_in_a_process_of_its_own(runner, monkeypatch, tmp_path):
    """``ru_maxrss`` is a lifetime maximum: in a shared process the second
    workload would report the first one's memory peak."""
    monkeypatch.setattr(runner, "WORKLOADS", runner.WORKLOADS[1:3])
    out = tmp_path / "two.jsonl"
    assert runner.main(["--smoke", "--seconds", "0.2", "--out", str(out)]) == 0
    results = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    assert [r["workload"] for r in results] == ["hdfs2_warm", "dfs_env_serial"]
    pids = {r["host"]["pid"] for r in results}
    assert len(pids) == 2 and os.getpid() not in pids
    assert all(r["correct"] and r["end_to_end"]["peak_rss_mb"]["value"] > 0 for r in results)


def test_renamed_span_target_reads_null_and_leaves_end_to_end_alone(runner, monkeypatch, tmp_path):
    targets = tuple(
        ("repro.sim:SimEnv.no_such_method", name, probe) if name == "sim.run"
        else (target, name, probe)
        for target, name, probe in runner.SPAN_TARGETS
    )
    monkeypatch.setattr(runner, "SPAN_TARGETS", targets)
    out = tmp_path / "broken.json"
    assert runner.main(["--smoke", "--workload", "dfs_env_serial", "--seconds", "0.5",
                        "--trace", "1", "--out", str(out)]) == 0
    result = json.loads(out.read_text(encoding="utf-8"))
    assert result["missing_spans"] == ["sim.run"]
    layers = result["per_layer"]
    assert set(layers) == set(declared_units("per_layer"))
    for name in ("sim.run_s", "sim.runs", "sim.events", "sim.us_per_event"):
        assert layers[name]["value"] is None, name
    assert layers["trace.missing_spans"]["value"] == 1
    assert layers["allocation.run_s"]["value"] > 0
    assert result["correct"] is True
    untraced = json.loads(runner.contract_line({**result, "trace": 0}))
    assert {k: v["unit"] for k, v in untraced["metrics"].items()} == declared_units("end_to_end")
    assert all(v["value"] > 0 for v in untraced["metrics"].values())


def test_tracer_wrap_of_a_missing_attribute_fails_softly(runner):
    import tracing

    tracer = tracing.Tracer()
    assert tracer.wrap("repro.sim:SimEnv.no_such_method", "sim.run") is False
    assert tracer.wrap("repro.no_such_module:thing", "gone") is False
    assert tracer.missing == ["sim.run", "gone"]
    assert tracer.wrap("json:dumps", "json.dumps") is True
    try:
        assert json.dumps([1]) == "[1]"
        assert [s[0] for s in tracer.spans] == ["json.dumps"]
    finally:
        tracer.unwrap_all()
    json.dumps([2])
    assert len(tracer.spans) == 1


def test_calibration_samples_on_a_timer_and_restores_the_alarm_handler(runner):
    import signal
    import time

    import calibration

    before = signal.getsignal(signal.SIGALRM)
    with calibration.HostCalibration(period=0.005) as calib:
        mark = calib.mark()
        deadline = time.perf_counter() + 0.1
        while time.perf_counter() < deadline:
            pass
        timed = calib.mark() - mark
        assert calib.factor(mark) > 0
        assert calib.factor(calib.mark()) > 0  # an empty interval is topped up
    assert timed >= 3
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_runner_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "campaign_bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".tmp"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/campaign_bench/run.py", "--workload", "hdfs2_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=str(tmp_path),
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
