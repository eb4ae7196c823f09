"""Integration tests: the full CSnake pipeline on the toy system."""

import pytest

from repro.config import CSnakeConfig
from repro.pipeline import Pipeline
from repro.systems import get_system

FAST = dict(repeats=3, delay_values_ms=(500.0, 2000.0, 8000.0), seed=7)


@pytest.fixture(scope="module")
def toy_run():
    ctx = Pipeline(get_system("toy"), CSnakeConfig(**FAST)).run()
    return ctx, ctx.get("report")


def test_detects_both_toy_bugs(toy_run):
    _, report = toy_run
    assert sorted(report.detected_bugs) == ["TOY-1", "TOY-2"]


def test_toy1_requires_multi_test_stitching(toy_run):
    _, report = toy_run
    match = next(m for m in report.bug_matches if m.bug.bug_id == "TOY-1")
    assert all(len(c.tests()) > 1 for c in match.cycles), (
        "TOY-1 should only be detectable by stitching across tests"
    )


def test_budget_respected(toy_run):
    ctx, report = toy_run
    faults = len(ctx.get("analysis").faults)
    assert report.budget_used <= ctx.config.budget_per_fault * faults


def test_report_summary_consistent(toy_run):
    _, report = toy_run
    summary = report.summary()
    assert summary["cycles"] == len(report.cycles)
    assert summary["clusters"] == len(report.cycle_clusters)
    assert summary["tp_clusters"] <= summary["clusters"]
    assert sum(len(c) for c in report.cycle_clusters) == len(report.cycles)


def test_cycle_signatures_match_ground_truth(toy_run):
    _, report = toy_run
    for match in report.bug_matches:
        assert match.detected
        sigs = {c.signature() for c in match.cycles}
        assert match.bug.signature in sigs


def test_compat_check_reduces_cycles(toy_run):
    ctx, report = toy_run
    from repro.core.beam import BeamSearch

    cfg = CSnakeConfig(compat_check=False, **FAST)
    unchecked = BeamSearch(cfg, ctx.get("allocation").outcome.fault_scores).search(
        ctx.driver.edges.all_edges()
    )
    assert len(unchecked.cycles) >= len(report.cycles)
