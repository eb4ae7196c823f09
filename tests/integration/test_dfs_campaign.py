"""End-to-end detection coverage of the four seeded MiniDFS bugs.

Each bug's cycle is stitched from classic (code-level) experiments, but
detection is gated on a discovered edge from a *different* disturbance
class per bug: DFS-1 needs a node crash, DFS-2 a link partition, DFS-4
datagram loss (``msg_drop``), and DFS-3 the composed
``membership_churn`` schedule — a rolling crash/restart wave no
single-fault campaign can produce.  The campaign matrix therefore
separates the fault models sharply: classic-only detects nothing,
``--fault-kinds all`` detects DFS-1, DFS-2, and DFS-4, and only a
``--schedules`` campaign detects all four.
"""

import pytest

from repro.config import CSnakeConfig
from repro.core.beam import BeamSearch
from repro.core.driver import ExperimentDriver
from repro.core.report import match_bugs
from repro.faults import expand_kinds, registered_schedules
from repro.pipeline import Pipeline
from repro.systems import get_system
from repro.types import DELAY, EXCEPTION, NEGATION, FaultKey

from tests.golden_campaigns import context_digest

SMOKE = dict(repeats=2, delay_values_ms=(500.0, 8000.0), seed=7, budget_per_fault=2)

#: Designated experiments of each bug's propagation chain, plus the
#: trigger experiment whose discovered edge gates detection.
CHAINS = {
    "DFS-1": (
        [
            (FaultKey("nn.report.blocks", DELAY), "dfs.hb_storm"),
            (FaultKey("dn.hb.rpc", EXCEPTION), "dfs.hb_storm"),
        ],
        (FaultKey("env.node.nn0", "node_crash"), "dfs.hb_storm"),
    ),
    "DFS-2": (
        [
            (FaultKey("fo.rebuild.entries", DELAY), "dfs.failover"),
            (FaultKey("dn.master.is_down", NEGATION), "dfs.failover"),
        ],
        (FaultKey("env.link.dn1~nn0", "partition"), "dfs.failover"),
    ),
    "DFS-3": (
        [
            (FaultKey("dn.pipe.recv", DELAY), "dfs.churn"),
            (FaultKey("nn.rerepl.rpc", EXCEPTION), "dfs.churn"),
        ],
        (FaultKey("env.node.dn0", "membership_churn"), "dfs.churn"),
    ),
    "DFS-4": (
        [
            (FaultKey("dn.ack.build", DELAY), "dfs.churn"),
            (FaultKey("nn.retry.rpc", EXCEPTION), "dfs.churn"),
        ],
        (FaultKey("env.link.dn0~nn0", "msg_drop"), "dfs.churn"),
    ),
}


def _smoke_driver():
    return ExperimentDriver(
        get_system("minidfs"),
        CSnakeConfig(
            fault_kinds=expand_kinds("all"),
            schedules=tuple(registered_schedules()),
            **SMOKE,
        ),
    )


def _matching_cycles(driver, bug_id):
    beam = BeamSearch(CSnakeConfig(beam_width=50_000, **SMOKE))
    cycles = beam.search(driver.edges.all_edges()).cycles
    bug = driver.spec.bug(bug_id)
    return [c for c in cycles if bug.matches(c)]


@pytest.mark.parametrize("bug_id", sorted(CHAINS))
def test_designated_chain_stitches_cycle_and_trigger_gates_detection(bug_id):
    chain, trigger = CHAINS[bug_id]
    driver = _smoke_driver()
    for fault, test in chain:
        driver.run_experiment(fault, test)
    cycles = _matching_cycles(driver, bug_id)
    assert cycles, "no cycle contains %s's core faults" % bug_id
    bug = driver.spec.bug(bug_id)
    assert any(c.signature() == bug.signature for c in cycles)
    # Classic experiments alone: the cycle exists but no environment edge
    # was discovered, so the trigger-gated bug stays undetected.
    without = match_bugs(driver.spec, cycles, driver.edges.all_edges())
    assert bug_id not in [m.bug.bug_id for m in without if m.detected]
    # The designated disturbance reveals the trigger edge into the cycle.
    driver.run_experiment(*trigger)
    with_trigger = match_bugs(driver.spec, cycles, driver.edges.all_edges())
    assert bug_id in [m.bug.bug_id for m in with_trigger if m.detected]


def test_full_campaign_with_schedules_detects_all_four():
    """The acceptance campaign: default budget and sweeps, all fault
    kinds plus composed schedules, adaptive reallocation on."""
    cfg = CSnakeConfig(
        fault_kinds=expand_kinds("all"),
        schedules=tuple(registered_schedules()),
        adaptive_budget=True,
        seed=7,
    )
    report = Pipeline.default(get_system("minidfs"), cfg).run().get("report")
    assert report.detected_bugs == ["DFS-1", "DFS-2", "DFS-3", "DFS-4"]


def test_classic_campaign_detects_none():
    """Every seeded bug is environment-gated: the paper's classic
    three-kind campaign must come back clean on minidfs."""
    report = (
        Pipeline.default(get_system("minidfs"), CSnakeConfig(seed=7))
        .run()
        .get("report")
    )
    assert report.detected_bugs == []


def test_env_campaign_without_schedules_misses_dfs3():
    """Single environment faults detect the crash-, partition-, and
    drop-gated bugs but never the churn-gated one: DFS-3's trigger edge
    needs the rolling crash/restart wave only the composed schedule
    produces."""
    cfg = CSnakeConfig(
        fault_kinds=expand_kinds("all"), adaptive_budget=True, seed=7
    )
    report = Pipeline.default(get_system("minidfs"), cfg).run().get("report")
    assert "DFS-3" not in report.detected_bugs
    assert "DFS-1" in report.detected_bugs
    assert "DFS-2" in report.detected_bugs
    assert "DFS-4" in report.detected_bugs


def _scheduled_config(**overrides):
    base = dict(
        fault_kinds=expand_kinds("all"),
        schedules=tuple(registered_schedules()),
        adaptive_budget=True,
        **SMOKE,
    )
    base.update(overrides)
    return CSnakeConfig(**base)


def test_campaign_parity_across_backends_and_cache_temperature(tmp_path):
    """Serial cold ≡ process warm on the minidfs campaign
    with schedules and adaptive budget on — determinism-under-adaptivity
    must hold for the new system exactly as for the existing targets."""
    cache_dir = str(tmp_path / "cache")
    serial = Pipeline.default(
        get_system("minidfs"),
        _scheduled_config(experiment_backend="serial", cache_dir=cache_dir),
    ).run()
    try:
        warm = Pipeline.default(
            get_system("minidfs"),
            _scheduled_config(
                experiment_backend="process", experiment_workers=2, cache_dir=cache_dir
            ),
        ).run()
    except (ImportError, OSError, PermissionError) as exc:
        pytest.skip("process backend unavailable: %s" % exc)
    assert serial.driver.cache.misses > 0 and serial.driver.cache.hits == 0
    assert warm.driver.cache.hits > 0 and warm.driver.cache.misses == 0
    assert context_digest(serial) == context_digest(warm)
