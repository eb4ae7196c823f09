"""End-to-end coverage of compositional fault schedules.

RAFT-6 is the ground-truth target seeded for k-fault compositions: a
restart catch-up probe livelock whose *cycle* is stitched from classic
experiments on the churn workload, but whose detection is gated on a
discovered edge from an injected ``partition_during_restart`` schedule —
the only disturbance that both restarts the follower (arming probes) and
silences its probe reply (growing the window).  No single-fault
injection, even of an environment kind, forms that edge; enabling
schedules leaves every single-fault experiment's edges bit-identical.
This module checks both, the designated chain and trigger, and campaign
parity.  The campaigns themselves are rows of the ``detection`` golden
(``tests/golden_campaigns.py``): ``miniraft/all+schedules+adaptive/r5/s1234``
detects RAFT-1..6, and ``miniraft/all+schedules/r5/s1234`` — the same
campaign with the adaptive respend off, whose fixed budget never draws
the churn workload's schedule experiment — detects RAFT-1..5 only.
"""

import json

import pytest

from repro.config import CSnakeConfig
from repro.core.beam import BeamSearch
from repro.core.driver import ExperimentDriver
from repro.core.report import match_bugs
from repro.faults import expand_kinds, registered_schedules
from repro.pipeline import Pipeline
from repro.serialize import edge_to_obj
from repro.systems import get_system
from repro.types import DELAY, EXCEPTION, NEGATION, FaultKey

from tests.golden_campaigns import context_digest

CFG = dict(repeats=3, delay_values_ms=(250.0, 1000.0, 8000.0), seed=1234)

#: The designated experiments of RAFT-6's propagation chain.
RAFT6_CHAIN = [
    (FaultKey("ldr.probe.scan", DELAY), "raft.churn"),
    (FaultKey("flw.probe.rpc", EXCEPTION), "raft.churn"),
]
RAFT6_TRIGGER = (
    FaultKey("env.node.raft1", "partition_during_restart"),
    "raft.churn",
)

SMOKE = dict(repeats=2, delay_values_ms=(500.0, 8000.0), seed=7, budget_per_fault=2)


@pytest.fixture(scope="module")
def raft6_driver():
    driver = ExperimentDriver(
        get_system("miniraft"),
        CSnakeConfig(
            fault_kinds=expand_kinds("all"),
            schedules=tuple(registered_schedules()),
            **CFG,
        ),
    )
    for fault, test in RAFT6_CHAIN:
        driver.run_experiment(fault, test)
    return driver


def _raft6_cycles(driver):
    beam = BeamSearch(CSnakeConfig(beam_width=50_000, **CFG))
    cycles = beam.search(driver.edges.all_edges()).cycles
    bug = driver.spec.bug("RAFT-6")
    return bug, [c for c in cycles if bug.matches(c)]


def test_raft6_cycle_stitches_from_designated_experiments(raft6_driver):
    bug, matching = _raft6_cycles(raft6_driver)
    assert matching, "no cycle contains RAFT-6's core faults"
    assert bug.signature == "1D|1E|0N"
    assert any(c.signature() == bug.signature for c in matching)


def test_raft6_detection_requires_the_schedule_trigger_edge(raft6_driver):
    spec = raft6_driver.spec
    bug, cycles = _raft6_cycles(raft6_driver)
    # Classic + single-environment experiments alone: the cycle exists
    # but no composed-schedule edge was discovered, so the trigger-gated
    # bug stays undetected — a single crash does not silence the probe
    # reply, and a single partition does not arm restart probes.
    without = match_bugs(spec, cycles, raft6_driver.edges.all_edges())
    assert "RAFT-6" not in [m.bug.bug_id for m in without if m.detected]
    # One injected partition-during-restart schedule reveals the trigger
    # edge into the cycle.
    raft6_driver.run_experiment(*RAFT6_TRIGGER)
    with_trigger = match_bugs(spec, cycles, raft6_driver.edges.all_edges())
    assert "RAFT-6" in [m.bug.bug_id for m in with_trigger if m.detected]


def test_single_env_faults_do_not_form_the_trigger_edge():
    """No single-fault injection — crash, partition, or drop — reaches
    RAFT-6's cycle: the trigger needs the composition."""
    driver = ExperimentDriver(
        get_system("miniraft"), CSnakeConfig(fault_kinds=expand_kinds("all"), **CFG)
    )
    for fault, test in RAFT6_CHAIN:
        driver.run_experiment(fault, test)
    for site in ("env.node.raft1", "env.link.raft0~raft1"):
        kind = "node_crash" if "node" in site else "partition"
        driver.run_experiment(FaultKey(site, kind), "raft.churn")
    bug, cycles = _raft6_cycles(driver)
    matches = match_bugs(driver.spec, cycles, driver.edges.all_edges())
    assert "RAFT-6" not in [m.bug.bug_id for m in matches if m.detected]


def _scheduled_config(**overrides):
    base = dict(
        fault_kinds=expand_kinds("all"),
        schedules=tuple(registered_schedules()),
        adaptive_budget=True,
        **SMOKE,
    )
    base.update(overrides)
    return CSnakeConfig(**base)


def test_scheduled_adaptive_campaign_parity_and_warm_cache(tmp_path):
    """Serial cold ≡ process warm with schedules enabled
    *and* adaptive budget on — the determinism-under-adaptivity rule,
    end to end, across cache temperature."""
    cache_dir = str(tmp_path / "cache")
    serial = Pipeline.default(
        get_system("miniraft"),
        _scheduled_config(experiment_backend="serial", cache_dir=cache_dir),
    ).run()
    try:
        warm = Pipeline.default(
            get_system("miniraft"),
            _scheduled_config(
                experiment_backend="process", experiment_workers=2, cache_dir=cache_dir
            ),
        ).run()
    except (ImportError, OSError, PermissionError) as exc:
        pytest.skip("process backend unavailable: %s" % exc)
    assert serial.driver.cache.misses > 0 and serial.driver.cache.hits == 0
    assert warm.driver.cache.hits > 0 and warm.driver.cache.misses == 0
    assert context_digest(serial) == context_digest(warm)


def test_schedules_leave_single_fault_results_bit_identical():
    """Enabling --schedules must not change what any *single-fault*
    experiment produces: the same (fault, test) pair yields byte-identical
    edges with and without schedules in the config.  (Campaign-level
    allocations differ, since schedules add faults to the space — the
    invariant lives at the experiment level.)"""
    pairs = [
        (FaultKey("ldr.reconnect.catchup", DELAY), "raft.partition"),
        (FaultKey("flw.election.timed_out", NEGATION), "raft.partition"),
        (FaultKey("env.link.raft0~raft1", "partition"), "raft.partition"),
        (FaultKey("env.node.raft1", "node_crash"), "raft.churn"),
    ] + RAFT6_CHAIN

    def edges_with(config):
        driver = ExperimentDriver(get_system("miniraft"), config)
        for fault, test in pairs:
            driver.run_experiment(fault, test)
        return [
            json.dumps(edge_to_obj(e), sort_keys=True)
            for e in driver.edges.all_edges()
        ]

    plain = edges_with(
        CSnakeConfig(fault_kinds=expand_kinds("all"), **CFG)
    )
    scheduled = edges_with(
        CSnakeConfig(
            fault_kinds=expand_kinds("all"),
            schedules=tuple(registered_schedules()),
            adaptive_budget=True,
            **CFG,
        )
    )
    assert plain == scheduled and plain

