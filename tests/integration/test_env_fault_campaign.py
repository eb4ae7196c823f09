"""End-to-end coverage of the environment fault kinds.

RAFT-5 is the ground-truth target seeded for the new kinds: an election
livelock whose *cycle* is stitched from classic experiments but whose
detection is gated on a discovered edge from an injected partition — the
environment disturbance that actually triggers the cascade.  This module
drives that chain and trigger, and checks campaign parity under the
environment kinds.  That a ``--fault-kinds all`` campaign detects RAFT-5
alongside RAFT-1..4 is the ``miniraft/all/r5/s1234`` row of the
``detection`` golden (``tests/golden_campaigns.py``).
"""

import pytest

from repro.config import CSnakeConfig
from repro.core.beam import BeamSearch
from repro.core.driver import ExperimentDriver
from repro.core.report import match_bugs
from repro.faults import expand_kinds
from repro.pipeline import Pipeline
from repro.systems import get_system
from repro.types import DELAY, NEGATION, FaultKey

from tests.golden_campaigns import context_digest

CFG = dict(repeats=3, delay_values_ms=(250.0, 1000.0, 8000.0), seed=1234)

#: The designated experiments of RAFT-5's propagation chain.
RAFT5_CHAIN = [
    (FaultKey("ldr.reconnect.catchup", DELAY), "raft.partition"),
    (FaultKey("flw.election.timed_out", NEGATION), "raft.partition"),
]
RAFT5_TRIGGER = (FaultKey("env.link.raft0~raft1", "partition"), "raft.partition")


@pytest.fixture(scope="module")
def raft5_driver():
    driver = ExperimentDriver(
        get_system("miniraft"), CSnakeConfig(fault_kinds=expand_kinds("all"), **CFG)
    )
    for fault, test in RAFT5_CHAIN:
        driver.run_experiment(fault, test)
    return driver


def _raft5_cycles(driver):
    beam = BeamSearch(CSnakeConfig(beam_width=50_000, **CFG))
    cycles = beam.search(driver.edges.all_edges()).cycles
    bug = driver.spec.bug("RAFT-5")
    return bug, [c for c in cycles if bug.matches(c)]


def test_raft5_cycle_stitches_from_designated_experiments(raft5_driver):
    bug, matching = _raft5_cycles(raft5_driver)
    assert matching, "no cycle contains RAFT-5's core faults"


def test_raft5_detection_requires_the_partition_trigger_edge(raft5_driver):
    spec = raft5_driver.spec
    bug, cycles = _raft5_cycles(raft5_driver)
    # Classic experiments alone: the cycle exists but no partition edge
    # was discovered, so the trigger-gated bug stays undetected.
    without = match_bugs(spec, cycles, raft5_driver.edges.all_edges())
    assert "RAFT-5" not in [m.bug.bug_id for m in without if m.detected]
    # One injected partition reveals the trigger edge into the cycle.
    raft5_driver.run_experiment(*RAFT5_TRIGGER)
    with_trigger = match_bugs(spec, cycles, raft5_driver.edges.all_edges())
    assert "RAFT-5" in [m.bug.bug_id for m in with_trigger if m.detected]


def test_env_kind_campaign_parity_and_warm_cache(tmp_path):
    """Serial cold ≡ process warm under the environment fault kinds."""
    smoke = dict(
        repeats=2,
        delay_values_ms=(500.0, 8000.0),
        seed=7,
        budget_per_fault=2,
        fault_kinds=expand_kinds("all"),
        cache_dir=str(tmp_path / "cache"),
    )
    serial = Pipeline.default(
        get_system("miniraft"),
        CSnakeConfig(experiment_backend="serial", **smoke),
    ).run()
    try:
        warm = Pipeline.default(
            get_system("miniraft"),
            CSnakeConfig(experiment_backend="process", experiment_workers=2, **smoke),
        ).run()
    except (ImportError, OSError, PermissionError) as exc:
        pytest.skip("process backend unavailable: %s" % exc)
    assert serial.driver.cache.misses > 0 and serial.driver.cache.hits == 0
    assert warm.driver.cache.hits > 0 and warm.driver.cache.misses == 0
    assert context_digest(serial) == context_digest(warm)


def test_env_kind_campaign_process_backend_parity():
    """Env-fault plans (params payloads) cross the process boundary intact."""
    smoke = dict(
        repeats=2,
        delay_values_ms=(500.0, 8000.0),
        seed=7,
        budget_per_fault=2,
        fault_kinds=expand_kinds("all"),
    )
    serial = Pipeline.default(
        get_system("miniraft"), CSnakeConfig(experiment_backend="serial", **smoke)
    ).run()
    try:
        proc = Pipeline.default(
            get_system("miniraft"),
            CSnakeConfig(experiment_backend="process", experiment_workers=2, **smoke),
        ).run()
    except (ImportError, OSError, PermissionError) as exc:
        pytest.skip("process backend unavailable: %s" % exc)
    assert context_digest(serial) == context_digest(proc)

