"""Unit tests for the MiniRaft consensus target."""

import pytest

from repro.config import CSnakeConfig
from repro.core.driver import ExperimentDriver, seed_for, run_workload
from repro.instrument.analyzer import analyze
from repro.pipeline import Pipeline
from repro.systems import get_system
from repro.types import DELAY, EXCEPTION, NEGATION, FaultKey

#: Reduced configuration used by every campaign-shaped test here (and by
#: CI's warm-cache smoke): seconds, not minutes.
SMOKE = dict(repeats=2, delay_values_ms=(500.0, 8000.0), seed=7, budget_per_fault=2)


@pytest.fixture(scope="module")
def spec():
    return get_system("miniraft")


def test_registry_and_ground_truth(spec):
    assert len(spec.registry) == 36  # 30 code sites + 3 node + 3 link env sites
    assert len(spec.registry.env_sites()) == 6
    assert len(spec.workloads) == 9
    assert [b.bug_id for b in spec.known_bugs] == [
        "RAFT-1", "RAFT-2", "RAFT-3", "RAFT-4", "RAFT-5", "RAFT-6",
    ]
    for bug in spec.known_bugs:
        for fault in bug.core_faults | bug.trigger_faults:
            assert fault.site_id in spec.registry, bug.bug_id
    raft5 = spec.bug("RAFT-5")
    assert raft5.trigger_faults, "RAFT-5 is gated on environment trigger faults"
    assert all(f.kind == "partition" for f in raft5.trigger_faults)
    raft6 = spec.bug("RAFT-6")
    assert raft6.trigger_faults, "RAFT-6 is gated on a composed fault schedule"
    assert all(
        f.kind == "partition_during_restart" for f in raft6.trigger_faults
    )


def test_fault_space_excludes_filtered_sites(spec):
    result = analyze(spec.registry)
    selected = {f.site_id for f in result.faults}
    assert "ldr.metrics.flush" not in selected  # constant bound
    assert "flw.conf.is_voter" not in selected  # final-only detector
    assert "raft.sec.cert_check" not in selected  # security-related
    assert "flw.append.apply" in selected
    assert "ldr.quorum.has" in selected


def test_profiles_deterministic_and_fault_free(spec):
    """Fault-free runs are reproducible and counterfactually clean: none of
    the detector/exception faults the seeded bugs rely on occur naturally."""
    bug_faults = set()
    for bug in spec.known_bugs:
        bug_faults |= set(bug.core_faults)
    # raft.partition's scripted cut-and-heal naturally times out the
    # leader's AppendEntries to the severed follower — intentional
    # environment churn; FCA's counterfactual exclusion is per-test, and
    # RAFT-1 detection relies on raft.resend, whose profile stays clean.
    # raft.churn's scripted crash drill does the same: appends to the
    # crashed follower time out until the restart lands.
    allowed = {
        "raft.partition": {FaultKey("ldr.append.rpc", EXCEPTION)},
        "raft.churn": {FaultKey("ldr.append.rpc", EXCEPTION)},
    }
    for test_id in spec.workload_ids():
        wl = spec.workloads[test_id]
        a = run_workload(spec, wl, None, seed_for(test_id, 0, 99))
        b = run_workload(spec, wl, None, seed_for(test_id, 0, 99))
        assert a.loop_counts == b.loop_counts, test_id
        assert not a.saturated, test_id
        unexpected = (a.natural_faults() & bug_faults) - allowed.get(test_id, set())
        assert not unexpected, (test_id, unexpected)


def test_bug_core_faults_reachable_somewhere(spec):
    reached = set()
    for test_id in spec.workload_ids():
        wl = spec.workloads[test_id]
        reached |= run_workload(spec, wl, None, seed_for(test_id, 0, 7)).reached
    for bug in spec.known_bugs:
        for fault in bug.core_faults:
            assert fault.site_id in reached, (bug.bug_id, fault.site_id)


def test_scripted_handover_elects_node1(spec):
    """The elections workload's scripted hand-over reaches the vote path in
    profile runs without tripping the election-timeout detector."""
    trace = run_workload(
        spec, spec.workloads["raft.elections"], None, seed_for("raft.elections", 0, 7)
    )
    assert "cand.vote.requests" in trace.reached
    assert "cand.vote.rpc" in trace.reached
    assert FaultKey("flw.election.timed_out", NEGATION) not in trace.natural_faults()


@pytest.mark.parametrize(
    "fault,test_id,expected",
    [
        # RAFT-1: lost AppendEntries ack -> resend window -> apply growth.
        (FaultKey("ldr.append.rpc", EXCEPTION), "raft.resend",
         FaultKey("flw.append.apply", DELAY)),
        # RAFT-3: negated quorum detector -> resync storm -> apply growth.
        (FaultKey("ldr.quorum.has", NEGATION), "raft.quorum",
         FaultKey("flw.append.apply", DELAY)),
        # RAFT-4: lost InstallSnapshot ack -> transfer restarts from chunk 0.
        (FaultKey("ldr.snap.rpc", EXCEPTION), "raft.snapshot",
         FaultKey("flw.snap.chunks", DELAY)),
        # RAFT-5: delayed reconnect catch-up -> stalled heartbeats -> the
        # election-timeout detector trips.
        (FaultKey("ldr.reconnect.catchup", DELAY), "raft.partition",
         FaultKey("flw.election.timed_out", NEGATION)),
        # RAFT-5: negated election timeout -> election -> every peer treated
        # as reconnecting -> catch-up loop growth.
        (FaultKey("flw.election.timed_out", NEGATION), "raft.partition",
         FaultKey("ldr.reconnect.catchup", DELAY)),
        # RAFT-5 trigger: an injected partition (cut + heal) drives the
        # post-heal reconnect catch-up — the environment edge the bug's
        # trigger gate requires.
        (FaultKey("env.link.raft0~raft1", "partition"), "raft.partition",
         FaultKey("ldr.reconnect.catchup", DELAY)),
    ],
)
def test_seeded_feedback_paths_fire(spec, fault, test_id, expected):
    driver = ExperimentDriver(spec, CSnakeConfig(**SMOKE))
    result = driver.run_experiment(fault, test_id)
    assert expected in result.interference


def test_smoke_campaign_detects_a_seeded_bug(spec):
    ctx = Pipeline.default(spec, CSnakeConfig(**SMOKE)).run()
    report = ctx.get("report")
    assert report.detected_bugs, "no seeded miniraft bug detected"
