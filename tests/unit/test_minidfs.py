"""Unit tests for the MiniDFS replicated-filesystem target."""

import pytest

from repro.config import CSnakeConfig
from repro.core.driver import ExperimentDriver, seed_for, run_workload
from repro.instrument.analyzer import analyze
from repro.pipeline import Pipeline
from repro.systems import get_system
from repro.systems.minidfs.nodes import DfsConfig
from repro.types import DELAY, EXCEPTION, NEGATION, FaultKey

#: Reduced configuration used by every campaign-shaped test here: the
#: same knobs the designated-experiment probes and CI smoke use.
SMOKE = dict(repeats=2, delay_values_ms=(500.0, 8000.0), seed=7, budget_per_fault=2)


@pytest.fixture(scope="module")
def spec():
    return get_system("minidfs")


def test_registry_and_ground_truth(spec):
    assert len(spec.registry) == 45  # 35 code sites + 4 node + 6 link env sites
    assert len(spec.registry.env_sites()) == 10
    assert len(spec.workloads) == 7
    assert [b.bug_id for b in spec.known_bugs] == [
        "DFS-1", "DFS-2", "DFS-3", "DFS-4",
    ]
    for bug in spec.known_bugs:
        for fault in bug.core_faults | bug.trigger_faults:
            assert fault.site_id in spec.registry, bug.bug_id
    # Each bug is gated on a *different* disturbance class: a single node
    # crash, a link partition, a rolling crash/restart schedule, and
    # datagram loss.
    gates = {
        "DFS-1": "node_crash",
        "DFS-2": "partition",
        "DFS-3": "membership_churn",
        "DFS-4": "msg_drop",
    }
    for bug_id, kind in gates.items():
        bug = spec.bug(bug_id)
        assert bug.trigger_faults, bug_id
        assert all(f.kind == kind for f in bug.trigger_faults), bug_id


def test_fault_space_excludes_filtered_sites(spec):
    result = analyze(spec.registry)
    selected = {f.site_id for f in result.faults}
    assert "nn.metrics.flush" not in selected  # constant bound
    assert "dn.conf.is_cached" not in selected  # final-only detector
    assert "dfs.sec.acl_check" not in selected  # security-related
    assert "nn.fsck.scan" not in selected  # declared dead: no reachable caller
    assert "dn.ibr.build" not in selected  # bottom-decile non-IO loop body
    assert "nn.report.blocks" in selected
    assert "dn.master.is_down" in selected
    assert "nn.rerepl.rpc" in selected


def test_profiles_deterministic_and_fault_free(spec):
    """Fault-free runs are reproducible and counterfactually clean: none
    of the faults the seeded bugs' cycles are built from occur naturally."""
    bug_faults = set()
    for bug in spec.known_bugs:
        bug_faults |= set(bug.core_faults)
    for test_id in spec.workload_ids():
        wl = spec.workloads[test_id]
        a = run_workload(spec, wl, None, seed_for(test_id, 0, 99))
        b = run_workload(spec, wl, None, seed_for(test_id, 0, 99))
        assert a.loop_counts == b.loop_counts, test_id
        assert not a.saturated, test_id
        assert not (a.natural_faults() & bug_faults), test_id


def test_scripted_drills_have_expected_natural_faults(spec):
    """The crash/handover drills produce exactly the environment-churn
    naturals they are scripted to produce — and nothing else.  A new
    natural fault in a drill profile means the drill's timing drifted."""
    expected = {
        "dfs.write": set(),
        "dfs.read": set(),
        "dfs.hb_storm": set(),
        "dfs.idle": set(),
        # dn2 stays crashed: pipeline writes into it fail until the
        # re-replication drill restores the factor.
        "dfs.replicate": {
            FaultKey("cli.data.rpc", EXCEPTION),
            FaultKey("dn.pipe.rpc", EXCEPTION),
            FaultKey("nn.block.is_under", NEGATION),
            FaultKey("nn.dn.is_dead", NEGATION),
        },
        # The handover demotes nn0: in-flight registrations and writes
        # against the old master are refused, and the demoted master's
        # stale liveness view expires its heartbeat table.
        "dfs.failover": {
            FaultKey("dn.reg.rpc", EXCEPTION),
            FaultKey("nn.write.not_master", EXCEPTION),
            FaultKey("nn.dn.is_dead", NEGATION),
        },
        # dn1's crash window: pipeline writes into it fail until restart,
        # and the liveness scan queues its blocks for re-replication.
        "dfs.churn": {
            FaultKey("cli.data.rpc", EXCEPTION),
            FaultKey("dn.pipe.rpc", EXCEPTION),
            FaultKey("nn.block.is_under", NEGATION),
            FaultKey("nn.dn.is_dead", NEGATION),
        },
    }
    always = {FaultKey("dn.conf.is_cached", NEGATION)}
    for test_id, want in expected.items():
        wl = spec.workloads[test_id]
        trace = run_workload(spec, wl, None, seed_for(test_id, 0, 7))
        assert trace.natural_faults() - always == want, test_id


def test_bug_core_faults_reachable_somewhere(spec):
    reached = set()
    for test_id in spec.workload_ids():
        wl = spec.workloads[test_id]
        reached |= run_workload(spec, wl, None, seed_for(test_id, 0, 7)).reached
    for bug in spec.known_bugs:
        for fault in bug.core_faults:
            assert fault.site_id in reached, (bug.bug_id, fault.site_id)


def test_failover_priority_order():
    """best_candidate is the lowest-priority live datanode, regardless of
    the order the peer list happens to be in."""
    from repro.instrument.runtime import Runtime
    from repro.instrument.trace import RunTrace
    from repro.sim import SimEnv
    from repro.workloads.dfs import build_cluster

    spec = get_system("minidfs")
    trace = RunTrace(test_id="dfs.idle")
    rt = Runtime(spec.registry, trace=trace)
    env = SimEnv(seed=3)
    env.runtime = rt
    rt.bind_env(env)
    nodes = build_cluster(env, rt, DfsConfig(auto_failover=True))
    nn0, dn0, dn1, dn2 = nodes
    assert dn1.best_candidate(["dn2", "dn0", "dn1"]) == "dn0"
    # A datanode is always its own candidate of last resort ...
    assert dn1.best_candidate(["dn2", "dn1"]) == "dn1"
    assert dn1.best_candidate([]) == "dn1"
    # ... while a pure namenode ranks only live datanodes.
    assert nn0.best_candidate(["dn1", "dn2"]) == "dn1"
    assert nn0.best_candidate([]) is None
    # The handover path: promotion rebuilds the namespace from the pulled
    # block reports and demotes the old master.
    env.schedule_at(1_000.0, dn0, dn0.become_master)
    env.run(3_000.0)
    assert dn0.is_master and not nn0.is_master
    assert dn0.elections_started == 1
    assert dn0.block_map, "promoted master rebuilt an empty namespace"
    assert dn1.master_name == "dn0" and dn2.master_name == "dn0"


def test_reregistration_retry_backoff():
    """A datanode that cannot reach the master retries registration with
    doubling backoff, capped, and resets the backoff once registered."""
    from repro.instrument.runtime import Runtime
    from repro.instrument.trace import RunTrace
    from repro.sim import SimEnv
    from repro.workloads.dfs import build_cluster

    spec = get_system("minidfs")
    trace = RunTrace(test_id="dfs.idle")
    rt = Runtime(spec.registry, trace=trace)
    env = SimEnv(seed=3)
    env.runtime = rt
    rt.bind_env(env)
    # auto_failover off: with the master down long enough, dn0 would
    # otherwise promote itself and stop retrying registration.
    cfg = DfsConfig(register_backoff_ms=2_000.0, register_backoff_cap_ms=16_000.0,
                    auto_failover=False)
    nodes = build_cluster(env, rt, cfg)
    nn0, dn0 = nodes[0], nodes[1]
    nn0.crash()
    dn0.registered = False  # build_cluster pre-registers the datanodes
    assert dn0.register_backoff_ms == 2_000.0
    env.schedule_at(1_000.0, dn0, dn0.register_with_master)
    # Each failed attempt schedules the next retry at the current backoff,
    # then doubles it (heartbeat-timeout busy time stretches the wall-clock
    # spacing, never the doubling).
    env.run(2_000.0)
    assert dn0.register_backoff_ms == 4_000.0
    env.run(120_000.0)  # retries double to the ceiling while nn0 stays down
    assert dn0.register_backoff_ms == 16_000.0
    assert not dn0.registered
    nn0.restart()
    env.run(240_000.0)  # the next retry reaches the restarted master
    assert dn0.registered
    assert dn0.register_backoff_ms == 2_000.0


def test_restart_resets_datanode_registration():
    """A restarted datanode must re-register (registered=False) and a
    restarted master comes back with an empty namespace."""
    from repro.instrument.runtime import Runtime
    from repro.instrument.trace import RunTrace
    from repro.sim import SimEnv
    from repro.workloads.dfs import build_cluster

    spec = get_system("minidfs")
    trace = RunTrace(test_id="dfs.idle")
    rt = Runtime(spec.registry, trace=trace)
    env = SimEnv(seed=3)
    env.runtime = rt
    rt.bind_env(env)
    nodes = build_cluster(env, rt, DfsConfig())
    nn0, dn0 = nodes[0], nodes[1]
    assert dn0.registered and nn0.block_map
    dn0.crash()
    dn0.restart()
    assert not dn0.registered
    nn0.crash()
    nn0.restart()
    assert not nn0.block_map and not nn0.last_dn_heartbeat


@pytest.mark.parametrize(
    "fault,test_id,expected",
    [
        # DFS-1: slow block-report processing on the master -> heartbeat
        # RPC timeouts on the datanodes.
        (FaultKey("nn.report.blocks", DELAY), "dfs.hb_storm",
         FaultKey("dn.hb.rpc", EXCEPTION)),
        # DFS-1: a lost heartbeat ack -> full re-registration -> block
        # report processing growth on the master.
        (FaultKey("dn.hb.rpc", EXCEPTION), "dfs.hb_storm",
         FaultKey("nn.report.blocks", DELAY)),
        # DFS-2: a slow namespace rebuild keeps the new master too busy to
        # ack heartbeats -> the standby master-liveness detector trips.
        (FaultKey("fo.rebuild.entries", DELAY), "dfs.failover",
         FaultKey("dn.master.is_down", NEGATION)),
        # DFS-2: a tripped liveness detector -> promotion -> namespace
        # rebuild growth.
        (FaultKey("dn.master.is_down", NEGATION), "dfs.failover",
         FaultKey("fo.rebuild.entries", DELAY)),
        # DFS-2 trigger: a partition of a master-adjacent link starves a
        # standby of acked heartbeats past the liveness timeout.
        (FaultKey("env.link.dn1~nn0", "partition"), "dfs.failover",
         FaultKey("dn.master.is_down", NEGATION)),
        # DFS-3: slow re-replication receives -> transfer RPC timeouts.
        (FaultKey("dn.pipe.recv", DELAY), "dfs.churn",
         FaultKey("nn.rerepl.rpc", EXCEPTION)),
        # DFS-3: a failed transfer -> rescan-on-failure grows the pending
        # set -> more transfers into the surviving datanodes.
        (FaultKey("nn.rerepl.rpc", EXCEPTION), "dfs.churn",
         FaultKey("dn.pipe.recv", DELAY)),
        # DFS-4: slow ack building keeps the flush behind the ack timeout
        # -> overdue-ack retry RPCs time out against the busy datanode.
        (FaultKey("dn.ack.build", DELAY), "dfs.churn",
         FaultKey("nn.retry.rpc", EXCEPTION)),
        # DFS-4: a failed retry -> the ack channel is distrusted for a
        # window -> every scan retries every inflight transfer -> the
        # duplicate receives grow the ack-flush work.
        (FaultKey("nn.retry.rpc", EXCEPTION), "dfs.churn",
         FaultKey("dn.ack.build", DELAY)),
        # DFS-4 trigger: datagram loss on a master-adjacent link eats ack
        # datagrams (never RPCs) -> sustained overdue-ack retry traffic.
        (FaultKey("env.link.dn0~nn0", "msg_drop"), "dfs.churn",
         FaultKey("dn.ack.build", DELAY)),
    ],
)
def test_seeded_feedback_paths_fire(spec, fault, test_id, expected):
    driver = ExperimentDriver(spec, CSnakeConfig(**SMOKE))
    result = driver.run_experiment(fault, test_id)
    assert expected in result.interference


def test_smoke_campaign_detects_nothing_without_env_faults(spec):
    """Every seeded minidfs bug is gated on an environment disturbance, so
    the classic three-kind campaign must come back empty — at smoke scale
    here, and at the default config in the ``detection`` golden's
    ``minidfs/classic/r5/s7`` row."""
    ctx = Pipeline.default(spec, CSnakeConfig(**SMOKE)).run()
    report = ctx.get("report")
    assert report.detected_bugs == []
