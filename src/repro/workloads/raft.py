"""Integration-test workloads for MiniRaft."""

from __future__ import annotations

from typing import List

from ..instrument.runtime import Runtime
from ..sim import SimEnv
from ..systems.base import WorkloadSpec
from ..systems.miniraft.nodes import RaftClient, RaftConfig, RaftNode


def build_cluster(env: SimEnv, rt: Runtime, cfg: RaftConfig) -> List[RaftNode]:
    """Deterministic bootstrap: node 0 leads term 1, the rest follow."""
    nodes = [RaftNode(env, rt, cfg, i) for i in range(cfg.n_nodes)]
    for node in nodes:
        node.peers = [p for p in nodes if p is not node]
        node.log = [(1, "pre%d" % i) for i in range(cfg.preload_entries)]
        node.commit_index = cfg.preload_entries
        node.last_applied = cfg.preload_entries
    nodes[0].become_leader()
    for peer in nodes[1:]:
        nodes[0].next_index[peer.name] = cfg.preload_entries
        nodes[0].match_index[peer.name] = cfg.preload_entries
    return nodes


def wl_steady(env: SimEnv, rt: Runtime) -> None:
    """Steady replication: one client appending moderate batches through a
    healthy leader (baseline coverage of the append path)."""
    cfg = RaftConfig()
    nodes = build_cluster(env, rt, cfg)
    RaftClient(env, rt, nodes, 0, cmds_per_tick=3, interval_ms=3_000.0)


def wl_heavy_appends(env: SimEnv, rt: Runtime) -> None:
    """Append saturation: two clients with big batches against a tight
    AppendEntries timeout — apply-loop delay turns directly into leader-side
    RPC timeouts (no resend, so the failure does not feed back)."""
    cfg = RaftConfig(apply_cost_ms=2.0, append_rpc_timeout_ms=8_000.0,
                     max_batch=20, resend_on_timeout=False)
    nodes = build_cluster(env, rt, cfg)
    for i in range(2):
        RaftClient(env, rt, nodes, i, cmds_per_tick=6, interval_ms=2_000.0)


def wl_resend(env: SimEnv, rt: Runtime) -> None:
    """Resend-on-timeout configuration test: patient RPC timeouts, but a
    lost AppendEntries ack rolls next_index back a whole resend window."""
    cfg = RaftConfig(resend_on_timeout=True, resend_window=30,
                     append_rpc_timeout_ms=30_000.0)
    nodes = build_cluster(env, rt, cfg)
    RaftClient(env, rt, nodes, 0, cmds_per_tick=3, interval_ms=3_000.0)


def wl_elections(env: SimEnv, rt: Runtime) -> None:
    """Leader-failover drill: tight election timeout with every production
    fallback enabled (resend-on-timeout, quorum resync, fresh-leader and
    reconnect catch-up).  A scripted hand-over at t=5s exercises the vote
    and reconnect paths in every profile run without touching the
    election-timeout detector."""
    cfg = RaftConfig(election_timeout_ms=12_000.0, election_tick_ms=4_000.0,
                     resend_on_timeout=True, resend_window=30,
                     quorum_resync=True, resync_batch=25,
                     quorum_window_ms=30_000.0, leader_catchup=30,
                     reconnect_catchup=True, reconnect_window=25)
    nodes = build_cluster(env, rt, cfg)
    env.schedule_at(5_000.0, nodes[1], nodes[1].start_election)
    RaftClient(env, rt, nodes, 0, cmds_per_tick=2, interval_ms=3_000.0)


def wl_quorum(env: SimEnv, rt: Runtime) -> None:
    """Quorum-resync configuration test: a tight ack-freshness window with
    the resync fallback enabled; losing quorum re-sends a window to every
    follower."""
    cfg = RaftConfig(quorum_resync=True, resync_batch=25,
                     quorum_window_ms=25_000.0, append_rpc_timeout_ms=30_000.0)
    nodes = build_cluster(env, rt, cfg)
    RaftClient(env, rt, nodes, 0, cmds_per_tick=3, interval_ms=3_000.0)


def wl_partition(env: SimEnv, rt: Runtime) -> None:
    """Partition drill: reconnect catch-up enabled under a tight election
    timeout, with a scripted sub-timeout partition of the leader-raft1
    link healed 10 s later — every profile run exercises the reconnect
    catch-up path without tripping the election-timeout detector."""
    cfg = RaftConfig(reconnect_catchup=True, reconnect_window=25,
                     reconnect_silence_ms=6_000.0,
                     election_timeout_ms=20_000.0, election_tick_ms=4_000.0,
                     leader_catchup=30, append_rpc_timeout_ms=8_000.0)
    nodes = build_cluster(env, rt, cfg)
    link = (nodes[0].name, nodes[1].name)
    env.schedule_at(30_000.0, None, env.partition_names, *link)
    env.schedule_at(40_000.0, None, env.heal_names, *link)
    RaftClient(env, rt, nodes, 0, cmds_per_tick=3, interval_ms=3_000.0)


def wl_churn(env: SimEnv, rt: Runtime) -> None:
    """Membership-churn drill: restart catch-up probes enabled, with a
    scripted crash/restart of one follower — every profile run exercises
    the probe path end-to-end (the probe reaches the leader and clears)
    without any reply loss."""
    cfg = RaftConfig(restart_probe=True, probe_window=8,
                     probe_window_growth=6, probe_max_window=64,
                     probe_interval_ms=5_000.0, probe_rpc_timeout_ms=8_000.0)
    nodes = build_cluster(env, rt, cfg)
    env.schedule_at(30_000.0, None, nodes[1].crash)
    env.schedule_at(50_000.0, None, nodes[1].restart)
    RaftClient(env, rt, nodes, 0, cmds_per_tick=2, interval_ms=4_000.0)


def wl_snapshot(env: SimEnv, rt: Runtime) -> None:
    """Snapshot churn: one follower periodically loses its disk, so the
    leader repeatedly ships snapshots (with transfer retry enabled)."""
    cfg = RaftConfig(preload_entries=60, snapshot_threshold=25,
                     snapshot_chunks=10, snapshot_retry=True, max_batch=8,
                     flaky_follower=2, flaky_restart_ms=35_000.0)
    nodes = build_cluster(env, rt, cfg)
    RaftClient(env, rt, nodes, 0, cmds_per_tick=2, interval_ms=4_000.0)


def wl_idle(env: SimEnv, rt: Runtime) -> None:
    """Smoke test: light append traffic through a healthy cluster."""
    cfg = RaftConfig()
    nodes = build_cluster(env, rt, cfg)
    RaftClient(env, rt, nodes, 0, cmds_per_tick=1, interval_ms=8_000.0)


def raft_workloads() -> List[WorkloadSpec]:
    return [
        WorkloadSpec("raft.steady", wl_steady),
        WorkloadSpec("raft.heavy_appends", wl_heavy_appends),
        WorkloadSpec("raft.resend", wl_resend),
        WorkloadSpec("raft.elections", wl_elections),
        WorkloadSpec("raft.partition", wl_partition),
        WorkloadSpec("raft.quorum", wl_quorum),
        WorkloadSpec("raft.churn", wl_churn),
        WorkloadSpec("raft.snapshot", wl_snapshot),
        WorkloadSpec("raft.idle", wl_idle, duration_ms=60_000.0),
    ]
