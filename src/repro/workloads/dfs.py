"""Integration-test workloads for MiniDFS."""

from __future__ import annotations

from typing import List

from ..instrument.runtime import Runtime
from ..sim import SimEnv
from ..systems.base import WorkloadSpec
from ..systems.minidfs.nodes import DfsClient, DfsConfig, DfsNode


def build_cluster(env: SimEnv, rt: Runtime, cfg: DfsConfig) -> List[DfsNode]:
    """Deterministic bootstrap: ``nn0`` is master, datanodes ``dn0..dnN``
    are registered standbys; the preload blocks are placed round-robin at
    the configured replication factor and the namespace already knows
    every placement (no registration storm at t=0)."""
    nn0 = DfsNode(env, rt, cfg, "nn0", 0)
    dns = [DfsNode(env, rt, cfg, "dn%d" % i, i + 1) for i in range(cfg.n_datanodes)]
    nodes = [nn0] + dns
    for node in nodes:
        node.peers = [p for p in nodes if p is not node]
    for block in range(cfg.preload_blocks):
        for r in range(cfg.replication_factor):
            dn = dns[(block + r) % len(dns)]
            dn.replicas.add(block)
            nn0.block_map.setdefault(block, set()).add(dn.name)
    for dn in dns:
        dn.registered = True
        nn0.last_dn_heartbeat[dn.name] = 0.0
    return nodes


def wl_write(env: SimEnv, rt: Runtime) -> None:
    """Steady ingest: two clients allocating and writing blocks through a
    healthy master (baseline coverage of the allocate + pipeline path)."""
    cfg = DfsConfig()
    nodes = build_cluster(env, rt, cfg)
    for i in range(2):
        DfsClient(env, rt, nodes, i, writes_per_tick=3, reads_per_tick=0,
                  interval_ms=3_000.0)


def wl_read(env: SimEnv, rt: Runtime) -> None:
    """Read-mostly serving: one light writer, two read-heavy clients
    (baseline coverage of the replica read path)."""
    cfg = DfsConfig()
    nodes = build_cluster(env, rt, cfg)
    DfsClient(env, rt, nodes, 0, writes_per_tick=1, reads_per_tick=1,
              interval_ms=4_000.0)
    for i in range(1, 3):
        DfsClient(env, rt, nodes, i, writes_per_tick=1, reads_per_tick=4,
                  interval_ms=3_000.0)


def wl_hb_storm(env: SimEnv, rt: Runtime) -> None:
    """Re-register-on-failure configuration test: a tight heartbeat RPC
    timeout against a master with expensive report processing, and a lost
    heartbeat ack answered by a full re-registration (block report
    included) — the HDFS ``offerService`` recovery reflex."""
    cfg = DfsConfig(reregister_on_failure=True, hb_rpc_timeout_ms=6_000.0,
                    preload_blocks=42, report_entry_cost_ms=2.0)
    nodes = build_cluster(env, rt, cfg)
    DfsClient(env, rt, nodes, 0, writes_per_tick=2, reads_per_tick=1,
              interval_ms=3_000.0)


def wl_replicate(env: SimEnv, rt: Runtime) -> None:
    """Re-replication drill: datanode loss recovery enabled, with a
    scripted crash of ``dn2`` (never restarted) — every profile run
    exercises the liveness-timeout and re-replication transfer path
    end-to-end, with every transfer succeeding."""
    cfg = DfsConfig(rerepl_enabled=True)
    nodes = build_cluster(env, rt, cfg)
    env.schedule_at(30_000.0, None, nodes[3].crash)
    DfsClient(env, rt, nodes, 0, writes_per_tick=1, reads_per_tick=0,
              interval_ms=5_000.0)


def wl_failover(env: SimEnv, rt: Runtime) -> None:
    """Standby-failover drill: automatic priority promotion enabled, with
    a scripted admin handover to ``dn0`` at t=30s — every profile run
    exercises the report-pull and namespace-rebuild path without tripping
    the master-liveness detector."""
    cfg = DfsConfig(auto_failover=True, pipe_rpc_timeout_ms=4_000.0)
    nodes = build_cluster(env, rt, cfg)
    env.schedule_at(30_000.0, nodes[1], nodes[1].become_master)
    DfsClient(env, rt, nodes, 0, writes_per_tick=1, reads_per_tick=1,
              interval_ms=4_000.0)


def wl_churn(env: SimEnv, rt: Runtime) -> None:
    """Membership-churn drill: re-replication with rescan-on-failure and
    explicit transfer acks enabled, plus a scripted crash/restart of
    ``dn1`` timed so the drill's transfers all complete before the
    restart — profile runs exercise the scan, transfer, ack-flush, and
    post-restart re-registration paths with no transfer ever failing.
    The batched ack flush cadence naturally outlives the tight ack
    timeout for a fraction of the transfers, so a few overdue-ack
    retries fire (and succeed) in every fault-free run."""
    cfg = DfsConfig(rerepl_enabled=True, rescan_on_failure=True,
                    rerepl_ack_required=True)
    nodes = build_cluster(env, rt, cfg)
    env.schedule_at(30_000.0, None, nodes[2].crash)
    env.schedule_at(80_000.0, None, nodes[2].restart)
    # One reader alongside the writer: the churn drill is the suite's
    # highest-coverage test, so phase-one allocation anchors every
    # environment disturbance here — where the re-replication machinery
    # can actually respond to it.
    DfsClient(env, rt, nodes, 0, writes_per_tick=1, reads_per_tick=1,
              interval_ms=6_000.0)


def wl_idle(env: SimEnv, rt: Runtime) -> None:
    """Smoke test: light mixed traffic through a healthy cluster."""
    cfg = DfsConfig()
    nodes = build_cluster(env, rt, cfg)
    DfsClient(env, rt, nodes, 0, writes_per_tick=1, reads_per_tick=1,
              interval_ms=8_000.0)


def dfs_workloads() -> List[WorkloadSpec]:
    return [
        WorkloadSpec("dfs.write", wl_write),
        WorkloadSpec("dfs.read", wl_read),
        WorkloadSpec("dfs.hb_storm", wl_hb_storm),
        WorkloadSpec("dfs.replicate", wl_replicate),
        WorkloadSpec("dfs.failover", wl_failover),
        WorkloadSpec("dfs.churn", wl_churn),
        WorkloadSpec("dfs.idle", wl_idle, duration_ms=60_000.0),
    ]
