"""Integration-test workloads for MiniHBase.

The HB-2 (§8.3.1) condition split:

* ``hbase.create_heavy`` — many table creations/clones, any balancer: the
  only test where deployment overload can time out assignment RPCs;
* ``hbase.rs_fault_tolerance`` — FavoredStochasticBalancer with exactly
  three RegionServers: the only test where one excluded server breaks
  ``canPlaceFavoredNodes`` (the five-server variant is the decoy);
* ``hbase.balancer_long`` — the favored balancer under a long, steady
  assignment workload: the only test long enough to observe the blind
  retries growing the deployment loop (the short tests exit first).
"""

from __future__ import annotations

from typing import List

from ..instrument.runtime import Runtime
from ..sim import SimEnv
from ..systems.base import WorkloadSpec
from ..systems.minihbase.nodes import HBaseClient, HbaseConfig, HMaster, RegionServer


def build_cluster(
    env: SimEnv, rt: Runtime, cfg: HbaseConfig, preload_regions: int = 0
) -> HMaster:
    """Stand up master + RegionServers, optionally with standing tables
    already assigned (so rebalancing has regions to move)."""
    master = HMaster(env, rt, cfg)
    servers = []
    for i in range(cfg.n_regionservers):
        servers.append(RegionServer(env, rt, master, cfg, i))
    for r in range(preload_regions):
        region = "pre/t%d/r%d" % (r // 4, r % 4)
        rs = servers[r % len(servers)]
        rs.hosted.add(region)
        master.assigned[region] = rs.name
    return master


def wl_create_heavy(env: SimEnv, rt: Runtime) -> None:
    """Schema churn test: clients create and clone tables continuously,
    stacking region assignments onto four servers."""
    cfg = HbaseConfig(n_regionservers=4, balancer="favored", favored_min=3,
                      assign_rpc_timeout_ms=10_000.0, deploy_cost_ms=4.0)
    master = build_cluster(env, rt, cfg)
    for i in range(2):
        HBaseClient(env, rt, master, i, creates_per_tick=3, regions_per_table=6,
                    interval_ms=3_000.0)


def wl_rs_fault_tolerance(env: SimEnv, rt: Runtime) -> None:
    """RegionServer fault-tolerance test: the favored balancer on a minimal
    three-server cluster, with a short assignment workload."""
    cfg = HbaseConfig(n_regionservers=3, balancer="favored", favored_min=3,
                      assign_rpc_timeout_ms=30_000.0)
    master = build_cluster(env, rt, cfg)
    HBaseClient(env, rt, master, 0, creates_per_tick=1, regions_per_table=3,
                interval_ms=5_000.0)


def wl_balancer_5rs(env: SimEnv, rt: Runtime) -> None:
    """Favored-balancer test on five servers (the §8.3.1 decoy: one
    exclusion cannot break the three-server minimum here)."""
    cfg = HbaseConfig(n_regionservers=5, balancer="favored", favored_min=3,
                      assign_rpc_timeout_ms=30_000.0)
    master = build_cluster(env, rt, cfg)
    HBaseClient(env, rt, master, 0, creates_per_tick=1, regions_per_table=3,
                interval_ms=5_000.0)


def wl_balancer_long(env: SimEnv, rt: Runtime) -> None:
    """Long balancer soak: the favored balancer with a steady stream of
    assignments, long enough to observe retry-driven load growth."""
    cfg = HbaseConfig(n_regionservers=3, balancer="favored", favored_min=3,
                      assign_rpc_timeout_ms=30_000.0)
    master = build_cluster(env, rt, cfg, preload_regions=60)
    for i in range(2):
        HBaseClient(env, rt, master, i, creates_per_tick=2, regions_per_table=4,
                    interval_ms=3_000.0)


def wl_write_heavy(env: SimEnv, rt: Runtime) -> None:
    """Write soak: heavy WAL append traffic with frequent rolls."""
    cfg = HbaseConfig(n_regionservers=3, wal_roll_interval_ms=4_000.0,
                      wal_torn_gap_ms=10_000.0)
    master = build_cluster(env, rt, cfg)
    for i in range(3):
        HBaseClient(env, rt, master, i, writes_per_tick=8, interval_ms=2_000.0)


def wl_wal_replay(env: SimEnv, rt: Runtime) -> None:
    """WAL validation test: moderate writes with aggressive roll cadence."""
    cfg = HbaseConfig(n_regionservers=3, wal_roll_interval_ms=3_000.0,
                      wal_torn_gap_ms=8_000.0, wal_repair_entries=16)
    master = build_cluster(env, rt, cfg)
    HBaseClient(env, rt, master, 0, writes_per_tick=5, interval_ms=2_500.0)


def wl_mixed(env: SimEnv, rt: Runtime) -> None:
    """Mixed admin + write workload on the default balancer."""
    cfg = HbaseConfig(n_regionservers=4)
    master = build_cluster(env, rt, cfg)
    HBaseClient(env, rt, master, 0, creates_per_tick=1, regions_per_table=2,
                writes_per_tick=3, interval_ms=4_000.0)


def wl_idle(env: SimEnv, rt: Runtime) -> None:
    """Smoke test: one client, light traffic."""
    cfg = HbaseConfig(n_regionservers=3)
    master = build_cluster(env, rt, cfg)
    HBaseClient(env, rt, master, 0, creates_per_tick=1, regions_per_table=1,
                writes_per_tick=1, interval_ms=10_000.0)


def hbase_workloads() -> List[WorkloadSpec]:
    specs = [
        WorkloadSpec("hbase.create_heavy", wl_create_heavy),
        WorkloadSpec("hbase.rs_fault_tolerance", wl_rs_fault_tolerance, duration_ms=45_000.0),
        WorkloadSpec("hbase.balancer_5rs", wl_balancer_5rs, duration_ms=45_000.0),
        WorkloadSpec("hbase.balancer_long", wl_balancer_long),
        WorkloadSpec("hbase.write_heavy", wl_write_heavy),
        WorkloadSpec("hbase.wal_replay", wl_wal_replay),
        WorkloadSpec("hbase.mixed", wl_mixed),
        WorkloadSpec("hbase.idle", wl_idle, duration_ms=60_000.0),
    ]
    return specs
