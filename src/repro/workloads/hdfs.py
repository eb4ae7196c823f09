"""Integration-test workloads for MiniHDFS 2 and MiniHDFS 3.

Each workload instantiates the cluster with a distinct configuration —
the condition combinations of §8.3.2 split across tests (IBR throttling
vs load-balancer scale, HA vs single NN, staleness handling vs patient
clusters, genstamp conflicts vs clean recovery).
"""

from __future__ import annotations

from typing import List

from ..instrument.runtime import Runtime
from ..sim import Node, SimEnv
from ..systems.base import WorkloadSpec
from ..systems.minihdfs.client import DFSClient
from ..systems.minihdfs.datanode import DataNode
from ..systems.minihdfs.hconfig import HdfsConfig
from ..systems.minihdfs.namenode import NameNode


def build_cluster(
    env: SimEnv,
    rt: Runtime,
    cfg: HdfsConfig,
    preload_blocks: int = 0,
    preload_skew: bool = False,
) -> NameNode:
    """Stand up a NameNode + DataNodes cluster, pre-registered, with an
    optional preloaded block population (each block on two DataNodes).

    ``preload_skew`` concentrates the preload on the first DataNode, for
    workloads that study hot-node behaviour.
    """
    nn = NameNode(env, rt, cfg)
    dns: List[DataNode] = []
    for i in range(cfg.n_datanodes):
        dn = DataNode(env, rt, nn, cfg, i)
        dns.append(dn)
        nn.datanodes[dn.name] = dn
        nn.commands[dn.name] = []
        nn.last_heartbeat[dn.name] = 0.0
        dn.must_register = False
    n = len(dns)
    for b in range(preload_blocks):
        if preload_skew:
            # Hot node: every preloaded block is primary on dn0; the second
            # replica rotates over the other nodes.
            primary = 0
            secondary = 1 + b % (n - 1) if n > 1 else 0
        else:
            primary = b % n
            secondary = (primary + 1) % n
        bid = "pre#b%d" % b
        for dn in (dns[primary], dns[secondary]):
            dn.finalized.add(bid)
            dn.cache[bid] = 0.0
            nn.blocks.setdefault(bid, set()).add(dn.name)
    return nn


def seed_recovery_work(nn: NameNode, count: int, start_ms: float = 5_000.0,
                       step_ms: float = 6_000.0) -> None:
    """Seed leases over preloaded blocks that expire on a staggered schedule,
    giving the lease monitor standing recovery work throughout the run."""
    bids = sorted(nn.blocks)
    for i in range(min(count, len(bids))):
        nn.leases["recwork/f%d" % i] = ("ext", start_ms + i * step_ms, bids[i])


def _clients(
    env: SimEnv,
    rt: Runtime,
    nn: NameNode,
    cfg: HdfsConfig,
    n: int,
    interval_ms: float,
    files_per_tick: int = 1,
    nn_rpc_timeout_ms: float = 10_000.0,
) -> None:
    for i in range(n):
        DFSClient(
            env, rt, nn, cfg, i,
            write_interval_ms=interval_ms,
            files_per_tick=files_per_tick,
            nn_rpc_timeout_ms=nn_rpc_timeout_ms,
        )


# --------------------------------------------------------------- workloads


def wl_write_small(version: int):
    def setup(env: SimEnv, rt: Runtime) -> None:
        """Baseline write path: a couple of writers against defaults."""
        cfg = HdfsConfig(version=version)
        nn = build_cluster(env, rt, cfg)
        _clients(env, rt, nn, cfg, n=2, interval_ms=10_000.0)

    return setup


def wl_load_balancer(version: int):
    def setup(env: SimEnv, rt: Runtime) -> None:
        """Load-balancer scale test: thousands of preloaded blocks and
        heavy writers produce large incremental block reports (the paper's
        5,000-block workload of §8.3.2).  No IBR throttling; 10 s report
        timeouts."""
        cfg = HdfsConfig(
            version=version,
            n_datanodes=4,
            ibr_throttling=False,
            ibr_rpc_timeout_ms=10_000.0,
            stale_timeout_ms=45_000.0,  # patient: staleness is not under test
            rereplication=False,
        )
        nn = build_cluster(env, rt, cfg, preload_blocks=800)
        _clients(env, rt, nn, cfg, n=3, interval_ms=2_500.0, files_per_tick=4)

    return setup


def wl_ibr_interval(version: int):
    def setup(env: SimEnv, rt: Runtime) -> None:
        """IBR report-interval configuration test: throttling enabled with a
        20 s interval, a trickle of writes, patient 60 s report timeouts
        (the paper's t2 of §8.3.2)."""
        cfg = HdfsConfig(
            version=version,
            n_datanodes=3,
            ibr_throttling=True,
            ibr_interval_ms=20_000.0,
            ibr_rpc_timeout_ms=60_000.0,
            stale_timeout_ms=90_000.0,
            rereplication=False,
        )
        nn = build_cluster(env, rt, cfg)
        _clients(env, rt, nn, cfg, n=1, interval_ms=6_000.0, nn_rpc_timeout_ms=60_000.0)

    return setup


def wl_ha_editlog(version: int):
    def setup(env: SimEnv, rt: Runtime) -> None:
        """HA failover drill: edit-log journal with a small backlog cap;
        exceeding it fences the active NameNode."""
        cfg = HdfsConfig(
            version=version,
            ha=True,
            edit_backlog_cap=60,
            edit_lag_cap_ms=12_000.0,
            stale_timeout_ms=90_000.0,
            rereplication=False,
            hb_rpc_timeout_ms=120_000.0,  # patient heartbeats: IBRs still flow
            ibr_rpc_timeout_ms=30_000.0,
        )
        nn = build_cluster(env, rt, cfg)
        _clients(env, rt, nn, cfg, n=2, interval_ms=4_000.0, files_per_tick=2,
                 nn_rpc_timeout_ms=30_000.0)

    return setup


def wl_lease_writers(version: int):
    def setup(env: SimEnv, rt: Runtime) -> None:
        """Lease stress: many renewing writers keep a large lease table that
        the lease monitor must scan while writes are in flight."""
        cfg = HdfsConfig(
            version=version,
            writers_renew_lease=True,
            lease_soft_ms=30_000.0,
            stale_timeout_ms=90_000.0,
            rereplication=False,
        )
        nn = build_cluster(env, rt, cfg)
        # Seed a standing lease table (long-lived writers elsewhere).
        for i in range(80):
            nn.leases["standing/f%d" % i] = ("ext", 1e12, None)
        _clients(env, rt, nn, cfg, n=3, interval_ms=4_000.0, nn_rpc_timeout_ms=10_000.0)

    return setup


def wl_lease_abandon(version: int):
    def setup(env: SimEnv, rt: Runtime) -> None:
        """Lease expiry handling: single-replica writers that never renew;
        abandoned files linger in the lease table until the soft limit."""
        cfg = HdfsConfig(
            version=version,
            replication=1,
            writers_renew_lease=False,
            lease_soft_ms=40_000.0,
            recovery_enabled=True,
            stale_timeout_ms=90_000.0,
            rereplication=False,
            ibr_rpc_timeout_ms=60_000.0,
        )
        nn = build_cluster(env, rt, cfg)
        _clients(env, rt, nn, cfg, n=1, interval_ms=12_000.0, nn_rpc_timeout_ms=60_000.0)

    return setup


def wl_ibr_cap(version: int):
    def setup(env: SimEnv, rt: Runtime) -> None:
        """Report back-pressure test: small NameNode IBR backlog cap with a
        slow drain, so report storms overflow it."""
        cfg = HdfsConfig(
            version=version,
            nn_ibr_backlog_cap=10,
            ibr_backlog_drain=9,
            stale_timeout_ms=90_000.0,
            rereplication=False,
            client_rebuild_pipeline=True,
        )
        nn = build_cluster(env, rt, cfg)
        _clients(env, rt, nn, cfg, n=2, interval_ms=5_000.0, files_per_tick=2,
                 nn_rpc_timeout_ms=60_000.0)

    return setup


def wl_pipe_heavy(version: int):
    def setup(env: SimEnv, rt: Runtime) -> None:
        """Large-block streaming: many packets per block with tight pipeline
        timeouts."""
        cfg = HdfsConfig(
            version=version,
            packets_per_block=24,
            pipe_rpc_timeout_ms=10_000.0,
            stale_timeout_ms=90_000.0,
            rereplication=False,
        )
        nn = build_cluster(env, rt, cfg)
        _clients(env, rt, nn, cfg, n=3, interval_ms=4_000.0, nn_rpc_timeout_ms=60_000.0)

    return setup


def wl_genstamp_recovery(version: int):
    def setup(env: SimEnv, rt: Runtime) -> None:
        """Append/recovery conflict test: pipeline rebuilds leave stale
        generation stamps, writers do not renew leases, and the recovery
        monitor re-issues unfinished recoveries."""
        cfg = HdfsConfig(
            version=version,
            genstamp_conflicts=True,
            recovery_enabled=True,
            writers_renew_lease=False,
            lease_soft_ms=15_000.0,
            client_rebuild_pipeline=False,
            client_restream_on_ibr_loss=True,
            stale_timeout_ms=90_000.0,
            rereplication=False,
            pipe_rpc_timeout_ms=60_000.0,
            ibr_rpc_timeout_ms=60_000.0,
        )
        nn = build_cluster(env, rt, cfg, preload_blocks=80)
        seed_recovery_work(nn, 12, step_ms=8_000.0)
        _clients(env, rt, nn, cfg, n=2, interval_ms=8_000.0, nn_rpc_timeout_ms=60_000.0)

    return setup


def wl_cache_small(version: int):
    def setup(env: SimEnv, rt: Runtime) -> None:
        """Replica-cache pressure: a small metadata cache over a preloaded
        block population, with writes keeping the eviction loop busy."""
        cfg = HdfsConfig(
            version=version,
            cache_capacity=100,
            cache_tick_ms=3_000.0,
            scanner_interval_ms=10_000.0,
            pipe_rpc_timeout_ms=10_000.0,
            stale_timeout_ms=15_000.0,
            rereplication=False,
        )
        nn = build_cluster(env, rt, cfg, preload_blocks=240, preload_skew=True)
        _clients(env, rt, nn, cfg, n=1, interval_ms=2_500.0, nn_rpc_timeout_ms=60_000.0)

    return setup


def wl_bad_dn_report(version: int):
    def setup(env: SimEnv, rt: Runtime) -> None:
        """DataNode fault-tolerance test: clients report bad pipeline nodes
        to the NameNode, whose staleness detector honours the reports."""
        cfg = HdfsConfig(
            version=version,
            client_report_bad_dn=True,
            client_rebuild_pipeline=True,
            stale_timeout_ms=15_000.0,
            rereplication=False,  # reporting only; no re-replication here
        )
        nn = build_cluster(env, rt, cfg)
        _clients(env, rt, nn, cfg, n=2, interval_ms=6_000.0, nn_rpc_timeout_ms=60_000.0)

    return setup


def wl_replication_storm(version: int):
    def setup(env: SimEnv, rt: Runtime) -> None:
        """Staleness re-replication drill: a small replica cache and an
        active replication monitor; a lost DataNode triggers transfer storms
        that flow through the receive path and the cache."""
        cfg = HdfsConfig(
            version=version,
            rereplication=True,
            rereplication_cap=30,
            stale_timeout_ms=15_000.0,
            cache_capacity=50,
            cache_tick_ms=3_000.0,
            pipe_rpc_timeout_ms=60_000.0,
            ibr_rpc_timeout_ms=60_000.0,
        )
        nn = build_cluster(env, rt, cfg, preload_blocks=160)
        _clients(env, rt, nn, cfg, n=1, interval_ms=8_000.0, nn_rpc_timeout_ms=60_000.0)

    return setup


def wl_recovery_retry(version: int):
    def setup(env: SimEnv, rt: Runtime) -> None:
        """Block recovery retry test: genstamp conflicts plus the recovery
        monitor's periodic re-issue, so overlapping recovery sessions are
        possible (H2-3)."""
        cfg = HdfsConfig(
            version=version,
            genstamp_conflicts=True,
            recovery_enabled=True,
            writers_renew_lease=False,
            lease_soft_ms=12_000.0,
            client_rebuild_pipeline=False,
            stale_timeout_ms=90_000.0,
            rereplication=False,
            pipe_rpc_timeout_ms=60_000.0,
            ibr_rpc_timeout_ms=60_000.0,
        )
        nn = build_cluster(env, rt, cfg, preload_blocks=80)
        seed_recovery_work(nn, 16, step_ms=6_000.0)
        _clients(env, rt, nn, cfg, n=1, interval_ms=12_000.0, nn_rpc_timeout_ms=60_000.0)

    return setup


# ------------------------------------------------------------- v3-specific


def wl_deletion_heavy(version: int):
    def setup(env: SimEnv, rt: Runtime) -> None:
        """HDFS 3 deletion-service test: a replica scanner keeps finding
        extra replicas to invalidate, so the async deletion queue always
        has standing work."""
        cfg = HdfsConfig(
            version=version,
            rereplication=True,
            rereplication_cap=30,
            stale_timeout_ms=15_000.0,
            deletion_tick_ms=3_000.0,
            pipe_rpc_timeout_ms=10_000.0,
            ibr_rpc_timeout_ms=60_000.0,
        )
        nn = build_cluster(env, rt, cfg, preload_blocks=200)
        scanner = Node(env, "replica-scanner")
        state = {"seq": 0}

        def find_extras() -> None:
            # The volume scanner reports stray extra replicas (block-pool
            # churn): the NameNode will invalidate them via delete commands.
            bids = sorted(nn.blocks)
            names = sorted(nn.datanodes)
            for _ in range(6):
                state["seq"] += 1
                bid = bids[state["seq"] % len(bids)]
                extra = names[state["seq"] % len(names)]
                nn.blocks[bid].add(extra)
                dn = nn.datanodes[extra]
                dn.finalized.add(bid)

        env.every(scanner, 2_000.0, find_extras)
        _clients(env, rt, nn, cfg, n=2, interval_ms=5_000.0, nn_rpc_timeout_ms=60_000.0)

    return setup


def wl_reconstruction(version: int):
    def setup(env: SimEnv, rt: Runtime) -> None:
        """HDFS 3 erasure-coding reconstruction test: under-replicated
        blocks are rebuilt by reconstruction workers fetching from peers."""
        cfg = HdfsConfig(
            version=version,
            reconstruction=True,
            rereplication=True,
            rereplication_cap=20,
            stale_timeout_ms=15_000.0,
            recon_tick_ms=4_000.0,
            recon_fetch_timeout_ms=10_000.0,
            ibr_rpc_timeout_ms=60_000.0,
            pipe_rpc_timeout_ms=60_000.0,
        )
        nn = build_cluster(env, rt, cfg, preload_blocks=160)
        # A corruption scanner keeps knocking replicas out, giving the
        # reconstruction workers standing work throughout the run.
        scanner = Node(env, "corruption-scanner")
        state = {"seq": 0}

        def corrupt_one() -> None:
            bids = sorted(nn.blocks)
            for _ in range(3):
                state["seq"] += 1
                bid = bids[state["seq"] % len(bids)]
                holders = nn.blocks[bid]
                if len(holders) > 1:
                    holders.discard(sorted(holders)[0])
                    nn.under_replicated.append(bid)

        env.every(scanner, 2_500.0, corrupt_one)
        _clients(env, rt, nn, cfg, n=1, interval_ms=9_000.0, nn_rpc_timeout_ms=60_000.0)

    return setup


def wl_eventq(version: int):
    def setup(env: SimEnv, rt: Runtime) -> None:
        """HDFS 3 async event-queue test: report bursts against a bounded
        dispatcher queue."""
        cfg = HdfsConfig(
            version=version,
            eventq_cap=40,
            ibr_rpc_timeout_ms=10_000.0,
            stale_timeout_ms=45_000.0,
            rereplication=False,
        )
        nn = build_cluster(env, rt, cfg, preload_blocks=400)
        _clients(env, rt, nn, cfg, n=3, interval_ms=3_000.0, files_per_tick=3,
                 nn_rpc_timeout_ms=60_000.0)

    return setup


def hdfs_workloads(version: int) -> List[WorkloadSpec]:
    """The integration-test suite of MiniHDFS ``version``."""
    prefix = "hdfs%d" % version
    base = [
        ("write_small", wl_write_small),
        ("load_balancer", wl_load_balancer),
        ("ibr_interval", wl_ibr_interval),
        ("ha_editlog", wl_ha_editlog),
        ("lease_writers", wl_lease_writers),
        ("lease_abandon", wl_lease_abandon),
        ("ibr_cap", wl_ibr_cap),
        ("pipe_heavy", wl_pipe_heavy),
        ("genstamp_recovery", wl_genstamp_recovery),
        ("cache_small", wl_cache_small),
        ("bad_dn_report", wl_bad_dn_report),
        ("replication_storm", wl_replication_storm),
        ("recovery_retry", wl_recovery_retry),
    ]
    if version >= 3:
        base += [
            ("deletion_heavy", wl_deletion_heavy),
            ("reconstruction", wl_reconstruction),
            ("eventq", wl_eventq),
        ]
    return [
        WorkloadSpec(test_id="%s.%s" % (prefix, name), setup=factory(version))
        for name, factory in base
    ]
