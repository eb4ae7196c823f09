"""Assemble the MiniDFS system spec."""

from __future__ import annotations

from ...faults import EnvFaultPort
from ...types import DELAY, EXCEPTION, NEGATION, FaultKey
from ...workloads.dfs import dfs_workloads
from ..base import KnownBug, SystemSpec
from .sites import build_registry

#: The namenode, the three datanodes, and every severable pair — the
#: namenode↔datanode heartbeat/report links plus the datanode↔datanode
#: pipeline links (crash / partition / msg_drop / schedule targets).
ENV_PORT = EnvFaultPort(
    nodes=("nn0", "dn0", "dn1", "dn2"),
    links=(
        ("nn0", "dn0"), ("nn0", "dn1"), ("nn0", "dn2"),
        ("dn0", "dn1"), ("dn0", "dn2"), ("dn1", "dn2"),
    ),
)


def build_system() -> SystemSpec:
    spec = SystemSpec(
        name="minidfs", registry=build_registry(), env_port=ENV_PORT,
        source_modules=("repro.systems.minidfs.nodes", "repro.workloads.dfs"),
    )
    for workload in dfs_workloads():
        spec.add_workload(workload)
    spec.known_bugs = [
        KnownBug(
            bug_id="DFS-1",
            description=(
                "Heartbeat re-registration storm: slow block-report "
                "processing on the master times out datanode heartbeat "
                "RPCs; with re-register-on-failure configured each lost "
                "ack is answered by a full re-registration whose block "
                "report is precisely the processing work that made the "
                "master slow.  Only a node crash (and the recovery "
                "re-registrations it forces) exposes the triggering "
                "disturbance."
            ),
            signature="1D|1E|0N",
            core_faults=frozenset(
                {
                    FaultKey("nn.report.blocks", DELAY),
                    FaultKey("dn.hb.rpc", EXCEPTION),
                }
            ),
            trigger_faults=frozenset(
                {
                    FaultKey(ENV_PORT.node_site_id(n), "node_crash")
                    for n in ENV_PORT.nodes
                }
            ),
            alt_detectable=False,
        ),
        KnownBug(
            bug_id="DFS-2",
            description=(
                "Failover flap: a standby whose master-liveness detector "
                "trips promotes itself by priority and rebuilds the "
                "namespace from full block reports; the rebuild keeps the "
                "new master too busy to answer heartbeats, so the next "
                "standby's detector trips — another election, another "
                "rebuild.  Only a partition (master-side silence long "
                "enough to trip the detector naturally) exposes the "
                "triggering disturbance."
            ),
            signature="1D|0E|1N",
            core_faults=frozenset(
                {
                    FaultKey("fo.rebuild.entries", DELAY),
                    FaultKey("dn.master.is_down", NEGATION),
                }
            ),
            trigger_faults=frozenset(
                {
                    FaultKey(ENV_PORT.link_site_id(a, b), "partition")
                    for a, b in ENV_PORT.links
                }
            ),
            alt_detectable=False,
        ),
        KnownBug(
            bug_id="DFS-3",
            description=(
                "Re-replication churn: a failed re-replication transfer "
                "makes the master distrust its placement bookkeeping and "
                "grow the pending set (rescan-on-failure), so the next "
                "scan issues even more transfers — transfers that keep "
                "the surviving datanodes too busy to answer in time.  A "
                "transfer only fails naturally when the master's "
                "heartbeat-based liveness view is stale enough to pick a "
                "dead source while new deaths keep arriving: only a "
                "rolling crash/restart wave (the membership_churn "
                "schedule) produces that, never a single crash."
            ),
            signature="1D|1E|0N",
            core_faults=frozenset(
                {
                    FaultKey("dn.pipe.recv", DELAY),
                    FaultKey("nn.rerepl.rpc", EXCEPTION),
                }
            ),
            trigger_faults=frozenset(
                {
                    FaultKey(ENV_PORT.node_site_id(n), "membership_churn")
                    for n in ENV_PORT.nodes
                }
            ),
            alt_detectable=False,
        ),
        KnownBug(
            bug_id="DFS-4",
            description=(
                "Ack-loss retry storm: with explicit transfer acks "
                "configured, the master trusts a re-replication placement "
                "only once the target's one-way ack datagram arrives, and "
                "retries unacked transfers — re-copying blocks the target "
                "already holds when only the ack was lost.  A retry that "
                "itself times out reads as wholesale ack loss, so every "
                "inflight transfer is retried too; the duplicate copies "
                "keep the datanodes too busy to flush acks in time.  Only "
                "datagram loss (msg_drop, which never touches RPCs) "
                "exposes the triggering disturbance — acks are the "
                "system's only load-bearing datagrams."
            ),
            signature="1D|1E|0N",
            core_faults=frozenset(
                {
                    FaultKey("dn.ack.build", DELAY),
                    FaultKey("nn.retry.rpc", EXCEPTION),
                }
            ),
            trigger_faults=frozenset(
                {
                    FaultKey(ENV_PORT.link_site_id("nn0", d), "msg_drop")
                    for d in ("dn0", "dn1", "dn2")
                }
            ),
            alt_detectable=False,
        ),
    ]
    return spec
