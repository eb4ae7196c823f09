"""Assemble the MiniRaft system spec."""

from __future__ import annotations

from ...faults import EnvFaultPort
from ...types import DELAY, EXCEPTION, NEGATION, FaultKey
from ...workloads.raft import raft_workloads
from ..base import KnownBug, SystemSpec
from .sites import build_registry

#: The three Raft peers and their pairwise links — the system's injectable
#: environment surface (crash / partition / msg_drop fault targets).
ENV_PORT = EnvFaultPort(
    nodes=("raft0", "raft1", "raft2"),
    links=(("raft0", "raft1"), ("raft0", "raft2"), ("raft1", "raft2")),
)


def build_system() -> SystemSpec:
    spec = SystemSpec(
        name="miniraft", registry=build_registry(), env_port=ENV_PORT,
        source_modules=("repro.systems.miniraft.nodes", "repro.workloads.raft"),
    )
    for workload in raft_workloads():
        spec.add_workload(workload)
    spec.known_bugs = [
        KnownBug(
            bug_id="RAFT-1",
            description=(
                "A slow follower apply loop times out the leader's "
                "AppendEntries RPC; with resend-on-timeout configured the "
                "leader rolls next_index back a whole window, so the "
                "follower re-applies entries it already has."
            ),
            signature="1D|1E|0N",
            core_faults=frozenset(
                {
                    FaultKey("flw.append.apply", DELAY),
                    FaultKey("ldr.append.rpc", EXCEPTION),
                }
            ),
            alt_detectable=True,
        ),
        KnownBug(
            bug_id="RAFT-2",
            description=(
                "Slow AppendEntries application defers follower heartbeats "
                "until the election-timeout detector trips; the election "
                "makes the new leader re-send a conservative catch-up "
                "window to every peer — more apply work, later heartbeats, "
                "further elections."
            ),
            signature="1D|0E|1N",
            core_faults=frozenset(
                {
                    FaultKey("flw.append.apply", DELAY),
                    FaultKey("flw.election.timed_out", NEGATION),
                }
            ),
            alt_detectable=True,
        ),
        KnownBug(
            bug_id="RAFT-3",
            description=(
                "When the quorum detector reports lost quorum, the resync "
                "fallback distrusts every match_index and re-sends a resync "
                "window to all followers; the duplicated apply work delays "
                "the very acks the detector is waiting for."
            ),
            signature="1D|0E|1N",
            core_faults=frozenset(
                {
                    FaultKey("flw.append.apply", DELAY),
                    FaultKey("ldr.quorum.has", NEGATION),
                }
            ),
            alt_detectable=True,
        ),
        KnownBug(
            bug_id="RAFT-4",
            description=(
                "A slow snapshot install times out the leader's "
                "InstallSnapshot RPC; with snapshot retry configured the "
                "next tick restarts the transfer from chunk zero and the "
                "follower installs the same chunks again."
            ),
            signature="1D|1E|0N",
            core_faults=frozenset(
                {
                    FaultKey("flw.snap.chunks", DELAY),
                    FaultKey("ldr.snap.rpc", EXCEPTION),
                }
            ),
            alt_detectable=True,
        ),
        KnownBug(
            bug_id="RAFT-5",
            description=(
                "Election livelock under a healed partition: with "
                "reconnect catch-up configured, a leader that hears from "
                "a peer after a silence window re-queues a whole catch-up "
                "window; the catch-up work delays heartbeats until the "
                "election-timeout detector trips, and every fresh leader "
                "treats all peers as reconnecting — more catch-up work, "
                "later heartbeats, further elections.  Only environment "
                "fault injection (a partition cut-and-heal) exposes the "
                "triggering disturbance."
            ),
            signature="1D|0E|1N",
            core_faults=frozenset(
                {
                    FaultKey("ldr.reconnect.catchup", DELAY),
                    FaultKey("flw.election.timed_out", NEGATION),
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
            bug_id="RAFT-6",
            description=(
                "Restart catch-up probe livelock: with restart probes "
                "configured, a restarted follower verifies a digest window "
                "against the leader; a lost probe reply makes it distrust "
                "the digest and grow the window, so the next probe asks "
                "the leader to scan even more — scan work that pushes the "
                "probe round trip past its own timeout.  Only a partition "
                "overlapping a crash-restart (a composed fault schedule) "
                "creates the triggering reply loss; no single fault covers "
                "both the restart and the silence."
            ),
            signature="1D|1E|0N",
            core_faults=frozenset(
                {
                    FaultKey("ldr.probe.scan", DELAY),
                    FaultKey("flw.probe.rpc", EXCEPTION),
                }
            ),
            trigger_faults=frozenset(
                {
                    FaultKey(ENV_PORT.node_site_id(n), "partition_during_restart")
                    for n in ENV_PORT.nodes
                }
            ),
            alt_detectable=False,
        ),
    ]
    return spec
