"""Fault-site registry for MiniRaft."""

from __future__ import annotations

from ...instrument.sites import SiteRegistry


def build_registry() -> SiteRegistry:
    reg = SiteRegistry("miniraft")

    # Leader: replication fan-out, quorum tracking, snapshot shipping.
    reg.loop("ldr.append.peers", "RaftNode.replicate_tick", does_io=True, body_size=45)
    reg.loop(
        "ldr.batch.build", "RaftNode.replicate_tick",
        parent="ldr.append.peers", order=0, body_size=20,
    )
    reg.lib_call("ldr.append.rpc", "RaftNode.replicate_tick", exception="SocketTimeoutException")
    reg.lib_call("ldr.snap.rpc", "RaftNode.replicate_tick", exception="SocketTimeoutException")
    reg.detector("ldr.quorum.has", "RaftNode.replicate_tick", error_value=False)
    reg.detector("ldr.peer.is_lagging", "RaftNode.replicate_tick", error_value=True)
    reg.throw("ldr.append.not_leader", "RaftNode.client_append", exception="NotLeaderException")
    reg.branch("ldr.append.b_retry", "RaftNode.replicate_tick")
    reg.branch("ldr.quorum.b_resync", "RaftNode.replicate_tick")
    reg.branch("ldr.snap.b_retry", "RaftNode.replicate_tick")
    reg.loop(
        "ldr.reconnect.catchup", "RaftNode.replicate_tick",
        parent="ldr.append.peers", order=1, body_size=25,
    )
    reg.branch("ldr.reconnect.b_catchup", "RaftNode.replicate_tick")

    # Followers: log application, snapshot install, election liveness.
    reg.loop("flw.append.apply", "RaftNode.handle_append", body_size=40)
    reg.loop("flw.commit.apply", "RaftNode.handle_append", body_size=15)
    reg.loop("flw.snap.chunks", "RaftNode.install_snapshot", body_size=35)
    reg.detector("flw.election.timed_out", "RaftNode.election_tick", error_value=True)
    reg.throw("flw.log.full_ioe", "RaftNode.client_append", exception="LogFullException")
    reg.branch("flw.vote.b_grant", "RaftNode.handle_vote")

    # Restart catch-up probes (follower digest loop, probe RPC, leader scan).
    reg.loop("flw.restart.probe", "RaftNode.restart_probe_tick", does_io=True, body_size=30)
    reg.lib_call("flw.probe.rpc", "RaftNode.restart_probe_tick", exception="SocketTimeoutException")
    reg.loop("ldr.probe.scan", "RaftNode.handle_probe", does_io=True, body_size=28)

    # Candidates.
    reg.loop("cand.vote.requests", "RaftNode.start_election", does_io=True, body_size=30)
    reg.lib_call("cand.vote.rpc", "RaftNode.start_election", exception="SocketTimeoutException")
    reg.branch("cand.b_won", "RaftNode.start_election")

    # Client.
    reg.loop("cli.cmd.submit", "RaftClient.submit_tick", does_io=True, body_size=25)
    reg.lib_call("cli.submit.rpc", "RaftClient.submit_tick", exception="SocketTimeoutException")

    # Dead code: compact_log_legacy has no callers: the site is declared
    # dead, and its faults leave the fault space.
    reg.loop(
        "ldr.compact.scan", "RaftNode.compact_log_legacy", does_io=True, body_size=12, dead=True
    )

    # Filtered examples (excluded by the static analyzer's §4.1/§7 rules).
    reg.loop("ldr.metrics.flush", "RaftNode.update_metrics", constant_bound=True, body_size=3)
    reg.detector("flw.conf.is_voter", "RaftNode.__init__", final_only=True)
    reg.throw("raft.sec.cert_check", "RaftNode.check_cert", security_related=True)

    return reg
