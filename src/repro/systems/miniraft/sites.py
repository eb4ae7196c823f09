"""Fault-site registry for MiniRaft."""

from __future__ import annotations

from ...instrument.sites import SiteRegistry


def build_registry() -> SiteRegistry:
    reg = SiteRegistry("miniraft")

    # Leader: replication fan-out, quorum tracking, snapshot shipping.
    reg.loop("ldr.append.peers", does_io=True, body_size=45)
    reg.loop("ldr.batch.build", parent="ldr.append.peers", order=0, body_size=20)
    reg.lib_call("ldr.append.rpc")
    reg.lib_call("ldr.snap.rpc")
    reg.detector("ldr.quorum.has", error_value=False)
    reg.detector("ldr.peer.is_lagging", error_value=True)
    reg.throw("ldr.append.not_leader")
    reg.branch("ldr.append.b_retry")
    reg.branch("ldr.quorum.b_resync")
    reg.branch("ldr.snap.b_retry")
    reg.loop("ldr.reconnect.catchup", parent="ldr.append.peers", order=1, body_size=25)
    reg.branch("ldr.reconnect.b_catchup")

    # Followers: log application, snapshot install, election liveness.
    reg.loop("flw.append.apply", body_size=40)
    reg.loop("flw.commit.apply", body_size=15)
    reg.loop("flw.snap.chunks", body_size=35)
    reg.detector("flw.election.timed_out", error_value=True)
    reg.throw("flw.log.full_ioe")
    reg.branch("flw.vote.b_grant")

    # Restart catch-up probes (follower digest loop, probe RPC, leader scan).
    reg.loop("flw.restart.probe", does_io=True, body_size=30)
    reg.lib_call("flw.probe.rpc")
    reg.loop("ldr.probe.scan", does_io=True, body_size=28)

    # Candidates.
    reg.loop("cand.vote.requests", does_io=True, body_size=30)
    reg.lib_call("cand.vote.rpc")
    reg.branch("cand.b_won")

    # Client.
    reg.loop("cli.cmd.submit", does_io=True, body_size=25)
    reg.lib_call("cli.submit.rpc")

    # Dead code: compact_log_legacy has no callers: the site is declared
    # dead, and its faults leave the fault space.
    reg.loop("ldr.compact.scan", does_io=True, body_size=12, dead=True)

    # Filtered examples (excluded by the static analyzer's §4.1/§7 rules).
    reg.loop("ldr.metrics.flush", constant_bound=True, body_size=3)
    reg.detector("flw.conf.is_voter", final_only=True)
    reg.throw("raft.sec.cert_check", security_related=True)

    return reg
