"""Fault-site registry for MiniDFS."""

from __future__ import annotations

from ...instrument.sites import SiteRegistry


def build_registry() -> SiteRegistry:
    reg = SiteRegistry("minidfs")

    # Master (namenode role): report processing, liveness, re-replication.
    reg.loop("nn.report.blocks", "DfsNode.handle_register", does_io=True, body_size=42)
    reg.detector("nn.dn.is_dead", "DfsNode.liveness_tick", error_value=True)
    reg.detector("nn.block.is_under", "DfsNode._queue_under_replicated", error_value=True)
    reg.loop("nn.rerepl.scan", "DfsNode.rerepl_tick", does_io=True, body_size=40)
    reg.lib_call("nn.rerepl.rpc", "DfsNode.rerepl_tick", exception="SocketTimeoutException")
    reg.branch("nn.rerepl.b_rescan", "DfsNode.rerepl_tick")
    reg.loop("nn.ack.scan", "DfsNode.ack_scan_tick", does_io=True, body_size=34)
    reg.lib_call("nn.retry.rpc", "DfsNode.ack_scan_tick", exception="SocketTimeoutException")
    reg.branch("nn.ack.b_panic", "DfsNode.ack_scan_tick")
    reg.throw("nn.write.not_master", "DfsNode.handle_allocate", exception="NotMasterException")

    # Datanodes: heartbeats, (re-)registration, block pipelines.
    reg.loop("dn.ibr.build", "DfsNode.heartbeat_tick", body_size=6)
    reg.lib_call("dn.hb.rpc", "DfsNode.heartbeat_tick", exception="SocketTimeoutException")
    reg.branch("dn.hb.b_rereg", "DfsNode.heartbeat_tick")
    reg.loop("dn.report.build", "DfsNode.register_with_master", body_size=18)
    reg.lib_call("dn.reg.rpc", "DfsNode.register_with_master", exception="SocketTimeoutException")
    reg.branch("dn.reg.b_retry", "DfsNode.register_with_master")
    reg.loop("dn.pipe.write", "DfsNode.handle_write", does_io=True, body_size=30)
    reg.lib_call("dn.pipe.rpc", "DfsNode.handle_write", exception="SocketTimeoutException")
    reg.loop("dn.pipe.recv", "DfsNode.handle_receive", does_io=True, body_size=38)
    reg.lib_call("dn.serve.rpc", "DfsNode.handle_receive", exception="SocketTimeoutException")
    reg.loop("dn.read.chunks", "DfsNode.handle_read", does_io=True, body_size=22)
    reg.throw("dn.disk.full_ioe", "DfsNode.handle_write", exception="DiskFullException")
    reg.loop("dn.ack.build", "DfsNode.ack_flush_tick", does_io=True, body_size=16)

    # Standby failover: master-liveness detection, priority promotion,
    # namespace rebuild from full reports.
    reg.detector("dn.master.is_down", "DfsNode.failover_tick", error_value=True)
    reg.branch("fo.b_promote", "DfsNode.failover_tick")
    reg.lib_call("fo.report.rpc", "DfsNode.become_master", exception="SocketTimeoutException")
    reg.loop("fo.rebuild.entries", "DfsNode.become_master", body_size=44)

    # Client.
    reg.loop("cli.ops.submit", "DfsClient.submit_tick", does_io=True, body_size=24)
    reg.lib_call("cli.alloc.rpc", "DfsClient._write", exception="SocketTimeoutException")
    reg.lib_call("cli.data.rpc", "DfsClient._write", exception="SocketTimeoutException")
    reg.lib_call("cli.read.rpc", "DfsClient._read", exception="SocketTimeoutException")

    # Dead code: fsck_scan_legacy has no callers: the site is declared
    # dead, and its faults leave the fault space.
    reg.loop("nn.fsck.scan", "DfsNode.fsck_scan_legacy", does_io=True, body_size=12, dead=True)

    # Filtered examples (excluded by the static analyzer's §4.1/§7 rules).
    reg.loop("nn.metrics.flush", "DfsNode.update_metrics", constant_bound=True, body_size=3)
    reg.detector("dn.conf.is_cached", "DfsNode.__init__", final_only=True)
    reg.throw("dfs.sec.acl_check", "DfsNode.check_acl", security_related=True)

    return reg
