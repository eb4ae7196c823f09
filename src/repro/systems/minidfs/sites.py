"""Fault-site registry for MiniDFS."""

from __future__ import annotations

from ...instrument.sites import SiteRegistry


def build_registry() -> SiteRegistry:
    reg = SiteRegistry("minidfs")

    # Master (namenode role): report processing, liveness, re-replication.
    reg.loop("nn.report.blocks", does_io=True, body_size=42)
    reg.detector("nn.dn.is_dead", error_value=True)
    reg.detector("nn.block.is_under", error_value=True)
    reg.loop("nn.rerepl.scan", does_io=True, body_size=40)
    reg.lib_call("nn.rerepl.rpc")
    reg.branch("nn.rerepl.b_rescan")
    reg.loop("nn.ack.scan", does_io=True, body_size=34)
    reg.lib_call("nn.retry.rpc")
    reg.branch("nn.ack.b_panic")
    reg.throw("nn.write.not_master")

    # Datanodes: heartbeats, (re-)registration, block pipelines.
    reg.loop("dn.ibr.build", body_size=6)
    reg.lib_call("dn.hb.rpc")
    reg.branch("dn.hb.b_rereg")
    reg.loop("dn.report.build", body_size=18)
    reg.lib_call("dn.reg.rpc")
    reg.branch("dn.reg.b_retry")
    reg.loop("dn.pipe.write", does_io=True, body_size=30)
    reg.lib_call("dn.pipe.rpc")
    reg.loop("dn.pipe.recv", does_io=True, body_size=38)
    reg.lib_call("dn.serve.rpc")
    reg.loop("dn.read.chunks", does_io=True, body_size=22)
    reg.throw("dn.disk.full_ioe")
    reg.loop("dn.ack.build", does_io=True, body_size=16)

    # Standby failover: master-liveness detection, priority promotion,
    # namespace rebuild from full reports.
    reg.detector("dn.master.is_down", error_value=True)
    reg.branch("fo.b_promote")
    reg.lib_call("fo.report.rpc")
    reg.loop("fo.rebuild.entries", body_size=44)

    # Client.
    reg.loop("cli.ops.submit", does_io=True, body_size=24)
    reg.lib_call("cli.alloc.rpc")
    reg.lib_call("cli.data.rpc")
    reg.lib_call("cli.read.rpc")

    # Dead code: fsck_scan_legacy has no callers: the site is declared
    # dead, and its faults leave the fault space.
    reg.loop("nn.fsck.scan", does_io=True, body_size=12, dead=True)

    # Filtered examples (excluded by the static analyzer's §4.1/§7 rules).
    reg.loop("nn.metrics.flush", constant_bound=True, body_size=3)
    reg.detector("dn.conf.is_cached", final_only=True)
    reg.throw("dfs.sec.acl_check", security_related=True)

    return reg
