"""Fault-site registries for MiniHDFS 2 and MiniHDFS 3."""

from __future__ import annotations

from ...instrument.sites import SiteRegistry


def build_registry(version: int = 2) -> SiteRegistry:
    """Declare every instrumented site of MiniHDFS ``version``."""
    system = "minihdfs%d" % version
    reg = SiteRegistry(system)

    # ------------------------------------------------------------- NameNode
    reg.loop("nn.ibr.entries", does_io=True, body_size=50)
    reg.loop("nn.fbr.entries", does_io=True, body_size=45)
    reg.loop("nn.repl.scan", does_io=True, body_size=40)
    reg.loop("nn.lease.scan", body_size=35)
    reg.loop("nn.edit.flush", does_io=True, body_size=30)
    # Constant-bound bookkeeping loop: excluded by the scalability analysis.
    reg.loop("nn.metrics.update", constant_bound=True, body_size=4)

    reg.throw("nn.ibr.overflow")
    reg.throw("nn.rpc.not_primary")
    reg.throw("nn.safemode.ioe")
    # Test-only throw: excluded by the static analyzer (§4.1).
    reg.throw("nn.test.inject_only", test_only=True)

    reg.detector("nn.dn.is_stale", error_value=True)
    reg.detector("nn.block.is_under_replicated", error_value=True)
    # Filtered detectors (§7 rules).
    reg.detector("nn.conf.is_ha_enabled", final_only=True)
    reg.detector("nn.util.is_sorted", primitive_only=True)

    reg.branch("nn.ibr.b_standby")
    reg.branch("nn.repl.b_urgent")
    reg.branch("nn.lease.b_expired")
    reg.branch("nn.edit.b_backlog")

    # ------------------------------------------------------------- DataNode
    # BPServiceActor: one wrapper iteration per heartbeat with the command
    # and IBR-conversion loops nested inside (the Figure 5 structure).
    reg.loop("dn.bpsa.offer", does_io=True, body_size=60)
    reg.loop("dn.bpsa.cmds", parent="dn.bpsa.offer", order=0, body_size=30)
    reg.loop("dn.ibr.convert", parent="dn.bpsa.offer", order=1, body_size=25)
    reg.loop("dn.pipe.packets", does_io=True, body_size=50)
    reg.loop("dn.rec.attempts", body_size=30)
    reg.loop("dn.cache.evict", body_size=20)

    reg.lib_call("dn.hb.rpc")
    reg.lib_call("dn.ibr.rpc")
    reg.lib_call("dn.fbr.rpc")
    reg.lib_call("dn.repl.transfer")

    reg.throw("dn.pipe.ioe")
    reg.throw("dn.pipe.replica_exists")
    reg.throw("dn.rec.ioe")
    # Reflection-related: excluded by the static analyzer.
    reg.throw("dn.refl.load_class", reflection_related=True)

    reg.detector("dn.cache.is_full", error_value=True)

    reg.branch("dn.pipe.b_last_packet")
    reg.branch("dn.pipe.b_downstream")
    reg.branch("dn.rec.b_genstamp")
    reg.branch("dn.bpsa.b_force_ibr")
    reg.branch("dn.cache.b_pressure")

    # --------------------------------------------------------------- Client
    reg.loop("cli.write.retries", does_io=True, body_size=35)
    reg.lib_call("cli.pipe.rpc")
    reg.branch("cli.write.b_abandon")

    if version >= 3:
        # Async event queue on the NameNode: reports are processed by a
        # dispatcher with separate error handlers.
        reg.loop("nn3.eventq.dispatch", does_io=True, body_size=55)
        reg.throw("nn3.eventq.handler_ioe")
        reg.throw("nn3.eventq.overflow")
        reg.detector("nn3.eventq.is_saturated", error_value=True)
        reg.branch("nn3.eventq.b_kind")
        # Block deletion service and EC-style reconstruction on DataNodes.
        reg.loop("dn3.del.work", does_io=True, body_size=30)
        reg.loop("dn3.recon.work", does_io=True, body_size=45)
        reg.lib_call("dn3.recon.fetch")
        reg.branch("dn3.del.b_batch")

    return reg
