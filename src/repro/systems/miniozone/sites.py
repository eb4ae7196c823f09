"""Fault-site registry for MiniOzone."""

from __future__ import annotations

from ...instrument.sites import SiteRegistry


def build_registry() -> SiteRegistry:
    reg = SiteRegistry("miniozone")

    # SCM: event queue, heartbeat processing, pipelines, replication.
    reg.loop("scm.eventq.dispatch", does_io=True, body_size=50)
    reg.loop("scm.hb.updates", body_size=35)
    reg.loop("scm.pipeline.scan", body_size=40)
    reg.loop("scm.repl.scan", does_io=True, body_size=45)
    reg.detector("scm.eventq.dispatch_ok", error_value=False)
    reg.detector("scm.pipeline.is_healthy", error_value=False)
    reg.detector("scm.dn.is_dead", error_value=True)
    reg.throw("scm.pipeline.create_ioe")
    reg.throw("scm.eventq.overflow")
    reg.branch("scm.eventq.b_requeue")
    reg.branch("scm.pipeline.b_open")
    reg.branch("scm.repl.b_urgent")

    # DataNodes.
    reg.loop("dn.hb.cmds", body_size=30)
    reg.loop("dn.repl.handle", does_io=True, body_size=45)
    reg.loop("dn.report.build", body_size=25)
    reg.lib_call("dn.hb.rpc")
    reg.lib_call("dn.repl.push")
    reg.throw("dn.container.ioe")
    reg.branch("dn.repl.b_retry")
    # Filtered examples.
    reg.loop("dn.metrics.flush", constant_bound=True, body_size=3)
    reg.detector("dn.conf.is_ratis", final_only=True)
    reg.throw("scm.sec.cert_check", security_related=True)

    # Client.
    reg.loop("cli.keys.write", does_io=True, body_size=30)
    reg.lib_call("cli.scm.rpc")

    return reg
