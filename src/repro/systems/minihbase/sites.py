"""Fault-site registry for MiniHBase."""

from __future__ import annotations

from ...instrument.sites import SiteRegistry


def build_registry() -> SiteRegistry:
    reg = SiteRegistry("minihbase")

    # HMaster: assignment manager + balancer.
    reg.loop("hm.assign.queue", does_io=True, body_size=50)
    reg.loop("hm.plan.build", parent="hm.assign.queue", order=0, body_size=20)
    reg.lib_call("hm.assign.rpc")
    reg.detector("hm.balancer.can_place", error_value=False)
    reg.detector("hm.rs.is_online", error_value=False)
    reg.throw("hm.assign.no_plan")
    reg.branch("hm.assign.b_favored")
    reg.branch("hm.assign.b_retry")

    # RegionServer: deployment + WAL.
    reg.loop("rs.deploy.regions", does_io=True, body_size=45)
    reg.loop("rs.wal.roll", does_io=True, body_size=40)
    reg.loop("rs.flush.memstore", does_io=True, body_size=30)
    reg.throw("rs.open.ioe")
    reg.throw("rs.wal.sync_fail")
    reg.detector("rs.wal.premature_eof", error_value=True)
    reg.lib_call("rs.report.rpc")
    reg.branch("rs.deploy.b_overloaded")
    # Filtered examples.
    reg.loop("rs.metrics.update", constant_bound=True, body_size=3)
    reg.detector("rs.conf.is_secure", final_only=True)
    reg.throw("rs.refl.coproc", reflection_related=True)

    # Client.
    reg.loop("cli.batch.ops", does_io=True, body_size=30)
    reg.lib_call("cli.admin.rpc")

    return reg
