"""Fault-site registry for MiniFlink."""

from __future__ import annotations

from ...instrument.sites import SiteRegistry


def build_registry() -> SiteRegistry:
    reg = SiteRegistry("miniflink")

    # JobManager: scheduler, restart strategy, checkpoint coordinator.
    reg.loop("jm.deploy.tasks", does_io=True, body_size=45)
    reg.loop("jm.cancel.tasks", body_size=25)
    reg.lib_call("jm.deploy.rpc")
    reg.throw("jm.sink.cancel")
    reg.throw("jm.no_slots")
    reg.detector("jm.cp.is_stalled", error_value=True)
    reg.branch("jm.restart.b_strategy")
    reg.branch("jm.cp.b_pending")

    # TaskManagers: worker loops per task role, barriers, state machine.
    reg.loop("tm.head.process", does_io=True, body_size=50)
    reg.loop("tm.agg.process", does_io=True, body_size=45)
    reg.loop("tm.sink.process", does_io=True, body_size=40)
    reg.loop("tm.state.restore", does_io=True, body_size=30)
    reg.throw("tm.head.fail")
    reg.throw("tm.barrier.fail")
    reg.throw("tm.state.transition")
    reg.lib_call("tm.forward.rpc")
    # Filtered examples.
    reg.loop("tm.metrics.report", constant_bound=True, body_size=3)
    reg.detector("tm.conf.is_local", final_only=True)

    return reg
