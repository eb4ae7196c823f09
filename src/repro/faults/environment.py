"""Environment-level fault models: crash, partition, and message drop.

These kinds disturb the simulated *world* rather than a code path, wired
to the substrate machinery ``repro.sim`` always had (``Node.crash``,
``SimEnv.partition_names``, silent datagram drop in ``SimEnv.send``) but which
no campaign could reach before the registry existed.  They target the
``ENV_NODE`` / ``ENV_LINK`` sites a system declares through its
:class:`~repro.faults.base.EnvFaultPort`.

Arming is scheduled, not immediate: workloads build their cluster inside
``setup``, so the fire event — placed at the plan's warmup time, like
every other injection — resolves node names against ``env.nodes`` at fire
time.  Each firing records an injected :class:`FaultEvent` under the
synthetic ``("<env>", "<env>")`` local state, which is what FCA uses as
the source states of the edges the disturbance reveals.

Determinism: the message-drop model draws from its own RNG, seeded from
``(site, drop_p, run seed)`` — the main simulation RNG stream (latency
jitter, periodic-tick jitter) is never touched, so an injection run stays
an exact counterfactual of its profile run up to the injected effect.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Tuple

from ..types import EnvMeta, FaultKey, LocalState, SiteKind
from .base import INJECTION_WARMUP_MS, FaultModel

#: Local state attached to environment fault firings (there is no call
#: stack to record — the environment acted, not the program).
ENV_STATE = LocalState(("<env>", "<env>"), ())


def _drop_seed(site_id: str, drop_p: float, run_seed: int) -> int:
    """Stable per-(site, probability, run) seed for the drop RNG."""
    material = "%s#%r#%d" % (site_id, drop_p, run_seed)
    return int.from_bytes(hashlib.sha256(material.encode()).digest()[:8], "big")


class EnvironmentFaultModel(FaultModel):
    """Shared plan/arm/fire plumbing of the environment kinds: one plan per
    value of the kind's one parameter ``param_names[0]``, swept over
    ``default_sweep`` unless ``--sweep`` overrides it."""

    environment = True
    default_sweep: Tuple[float, ...] = ()

    def sweep_spec(self, config) -> Dict[str, Tuple[float, ...]]:
        return {self.param_names[0]: config.sweep_for(self.kind_id, self.default_sweep)}

    def plans_for(self, fault: FaultKey, config, registry) -> List:
        from ..instrument.plan import InjectionPlan

        name = self.param_names[0]
        return [
            InjectionPlan(fault, warmup_ms=INJECTION_WARMUP_MS, params=((name, value),))
            for value in self.sweep_spec(config)[name]
        ]

    def arm(self, env: Any, runtime: Any, plan) -> None:
        meta = runtime.registry.get(plan.fault.site_id).env
        if meta is None:
            raise ValueError(
                "site %s is not an environment site; %s faults need one"
                % (plan.fault.site_id, self.kind_id)
            )
        env.schedule_at(plan.warmup_ms, None, self._fire, env, runtime.trace, plan, meta)

    def _record(self, env: Any, trace: Any, plan) -> None:
        from ..instrument.trace import FaultEvent  # deferred: trace imports plan

        trace.record_event(FaultEvent(plan.fault, ENV_STATE, injected=True))

    def _fire(self, env: Any, trace: Any, plan, meta: EnvMeta) -> None:
        raise NotImplementedError


class NodeCrashFault(EnvironmentFaultModel):
    """Crash one node at fire time; restart it ``restart_ms`` later.

    A restart clears the crash flag and invokes the node's ``on_restart``
    hook (re-registering periodic behaviour, resetting volatile role
    state); ``restart_ms = 0`` means the node stays down for the rest of
    the run.
    """

    kind_id = "node_crash"
    char = "C"
    site_kinds = (SiteKind.ENV_NODE,)
    param_names = ("restart_ms",)
    #: A quick crash-recover bounce and a long outage.
    default_sweep = (10_000.0, 40_000.0)

    def validate_plan(self, plan) -> None:
        super().validate_plan(plan)
        if plan.param("restart_ms") < 0:
            raise ValueError("restart_ms must be >= 0 (0 = never restart)")

    def validate_sweep(self, values) -> None:
        import math

        for value in values:
            if not math.isfinite(value) or value < 0:
                raise ValueError(
                    "node_crash restart_ms sweep values must be finite and "
                    ">= 0 (0 = never restart), got %r" % (value,)
                )

    def _fire(self, env: Any, trace: Any, plan, meta: EnvMeta) -> None:
        node = env.node_named(meta.node)
        if node is None or getattr(node, "crashed", False):
            return  # the workload never built this node, or it is already down
        self._record(env, trace, plan)
        node.crash()
        restart = plan.param("restart_ms", 0.0)
        if restart:
            env.schedule_at(env.now + restart, None, node.restart)


class PartitionFault(EnvironmentFaultModel):
    """Cut one link at fire time; heal it ``duration_ms`` later."""

    kind_id = "partition"
    char = "P"
    site_kinds = (SiteKind.ENV_LINK,)
    param_names = ("duration_ms",)
    #: One cut shorter and one longer than the reduced 10-20 s timeouts
    #: (§4.2).
    default_sweep = (15_000.0, 45_000.0)

    def validate_plan(self, plan) -> None:
        super().validate_plan(plan)
        if not plan.param("duration_ms", 0.0) > 0:
            raise ValueError("partition duration_ms must be positive")

    def _fire(self, env: Any, trace: Any, plan, meta: EnvMeta) -> None:
        a, b = meta.link
        self._record(env, trace, plan)
        env.partition_names(a, b)
        env.schedule_at(env.now + plan.param("duration_ms"), None, env.heal_names, a, b)


class MsgDropFault(EnvironmentFaultModel):
    """Probabilistic, seeded datagram loss on one link from fire time on.

    Only one-way messages (``SimEnv.send``) are dropped — RPCs model a
    connection-oriented transport and keep their timeout semantics.
    """

    kind_id = "msg_drop"
    char = "X"
    site_kinds = (SiteKind.ENV_LINK,)
    param_names = ("drop_p",)
    default_sweep = (0.3, 0.7)

    def validate_plan(self, plan) -> None:
        super().validate_plan(plan)
        p = plan.param("drop_p", 0.0)
        if not 0.0 < p <= 1.0:
            raise ValueError("drop_p must be in (0, 1], got %r" % (p,))

    def validate_sweep(self, values) -> None:
        for value in values:
            if not 0.0 < value <= 1.0:
                raise ValueError(
                    "msg_drop drop_p sweep values must be in (0, 1], got %r"
                    % (value,)
                )

    def _fire(self, env: Any, trace: Any, plan, meta: EnvMeta) -> None:
        a, b = meta.link
        p = plan.param("drop_p")
        self._record(env, trace, plan)
        env.set_drop_rule(a, b, p, _drop_seed(plan.fault.site_id, p, trace.seed))
