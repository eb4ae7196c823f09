"""The paper's three fault kinds, ported onto the FaultModel registry."""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..types import DELAY, EXCEPTION, NEGATION, FaultKey, SiteKind
from .base import INJECTION_WARMUP_MS, FaultModel


class ExceptionFault(FaultModel):
    """One-time throw at a THROW/LIB_CALL site (§4.2)."""

    kind_id = EXCEPTION
    char = "E"
    site_kinds = (SiteKind.THROW, SiteKind.LIB_CALL)


class DelayFault(FaultModel):
    """Per-iteration spinning delay at a LOOP site, swept over the
    configured delay values (§4.2) — one FCA per value, one budget unit."""

    kind_id = DELAY
    char = "D"
    site_kinds = (SiteKind.LOOP,)
    delay_like = True

    def sweep_spec(self, config) -> Dict[str, Tuple[float, ...]]:
        return {"delay_ms": config.sweep_for("delay", config.delay_values_ms)}

    def plans_for(self, fault: FaultKey, config, registry) -> List:
        from ..instrument.plan import InjectionPlan

        return [
            InjectionPlan(fault, delay_ms=value, warmup_ms=INJECTION_WARMUP_MS)
            for value in self.sweep_spec(config)["delay_ms"]
        ]

    def validate_plan(self, plan) -> None:
        if plan.delay_ms is None:
            raise ValueError("delay injection requires delay_ms")
        if not plan.delay_ms > 0:
            raise ValueError("delay_ms must be positive, got %r" % (plan.delay_ms,))
        self._validate_param_names(plan)


class NegationFault(FaultModel):
    """Negated return value at a DETECTOR site, once — like the one-time
    exception of §4.2."""

    kind_id = NEGATION
    char = "N"
    site_kinds = (SiteKind.DETECTOR,)
