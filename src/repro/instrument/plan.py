"""Injection plans: what the runtime agent (or the sim) arms for one run."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from ..types import DELAY, FaultKey

#: Generic per-model parameters of a plan, as a sorted, hashable tuple of
#: (name, value) pairs — e.g. ``(("duration_ms", 15000.0),)`` for a
#: partition fault.  The delay kind keeps its dedicated ``delay_ms`` field
#: for ergonomics and serialization stability.
PlanParams = Tuple[Tuple[str, Any], ...]


def make_params(**values: Any) -> PlanParams:
    """Normalize keyword parameters into the canonical sorted tuple form."""
    return tuple(sorted(values.items()))


@dataclass(frozen=True)
class InjectionPlan:
    """One armed fault for one run.

    * ``EXCEPTION``: a one-time throw the next time the guarding
      if-statement (throw point) or library call site is reached.
    * ``DELAY``: ``delay_ms`` of spinning added to **every** iteration of
      the target loop.
    * ``NEGATION``: the detector's return value is negated once, like the
      one-time exception.
    * environment kinds (``node_crash`` / ``partition`` / ``msg_drop``):
      armed against the simulation environment instead of a code hook,
      with their model-specific knobs carried in ``params``.

    Validation is delegated to the fault's registered
    :class:`~repro.faults.FaultModel`, so a new fault kind brings its own
    plan-shape rules instead of growing branches here.
    """

    fault: FaultKey
    delay_ms: Optional[float] = None
    #: Injections stay dormant until this virtual time (planned ones:
    #: ``repro.faults.INJECTION_WARMUP_MS``).
    warmup_ms: float = 0.0
    #: Model-specific parameters (sorted (name, value) pairs).
    params: PlanParams = ()

    def __post_init__(self) -> None:
        if self.params and tuple(sorted(self.params)) != self.params:
            object.__setattr__(self, "params", tuple(sorted(self.params)))
        from ..faults import model_for  # deferred: faults builds plans

        model_for(self.fault.kind).validate_plan(self)

    @property
    def site_id(self) -> str:
        return self.fault.site_id

    def param(self, name: str, default: Any = None) -> Any:
        """Value of one model-specific parameter."""
        for key, value in self.params:
            if key == name:
                return value
        return default

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.fault.kind == DELAY:
            return "%s(%.0fms)" % (self.fault, self.delay_ms or 0.0)
        if self.params:
            # A schedule's one parameter is its tuple of events: count them.
            knobs = ",".join(
                "%s=%g" % (k, v) if isinstance(v, (int, float)) else "%s[%d]" % (k, len(v))
                for k, v in self.params
            )
            return "%s(%s)" % (self.fault, knobs)
        return str(self.fault)
