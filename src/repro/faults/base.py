"""The fault-model plugin API: one declarative class per fault kind.

A :class:`FaultModel` bundles everything the framework needs to know about
one kind of injectable fault:

* **identity** — ``kind_id`` (the kind itself: the string a
  :class:`~repro.types.FaultKey` carries, on the wire and in the cache)
  and ``char`` (its letter in cycle signatures like ``1D|1E|0N``);
* **target sites** — which :class:`~repro.types.SiteKind` values host it,
  and (:meth:`injects_at`) which sites of those kinds it can inject at;
* **parameter sweep** — the plan sweep one budget unit expands to
  (:meth:`plans_for`): the model's default sweep (``delay``'s is
  ``CSnakeConfig.delay_values_ms``), overridable per kind via ``--sweep``;
* **arm/fire semantics** — code-level kinds are armed by the runtime
  agent's hooks; environment-level kinds override :meth:`arm` to schedule
  their disturbance against the simulated world;
* **serialization codec** — :meth:`params_to_obj` / :meth:`params_from_obj`
  round-trip the model-specific plan parameters.

Adding a fault kind means writing one subclass and registering it — no
enum edits, no new branches in the driver, serializer, or cache.  See
docs/fault-model.md for a worked example.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Tuple

from ..types import FaultKey, SiteKind

if TYPE_CHECKING:  # pragma: no cover - typing-only imports (cycle guard)
    from ..config import CSnakeConfig
    from ..instrument.plan import InjectionPlan
    from ..instrument.sites import SiteRegistry

#: Virtual time every planned injection stays dormant for: one-time faults
#: injected into a cold system reach empty queues and exercise nothing
#: (§2's "different time points" — we pick a warmed-up one).
INJECTION_WARMUP_MS = 20_000.0


class FaultModel:
    """Base class of all fault kinds; subclasses override the class attrs.

    Instances are stateless — one registered instance serves every
    campaign — so everything here is declarative or derived from the
    ``(fault, config)`` arguments.
    """

    #: Wire identity of the kind (``FaultKey`` serialization, CLI, cache).
    kind_id: str = ""
    #: Single letter used in cycle signatures (``D``/``E``/``N``/...).
    char: str = "?"
    #: Site kinds this model injects at.
    site_kinds: Tuple[SiteKind, ...] = ()
    #: Table-1 source class: ``True`` puts this kind's edges in the
    #: delay family (``E(D)``/``S+(D)``), ``False`` in the instantaneous
    #: family (``E(I)``/``S+(I)``).
    delay_like: bool = False
    #: Environment-level kinds disturb the simulated world (armed on the
    #: :class:`~repro.sim.SimEnv`), reach every workload by construction,
    #: and are only observable as injections — never as interferences.
    environment: bool = False
    #: Names of the model-specific ``InjectionPlan.params`` entries.
    param_names: Tuple[str, ...] = ()
    #: Bump when the model's semantics change; folded into the
    #: fault-model digest that versions every experiment-cache key.
    version: str = "1"

    # ------------------------------------------------------------- identity

    def descriptor(self) -> List[Any]:
        """Digest material: everything result-affecting about the model."""
        return [
            self.kind_id,
            self.version,
            self.char,
            sorted(k.value for k in self.site_kinds),
            self.delay_like,
            self.environment,
            list(self.param_names),
        ]

    def injects_at(self, site_id: str, registry: "SiteRegistry") -> bool:
        """Whether this model can inject at ``site_id``, a site of one of
        its ``site_kinds`` in ``registry``: yes, unless the model needs
        more of the topology around the site than it has (schedules)."""
        return True

    # ---------------------------------------------------------------- plans

    def sweep_spec(self, config: "CSnakeConfig") -> Dict[str, Tuple[float, ...]]:
        """Parameter name -> swept values under ``config`` (CLI listing)."""
        return {}

    def plans_for(
        self, fault: FaultKey, config: "CSnakeConfig", registry: "SiteRegistry"
    ) -> List["InjectionPlan"]:
        """The plan sweep of one budget unit for ``fault``: by default a
        single plan without parameters.

        ``registry`` is the target system's site registry; only models
        that resolve plan content against the system topology (fault
        schedules resolving site selectors) read it.
        """
        from ..instrument.plan import InjectionPlan

        return [InjectionPlan(fault, warmup_ms=INJECTION_WARMUP_MS)]

    def validate_sweep(self, values: Tuple[float, ...]) -> None:
        """Reject sweep values this model cannot plan with (``ValueError``).

        Called at config-validation time for ``--sweep`` overrides, so a
        bad value fails at startup instead of mid-campaign.  The default
        matches most knobs (delays, durations): finite and positive.
        """
        import math

        for value in values:
            if not math.isfinite(value) or value <= 0:
                raise ValueError(
                    "%s sweep values must be finite and positive, got %r"
                    % (self.kind_id, value)
                )

    def validate_plan(self, plan: "InjectionPlan") -> None:
        """Reject plan shapes this model cannot arm (raises ``ValueError``)."""
        if plan.delay_ms is not None:
            raise ValueError("delay_ms only applies to delay injection")
        self._validate_param_names(plan)

    def _validate_param_names(self, plan: "InjectionPlan") -> None:
        allowed = set(self.param_names)
        given = {name for name, _ in plan.params}
        unknown = given - allowed
        if unknown:
            raise ValueError(
                "%s plan does not take parameter(s) %s"
                % (self.kind_id, ", ".join(sorted(unknown)))
            )
        missing = allowed - given
        if missing:
            raise ValueError(
                "%s plan requires parameter(s) %s"
                % (self.kind_id, ", ".join(sorted(missing)))
            )

    # ------------------------------------------------------------ semantics

    def arm(self, env: Any, runtime: Any, plan: "InjectionPlan") -> None:
        """Hook called once per run before the workload starts.

        Code-level kinds are armed by the runtime agent's instrumentation
        hooks, so the default is a no-op; environment kinds override this
        to schedule their disturbance on the :class:`~repro.sim.SimEnv`.
        """

    # ---------------------------------------------------------------- codec

    def params_to_obj(self, plan: "InjectionPlan") -> Dict[str, Any]:
        """JSON-compatible dump of the model-specific plan parameters."""
        return {name: value for name, value in plan.params}

    def params_from_obj(self, obj: Dict[str, Any]) -> Tuple[Tuple[str, Any], ...]:
        """Inverse of :meth:`params_to_obj` (sorted tuple form)."""
        return tuple(sorted(obj.items()))


@dataclass(frozen=True)
class EnvFaultPort:
    """A system's declaration of its injectable environment surface.

    Attached to :class:`~repro.systems.base.SystemSpec`; registers one
    ``ENV_NODE`` site per crashable node and one ``ENV_LINK`` site per
    severable node pair, which environment fault models then target
    exactly like code sites.  Node names must match the ``Node.name``
    values the system's workloads construct.
    """

    nodes: Tuple[str, ...] = ()
    links: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        normalized = tuple(tuple(sorted(pair)) for pair in self.links)
        object.__setattr__(self, "links", normalized)
        for a, b in normalized:
            if a == b:
                raise ValueError("a link needs two distinct nodes, got %r" % (a,))

    @staticmethod
    def node_site_id(name: str) -> str:
        return "env.node.%s" % name

    @staticmethod
    def link_site_id(a: str, b: str) -> str:
        a, b = sorted((a, b))
        return "env.link.%s~%s" % (a, b)

    def site_ids(self) -> List[str]:
        out = [self.node_site_id(n) for n in self.nodes]
        out.extend(self.link_site_id(a, b) for a, b in self.links)
        return out

    def register_sites(self, registry: Any) -> None:
        """Declare this port's environment sites in a site registry
        (idempotent — identical redeclaration is a no-op)."""
        for name in self.nodes:
            registry.env_node(self.node_site_id(name), node=name)
        for a, b in self.links:
            registry.env_link(self.link_site_id(a, b), link=(a, b))
