"""Compositional fault schedules: k-fault timed compositions.

A :class:`FaultSchedule` is a named composition of *timed events*, each
one an occurrence of a registered single-fault :class:`FaultModel`
(``node_crash``, ``partition``, ...) at a site *selector* and a start
offset.  Compositions are built with three combinators:

* :func:`overlap` — events run concurrently, keeping their own offsets
  (a partition *during* a crash-restart window);
* :func:`seq` — events chain back to back, each one starting when the
  previous one's duration-bearing parameter says it ends;
* :func:`stagger` — one event template fans out across a multi-site
  selector as a wave, successive occurrences ``step_ms`` apart
  (membership churn: rolling crash/restart over every cluster node).

A schedule is registered like every other fault model:
``register(ScheduleFaultModel(FaultSchedule(...)))`` puts it in the one
kind table, so the driver, serializer, FCA, cycle signatures and the
fault-model digest (every experiment-cache key) see it through
:func:`~repro.faults.model_for`.  What sets it apart is only opt-in: a
campaign enables schedules through ``CSnakeConfig.schedules`` /
``--schedules``, not through ``fault_kinds``, and ``expand_kinds("all")``
leaves them out.

Site selectors are resolved against the *anchor* site (the ``ENV_NODE``
site the schedule fault targets) at plan time, purely from the site
registry's declaration order, so plans are deterministic and carry fully
concrete ``(site, kind, offset, params)`` event tuples — worker processes
arm them without re-planning.  The static analyzer keeps a schedule at
the anchor sites where every selector resolves
(:meth:`ScheduleFaultModel.injects_at`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Tuple

from ..types import FaultKey, SiteKind
from .base import INJECTION_WARMUP_MS, FaultModel

if TYPE_CHECKING:
    from ..config import CSnakeConfig
    from ..instrument.plan import InjectionPlan
    from ..instrument.sites import SiteRegistry

#: Duration-bearing parameter per composable kind: :func:`seq` uses it to
#: chain events back to back (kinds without one count as instantaneous).
_DURATION_PARAM: Dict[str, str] = {
    "node_crash": "restart_ms",
    "partition": "duration_ms",
}

#: Site selectors a timed event may name, resolved at plan time against
#: the schedule's anchor node (see ``ScheduleFaultModel.resolve_events``).
SITE_SELECTORS: Tuple[str, ...] = ("primary", "adjacent_link", "nodes", "other_nodes")


@dataclass(frozen=True)
class TimedFault:
    """One occurrence of a registered fault kind inside a schedule."""

    kind_id: str
    site: str = "primary"
    offset_ms: float = 0.0
    params: Tuple[Tuple[str, float], ...] = ()
    #: Per-occurrence offset increment when ``site`` resolves to several
    #: sites (set by :func:`stagger`; 0 = all occurrences start together).
    stagger_ms: float = 0.0

    def duration_ms(self) -> float:
        """How long this event's disturbance lasts (0 = instantaneous)."""
        name = _DURATION_PARAM.get(self.kind_id)
        if name is None:
            return 0.0
        return dict(self.params).get(name, 0.0)

    def descriptor(self) -> List[Any]:
        return [
            self.kind_id,
            self.site,
            self.offset_ms,
            [[n, v] for n, v in self.params],
            self.stagger_ms,
        ]


def timed(
    kind_id: str, site: str = "primary", offset_ms: float = 0.0, **params: float
) -> TimedFault:
    """A :class:`TimedFault` with validated kind and selector."""
    from . import expand_kinds  # deferred: package imports this module

    if kind_id not in expand_kinds("all"):
        raise ValueError(
            "schedules compose registered single-fault kinds, got %r (known: %s)"
            % (kind_id, ", ".join(expand_kinds("all")))
        )
    if site not in SITE_SELECTORS:
        raise ValueError(
            "unknown site selector %r; choose from %s" % (site, ", ".join(SITE_SELECTORS))
        )
    return TimedFault(
        kind_id,
        site,
        float(offset_ms),
        tuple(sorted((name, float(value)) for name, value in params.items())),
    )


# ------------------------------------------------------------- combinators


def overlap(*events: TimedFault) -> Tuple[TimedFault, ...]:
    """Concurrent composition: every event keeps its own offset."""
    if not events:
        raise ValueError("overlap() needs at least one event")
    return tuple(events)


def seq(*events: TimedFault, gap_ms: float = 0.0) -> Tuple[TimedFault, ...]:
    """Sequential composition: each event starts after the previous one
    ends (its duration-bearing parameter) plus ``gap_ms``."""
    if not events:
        raise ValueError("seq() needs at least one event")
    out: List[TimedFault] = []
    cursor = 0.0
    for ev in events:
        placed = dataclasses.replace(ev, offset_ms=cursor + ev.offset_ms)
        out.append(placed)
        cursor = placed.offset_ms + ev.duration_ms() + gap_ms
    return tuple(out)


def stagger(event: TimedFault, step_ms: float) -> Tuple[TimedFault, ...]:
    """Wave composition: when ``event.site`` resolves to several sites,
    the i-th occurrence starts ``i * step_ms`` after the first."""
    if step_ms <= 0:
        raise ValueError("stagger step_ms must be positive")
    return (dataclasses.replace(event, stagger_ms=float(step_ms)),)


# ---------------------------------------------------------------- schedule


@dataclass(frozen=True)
class FaultSchedule:
    """A named, registered k-fault composition."""

    name: str
    char: str
    description: str
    events: Tuple[TimedFault, ...]
    version: str = "1"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a fault schedule needs a non-empty name")
        if not self.events:
            raise ValueError("schedule %r composes no events" % self.name)

    def descriptor(self) -> List[Any]:
        """Digest material: everything result-affecting about the schedule."""
        return [
            self.name,
            self.version,
            self.char,
            [ev.descriptor() for ev in self.events],
        ]


class ScheduleFaultModel(FaultModel):
    """FaultModel adapter over one registered :class:`FaultSchedule`.

    Anchored at ``ENV_NODE`` sites: the anchor node is the selector
    origin (``primary``), and every composed event resolves to a concrete
    environment site relative to it.  Arming delegates each resolved
    event to its single-fault model with a sub-plan offset into the run.
    """

    environment = True
    delay_like = False
    site_kinds = (SiteKind.ENV_NODE,)
    param_names = ("events",)

    def __init__(self, schedule: FaultSchedule) -> None:
        self.schedule = schedule
        self.kind_id = schedule.name
        self.char = schedule.char
        self.version = schedule.version

    def descriptor(self) -> List[Any]:
        return super().descriptor() + [self.schedule.descriptor()]

    # ---------------------------------------------------------------- plans

    def sweep_spec(self, config: "CSnakeConfig") -> Dict[str, Tuple[float, ...]]:
        """One plan per ``time_scale`` value (default: the composition as
        declared); a ``--sweep <name>=0.5,1,2`` override stretches or
        compresses every event offset."""
        return {"time_scale": config.sweep_for(self.kind_id, (1.0,))}

    def plans_for(
        self, fault: FaultKey, config: "CSnakeConfig", registry: "SiteRegistry"
    ) -> List["InjectionPlan"]:
        from ..instrument.plan import InjectionPlan, make_params

        return [
            InjectionPlan(
                fault,
                warmup_ms=INJECTION_WARMUP_MS,
                params=make_params(
                    events=self.resolve_events(fault.site_id, registry, scale)
                ),
            )
            for scale in self.sweep_spec(config)["time_scale"]
        ]

    def resolve_events(
        self, site_id: str, registry: "SiteRegistry", scale: float = 1.0
    ) -> Tuple[Tuple[str, str, float, Tuple[Tuple[str, float], ...]], ...]:
        """Concrete ``(site, kind, offset, params)`` tuples for an anchor.

        Resolution is a pure function of the registry's declaration order
        (deterministic per system builder), so identical plans are built
        in every process of a campaign.
        """
        anchor = registry.get(site_id).env
        if anchor is None or anchor.node is None:
            raise ValueError(
                "schedule %r must anchor at an ENV_NODE site, got %s"
                % (self.kind_id, site_id)
            )
        node_sites = registry.by_kind(SiteKind.ENV_NODE)
        names = [s.env.node for s in node_sites if s.env is not None]
        if anchor.node in names:
            pivot = names.index(anchor.node)
            rotated = names[pivot:] + names[:pivot]
        else:  # pragma: no cover - anchor always among the declared nodes
            rotated = [anchor.node] + names
        by_node = {
            s.env.node: s.site_id for s in node_sites if s.env is not None
        }
        resolved: List[Tuple[str, str, float, Tuple[Tuple[str, float], ...]]] = []
        for ev in self.schedule.events:
            targets = self._targets(ev.site, anchor.node, rotated, by_node, registry)
            for i, target in enumerate(targets):
                offset = (ev.offset_ms + i * ev.stagger_ms) * scale
                resolved.append((target, ev.kind_id, offset, ev.params))
        return tuple(resolved)

    def injects_at(self, site_id: str, registry: "SiteRegistry") -> bool:
        """Whether this schedule can anchor at ``site_id``: every selector
        resolves there (a node with no adjacent link cannot anchor a
        composition that needs one)."""
        try:
            self.resolve_events(site_id, registry)
        except ValueError:
            return False
        return True

    def _targets(
        self,
        selector: str,
        primary: str,
        rotated: List[str],
        by_node: Dict[str, str],
        registry: "SiteRegistry",
    ) -> List[str]:
        if selector == "primary":
            return [by_node[primary]]
        if selector == "nodes":
            return [by_node[n] for n in rotated]
        if selector == "other_nodes":
            return [by_node[n] for n in rotated if n != primary]
        if selector == "adjacent_link":
            links = sorted(
                s.site_id
                for s in registry.by_kind(SiteKind.ENV_LINK)
                if s.env is not None and s.env.link is not None and primary in s.env.link
            )
            if not links:
                raise ValueError(
                    "schedule %r needs a link adjacent to node %r, but the "
                    "system declares none" % (self.kind_id, primary)
                )
            return links[:1]
        raise ValueError("unknown site selector %r" % selector)

    # ----------------------------------------------------------- validation

    def validate_plan(self, plan: "InjectionPlan") -> None:
        super().validate_plan(plan)
        events = plan.param("events", ())
        if not events:
            raise ValueError("schedule %r plan composes no events" % self.kind_id)
        for entry in events:
            if len(entry) != 4:
                raise ValueError(
                    "schedule event must be (site, kind, offset_ms, params), got %r"
                    % (entry,)
                )
            _, _, offset_ms, _ = entry
            if offset_ms < 0:
                raise ValueError("schedule event offsets must be >= 0")

    # ------------------------------------------------------------ semantics

    def arm(self, env: Any, runtime: Any, plan: "InjectionPlan") -> None:
        """Arm every composed event as a sub-plan of its own model."""
        from . import model_for
        from ..instrument.plan import InjectionPlan

        for site_id, kind_id, offset_ms, params in plan.param("events", ()):
            sub_plan = InjectionPlan(
                FaultKey(site_id, kind_id),
                warmup_ms=plan.warmup_ms + offset_ms,
                params=params,
            )
            model_for(kind_id).arm(env, runtime, sub_plan)

    # ---------------------------------------------------------------- codec

    def params_to_obj(self, plan: "InjectionPlan") -> Dict[str, Any]:
        return {
            "events": [
                [site_id, kind_id, offset_ms, [[n, v] for n, v in params]]
                for site_id, kind_id, offset_ms, params in plan.param("events", ())
            ]
        }

    def params_from_obj(self, obj: Dict[str, Any]) -> Tuple[Tuple[str, Any], ...]:
        events = tuple(
            (
                str(site_id),
                str(kind_id),
                float(offset_ms),
                tuple((str(n), float(v)) for n, v in params),
            )
            for site_id, kind_id, offset_ms, params in obj.get("events", [])
        )
        return (("events", events),)
