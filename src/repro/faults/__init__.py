"""Pluggable fault-model registry: the open set of injectable fault kinds.

The paper's detector shipped a closed taxonomy of three fault kinds wired
through five layers as enum branches.  This package replaces that with a
plugin registry: each kind is a declarative :class:`FaultModel` carrying
its identity, target site kinds, parameter sweep, arm/fire semantics, and
serialization codec.  The driver, static analyzer, serializer, cache, and
CLI all resolve kinds through :func:`model_for` instead of branching.

Bundled models:

* the three paper kinds (:mod:`repro.faults.classic`) — exception, delay,
  negation — bit-identical to their pre-registry behaviour;
* three environment kinds (:mod:`repro.faults.environment`) —
  ``node_crash``, ``partition``, ``msg_drop`` — targeting the environment
  sites a system declares via :class:`EnvFaultPort`;
* two composed fault schedules (:mod:`repro.faults.schedule`) —
  ``membership_churn``, ``partition_during_restart`` — each a
  :class:`ScheduleFaultModel` anchored at ``ENV_NODE`` sites.

One table, ``_MODELS``, holds them all: a schedule is a registered kind
like any other, told apart only where the config keeps the two lists
(``expand_kinds("all")`` is the single-fault kinds, ``CSnakeConfig.schedules``
and :func:`registered_schedules` the composed ones).
:func:`fault_models_digest` fingerprints every registered model and is a
component of every experiment-cache key: registering, versioning, or
changing a model or a schedule invalidates cached results that could now
differ.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterable, List, Tuple, Union

from ..types import DELAY, EXCEPTION, NEGATION, SiteKind
from .base import INJECTION_WARMUP_MS, EnvFaultPort, FaultModel
from .classic import DelayFault, ExceptionFault, NegationFault
from .environment import ENV_STATE, MsgDropFault, NodeCrashFault, PartitionFault
from .schedule import FaultSchedule, ScheduleFaultModel, TimedFault, overlap, seq, stagger, timed

#: Registered models by kind id, in registration order.
_MODELS: Dict[str, FaultModel] = {}

#: The paper's taxonomy — the default ``CSnakeConfig.fault_kinds``.
CLASSIC_FAULT_KINDS: Tuple[str, ...] = (EXCEPTION, DELAY, NEGATION)


def register(model: FaultModel) -> FaultModel:
    """Register a fault model (a schedule is one too) under its
    ``kind_id``, the string every :class:`FaultKey` of the kind carries.
    A kind id names one model for good: registering a second model under
    a registered id is a ``ValueError``."""
    if not model.kind_id:
        raise ValueError("a fault model needs a non-empty kind_id")
    if model.kind_id in _MODELS:
        raise ValueError("fault kind %r is already registered" % model.kind_id)
    _MODELS[model.kind_id] = model
    return model


def model_for(kind_id: str) -> FaultModel:
    """The registered model behind a kind id; ``ValueError`` if none is."""
    try:
        return _MODELS[kind_id]
    except KeyError:
        raise ValueError(
            "no fault model registered for kind %r (known: %s)"
            % (kind_id, ", ".join(_MODELS))
        ) from None


def all_models() -> List[FaultModel]:
    """Every registered model, schedules included, in registration order."""
    return list(_MODELS.values())


def registered_kinds() -> List[str]:
    """Every registered kind id, schedules included, in registration order."""
    return list(_MODELS)


def registered_schedules() -> List[str]:
    """The registered kind ids that are composed schedules."""
    return [k for k, m in _MODELS.items() if isinstance(m, ScheduleFaultModel)]


def models_for_site_kind(site_kind: SiteKind) -> List[FaultModel]:
    """Models that can inject at ``site_kind``, in registration order."""
    return [m for m in _MODELS.values() if site_kind in m.site_kinds]


def expand_kinds(text: Union[str, Iterable[str]]) -> Tuple[str, ...]:
    """Resolve a ``--fault-kinds`` value to a tuple of kind ids.

    Accepts ``"all"`` (every registered single-fault kind — schedules are
    opted into through ``CSnakeConfig.schedules``), ``"classic"`` (the
    paper's three), a comma-separated string, or an iterable of ids.
    Unknown ids raise ``ValueError`` listing what is registered.
    """
    if isinstance(text, str):
        if text == "all":
            schedules = registered_schedules()
            return tuple(k for k in _MODELS if k not in schedules)
        if text == "classic":
            return CLASSIC_FAULT_KINDS
        names = tuple(n.strip() for n in text.split(",") if n.strip())
    else:
        names = tuple(text)
    unknown = [n for n in names if n not in _MODELS]
    if unknown:
        raise ValueError(
            "unknown fault kind(s) %s; registered: %s"
            % (", ".join(unknown), ", ".join(_MODELS))
        )
    if not names:
        raise ValueError("fault_kinds must name at least one registered kind")
    return names


def fault_models_digest() -> str:
    """Content digest of the registered fault models.

    A component of every experiment-cache key (see ``repro.cache``): any
    change to the set of registered models or to a model's declared
    semantics (its ``version``, targets, parameters, a schedule's
    composition) shifts this digest,
    so cached results produced under a different fault vocabulary read as
    clean misses instead of stale hits.
    """
    material = [m.descriptor() for m in sorted(_MODELS.values(), key=lambda m: m.kind_id)]
    return hashlib.sha256(json.dumps(material, sort_keys=True).encode()).hexdigest()


# Bundled models: the paper's three kinds, the environment kinds, then the
# schedules composing them (``timed`` accepts registered single-fault kinds).
register(ExceptionFault())
register(DelayFault())
register(NegationFault())
register(NodeCrashFault())
register(PartitionFault())
register(MsgDropFault())
register(
    ScheduleFaultModel(
        FaultSchedule(
            name="membership_churn",
            char="M",
            description="rolling crash/restart wave across every cluster node, "
            "anchor node first",
            events=stagger(
                timed("node_crash", site="nodes", restart_ms=10_000.0), step_ms=15_000.0
            ),
        )
    )
)
register(
    ScheduleFaultModel(
        FaultSchedule(
            name="partition_during_restart",
            char="R",
            description="crash/restart the anchor node and cut its first link "
            "while it recovers",
            events=overlap(
                timed("node_crash", site="primary", restart_ms=20_000.0),
                timed("partition", site="adjacent_link", offset_ms=5_000.0,
                      duration_ms=40_000.0),
            ),
        )
    )
)

__all__ = [
    "FaultModel",
    "EnvFaultPort",
    "ENV_STATE",
    "INJECTION_WARMUP_MS",
    "CLASSIC_FAULT_KINDS",
    "register",
    "model_for",
    "all_models",
    "registered_kinds",
    "registered_schedules",
    "models_for_site_kind",
    "expand_kinds",
    "fault_models_digest",
    "FaultSchedule",
    "ScheduleFaultModel",
    "TimedFault",
    "timed",
    "seq",
    "overlap",
    "stagger",
]
