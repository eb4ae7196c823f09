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
  sites a system declares via :class:`EnvFaultPort`.

:func:`fault_models_digest` fingerprints the registered models and is a
component of every experiment-cache key: registering, versioning, or
changing a model invalidates cached results that could now differ.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterable, List, Tuple, Union

from ..types import InjKind, SiteKind, register_primary_kind
from .base import INJECTION_WARMUP_MS, EnvFaultPort, FaultModel
from .classic import DelayFault, ExceptionFault, NegationFault
from .environment import ENV_STATE, MsgDropFault, NodeCrashFault, PartitionFault

#: Registered models by kind id, in registration order.
_MODELS: Dict[str, FaultModel] = {}

#: The paper's taxonomy — the default ``CSnakeConfig.fault_kinds``.
CLASSIC_FAULT_KINDS: Tuple[str, ...] = ("exception", "delay", "negation")


def register(model: FaultModel) -> FaultModel:
    """Register a fault model, interning its kind handle.

    Re-registering the same kind id replaces the model (supported for
    tests); the interned :class:`InjKind` instance is stable either way.
    """
    if not model.kind_id:
        raise ValueError("a fault model needs a non-empty kind_id")
    InjKind._intern(model.kind_id)
    for site_kind in model.primary_site_kinds:
        register_primary_kind(site_kind, InjKind(model.kind_id))
    _MODELS[model.kind_id] = model
    return model


def model_for(kind: Union[str, InjKind]) -> FaultModel:
    """The registered model behind a kind id or :class:`InjKind` handle.

    Falls back to the fault-*schedule* registry (``repro.faults.schedule``)
    so a composed kind resolves everywhere a single-fault kind does —
    plan validation, serialization codecs, FCA edge typing, signature
    chars — without entering ``_MODELS`` (``expand_kinds("all")`` and
    ``fault_models_digest()`` stay schedule-free).
    """
    kind_id = kind.value if isinstance(kind, InjKind) else kind
    model = _MODELS.get(kind_id)
    if model is not None:
        return model
    from . import schedule as _schedule  # deferred: schedule imports this package

    sched = _schedule._SCHEDULES.get(kind_id)
    if sched is not None:
        return sched
    raise ValueError(
        "no fault model registered for kind %r (known: %s)"
        % (kind_id, ", ".join(list(_MODELS) + list(_schedule._SCHEDULES)))
    )


def all_models() -> List[FaultModel]:
    """Every registered model, in registration order."""
    return list(_MODELS.values())


def registered_kinds() -> List[str]:
    return list(_MODELS)


def models_for_site_kind(site_kind: SiteKind) -> List[FaultModel]:
    """Models that can inject at ``site_kind``, in registration order."""
    return [m for m in _MODELS.values() if site_kind in m.site_kinds]


def expand_kinds(text: Union[str, Iterable[str]]) -> Tuple[str, ...]:
    """Resolve a ``--fault-kinds`` value to a tuple of kind ids.

    Accepts ``"all"`` (every registered kind), ``"classic"`` (the paper's
    three), a comma-separated string, or an iterable of ids.  Unknown ids
    raise ``ValueError`` listing what is registered.
    """
    if isinstance(text, str):
        if text == "all":
            return tuple(_MODELS)
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
    semantics (its ``version``, targets, parameters) shifts this digest,
    so cached results produced under a different fault vocabulary read as
    clean misses instead of stale hits.
    """
    material = [m.descriptor() for m in sorted(_MODELS.values(), key=lambda m: m.kind_id)]
    return hashlib.sha256(json.dumps(material, sort_keys=True).encode()).hexdigest()


# Bundled models: the paper's three kinds, then the environment kinds.
register(ExceptionFault())
register(DelayFault())
register(NegationFault())
register(NodeCrashFault())
register(PartitionFault())
register(MsgDropFault())

# Compositional fault schedules live in their own registry; importing the
# module (after the single-fault kinds exist — schedules compose them)
# registers the bundled schedules and re-exports the combinator API.
from .schedule import (  # noqa: E402  (models must register first)
    FaultSchedule,
    ScheduleFaultModel,
    TimedFault,
    all_schedules,
    expand_schedules,
    overlap,
    register_schedule,
    registered_schedules,
    schedule_for,
    schedule_model_for,
    schedules_digest,
    seq,
    stagger,
    timed,
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
    "register_schedule",
    "schedule_for",
    "schedule_model_for",
    "all_schedules",
    "registered_schedules",
    "expand_schedules",
    "schedules_digest",
]
