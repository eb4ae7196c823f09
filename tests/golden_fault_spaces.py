"""Golden fault spaces: what the static analyzer puts in F, per flavour.

For every registered system and four fault-space flavours — the paper's
classic kinds, every single-fault kind, and each of those plus every
registered fault schedule — the ``analyze`` pipeline stage selects a
fault space F.  Each one is pinned by its fault count and one sha256
over its sorted ``site:kind`` keys.  Exclusion reasons are not pinned:
they say why a site is *not* in F, not what is.

``golden_fault_spaces.json`` was recorded on the commit *before* fault
schedules moved into the single fault-model registry; a change of the
registry or the analyzer that keeps every digest keeps every campaign's
fault space.

It is the ``fault_spaces`` entry of ``tests/golden.py``: one row per
system, holding all four flavours.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict

from repro.config import CSnakeConfig
from repro.faults import expand_kinds, registered_schedules
from repro.instrument.analyzer import AnalysisResult
from repro.pipeline import PipelineContext
from repro.pipeline.stages import analyze_stage
from repro.systems import get_system


def flavours() -> Dict[str, Dict[str, Any]]:
    """Flavour name -> the ``CSnakeConfig`` fields that decide F."""
    kinds = {"classic": {}, "all": {"fault_kinds": expand_kinds("all")}}
    out = dict(kinds)
    for name, params in kinds.items():
        out[name + "+schedules"] = dict(params, schedules=tuple(registered_schedules()))
    return out


def fault_space(system: str, flavour: str) -> AnalysisResult:
    """The fault space a campaign's ``analyze`` stage selects."""
    ctx = PipelineContext(get_system(system), CSnakeConfig(**flavours()[flavour]))
    analyze_stage(ctx)
    return ctx.get("analysis")


def fault_space_row(system: str, flavour: str) -> Dict[str, Any]:
    keys = sorted("%s:%s" % (f.site_id, f.kind) for f in fault_space(system, flavour).faults)
    return {
        "faults": len(keys),
        "sha256": hashlib.sha256("\n".join(keys).encode("utf-8")).hexdigest(),
    }


def system_rows(system: str) -> Dict[str, Dict[str, Any]]:
    """Flavour name -> fault-space row, for one system."""
    return {flavour: fault_space_row(system, flavour) for flavour in flavours()}
