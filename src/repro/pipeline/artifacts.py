"""Typed pipeline artifacts and their JSON codecs.

Each pipeline stage publishes exactly one named artifact; this module
defines the wrapper types that carry driver bookkeeping alongside the
domain results, plus a ``dump``/``load`` codec per artifact name.  The
codec registry (:data:`ARTIFACT_CODECS`) is what session persistence
iterates over — adding a new stage with a durable artifact means
registering its codec here.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Tuple

from ..core.allocation import AllocationOutcome, AllocationRecord
from ..core.beam import BeamSearchResult
from ..core.compat import CompatChecker
from ..core.report import DetectionReport
from ..instrument.trace import RunGroup
from ..serialize import (
    analysis_from_obj,
    analysis_to_obj,
    clustering_from_obj,
    clustering_to_obj,
    cycle_from_obj,
    cycle_to_obj,
    fault_from_obj,
    fault_to_obj,
    fca_from_obj,
    fca_to_obj,
    group_from_obj,
    group_to_obj,
)

# ---------------------------------------------------------------- wrappers


@dataclass
class ProfilesArtifact:
    """Profile run groups plus the driver's run counter at stage end."""

    groups: Dict[str, RunGroup] = field(default_factory=dict)
    runs_executed: int = 0


@dataclass
class AllocationArtifact:
    """3PA outcome plus the driver counters at stage end.

    The edge DB is *not* stored separately: replaying each record's FCA
    edges in record order rebuilds it exactly (same insertion order, same
    merged state sets).
    """

    outcome: AllocationOutcome
    experiments_run: int = 0
    runs_executed: int = 0


# ------------------------------------------------------------------ codecs


def _profiles_dump(artifact: ProfilesArtifact) -> Dict[str, Any]:
    return {
        "runs_executed": artifact.runs_executed,
        "groups": {t: group_to_obj(g) for t, g in sorted(artifact.groups.items())},
    }


def _profiles_load(obj: Dict[str, Any]) -> ProfilesArtifact:
    return ProfilesArtifact(
        groups={t: group_from_obj(g) for t, g in obj["groups"].items()},
        runs_executed=obj["runs_executed"],
    )


def _allocation_dump(artifact: AllocationArtifact) -> Dict[str, Any]:
    outcome = artifact.outcome
    return {
        "experiments_run": artifact.experiments_run,
        "runs_executed": artifact.runs_executed,
        "budget_total": outcome.budget_total,
        "budget_used": outcome.budget_used,
        "unreachable": [fault_to_obj(f) for f in outcome.unreachable],
        "clustering": clustering_to_obj(outcome.clustering),
        "cluster_scores": [
            [int(cid), float(score)] for cid, score in sorted(outcome.cluster_scores.items())
        ],
        "fault_scores": [
            [fault_to_obj(f), float(score)]
            for f, score in sorted(outcome.fault_scores.items())
        ],
        "records": [
            {
                "phase": r.phase,
                "fault": fault_to_obj(r.fault),
                "test_id": r.test_id,
                "result": fca_to_obj(r.result) if r.result is not None else None,
            }
            for r in outcome.records
        ],
    }


def _allocation_load(obj: Dict[str, Any]) -> AllocationArtifact:
    outcome = AllocationOutcome(
        records=[
            AllocationRecord(
                phase=r["phase"],
                fault=fault_from_obj(r["fault"]),
                test_id=r["test_id"],
                result=fca_from_obj(r["result"]) if r["result"] is not None else None,
            )
            for r in obj["records"]
        ],
        clustering=clustering_from_obj(obj["clustering"]),
        cluster_scores={cid: score for cid, score in obj["cluster_scores"]},
        fault_scores={fault_from_obj(f): score for f, score in obj["fault_scores"]},
        budget_total=obj["budget_total"],
        budget_used=obj["budget_used"],
        unreachable=[fault_from_obj(f) for f in obj["unreachable"]],
    )
    return AllocationArtifact(
        outcome=outcome,
        experiments_run=obj["experiments_run"],
        runs_executed=obj["runs_executed"],
    )


def _beam_dump(result: BeamSearchResult) -> Dict[str, Any]:
    return {
        "cycles": [cycle_to_obj(c) for c in result.cycles],
        "chains_explored": result.chains_explored,
        "levels": result.levels,
        "compat": asdict(result.compat) if result.compat is not None else None,
    }


def _beam_load(obj: Dict[str, Any]) -> BeamSearchResult:
    compat = obj["compat"]
    return BeamSearchResult(
        cycles=[cycle_from_obj(c) for c in obj["cycles"]],
        chains_explored=obj["chains_explored"],
        levels=obj["levels"],
        compat=CompatChecker(**compat) if compat is not None else None,
    )


#: artifact name -> (dump to JSON-compatible obj, load back).
ARTIFACT_CODECS: Dict[str, Tuple[Callable[[Any], Any], Callable[[Any], Any]]] = {
    "analysis": (analysis_to_obj, analysis_from_obj),
    "profiles": (_profiles_dump, _profiles_load),
    "allocation": (_allocation_dump, _allocation_load),
    "beam": (_beam_dump, _beam_load),
    "report": (lambda r: r.to_dict(), DetectionReport.from_dict),
}
