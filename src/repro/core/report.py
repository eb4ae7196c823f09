"""Detection reports: cycles, cycle clusters, and ground-truth matching."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..systems.base import KnownBug, SystemSpec
from ..types import CausalEdge
from .clustering import Clustering
from .cycles import Cycle, CycleCluster, cluster_cycles


def _bug_to_obj(bug: KnownBug) -> Dict[str, Any]:
    from ..serialize import fault_to_obj

    return {
        "bug_id": bug.bug_id,
        "description": bug.description,
        "signature": bug.signature,
        "core_faults": sorted(fault_to_obj(f) for f in bug.core_faults),
        "trigger_faults": sorted(fault_to_obj(f) for f in bug.trigger_faults),
        "alt_detectable": bug.alt_detectable,
        "jira": bug.jira,
    }


def _bug_from_obj(obj: Dict[str, Any]) -> KnownBug:
    from ..serialize import fault_from_obj

    return KnownBug(
        bug_id=obj["bug_id"],
        description=obj["description"],
        signature=obj["signature"],
        core_faults=frozenset(fault_from_obj(f) for f in obj["core_faults"]),
        trigger_faults=frozenset(fault_from_obj(f) for f in obj["trigger_faults"]),
        alt_detectable=obj["alt_detectable"],
        jira=obj["jira"],
    )


def _cluster_sig_to_obj(sig: Tuple) -> List[List[Any]]:
    return [list(entry) for entry in sig]


def _cluster_sig_from_obj(obj: List[List[Any]]) -> Tuple:
    return tuple(tuple(entry) for entry in obj)


@dataclass
class BugMatch:
    """A known bug and the reported cycles that expose it."""

    bug: KnownBug
    cycles: List[Cycle] = field(default_factory=list)

    @property
    def detected(self) -> bool:
        return bool(self.cycles)

    @property
    def best_cycle(self) -> Optional[Cycle]:
        if not self.cycles:
            return None
        return min(self.cycles, key=lambda c: (len(c), c.key()))


@dataclass
class DetectionReport:
    """Full outcome of one CSnake run on one system."""

    system: str
    n_faults: int = 0
    n_tests: int = 0
    budget_used: int = 0
    runs_executed: int = 0
    n_edges: int = 0
    #: Injection runs stopped at the sim step limit (runaway composed
    #: faults; graceful degradation — counted, campaign continues).
    aborted_step_limit: int = 0
    cycles: List[Cycle] = field(default_factory=list)
    cycle_clusters: List[CycleCluster] = field(default_factory=list)
    bug_matches: List[BugMatch] = field(default_factory=list)

    @property
    def detected_bugs(self) -> List[str]:
        return [m.bug.bug_id for m in self.bug_matches if m.detected]

    @property
    def missed_bugs(self) -> List[str]:
        return [m.bug.bug_id for m in self.bug_matches if not m.detected]

    def true_positive_clusters(self) -> List[CycleCluster]:
        """Cycle clusters containing at least one ground-truth cycle."""
        matched = set()
        for match in self.bug_matches:
            for cycle in match.cycles:
                matched.add(cycle.key())
        out = []
        for cluster in self.cycle_clusters:
            if any(c.key() in matched for c in cluster.cycles):
                out.append(cluster)
        return out

    def summary(self) -> Dict[str, int]:
        return {
            "faults": self.n_faults,
            "tests": self.n_tests,
            "budget_used": self.budget_used,
            "edges": self.n_edges,
            "cycles": len(self.cycles),
            "clusters": len(self.cycle_clusters),
            "tp_clusters": len(self.true_positive_clusters()),
            "bugs_detected": len(self.detected_bugs),
            "bugs_total": len(self.bug_matches),
            "aborted_step_limit": self.aborted_step_limit,
        }

    # -------------------------------------------------------- serialization

    def to_dict(self) -> Dict[str, Any]:
        """Machine-readable dump (``--json`` / ``--out`` / a manager's report);
        :meth:`from_dict` reconstructs an equivalent report."""
        from ..serialize import cycle_to_obj

        return {
            "system": self.system,
            "n_faults": self.n_faults,
            "n_tests": self.n_tests,
            "budget_used": self.budget_used,
            "runs_executed": self.runs_executed,
            "n_edges": self.n_edges,
            "aborted_step_limit": self.aborted_step_limit,
            "summary": self.summary(),
            "cycles": [cycle_to_obj(c) for c in self.cycles],
            "cycle_clusters": [
                {
                    "signature": _cluster_sig_to_obj(cluster.signature),
                    "cycles": [cycle_to_obj(c) for c in cluster.cycles],
                }
                for cluster in self.cycle_clusters
            ],
            "bug_matches": [
                {
                    "bug": _bug_to_obj(match.bug),
                    "detected": match.detected,
                    "cycles": [cycle_to_obj(c) for c in match.cycles],
                }
                for match in self.bug_matches
            ],
        }

    @classmethod
    def from_dict(cls, obj: Dict[str, Any]) -> "DetectionReport":
        from ..serialize import cycle_from_obj

        return cls(
            system=obj["system"],
            n_faults=obj["n_faults"],
            n_tests=obj["n_tests"],
            budget_used=obj["budget_used"],
            runs_executed=obj["runs_executed"],
            n_edges=obj["n_edges"],
            aborted_step_limit=obj["aborted_step_limit"],
            cycles=[cycle_from_obj(c) for c in obj["cycles"]],
            cycle_clusters=[
                CycleCluster(
                    signature=_cluster_sig_from_obj(cluster["signature"]),
                    cycles=[cycle_from_obj(c) for c in cluster["cycles"]],
                )
                for cluster in obj["cycle_clusters"]
            ],
            bug_matches=[
                BugMatch(
                    bug=_bug_from_obj(match["bug"]),
                    cycles=[cycle_from_obj(c) for c in match["cycles"]],
                )
                for match in obj["bug_matches"]
            ],
        )


def _trigger_satisfied(
    bug: KnownBug, targets: frozenset, edges: Optional[Sequence[CausalEdge]]
) -> bool:
    """A trigger-gated bug needs a discovered edge from one of its trigger
    (environment) faults into the cycle's fault set ``targets``: the
    disturbance must actually have been observed feeding this cascade."""
    if not bug.trigger_faults:
        return True
    if not edges:
        return False
    return any(
        e.src in bug.trigger_faults and e.dst in targets for e in edges
    )


def match_bugs(
    spec: SystemSpec,
    cycles: Sequence[Cycle],
    edges: Optional[Sequence[CausalEdge]] = None,
) -> List[BugMatch]:
    """Match reported cycles against the system's known bugs.

    ``edges`` is the campaign's discovered edge set, consulted for bugs
    declaring ``trigger_faults`` (without it, trigger-gated bugs read as
    undetected — e.g. when re-matching a deserialized report).
    """
    fault_sets = [cycle.fault_set() for cycle in cycles]
    matches = []
    for bug in spec.known_bugs:
        match = BugMatch(bug=bug)
        for cycle, faults in zip(cycles, fault_sets):
            if bug.matches(cycle, faults) and _trigger_satisfied(bug, faults, edges):
                match.cycles.append(cycle)
        matches.append(match)
    return matches


def build_report(
    spec: SystemSpec,
    cycles: Sequence[Cycle],
    clustering: Optional[Clustering],
    *,
    n_faults: int = 0,
    budget_used: int = 0,
    runs_executed: int = 0,
    n_edges: int = 0,
    edges: Optional[Sequence[CausalEdge]] = None,
    aborted_step_limit: int = 0,
) -> DetectionReport:
    report = DetectionReport(
        system=spec.name,
        n_faults=n_faults,
        n_tests=len(spec.workloads),
        budget_used=budget_used,
        runs_executed=runs_executed,
        n_edges=n_edges,
        aborted_step_limit=aborted_step_limit,
        cycles=list(cycles),
        cycle_clusters=cluster_cycles(cycles, clustering),
        bug_matches=match_bugs(spec, cycles, edges),
    )
    return report
