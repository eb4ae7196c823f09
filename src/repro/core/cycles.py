"""Cycle representation and clustering of reported cycles (§6.3)."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..types import DELAY, EXCEPTION, NEGATION, CausalEdge, EdgeType, FaultKey
from .clustering import Clustering

#: Edge types that represent an actual fault-injection experiment (ICFG and
#: CFG edges are derived from loop nesting, not from an injection).
INJECTION_EDGE_TYPES = frozenset(
    {EdgeType.E_D, EdgeType.SP_D, EdgeType.E_I, EdgeType.SP_I}
)


@dataclass(frozen=True)
class Cycle:
    """A closed propagation chain: a fault that transitively causes itself."""

    edges: Tuple[CausalEdge, ...]

    def __post_init__(self) -> None:
        if not self.edges:
            raise ValueError("a cycle needs at least one edge")

    # ------------------------------------------------------------ identity

    def key(self) -> Tuple:
        """Fault-level identity: two cycles traversing the same faults via
        the same relationship types are the same cascading failure, no
        matter which tests each link was observed in."""
        n = len(self.edges)
        triples = [(e.src, e.dst, e.etype.value) for e in self.edges]
        rotations = [tuple(triples[i:] + triples[:i]) for i in range(n)]
        return min(rotations)

    # ------------------------------------------------------------- content

    def injected_faults(self) -> List[FaultKey]:
        """Faults injected along the cycle (derived edges excluded)."""
        return [e.src for e in self.edges if e.etype in INJECTION_EDGE_TYPES]

    def fault_set(self) -> frozenset:
        faults = set()
        for e in self.edges:
            faults.add(e.src)
            faults.add(e.dst)
        return frozenset(faults)

    def tests(self) -> List[str]:
        return sorted({e.test_id for e in self.edges})

    def delay_injections(self) -> int:
        return sum(1 for f in self.injected_faults() if f.kind == DELAY)

    def signature(self) -> str:
        """Cycle composition in the paper's Table 3 notation, e.g. ``1D|2E|0N``.

        Kinds beyond the paper's three (registered fault models — e.g. a
        partition's ``P``) are appended as extra ``|<count><char>`` parts,
        so classic cycles keep their historical signatures verbatim.
        """
        counts = Counter(f.kind for f in self.injected_faults())
        sig = "%dD|%dE|%dN" % (
            counts.pop(DELAY, 0),
            counts.pop(EXCEPTION, 0),
            counts.pop(NEGATION, 0),
        )
        if counts:
            from ..faults import model_for  # deferred: faults imports plan

            extras = sorted(
                (model_for(kind).char, n) for kind, n in counts.items()
            )
            sig += "".join("|%d%s" % (n, char) for char, n in extras)
        return sig

    def cluster_signature(self, clustering: Optional[Clustering]) -> Tuple:
        """Multiset of fault clusters involved, for cycle clustering.

        Faults outside the clustering (never injected, e.g. derived parent
        loops) are treated as singleton pseudo-clusters.
        """
        ids: List = []
        for fault in self.injected_faults():
            if clustering is not None and fault in clustering.by_fault:
                ids.append(("G", clustering.by_fault[fault]))
            else:
                ids.append(("f", fault.site_id, fault.kind))
        return tuple(sorted(ids))

    def __len__(self) -> int:
        return len(self.edges)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        parts = ["%s" % e.src for e in self.edges]
        parts.append(str(self.edges[0].src))
        return " -> ".join(parts) + "  [%s]" % self.signature()


@dataclass
class CycleCluster:
    """Cycles grouped by the fault clusters they involve (§6.3)."""

    signature: Tuple
    cycles: List[Cycle] = field(default_factory=list)

    @property
    def representative(self) -> Cycle:
        """Shortest cycle (ties broken deterministically)."""
        return min(self.cycles, key=lambda c: (len(c), c.key()))

    def __len__(self) -> int:
        return len(self.cycles)


def cluster_cycles(cycles: Sequence[Cycle], clustering: Optional[Clustering]) -> List[CycleCluster]:
    """Group equivalent cycles: same multiset of involved fault clusters."""
    groups: Dict[Tuple, CycleCluster] = {}
    for cycle in cycles:
        sig = cycle.cluster_signature(clustering)
        groups.setdefault(sig, CycleCluster(sig)).cycles.append(cycle)
    return sorted(groups.values(), key=lambda g: g.signature)
