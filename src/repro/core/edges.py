"""Edge database: all causal relationships discovered by fault injection."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Set, Tuple

from ..types import CausalEdge, FaultKey, StateSet


def _union(old: StateSet, new: StateSet) -> StateSet:
    """``old | new``, as the operand it equals when it equals one: state
    sets replayed from a cache are one object per value
    (:class:`repro.serialize.InternTable`), and a merge keeps them so."""
    if new <= old:
        return old
    if old <= new:
        return new
    return old | new


@dataclass
class EdgeDB:
    """Deduplicated store of causal edges with src-indexed lookup."""

    _edges: Dict[Tuple, CausalEdge] = field(default_factory=dict)
    _by_src: Dict[FaultKey, List[CausalEdge]] = field(default_factory=dict)
    #: Position of each edge key within its ``_by_src`` bucket, so a
    #: state-merge replaces in O(1) instead of linearly scanning the bucket.
    _bucket_pos: Dict[Tuple, int] = field(default_factory=dict)

    def add(self, edge: CausalEdge) -> bool:
        """Insert ``edge``; returns False if an identical edge exists.

        When the same (src, dst, type, test) edge is re-discovered with new
        local states, the state sets are merged so stitching sees every
        context the relationship was observed under.
        """
        key = edge.key()
        existing = self._edges.get(key)
        if existing is not None:
            if (
                edge.src_states <= existing.src_states
                and edge.dst_states <= existing.dst_states
            ):
                return False
            merged = CausalEdge(
                src=edge.src,
                dst=edge.dst,
                etype=edge.etype,
                test_id=edge.test_id,
                src_states=_union(existing.src_states, edge.src_states),
                dst_states=_union(existing.dst_states, edge.dst_states),
            )
            self._replace(key, merged)
            return False
        self._edges[key] = edge
        bucket = self._by_src.setdefault(edge.src, [])
        self._bucket_pos[key] = len(bucket)
        bucket.append(edge)
        return True

    def _replace(self, key: Tuple, new: CausalEdge) -> None:
        self._edges[key] = new
        self._by_src[new.src][self._bucket_pos[key]] = new

    def add_all(self, edges: Iterable[CausalEdge]) -> int:
        return sum(1 for e in edges if self.add(e))

    def edges_from(self, src: FaultKey) -> List[CausalEdge]:
        return list(self._by_src.get(src, ()))

    def all_edges(self) -> List[CausalEdge]:
        return list(self._edges.values())

    def faults(self) -> Set[FaultKey]:
        out: Set[FaultKey] = set()
        for edge in self._edges.values():
            out.add(edge.src)
            out.add(edge.dst)
        return out

    def tests(self) -> Set[str]:
        return {e.test_id for e in self._edges.values()}

    def __len__(self) -> int:
        return len(self._edges)

    def __iter__(self) -> Iterator[CausalEdge]:
        return iter(self._edges.values())
