"""The chain-at-a-time beam search, kept as the tests' oracle.

This is the ``ReferenceBeamSearch`` that ``src/repro/core/beam.py`` carried
beside the vectorized kernel (``_Chain`` / ``ReferenceBeamSearch``
verbatim, imports made absolute), together with the two helpers only it
called: ``Cycle.canonical`` and ``CompatChecker.match``, now functions
here (``canonical(cycle)``, ``match(checker, first, second)``).  Every
chain is a tuple of :class:`~repro.types.CausalEdge` objects, every
``match`` is a counted Python call, and ranking compares key lists.
``tests/property/test_beam_differential.py``, ``tests/unit/
test_beam_memory.py`` and ``tests/unit/test_beam_budget.py`` hold
:class:`~repro.core.beam.BeamSearch` to it: same cycles in the same
order, same ``chains_explored`` and ``levels``, same counters.  Do not
"fix" or speed it up — its quirks are the contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import CSnakeConfig
from repro.core.beam import BeamSearchResult
from repro.core.compat import CompatChecker
from repro.core.cycles import INJECTION_EDGE_TYPES, Cycle
from repro.types import DELAY, CausalEdge, FaultKey, states_compatible


def canonical(cycle: Cycle) -> Cycle:
    """Rotation-invariant canonical form (cycles have no start)."""
    n = len(cycle.edges)
    rotations = [tuple(cycle.edges[i:] + cycle.edges[:i]) for i in range(n)]
    best = min(rotations, key=lambda rot: [e.key() for e in rot])
    return Cycle(best)


def match(checker: CompatChecker, first: CausalEdge, second: CausalEdge) -> bool:
    """Algorithm 1's ``match``: the interference of ``first`` is the
    injected fault of ``second`` and their local states are compatible."""
    checker.checks += 1
    if first.dst != second.src:
        checker.rejected_fault += 1
        return False
    if checker.enabled and not states_compatible(first.dst_states, second.src_states):
        checker.rejected_state += 1
        return False
    return True


def state_rejection_rate(checker: CompatChecker) -> float:
    considered = checker.checks - checker.rejected_fault
    return checker.rejected_state / considered if considered > 0 else 0.0


@dataclass(frozen=True)
class _Chain:
    edges: Tuple[CausalEdge, ...]
    score: float

    @property
    def last(self) -> CausalEdge:
        return self.edges[-1]

    @property
    def first(self) -> CausalEdge:
        return self.edges[0]


class ReferenceBeamSearch:
    """Chain-at-a-time cycle detector: the oracle the kernel is held to."""

    def __init__(
        self,
        config: Optional[CSnakeConfig] = None,
        sim_scores: Optional[Dict[FaultKey, float]] = None,
    ) -> None:
        self.config = config or CSnakeConfig()
        #: SimScore of each fault's cluster; unknown faults default to 1.0
        #: (maximally unconditional, hence ranked last).
        self.sim_scores = sim_scores or {}
        self.compat = CompatChecker(enabled=self.config.compat_check)

    # -------------------------------------------------------------- scoring

    def _chain_score(self, edges: Tuple[CausalEdge, ...]) -> float:
        injected = [e.src for e in edges if e.etype in INJECTION_EDGE_TYPES]
        if not injected:
            return 1.0
        total = sum(self.sim_scores.get(f, 1.0) for f in injected)
        return total / len(injected)

    def _delay_count(self, edges: Tuple[CausalEdge, ...]) -> int:
        return sum(
            1
            for e in edges
            if e.etype in INJECTION_EDGE_TYPES and e.src.kind == DELAY
        )

    # --------------------------------------------------------------- search

    def search(self, edges: Sequence[CausalEdge]) -> BeamSearchResult:
        result = BeamSearchResult(compat=self.compat)
        edge_list = list(edges)
        # Index edges by source fault: a chain ending in fault f can only be
        # extended by edges injecting f, so candidate lookup is O(out-degree)
        # instead of O(|E|).
        self._by_src: Dict[FaultKey, List[CausalEdge]] = {}
        for edge in edge_list:
            self._by_src.setdefault(edge.src, []).append(edge)
        seen_cycles: Dict[Tuple, Cycle] = {}
        queue: List[_Chain] = []
        for edge in edge_list:
            chain = _Chain((edge,), self._chain_score((edge,)))
            if self._exceeds_delay_cap(chain.edges):
                continue
            result.chains_explored += 1
            # A self-edge (f causes f) is already a cycle of length one.
            if match(self.compat, edge, edge):
                self._report(chain.edges, seen_cycles)
            queue.append(chain)

        while queue and result.levels < self.config.max_chain_len - 1:
            result.levels += 1
            extensions = self._extend_level(queue, seen_cycles, result)
            # Exact chain deduplication: future extension depends only on the
            # last edge, closure only on the first, and ranking only on the
            # fault-level signature — interior test combinations are
            # interchangeable, so keep one representative per class.
            unique: Dict[Tuple, _Chain] = {}
            for chain in extensions:
                sig = (
                    tuple((e.src, e.dst, e.etype.value) for e in chain.edges),
                    chain.first.key(),
                    chain.last.key(),
                )
                unique.setdefault(sig, chain)
            extensions = list(unique.values())
            extensions.sort(key=lambda c: (c.score, [e.key() for e in c.edges]))
            queue = extensions[: self.config.beam_width]

        result.cycles = [seen_cycles[k] for k in sorted(seen_cycles)]
        return result

    def _extend_level(
        self,
        queue: List[_Chain],
        seen_cycles: Dict[Tuple, Cycle],
        result: BeamSearchResult,
    ) -> List[_Chain]:
        extensions: List[_Chain] = []
        for chain in queue:
            for edge in self._by_src.get(chain.last.dst, ()):
                if edge in chain.edges:
                    continue  # chains never reuse an edge
                if not match(self.compat, chain.last, edge):
                    continue
                new_edges = chain.edges + (edge,)
                if self._exceeds_delay_cap(new_edges):
                    continue
                if match(self.compat, edge, chain.first):
                    self._report(new_edges, seen_cycles)
                else:
                    extensions.append(_Chain(new_edges, self._chain_score(new_edges)))
        result.chains_explored += len(extensions)
        return extensions

    def _exceeds_delay_cap(self, edges: Tuple[CausalEdge, ...]) -> bool:
        cap = self.config.max_delay_faults
        return cap is not None and self._delay_count(edges) > cap

    def _report(self, edges: Tuple[CausalEdge, ...], seen: Dict[Tuple, Cycle]) -> None:
        cycle = canonical(Cycle(edges))
        seen.setdefault(cycle.key(), cycle)
