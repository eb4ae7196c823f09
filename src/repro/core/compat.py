"""Local compatibility check for stitching causal edges (§6.2).

Full path-constraint conjunction checking would need symbolic execution;
CSnake approximates it by requiring, for the fault ``f2`` shared by two
edges (``f1 → f2`` observed in test ``t1``, ``f2 → f3`` injected in test
``t2``):

1. the closest two call-stack levels above ``f2``'s enclosing function
   match between the tests, and
2. the local branch trace (enclosing loop iteration, else enclosing
   function) matches — for loops, *any* pair of iterations matching is
   enough, because delay is injected into every iteration.

Both are encoded in :class:`~repro.types.LocalState`; the check reduces to
a state-set intersection.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..types import CausalEdge, states_compatible


@dataclass
class CompatChecker:
    """Stateful matcher with counters for the ablation benchmarks."""

    enabled: bool = True
    checks: int = 0
    rejected_state: int = 0
    rejected_fault: int = 0

    def match(self, first: CausalEdge, second: CausalEdge) -> bool:
        """Algorithm 1's ``match``: the interference of ``first`` is the
        injected fault of ``second`` and their local states are compatible."""
        self.checks += 1
        if first.dst != second.src:
            self.rejected_fault += 1
            return False
        if self.enabled and not states_compatible(first.dst_states, second.src_states):
            self.rejected_state += 1
            return False
        return True

    @property
    def state_rejection_rate(self) -> float:
        considered = self.checks - self.rejected_fault
        return self.rejected_state / considered if considered > 0 else 0.0
