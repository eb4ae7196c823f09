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
a state-set intersection (:func:`~repro.types.states_compatible`), which
the beam kernel (:mod:`repro.core.beam`) evaluates over its whole edge set
at once.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CompatChecker:
    """The beam kernel's counter record for Algorithm 1's ``match``.

    ``enabled`` is whether the state leg is checked at all (the ablation
    switch); the kernel adds every ``match`` it counts to ``checks`` and
    the rejected ones to ``rejected_fault`` (the interference of the first
    edge is not the injected fault of the second) or ``rejected_state``
    (their local states are incompatible).  ``beam.json`` persists it.
    """

    enabled: bool = True
    checks: int = 0
    rejected_state: int = 0
    rejected_fault: int = 0
