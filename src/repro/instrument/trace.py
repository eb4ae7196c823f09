"""Execution traces recorded by the runtime agent.

A :class:`RunTrace` is what the runtime records in one run: the fault
events encountered (with their local states), per-loop iteration counts
(with local iteration states), and the set of sites reached.  The three
recording fields — ``loop_counts`` / ``loop_states`` / ``reached`` — are
plain string-keyed containers the runtime hooks record into directly.

A :class:`RunGroup` is the repeated runs (default five) of one (test,
injection) combination reduced, in one pass, to the columns fault
causality analysis reads; it is what the driver keeps, the cache stores
and workers return.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..types import DELAY, FaultKey, LocalState, StateSet
from .plan import InjectionPlan


@dataclass(frozen=True)
class FaultEvent:
    """One occurrence of a fault (natural or injected) during a run."""

    fault: FaultKey
    state: LocalState
    injected: bool = False


@dataclass
class RunTrace:
    """Trace of a single run of a single test."""

    test_id: str
    injection: Optional[InjectionPlan] = None
    seed: int = 0
    events: List[FaultEvent] = field(default_factory=list)
    saturated: bool = False
    #: Per-site iteration counts.
    loop_counts: Counter = field(default_factory=Counter)
    #: Per-site local iteration states.
    loop_states: Dict[str, Set[LocalState]] = field(default_factory=dict)
    #: Sites reached at least once.
    reached: Set[str] = field(default_factory=set)

    def record_event(self, event: FaultEvent) -> None:
        self.events.append(event)
        self.reached.add(event.fault.site_id)

    def natural_faults(self) -> Set[FaultKey]:
        """Faults that occurred without being the injected one."""
        return {e.fault for e in self.events if not e.injected}


@dataclass(frozen=True)
class RunGroup:
    """The repeated runs of one (test, injection) combination, as the
    columns fault causality analysis reads.

    Built once, in one pass over its runs (:meth:`of`); the per-run traces
    are not kept, and nothing changes a group afterwards — its containers
    are shared read-only with every analysis, cache entry and worker
    result that carries it.
    """

    test_id: str
    injection: Optional[InjectionPlan]
    n_runs: int
    #: Per loop site some run iterated: its count in each run, in run
    #: order (0 where that run never iterated).
    loop_counts: Dict[str, Tuple[int, ...]]
    #: Per loop site: the union of its local iteration states.
    loop_states: Dict[str, StateSet]
    #: Per fault that occurred naturally: the number of runs it occurred in.
    natural_hits: Dict[FaultKey, int]
    #: Per fault that occurred naturally: the union of its local states.
    natural_states: Dict[FaultKey, StateSet]
    #: Local states at which the armed injection fired: the injected
    #: events' states, or a delayed loop's iteration states.
    injected_states: StateSet
    #: Sites reached in any run.
    reached: FrozenSet[str]

    @classmethod
    def of(
        cls, test_id: str, injection: Optional[InjectionPlan], runs: Sequence[RunTrace]
    ) -> "RunGroup":
        """The group of ``runs``, all of ``test_id`` under ``injection``."""
        counts: Dict[str, List[int]] = {}
        loop_states: Dict[str, Set[LocalState]] = {}
        hits: Dict[FaultKey, int] = {}
        natural_states: Dict[FaultKey, Set[LocalState]] = {}
        injected: Set[LocalState] = set()
        reached: Set[str] = set()
        for i, run in enumerate(runs):
            if run.test_id != test_id:
                raise ValueError("run belongs to test %s, not %s" % (run.test_id, test_id))
            for site, count in run.loop_counts.items():
                if count:
                    counts.setdefault(site, [0] * len(runs))[i] = count
            for site, states in run.loop_states.items():
                loop_states.setdefault(site, set()).update(states)
            faults: Set[FaultKey] = set()
            # A run's natural events are interned (one object per distinct
            # occurrence), so each object is folded in once.
            for event in {id(e): e for e in run.events}.values():
                if event.injected:
                    injected.add(event.state)
                else:
                    faults.add(event.fault)
                    natural_states.setdefault(event.fault, set()).add(event.state)
            for fault in faults:
                hits[fault] = hits.get(fault, 0) + 1
            reached |= run.reached
        if injection is None:
            injected = set()
        elif injection.fault.kind == DELAY:
            injected = loop_states.get(injection.site_id, set())
        return cls(
            test_id=test_id,
            injection=injection,
            n_runs=len(runs),
            loop_counts={site: tuple(row) for site, row in counts.items()},
            loop_states={site: frozenset(s) for site, s in loop_states.items() if s},
            natural_hits=hits,
            natural_states={fault: frozenset(s) for fault, s in natural_states.items()},
            injected_states=frozenset(injected),
            reached=frozenset(reached),
        )
