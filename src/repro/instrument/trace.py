"""Execution traces recorded by the runtime agent.

A :class:`RunTrace` is everything fault causality analysis needs from one
run: the fault events encountered (with their local states), per-loop
iteration counts (with local iteration states), and the set of sites
reached.  A :class:`RunGroup` bundles the repeated runs (default five) of
one (test, injection) combination.

The three recording fields — ``loop_counts`` / ``loop_states`` /
``reached`` — are plain string-keyed containers: the runtime hooks record
into them directly and FCA and serialization read them as they are.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..types import FaultKey, LocalState, StateSet
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

    # -------------------------------------------------------------- queries

    def loop_sites(self) -> Set[str]:
        """Sites with at least one recorded iteration."""
        return {site for site, count in self.loop_counts.items() if count}

    def natural_faults(self) -> Set[FaultKey]:
        """Faults that occurred without being the injected one."""
        return {e.fault for e in self.events if not e.injected}

    def states_of(self, fault: FaultKey, natural_only: bool = True) -> StateSet:
        states = {
            e.state for e in self.events if e.fault == fault and (not natural_only or not e.injected)
        }
        return frozenset(states)

    def injected_states(self) -> StateSet:
        """Local states at which the armed injection actually fired."""
        if self.injection is None:
            return frozenset()
        from ..types import InjKind

        if self.injection.fault.kind is InjKind.DELAY:
            return frozenset(self.loop_states.get(self.injection.site_id, ()))
        return frozenset(e.state for e in self.events if e.injected)


@dataclass
class RunGroup:
    """The repeated runs of one (test, injection) combination."""

    test_id: str
    injection: Optional[InjectionPlan]
    runs: List[RunTrace] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._invalidate()

    def _invalidate(self) -> None:
        """Drop the derived-statistic caches (every ``add`` calls this).

        A profile group is queried once per *experiment* — every FCA against
        test t re-derives t's control matrices and occurrence maps — so the
        answers are memoized per group and rebuilt only when the group gains
        a run.  Queries hand out copies, never the cached containers.
        Threaded campaigns may fill a slot concurrently: benign, the values
        are deterministic and the assignments atomic under the GIL.
        """
        self._loop_rows: Dict[str, Tuple[int, ...]] = {}
        self._natural_hits: Optional[Dict[FaultKey, int]] = None
        self._reached: Optional[Set[str]] = None

    def __len__(self) -> int:
        return len(self.runs)

    def add(self, run: RunTrace) -> None:
        if run.test_id != self.test_id:
            raise ValueError("run belongs to test %s, not %s" % (run.test_id, self.test_id))
        self.runs.append(run)
        self._invalidate()

    def _loop_row(self, site_id: str) -> Tuple[int, ...]:
        row = self._loop_rows.get(site_id)
        if row is None:
            row = self._loop_rows[site_id] = tuple(
                run.loop_counts[site_id] for run in self.runs
            )
        return row

    def loop_samples(self, site_id: str) -> List[int]:
        """Iteration counts of ``site_id`` across the repeated runs."""
        return list(self._loop_row(site_id))

    def loop_count_rows(self, site_ids: List[str]) -> List[List[int]]:
        """Iteration-count matrix: one row per site, one column per run."""
        return [list(self._loop_row(site_id)) for site_id in site_ids]

    def loop_sites(self) -> Set[str]:
        """Sites with at least one iteration in any run of the group."""
        out: Set[str] = set()
        for run in self.runs:
            out |= run.loop_sites()
        return out

    def _natural_hit_counts(self) -> Dict[FaultKey, int]:
        """Per-fault count of runs in which it occurred naturally."""
        hits = self._natural_hits
        if hits is None:
            hits = {}
            for run in self.runs:
                for fault in run.natural_faults():
                    hits[fault] = hits.get(fault, 0) + 1
            self._natural_hits = hits
        return hits

    def fault_occurrence_frac(self, fault: FaultKey) -> float:
        """Fraction of runs in which ``fault`` occurred naturally."""
        if not self.runs:
            return 0.0
        return self._natural_hit_counts().get(fault, 0) / len(self.runs)

    def natural_faults(self) -> Set[FaultKey]:
        return set(self._natural_hit_counts())

    def states_of(self, fault: FaultKey) -> StateSet:
        states: Set[LocalState] = set()
        for run in self.runs:
            states |= run.states_of(fault)
        return frozenset(states)

    def loop_states_of(self, site_id: str) -> StateSet:
        states: Set[LocalState] = set()
        for run in self.runs:
            states.update(run.loop_states.get(site_id, ()))
        return frozenset(states)

    def injected_states(self) -> StateSet:
        states: Set[LocalState] = set()
        for run in self.runs:
            states |= run.injected_states()
        return frozenset(states)

    def reached(self) -> Set[str]:
        out = self._reached
        if out is None:
            out = set()
            for run in self.runs:
                out |= run.reached
            self._reached = out
        return set(out)

    def coverage(self) -> int:
        """Coverage score of the test: number of distinct sites reached."""
        return len(self.reached())
