"""Execution traces recorded by the runtime agent.

A :class:`RunTrace` is everything fault causality analysis needs from one
run: the fault events encountered (with their local states), per-loop
iteration counts (with local iteration states), and the set of sites
reached.  A :class:`RunGroup` bundles the repeated runs (default five) of
one (test, injection) combination.

Recording is the instrumentation hot path (the §8.5 overhead experiment),
so a trace bound to a :class:`~repro.instrument.sites.SiteInterner`
records into *flat, integer-indexed* structures — an ``array`` of
iteration counts, a ``bytearray`` of reached flags, and an int-keyed
local-state dict — instead of hashing site-id strings on every event.
The historical string-keyed surface (``loop_counts`` / ``loop_states`` /
``reached``) is preserved as properties: live structures on an unbound
trace, materialized views on an interned one.  FCA and serialization see
identical values either way.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Set

from ..config import MAX_STATES_PER_SITE
from ..types import FaultKey, LocalState, StateSet
from .plan import InjectionPlan
from .sites import SiteInterner


@dataclass(frozen=True)
class FaultEvent:
    """One occurrence of a fault (natural or injected) during a run."""

    fault: FaultKey
    time: float
    state: LocalState
    injected: bool = False


@dataclass(eq=False)
class RunTrace:
    """Trace of a single run of a single test."""

    test_id: str
    injection: Optional[InjectionPlan] = None
    seed: int = 0
    events: List[FaultEvent] = field(default_factory=list)
    branches_recorded: int = 0
    saturated: bool = False
    virtual_end_ms: float = 0.0
    #: Bound by the runtime agent (via :meth:`bind_interner`) before
    #: recording starts; ``None`` means string-keyed (legacy) storage.
    interner: Optional[SiteInterner] = None

    def __post_init__(self) -> None:
        # String-keyed stores.  On an unbound trace they hold everything;
        # on an interned trace they only hold sites missing from the
        # registry (rare — ad-hoc sites used by tests).
        self._extra_counts: Counter = Counter()
        self._extra_reached: Set[str] = set()
        self._extra_loop_states: Dict[str, Set[LocalState]] = {}
        self._alloc_interned()

    def _alloc_interned(self) -> None:
        if self.interner is None:
            self._counts: Optional[array] = None
            self._reached_flags: Optional[bytearray] = None
            self._loop_states: Dict[int, Set[LocalState]] = {}
        else:
            n = len(self.interner)
            self._counts = array("q", bytes(8 * n))
            self._reached_flags = bytearray(n)
            self._loop_states = {}

    # ------------------------------------------------------------- binding

    def bind_interner(self, interner: SiteInterner) -> None:
        """Switch to interned recording, migrating any recorded data.

        Called by the runtime agent before a run starts; rebinding to the
        same interner is a no-op.
        """
        if self.interner is interner or self.interner == interner:
            return
        counts = self.loop_counts
        reached = self.reached
        loop_states = self.loop_states
        self.interner = interner
        self._extra_counts = Counter()
        self._extra_reached = set()
        self._extra_loop_states = {}
        self._alloc_interned()
        self.loop_counts = counts
        self.reached = reached
        self.loop_states = loop_states

    # ------------------------------------------------- string-keyed views

    @property
    def loop_counts(self) -> Counter:
        """Per-site iteration counts (live Counter when unbound, snapshot
        when interned — mutate through ``record_*``, not through this)."""
        if self.interner is None:
            return self._extra_counts
        out = Counter(self._extra_counts)
        name = self.interner.name
        for idx, count in enumerate(self._counts):
            if count:
                out[name(idx)] = count
        return out

    @loop_counts.setter
    def loop_counts(self, value: Mapping[str, int]) -> None:
        if self.interner is None:
            self._extra_counts = Counter(value)
            return
        self._counts = array("q", bytes(8 * len(self.interner)))
        self._extra_counts = Counter()
        index = self.interner.index
        for site_id, count in value.items():
            idx = index(site_id)
            if idx is None:
                self._extra_counts[site_id] = count
            else:
                self._counts[idx] = count

    @property
    def reached(self) -> Set[str]:
        """Sites reached at least once (live set when unbound)."""
        if self.interner is None:
            return self._extra_reached
        name = self.interner.name
        out = {name(idx) for idx, flag in enumerate(self._reached_flags) if flag}
        out |= self._extra_reached
        return out

    @reached.setter
    def reached(self, value: Iterable[str]) -> None:
        if self.interner is None:
            self._extra_reached = set(value)
            return
        self._reached_flags = bytearray(len(self.interner))
        self._extra_reached = set()
        index = self.interner.index
        for site_id in value:
            idx = index(site_id)
            if idx is None:
                self._extra_reached.add(site_id)
            else:
                self._reached_flags[idx] = 1

    @property
    def loop_states(self) -> Dict[str, Set[LocalState]]:
        """Per-site local iteration states (live dict when unbound)."""
        if self.interner is None:
            return self._extra_loop_states
        name = self.interner.name
        out = {name(idx): states for idx, states in self._loop_states.items()}
        out.update(self._extra_loop_states)
        return out

    @loop_states.setter
    def loop_states(self, value: Mapping[str, Iterable[LocalState]]) -> None:
        if self.interner is None:
            self._extra_loop_states = {site: set(states) for site, states in value.items()}
            return
        self._loop_states = {}
        self._extra_loop_states = {}
        index = self.interner.index
        for site_id, states in value.items():
            idx = index(site_id)
            if idx is None:
                self._extra_loop_states[site_id] = set(states)
            else:
                self._loop_states[idx] = set(states)

    # ------------------------------------------------------------ recording

    def mark_reached(self, site_id: str) -> None:
        if self.interner is None:
            self._extra_reached.add(site_id)
            return
        idx = self.interner.index(site_id)
        if idx is None:
            self._extra_reached.add(site_id)
        else:
            self._reached_flags[idx] = 1

    def record_event(self, event: FaultEvent) -> None:
        self.events.append(event)
        self.mark_reached(event.fault.site_id)

    def record_loop_iteration(self, site_id: str, state: Optional[LocalState]) -> None:
        if self.interner is not None:
            idx = self.interner.index(site_id)
        else:
            idx = None
        if idx is None:
            self._extra_counts[site_id] += 1
            self._extra_reached.add(site_id)
        else:
            self._counts[idx] += 1
            self._reached_flags[idx] = 1
        if state is not None:
            states = self.states_bucket(site_id)
            if len(states) < MAX_STATES_PER_SITE:
                states.add(state)

    def states_bucket(self, site_id: str) -> Set[LocalState]:
        """The live (mutable) local-state set of ``site_id``."""
        if self.interner is not None:
            idx = self.interner.index(site_id)
            if idx is not None:
                states = self._loop_states.get(idx)
                if states is None:
                    states = self._loop_states[idx] = set()
                return states
        states = self._extra_loop_states.get(site_id)
        if states is None:
            states = self._extra_loop_states[site_id] = set()
        return states

    # -------------------------------------------------------------- queries

    def loop_count(self, site_id: str) -> int:
        """Iteration count of one site (no view materialization)."""
        if self.interner is not None:
            idx = self.interner.index(site_id)
            if idx is not None:
                return self._counts[idx]
        return self._extra_counts.get(site_id, 0)

    def loop_sites(self) -> Set[str]:
        """Sites with at least one recorded iteration."""
        if self.interner is None:
            return {site for site, count in self._extra_counts.items() if count}
        name = self.interner.name
        out = {name(idx) for idx, count in enumerate(self._counts) if count}
        out |= {site for site, count in self._extra_counts.items() if count}
        return out

    def loop_states_at(self, site_id: str) -> Set[LocalState]:
        """Local states of one site (no view materialization)."""
        if self.interner is not None:
            idx = self.interner.index(site_id)
            if idx is not None:
                return self._loop_states.get(idx, set())
        return self._extra_loop_states.get(site_id, set())

    def was_reached(self, site_id: str) -> bool:
        if self.interner is not None:
            idx = self.interner.index(site_id)
            if idx is not None:
                return bool(self._reached_flags[idx])
        return site_id in self._extra_reached

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
            return frozenset(self.loop_states_at(self.injection.site_id))
        return frozenset(e.state for e in self.events if e.injected)

    def __eq__(self, other: object) -> bool:
        """Content equality, independent of interned vs string storage."""
        if not isinstance(other, RunTrace):
            return NotImplemented
        return (
            self.test_id == other.test_id
            and self.injection == other.injection
            and self.seed == other.seed
            and self.events == other.events
            and self.branches_recorded == other.branches_recorded
            and self.saturated == other.saturated
            and self.virtual_end_ms == other.virtual_end_ms
            and self.loop_counts == other.loop_counts
            and self.loop_states == other.loop_states
            and self.reached == other.reached
        )


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
                run.loop_count(site_id) for run in self.runs
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
            states |= run.loop_states_at(site_id)
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
