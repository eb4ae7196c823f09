"""The trace-keeping run group and the FCA that read it, kept as the tests' oracle.

This is the ``RunGroup`` that ``src/repro/instrument/trace.py`` carried
before a group became the columns FCA reads (``RunGroup`` verbatim as
``ReferenceRunGroup``, imports made absolute), together with the four
``RunTrace`` query helpers only it called — ``loop_sites``,
``natural_faults``, ``states_of`` and ``injected_states``, now functions
here taking the trace — and the ``FaultCausalityAnalysis`` methods of
``src/repro/core/fca.py`` that queried it (``analyze`` and its three
helpers verbatim, in :class:`ReferenceFaultCausalityAnalysis`).  The group
keeps every :class:`~repro.instrument.trace.RunTrace` it is given and
derives each answer from them on demand, behind the memo slots ``add``
invalidates.  ``tests/property/test_rungroup_differential.py`` holds
:class:`~repro.instrument.trace.RunGroup` and the shipped analysis to it:
every query FCA makes, and the resulting ``FcaResult``.  Do not "fix" or
speed it up — its answers are the contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.fca import FaultCausalityAnalysis, FcaResult
from repro.core.stats import one_sided_t_pvalues
from repro.faults import model_for
from repro.instrument.plan import InjectionPlan
from repro.instrument.trace import RunTrace
from repro.types import DELAY, CausalEdge, EdgeType, FaultKey, LocalState, SiteKind, StateSet

# ----------------------------------------------- the RunTrace query helpers


def loop_sites(run: RunTrace) -> Set[str]:
    """Sites with at least one recorded iteration."""
    return {site for site, count in run.loop_counts.items() if count}


def natural_faults(run: RunTrace) -> Set[FaultKey]:
    """Faults that occurred without being the injected one."""
    return {e.fault for e in run.events if not e.injected}


def states_of(run: RunTrace, fault: FaultKey, natural_only: bool = True) -> StateSet:
    states = {
        e.state for e in run.events if e.fault == fault and (not natural_only or not e.injected)
    }
    return frozenset(states)


def injected_states(run: RunTrace) -> StateSet:
    """Local states at which the armed injection actually fired."""
    if run.injection is None:
        return frozenset()
    if run.injection.fault.kind == DELAY:
        return frozenset(run.loop_states.get(run.injection.site_id, ()))
    return frozenset(e.state for e in run.events if e.injected)


# ----------------------------------------------------------------- the group


@dataclass
class ReferenceRunGroup:
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
            out |= loop_sites(run)
        return out

    def _natural_hit_counts(self) -> Dict[FaultKey, int]:
        """Per-fault count of runs in which it occurred naturally."""
        hits = self._natural_hits
        if hits is None:
            hits = {}
            for run in self.runs:
                for fault in natural_faults(run):
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
            states |= states_of(run, fault)
        return frozenset(states)

    def loop_states_of(self, site_id: str) -> StateSet:
        states: Set[LocalState] = set()
        for run in self.runs:
            states.update(run.loop_states.get(site_id, ()))
        return frozenset(states)

    def injected_states(self) -> StateSet:
        states: Set[LocalState] = set()
        for run in self.runs:
            states |= injected_states(run)
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


# ------------------------------------------------------------------ the FCA


class ReferenceFaultCausalityAnalysis(FaultCausalityAnalysis):
    """The analysis as it queried a :class:`ReferenceRunGroup`."""

    def analyze(self, profile: ReferenceRunGroup, injection: ReferenceRunGroup) -> FcaResult:
        if injection.injection is None:
            raise ValueError("injection group has no armed fault")
        if profile.test_id != injection.test_id:
            raise ValueError("profile and injection groups are for different tests")
        fault = injection.injection.fault
        result = FcaResult(fault=fault, test_id=injection.test_id)
        self._point_interferences(profile, injection, fault, result)
        self._loop_interferences(profile, injection, fault, result)
        result.interference.sort()
        return result

    def _point_interferences(
        self,
        profile: ReferenceRunGroup,
        injection: ReferenceRunGroup,
        fault: FaultKey,
        result: FcaResult,
    ) -> None:
        """Exceptions and negations present under injection, absent in profile."""
        # Edge family by the *model's* declared source class (Table 1):
        # delay-like kinds produce E(D)/S+(D) edges, the rest E(I)/S+(I).
        etype = EdgeType.E_D if model_for(fault.kind).delay_like else EdgeType.E_I
        src_states = injection.injected_states()
        for candidate in sorted(injection.natural_faults()):
            if candidate.kind == DELAY:
                continue  # loop faults handled statistically below
            if profile.fault_occurrence_frac(candidate) > 0.0:
                continue  # not counterfactual: happens without the injection
            if injection.fault_occurrence_frac(candidate) < self.config.point_event_min_frac:
                continue  # too rare to attribute (noise damping)
            result.interference.append(candidate)
            result.edges.append(
                CausalEdge(
                    src=fault,
                    dst=candidate,
                    etype=etype,
                    test_id=injection.test_id,
                    src_states=src_states,
                    dst_states=injection.states_of(candidate),
                )
            )

    def _loop_interferences(
        self,
        profile: ReferenceRunGroup,
        injection: ReferenceRunGroup,
        fault: FaultKey,
        result: FcaResult,
    ) -> None:
        """Loops whose iteration count statistically increased.

        All candidate sites of the run group are tested in one batched
        (numpy-vectorized) Welch test instead of one python t-test per
        site — the per-experiment hot path of FCA.
        """
        etype = EdgeType.SP_D if model_for(fault.kind).delay_like else EdgeType.SP_I
        src_states = injection.injected_states()
        loop_sites = sorted(injection.loop_sites())
        if not loop_sites:
            return
        treatments = injection.loop_count_rows(loop_sites)
        controls = profile.loop_count_rows(loop_sites)
        pvalues = one_sided_t_pvalues(treatments, controls)
        for site_id, p in zip(loop_sites, pvalues):
            p = float(p)
            if math.isfinite(p) and (result.min_p is None or p < result.min_p):
                result.min_p = p
            if p >= self.config.p_value:
                continue
            dst = FaultKey(site_id, DELAY)
            result.interference.append(dst)
            edge = CausalEdge(
                src=fault,
                dst=dst,
                etype=etype,
                test_id=injection.test_id,
                src_states=src_states,
                dst_states=injection.loop_states_of(site_id),
            )
            result.edges.append(edge)
            self._expand_nested(injection, dst, result)

    def _expand_nested(
        self, injection: ReferenceRunGroup, delayed: FaultKey, result: FcaResult
    ) -> None:
        """ICFG/CFG expansion for a delayed loop (Table 1 rows 5-6)."""
        site = self.registry.get(delayed.site_id)
        if site.kind is not SiteKind.LOOP or site.loop is None or site.loop.parent is None:
            return
        parent_id = site.loop.parent
        parent = FaultKey(parent_id, DELAY)
        result.edges.append(
            CausalEdge(
                src=delayed,
                dst=parent,
                etype=EdgeType.ICFG,
                test_id=injection.test_id,
                src_states=injection.loop_states_of(delayed.site_id),
                dst_states=injection.loop_states_of(parent_id),
            )
        )
        for sibling in self.registry.siblings_after(delayed.site_id):
            if sibling.site_id not in injection.reached():
                continue
            result.edges.append(
                CausalEdge(
                    src=parent,
                    dst=FaultKey(sibling.site_id, DELAY),
                    etype=EdgeType.CFG,
                    test_id=injection.test_id,
                    src_states=injection.loop_states_of(parent_id),
                    dst_states=injection.loop_states_of(sibling.site_id),
                )
            )
