"""Fault causality analysis (§4.3): counterfactual trace comparison.

Given the profile runs of a test (no injection) and the injection runs of a
(fault, test) combination, FCA identifies the *additional* faults the
injection triggered:

* **execution trace interference** — an exception throw or detector
  negation that occurred (naturally) in injection runs but never in profile
  runs → edge types E(D) / E(I);
* **iteration count interference** — a loop whose iteration count
  statistically increased (one-sided t-test, p = 0.1) → S+(D) / S+(I);
* nested/consecutive loop expansion — an S+ interference on a nested loop
  also yields ICFG (child → parent) and CFG (parent → following sibling)
  delay edges (Table 1 rows 5–6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

from ..config import CSnakeConfig
from ..faults import model_for
from ..instrument.sites import SiteRegistry
from ..instrument.trace import RunGroup
from ..types import DELAY, CausalEdge, EdgeType, FaultKey, SiteKind
from .stats import one_sided_t_pvalues


@dataclass
class FcaResult:
    """Outcome of analysing one (fault, test) injection experiment."""

    fault: FaultKey
    test_id: str
    edges: List[CausalEdge] = field(default_factory=list)
    #: The interference list I(f, t): additional faults triggered (direct
    #: interferences only; derived ICFG/CFG faults are not part of I).
    interference: List[FaultKey] = field(default_factory=list)
    #: Smallest loop-interference p-value observed across *all* candidate
    #: loop sites — including ones above the significance threshold — or
    #: ``None`` when no loop candidates exist.  The adaptive allocator's
    #: promise signal: "almost significant" experiments earn extra budget.
    min_p: Optional[float] = None
    #: Injection runs that hit the sim step limit (``SimEnv.MAX_EVENTS``)
    #: and were stopped early instead of raising (runaway schedules).
    aborted: int = 0


class FaultCausalityAnalysis:
    """Compares profile and injection run groups to derive causal edges."""

    def __init__(self, registry: SiteRegistry, config: Optional[CSnakeConfig] = None) -> None:
        self.registry = registry
        self.config = config or CSnakeConfig()

    # ------------------------------------------------------------- analysis

    def analyze(self, profile: RunGroup, injection: RunGroup) -> FcaResult:
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
        self, profile: RunGroup, injection: RunGroup, fault: FaultKey, result: FcaResult
    ) -> None:
        """Exceptions and negations present under injection, absent in profile."""
        # Edge family by the *model's* declared source class (Table 1):
        # delay-like kinds produce E(D)/S+(D) edges, the rest E(I)/S+(I).
        etype = EdgeType.E_D if model_for(fault.kind).delay_like else EdgeType.E_I
        for candidate, hits in sorted(injection.natural_hits.items()):
            if candidate.kind == DELAY:
                continue  # loop faults handled statistically below
            if profile.natural_hits.get(candidate):
                continue  # not counterfactual: happens without the injection
            if hits / injection.n_runs < self.config.point_event_min_frac:
                continue  # too rare to attribute (noise damping)
            result.interference.append(candidate)
            result.edges.append(
                CausalEdge(
                    src=fault,
                    dst=candidate,
                    etype=etype,
                    test_id=injection.test_id,
                    src_states=injection.injected_states,
                    dst_states=injection.natural_states[candidate],
                )
            )

    def _loop_interferences(
        self, profile: RunGroup, injection: RunGroup, fault: FaultKey, result: FcaResult
    ) -> None:
        """Loops whose iteration count statistically increased.

        All candidate sites of the run group are tested in one batched
        (numpy-vectorized) Welch test instead of one python t-test per
        site — the per-experiment hot path of FCA.
        """
        etype = EdgeType.SP_D if model_for(fault.kind).delay_like else EdgeType.SP_I
        loop_sites = sorted(injection.loop_counts)
        if not loop_sites:
            return
        never = (0,) * profile.n_runs
        pvalues = one_sided_t_pvalues(
            [injection.loop_counts[site_id] for site_id in loop_sites],
            [profile.loop_counts.get(site_id, never) for site_id in loop_sites],
        )
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
                src_states=injection.injected_states,
                dst_states=injection.loop_states.get(site_id, frozenset()),
            )
            result.edges.append(edge)
            self._expand_nested(injection, dst, result)

    def _expand_nested(self, injection: RunGroup, delayed: FaultKey, result: FcaResult) -> None:
        """ICFG/CFG expansion for a delayed loop (Table 1 rows 5-6)."""
        site = self.registry.get(delayed.site_id)
        if site.kind is not SiteKind.LOOP or site.loop is None or site.loop.parent is None:
            return
        parent_id = site.loop.parent
        parent = FaultKey(parent_id, DELAY)
        states = injection.loop_states
        result.edges.append(
            CausalEdge(
                src=delayed,
                dst=parent,
                etype=EdgeType.ICFG,
                test_id=injection.test_id,
                src_states=states.get(delayed.site_id, frozenset()),
                dst_states=states.get(parent_id, frozenset()),
            )
        )
        for sibling in self.registry.siblings_after(delayed.site_id):
            if sibling.site_id not in injection.reached:
                continue
            result.edges.append(
                CausalEdge(
                    src=parent,
                    dst=FaultKey(sibling.site_id, DELAY),
                    etype=EdgeType.CFG,
                    test_id=injection.test_id,
                    src_states=states.get(parent_id, frozenset()),
                    dst_states=states.get(sibling.site_id, frozenset()),
                )
            )
