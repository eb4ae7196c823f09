"""Static analyzer: selects injectable faults from a site registry.

Applies the paper's conservative filtering rules:

* exceptions (§4.1): reflection- and security-related exceptions and
  exceptions only reachable from tests are excluded;
* loops (§4.1 scalability analysis): loops with a provably constant
  iteration bound are excluded, as are the lowest-ranked 10% of loops by
  reachable-code size unless they perform I/O;
* detectors (§7): boolean functions whose return value depends only on
  final/configuration variables, is constant/unused, or is computed purely
  from primitive utility state are excluded;
* reachability: sites declared ``dead`` (``FaultSite.dead``: no workload
  entry point reaches their code) are excluded — no workload can ever
  drive execution through them, so budget spent there is wasted.
  ``tests/unit/test_dead_sites.py`` checks every declaration against the
  call graph of ``repro.analysis``.

The output is the fault space ``F`` the 3PA protocol allocates budget over,
plus the monitor-point inventory for the Table 2 reproduction.  A site may
trip several filters; ``AnalysisResult.excluded`` keeps every reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..config import LOOP_SIZE_PRUNE_FRAC
from ..faults import CLASSIC_FAULT_KINDS, models_for_site_kind
from ..types import DELAY, EXCEPTION, NEGATION, FaultKey, SiteKind
from .sites import FaultSite, SiteRegistry


@dataclass
class AnalysisResult:
    """Injectable fault space plus bookkeeping for reporting."""

    system: str
    faults: List[FaultKey] = field(default_factory=list)
    #: site_id -> every reason that excluded it (a site can trip several
    #: filters, e.g. constant-bound *and* dead).
    excluded: Dict[str, List[str]] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)

    def fault_sites(self) -> List[str]:
        return [f.site_id for f in self.faults]

    def exclude(self, site_id: str, reason: str) -> None:
        self.excluded.setdefault(site_id, []).append(reason)


class StaticAnalyzer:
    """Rule-based fault selection over a declared site registry.

    ``fault_kinds`` names the registered fault models the campaign may
    inject with (``CSnakeConfig.fault_kinds`` plus
    ``CSnakeConfig.schedules``); sites whose only models are disabled are
    excluded with an explanatory reason, exactly like the paper's static
    filters.
    """

    def __init__(
        self,
        registry: SiteRegistry,
        loop_prune_frac: float = LOOP_SIZE_PRUNE_FRAC,
        fault_kinds: Optional[Sequence[str]] = None,
    ) -> None:
        self.registry = registry
        self.loop_prune_frac = loop_prune_frac
        self.fault_kinds = (
            tuple(fault_kinds) if fault_kinds is not None else CLASSIC_FAULT_KINDS
        )

    def _enabled(self, kind_id: str) -> bool:
        return kind_id in self.fault_kinds

    def _exclude_kind_disabled(self, result: AnalysisResult, sites: List[FaultSite], kind_id: str) -> None:
        for site in sites:
            result.exclude(site.site_id, "fault kind %r not enabled" % kind_id)

    # ----------------------------------------------------------- per-kind

    def _select_throws(self, result: AnalysisResult) -> None:
        sites = self.registry.by_kind(SiteKind.THROW) + self.registry.by_kind(SiteKind.LIB_CALL)
        if not self._enabled("exception"):
            self._exclude_kind_disabled(result, sites, "exception")
            return
        for site in sites:
            meta = site.throw
            assert meta is not None
            if meta.reflection_related:
                result.exclude(site.site_id, "reflection-related exception")
            elif meta.security_related:
                result.exclude(site.site_id, "security-related exception")
            elif meta.test_only:
                result.exclude(site.site_id, "only reachable from tests")
            else:
                result.faults.append(FaultKey(site.site_id, EXCEPTION))

    def _select_loops(self, result: AnalysisResult) -> None:
        loops = self.registry.loops()
        if not self._enabled("delay"):
            self._exclude_kind_disabled(result, loops, "delay")
            return
        candidates: List[FaultSite] = []
        for site in loops:
            meta = site.loop
            assert meta is not None
            if meta.constant_bound:
                result.exclude(site.site_id, "constant iteration bound")
            else:
                candidates.append(site)
        if not candidates:
            return
        # Rank by reachable-code size; prune the bottom fraction unless the
        # loop performs I/O.
        ranked = sorted(candidates, key=lambda s: (s.loop.body_size, s.site_id))
        n_prune = math.floor(len(ranked) * self.loop_prune_frac)
        pruned_ids = set()
        for site in ranked[:n_prune]:
            if not site.loop.does_io:
                pruned_ids.add(site.site_id)
                result.exclude(
                    site.site_id,
                    "short loop without I/O (bottom %d%% by size)"
                    % int(self.loop_prune_frac * 100),
                )
        for site in candidates:
            if site.site_id not in pruned_ids:
                result.faults.append(FaultKey(site.site_id, DELAY))

    def _select_detectors(self, result: AnalysisResult) -> None:
        sites = self.registry.by_kind(SiteKind.DETECTOR)
        if not self._enabled("negation"):
            self._exclude_kind_disabled(result, sites, "negation")
            return
        for site in sites:
            meta = site.detector
            assert meta is not None
            if meta.final_only:
                result.exclude(site.site_id, "return depends only on final/config variables")
            elif meta.constant_return:
                result.exclude(site.site_id, "constant return value")
            elif meta.unused_return:
                result.exclude(site.site_id, "return value never used")
            elif meta.primitive_only:
                result.exclude(site.site_id, "primitive-only utility predicate")
            else:
                result.faults.append(FaultKey(site.site_id, NEGATION))

    def _select_env(self, result: AnalysisResult) -> None:
        """Environment sites: one fault key per enabled model that can
        inject at the site (a link site hosts partition *and* msg_drop
        faults; a node site a crash and every schedule anchored there)."""
        for site in self.registry.env_sites():
            keys = [
                FaultKey(site.site_id, model.kind_id)
                for model in models_for_site_kind(site.kind)
                if self._enabled(model.kind_id)
                and model.injects_at(site.site_id, self.registry)
            ]
            if not keys:
                result.exclude(site.site_id, "environment fault kinds not enabled")
                continue
            result.faults.extend(keys)

    def _prune_dead(self, result: AnalysisResult) -> None:
        """Reachability rule: drop the faults of dead sites, and stamp the
        same reason on dead sites an earlier filter excluded (multi-reason
        bookkeeping)."""
        dead = {site.site_id for site in self.registry if site.dead}
        result.faults = [fault for fault in result.faults if fault.site_id not in dead]
        for site_id in sorted(dead):
            result.exclude(site_id, "statically unreachable from any workload entry point")

    # -------------------------------------------------------------- driver

    def analyze(self) -> AnalysisResult:
        result = AnalysisResult(system=self.registry.system)
        self._select_throws(result)
        self._select_loops(result)
        self._select_detectors(result)
        self._select_env(result)
        self._prune_dead(result)
        result.faults.sort()
        result.counts = self.registry.counts()
        result.counts["injectable"] = len(result.faults)
        result.counts["excluded"] = len(result.excluded)
        return result


def analyze(
    registry: SiteRegistry,
    fault_kinds: Optional[Sequence[str]] = None,
) -> AnalysisResult:
    """Convenience wrapper: run the static analyzer with default settings
    (``fault_kinds`` defaults to the paper's classic taxonomy)."""
    return StaticAnalyzer(registry, fault_kinds=fault_kinds).analyze()
