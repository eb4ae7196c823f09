"""Fault-site model and registry (the static view of a target system)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import UnknownSite
from ..types import DetectorMeta, EnvMeta, LoopMeta, SiteKind, ThrowMeta


@dataclass(frozen=True)
class FaultSite:
    """One instrumented program location of a target system.

    A code site is named in the code by its id alone, the literal first
    argument of the runtime hook that instruments it (``rt.loop("id",
    ...)``); the slicer finds its enclosing function by that literal.
    Environment sites (``ENV_NODE`` / ``ENV_LINK``) name a piece of the
    simulated world instead of a code location.  ``dead`` declares that
    no workload entry point reaches the site's code: the analyzer drops
    its faults, and ``tests/unit/test_dead_sites.py`` checks the
    declaration against the call graph.
    """

    site_id: str
    kind: SiteKind
    loop: Optional[LoopMeta] = None
    detector: Optional[DetectorMeta] = None
    throw: Optional[ThrowMeta] = None
    env: Optional[EnvMeta] = None
    dead: bool = False

    def __post_init__(self) -> None:
        if self.kind is SiteKind.LOOP and self.loop is None:
            object.__setattr__(self, "loop", LoopMeta())
        if self.kind is SiteKind.DETECTOR and self.detector is None:
            object.__setattr__(self, "detector", DetectorMeta())
        if self.kind in (SiteKind.THROW, SiteKind.LIB_CALL) and self.throw is None:
            object.__setattr__(self, "throw", ThrowMeta())


class SiteRegistry:
    """All instrumented sites of one target system.

    Mini-systems build their registry at import time via the ``loop`` /
    ``throw`` / ``lib_call`` / ``detector`` / ``branch`` helpers, mirroring
    what the paper's static analyzer extracts from bytecode.
    """

    def __init__(self, system: str) -> None:
        self.system = system
        self._sites: Dict[str, FaultSite] = {}

    # -------------------------------------------------------- declaration

    def _add(self, site: FaultSite) -> str:
        if site.site_id in self._sites:
            existing = self._sites[site.site_id]
            if existing != site:
                raise ValueError("conflicting redefinition of site %s" % site.site_id)
            return site.site_id
        self._sites[site.site_id] = site
        return site.site_id

    def loop(
        self,
        site_id: str,
        *,
        parent: Optional[str] = None,
        order: int = 0,
        constant_bound: bool = False,
        does_io: bool = False,
        body_size: int = 10,
        dead: bool = False,
    ) -> str:
        meta = LoopMeta(parent=parent, order=order, constant_bound=constant_bound, does_io=does_io, body_size=body_size)
        return self._add(FaultSite(site_id, SiteKind.LOOP, loop=meta, dead=dead))

    def throw(self, site_id: str, **meta: bool) -> str:
        return self._add(FaultSite(site_id, SiteKind.THROW, throw=ThrowMeta(**meta)))

    def lib_call(self, site_id: str, **meta: bool) -> str:
        return self._add(FaultSite(site_id, SiteKind.LIB_CALL, throw=ThrowMeta(**meta)))

    def detector(self, site_id: str, *, error_value: bool = True, **meta: bool) -> str:
        detector = DetectorMeta(error_value=error_value, **meta)
        return self._add(FaultSite(site_id, SiteKind.DETECTOR, detector=detector))

    def branch(self, site_id: str) -> str:
        return self._add(FaultSite(site_id, SiteKind.BRANCH))

    def env_node(self, site_id: str, node: str) -> str:
        """Environment site: one crashable cluster node (by ``Node.name``)."""
        return self._add(FaultSite(site_id, SiteKind.ENV_NODE, env=EnvMeta(node=node)))

    def env_link(self, site_id: str, link: Tuple[str, str]) -> str:
        """Environment site: one severable node-pair link."""
        a, b = sorted(link)
        return self._add(FaultSite(site_id, SiteKind.ENV_LINK, env=EnvMeta(link=(a, b))))

    def env_sites(self) -> List[FaultSite]:
        """All environment sites (nodes and links) of this registry."""
        return self.by_kind(SiteKind.ENV_NODE) + self.by_kind(SiteKind.ENV_LINK)

    # ------------------------------------------------------------- queries

    def __contains__(self, site_id: str) -> bool:
        return site_id in self._sites

    def __len__(self) -> int:
        return len(self._sites)

    def __iter__(self) -> Iterator[FaultSite]:
        return iter(self._sites.values())

    def get(self, site_id: str) -> FaultSite:
        try:
            return self._sites[site_id]
        except KeyError:
            raise UnknownSite("%s has no site %r" % (self.system, site_id)) from None

    def by_kind(self, kind: SiteKind) -> List[FaultSite]:
        return [s for s in self._sites.values() if s.kind is kind]

    def loops(self) -> List[FaultSite]:
        return self.by_kind(SiteKind.LOOP)

    def children_of(self, loop_site_id: str) -> List[FaultSite]:
        """Loops directly nested inside ``loop_site_id``."""
        return [s for s in self.loops() if s.loop and s.loop.parent == loop_site_id]

    def siblings_after(self, loop_site_id: str) -> List[FaultSite]:
        """Consecutive sibling loops that *follow* ``loop_site_id`` under the
        same parent (the CFG relation of §4.3)."""
        site = self.get(loop_site_id)
        if site.kind is not SiteKind.LOOP or site.loop is None:
            return []
        return [
            s
            for s in self.loops()
            if s.loop
            and s.site_id != site.site_id
            and s.loop.parent == site.loop.parent
            and s.loop.parent is not None
            and s.loop.order > site.loop.order
        ]

    def counts(self) -> Dict[str, int]:
        """Site counts per kind, for the Table 2 reproduction."""
        out: Dict[str, int] = {}
        for kind in SiteKind:
            out[kind.value] = len(self.by_kind(kind))
        return out
