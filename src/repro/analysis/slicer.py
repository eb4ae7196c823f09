"""Workload reachability of every fault site, over the call graph.

Each code :class:`~repro.instrument.sites.FaultSite` is bound to its
enclosing function(s), its *roots*; the functions transitively reachable
(over the call graph) from the workload entry points decide which sites
no workload can reach, which ``tests/unit/test_dead_sites.py`` requires
to be exactly the sites declared ``dead`` (the analyzer never injects
those).  Reachability is only trusted when *every* entry point resolved.

Site → function binding is primary-by-literal: the analyzer finds the
``rt.<hook>("site.id", ...)`` string literal in a function body.  Sites
whose literal never appears (registry entries declared for code that
does not exist) fall back to the declared ``FaultSite.function``
qualname; if that also fails they are *unresolved* and never pruned.

The analysis holds no digest: ``repro diff-run`` and ``repro analyze``
take the normalized digests from :func:`repro.analysis.source_digests`,
and result keys hash file bytes (``repro.cache.code_digests``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Sequence, Set, Tuple

from ..types import SiteKind
from .astutil import ModuleInfo, collect_module
from .callgraph import CallGraph, build_call_graph

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..instrument.sites import FaultSite
    from ..systems.base import SystemSpec

ENV_KINDS = (SiteKind.ENV_NODE, SiteKind.ENV_LINK)


@dataclass
class SliceAnalysis:
    """Result of slicing one system's source: plain data only (function
    keys, counts), so it pins no parsed module."""

    system: str
    modules: Tuple[str, ...]
    # functions / call_edges / calls_seen / calls_resolved of the call graph.
    counts: Dict[str, int] = field(default_factory=dict)
    # site -> enclosing function key(s); usually one, several when the same
    # literal is legitimately instrumented at more than one code location
    # (the site is reachable when any of them is).
    site_roots: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    env_sites: Tuple[str, ...] = ()
    unresolved: Dict[str, str] = field(default_factory=dict)  # site -> reason
    entry_function: Dict[str, str] = field(default_factory=dict)  # test -> fn key
    unresolved_entries: Dict[str, str] = field(default_factory=dict)
    reachable: Set[str] = field(default_factory=set)
    reachability_trusted: bool = False
    # Wall seconds per phase of the pass that computed this record, not
    # part of its identity.
    timings: Dict[str, float] = field(default_factory=dict, compare=False)

    def is_reachable(self, site_id: str) -> bool:
        """True unless the site's enclosing function(s) are *known* to be
        unreachable from every workload entry point."""
        roots = self.site_roots.get(site_id)
        if not roots or not self.reachability_trusted:
            return True
        return any(r in self.reachable for r in roots)

    def stats(self) -> Dict[str, object]:
        """Scalar summary (``repro analyze``; ``analysis.*`` in campaign_bench)."""
        out: Dict[str, object] = {
            "modules": len(self.modules),
            "sites_resolved": len(self.site_roots),
            "sites_env": len(self.env_sites),
            "sites_unresolved": len(self.unresolved),
            "entries_resolved": len(self.entry_function),
            "entries_unresolved": len(self.unresolved_entries),
            "reachable_functions": len(self.reachable),
            "reachability_trusted": self.reachability_trusted,
        }
        out.update(self.counts)
        for phase, wall in sorted(self.timings.items()):
            out["wall_%s_s" % phase] = round(wall, 6)
        return out


def _find_site_functions(
    sites: Sequence["FaultSite"], graph: CallGraph
) -> Tuple[Dict[str, Tuple[str, ...]], Dict[str, str]]:
    """Bind each code site to its enclosing function key(s).

    Primary: the ``rt.*("site.id", ...)`` literal scan — a literal that
    appears in several functions yields a multi-root site.
    Secondary: the registry-declared qualname, if it names exactly one
    parsed function.
    """
    by_literal: Dict[str, Set[str]] = {}
    for key, fn in graph.functions.items():
        for site_id in fn.site_literals:
            by_literal.setdefault(site_id, set()).add(key)
    by_qualname: Dict[str, List[str]] = {}
    for key, fn in graph.functions.items():
        by_qualname.setdefault(fn.qualname, []).append(key)

    resolved: Dict[str, Tuple[str, ...]] = {}
    unresolved: Dict[str, str] = {}
    for site in sites:
        hits = tuple(sorted(by_literal.get(site.site_id, ())))
        if hits:
            resolved[site.site_id] = hits
            continue
        decl = sorted(by_qualname.get(site.function, []))
        if len(decl) == 1:
            resolved[site.site_id] = (decl[0],)
        else:
            unresolved[site.site_id] = (
                "site literal not found and declared function %r %s"
                % (site.function, "is ambiguous" if decl else "not in source")
            )
    return resolved, unresolved


def analyze_sources(
    system: str,
    sources: Dict[str, str],
    sites: Sequence["FaultSite"],
    entries: Dict[str, str],
) -> SliceAnalysis:
    """Slice ``sources`` (module name -> source text) for the given sites.

    ``entries`` maps test ids to entry-point keys (``module:qualname``).
    Pure function of its inputs — deterministic across processes, which
    is what lets every process derive identical result keys.
    """
    t0 = time.perf_counter()
    modules: Dict[str, ModuleInfo] = {}
    for name in sorted(sources):
        modules[name] = collect_module(name, sources[name])
    t1 = time.perf_counter()
    graph = build_call_graph(modules)
    t2 = time.perf_counter()

    analysis = SliceAnalysis(
        system=system,
        modules=tuple(sorted(sources)),
        counts={
            "functions": len(graph.functions),
            "call_edges": graph.n_edges,
            "calls_seen": graph.calls_seen,
            "calls_resolved": graph.calls_resolved,
        },
    )

    code_sites = [s for s in sites if s.kind not in ENV_KINDS]
    analysis.env_sites = tuple(sorted(s.site_id for s in sites if s.kind in ENV_KINDS))
    analysis.site_roots, analysis.unresolved = _find_site_functions(code_sites, graph)

    for test_id in sorted(entries):
        fn_key = entries[test_id]
        if fn_key in graph.functions:
            analysis.entry_function[test_id] = fn_key
        else:
            analysis.unresolved_entries[test_id] = "entry point %r not in source" % fn_key
    analysis.reachable = graph.reachable_from(analysis.entry_function.values())
    analysis.reachability_trusted = bool(entries) and not analysis.unresolved_entries

    t3 = time.perf_counter()
    analysis.timings = {
        "parse": t1 - t0,
        "callgraph": t2 - t1,
        "slice": t3 - t2,
        "total": t3 - t0,
    }
    return analysis


def entry_key(setup: object) -> str:
    """Cache-key identity of a workload entry point: ``module:qualname``."""
    return "%s:%s" % (
        getattr(setup, "__module__", "?"),
        getattr(setup, "__qualname__", "?"),
    )


def workload_entries(spec: "SystemSpec") -> Dict[str, str]:
    """Test id -> entry-point key of every workload the spec declares."""
    return {wl.test_id: entry_key(wl.setup) for wl in spec.workloads.values()}


def analyze_system(spec: "SystemSpec", sources: Dict[str, str]) -> SliceAnalysis:
    """Slice a built system spec against the given module sources."""
    return analyze_sources(spec.name, sources, list(spec.registry), workload_entries(spec))
