"""Per-site reachable slices and their content digests.

For every code :class:`~repro.instrument.sites.FaultSite` the *slice* is
the set of function bodies transitively reachable (over the call graph)
from the site's enclosing function — the code whose behaviour an
experiment injecting at that site can possibly observe.  The slice
digest is a sha256 over the sorted ``(function key, normalized body
digest)`` pairs, so it changes exactly when some executable statement in
the slice changes and never for comment/whitespace/docstring edits.

Site → function binding is primary-by-literal: the analyzer finds the
``rt.<hook>("site.id", ...)`` string literal in a function body.  Sites
whose literal never appears (registry entries declared for code that
does not exist) fall back to the declared ``FaultSite.function``
qualname; if that also fails they are *unresolved* and keep whole-spec
cache keying with an explicit ``slice_unresolved`` reason.

Environment sites (crash/partition — no code location) are keyed on the
whole-source digest: any executable change anywhere invalidates them,
which is the sound conservative choice.

Workload entry points get the same treatment: each test's slice is the
closure from its setup function, and profile cache entries are keyed on
that digest.  Reachability (for fault-space pruning) is only trusted
when *every* entry point resolved.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Sequence, Set, Tuple

from ..types import SiteKind
from .astutil import ModuleInfo, collect_module, digest_text
from .callgraph import CallGraph, build_call_graph
from .cfg import cfg_stats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..instrument.sites import FaultSite
    from ..systems.base import SystemSpec

ENV_KINDS = (SiteKind.ENV_NODE, SiteKind.ENV_LINK)


@dataclass
class SliceAnalysis:
    """Result of slicing one system's source: plain data only (digests,
    function keys, counts), so it round-trips through the experiment
    cache (``repro.serialize.slices_to_obj``) and pins no parsed module."""

    system: str
    modules: Tuple[str, ...]
    source_digest: str  # digest over every function's normalized body digest
    function_digests: Dict[str, str] = field(default_factory=dict)  # fn key -> body digest
    # call_edges / calls_seen / calls_resolved of the call graph and
    # cfg_blocks / cfg_edges / dead_blocks of the per-function CFGs.
    counts: Dict[str, int] = field(default_factory=dict)
    # site -> enclosing function key(s); usually one, several when the same
    # literal is legitimately instrumented at more than one code location
    # (the slice is then the union of the closures).
    site_roots: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    site_digests: Dict[str, str] = field(default_factory=dict)  # site -> slice digest
    site_slices: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    env_sites: Tuple[str, ...] = ()
    unresolved: Dict[str, str] = field(default_factory=dict)  # site -> reason
    entry_function: Dict[str, str] = field(default_factory=dict)  # test -> fn key
    entry_digests: Dict[str, str] = field(default_factory=dict)
    unresolved_entries: Dict[str, str] = field(default_factory=dict)
    reachable: Set[str] = field(default_factory=set)
    reachability_trusted: bool = False
    # Wall seconds per phase of the pass that computed this record: empty
    # on one replayed from the cache, and not part of its identity.
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
            "functions": len(self.function_digests),
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


def _slice_digest(keys: Sequence[str], function_digests: Dict[str, str]) -> str:
    pairs = [[k, function_digests[k]] for k in sorted(keys)]
    blob = json.dumps(pairs, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _find_site_functions(
    sites: Sequence["FaultSite"], graph: CallGraph
) -> Tuple[Dict[str, Tuple[str, ...]], Dict[str, str]]:
    """Bind each code site to its enclosing function key(s).

    Primary: the ``rt.*("site.id", ...)`` literal scan — a literal that
    appears in several functions yields a multi-root site (union slice).
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
    is what lets per-worker recomputation produce identical cache keys.
    """
    t0 = time.perf_counter()
    modules: Dict[str, ModuleInfo] = {}
    for name in sorted(sources):
        modules[name] = collect_module(name, sources[name])
    t1 = time.perf_counter()
    graph = build_call_graph(modules)
    t2 = time.perf_counter()

    function_digests = {k: fn.digest for k, fn in sorted(graph.functions.items())}
    source_digest = digest_text(
        json.dumps([[k, d] for k, d in function_digests.items()], separators=(",", ":"))
    )
    analysis = SliceAnalysis(
        system=system,
        modules=tuple(sorted(sources)),
        source_digest=source_digest,
        function_digests=function_digests,
        counts={
            "call_edges": graph.n_edges,
            "calls_seen": graph.calls_seen,
            "calls_resolved": graph.calls_resolved,
            **cfg_stats(graph.cfgs),
        },
    )

    code_sites = [s for s in sites if s.kind not in ENV_KINDS]
    analysis.env_sites = tuple(sorted(s.site_id for s in sites if s.kind in ENV_KINDS))
    analysis.site_roots, analysis.unresolved = _find_site_functions(code_sites, graph)

    slice_cache: Dict[Tuple[str, ...], Tuple[Tuple[str, ...], str]] = {}

    def slice_of(roots: Tuple[str, ...]) -> Tuple[Tuple[str, ...], str]:
        if roots not in slice_cache:
            keys = tuple(sorted(graph.reachable_from(roots)))
            slice_cache[roots] = (keys, _slice_digest(keys, function_digests))
        return slice_cache[roots]

    for site_id in sorted(analysis.site_roots):
        keys, digest = slice_of(analysis.site_roots[site_id])
        analysis.site_slices[site_id] = keys
        analysis.site_digests[site_id] = digest
    for site_id in analysis.env_sites:
        analysis.site_digests[site_id] = source_digest

    for test_id in sorted(entries):
        fn_key = entries[test_id]
        if fn_key in graph.functions:
            analysis.entry_function[test_id] = fn_key
            _, analysis.entry_digests[test_id] = slice_of((fn_key,))
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
