"""Static code-slice analysis of target-system Python source.

The paper's static analyzer *filters* a declared site registry; this
package goes one layer deeper and analyzes the target system's actual
Python source with :mod:`ast`:

* :mod:`repro.analysis.astutil` — source parsing, function collection
  (with qualified names), and the normalized AST digests of
  :func:`source_digests`, insensitive to comments, whitespace, and
  docstrings, which only ``repro diff-run`` and ``repro analyze`` read;
* :mod:`repro.analysis.callgraph` — the interprocedural call graph over
  every call in each function body: ``self.method`` calls, module-level
  calls, constructors, and callbacks registered through the node/sim API
  (``env.every``, ``env.rpc``, ``rt.rpc_call`` arguments);
* :mod:`repro.analysis.slicer` — each
  :class:`~repro.instrument.sites.FaultSite`'s enclosing functions and
  workload entry-point reachability;
* :mod:`repro.analysis.source` — source providers (live modules, source
  trees, git refs) so the same slicer serves the running system and
  ``repro diff-run OLD NEW``;
* :mod:`repro.analysis.diff` — digest and report diffing for
  ``repro diff-run``.

Reachability checks the sites each system declares dead
(``tests/unit/test_dead_sites.py``, docs/static-analysis.md); no campaign
and no result key reads the analysis.
"""

from .astutil import source_digests
from .diff import ReportDiff, SliceDiff, diff_reports, diff_slices
from .slicer import SliceAnalysis, analyze_sources, analyze_system
from .source import (
    GitSource,
    SourceProvider,
    TreeSource,
    live_sources,
    module_relpath,
    resolve_provider,
)

__all__ = [
    "GitSource",
    "ReportDiff",
    "SliceAnalysis",
    "SliceDiff",
    "SourceProvider",
    "TreeSource",
    "analyze_sources",
    "analyze_system",
    "diff_reports",
    "diff_slices",
    "live_sources",
    "module_relpath",
    "resolve_provider",
    "source_digests",
]
